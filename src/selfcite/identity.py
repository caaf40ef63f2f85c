"""Self-citation counting.

A citation is a self-citation when the citing and the cited paper share a
person. Two corpus records are one person when they are the same record
or carry the same ORCID, which :func:`selfcite.corpus.person_key` encodes;
the corpus numbers those keys once (``Corpus.person_numbers``), and one
counting loop tests person numbers edge by edge, walking the corpus's
incoming CSR index. :func:`count_citations` and
:func:`selfcite.metrics.compute_report` both run that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .corpus import Corpus, UnknownResearcher


class SelfCitationMode(Enum):
    """How a citation qualifies as a self-citation.

    FOCAL: the focal researcher's person must author the citing paper.
    ANY_OVERLAP: any person shared between the two papers qualifies.
    """

    FOCAL = "focal"
    ANY_OVERLAP = "any_overlap"


@dataclass(frozen=True)
class Tally:
    total: int
    self: int

    @property
    def external(self) -> int:
        return self.total - self.self


@dataclass(frozen=True)
class CitationCounts:
    """Per-publication and per-citing-year tallies for one researcher."""

    focal_researcher: str
    per_publication: dict[str, Tally]
    per_year: dict[int, Tally]

    @property
    def total(self) -> int:
        return sum(t.total for t in self.per_publication.values())

    @property
    def self_total(self) -> int:
        return sum(t.self for t in self.per_publication.values())


def count_citations(
    corpus: Corpus,
    focal: str,
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> CitationCounts:
    """Tally incoming citations for every publication the researcher authored.

    Each publication gets (total, self) counts with external implied as
    the difference; the per-year series keys the same tallies by the
    citing publication's year. Raises ``UnknownResearcher`` for an id
    not in the corpus. Deterministic: iteration follows corpus order.
    """
    totals, selves, years = _tally(corpus, focal, mode)
    return CitationCounts(
        focal,
        dict(zip(corpus.publications_by_author[focal], map(Tally, totals, selves))),
        {year: Tally(*pair) for year, pair in sorted(years.items())},
    )


def _tally(
    corpus: Corpus, focal: str, mode: SelfCitationMode
) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """The one counting loop: per publication of ``focal``, in sorted-id
    order, its total and self citations, and citing year -> [total, self].
    """
    try:  # every researcher of the corpus has an entry, if only ()
        pub_ids = corpus.publications_by_author[focal]
    except KeyError:
        raise UnknownResearcher(focal) from None
    persons = corpus.publication_persons
    years = corpus.publication_years
    number = corpus.publication_numbers
    offsets, citers = corpus.incoming_edges
    focal_persons = {corpus.person_numbers[focal]}
    any_overlap = mode is SelfCitationMode.ANY_OVERLAP
    totals: list[int] = []
    selves: list[int] = []
    year_totals: dict[int, list[int]] = {}
    for pub_id in pub_ids:
        cited = number[pub_id]
        start, stop = offsets[cited], offsets[cited + 1]
        totals.append(stop - start)
        self_count = 0
        if start < stop:
            cited_persons = set(persons[cited]) if any_overlap else focal_persons
            for citing in citers[start:stop]:
                bucket = year_totals.setdefault(years[citing], [0, 0])
                bucket[0] += 1
                if not cited_persons.isdisjoint(persons[citing]):
                    self_count += 1
                    bucket[1] += 1
        selves.append(self_count)
    return totals, selves, year_totals
