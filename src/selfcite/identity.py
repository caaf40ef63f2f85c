"""Self-citation counting.

A citation is a self-citation when the citing and the cited paper share a
person. Two corpus records are one person when they are the same record
or carry the same ORCID, which :func:`selfcite.corpus.person_key` encodes;
the corpus numbers those keys once (``Corpus.person_numbers``), and
:func:`count_citations` tests person numbers edge by edge, walking the
corpus's incoming CSR index.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .corpus import Corpus


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
    corpus.researcher(focal)  # raises UnknownResearcher
    focal_persons = {corpus.person_numbers[focal]}
    persons = corpus.publication_persons
    years = corpus.publication_years
    number = corpus.publication_numbers
    offsets, citers = corpus.incoming_edges
    any_overlap = mode is SelfCitationMode.ANY_OVERLAP
    per_publication: dict[str, Tally] = {}
    year_totals: dict[int, list[int]] = {}
    for pub_id in corpus.publications_by_author.get(focal, ()):
        cited = number[pub_id]
        cited_persons = set(persons[cited]) if any_overlap else focal_persons
        start, stop = offsets[cited], offsets[cited + 1]
        self_count = 0
        for citing in citers[start:stop]:
            bucket = year_totals.setdefault(years[citing], [0, 0])
            bucket[0] += 1
            if not cited_persons.isdisjoint(persons[citing]):
                self_count += 1
                bucket[1] += 1
        per_publication[pub_id] = Tally(total=stop - start, self=self_count)
    per_year = {year: Tally(*pair) for year, pair in sorted(year_totals.items())}
    return CitationCounts(focal, per_publication, per_year)
