"""Self-citation counting.

A citation is a self-citation when the citing and the cited paper share a
person. Two corpus records are one person when they are the same record
or carry the same ORCID, which :func:`selfcite.corpus.person_key` encodes;
the corpus numbers those keys once (``Corpus.person_numbers``), and the
one counting loop, :func:`count_citations`, tests person numbers edge by
edge, walking the corpus's incoming CSR index. Its :class:`CitationCounts`
is the row every metric is built from, by
:func:`selfcite.metrics.report_from_counts`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .corpus import Corpus, UnknownResearcher


class SelfCitationMode(Enum):
    """How a citation qualifies as a self-citation.

    FOCAL: the focal researcher's person must author the citing paper.
    ANY_OVERLAP: any person shared between the two papers qualifies.
    """

    FOCAL = "focal"
    ANY_OVERLAP = "any_overlap"


class CitationCounts(NamedTuple):
    """Incoming citations of one researcher's publications.

    ``totals[i]`` and ``selves[i]`` are the total and self citations of
    ``corpus.publications_by_author[focal_researcher][i]``, the
    researcher's publications in sorted-id order. ``per_year`` maps each
    citing publication's year to ``[total, self]`` for that year.
    """

    focal_researcher: str
    totals: list[int]
    selves: list[int]
    per_year: dict[int, list[int]]

    @property
    def total(self) -> int:
        return sum(self.totals)

    @property
    def self_total(self) -> int:
        return sum(self.selves)


def count_citations(
    corpus: Corpus,
    focal: str,
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> CitationCounts:
    """Count incoming citations for every publication the researcher authored.

    Each publication gets its total and self counts, external being the
    difference; the per-year series keys the same counts by the citing
    publication's year. Raises ``UnknownResearcher`` for an id not in the
    corpus. Deterministic: iteration follows corpus order.
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
    per_year: dict[int, list[int]] = {}
    for pub_id in pub_ids:
        cited = number[pub_id]
        start, stop = offsets[cited], offsets[cited + 1]
        totals.append(stop - start)
        self_count = 0
        if start < stop:
            cited_persons = set(persons[cited]) if any_overlap else focal_persons
            for citing in citers[start:stop]:
                bucket = per_year.setdefault(years[citing], [0, 0])
                bucket[0] += 1
                if not cited_persons.isdisjoint(persons[citing]):
                    self_count += 1
                    bucket[1] += 1
        selves.append(self_count)
    return CitationCounts(focal, totals, selves, per_year)
