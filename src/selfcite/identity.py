"""Author identity resolution and self-citation classification.

Deciding whether a citation is a self-citation reduces to deciding whether
two author records denote the same person. Identifiers are messy in the
wild: stable researcher ids are authoritative when both records carry one,
ORCID iDs are the next best signal, and after that only the names remain.
The matcher runs exactly that cascade and reports which rung decided.

Name comparison is deliberately conservative: false merges inflate
self-citation ratios, so a false split is the cheaper mistake. Family
names must agree exactly after normalization (hyphenated families stay
whole, "garcia-lopez" never matches "garcia"); given names match either
in full or via initials when one side is recorded initials-only
("J. R. Smith" matches "Jane R. Smith" but not "Jane Q. Smith").
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

from .corpus import CitationEdge, Corpus, Researcher, person_key


class MatchBasis(Enum):
    ID_MATCH = "IdMatch"
    ORCID_MATCH = "OrcidMatch"
    NAME_MATCH = "NameMatch"


class EmptyName(ValueError):
    """A name is empty, or nothing of it survives normalization."""


class FocalNotAuthorOfCited(Exception):
    def __init__(self, researcher_id: str, pub_id: str):
        self.researcher_id = researcher_id
        self.pub_id = pub_id
        super().__init__(
            f"researcher {researcher_id!r} is not an author of {pub_id!r}"
        )


# ---------------------------------------------------------------------------
# Name normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedName:
    """Canonical decomposition of a personal name.

    ``family`` is the full family token (hyphens preserved); ``given``
    holds the given-name tokens in order, each either a full name or a
    single-letter initial.
    """

    family: str
    given: tuple[str, ...]

    @property
    def initials(self) -> tuple[str, ...]:
        return tuple(tok[0] for tok in self.given)

    @property
    def full_given(self) -> Optional[str]:
        """Joined given names when spelled out; None for initials-only."""
        if self.given and all(len(tok) == 1 for tok in self.given):
            return None
        return " ".join(self.given) if self.given else None

    @property
    def initials_only(self) -> bool:
        return bool(self.given) and all(len(tok) == 1 for tok in self.given)


@lru_cache(maxsize=8192)
def normalize_name(raw: str) -> NormalizedName:
    """Parse a raw name into :class:`NormalizedName`.

    Accepts "Family, Given", "Given Family" and "G. Family" layouts.
    Lowercases, folds diacritics to base letters ("Müller" -> "muller"),
    drops periods and apostrophes, and keeps hyphenated tokens whole.
    Raises ``EmptyName`` when no letters survive.
    """
    if "," in raw:
        family_part, _, given_part = raw.partition(",")
        reordered = f"{given_part} {family_part}"
    else:
        reordered = raw

    kept: list[str] = []
    for ch in unicodedata.normalize("NFKD", reordered):
        if unicodedata.combining(ch):
            continue
        if ch.isalpha():
            kept.append(ch.lower())
        elif ch == "-":
            kept.append(ch)
        elif ch.isspace() or ch == ".":
            kept.append(" ")
        # everything else (apostrophes, digits, stray punctuation) drops out
    tokens = [tok.strip("-") for tok in "".join(kept).split()]
    tokens = [tok for tok in tokens if tok]
    if not tokens:
        raise EmptyName(f"name {raw!r} normalizes to an empty string")
    return NormalizedName(family=tokens[-1], given=tuple(tokens[:-1]))


def _given_compatible(a: NormalizedName, b: NormalizedName) -> bool:
    """Whether two given-name records can denote the same person.

    Spelled-out given names must be equal. Otherwise one side must be
    initials-only, and the initial sequences must agree position by
    position with the shorter a prefix of the longer ("j r" vs
    "jane rebecca"; "j" vs "jane r"). Two differing full spellings
    never match, and neither does a conflicting initial.
    """
    if a.given == b.given:
        return True
    if not a.given or not b.given:
        return False
    if not (a.initials_only or b.initials_only):
        return False
    shorter, longer = sorted((a.initials, b.initials), key=len)
    return shorter == longer[: len(shorter)]


def _names_match(a: Researcher, b: Researcher) -> bool:
    parsed_b = []
    for name_b in b.name_variants:
        try:
            parsed_b.append(normalize_name(name_b))
        except EmptyName:
            continue
    for name_a in a.name_variants:
        try:
            norm_a = normalize_name(name_a)
        except EmptyName:
            continue
        for norm_b in parsed_b:
            if norm_a.family == norm_b.family and _given_compatible(norm_a, norm_b):
                return True
    return False


# ---------------------------------------------------------------------------
# Person matching
# ---------------------------------------------------------------------------


def _as_researcher(value: Researcher | str) -> Researcher:
    if isinstance(value, Researcher):
        return value
    return Researcher(researcher_id="", name_variants=(value,))


def same_person(
    a: Researcher | str, b: Researcher | str
) -> tuple[bool, Optional[MatchBasis]]:
    """Decide whether two author records denote one person.

    Accepts full researcher records or bare name strings. Returns
    ``(decision, basis)`` where ``basis`` names the evidence rung that
    produced a positive decision and is ``None`` on a negative one.

    The cascade runs strongest evidence first and a conflict at a strong
    rung is final: two distinct researcher ids are two people unless a
    shared ORCID proves a duplicate record, and two distinct ORCIDs are
    two people whatever the names say. Name evidence is consulted only
    when no stronger signal exists on both sides. Symmetric.
    """
    ra, rb = _as_researcher(a), _as_researcher(b)
    if ra.researcher_id and rb.researcher_id:
        if ra.researcher_id == rb.researcher_id:
            return True, MatchBasis.ID_MATCH
        if ra.orcid and rb.orcid and ra.orcid == rb.orcid:
            return True, MatchBasis.ORCID_MATCH
        return False, None
    if ra.orcid and rb.orcid:
        if ra.orcid == rb.orcid:
            return True, MatchBasis.ORCID_MATCH
        return False, None
    if _names_match(ra, rb):
        return True, MatchBasis.NAME_MATCH
    return False, None


# ---------------------------------------------------------------------------
# Self-citation classification
# ---------------------------------------------------------------------------


class SelfCitationMode(Enum):
    """How a citation qualifies as a self-citation.

    FOCAL: the designated researcher must appear on both papers.
    ANY_OVERLAP: any author shared between the two papers qualifies.
    """

    FOCAL = "focal"
    ANY_OVERLAP = "any_overlap"


_BASIS_STRENGTH = {
    MatchBasis.ID_MATCH: 0,
    MatchBasis.ORCID_MATCH: 1,
    MatchBasis.NAME_MATCH: 2,
}


@dataclass(frozen=True)
class SelfCitationLabel:
    edge: CitationEdge
    focal_researcher: str
    is_self: bool
    match_basis: Optional[MatchBasis] = None


def classify_self_citation(
    corpus: Corpus,
    edge: CitationEdge,
    focal: str,
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> SelfCitationLabel:
    """Label one citation edge relative to a focal researcher.

    In the default focal mode the focal researcher must be an author of
    the cited publication (``FocalNotAuthorOfCited`` otherwise) and the
    edge is a self-citation iff that person also appears among the citing
    publication's authors. In any-overlap mode any author shared between
    the two papers qualifies. When several author pairs match, the
    strongest basis is reported.
    """
    focal_rec = corpus.researcher(focal)
    citing = corpus.publications[edge.citing_id]
    cited = corpus.publications[edge.cited_id]

    if mode is SelfCitationMode.FOCAL:
        if not any(
            same_person(focal_rec, corpus.researcher(aid))[0]
            for aid in cited.author_ids
        ):
            raise FocalNotAuthorOfCited(focal, edge.cited_id)
        candidate_pairs = [
            (focal_rec, corpus.researcher(aid)) for aid in citing.author_ids
        ]
    else:
        candidate_pairs = [
            (corpus.researcher(ca), corpus.researcher(da))
            for ca in citing.author_ids
            for da in cited.author_ids
        ]

    best: Optional[MatchBasis] = None
    for left, right in candidate_pairs:
        matched, basis = same_person(left, right)
        if matched and (
            best is None or _BASIS_STRENGTH[basis] < _BASIS_STRENGTH[best]
        ):
            best = basis
            if best is MatchBasis.ID_MATCH:
                break
    return SelfCitationLabel(
        edge=edge, focal_researcher=focal, is_self=best is not None, match_basis=best
    )


# ---------------------------------------------------------------------------
# Citation counting
# ---------------------------------------------------------------------------


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
    any_overlap = mode is SelfCitationMode.ANY_OVERLAP
    per_publication: dict[str, Tally] = {}
    year_totals: dict[int, list[int]] = {}
    for pub_id in corpus.publications_by_author.get(focal, ()):
        cited_persons = set(persons[pub_id]) if any_overlap else focal_persons
        edges = corpus.incoming_edges.get(pub_id, ())
        self_count = 0
        for edge in edges:
            citing_year = corpus.publications[edge.citing_id].year
            bucket = year_totals.setdefault(citing_year, [0, 0])
            bucket[0] += 1
            if not cited_persons.isdisjoint(persons[edge.citing_id]):
                self_count += 1
                bucket[1] += 1
        per_publication[pub_id] = Tally(total=len(edges), self=self_count)
    per_year = {year: Tally(*pair) for year, pair in sorted(year_totals.items())}
    return CitationCounts(focal, per_publication, per_year)
