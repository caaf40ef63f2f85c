"""Seeded synthetic corpus generation with controllable self-citation rates.

The generator builds cohorts of researchers whose realized self-citation
ratios land near per-group targets, so discipline and gender tables can be
reproduced at desk scale with known ground truth. Everything is driven by
one ``numpy`` generator seeded from the spec: the same spec and seed always
produce the same corpus, byte for byte.

Per researcher, the group's target ratio is softened into an individual
draw from a moment-matched Beta distribution (fixed concentration, so the
spread is realistic but the group mean stays on target), publication
counts scale with the target h, per-publication citation counts come from
a discretized log-normal, and each publication's citations are split
self/external by a binomial draw at the individual ratio. Self-citations
are realized as edges from the researcher's own later publications;
external ones come from other cohort members' citing publications.

A second operation grafts the citation-compounding dynamic onto an
existing corpus: every self-citation spawns a Poisson-distributed number
of additional external citations to the self-cited work, landing uniformly
within a fixed horizon after the self-citation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cohort import CareerStage
from .corpus import (
    MIN_YEAR,
    Corpus,
    Discipline,
    Gender,
    Provenance,
    Publication,
    Researcher,
    json_int,
    json_number,
    max_valid_year,
)

# Beta concentration for individual self-citation ratios: alpha+beta of the
# moment-matched distribution. Higher = tighter spread around the target.
SCR_CONCENTRATION = 30.0
# Publications per unit of target h; log-normal median scale and spread for
# per-publication citation counts. Tuned once so realized mean h tracks the
# target within the promised 20% at cohort sizes >= 50.
PUBS_PER_H = 2.2
COUNT_MEDIAN_SCALE = 0.9
COUNT_SIGMA = 0.8
# Citing-side bundling: how many references one synthesized publication holds.
CITER_PUB_CAPACITY = 25

DEFAULT_COMPOUNDING_RATE = 3.0
DEFAULT_COMPOUNDING_HORIZON = 5

_STAGE_OFFSETS = {
    CareerStage.EARLY: (0, 9),
    CareerStage.MID: (10, 20),
    CareerStage.SENIOR: (21, 35),
}


class InvalidSpec(ValueError):
    """Generator spec violates its invariants."""


class InvalidRate(ValueError):
    """Compounding rate or horizon outside the legal range."""


@dataclass(frozen=True)
class YearRange:
    start: int
    end: int


@dataclass(frozen=True)
class GroupSpec:
    discipline: Discipline
    n_researchers: int
    target_mean_scr: float
    target_mean_h: float
    gender: Gender = Gender.UNREPORTED
    career_stage: Optional[CareerStage] = None


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int
    groups: tuple[GroupSpec, ...]
    years: YearRange
    compounding_rate: float = DEFAULT_COMPOUNDING_RATE
    compounding_horizon_years: int = DEFAULT_COMPOUNDING_HORIZON

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if not self.groups:
            raise InvalidSpec("spec needs at least one group")
        if self.years.start < MIN_YEAR:
            raise InvalidSpec(
                f"years.start {self.years.start} is before the earliest "
                f"valid year {MIN_YEAR}"
            )
        if self.years.start > self.years.end:
            raise InvalidSpec(
                f"year range [{self.years.start}, {self.years.end}] is empty"
            )
        if self.years.end > max_valid_year():
            raise InvalidSpec(
                f"year range ends at {self.years.end}, after the latest "
                f"valid year {max_valid_year()}"
            )
        span = self.years.end - self.years.start
        for idx, group in enumerate(self.groups):
            where = f"group {idx}"
            if group.n_researchers < 1:
                raise InvalidSpec(f"{where}: n_researchers must be >= 1")
            if not (0 <= group.target_mean_scr <= 1):
                raise InvalidSpec(
                    f"{where}: target_mean_scr must be in [0, 1], "
                    f"got {group.target_mean_scr}"
                )
            if not 0 <= group.target_mean_h < math.inf:
                raise InvalidSpec(
                    f"{where}: target_mean_h must be finite and >= 0, "
                    f"got {group.target_mean_h}"
                )
            if group.career_stage is not None:
                min_offset = _STAGE_OFFSETS[group.career_stage][0]
                if span < min_offset:
                    raise InvalidSpec(
                        f"{where}: career stage {group.career_stage.value} needs "
                        f"a first publication at least {min_offset} years before "
                        f"{self.years.end}, but the range starts at {self.years.start}"
                    )
        if not 0 <= self.compounding_rate < math.inf:
            raise InvalidSpec(
                f"compounding_rate must be finite and >= 0, got {self.compounding_rate}"
            )
        if self.compounding_horizon_years < 1:
            raise InvalidSpec("compounding_horizon_years must be >= 1")


def spec_from_json(raw: dict) -> GeneratorSpec:
    """Build a GeneratorSpec from parsed JSON; InvalidSpec on any problem,
    a number that a corpus file would refuse included."""
    if not isinstance(raw, dict):
        raise InvalidSpec("spec must hold a JSON object")
    try:
        years = raw["years"]
        groups = tuple(
            GroupSpec(
                discipline=Discipline(g["discipline"]),
                n_researchers=json_int(g["n_researchers"], "n_researchers"),
                target_mean_scr=json_number(g["target_mean_scr"], "target_mean_scr"),
                target_mean_h=json_number(g["target_mean_h"], "target_mean_h"),
                gender=Gender(g["gender"]) if g.get("gender") else Gender.UNREPORTED,
                career_stage=(
                    CareerStage(g["career_stage"]) if g.get("career_stage") else None
                ),
            )
            for g in raw["groups"]
        )
        return GeneratorSpec(
            seed=json_int(raw["seed"], "seed"),
            groups=groups,
            years=YearRange(
                start=json_int(years["start"], "years.start"),
                end=json_int(years["end"], "years.end"),
            ),
            compounding_rate=json_number(
                raw.get("compounding_rate", DEFAULT_COMPOUNDING_RATE), "compounding_rate"
            ),
            compounding_horizon_years=json_int(
                raw.get("compounding_horizon_years", DEFAULT_COMPOUNDING_HORIZON),
                "compounding_horizon_years",
            ),
        )
    except InvalidSpec:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed generator spec: {exc}") from None


# ---------------------------------------------------------------------------
# Corpus generation
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _CiterBundle:
    """An open citing publication of one researcher with spare reference slots."""

    pub_id: str
    year: int
    slots_left: int
    targets: set[str]


class _Builder:
    def __init__(self, spec: GeneratorSpec):
        self.spec = spec
        self.rng = np.random.default_rng(spec.seed)
        self.researchers: list[Researcher] = []
        self.by_id: dict[str, Researcher] = {}
        self.publications: list[Publication] = []
        # citation i is citing[i] citing cited[i]
        self.citing: list[str] = []
        self.cited: list[str] = []
        # researcher id -> open citing bundles in creation order; a bundle
        # leaves the list when its last slot is taken
        self.bundles: dict[str, list[_CiterBundle]] = {}
        self.citer_serial = 0

    def add_researcher(self, researcher: Researcher) -> None:
        self.researchers.append(researcher)
        self.by_id[researcher.researcher_id] = researcher

    def draw_scr(self, target: float) -> float:
        if target <= 0.0:
            return 0.0
        if target >= 1.0:
            return 1.0
        a = target * SCR_CONCENTRATION
        b = (1.0 - target) * SCR_CONCENTRATION
        return float(self.rng.beta(a, b))

    def draw_first_year(self, stage: Optional[CareerStage]) -> int:
        years = self.spec.years
        span = years.end - years.start
        if stage is None:
            return int(self.rng.integers(years.start, years.end + 1))
        lo, hi = _STAGE_OFFSETS[stage]
        offset = int(self.rng.integers(lo, min(hi, span) + 1))
        return years.end - offset

    def new_citing_slot(self, citer_id: str, min_year: int, target_pub: str) -> str:
        """A publication of ``citer_id`` able to cite ``target_pub``.

        Reuses the first open bundle whose year works, otherwise synthesizes
        a fresh citing publication. Never returns a publication already
        citing the same target, so edges stay unique; ``Corpus.from_parts``
        is the one check that they do.
        """
        bundles = self.bundles.setdefault(citer_id, [])
        for i, bundle in enumerate(bundles):
            if bundle.year >= min_year and target_pub not in bundle.targets:
                bundle.slots_left -= 1
                bundle.targets.add(target_pub)
                if not bundle.slots_left:
                    del bundles[i]
                return bundle.pub_id
        self.citer_serial += 1
        year = int(self.rng.integers(min_year, self.spec.years.end + 1))
        pub_id = f"Q{self.citer_serial:06d}"
        citer = self.by_id[citer_id]
        self.publications.append(Publication(
            pub_id=pub_id,
            title=f"Citing article {self.citer_serial}",
            year=year,
            author_ids=(citer_id,),
            discipline=citer.discipline,
        ))
        if CITER_PUB_CAPACITY > 1:
            bundles.append(_CiterBundle(
                pub_id=pub_id,
                year=year,
                slots_left=CITER_PUB_CAPACITY - 1,
                targets={target_pub},
            ))
        return pub_id

    def add_edge(self, citing: str, cited: str) -> None:
        self.citing.append(citing)
        self.cited.append(cited)


def generate_synthetic_corpus(spec: GeneratorSpec) -> Corpus:
    """Build a corpus realizing the spec's per-group targets.

    Deterministic for a given spec. Realized per-group mean self-citation
    ratios land within about 0.02 of the targets at 50+ researchers per
    group; realized mean h tracks the target loosely (rank order and
    roughly 20% relative tolerance), since h is a nonlinear functional of
    the sampled counts. Compounding is NOT applied here; feed the result
    through :func:`apply_compounding` to layer that on.
    """
    builder = _Builder(spec)
    rng = builder.rng
    years = spec.years

    # Pass 1: researcher shells, so external citers can reference any member.
    per_group_members: list[list[str]] = []
    for gi, group in enumerate(spec.groups):
        members = []
        for ri in range(group.n_researchers):
            rid = f"R{gi}-{ri:04d}"
            first_year = builder.draw_first_year(group.career_stage)
            builder.add_researcher(Researcher(
                researcher_id=rid,
                name_variants=(f"Author {gi}-{ri:04d}",),
                orcid=None,
                gender=group.gender,
                first_pub_year=first_year,
                discipline=group.discipline,
            ))
            members.append(rid)
        per_group_members.append(members)

    all_ids = [r.researcher_id for r in builder.researchers]
    by_id = builder.by_id
    if len(all_ids) == 1:
        pool = Researcher(
            researcher_id="EXT-0001",
            name_variants=("External Citer",),
            discipline=Discipline.OTHER,
        )
        builder.add_researcher(pool)
        external_citers = [pool.researcher_id]
    else:
        external_citers = all_ids
    citer_cursor = 0

    # Pass 2: publications and citation edges, researcher by researcher.
    for gi, group in enumerate(spec.groups):
        for ri, rid in enumerate(per_group_members[gi]):
            scr_i = builder.draw_scr(group.target_mean_scr)
            first_year = by_id[rid].first_pub_year
            h_target = group.target_mean_h
            n_pubs = max(1, round(PUBS_PER_H * h_target + float(rng.uniform(-2, 2))))

            pub_years = [first_year]
            pub_years += rng.integers(first_year, years.end + 1, size=n_pubs - 1).tolist()
            pub_ids = []
            for pj, year in enumerate(pub_years):
                pid = f"P-{rid}-{pj:04d}"
                builder.publications.append(Publication(
                    pub_id=pid,
                    title=f"Study {rid}-{pj:04d}",
                    year=year,
                    author_ids=(rid,),
                    discipline=group.discipline,
                ))
                pub_ids.append(pid)

            # One block draw per quantity consumes the stream exactly as a
            # scalar draw per publication would; binomial draws nothing for
            # a zero total.
            if h_target > 0:
                mu = float(np.log(COUNT_MEDIAN_SCALE * h_target))
                totals = [
                    round(c) for c in rng.lognormal(mu, COUNT_SIGMA, size=n_pubs).tolist()
                ]
                selves = rng.binomial(totals, scr_i).tolist()
            else:
                totals = selves = [0] * n_pubs

            extra_serial = 0
            for pj, pid in enumerate(pub_ids):
                cited_year = pub_years[pj]
                # Self edges come from the researcher's own publications in
                # the same or a later year; synthesize follow-ups on deficit.
                candidates = sorted(
                    (
                        other
                        for oj, other in enumerate(pub_ids)
                        if oj != pj and pub_years[oj] >= cited_year
                    ),
                )
                need = selves[pj]
                while len(candidates) < need:
                    extra_serial += 1
                    year = int(rng.integers(cited_year, years.end + 1))
                    extra_id = f"P-{rid}-x{extra_serial:04d}"
                    builder.publications.append(Publication(
                        pub_id=extra_id,
                        title=f"Follow-up {rid}-x{extra_serial:04d}",
                        year=year,
                        author_ids=(rid,),
                        discipline=group.discipline,
                    ))
                    candidates.append(extra_id)
                if need:
                    chosen_idx = rng.choice(len(candidates), size=need, replace=False)
                    for ci in sorted(int(i) for i in chosen_idx):
                        builder.add_edge(candidates[ci], pid)

                for _ in range(totals[pj] - selves[pj]):
                    citer_id = external_citers[citer_cursor % len(external_citers)]
                    citer_cursor += 1
                    if citer_id == rid:
                        citer_id = external_citers[citer_cursor % len(external_citers)]
                        citer_cursor += 1
                    citer_fp = by_id[citer_id].first_pub_year
                    min_year = cited_year
                    if citer_fp is not None:
                        min_year = min(max(min_year, citer_fp), years.end)
                    citing_pid = builder.new_citing_slot(citer_id, min_year, pid)
                    builder.add_edge(citing_pid, pid)

    provenance = Provenance(
        source=f"synthetic:seed={spec.seed}", format_version="synth/1"
    )
    return Corpus._from_columns(
        builder.researchers, builder.publications, builder.citing, builder.cited, provenance
    )


# ---------------------------------------------------------------------------
# Compounding
# ---------------------------------------------------------------------------


def apply_compounding(
    corpus: Corpus,
    rate: float,
    horizon_years: int = DEFAULT_COMPOUNDING_HORIZON,
    seed: int = 0,
) -> Corpus:
    """Layer self-citation compounding onto a corpus.

    Every self-citation edge (any person key shared between citing and
    cited publication) spawns a Poisson(rate) number of additional external
    citations to the cited work. Each spawned citation gets a fresh
    single-author publication by a new researcher, dated uniformly in the
    horizon after the self-citation (clamped to the latest valid year).
    The input corpus is never modified; rate 0 returns it unchanged.
    """
    if not 0 <= rate < math.inf:
        raise InvalidRate(f"rate must be finite and >= 0, got {rate}")
    if horizon_years < 1:
        raise InvalidRate(f"horizon must be >= 1 year, got {horizon_years}")
    if rate == 0:
        return corpus

    rng = np.random.default_rng(seed)
    year_cap = max_valid_year()
    new_researchers: list[Researcher] = []
    new_publications: list[Publication] = []
    new_cited: list[str] = []  # the new publications cite these, one each
    serial = 0

    def fresh_ids() -> tuple[str, str]:
        nonlocal serial
        while True:
            serial += 1
            rid = f"CR{serial:06d}"
            pid = f"CP{serial:06d}"
            if rid not in corpus.researchers and pid not in corpus.publications:
                return rid, pid

    persons = corpus.publication_persons
    years = corpus.publication_years
    ids = corpus.publication_ids
    for citing, cited in zip(corpus.citing, corpus.cited):
        if set(persons[citing]).isdisjoint(persons[cited]):
            continue
        base_year = years[citing]
        for _ in range(int(rng.poisson(rate))):
            rid, pid = fresh_ids()
            year = min(base_year + int(rng.integers(1, horizon_years + 1)), year_cap)
            new_researchers.append(Researcher(
                researcher_id=rid,
                name_variants=(f"Compound Citer {serial}",),
                discipline=Discipline.OTHER,
            ))
            new_publications.append(Publication(
                pub_id=pid,
                title=f"Compounding citation {serial}",
                year=year,
                author_ids=(rid,),
                discipline=Discipline.OTHER,
            ))
            new_cited.append(ids[cited])

    return Corpus._from_columns(
        list(corpus.researchers.values()) + new_researchers,
        list(corpus.publications.values()) + new_publications,
        [*map(ids.__getitem__, corpus.citing), *(p.pub_id for p in new_publications)],
        [*map(ids.__getitem__, corpus.cited), *new_cited],
        corpus.provenance,
    )
