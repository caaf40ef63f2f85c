"""Cohort aggregation, between-group gap statistics, and the funding scenario.

Per-researcher reports roll up into group summaries along one of three
dimensions: discipline, gender, or career stage. Researchers with missing
dimension data land in an explicit Unreported bucket rather than being
dropped, so the group sizes always add back up to the number of reports.

Career stage is derived from years since first publication, evaluated
against an explicit reference year so the same corpus always yields the
same table: under 10 years is early-career, 10 to 20 inclusive is
mid-career, over 20 is senior.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .corpus import (
    Corpus,
    Discipline,
    Gender,
    Researcher,
    UnknownResearcher,
    derive_first_pub_year,
)
from .metrics import MetricsReport


class EmptyInput(ValueError):
    """No reports to aggregate."""


class EmptyGroup(ValueError):
    def __init__(self, key: "CohortKey"):
        self.key = key
        super().__init__(f"no researchers in group {key.label()!r}")


class ZeroGap(ArithmeticError):
    """Baseline gap is zero, so relative reduction is undefined."""


class OutOfRange(ValueError):
    """A fraction argument fell outside [0, 1] or an amount was negative."""


class CareerStage(Enum):
    EARLY = "EarlyCareer"
    MID = "MidCareer"
    SENIOR = "Senior"


class Dimension(Enum):
    DISCIPLINE = "Discipline"
    GENDER = "Gender"
    CAREER_STAGE = "CareerStage"


def career_stage(first_pub_year: int, reference_year: int) -> CareerStage:
    years = reference_year - first_pub_year
    if years < 10:
        return CareerStage.EARLY
    if years <= 20:
        return CareerStage.MID
    return CareerStage.SENIOR


GroupValue = Optional[object]  # Discipline | Gender | CareerStage | None


@dataclass(frozen=True)
class CohortKey:
    dimension: Dimension
    value: GroupValue

    def label(self) -> str:
        """Human-readable group name as it appears in exported tables."""
        if self.value is None or self.value is Gender.UNREPORTED:
            return "Unreported"
        if isinstance(self.value, Gender):
            return self.value.value.capitalize()
        return self.value.value


@dataclass(frozen=True)
class CohortSummary:
    key: CohortKey
    n: int
    mean_scr: float
    mean_inflation: Optional[float]
    inflation_excluded: int
    mean_h: float
    mean_scai: float


@dataclass(frozen=True)
class GapReport:
    group_a: CohortKey
    group_b: CohortKey
    gap_h: float
    gap_scai: float
    reduction: float


def group_value(
    corpus: Corpus,
    researcher_id: str,
    dimension: Dimension,
    reference_year: Optional[int] = None,
) -> GroupValue:
    """The researcher's group along a dimension; None when unknowable.

    Career stage needs ``reference_year``: it is never read from the clock.
    """
    return _group_of(corpus.researcher(researcher_id), corpus, dimension, reference_year)


def _group_of(
    researcher: Researcher,
    corpus: Corpus,
    dimension: Dimension,
    reference_year: Optional[int],
) -> GroupValue:
    """The rule behind :func:`group_value`, for a record already looked up."""
    if dimension is Dimension.DISCIPLINE:
        return researcher.discipline
    if dimension is Dimension.GENDER:
        return None if researcher.gender is Gender.UNREPORTED else researcher.gender
    if reference_year is None:
        raise ValueError("career stage needs a reference_year")
    first = researcher.first_pub_year
    if first is None:
        first = derive_first_pub_year(corpus, researcher.researcher_id)
        if first is None:
            return None
    return career_stage(first, reference_year)


_GROUP_ORDER: dict[Dimension, tuple] = {
    Dimension.DISCIPLINE: tuple(Discipline),
    Dimension.GENDER: (Gender.MALE, Gender.FEMALE),
    Dimension.CAREER_STAGE: (CareerStage.EARLY, CareerStage.MID, CareerStage.SENIOR),
}


def cohort_aggregate(
    reports: Sequence[MetricsReport],
    corpus: Corpus,
    dimension: Dimension,
    reference_year: Optional[int] = None,
) -> list[CohortSummary]:
    """One summary per observed group, in canonical group order.

    Means of inflation are taken over researchers whose inflation is
    defined; the excluded count is carried on the summary so nothing is
    silently lost. The Unreported bucket, when present, sorts last.
    """
    if not reports:
        raise EmptyInput("no reports to aggregate")
    researchers = corpus.researchers
    buckets: dict[GroupValue, list[MetricsReport]] = {}
    for report in reports:
        try:
            researcher = researchers[report.researcher_id]
        except KeyError:
            raise UnknownResearcher(report.researcher_id) from None
        value = _group_of(researcher, corpus, dimension, reference_year)
        buckets.setdefault(value, []).append(report)

    ordered: list[GroupValue] = [
        value for value in _GROUP_ORDER[dimension] if value in buckets
    ]
    if None in buckets:
        ordered.append(None)

    summaries = []
    for value in ordered:
        group = buckets[value]
        inflations = [r.inflation for r in group if r.inflation is not None]
        summaries.append(CohortSummary(
            key=CohortKey(dimension=dimension, value=value),
            n=len(group),
            mean_scr=sum(r.scr for r in group) / len(group),
            mean_inflation=(
                sum(inflations) / len(inflations) if inflations else None
            ),
            inflation_excluded=len(group) - len(inflations),
            mean_h=sum(r.h_index for r in group) / len(group),
            mean_scai=sum(r.scai for r in group) / len(group),
        ))
    return summaries


def gap_reduction(
    reports: Sequence[MetricsReport],
    corpus: Corpus,
    group_a: CohortKey,
    group_b: CohortKey,
    reference_year: Optional[int] = None,
) -> GapReport:
    """How much the between-group mean gap shrinks under adjustment.

    The baseline gap is the difference of group mean h-indexes, the
    adjusted gap the difference of group mean adjusted scores; reduction
    is the fraction of the baseline gap that disappears. A zero baseline
    gap has no defined reduction and raises ``ZeroGap``.
    """
    def summary(key: CohortKey) -> CohortSummary:
        if reports:
            for s in cohort_aggregate(reports, corpus, key.dimension, reference_year):
                if s.key == key:
                    return s
        raise EmptyGroup(key)

    a, b = summary(group_a), summary(group_b)
    gap_h = a.mean_h - b.mean_h
    gap_scai = a.mean_scai - b.mean_scai
    if gap_h == 0:
        raise ZeroGap("mean h-index gap is zero; relative reduction undefined")
    return GapReport(
        group_a=group_a,
        group_b=group_b,
        gap_h=gap_h,
        gap_scai=gap_scai,
        reduction=1 - gap_scai / gap_h,
    )


def estimate_misallocation(
    total_funding: float, metric_weighted_share: float, misallocation_rate: float
) -> float:
    """Funding misdirected by inflated metrics: the product of the inputs."""
    if total_funding < 0:
        raise OutOfRange(f"total funding cannot be negative, got {total_funding}")
    if not (0 <= metric_weighted_share <= 1):
        raise OutOfRange(f"share must be in [0, 1], got {metric_weighted_share}")
    if not (0 <= misallocation_rate <= 1):
        raise OutOfRange(f"rate must be in [0, 1], got {misallocation_rate}")
    return total_funding * metric_weighted_share * misallocation_rate


def summaries_to_csv(summaries: Sequence[CohortSummary]) -> str:
    """Render summaries as a CSV table.

    Columns: group, avg_scr, mean_inflation_pct, n. Inflation is shown
    as a percentage; the cell is empty for a group where no researcher
    has a defined inflation.
    """
    lines = ["group,avg_scr,mean_inflation_pct,n"]
    for s in summaries:
        inflation_cell = (
            "" if s.mean_inflation is None else f"{s.mean_inflation * 100:.2f}"
        )
        lines.append(f"{s.key.label()},{s.mean_scr:.4f},{inflation_cell},{s.n}")
    return "\n".join(lines) + "\n"
