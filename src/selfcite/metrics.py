"""Per-researcher impact metrics, traditional and self-citation-adjusted.

The headline quantity is the self-citation-adjusted index

    SCAI = h - alpha * (SCR - beta)^gamma * h

where SCR is the researcher's self-citation ratio. The penalty is a
one-sided hinge: SCR at or below the threshold beta costs nothing, so
moderate self-citation leaves the score untouched, and the fractional
exponent stays well defined. The result is clamped at zero from below
(unreachable with default parameters, reachable with a large alpha).

Alongside SCAI this module computes the h-index over all citations and
over external-only citations, the i10-index, the s-index (an h-style
index over per-publication self-citation counts), and the inflation of
h attributable to self-citation, measured against the external-only
baseline. All arithmetic is 64-bit float; all functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from operator import sub
from typing import Optional, Sequence

from .corpus import Corpus, json_int, json_number
from .identity import CitationCounts, SelfCitationMode, _tally

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.1
DEFAULT_GAMMA = 1.5


class InvalidParams(ValueError):
    """Metric parameters outside their legal ranges."""


class SelfExceedsTotal(ValueError):
    """More self-citations than total citations."""


class ExternalExceedsAll(ValueError):
    """External-only h-index larger than the all-citations h-index."""


@dataclass(frozen=True)
class MetricParams:
    """Shape of the SCAI penalty.

    ``alpha`` scales the penalty, ``beta`` is the no-penalty threshold on
    the self-citation ratio, ``gamma`` controls how fast the penalty grows
    past the threshold.
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf):
            raise InvalidParams(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (0 <= self.beta <= 1):
            raise InvalidParams(f"beta must be in [0, 1], got {self.beta}")
        if not (1 <= self.gamma < math.inf):
            raise InvalidParams(f"gamma must be finite and >= 1, got {self.gamma}")


@dataclass(frozen=True)
class MetricsReport:
    researcher_id: str
    h_index: int
    h_index_external: int
    i10_index: int
    total_citations: int
    self_citations: int
    scr: float
    scai: float
    s_index: int
    inflation: Optional[float]
    yearly_scr: dict[int, float] = field(default_factory=dict)


def compute_h_index(citation_counts: list[int]) -> int:
    """Largest h with at least h entries >= h."""
    h = 0
    for rank, count in enumerate(sorted(citation_counts, reverse=True), start=1):
        if count >= rank:
            h = rank
        else:
            break
    return h


def compute_i10(citation_counts: list[int]) -> int:
    """Number of entries with at least 10 citations."""
    return sum(1 for count in citation_counts if count >= 10)


def compute_scr(self_citations: int, total_citations: int) -> float:
    """Self-citation ratio; 0 by convention when there are no citations."""
    if self_citations < 0 or total_citations < 0:
        raise ValueError("citation counts cannot be negative")
    if self_citations > total_citations:
        raise SelfExceedsTotal(
            f"{self_citations} self-citations exceed {total_citations} total"
        )
    if total_citations == 0:
        return 0.0
    return self_citations / total_citations


def compute_scai(h: int, scr: float, params: MetricParams = MetricParams()) -> float:
    """Self-citation-adjusted index; equals h exactly for scr <= beta."""
    if not (0 <= scr <= 1):
        raise ValueError(f"scr must be in [0, 1], got {scr}")
    if scr <= params.beta:
        return float(h)
    penalty = params.alpha * (scr - params.beta) ** params.gamma * h
    return max(0.0, h - penalty)


def compute_s_index(self_citation_counts_per_publication: list[int]) -> int:
    """h-style index over per-publication self-citation counts."""
    return compute_h_index(self_citation_counts_per_publication)


def compute_inflation(h_all: int, h_external: int) -> Optional[float]:
    """Relative excess of h over its external-only baseline.

    None when the external-only h-index is zero (no meaningful baseline).
    """
    if h_external < 0 or h_all < 0:
        raise ValueError("h-index values cannot be negative")
    if h_external > h_all:
        raise ExternalExceedsAll(f"h_external {h_external} exceeds h_all {h_all}")
    if h_external == 0:
        return None
    return (h_all - h_external) / h_external


def compute_report(
    corpus: Corpus,
    focal: str,
    params: MetricParams = MetricParams(),
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> MetricsReport:
    """Full metrics report for one researcher.

    Counts incoming citations per publication, splits them into self and
    external per the classification mode, and assembles every metric.
    ``yearly_scr`` maps each calendar year in which the researcher was
    cited to the self-citation ratio of that year's citations.
    """
    return _assemble(focal, *_tally(corpus, focal, mode), params)


def report_from_counts(
    counts: CitationCounts, params: MetricParams = MetricParams()
) -> MetricsReport:
    """Assemble a report from precomputed citation tallies."""
    tallies = counts.per_publication.values()
    return _assemble(
        counts.focal_researcher,
        [t.total for t in tallies],
        [t.self for t in tallies],
        {year: (t.total, t.self) for year, t in counts.per_year.items()},
        params,
    )


def _assemble(
    focal: str,
    totals: list[int],
    selves: list[int],
    years: dict[int, Sequence[int]],
    params: MetricParams,
) -> MetricsReport:
    """A report from per-publication total and self counts and citing
    year -> (total, self)."""
    h_all = compute_h_index(totals)
    total = sum(totals)
    self_total = sum(selves)
    if self_total:
        h_ext = compute_h_index(list(map(sub, totals, selves)))
        s_index = compute_s_index(selves)
    else:  # every external count is its total, every self count 0
        h_ext, s_index = h_all, 0
    scr = compute_scr(self_total, total)
    return MetricsReport(
        researcher_id=focal,
        h_index=h_all,
        h_index_external=h_ext,
        i10_index=compute_i10(totals),
        total_citations=total,
        self_citations=self_total,
        scr=scr,
        scai=compute_scai(h_all, scr, params),
        s_index=s_index,
        inflation=compute_inflation(h_all, h_ext),
        yearly_scr={
            year: compute_scr(year_self, year_total)
            for year, (year_total, year_self) in sorted(years.items())
        },
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_json(report: MetricsReport) -> dict:
    """JSON-ready dict with stable field order and sorted year keys."""
    return {
        "researcher_id": report.researcher_id,
        "h_index": report.h_index,
        "h_index_external": report.h_index_external,
        "i10_index": report.i10_index,
        "total_citations": report.total_citations,
        "self_citations": report.self_citations,
        "scr": report.scr,
        "scai": report.scai,
        "s_index": report.s_index,
        "inflation": report.inflation,
        "yearly_scr": {
            str(year): report.yearly_scr[year] for year in sorted(report.yearly_scr)
        },
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value: Optional[float]) -> str:
    """A float or None as ``json`` writes it."""
    if value is None:
        return "null"
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


def _report_text(r: MetricsReport) -> str:
    years = sorted(r.yearly_scr)
    yearly = ",\n      ".join(f'"{y}": {_number(r.yearly_scr[y])}' for y in years)
    yearly = f"{{\n      {yearly}\n    }}" if years else "{}"
    return (
        f'  {{\n    "researcher_id": {encode_basestring(r.researcher_id)},\n'
        f'    "h_index": {r.h_index},\n'
        f'    "h_index_external": {r.h_index_external},\n'
        f'    "i10_index": {r.i10_index},\n'
        f'    "total_citations": {r.total_citations},\n'
        f'    "self_citations": {r.self_citations},\n'
        f'    "scr": {_number(r.scr)},\n'
        f'    "scai": {_number(r.scai)},\n'
        f'    "s_index": {r.s_index},\n'
        f'    "inflation": {_number(r.inflation)},\n'
        f'    "yearly_scr": {yearly}\n  }}'
    )


def reports_to_json_text(reports: Sequence[MetricsReport]) -> str:
    """``json.dumps([report_to_json(r) ...], indent=2, ensure_ascii=False)``
    plus a newline, byte for byte, built as one string per report: with an
    indent, ``json`` skips its C encoder and makes a string per token."""
    if not reports:
        return "[]\n"
    return "[\n" + ",\n".join(map(_report_text, reports)) + "\n]\n"


def report_from_json(record: dict) -> MetricsReport:
    """Rebuild a report from its JSON form (inverse of report_to_json).

    Counts must be JSON integers and ratios JSON numbers (TypeError
    otherwise), and the report must be one :func:`report_from_counts` can
    give: 0 <= scai <= h, 0 <= h_index_external <= h, 0 <= self_citations
    <= total_citations and 0 <= scr <= 1 (ValueError otherwise).
    """
    h = json_int(record["h_index"], "h_index")
    h_external = json_int(record["h_index_external"], "h_index_external")
    total = json_int(record["total_citations"], "total_citations")
    self_total = json_int(record["self_citations"], "self_citations")
    scr = json_number(record["scr"], "scr")
    scai = json_number(record["scai"], "scai")
    inflation = record.get("inflation")
    if not 0 <= scai <= h:
        raise ValueError(f"scai {scai} outside [0, h_index {h}]")
    if not 0 <= h_external <= h:
        raise ValueError(f"h_index_external {h_external} outside [0, h_index {h}]")
    if not 0 <= self_total <= total:
        raise ValueError(
            f"self_citations {self_total} outside [0, total_citations {total}]"
        )
    if not 0 <= scr <= 1:
        raise ValueError(f"scr {scr} outside [0, 1]")
    return MetricsReport(
        researcher_id=record["researcher_id"],
        h_index=h,
        h_index_external=h_external,
        i10_index=json_int(record["i10_index"], "i10_index"),
        total_citations=total,
        self_citations=self_total,
        scr=scr,
        scai=scai,
        s_index=json_int(record["s_index"], "s_index"),
        inflation=None if inflation is None else json_number(inflation, "inflation"),
        yearly_scr={
            int(year): json_number(value, f"yearly_scr[{year!r}]")
            for year, value in record.get("yearly_scr", {}).items()
        },
    )
