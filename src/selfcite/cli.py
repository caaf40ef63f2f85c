"""Command-line pipeline: ingest, classify, compute, aggregate, export.

Subcommands
-----------
analyze    corpus file in, per-researcher reports + cohort tables out
synth      generator spec in, synthetic corpus JSONL out
histogram  reports.json in, binned adjustment CSV + SVG chart out
calibrate  corpus file in, per-discipline parameter profile JSON out

Outputs are deterministic: identical inputs and flags produce
byte-identical reports and tables. The run manifest is the only file
carrying a timestamp, and it records every parameter that affected the
results. Failures print a one-line machine-readable JSON error record to
stderr; exit codes are 2 for bad arguments, 3 for missing or unparseable
inputs, and 4 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .calibration import (
    FieldProfile,
    InsufficientCohort,
    MalformedProfileFile,
    default_profiles,
    estimate_field_beta,
    load_profiles,
    profiles_to_json,
    save_profiles,
)
from .charts import render_bar_chart
from .cohort import Dimension, cohort_aggregate, summaries_to_csv
from .corpus import Corpus, CorpusError, CorpusFormat, Discipline, MalformedRecord
from .identity import SelfCitationMode
from .metrics import (
    MetricParams,
    MetricsReport,
    compute_report,
    report_from_json,
    report_to_json,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# main maps a failure to the code of the first entry it is an instance of;
# anything unmatched is EXIT_INTERNAL. The input errors derived from
# ValueError must come before it.
_EXIT_CODES = (
    (
        (OSError, UnicodeDecodeError, json.JSONDecodeError, CorpusError, MalformedProfileFile),
        EXIT_INPUT,
    ),
    (ValueError, EXIT_USAGE),
)

HISTOGRAM_UPPER_PCT = 25.0
HISTOGRAM_TITLE = "Distribution of SCAI Adjustments"
HISTOGRAM_X_LABEL = "Adjustment Magnitude (%)"
HISTOGRAM_Y_LABEL = "Frequency"


class NoEligibleReports(ValueError):
    """Every report has h = 0; no adjustment distribution exists."""


def _require_output_parent(output_path) -> None:
    parent = Path(output_path).resolve().parent
    if not parent.exists():
        raise ValueError(f"output parent directory {parent} does not exist")


@dataclass(frozen=True)
class RunConfig:
    input_locator: str
    output_path: str
    max_papers: Optional[int] = None
    max_citations: Optional[int] = None
    visible: bool = False
    self_citation_mode: SelfCitationMode = SelfCitationMode.FOCAL
    profiles_path: Optional[str] = None
    reference_year: Optional[int] = None

    def __post_init__(self):
        if self.max_papers is not None and self.max_papers < 1:
            raise ValueError("--max-papers must be >= 1")
        if self.max_citations is not None and self.max_citations < 1:
            raise ValueError("--max-citations must be >= 1")
        _require_output_parent(self.output_path)


def _progress(config_visible: bool, message: str) -> None:
    if config_visible:
        print(message, file=sys.stderr)


def _error_record(exc: BaseException) -> str:
    record = {"error": type(exc).__name__, "message": str(exc)}
    path = getattr(exc, "filename", None) or getattr(exc, "path", None)
    if path is not None:
        record["path"] = str(path)
    return json.dumps(record, ensure_ascii=False)


def _input_path(locator) -> Path:
    """Resolve an input path or ``file://`` URL; FileNotFoundError if absent."""
    locator = str(locator)
    if locator.startswith("file://"):
        from urllib.parse import urlparse
        from urllib.request import url2pathname

        path = Path(url2pathname(urlparse(locator).path))
    else:
        path = Path(locator)
    path.stat()  # raises FileNotFoundError, carrying the path, if absent
    return path


def _read_json(locator):
    return json.loads(_input_path(locator).read_text(encoding="utf-8"))


def _load_corpus(locator) -> Corpus:
    from .corpus import parse_corpus

    path = _input_path(locator)
    fmt = CorpusFormat.CSV_BUNDLE if path.is_dir() else CorpusFormat.JSONL
    return parse_corpus(path, fmt)


def _truncate(
    corpus: Corpus, max_papers: Optional[int], max_citations: Optional[int]
) -> tuple[Corpus, dict]:
    """Deterministic truncation: keep the lowest publication ids, then the
    lowest (citing, cited) edge pairs among surviving publications."""
    info = {
        "max_papers": max_papers,
        "max_citations": max_citations,
        "publications_before": len(corpus.publications),
        "citations_before": len(corpus.edges),
    }
    if max_papers is None and max_citations is None:
        info["publications_after"] = info["publications_before"]
        info["citations_after"] = info["citations_before"]
        info["truncated"] = False
        return corpus, info

    kept_pub_ids = sorted(corpus.publications)
    if max_papers is not None:
        kept_pub_ids = kept_pub_ids[:max_papers]
    kept_set = set(kept_pub_ids)
    kept_edges = [
        e for e in sorted(corpus.edges, key=lambda e: e.pair)
        if e.citing_id in kept_set and e.cited_id in kept_set
    ]
    if max_citations is not None:
        kept_edges = kept_edges[:max_citations]

    truncated = Corpus.from_parts(
        corpus.researchers.values(),
        [corpus.publications[pid] for pid in kept_pub_ids],
        kept_edges,
        corpus.provenance,
    )
    info["publications_after"] = len(truncated.publications)
    info["citations_after"] = len(truncated.edges)
    info["truncated"] = (
        info["publications_after"] < info["publications_before"]
        or info["citations_after"] < info["citations_before"]
    )
    return truncated, info


def _params_for(
    profiles: dict[Discipline, FieldProfile], discipline: Discipline
) -> MetricParams:
    profile = profiles.get(discipline)
    return profile.params if profile is not None else MetricParams()


def run_analyze(config: RunConfig) -> int:
    """Full pipeline for one corpus; writes all artifacts under output_path."""
    _progress(config.visible, f"loading corpus from {config.input_locator}")
    corpus = _load_corpus(config.input_locator)
    corpus, truncation = _truncate(corpus, config.max_papers, config.max_citations)
    if truncation["truncated"]:
        _progress(
            config.visible,
            f"truncated to {truncation['publications_after']} publications, "
            f"{truncation['citations_after']} citations",
        )

    if config.profiles_path is not None:
        profiles = load_profiles(_input_path(config.profiles_path))
    else:
        profiles = default_profiles()

    reports: list[MetricsReport] = []
    for rid in sorted(corpus.researchers):
        params = _params_for(profiles, corpus.researchers[rid].discipline)
        reports.append(
            compute_report(corpus, rid, params, config.self_citation_mode)
        )
    _progress(config.visible, f"computed {len(reports)} researcher reports")

    out_dir = Path(config.output_path)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports_json = json.dumps(
        [report_to_json(r) for r in reports], indent=2, ensure_ascii=False
    )
    (out_dir / "reports.json").write_text(
        reports_json + "\n", encoding="utf-8", newline="\n"
    )

    cohort_files = {
        "cohort_discipline.csv": Dimension.DISCIPLINE,
        "cohort_gender.csv": Dimension.GENDER,
        "cohort_career_stage.csv": Dimension.CAREER_STAGE,
    }
    for filename, dimension in cohort_files.items():
        summaries = cohort_aggregate(
            reports, corpus, dimension, config.reference_year
        )
        (out_dir / filename).write_text(
            summaries_to_csv(summaries), encoding="utf-8", newline="\n"
        )

    manifest = {
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input_locator": config.input_locator,
        "corpus_provenance": {
            "source": corpus.provenance.source,
            "format_version": corpus.provenance.format_version,
        },
        "self_citation_mode": config.self_citation_mode.value,
        "reference_year": config.reference_year,
        "truncation": truncation,
        "profiles": profiles_to_json(profiles),
        "researchers": len(corpus.researchers),
        "reports": len(reports),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )
    _progress(config.visible, f"wrote artifacts to {out_dir}")
    return EXIT_OK


def emit_histogram(
    reports: Sequence[MetricsReport],
    bins: int,
    output_path,
    upper_pct: float = HISTOGRAM_UPPER_PCT,
) -> tuple[Path, Path]:
    """Bin SCAI adjustment magnitudes and write CSV + SVG chart.

    The adjustment for a researcher with h > 0 is (h - scai) / h, as a
    percentage. Bins split [0, upper_pct] evenly; values beyond the upper
    edge land in the last bin, so counts always sum to the number of
    eligible reports. Reports with h = 0 carry no adjustment; if that is
    all of them, ``NoEligibleReports`` is raised.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    eligible = [r for r in reports if r.h_index > 0]
    if not eligible:
        raise NoEligibleReports("no reports with h > 0; nothing to bin")

    width = upper_pct / bins
    counts = [0] * bins
    for report in eligible:
        adjustment_pct = (report.h_index - report.scai) / report.h_index * 100.0
        idx = min(int(adjustment_pct / width), bins - 1)
        counts[idx] += 1

    out_dir = Path(output_path)
    out_dir.mkdir(parents=True, exist_ok=True)
    edges = [i * width for i in range(bins + 1)]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bin_low_pct", "bin_high_pct", "count"])
    for i, count in enumerate(counts):
        writer.writerow([f"{edges[i]:.2f}", f"{edges[i + 1]:.2f}", count])
    csv_path = out_dir / "histogram.csv"
    csv_path.write_text(buffer.getvalue(), encoding="utf-8", newline="\n")

    svg_path = out_dir / "histogram.svg"
    svg_path.write_text(
        render_bar_chart(
            edges, counts, HISTOGRAM_TITLE, HISTOGRAM_X_LABEL, HISTOGRAM_Y_LABEL
        ),
        encoding="utf-8",
        newline="\n",
    )
    return csv_path, svg_path


def run_synth(spec_path, output_path, visible: bool = False) -> int:
    """Generate a corpus from a spec file and write it as JSONL."""
    from .corpus import write_corpus
    from .synth import apply_compounding, generate_synthetic_corpus, spec_from_json

    _require_output_parent(output_path)
    spec = spec_from_json(_read_json(spec_path))

    _progress(visible, f"generating corpus with seed {spec.seed}")
    corpus = generate_synthetic_corpus(spec)
    if spec.compounding_rate > 0:
        _progress(
            visible,
            f"applying compounding at rate {spec.compounding_rate} "
            f"over {spec.compounding_horizon_years} years",
        )
        corpus = apply_compounding(
            corpus,
            spec.compounding_rate,
            spec.compounding_horizon_years,
            seed=spec.seed,
        )
    write_corpus(corpus, output_path)
    _progress(
        visible,
        f"wrote {len(corpus.publications)} publications, "
        f"{len(corpus.edges)} citations to {output_path}",
    )
    return EXIT_OK


def run_calibrate(
    input_path,
    output_path,
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
    visible: bool = False,
) -> int:
    """Estimate per-discipline beta from a corpus; defaults fill the gaps."""
    _require_output_parent(output_path)
    corpus = _load_corpus(input_path)
    profiles = default_profiles()
    for discipline in sorted(profiles, key=lambda d: d.value):
        try:
            profiles[discipline] = estimate_field_beta(
                corpus, discipline, MetricParams(), mode
            )
            _progress(
                visible,
                f"{discipline.value}: beta={profiles[discipline].params.beta:.4f} "
                f"from {profiles[discipline].sample_size} researchers",
            )
        except InsufficientCohort as exc:
            _progress(
                visible,
                f"{discipline.value}: kept default (cohort of {exc.count})",
            )
    save_profiles(profiles, output_path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfcite",
        description="Self-citation aware citation analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="compute reports and cohort tables from a corpus"
    )
    analyze.add_argument("input", help="corpus file (JSONL), CSV bundle directory, or file:// URL")
    analyze.add_argument("--output", required=True, help="output directory")
    analyze.add_argument("--max-papers", type=int, default=None, metavar="MAX_PAPERS")
    analyze.add_argument(
        "--max-citations", type=int, default=None, metavar="MAX_CITATIONS"
    )
    analyze.add_argument(
        "--visible", action="store_true", help="progress output on stderr"
    )
    analyze.add_argument(
        "--debug", action="store_true", help="tracebacks on failure"
    )
    analyze.add_argument(
        "--self-citation-mode",
        choices=["focal", "any-overlap"],
        default="focal",
    )
    analyze.add_argument("--profiles", default=None, help="parameter profile JSON")
    analyze.add_argument("--reference-year", type=int, default=None)

    synth = sub.add_parser("synth", help="generate a synthetic corpus")
    synth.add_argument("spec", help="generator spec JSON file")
    synth.add_argument("--output", required=True, help="output corpus path (JSONL)")
    synth.add_argument("--visible", action="store_true")
    synth.add_argument("--debug", action="store_true")

    histogram = sub.add_parser(
        "histogram", help="bin SCAI adjustments from a reports.json"
    )
    histogram.add_argument("reports", help="reports.json produced by analyze")
    histogram.add_argument("--output", required=True, help="output directory")
    histogram.add_argument("--bins", type=int, default=5)
    histogram.add_argument("--visible", action="store_true")
    histogram.add_argument("--debug", action="store_true")

    calibrate = sub.add_parser(
        "calibrate", help="estimate per-discipline parameters from a corpus"
    )
    calibrate.add_argument("input", help="corpus file (JSONL) or CSV bundle directory")
    calibrate.add_argument("--output", required=True, help="profile JSON path")
    calibrate.add_argument(
        "--self-citation-mode", choices=["focal", "any-overlap"], default="focal"
    )
    calibrate.add_argument("--visible", action="store_true")
    calibrate.add_argument("--debug", action="store_true")
    return parser


_MODE_FLAGS = {
    "focal": SelfCitationMode.FOCAL,
    "any-overlap": SelfCitationMode.ANY_OVERLAP,
}


def _run_histogram(args) -> int:
    raw = _read_json(args.reports)
    if not isinstance(raw, list):
        raise MalformedRecord("reports file must hold a JSON array", args.reports)
    try:
        reports = [report_from_json(record) for record in raw]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedRecord(f"invalid report ({exc!r})", args.reports) from None
    emit_histogram(reports, args.bins, args.output)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = RunConfig(
                input_locator=args.input,
                output_path=args.output,
                max_papers=args.max_papers,
                max_citations=args.max_citations,
                visible=args.visible,
                self_citation_mode=_MODE_FLAGS[args.self_citation_mode],
                profiles_path=args.profiles,
                reference_year=args.reference_year,
            )
            return run_analyze(config)
        if args.command == "synth":
            return run_synth(args.spec, args.output, visible=args.visible)
        if args.command == "histogram":
            return _run_histogram(args)
        return run_calibrate(
            args.input,
            args.output,
            mode=_MODE_FLAGS[args.self_citation_mode],
            visible=args.visible,
        )
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        print(_error_record(exc), file=sys.stderr)
        return next(
            (code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)),
            EXIT_INTERNAL,
        )
