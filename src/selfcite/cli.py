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
import json
import sys
import traceback
from datetime import date, datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .calibration import (
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
from .corpus import Corpus, CorpusError, CorpusFormat, MalformedRecord
from .identity import SelfCitationMode
from .metrics import (
    MetricParams,
    MetricsReport,
    compute_report,
    report_from_json,
    reports_to_json_text,
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
# Bin edges print to 2 decimals, so more bins than hundredths in
# [0, HISTOGRAM_UPPER_PCT] would print two edges alike.
HISTOGRAM_MAX_BINS = round(HISTOGRAM_UPPER_PCT * 100)
HISTOGRAM_TITLE = "Distribution of SCAI Adjustments"
HISTOGRAM_X_LABEL = "Adjustment Magnitude (%)"
HISTOGRAM_Y_LABEL = "Frequency"

COHORT_FILES = {
    "cohort_discipline.csv": Dimension.DISCIPLINE,
    "cohort_gender.csv": Dimension.GENDER,
    "cohort_career_stage.csv": Dimension.CAREER_STAGE,
}

_MODE_FLAGS = {
    "focal": SelfCitationMode.FOCAL,
    "any-overlap": SelfCitationMode.ANY_OVERLAP,
}


class NoEligibleReports(ValueError):
    """Every report has h = 0; no adjustment distribution exists."""


def _require_output_parent(output_path) -> None:
    parent = Path(output_path).resolve().parent
    if not parent.is_dir():
        raise ValueError(f"output parent {parent} is not an existing directory")


def _write_artifacts(out_dir, texts: dict[str, str]) -> None:
    """Write each named text into ``out_dir`` as UTF-8 with LF line ends."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="\n")


def _progress(visible: bool, message: str) -> None:
    if visible:
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

        url = urlparse(locator)
        if url.netloc not in ("", "localhost"):
            raise ValueError(f"{locator}: a file:// URL must name no host or localhost")
        if "?" in locator or "#" in locator:  # a file name would carry them %-encoded
            raise ValueError(f"{locator}: a file:// URL must have no query or fragment")
        path = Path(url2pathname(url.path))
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
    lowest (citing, cited) edges among surviving publications."""
    info = {
        "max_papers": max_papers,
        "max_citations": max_citations,
        "publications_before": len(corpus.publications),
        "citations_before": len(corpus.citing),
    }
    if max_papers is not None or max_citations is not None:
        kept_pub_ids = corpus.publication_ids[:max_papers]
        kept = len(kept_pub_ids)  # numbers below this survive
        kept_pairs = [
            (citing, cited) for citing, cited in corpus.sorted_citations()
            if citing < kept and cited < kept
        ][:max_citations]
        corpus = Corpus._from_columns(
            corpus.researchers.values(),
            [corpus.publications[pid] for pid in kept_pub_ids],
            [kept_pub_ids[citing] for citing, _ in kept_pairs],
            [kept_pub_ids[cited] for _, cited in kept_pairs],
            corpus.provenance,
        )
    info["publications_after"] = len(corpus.publications)
    info["citations_after"] = len(corpus.citing)
    info["truncated"] = (
        info["publications_after"] < info["publications_before"]
        or info["citations_after"] < info["citations_before"]
    )
    return corpus, info


def run_analyze(args) -> int:
    """Full pipeline for one corpus. Every artifact is computed before the
    first is written, so a failed run leaves --output as it found it."""
    if args.max_papers is not None and args.max_papers < 1:
        raise ValueError("--max-papers must be >= 1")
    if args.max_citations is not None and args.max_citations < 1:
        raise ValueError("--max-citations must be >= 1")
    mode = _MODE_FLAGS[args.self_citation_mode]
    reference_year = args.reference_year
    if reference_year is None:  # the run's one clock read; the manifest records it
        reference_year = date.today().year

    _progress(args.visible, f"loading corpus from {args.input}")
    corpus = _load_corpus(args.input)
    corpus, truncation = _truncate(corpus, args.max_papers, args.max_citations)
    if truncation["truncated"]:
        _progress(
            args.visible,
            f"truncated to {truncation['publications_after']} publications, "
            f"{truncation['citations_after']} citations",
        )

    if args.profiles is not None:
        profiles = load_profiles(_input_path(args.profiles))
    else:
        profiles = default_profiles()
    params = {discipline: profile.params for discipline, profile in profiles.items()}
    default = MetricParams()

    reports: list[MetricsReport] = [
        compute_report(
            corpus, rid, params.get(corpus.researchers[rid].discipline, default), mode
        )
        for rid in sorted(corpus.researchers)
    ]
    _progress(args.visible, f"computed {len(reports)} researcher reports")

    artifacts = {"reports.json": reports_to_json_text(reports)}
    for filename, dimension in COHORT_FILES.items():
        artifacts[filename] = summaries_to_csv(
            cohort_aggregate(reports, corpus, dimension, reference_year)
        )
    manifest = {
        "tool_version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "input_locator": args.input,
        "corpus_provenance": {
            "source": corpus.provenance.source,
            "format_version": corpus.provenance.format_version,
        },
        "self_citation_mode": mode.value,
        "reference_year": reference_year,
        "truncation": truncation,
        "profiles": profiles_to_json(profiles),
        "researchers": len(corpus.researchers),
        "reports": len(reports),
    }
    artifacts["manifest.json"] = json.dumps(manifest, indent=2, ensure_ascii=False) + "\n"

    _write_artifacts(args.output, artifacts)
    _progress(args.visible, f"wrote artifacts to {args.output}")
    return EXIT_OK


def emit_histogram(
    reports: Sequence[MetricsReport], bins: int, output_path
) -> tuple[Path, Path]:
    """Bin SCAI adjustment magnitudes and write CSV + SVG chart.

    The adjustment for a researcher with h > 0 is (h - scai) / h, as a
    percentage. Bins split [0, HISTOGRAM_UPPER_PCT] evenly; values beyond
    the upper edge land in the last bin, so counts always sum to the number
    of eligible reports. Reports with h = 0 carry no adjustment; if that is
    all of them, ``NoEligibleReports`` is raised.
    """
    if not 1 <= bins <= HISTOGRAM_MAX_BINS:
        raise ValueError(f"bins must be in [1, {HISTOGRAM_MAX_BINS}], got {bins}")
    eligible = [r for r in reports if r.h_index > 0]
    if not eligible:
        raise NoEligibleReports("no reports with h > 0; nothing to bin")

    width = HISTOGRAM_UPPER_PCT / bins
    counts = [0] * bins
    for report in eligible:
        adjustment_pct = (report.h_index - report.scai) / report.h_index * 100.0
        idx = min(int(adjustment_pct / width), bins - 1)
        counts[idx] += 1

    edges = [i * width for i in range(bins + 1)]
    rows = [
        f"{edges[i]:.2f},{edges[i + 1]:.2f},{count}\n" for i, count in enumerate(counts)
    ]
    out_dir = Path(output_path)
    _write_artifacts(
        out_dir,
        {
            "histogram.csv": "bin_low_pct,bin_high_pct,count\n" + "".join(rows),
            "histogram.svg": render_bar_chart(
                edges, counts, HISTOGRAM_TITLE, HISTOGRAM_X_LABEL, HISTOGRAM_Y_LABEL
            ),
        },
    )
    return out_dir / "histogram.csv", out_dir / "histogram.svg"


def run_histogram(args) -> int:
    """Bin the adjustments of a reports.json written by analyze."""
    raw = _read_json(args.reports)
    if not isinstance(raw, list):
        raise MalformedRecord("reports file must hold a JSON array", args.reports)
    reports = []
    for index, record in enumerate(raw):
        try:
            reports.append(report_from_json(record))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise MalformedRecord(
                f"invalid report ({exc!r})", f"{args.reports} report {index}"
            ) from None
    csv_path, svg_path = emit_histogram(reports, args.bins, args.output)
    _progress(
        args.visible,
        f"binned {sum(r.h_index > 0 for r in reports)} of {len(reports)} reports "
        f"into {args.bins} bins; wrote {csv_path} and {svg_path}",
    )
    return EXIT_OK


def run_synth(args) -> int:
    """Generate a corpus from a spec file and write it as JSONL."""
    from .corpus import write_corpus
    from .synth import apply_compounding, generate_synthetic_corpus, spec_from_json

    spec = spec_from_json(_read_json(args.spec))

    _progress(args.visible, f"generating corpus with seed {spec.seed}")
    corpus = generate_synthetic_corpus(spec)
    if spec.compounding_rate > 0:
        _progress(
            args.visible,
            f"applying compounding at rate {spec.compounding_rate} "
            f"over {spec.compounding_horizon_years} years",
        )
        corpus = apply_compounding(
            corpus,
            spec.compounding_rate,
            spec.compounding_horizon_years,
            seed=spec.seed,
        )
    write_corpus(corpus, args.output)
    _progress(
        args.visible,
        f"wrote {len(corpus.publications)} publications, "
        f"{len(corpus.citing)} citations to {args.output}",
    )
    return EXIT_OK


def run_calibrate(args) -> int:
    """Estimate per-discipline beta from a corpus; defaults fill the gaps."""
    mode = _MODE_FLAGS[args.self_citation_mode]
    corpus = _load_corpus(args.input)
    profiles = default_profiles()
    for discipline in sorted(profiles, key=lambda d: d.value):
        try:
            profiles[discipline] = estimate_field_beta(
                corpus, discipline, MetricParams(), mode
            )
            _progress(
                args.visible,
                f"{discipline.value}: beta={profiles[discipline].params.beta:.4f} "
                f"from {profiles[discipline].sample_size} researchers",
            )
        except InsufficientCohort as exc:
            _progress(
                args.visible,
                f"{discipline.value}: kept default (cohort of {exc.count})",
            )
    save_profiles(profiles, args.output)
    return EXIT_OK


_COMMANDS = {
    "analyze": run_analyze,
    "synth": run_synth,
    "histogram": run_histogram,
    "calibrate": run_calibrate,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfcite",
        description="Self-citation aware citation analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--visible", action="store_true", help="progress output on stderr")
    common.add_argument("--debug", action="store_true", help="tracebacks on failure")
    modal = argparse.ArgumentParser(add_help=False)
    modal.add_argument("--self-citation-mode", choices=list(_MODE_FLAGS), default="focal")

    analyze = sub.add_parser(
        "analyze",
        parents=[common, modal],
        help="compute reports and cohort tables from a corpus",
    )
    analyze.add_argument("input", help="corpus file (JSONL), CSV bundle directory, or file:// URL")
    analyze.add_argument("--output", required=True, help="output directory")
    analyze.add_argument("--max-papers", type=int, default=None)
    analyze.add_argument("--max-citations", type=int, default=None)
    analyze.add_argument("--profiles", default=None, help="parameter profile JSON")
    analyze.add_argument("--reference-year", type=int, default=None)

    synth = sub.add_parser("synth", parents=[common], help="generate a synthetic corpus")
    synth.add_argument("spec", help="generator spec JSON file")
    synth.add_argument("--output", required=True, help="output corpus path (JSONL)")

    histogram = sub.add_parser(
        "histogram", parents=[common], help="bin SCAI adjustments from a reports.json"
    )
    histogram.add_argument("reports", help="reports.json produced by analyze")
    histogram.add_argument("--output", required=True, help="output directory")
    histogram.add_argument("--bins", type=int, default=5)

    calibrate = sub.add_parser(
        "calibrate",
        parents=[common, modal],
        help="estimate per-discipline parameters from a corpus",
    )
    calibrate.add_argument("input", help="corpus file (JSONL), CSV bundle directory, or file:// URL")
    calibrate.add_argument("--output", required=True, help="profile JSON path")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _require_output_parent(args.output)
        return _COMMANDS[args.command](args)
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        print(_error_record(exc), file=sys.stderr)
        return next(
            (code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)),
            EXIT_INTERNAL,
        )
