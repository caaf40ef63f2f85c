"""In-process driver: one CLI command replayed through the layers' public
functions, optionally with a span around every call into a layer.

    python3 bench/traced.py --trace 1 --spans spans.json synth SPEC OUT
    python3 bench/traced.py --trace 1 --spans spans.json calibrate INPUT OUT MODE
    python3 bench/traced.py --trace 1 --spans spans.json \\
        analyze INPUT OUT MODE PROFILES REFERENCE_YEAR

It writes the same artifacts as the matching ``selfcite`` command (analyze
leaves out ``manifest.json``, the one file with a timestamp), so the
benchmark can require them to be byte-identical. ``--spans`` receives a
JSON object: ``total_s`` (wall time from the first layer call to the
last) and, with tracing on, ``layers`` mapping each layer to its self
time ``s``, its ``rss_mb`` (this process's peak RSS when the span ended)
and its counts. The command's own span, ``cli``, holds the time no layer
span covers. Each command runs in a fresh process, as on the command
line, so ``rss_mb`` is that command's high-water mark.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

import selfcite.calibration as calibration
from selfcite.calibration import InsufficientCohort, default_profiles, estimate_field_beta, load_profiles, save_profiles
from selfcite.cohort import Dimension, cohort_aggregate, summaries_to_csv
from selfcite.corpus import CorpusFormat, parse_corpus, write_corpus
from selfcite.identity import SelfCitationMode, count_citations
from selfcite.metrics import MetricParams, compute_report, report_from_counts, report_to_json
from selfcite.synth import apply_compounding, generate_synthetic_corpus, spec_from_json

COHORT_FILES = {
    "cohort_discipline.csv": Dimension.DISCIPLINE,
    "cohort_gender.csv": Dimension.GENDER,
    "cohort_career_stage.csv": Dimension.CAREER_STAGE,
}
MODES = {"focal": SelfCitationMode.FOCAL, "any-overlap": SelfCitationMode.ANY_OVERLAP}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Aggregates spans by layer name: self time, peak RSS and counts."""

    def __init__(self):
        self.layers: dict[str, dict[str, float]] = {}
        self._child = [0.0]  # time covered by child spans, per open span

    def _layer(self, name: str) -> dict[str, float]:
        return self.layers.setdefault(name, {"s": 0.0, "rss_mb": 0.0})

    @contextlib.contextmanager
    def span(self, name: str):
        self._child.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start, self._child.pop())

    def add(self, name: str, duration: float, covered: float = 0.0) -> None:
        """Record a span of ``duration`` seconds that has already ended."""
        layer = self._layer(name)
        layer["s"] += duration - covered
        layer["rss_mb"] = max(layer["rss_mb"], _rss_mb())
        self._child[-1] += duration

    def count(self, name: str, key: str, n: float) -> None:
        layer = self._layer(name)
        layer[key] = layer.get(key, 0) + n


class NullTracer:
    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, key: str, n: float) -> None:
        pass


def _records(corpus) -> int:
    return len(corpus.researchers) + len(corpus.publications) + len(corpus.edges)


def _parse(tr, source: Path):
    fmt = CorpusFormat.CSV_BUNDLE if source.is_dir() else CorpusFormat.JSONL
    with tr.span("corpus.parse"):
        corpus = parse_corpus(source, fmt)
    tr.count("corpus.parse", "records", _records(corpus))
    with tr.span("corpus.index"):
        corpus.publications_by_author
        corpus.incoming_edges
    return corpus


def run_synth(tr, spec_path: str, output: str) -> None:
    spec = spec_from_json(json.loads(Path(spec_path).read_text(encoding="utf-8")))
    with tr.span("synth.generate"):
        corpus = generate_synthetic_corpus(spec)
    tr.count("synth.generate", "records", _records(corpus))
    before = len(corpus.edges)
    with tr.span("synth.compound"):
        if spec.compounding_rate > 0:
            corpus = apply_compounding(
                corpus, spec.compounding_rate, spec.compounding_horizon_years, seed=spec.seed
            )
    tr.count("synth.compound", "edges_added", len(corpus.edges) - before)
    with tr.span("corpus.write"):
        write_corpus(corpus, output)
    tr.count("corpus.write", "bytes", Path(output).stat().st_size)


def run_calibrate(tr, source: str, output: str, mode: str) -> None:
    corpus = _parse(tr, Path(source))
    if isinstance(tr, Tracer):
        calibration.count_citations = _traced_count(tr)
    try:
        profiles = default_profiles()
        for discipline in sorted(profiles, key=lambda d: d.value):
            try:
                with tr.span("calibration.estimate"):
                    profiles[discipline] = estimate_field_beta(
                        corpus, discipline, MetricParams(), MODES[mode]
                    )
                tr.count("calibration.estimate", "researchers", profiles[discipline].sample_size)
            except InsufficientCohort:
                pass
    finally:
        calibration.count_citations = count_citations
    save_profiles(profiles, output)


def _traced_count(tr: Tracer):
    def traced(corpus, focal, mode):
        start = time.perf_counter()
        counts = count_citations(corpus, focal, mode)
        tr.add("identity.count", time.perf_counter() - start)
        tr.count("identity.count", "classifications", counts.total)
        tr.count("identity.count", "self", counts.self_total)
        return counts

    return traced


def run_analyze(tr, source: str, output: str, mode: str, profiles_path: str, reference_year: int) -> None:
    corpus = _parse(tr, Path(source))
    profiles = load_profiles(profiles_path)
    params = {d: p.params for d, p in profiles.items()}
    default = MetricParams()
    ids = sorted(corpus.researchers)
    citation_mode = MODES[mode]
    if isinstance(tr, Tracer):
        reports = []
        classified = selves = 0
        counting = assembling = 0.0
        clock = time.perf_counter
        for rid in ids:
            t0 = clock()
            counts = count_citations(corpus, rid, citation_mode)
            t1 = clock()
            reports.append(report_from_counts(counts, params.get(corpus.researchers[rid].discipline, default)))
            t2 = clock()
            counting += t1 - t0
            assembling += t2 - t1
            classified += counts.total
            selves += counts.self_total
        tr.add("identity.count", counting)
        tr.add("metrics.report", assembling)
        tr.count("identity.count", "classifications", classified)
        tr.count("identity.count", "self", selves)
        tr.count("metrics.report", "reports", len(reports))
    else:
        reports = [
            compute_report(corpus, rid, params.get(corpus.researchers[rid].discipline, default), citation_mode)
            for rid in ids
        ]

    out_dir = Path(output)
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.span("metrics.write"):
        text = json.dumps([report_to_json(r) for r in reports], indent=2, ensure_ascii=False)
        (out_dir / "reports.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    tr.count("metrics.write", "bytes", (out_dir / "reports.json").stat().st_size)
    with tr.span("cohort.aggregate"):
        for filename, dimension in COHORT_FILES.items():
            summaries = cohort_aggregate(reports, corpus, dimension, reference_year)
            (out_dir / filename).write_text(summaries_to_csv(summaries), encoding="utf-8", newline="\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("command", choices=("synth", "calibrate", "analyze"))
    parser.add_argument("args", nargs="+")
    args = parser.parse_args(argv)
    tr = Tracer() if args.trace else NullTracer()
    start = time.perf_counter()
    with tr.span("cli"):
        if args.command == "synth":
            run_synth(tr, *args.args)
        elif args.command == "calibrate":
            run_calibrate(tr, *args.args)
        else:
            source, output, mode, profiles_path, reference_year = args.args
            run_analyze(tr, source, output, mode, profiles_path, int(reference_year))
    record = {"total_s": time.perf_counter() - start}
    if args.trace:
        record["layers"] = tr.layers
    Path(args.spans).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
