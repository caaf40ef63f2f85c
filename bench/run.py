"""selfcite benchmark: seeded inputs, the CLI as a closed loop with one
client, every output checked by an independent oracle.

    python3 bench/run.py --workload six-pipeline --seed 1 --seconds 25 --trace 0

Run from anywhere; it finds the program under ``src/`` next to ``bench/``
and works in ``.bench_work/`` at the repository root, which it removes
again. Workloads are described in ``bench/workloads.py``.

With ``--trace 0`` it runs the workload's CLI pipeline (synth, calibrate,
analyze, one command at a time, each starting when the previous one has
exited) and reports the end-to-end metrics: set-up time (a fresh
interpreter importing ``selfcite.cli``), wall time and peak RSS of each
command, and analyze's input records per second. Peak RSS is the
child's own ``ru_maxrss`` from ``os.wait4``.

With ``--trace 1`` it runs the same pipeline in-process through
``bench/traced.py``, alternating untraced and traced passes, and reports
per-layer self time, peak RSS and counts, the time no layer covers
(``cli.s``) and the tracing overhead.

Either way the oracle checks the first pass's outputs, and every later
pass must reproduce them byte for byte. The last
line of output is one JSON object: ``correct``, ``attempted`` and
``failed`` (commands run, and those that exited non-zero or wrote wrong
output) and ``metrics``. The lines before it give each metric's median,
range and sample count, the input's properties and the run's fail share.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from workloads import (REFERENCE_YEAR, WORKLOADS, Workload, generator_spec, input_bytes,
                       overlay_teams, spec_targets)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
COMMAND_TIMEOUT_S = 120.0
RUN_BUDGET_S = 120.0  # start no further pass after this long
SETUP_SAMPLES = 5  # set-up measurements before the first pass; one more per later pass
COMMANDS = ("synth", "calibrate", "analyze")
ARTIFACTS = ("reports.json", *oracle.COHORT_FILES)


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    ok: bool
    stderr: str = ""


def child_env() -> dict[str, str]:
    paths = [str(SRC), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def run_child(argv: list[str]) -> Sample:
    """Run one child to completion; its wall time and its own peak RSS."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode("utf-8", "replace")[-2000:]
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode == 0, message)


def digest(paths) -> str:
    """Hash of the named files; a manifest counts without its timestamp."""
    h = hashlib.sha256()
    for path in paths:
        data = path.read_bytes() if path.exists() else b"<missing>"
        if path.name == "manifest.json" and path.exists():
            manifest = json.loads(data)
            manifest.pop("generated_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest()


def summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n {len(values)}")


@dataclass
class Bench:
    workload: Workload
    seed: int
    seconds: int
    work: Path
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.spec_path = self.work / "spec.json"
        self.spec = generator_spec(self.workload, self.seed)
        self.spec_path.write_text(json.dumps(self.spec, indent=1), encoding="utf-8")
        self.bundle = self.work / "bundle"
        self.started = time.perf_counter()

    # -- bookkeeping -------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)

    def launch(self, name: str, argv: list[str]) -> Sample:
        self.attempted += 1
        sample = run_child(argv)
        if not sample.ok:
            self.fail(f"{name} exited non-zero: {sample.stderr.strip()[-300:]}")
        return sample

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    # -- the pipeline ------------------------------------------------------

    def corpus_input(self, out: Path) -> Path:
        return self.bundle if self.workload.teams else out / "corpus.jsonl"

    def outputs(self, out: Path, manifest: bool) -> dict[str, list[Path]]:
        """Artifacts each command writes, for the byte-identity check. The
        in-process driver writes no manifest."""
        analysis = out / "analysis"
        return {
            "synth": [out / "corpus.jsonl"],
            "calibrate": [out / "profiles.json"],
            "analyze": [analysis / name for name in ARTIFACTS + ("manifest.json",) * manifest],
        }

    def cli_argv(self, command: str, out: Path) -> list[str]:
        cli = [sys.executable, "-m", "selfcite", command]
        mode = ["--self-citation-mode", self.workload.mode]
        source = str(self.corpus_input(out))
        if command == "synth":
            return cli + [str(self.spec_path), "--output", str(out / "corpus.jsonl")]
        if command == "calibrate":
            return cli + [source, "--output", str(out / "profiles.json"), *mode]
        return cli + [source, "--output", str(out / "analysis"), *mode,
                      "--profiles", str(out / "profiles.json"),
                      "--reference-year", str(REFERENCE_YEAR)]

    def driver_argv(self, command: str, out: Path, trace: int) -> list[str]:
        driver = [sys.executable, str(BENCH / "traced.py"), "--trace", str(trace),
                  "--spans", str(out / f"{command}.spans.json"), command]
        source = str(self.corpus_input(out))
        if command == "synth":
            return driver + [str(self.spec_path), str(out / "corpus.jsonl")]
        if command == "calibrate":
            return driver + [source, str(out / "profiles.json"), self.workload.mode]
        return driver + [source, str(out / "analysis"), self.workload.mode,
                         str(out / "profiles.json"), str(REFERENCE_YEAR)]

    def pipeline(self, out: Path, argv_for, reference: dict[str, str] | None,
                 manifest: bool = True) -> dict[str, Sample]:
        """One pass: each command in turn; a command whose outputs differ
        from ``reference`` counts as failed."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        samples = {}
        for command in COMMANDS:
            sample = self.launch(command, argv_for(command, out))
            samples[command] = sample
            if sample.ok and reference is not None:
                if digest(self.outputs(out, manifest)[command]) != reference[command]:
                    sample.ok = False
                    self.fail(f"{command} output differs from the checked pass")
            if command == "synth" and self.workload.teams and not self.bundle.exists():
                overlay_teams(out / "corpus.jsonl", self.seed, self.bundle)
        return samples

    def check(self, out: Path) -> dict:
        """Oracle check of the first pass; returns the input's properties."""
        try:
            data = oracle.load(self.corpus_input(out))
            counts = oracle.count(data, self.workload.mode)
        except Exception as exc:  # the program wrote an unreadable corpus
            self.fail(f"synth output unreadable: {exc!r}"[:500])
            return {}
        checks = {
            "synth": lambda: self.check_synth(out, data, counts),
            "calibrate": lambda: oracle.check_profiles(out / "profiles.json", data, counts),
            "analyze": lambda: oracle.check_analysis(
                out / "analysis", data, counts, REFERENCE_YEAR, out / "profiles.json"),
        }
        for command, run_check in checks.items():
            try:
                run_check()
            except Exception as exc:  # a crash on malformed output is a failed check
                self.fail(f"{command} failed the oracle: {exc!r}"[:500])
        records_per_key: dict[str, int] = {}
        for person in data.researchers.values():
            records_per_key[person.key] = records_per_key.get(person.key, 0) + 1
        authorships = sum(len(authors) for _, authors in data.pubs.values())
        return {
            "records": {"researchers": len(data.researchers), "publications": len(data.pubs),
                        "citations": len(data.edges), "total": data.records},
            "input_bytes": input_bytes(self.corpus_input(out)),
            "mean_authors_per_paper": authorships / max(1, len(data.pubs)),
            "people_with_shared_orcid_share": sum(n > 1 for n in records_per_key.values())
            / max(1, len(records_per_key)),
            "self_edge_share": oracle.self_edge_share(data),
        }

    def check_synth(self, out: Path, data: oracle.Data, counts: dict) -> None:
        """Synth checks; ``data`` is the synth corpus unless teams overlay it."""
        if self.workload.check_targets:
            oracle.check_synth_targets(data, counts, spec_targets(self.spec))
        if self.workload.compounding:
            oracle.check_compounding(data, self.environment["max_valid_year"])

    # -- runs --------------------------------------------------------------

    def warm_up(self) -> dict:
        self.environment = self.describe_environment()
        out = self.work / "pass"  # every CLI pass runs here: the manifest names its paths
        start = time.perf_counter()
        self.first_pass = self.pipeline(out, self.cli_argv, None)
        self.pass_s = time.perf_counter() - start
        info = self.check(out) if not self.failed else {}
        self.reference = {c: digest(paths) for c, paths in self.outputs(out, True).items()}
        self.driver_reference = {c: digest(paths) for c, paths in self.outputs(out, False).items()}
        return info

    def describe_environment(self) -> dict:
        code = ("import json, os, sys, numpy; from selfcite.corpus import max_valid_year; "
                "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
                "'max_valid_year': max_valid_year()}))")
        self.attempted += 1
        try:
            probe = json.loads(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                                              capture_output=True, text=True, check=True,
                                              timeout=COMMAND_TIMEOUT_S).stdout)
        except (subprocess.SubprocessError, json.JSONDecodeError) as exc:
            self.fail(f"environment probe failed: {exc}")
            probe = {"max_valid_year": None}
        return dict(probe, nproc=os.cpu_count())

    def setup_sample(self) -> float | None:
        sample = self.launch("setup", [sys.executable, "-c", "import selfcite.cli"])
        return sample.wall_s if sample.ok else None

    def passes(self, per_pass: int = 1) -> int:
        """How many passes fill ``--seconds``, judged by the warm-up pass."""
        return max(1, round(self.seconds / (self.pass_s * per_pass)))

    def measure(self) -> dict[str, dict]:
        """Untraced CLI passes: the end-to-end metrics."""
        self.setup_sample()  # compiles bytecode; not measured
        setup = [self.setup_sample() for _ in range(SETUP_SAMPLES)]
        info = self.warm_up()
        passes = [self.first_pass]  # bytecode is compiled by now, so it counts
        for _ in range(self.passes()):
            if self.over_budget():
                break
            setup.append(self.setup_sample())
            passes.append(self.pipeline(self.work / "pass", self.cli_argv, self.reference))
        samples = {c: [p[c] for p in passes if p[c].ok] for c in COMMANDS}
        self.report_info(info)
        setup = [s for s in setup if s is not None]
        metrics, lines = {}, []

        def put(name, values, unit):
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                lines.append(f"{name:<22} {summary(values)}  {unit}")

        put("setup_s", setup, "s")
        for command in COMMANDS:
            put(f"{command}_s", [s.wall_s for s in samples[command]], "s")
            put(f"{command}_rss_mb", [s.rss_mb for s in samples[command]], "MB")
        records = info.get("records", {}).get("total")
        if records and samples["analyze"]:
            put("analyze_rec_per_s", [records / s.wall_s for s in samples["analyze"]], "1/s")
        print("\n".join(lines))
        return metrics

    def trace(self) -> dict[str, dict]:
        """Alternating untraced and traced in-process passes: per-layer metrics."""
        info = self.warm_up()
        n = self.passes(per_pass=2)
        totals = {0: [], 1: []}
        layers: list[dict[str, float]] = []
        for _ in range(n):
            for trace in (0, 1):
                if self.over_budget():
                    break
                out = self.work / f"driver{trace}"
                samples = self.pipeline(out, lambda c, o: self.driver_argv(c, o, trace),
                                        self.driver_reference, manifest=False)
                if not all(s.ok for s in samples.values()):
                    continue
                spans = [json.loads((out / f"{c}.spans.json").read_text()) for c in COMMANDS]
                totals[trace].append(sum(s["total_s"] for s in spans))
                if trace:
                    layers.append(merge_layers(spans))
        self.report_info(info)
        metrics, lines = {}, []
        for name, unit in LAYER_METRICS:
            values = [layer[name] for layer in layers if name in layer]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
                lines.append(f"{name:<34} {summary(values)}  {unit}")
        if totals[0] and totals[1]:
            base = statistics.median(totals[0])
            overhead = (statistics.median(totals[1]) - base) / base * 100.0
            metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
            lines.append(f"{'trace.overhead_pct':<34} {overhead:.3f}  % "
                         f"(traced {summary(totals[1])} s; untraced {summary(totals[0])} s)")
        print("\n".join(lines))
        return metrics

    def report_info(self, info: dict) -> None:
        record = {"workload": self.workload.name, "seed": self.seed, "seconds": self.seconds,
                  "traffic": "closed loop, 1 client", **self.environment, **info}
        print("info " + json.dumps(record, sort_keys=True))


LAYER_COUNTS = {
    "corpus.parse": [("records", "count")],
    "corpus.index": [],
    "corpus.write": [("bytes", "B")],
    "identity.count": [("classifications", "count"), ("self", "count")],
    "calibration.estimate": [("researchers", "count")],
    "metrics.report": [("reports", "count")],
    "metrics.write": [("bytes", "B")],
    "cohort.aggregate": [],
    "synth.generate": [("records", "count")],
    "synth.compound": [("edges_added", "count")],
}
LAYER_METRICS = [
    (f"{layer}.{key}", unit)
    for layer, counts in LAYER_COUNTS.items()
    for key, unit in [("s", "s"), ("rss_mb", "MB"), *counts]
] + [
    ("corpus.parse.rec_per_s", "1/s"),
    ("identity.count.per_s", "1/s"),
    ("cli.s", "s"),
    ("trace.total_s", "s"),
]


def merge_layers(spans: list[dict]) -> dict[str, float]:
    """One traced pass's commands folded into flat per-layer metrics: self
    times and counts add up, peak RSS is the largest of the commands."""
    flat: dict[str, float] = {}
    for command in spans:
        for layer, values in command["layers"].items():
            for key, value in values.items():
                name = f"{layer}.{key}"
                flat[name] = max(flat.get(name, 0.0), value) if key == "rss_mb" else flat.get(name, 0) + value
    flat["corpus.parse.rec_per_s"] = flat["corpus.parse.records"] / flat["corpus.parse.s"]
    flat["identity.count.per_s"] = flat["identity.count.classifications"] / flat["identity.count.s"]
    flat["trace.total_s"] = sum(command["total_s"] for command in spans)
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="selfcite benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selfcite" / "cli.py").is_file():
        print(f"error: the program is missing: no {SRC / 'selfcite' / 'cli.py'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, work)
        metrics = bench.trace() if args.trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    attempted = max(bench.attempted, 1)
    print(f"fail_share {bench.failed}/{attempted} = {bench.failed / attempted:.4f}")
    for problem in bench.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
