import argparse
import dataclasses
import importlib
import io
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import selfcite
from selfcite import cli
from selfcite.cli import (
    COHORT_FILES,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    NoEligibleReports,
    _build_parser,
    emit_histogram,
    main,
)
from selfcite.calibration import Basis, load_profiles
from selfcite.corpus import (
    CitationEdge,
    Corpus,
    CorpusFormat,
    Discipline,
    Gender,
    MalformedRecord,
    parse_corpus,
    write_corpus,
)
from selfcite.metrics import MetricsReport, report_to_json

from conftest import (
    DATA,
    corpus_with_ratios,
    make_corpus,
    simple_pub,
    simple_researcher,
)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def last_stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_two_papers(tmp_path, two_papers_path):
    out = tmp_path / "out"
    code = main(["analyze", str(two_papers_path), "--output", str(out)])
    assert code == EXIT_OK
    reports = read_json(out / "reports.json")
    assert len(reports) == 1
    assert reports[0]["researcher_id"] == "A"
    assert reports[0]["scr"] == 1.0
    for name in (
        "cohort_discipline.csv",
        "cohort_gender.csv",
        "cohort_career_stage.csv",
        "manifest.json",
    ):
        assert (out / name).exists()


def test_analyze_missing_input(tmp_path, capsys):
    code = main(
        ["analyze", str(tmp_path / "absent.jsonl"), "--output", str(tmp_path / "o")]
    )
    assert code == EXIT_INPUT
    record = last_stderr_record(capsys)
    assert record["error"] == "FileNotFoundError"
    assert "absent.jsonl" in record["path"]


def test_analyze_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "unknown_kind"}\n', encoding="utf-8")
    code = main(["analyze", str(bad), "--output", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert last_stderr_record(capsys)["error"] == "MalformedRecord"


def test_analyze_debug_keeps_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    code = main(["analyze", str(bad), "--output", str(tmp_path / "o"), "--debug"])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "Traceback" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--max-papers", "0"), ("--max-citations", "-3")],
    ids=["max-papers-0", "max-citations-minus-3"],
)
def test_analyze_rejects_nonpositive_limits(tmp_path, two_papers_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["analyze", str(two_papers_path), "--output", str(out), flag, value])
    assert code == EXIT_USAGE
    record = last_stderr_record(capsys)
    assert record["error"] == "ValueError"
    assert record["message"] == f"{flag} must be >= 1"
    assert not out.exists()


def test_failed_analyze_creates_no_output(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    out = tmp_path / "out"
    assert main(["analyze", str(empty), "--output", str(out)]) == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "EmptyInput"
    assert not out.exists()


def test_failed_analyze_keeps_previous_artifacts(tmp_path, two_papers_path, capsys):
    out = tmp_path / "keep"
    assert main(["analyze", str(two_papers_path), "--output", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(before) == 5
    empty = tmp_path / "empty.jsonl"
    empty.write_bytes(b"")
    assert main(["analyze", str(empty), "--output", str(out)]) == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "EmptyInput"
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_lone_surrogate_id_is_input_error(tmp_path, two_papers_path, capsys):
    out = tmp_path / "keep"
    assert main(["analyze", str(two_papers_path), "--output", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    corpus = tmp_path / "surrogate.jsonl"
    corpus.write_text(
        '{"kind":"researcher","id":"R\\ud800","names":["N"],"discipline":"Other"}\n'
        '{"kind":"publication","id":"P","title":"T","year":2000,'
        '"authors":["R\\ud800"],"discipline":"Other"}\n',
        encoding="utf-8",
    )
    assert main(["analyze", str(corpus), "--output", str(out)]) == EXIT_INPUT
    record = last_stderr_record(capsys)
    assert record["error"] == "MalformedRecord"
    assert "line 1" in record["message"]
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_analyze_rejects_infinite_profile_alpha(tmp_path, two_papers_path, capsys):
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text(
        '{"Engineering": {"alpha": Infinity, "beta": 0.1, "gamma": 1.5}}',
        encoding="utf-8",
    )
    out = tmp_path / "o"
    code = main(
        ["analyze", str(two_papers_path), "--output", str(out), "--profiles", str(profiles_path)]
    )
    assert code == EXIT_INPUT
    assert last_stderr_record(capsys)["error"] == "MalformedProfileFile"
    assert not out.exists()


@pytest.mark.parametrize(
    "make_url, code",
    [
        (lambda path: path.resolve().as_uri(), EXIT_OK),
        (lambda path: "file://localhost" + path.resolve().as_posix(), EXIT_OK),
        (lambda path: "file://t/two_papers_one_selfcite.jsonl", EXIT_USAGE),
        (lambda path: path.resolve().as_uri() + "?x=1", EXIT_USAGE),
        (lambda path: path.resolve().as_uri() + "#frag", EXIT_USAGE),
    ],
    ids=["no-host", "localhost", "other-host", "query", "fragment"],
)
def test_analyze_file_url_host(tmp_path, two_papers_path, capsys, make_url, code):
    url = make_url(two_papers_path)
    assert url.startswith("file://")
    out = tmp_path / "out"
    assert main(["analyze", url, "--output", str(out)]) == code
    if code == EXIT_OK:
        assert read_json(out / "reports.json")[0]["researcher_id"] == "A"
    else:
        record = last_stderr_record(capsys)
        assert record["error"] == "ValueError"
        assert url in record["message"]
        assert not out.exists()


def test_analyze_truncation_manifest(tmp_path, researcher_mid_path):
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            str(researcher_mid_path),
            "--output",
            str(out),
            "--max-papers",
            "1",
        ]
    )
    assert code == EXIT_OK
    manifest = read_json(out / "manifest.json")
    t = manifest["truncation"]
    assert t["truncated"] is True
    assert t["publications_after"] == 1
    assert t["citations_after"] == 0
    assert t["publications_before"] == 7


def test_analyze_max_citations(tmp_path, researcher_mid_path):
    out = tmp_path / "out"
    main(
        [
            "analyze",
            str(researcher_mid_path),
            "--output",
            str(out),
            "--max-citations",
            "3",
        ]
    )
    manifest = read_json(out / "manifest.json")
    assert manifest["truncation"]["citations_after"] == 3
    total = sum(
        r["total_citations"] for r in read_json(out / "reports.json")
    )
    assert total == 3


def test_analyze_deterministic_outputs(tmp_path, researcher_mid_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for out in (out1, out2):
        assert (
            main(
                [
                    "analyze",
                    str(researcher_mid_path),
                    "--output",
                    str(out),
                    "--reference-year",
                    "2024",
                ]
            )
            == EXIT_OK
        )
    for name in (
        "reports.json",
        "cohort_discipline.csv",
        "cohort_gender.csv",
        "cohort_career_stage.csv",
    ):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_analyze_csv_bundle_directory(tmp_path):
    out = tmp_path / "out"
    code = main(["analyze", str(DATA / "csv_bundle"), "--output", str(out)])
    assert code == EXIT_OK
    reports = {r["researcher_id"]: r for r in read_json(out / "reports.json")}
    assert reports["M"]["h_index"] == 3
    assert reports["M"]["self_citations"] == 4


@pytest.mark.parametrize(
    "short_file, short_row, line",
    [
        ("researchers.csv", "R1,Ann Lee", 2),
        ("publications.csv", "P1,T,2001", 2),
        ("publications.csv", "\nP1,T,2001", 3),
    ],
    ids=["researchers", "publications", "after-blank-line"],
)
def test_short_csv_row_is_input_error(tmp_path, capsys, short_file, short_row, line):
    files = {
        "researchers.csv": [
            "id,names,orcid,gender,discipline,first_pub_year", "R1,Ann Lee,,,Other,"
        ],
        "publications.csv": ["id,title,year,authors,discipline", "P1,T,2001,R1,Other"],
        "citations.csv": ["citing,cited"],
    }
    files[short_file][1] = short_row
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    for name, lines in files.items():
        (bundle / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        parse_corpus(bundle, CorpusFormat.CSV_BUNDLE)
    assert err.value.location == f"{short_file} row {line}"
    out = tmp_path / "out"
    assert main(["analyze", str(bundle), "--output", str(out)]) == EXIT_INPUT
    assert last_stderr_record(capsys)["error"] == "MalformedRecord"
    assert not out.exists()


def test_analyze_any_overlap_mode(tmp_path):
    # B co-authored the cited paper; the citing paper is A's alone, so the
    # citation is external for focal B but a self-citation under any-overlap
    a, b = simple_researcher("A"), simple_researcher("B")
    cited = simple_pub("P1", 2010, ["A", "B"])
    citing = simple_pub("P2", 2012, ["A"])
    corpus = make_corpus([a, b], [cited, citing], [CitationEdge("P2", "P1")])
    source = tmp_path / "corpus.jsonl"
    write_corpus(corpus, source)

    def self_citations_of_b(mode_args):
        out = tmp_path / f"out-{len(mode_args)}"
        assert main(["analyze", str(source), "--output", str(out), *mode_args]) == 0
        reports = {r["researcher_id"]: r for r in read_json(out / "reports.json")}
        return reports["B"]["self_citations"]

    assert self_citations_of_b([]) == 0
    assert self_citations_of_b(["--self-citation-mode", "any-overlap"]) == 1


def test_analyze_profiles_change_scai(tmp_path):
    corpus = corpus_with_ratios([(3, 10)])
    source = tmp_path / "corpus.jsonl"
    write_corpus(corpus, source)
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text(
        json.dumps(
            {"Engineering": {"alpha": 0.5, "beta": 0.3, "gamma": 1.5}}
        ),
        encoding="utf-8",
    )

    def scai_of(args):
        out = tmp_path / f"out{len(args)}"
        assert main(["analyze", str(source), "--output", str(out), *args]) == 0
        reports = {r["researcher_id"]: r for r in read_json(out / "reports.json")}
        return reports["R000"]["scai"]

    default_scai = scai_of([])
    lifted_scai = scai_of(["--profiles", str(profiles_path)])
    # beta raised to the researcher's own ratio: no penalty at all
    assert lifted_scai > default_scai
    assert lifted_scai == 1.0


def test_analyze_malformed_profiles(tmp_path, two_papers_path, capsys):
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_text('{"Astrology": {}}', encoding="utf-8")
    code = main(
        [
            "analyze",
            str(two_papers_path),
            "--output",
            str(tmp_path / "o"),
            "--profiles",
            str(profiles_path),
        ]
    )
    assert code == EXIT_INPUT
    assert last_stderr_record(capsys)["error"] == "MalformedProfileFile"


def test_analyze_non_utf8_profiles(tmp_path, two_papers_path, capsys):
    profiles_path = tmp_path / "profiles.json"
    profiles_path.write_bytes(b"\xff\xfe")
    code = main(
        [
            "analyze",
            str(two_papers_path),
            "--output",
            str(tmp_path / "o"),
            "--profiles",
            str(profiles_path),
        ]
    )
    assert code == EXIT_INPUT
    record = last_stderr_record(capsys)
    assert record["error"] == "MalformedProfileFile"
    assert record["path"] == str(profiles_path)


def test_analyze_missing_profiles_file(tmp_path, two_papers_path, capsys):
    code = main(
        [
            "analyze",
            str(two_papers_path),
            "--output",
            str(tmp_path / "o"),
            "--profiles",
            str(tmp_path / "absent.json"),
        ]
    )
    assert code == EXIT_INPUT
    record = last_stderr_record(capsys)
    assert record["error"] == "FileNotFoundError"
    assert "absent.json" in record["path"]
    assert not (tmp_path / "o").exists()


def test_analyze_visible_progress(tmp_path, two_papers_path, capsys):
    main(
        [
            "analyze",
            str(two_papers_path),
            "--output",
            str(tmp_path / "o"),
            "--visible",
        ]
    )
    err = capsys.readouterr().err
    assert "loading corpus" in err


def test_analyze_manifest_contents(tmp_path, two_papers_path):
    out = tmp_path / "out"
    main(
        [
            "analyze",
            str(two_papers_path),
            "--output",
            str(out),
            "--reference-year",
            "2024",
        ]
    )
    manifest = read_json(out / "manifest.json")
    assert manifest["reference_year"] == 2024
    assert manifest["self_citation_mode"] == "focal"
    assert manifest["researchers"] == 1
    assert manifest["reports"] == 1
    assert "generated_at" in manifest
    assert set(manifest["profiles"]) == {
        d.value for d in Discipline if d is not Discipline.OTHER
    }


def test_analyze_reads_the_clock_once_into_the_manifest(tmp_path, monkeypatch):
    class FixedDate(date):
        @classmethod
        def today(cls):
            return cls(2000, 6, 1)

    def analyze(run, *flags):
        out = str(tmp_path / run)
        assert main(["analyze", str(DATA / "e2e_corpus.jsonl"), "--output", out, *flags]) == EXIT_OK

    analyze("now", "--reference-year", str(date.today().year))
    analyze("flag", "--reference-year", "2000")
    monkeypatch.setattr(cli, "date", FixedDate)
    analyze("clock")

    assert read_json(tmp_path / "clock" / "manifest.json")["reference_year"] == 2000
    stages = {
        run: (tmp_path / run / "cohort_career_stage.csv").read_bytes()
        for run in ("now", "flag", "clock")
    }
    assert stages["clock"] == stages["flag"] != stages["now"]


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------


def hist_report(rid, h, scai):
    return MetricsReport(
        researcher_id=rid,
        h_index=h,
        h_index_external=h,
        i10_index=0,
        total_citations=0,
        self_citations=0,
        scr=0.0,
        scai=scai,
        s_index=0,
        inflation=None,
    )


def test_emit_histogram_counts(tmp_path):
    reports = [
        hist_report("A", 10, 10.0),   # 0%   -> bin 0
        hist_report("B", 10, 9.0),    # 10%  -> bin 2
        hist_report("C", 10, 7.0),    # 30%  -> clamped into last bin
        hist_report("D", 0, 0.0),     # ineligible
    ]
    csv_path, svg_path = emit_histogram(reports, 5, tmp_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "bin_low_pct,bin_high_pct,count"
    assert lines[1] == "0.00,5.00,1"
    assert lines[3] == "10.00,15.00,1"
    assert lines[5] == "20.00,25.00,1"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 3
    assert svg_path.read_text(encoding="utf-8").startswith("<svg")


def test_emit_histogram_single_bin(tmp_path):
    csv_path, _ = emit_histogram([hist_report("A", 5, 5.0)], 1, tmp_path)
    assert csv_path.read_text(encoding="utf-8").splitlines()[1] == "0.00,25.00,1"


def test_emit_histogram_rejects_no_bins(tmp_path):
    with pytest.raises(ValueError):
        emit_histogram([hist_report("A", 5, 5.0)], 0, tmp_path)


def test_emit_histogram_rejects_all_zero_h(tmp_path):
    with pytest.raises(NoEligibleReports):
        emit_histogram([hist_report("A", 0, 0.0)], 5, tmp_path)


def test_histogram_cli_roundtrip(tmp_path, researcher_mid_path):
    out = tmp_path / "analysis"
    main(["analyze", str(researcher_mid_path), "--output", str(out)])
    hist_out = tmp_path / "hist"
    code = main(
        ["histogram", str(out / "reports.json"), "--output", str(hist_out)]
    )
    assert code == EXIT_OK
    lines = (hist_out / "histogram.csv").read_text(encoding="utf-8").splitlines()
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    reports = read_json(out / "reports.json")
    eligible = sum(1 for r in reports if r["h_index"] > 0)
    assert sum(counts) == eligible
    assert (hist_out / "histogram.svg").exists()


def test_histogram_cli_visible_progress(tmp_path, researcher_mid_path, capsys):
    out = tmp_path / "analysis"
    main(["analyze", str(researcher_mid_path), "--output", str(out)])
    capsys.readouterr()
    reports = str(out / "reports.json")
    assert main(["histogram", reports, "--output", str(tmp_path / "quiet")]) == EXIT_OK
    assert capsys.readouterr().err == ""
    hist_out = tmp_path / "loud"
    assert main(["histogram", reports, "--output", str(hist_out), "--visible"]) == EXIT_OK
    err = capsys.readouterr().err
    assert "into 5 bins" in err
    assert str(hist_out / "histogram.csv") in err


def test_histogram_cli_bad_bins(tmp_path, researcher_mid_path, capsys):
    out = tmp_path / "analysis"
    main(["analyze", str(researcher_mid_path), "--output", str(out)])
    code = main(
        [
            "histogram",
            str(out / "reports.json"),
            "--output",
            str(tmp_path / "h"),
            "--bins",
            "0",
        ]
    )
    assert code == EXIT_USAGE


def test_histogram_bins_stop_where_edge_labels_would_repeat(
    tmp_path, researcher_mid_path, capsys
):
    csv_path, _ = emit_histogram([hist_report("A", 5, 5.0)], 2500, tmp_path / "max")
    rows = [line.split(",") for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
    lows = [low for low, _, _ in rows]
    assert len(rows) == len(set(lows)) == 2500
    assert [high for _, high, _ in rows] == lows[1:] + ["25.00"]

    out = tmp_path / "analysis"
    main(["analyze", str(researcher_mid_path), "--output", str(out)])
    hist_out = tmp_path / "h"
    code = main(
        ["histogram", str(out / "reports.json"), "--output", str(hist_out), "--bins", "2501"]
    )
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "ValueError"
    assert not hist_out.exists()


def test_histogram_cli_missing_reports(tmp_path, capsys):
    code = main(
        ["histogram", str(tmp_path / "no.json"), "--output", str(tmp_path / "h")]
    )
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "field, value",
    [
        ("scai", 3.0),  # above h_index 2
        ("scai", -0.5),
        ("h_index", 2.9),
        ("h_index", True),
        ("h_index_external", 3),
        ("self_citations", 5),  # above total_citations 4
        ("scr", 1.5),
        ("scr", "0.5"),
        ("inflation", "0.5"),
    ],
)
def test_histogram_rejects_reports_analyze_cannot_write(tmp_path, capsys, field, value):
    good = dict(
        report_to_json(hist_report("A", 2, 2.0)), total_citations=4, self_citations=1, scr=0.25
    )
    reports_path = tmp_path / "reports.json"
    reports_path.write_text(
        json.dumps([good, dict(good, researcher_id="B", **{field: value})]), encoding="utf-8"
    )
    code = main(["histogram", str(reports_path), "--output", str(tmp_path / "h")])
    assert code == EXIT_INPUT
    record = last_stderr_record(capsys)
    assert record["error"] == "MalformedRecord"
    assert record["message"].startswith(f"{reports_path} report 1: ")
    assert field in record["message"]
    assert not (tmp_path / "h").exists()


def test_histogram_cli_all_ineligible(tmp_path, capsys):
    reports_path = tmp_path / "reports.json"
    reports_path.write_text(
        json.dumps(
            [
                {
                    "researcher_id": "Z",
                    "h_index": 0,
                    "h_index_external": 0,
                    "i10_index": 0,
                    "total_citations": 0,
                    "self_citations": 0,
                    "scr": 0.0,
                    "scai": 0.0,
                    "s_index": 0,
                    "inflation": None,
                    "yearly_scr": {},
                }
            ]
        ),
        encoding="utf-8",
    )
    code = main(
        ["histogram", str(reports_path), "--output", str(tmp_path / "h")]
    )
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "NoEligibleReports"


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def minimal_spec(n=2):
    return {
        "seed": 5,
        "years": {"start": 2000, "end": 2020},
        "compounding_rate": 0.0,
        "groups": [
            {
                "discipline": "Engineering",
                "n_researchers": n,
                "target_mean_scr": 0.2,
                "target_mean_h": 3,
            }
        ],
    }


def test_synth_cli(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(minimal_spec()), encoding="utf-8")
    out = tmp_path / "corpus.jsonl"
    assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_OK
    corpus = parse_corpus(out)
    assert len(corpus.researchers) == 2


def test_synth_cli_deterministic(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(minimal_spec()), encoding="utf-8")
    out1, out2 = tmp_path / "c1.jsonl", tmp_path / "c2.jsonl"
    main(["synth", str(spec_path), "--output", str(out1)])
    main(["synth", str(spec_path), "--output", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_cli_invalid_group_size(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(minimal_spec(n=0)), encoding="utf-8")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "InvalidSpec"


def test_synth_cli_nan_compounding_rate(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps(dict(minimal_spec(), compounding_rate=float("nan"))), encoding="utf-8"
    )
    assert "NaN" in spec_path.read_text(encoding="utf-8")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "InvalidSpec"
    assert not (tmp_path / "c.jsonl").exists()


def test_synth_cli_missing_spec(tmp_path, capsys):
    code = main(
        ["synth", str(tmp_path / "no.json"), "--output", str(tmp_path / "c.jsonl")]
    )
    assert code == EXIT_INPUT


def test_synth_cli_unparseable_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("{broken", encoding="utf-8")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_INPUT


def test_synth_cli_non_utf8_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b"\xff\xfe")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_INPUT
    assert last_stderr_record(capsys)["error"] == "UnicodeDecodeError"


@pytest.mark.parametrize(
    "field, mutate",
    [
        ("years.start", lambda spec: spec["years"].update(start=1000)),
        ("seed", lambda spec: spec.update(seed=-1)),
    ],
)
def test_synth_cli_spec_error_names_field(tmp_path, capsys, field, mutate):
    spec = minimal_spec()
    mutate(spec)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_USAGE
    record = last_stderr_record(capsys)
    assert record["error"] == "InvalidSpec"
    assert field in record["message"]


def test_synth_cli_non_object_spec(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text("[]", encoding="utf-8")
    code = main(["synth", str(spec_path), "--output", str(tmp_path / "c.jsonl")])
    assert code == EXIT_USAGE


def test_synth_cli_applies_compounding(tmp_path):
    spec = minimal_spec()
    spec["compounding_rate"] = 3.0
    base = dict(spec, compounding_rate=0.0)
    spec_path, base_path = tmp_path / "spec.json", tmp_path / "base.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    base_path.write_text(json.dumps(base), encoding="utf-8")
    out, out_base = tmp_path / "c.jsonl", tmp_path / "b.jsonl"
    main(["synth", str(spec_path), "--output", str(out)])
    main(["synth", str(base_path), "--output", str(out_base)])
    grown = parse_corpus(out)
    plain = parse_corpus(out_base)
    assert len(grown.edges) > len(plain.edges)
    assert any(rid.startswith("CR") for rid in grown.researchers)


def test_commands_build_no_edge_objects(tmp_path, monkeypatch):
    """synth, calibrate and analyze walk the corpus's number columns. The
    CitationEdge view is for library callers and stays off their path."""

    def refuse(*args):
        raise AssertionError("a command built CitationEdge objects")

    monkeypatch.setattr(Corpus, "edges", property(refuse))
    monkeypatch.setattr(CitationEdge, "__new__", refuse)
    monkeypatch.setattr(CitationEdge, "_make", classmethod(refuse))
    with pytest.raises(AssertionError):
        parse_corpus(DATA / "two_papers_one_selfcite.jsonl").edges
    with pytest.raises(AssertionError):
        CitationEdge("P2", "P1")

    spec = dict(read_json(DATA / "e2e_spec.json"), compounding_rate=3.0)
    spec_path, corpus_path = tmp_path / "spec.json", tmp_path / "corpus.jsonl"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", str(spec_path), "--output", str(corpus_path)]) == EXIT_OK
    for source in (corpus_path, DATA / "csv_bundle"):
        for mode in ("focal", "any-overlap"):
            out = tmp_path / f"{source.name}-{mode}"
            profiles = f"{out}.json"
            flags = ["--self-citation-mode", mode]
            assert main(["calibrate", str(source), "--output", profiles, *flags]) == EXIT_OK
            assert main(
                ["analyze", str(source), "--output", str(out), *flags, "--profiles", profiles]
            ) == EXIT_OK


def test_written_corpora_never_reach_the_decoder(tmp_path, monkeypatch):
    """Every line write_corpus writes matches a record-line pattern, so a
    change to the writer's key order or spacing that sends lines back to the
    JSON decoder fails here."""
    import selfcite.corpus

    spec = dict(read_json(DATA / "e2e_spec.json"), compounding_rate=3.0)
    spec_path, synth_path = tmp_path / "spec.json", tmp_path / "synth.jsonl"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["synth", str(spec_path), "--output", str(synth_path)]) == EXIT_OK

    # the same corpus with ORCIDs (some shared), genders, several names,
    # several authors and source citation counts
    corpus = parse_corpus(synth_path)
    rids = sorted(corpus.researchers)
    researchers = [
        dataclasses.replace(
            corpus.researchers[rid],
            name_variants=(f"Name {i}", f"N. {i}")[: 1 + i % 2],
            orcid=f"0000-0000-0000-{i // 3:04d}" if i % 4 else None,
            gender=(Gender.MALE, Gender.FEMALE, Gender.UNREPORTED)[i % 3],
            first_pub_year=(None, 1990)[i % 2],
        )
        for i, rid in enumerate(rids)
    ]
    publications = []
    for i, pid in enumerate(corpus.publication_ids):
        pub = corpus.publications[pid]
        other = rids[(rids.index(pub.author_ids[0]) + 1) % len(rids)]
        extra = (other,) if i % 2 and other not in pub.author_ids else ()
        publications.append(dataclasses.replace(
            pub, author_ids=pub.author_ids + extra, source_citation_count=(None, i)[i % 2]
        ))
    ids = corpus.publication_ids
    rich = Corpus.from_parts(
        researchers,
        publications,
        [CitationEdge(ids[c], ids[d]) for c, d in zip(corpus.citing, corpus.cited)],
        corpus.provenance,
    )
    rich_path = tmp_path / "rich.jsonl"
    write_corpus(rich, rich_path)

    def refuse(line):
        raise AssertionError(f"a written line reached the JSON decoder: {line}")

    monkeypatch.setattr(selfcite.corpus, "_decode_line", refuse)
    with pytest.raises(AssertionError):  # the patch is in force
        parse_corpus(io.StringIO('{"kind": "citation"}'))
    for source in (synth_path, rich_path):
        for mode in ("focal", "any-overlap"):
            out = tmp_path / f"{source.stem}-{mode}"
            flags = ["--self-citation-mode", mode]
            assert main(["calibrate", str(source), "--output", f"{out}.json", *flags]) == EXIT_OK
            assert main(
                ["analyze", str(source), "--output", str(out), *flags, "--reference-year", "2024"]
            ) == EXIT_OK
    assert parse_corpus(rich_path).researchers == rich.researchers


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def test_calibrate_cli(tmp_path):
    corpus = corpus_with_ratios([(i % 4, 10) for i in range(12)])
    source = tmp_path / "corpus.jsonl"
    write_corpus(corpus, source)
    out = tmp_path / "profiles.json"
    assert main(["calibrate", str(source), "--output", str(out)]) == EXIT_OK
    profiles = load_profiles(out)
    eng = profiles[Discipline.ENGINEERING]
    assert eng.basis is Basis.ESTIMATED
    assert eng.sample_size == 12
    # disciplines without a cohort keep the default profile
    assert profiles[Discipline.HUMANITIES].basis is Basis.DEFAULT


def test_calibrate_cli_missing_input(tmp_path, capsys):
    code = main(
        ["calibrate", str(tmp_path / "no.jsonl"), "--output", str(tmp_path / "p")]
    )
    assert code == EXIT_INPUT


def test_calibrate_output_feeds_analyze(tmp_path):
    corpus = corpus_with_ratios([(i % 4, 10) for i in range(12)])
    source = tmp_path / "corpus.jsonl"
    write_corpus(corpus, source)
    profiles_path = tmp_path / "profiles.json"
    main(["calibrate", str(source), "--output", str(profiles_path)])
    out = tmp_path / "out"
    code = main(
        [
            "analyze",
            str(source),
            "--output",
            str(out),
            "--profiles",
            str(profiles_path),
        ]
    )
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# error paths shared by every command
# ---------------------------------------------------------------------------


def _report_lacking_h_index():
    record = report_to_json(hist_report("A", 5, 5.0))
    del record["h_index"]
    return json.dumps([record]).encode("utf-8")


@pytest.mark.parametrize(
    "command, make_input",
    [
        ("analyze", lambda path: path.write_bytes(b"\xff\xfe\n")),
        ("synth", lambda path: path.write_bytes(b"\xff\xfe")),
        ("synth", lambda path: path.mkdir()),
        ("histogram", lambda path: path.write_text("{}", encoding="utf-8")),
        ("histogram", lambda path: path.write_bytes(_report_lacking_h_index())),
    ],
    ids=[
        "analyze-non-utf8-corpus",
        "synth-non-utf8-spec",
        "synth-directory-spec",
        "histogram-object-reports",
        "histogram-record-lacks-h-index",
    ],
)
def test_unreadable_input_is_input_error(tmp_path, capsys, command, make_input):
    source = tmp_path / "input"
    make_input(source)
    code = main([command, str(source), "--output", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert set(last_stderr_record(capsys)) >= {"error", "message"}


@pytest.mark.parametrize(
    "command, source",
    [
        ("analyze", DATA / "two_papers_one_selfcite.jsonl"),
        ("synth", DATA / "e2e_spec.json"),
        ("histogram", DATA / "researcher_mid_report.json"),
        ("calibrate", DATA / "two_papers_one_selfcite.jsonl"),
    ],
    ids=["analyze", "synth", "histogram", "calibrate"],
)
def test_missing_output_parent_is_usage_error(tmp_path, capsys, command, source):
    output = tmp_path / "missing" / "deeper" / "out"
    code = main([command, str(source), "--output", str(output)])
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "ValueError"
    assert not (tmp_path / "missing").exists()


def test_output_parent_that_is_a_file_is_usage_error(tmp_path, two_papers_path, capsys):
    parent = tmp_path / "file"
    parent.write_text("x", encoding="utf-8")
    code = main(["analyze", str(two_papers_path), "--output", str(parent / "out")])
    assert code == EXIT_USAGE
    assert last_stderr_record(capsys)["error"] == "ValueError"


# ---------------------------------------------------------------------------
# argument surface
# ---------------------------------------------------------------------------


# Each subcommand's options as (option strings or dest, default, choices,
# required, type name), taken from the parser as it was before the shared
# flags moved into argparse parents.
ARGUMENT_SURFACE = {
    "analyze": [
        (("--debug",), False, None, False, None),
        (("--max-citations",), None, None, False, "int"),
        (("--max-papers",), None, None, False, "int"),
        (("--output",), None, None, True, None),
        (("--profiles",), None, None, False, None),
        (("--reference-year",), None, None, False, "int"),
        (("--self-citation-mode",), "focal", ["focal", "any-overlap"], False, None),
        (("--visible",), False, None, False, None),
        (("input",), None, None, True, None),
    ],
    "calibrate": [
        (("--debug",), False, None, False, None),
        (("--output",), None, None, True, None),
        (("--self-citation-mode",), "focal", ["focal", "any-overlap"], False, None),
        (("--visible",), False, None, False, None),
        (("input",), None, None, True, None),
    ],
    "histogram": [
        (("--bins",), 5, None, False, "int"),
        (("--debug",), False, None, False, None),
        (("--output",), None, None, True, None),
        (("--visible",), False, None, False, None),
        (("reports",), None, None, True, None),
    ],
    "synth": [
        (("--debug",), False, None, False, None),
        (("--output",), None, None, True, None),
        (("--visible",), False, None, False, None),
        (("spec",), None, None, True, None),
    ],
}


def test_argument_surface_is_pinned():
    parser = _build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: sorted(
            (
                tuple(a.option_strings) or (a.dest,),
                a.default,
                a.choices,
                a.required,
                getattr(a.type, "__name__", None),
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        )
        for name, sub in commands.choices.items()
    }
    assert surface == ARGUMENT_SURFACE


# The parameters that have a default, for each public function and
# exception of the library: a new knob is a deliberate edit here.
OPTION_SURFACE = {
    "calibration.estimate_field_beta": ["params_template", "mode"],
    "cli.main": ["argv"],
    "cohort.cohort_aggregate": ["reference_year"],
    "cohort.gap_reduction": ["reference_year"],
    "cohort.group_value": ["reference_year"],
    "corpus.MalformedRecord": ["location"],
    "corpus.parse_corpus": ["format"],
    "identity.count_citations": ["mode"],
    "metrics.compute_report": ["params", "mode"],
    "metrics.compute_scai": ["params"],
    "metrics.report_from_counts": ["params"],
    "synth.apply_compounding": ["horizon_years", "seed"],
}


def test_option_surface_is_pinned():
    surface = {}
    for info in pkgutil.iter_modules(selfcite.__path__):
        module = importlib.import_module(f"selfcite.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and issubclass(obj, BaseException):
                obj = obj.__init__
            elif not inspect.isfunction(obj):
                continue
            defaults = [
                p.name for p in inspect.signature(obj).parameters.values()
                if p.default is not p.empty
            ]
            if defaults:
                surface[f"{info.name}.{name}"] = defaults
    assert surface == OPTION_SURFACE


def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_missing_required_output_flag(two_papers_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["analyze", str(two_papers_path)])
    assert excinfo.value.code == EXIT_USAGE


def test_console_script_runs(tmp_path, two_papers_path):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "selfcite",
            "analyze",
            str(two_papers_path),
            "--output",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert (tmp_path / "out" / "reports.json").exists()


@pytest.mark.parametrize("command", ["analyze", "calibrate"])
def test_commands_import_only_what_they_run(command, tmp_path):
    """numpy (synth only), urllib.request (file:// input only) and xml.sax
    stay out of a run that does not need them."""
    code = (
        "import json, sys\n"
        "import selfcite.cli\n"
        "status = selfcite.cli.main(sys.argv[1:])\n"
        "heavy = ['numpy', 'urllib.request', 'xml.sax']\n"
        "print(json.dumps([status, [m for m in heavy if m in sys.modules]]))\n"
    )
    output = tmp_path / ("analysis" if command == "analyze" else "profiles.json")
    argv = [command, str(DATA / "e2e_corpus.jsonl"), "--output", str(output)]
    if command == "analyze":
        argv += ["--reference-year", "2024"]
    result = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, check=True
    )
    assert json.loads(result.stdout) == [EXIT_OK, []]


@pytest.mark.parametrize("mode", ["focal", "any-overlap"])
def test_analyze_bytes_ignore_the_hash_seed(mode, tmp_path):
    """Person numbers and every other ordering follow sorted ids, never
    set or dict iteration order, so the hash seed cannot move a byte."""
    outputs = []
    for seed in ("0", "12345"):
        out = tmp_path / f"seed{seed}"
        subprocess.run(
            [sys.executable, "-m", "selfcite", "analyze", str(DATA / "e2e_corpus.jsonl"),
             "--output", str(out), "--self-citation-mode", mode, "--reference-year", "2024"],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            check=True,
        )
        outputs.append({name: (out / name).read_bytes() for name in ("reports.json", *COHORT_FILES)})
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# benchmark driver
# ---------------------------------------------------------------------------


def test_traced_driver_matches_cli(tmp_path):
    """bench/traced.py replays synth, calibrate and analyze through the
    library's public names; it must import cleanly and write the CLI's bytes."""
    root = Path(__file__).resolve().parents[1]
    source = str(DATA / "e2e_corpus.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )

    def traced(*args):
        subprocess.run(
            [
                sys.executable,
                str(root / "bench" / "traced.py"),
                "--trace",
                "1",
                "--spans",
                str(tmp_path / "spans.json"),
                *args,
            ],
            env=env,
            check=True,
        )

    cli, bench = tmp_path / "cli", tmp_path / "bench"
    for out in (cli, bench):
        out.mkdir()
    spec = str(DATA / "e2e_spec.json")
    assert main(["synth", spec, "--output", str(cli / "corpus.jsonl")]) == 0
    traced("synth", spec, str(bench / "corpus.jsonl"))
    assert main(["calibrate", source, "--output", str(cli / "profiles.json")]) == 0
    assert main(
        [
            "analyze",
            source,
            "--output",
            str(cli / "analysis"),
            "--profiles",
            str(cli / "profiles.json"),
            "--reference-year",
            "2024",
        ]
    ) == 0
    traced("calibrate", source, str(bench / "profiles.json"), "focal")
    traced(
        "analyze",
        source,
        str(bench / "analysis"),
        "focal",
        str(bench / "profiles.json"),
        "2024",
    )
    for name in (
        "corpus.jsonl",
        "profiles.json",
        "analysis/reports.json",
        "analysis/cohort_discipline.csv",
        "analysis/cohort_gender.csv",
        "analysis/cohort_career_stage.csv",
    ):
        assert (cli / name).read_bytes() == (bench / name).read_bytes(), name
