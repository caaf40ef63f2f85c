"""Tests of the benchmark's oracle and input generators.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

import oracle
from run import digest
from selfcite.cli import main as selfcite
from workloads import WORKLOADS, generator_spec, overlay_teams

# A1 and A2 are two records of one person (shared ORCID). B, C and A2 all
# read as "J. Smith"-like names but are distinct people to the oracle
# unless an id or ORCID says otherwise.
RESEARCHERS = [
    ("A1", ["Jane Smith"], "0000-0001-0000-0001"),
    ("A2", ["J. Smith"], "0000-0001-0000-0001"),
    ("B", ["J. Smith"], None),
    ("C", ["John Smith", "Smith, J."], "0000-0001-0000-0003"),
    ("D", ["Wei Chen"], None),
]
PUBLICATIONS = [
    ("P1", 2010, ["A1"]),
    ("P2", 2012, ["A2"]),
    ("P3", 2013, ["B"]),
    ("P4", 2014, ["C", "D"]),
    ("P5", 2015, ["D", "A2"]),
    ("P6", 2016, ["B", "D"]),
    ("P7", 2016, ["C"]),
]
CITATIONS = [("P2", "P1"), ("P3", "P1"), ("P4", "P1"), ("P5", "P3"), ("P6", "P5"), ("P7", "P4")]

# researcher -> (total, self) in each mode
EXPECTED = {
    "focal": {"A1": (3, 1), "A2": (1, 0), "B": (1, 0), "C": (1, 1), "D": (2, 1)},
    "any-overlap": {"A1": (3, 1), "A2": (1, 1), "B": (1, 0), "C": (1, 1), "D": (2, 2)},
}


@pytest.fixture
def corpus_path(tmp_path) -> Path:
    lines = [
        {"kind": "researcher", "id": rid, "names": names, "orcid": orcid,
         "gender": None, "discipline": "Engineering", "first_pub_year": None}
        for rid, names, orcid in RESEARCHERS
    ] + [
        {"kind": "publication", "id": pid, "title": f"Paper {pid}", "year": year,
         "authors": authors, "discipline": "Engineering"}
        for pid, year, authors in PUBLICATIONS
    ] + [{"kind": "citation", "citing": c, "cited": d} for c, d in CITATIONS]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("mode", ["focal", "any-overlap"])
def test_oracle_counts_shared_orcid_as_self_and_look_alikes_as_external(corpus_path, mode):
    counts = oracle.count(oracle.load(corpus_path), mode)
    got = {rid: (c.total, c.self_total) for rid, c in counts.items()}
    assert got == EXPECTED[mode]


@pytest.mark.parametrize("mode", ["focal", "any-overlap"])
def test_oracle_agrees_with_the_program(corpus_path, tmp_path, mode):
    profiles, out = tmp_path / "profiles.json", tmp_path / "out"
    flags = ["--self-citation-mode", mode]
    assert selfcite(["calibrate", str(corpus_path), "--output", str(profiles), *flags]) == 0
    assert selfcite(["analyze", str(corpus_path), "--output", str(out), *flags,
                     "--profiles", str(profiles), "--reference-year", "2024"]) == 0
    data = oracle.load(corpus_path)
    counts = oracle.count(data, mode)
    oracle.check_profiles(profiles, data, counts)
    oracle.check_analysis(out, data, counts, 2024, profiles)


def test_oracle_rejects_a_wrong_report(corpus_path, tmp_path):
    out = tmp_path / "out"
    assert selfcite(["analyze", str(corpus_path), "--output", str(out), "--reference-year", "2024"]) == 0
    reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
    reports[0]["self_citations"] += 1
    (out / "reports.json").write_text(json.dumps(reports), encoding="utf-8")
    data = oracle.load(corpus_path)
    with pytest.raises(oracle.OracleMismatch, match="self_citations"):
        oracle.check_analysis(out, data, oracle.count(data, "focal"), 2024)


def test_generator_specs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert generator_spec(workload, 5) == generator_spec(workload, 5)
        assert generator_spec(workload, 5) != generator_spec(workload, 6)


@pytest.fixture
def synth_corpus(tmp_path) -> Path:
    spec = generator_spec(WORKLOADS["team-overlap"], 3)
    for group in spec["groups"]:
        group["n_researchers"] = 6
    spec_path, corpus = tmp_path / "spec.json", tmp_path / "synth.jsonl"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert selfcite(["synth", str(spec_path), "--output", str(corpus)]) == 0
    return corpus


def _bundle_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_team_overlay_is_deterministic_from_its_seed(synth_corpus, tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        overlay_teams(synth_corpus, seed, tmp_path / name)
    first = _bundle_bytes(tmp_path / "a")
    assert first == _bundle_bytes(tmp_path / "b")
    assert first["researchers.csv"] != _bundle_bytes(tmp_path / "c")["researchers.csv"]


def test_team_overlay_has_the_identity_cases(synth_corpus, tmp_path):
    overlay_teams(synth_corpus, 7, tmp_path / "bundle")
    data = oracle.load(tmp_path / "bundle")
    orcids = [p.orcid for p in data.researchers.values() if p.orcid]
    assert len(orcids) > len(set(orcids)), "some records share an ORCID"
    assert any(p.orcid is None for p in data.researchers.values())
    assert max(len(authors) for _, authors in data.pubs.values()) > 1
    with open(tmp_path / "bundle" / "researchers.csv", encoding="utf-8", newline="") as fh:
        families = [row["names"].split("|")[0].split()[-1]
                    for row in csv.DictReader(fh) if not row["id"].endswith("-alt")]
    assert len(families) > len(set(families)), "some distinct people share a family name"


def test_oracle_agrees_with_the_program_on_a_team_corpus(synth_corpus, tmp_path):
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    overlay_teams(synth_corpus, 7, bundle)
    assert selfcite(["analyze", str(bundle), "--output", str(out),
                     "--self-citation-mode", "any-overlap", "--reference-year", "2024"]) == 0
    data = oracle.load(bundle)
    oracle.check_analysis(out, data, oracle.count(data, "any-overlap"), 2024)


def test_digest_ignores_only_the_manifest_timestamp(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"generated_at": "t1", "reports": 3}), encoding="utf-8")
    before = digest([manifest])
    manifest.write_text(json.dumps({"generated_at": "t2", "reports": 3}), encoding="utf-8")
    assert digest([manifest]) == before
    manifest.write_text(json.dumps({"generated_at": "t2", "reports": 4}), encoding="utf-8")
    assert digest([manifest]) != before
