"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Every test prints exactly one ``criterion N: PASS`` or ``criterion N: FAIL``
line straight to the terminal (bypassing capture), then fails normally on
any violated assertion. Criteria with runtime promises enforce them with a
monotonic clock. Oracles here are written independently of the package
internals: direct formula evaluation, quadratic defining-predicate scans,
and author-set membership checks.
"""

import contextlib
import json
import random
import time

import pytest

from selfcite.cli import main
from selfcite.cohort import CohortKey, Dimension, estimate_misallocation, gap_reduction
from selfcite.corpus import (
    CitationEdge,
    Corpus,
    Discipline,
    Gender,
    Provenance,
    Publication,
    Researcher,
    serialize_corpus,
)
from selfcite.identity import count_citations
from selfcite.metrics import (
    MetricParams,
    MetricsReport,
    compute_h_index,
    compute_report,
    compute_scai,
)
from selfcite.synth import apply_compounding, generate_synthetic_corpus, spec_from_json

from conftest import DATA


@contextlib.contextmanager
def criterion(number, capsys):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {number}: PASS")


# ---------------------------------------------------------------------------
# 1. adjusted-index formula against a directly written evaluator
# ---------------------------------------------------------------------------


def direct_adjusted_index(h, scr, alpha, beta, gamma):
    if scr <= beta:
        return float(h)
    return max(0.0, h - alpha * (scr - beta) ** gamma * h)


def test_criterion_01_formula_grid(capsys):
    with criterion(1, capsys):
        start = time.monotonic()
        h_values = [1, 6, 11, 16, 21, 26, 31, 36, 41, 46]
        scr_values = [i / 9 for i in range(10)]
        alpha_values = [0.1, 0.325, 0.55, 0.775, 1.0]
        checked = 0
        for h in h_values:
            for scr in scr_values:
                for alpha in alpha_values:
                    params = MetricParams(alpha=alpha, beta=0.1, gamma=1.5)
                    expected = direct_adjusted_index(h, scr, alpha, 0.1, 1.5)
                    assert abs(compute_scai(h, scr, params) - expected) <= 1e-12
                    checked += 1
        assert checked == 10 * 10 * 5
        assert time.monotonic() - start < 1.0


# ---------------------------------------------------------------------------
# 2. spot values
# ---------------------------------------------------------------------------


def test_criterion_02_spot_values(capsys):
    with criterion(2, capsys):
        assert compute_scai(20, 0.10) == 20.0
        assert abs(compute_scai(20, 0.20) - 19.6838) <= 1e-4
        reduction_pct = (30 - compute_scai(30, 0.73)) / 30 * 100.0
        assert abs(reduction_pct - 25.0) <= 0.5


# ---------------------------------------------------------------------------
# 3. h-index against the quadratic defining predicate
# ---------------------------------------------------------------------------


def test_criterion_03_h_index_brute_force(capsys):
    with criterion(3, capsys):
        start = time.monotonic()
        rng = random.Random(90125)
        for _ in range(1000):
            counts = [
                rng.randint(0, 200) for _ in range(rng.randint(0, 50))
            ]
            best = 0
            for h in range(len(counts), 0, -1):
                if sum(1 for c in counts if c >= h) >= h:
                    best = h
                    break
            assert compute_h_index(counts) == best
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 4. partition identity and classification on random corpora
# ---------------------------------------------------------------------------


def random_corpus(rng):
    n_researchers = rng.randint(1, 6)
    researchers = [
        Researcher(
            researcher_id=f"R{i}",
            name_variants=(f"Given{i} Family{i}",),
            discipline=Discipline.OTHER,
        )
        for i in range(n_researchers)
    ]
    rids = [r.researcher_id for r in researchers]
    n_pubs = rng.randint(1, 30)
    publications = [
        Publication(
            pub_id=f"P{i}",
            title=f"T{i}",
            year=rng.randint(1990, 2024),
            author_ids=tuple(rng.sample(rids, rng.randint(1, min(3, len(rids))))),
            discipline=Discipline.OTHER,
        )
        for i in range(n_pubs)
    ]
    pairs = [
        (a.pub_id, b.pub_id)
        for a in publications
        for b in publications
        if a.pub_id != b.pub_id
    ]
    chosen = rng.sample(pairs, min(len(pairs), rng.randint(0, 40)))
    edges = [CitationEdge(citing, cited) for citing, cited in sorted(chosen)]
    return Corpus.from_parts(
        researchers, publications, edges, Provenance("acceptance", "test/1")
    )


def test_criterion_04_partition_and_classification(capsys):
    with criterion(4, capsys):
        start = time.monotonic()
        rng = random.Random(5150)
        for _ in range(200):
            corpus = random_corpus(rng)
            for rid in corpus.researchers:
                counts = count_citations(corpus, rid)
                for pid, tally in counts.per_publication.items():
                    assert tally.self + tally.external == tally.total
                    members = sum(
                        rid in corpus.publications[edge.citing_id].author_ids
                        for edge in corpus.edges
                        if edge.cited_id == pid
                    )
                    assert tally.self == members
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 5. monotonicity, threshold identity, bounds, proportionality
# ---------------------------------------------------------------------------


def test_criterion_05_property_suite(capsys):
    with criterion(5, capsys):
        start = time.monotonic()
        rng = random.Random(2112)
        for _ in range(10_000):
            h = rng.randint(0, 100)
            params = MetricParams(
                alpha=rng.uniform(0.0, 2.0),
                beta=rng.uniform(0.0, 1.0),
                gamma=rng.uniform(1.0, 3.0),
            )
            scr_a = rng.random()
            scr_b = rng.random()
            lo, hi = min(scr_a, scr_b), max(scr_a, scr_b)

            # monotone non-increasing in the ratio
            assert compute_scai(h, hi, params) <= compute_scai(h, lo, params) + 1e-12
            # identity at or below the threshold
            at_threshold = params.beta * rng.random()
            assert compute_scai(h, at_threshold, params) == float(h)
            # bounded by [0, h]
            value = compute_scai(h, scr_a, params)
            assert 0.0 <= value <= h or h == 0
            # linear scaling in h
            k = rng.randint(1, 5)
            assert abs(compute_scai(k * h, scr_a, params) / k - value) <= 1e-9
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 6. six-discipline targets at desk scale
# ---------------------------------------------------------------------------


def test_criterion_06_discipline_targets(capsys):
    with criterion(6, capsys):
        start = time.monotonic()
        spec = spec_from_json(
            json.loads((DATA / "six_disciplines_spec.json").read_text(encoding="utf-8"))
        )
        corpus = generate_synthetic_corpus(spec)

        realized_scr = {}
        realized_inflation = {}
        for gi, group in enumerate(spec.groups):
            ratios = []
            inflations = []
            for ri in range(group.n_researchers):
                report = compute_report(corpus, f"R{gi}-{ri:04d}")
                ratios.append(report.scr)
                if report.inflation is not None:
                    inflations.append(report.inflation)
            realized_scr[group.discipline] = sum(ratios) / len(ratios)
            realized_inflation[group.discipline] = sum(inflations) / len(inflations)
            assert abs(realized_scr[group.discipline] - group.target_mean_scr) <= 0.02

        by_scr = sorted(realized_scr, key=realized_scr.get, reverse=True)
        by_inflation = sorted(
            realized_inflation, key=realized_inflation.get, reverse=True
        )
        assert by_scr == by_inflation
        assert by_inflation[0] is Discipline.ENGINEERING
        assert by_inflation[-1] is Discipline.HUMANITIES
        # strict ordering: no ties anywhere
        ordered = [realized_inflation[d] for d in by_inflation]
        assert all(a > b for a, b in zip(ordered, ordered[1:]))
        assert time.monotonic() - start < 30.0


# ---------------------------------------------------------------------------
# 7. between-group gap direction
# ---------------------------------------------------------------------------


def test_criterion_07_gap_direction(capsys):
    from selfcite.synth import GeneratorSpec, GroupSpec, YearRange

    with criterion(7, capsys):
        start = time.monotonic()
        spec = GeneratorSpec(
            seed=1234,
            groups=(
                GroupSpec(
                    Discipline.LIFE_SCIENCES, 60, 0.21, 12.0, gender=Gender.MALE
                ),
                GroupSpec(
                    Discipline.LIFE_SCIENCES, 60, 0.12, 12.0, gender=Gender.FEMALE
                ),
            ),
            years=YearRange(1985, 2024),
            compounding_rate=0.0,
        )
        corpus = generate_synthetic_corpus(spec)
        reports = [
            compute_report(corpus, rid) for rid in sorted(corpus.researchers)
        ]
        gap = gap_reduction(
            reports,
            corpus,
            CohortKey(Dimension.GENDER, Gender.MALE),
            CohortKey(Dimension.GENDER, Gender.FEMALE),
        )
        # equal target h, higher male self-citation ratio: the adjustment
        # must strictly shrink the male-minus-female difference. The realized
        # baseline gap fluctuates around zero by construction, so the stable
        # directional statement is the absolute shrinkage, not the ratio.
        assert gap.gap_h - gap.gap_scai > 0.0

        # hand-derived two-researcher case
        pair = [
            Researcher(
                researcher_id="HM",
                name_variants=("Hand M",),
                gender=Gender.MALE,
                discipline=Discipline.OTHER,
            ),
            Researcher(
                researcher_id="HF",
                name_variants=("Hand F",),
                gender=Gender.FEMALE,
                discipline=Discipline.OTHER,
            ),
        ]
        pubs = [
            Publication("HM-P", "t", 2000, ("HM",), Discipline.OTHER),
            Publication("HF-P", "t", 2000, ("HF",), Discipline.OTHER),
        ]
        hand_corpus = Corpus.from_parts(
            pair, pubs, [], Provenance("hand", "test/1")
        )
        def hand_report(rid, h, scr):
            return MetricsReport(
                researcher_id=rid,
                h_index=h,
                h_index_external=h,
                i10_index=0,
                total_citations=100,
                self_citations=int(scr * 100),
                scr=scr,
                scai=compute_scai(h, scr),
                s_index=0,
                inflation=0.0,
            )

        hand_reports = [hand_report("HM", 20, 0.21), hand_report("HF", 18, 0.12)]
        hand = gap_reduction(
            hand_reports,
            hand_corpus,
            CohortKey(Dimension.GENDER, Gender.MALE),
            CohortKey(Dimension.GENDER, Gender.FEMALE),
        )
        assert abs(hand.reduction - 0.170) <= 1e-3
        assert time.monotonic() - start < 10.0


# ---------------------------------------------------------------------------
# 8. compounding distribution
# ---------------------------------------------------------------------------


def chain_corpus_200_self_edges():
    researcher = Researcher(
        researcher_id="S",
        name_variants=("Solo Author",),
        discipline=Discipline.OTHER,
    )
    pubs = [
        Publication(f"P{i:03d}", f"t{i}", 2005, ("S",), Discipline.OTHER)
        for i in range(201)
    ]
    edges = [CitationEdge(f"P{i + 1:03d}", f"P{i:03d}") for i in range(200)]
    return Corpus.from_parts(
        [researcher], pubs, edges, Provenance("chain", "test/1")
    )


def test_criterion_08_compounding_band(capsys):
    with criterion(8, capsys):
        start = time.monotonic()
        corpus = chain_corpus_200_self_edges()
        base_edges = len(corpus.edges)
        in_band = 0
        for seed in range(100):
            grown = apply_compounding(corpus, 3.0, seed=seed)
            added = len(grown.edges) - base_edges
            if 600 - 73 <= added <= 600 + 73:
                in_band += 1
        assert in_band >= 99

        untouched = apply_compounding(corpus, 0.0)
        assert serialize_corpus(untouched) == serialize_corpus(corpus)
        assert time.monotonic() - start < 20.0


# ---------------------------------------------------------------------------
# 9. end-to-end golden run
# ---------------------------------------------------------------------------


def test_criterion_09_golden_run(capsys, tmp_path):
    with criterion(9, capsys):
        start = time.monotonic()
        out = tmp_path / "analysis"
        code = main(
            [
                "analyze",
                str(DATA / "e2e_corpus.jsonl"),
                "--output",
                str(out),
                "--reference-year",
                "2024",
            ]
        )
        assert code == 0
        golden = DATA / "golden"
        for name in (
            "reports.json",
            "cohort_discipline.csv",
            "cohort_gender.csv",
            "cohort_career_stage.csv",
        ):
            assert (out / name).read_bytes() == (golden / name).read_bytes(), name

        hist_out = tmp_path / "hist"
        assert (
            main(
                ["histogram", str(out / "reports.json"), "--output", str(hist_out)]
            )
            == 0
        )
        reports = json.loads((out / "reports.json").read_text(encoding="utf-8"))
        width = 25.0 / 5
        recount = [0] * 5
        for record in reports:
            if record["h_index"] > 0:
                pct = (
                    (record["h_index"] - record["scai"]) / record["h_index"] * 100.0
                )
                recount[min(int(pct / width), 4)] += 1
        lines = (
            (hist_out / "histogram.csv").read_text(encoding="utf-8").splitlines()
        )
        emitted = [int(line.split(",")[2]) for line in lines[1:]]
        assert emitted == recount
        assert time.monotonic() - start < 5.0


# ---------------------------------------------------------------------------
# 10. funding scenario
# ---------------------------------------------------------------------------


def test_criterion_10_funding_scenario(capsys):
    with criterion(10, capsys):
        assert estimate_misallocation(100e9, 0.5, 0.1) == 5.0e9
