import random

import pytest

from selfcite import cohort
from selfcite.cohort import (
    CareerStage,
    CohortKey,
    Dimension,
    EmptyGroup,
    EmptyInput,
    OutOfRange,
    ZeroGap,
    career_stage,
    cohort_aggregate,
    estimate_misallocation,
    gap_reduction,
    group_value,
    summaries_to_csv,
)
from selfcite.corpus import Discipline, Gender, UnknownResearcher
from selfcite.metrics import MetricParams, MetricsReport, compute_scai

from conftest import make_corpus, simple_pub, simple_researcher


def report(rid, h=5, scr=0.1, scai=None, inflation=0.0, **kwargs):
    kwargs.setdefault("h_index_external", h)
    kwargs.setdefault("i10_index", 0)
    kwargs.setdefault("total_citations", 50)
    kwargs.setdefault("self_citations", 5)
    kwargs.setdefault("s_index", 1)
    return MetricsReport(
        researcher_id=rid,
        h_index=h,
        scr=scr,
        scai=compute_scai(h, scr) if scai is None else scai,
        inflation=inflation,
        **kwargs,
    )


def one_pub_corpus(researchers, years=None):
    years = years or {}
    pubs = [
        simple_pub(f"{r.researcher_id}-P", years.get(r.researcher_id, 2015),
                   [r.researcher_id])
        for r in researchers
    ]
    return make_corpus(researchers, pubs, [])


# ---------------------------------------------------------------------------
# career stage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "years_since,expected",
    [
        (0, CareerStage.EARLY),
        (9, CareerStage.EARLY),
        (10, CareerStage.MID),
        (20, CareerStage.MID),
        (21, CareerStage.SENIOR),
        (40, CareerStage.SENIOR),
    ],
)
def test_career_stage_boundaries(years_since, expected):
    assert career_stage(2024 - years_since, 2024) is expected


def test_stage_group_values():
    researchers = [
        simple_researcher("E", first_pub_year=2020),
        simple_researcher("M", first_pub_year=2010),
        simple_researcher("S", first_pub_year=1995),
    ]
    corpus = one_pub_corpus(
        researchers, years={"E": 2020, "M": 2010, "S": 1995}
    )
    assert group_value(corpus, "E", Dimension.CAREER_STAGE, 2024) is CareerStage.EARLY
    assert group_value(corpus, "M", Dimension.CAREER_STAGE, 2024) is CareerStage.MID
    assert group_value(corpus, "S", Dimension.CAREER_STAGE, 2024) is CareerStage.SENIOR


def test_gender_group_value_unreported_is_none():
    corpus = one_pub_corpus([
        simple_researcher("A", gender=Gender.FEMALE),
        simple_researcher("B", gender=Gender.UNREPORTED),
    ])
    assert group_value(corpus, "A", Dimension.GENDER) is Gender.FEMALE
    assert group_value(corpus, "B", Dimension.GENDER) is None


def test_career_stage_never_reads_the_clock(monkeypatch):
    class Clock:
        @staticmethod
        def today():
            raise AssertionError("career stage read the clock")

    monkeypatch.setattr(cohort, "date", Clock, raising=False)
    corpus = one_pub_corpus([
        simple_researcher("A", first_pub_year=2000, gender=Gender.MALE),
        simple_researcher("B"),  # no first year: derived from B-P
    ])
    reports = [report("A"), report("B")]
    for rid in ("A", "B"):
        with pytest.raises(ValueError, match="reference_year"):
            group_value(corpus, rid, Dimension.CAREER_STAGE)
    with pytest.raises(ValueError, match="reference_year"):
        cohort_aggregate(reports, corpus, Dimension.CAREER_STAGE)
    assert group_value(corpus, "B", Dimension.CAREER_STAGE, 2024) is CareerStage.EARLY
    assert group_value(corpus, "A", Dimension.DISCIPLINE) is Discipline.COMPUTER_SCIENCE
    assert group_value(corpus, "A", Dimension.GENDER) is Gender.MALE
    for dimension in (Dimension.DISCIPLINE, Dimension.GENDER):
        assert sum(s.n for s in cohort_aggregate(reports, corpus, dimension)) == 2


def test_aggregate_rejects_a_report_of_an_unknown_researcher():
    corpus = one_pub_corpus([simple_researcher("A")])
    for dimension in Dimension:
        with pytest.raises(UnknownResearcher):
            cohort_aggregate([report("A"), report("ghost")], corpus, dimension, 2024)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_single_researcher_summary():
    corpus = one_pub_corpus([simple_researcher("A")])
    [summary] = cohort_aggregate(
        [report("A", h=4, scr=0.25, inflation=0.5)], corpus, Dimension.DISCIPLINE
    )
    assert summary.key.value is Discipline.COMPUTER_SCIENCE
    assert summary.n == 1
    assert summary.mean_scr == 0.25
    assert summary.mean_inflation == 0.5
    assert summary.mean_h == 4.0


def test_group_sizes_sum_to_report_count():
    researchers = [
        simple_researcher(f"R{i}", gender=g)
        for i, g in enumerate(
            [Gender.MALE, Gender.MALE, Gender.FEMALE, Gender.UNREPORTED]
        )
    ]
    corpus = one_pub_corpus(researchers)
    reports = [report(r.researcher_id) for r in researchers]
    summaries = cohort_aggregate(reports, corpus, Dimension.GENDER)
    assert sum(s.n for s in summaries) == len(reports)
    assert [s.key.label() for s in summaries] == ["Male", "Female", "Unreported"]


def test_unreported_bucket_sorts_last_and_counts_exclusions():
    researchers = [
        simple_researcher("A", gender=Gender.FEMALE),
        simple_researcher("B", gender=Gender.UNREPORTED),
    ]
    corpus = one_pub_corpus(researchers)
    reports = [report("A", inflation=0.2), report("B", inflation=None)]
    summaries = cohort_aggregate(reports, corpus, Dimension.GENDER)
    assert summaries[-1].key.label() == "Unreported"
    assert summaries[-1].mean_inflation is None
    assert summaries[-1].inflation_excluded == 1
    assert summaries[0].inflation_excluded == 0


def test_aggregate_permutation_invariant():
    researchers = [
        simple_researcher(f"R{i}", discipline=d)
        for i, d in enumerate(
            [Discipline.ENGINEERING, Discipline.HUMANITIES] * 3
        )
    ]
    corpus = one_pub_corpus(researchers)
    reports = [
        report(r.researcher_id, h=i, scr=0.02 * i)
        for i, r in enumerate(researchers, start=1)
    ]
    shuffled = reports[:]
    random.Random(3).shuffle(shuffled)
    assert cohort_aggregate(reports, corpus, Dimension.DISCIPLINE) == \
        cohort_aggregate(shuffled, corpus, Dimension.DISCIPLINE)


def test_discipline_groups_follow_canonical_order():
    researchers = [
        simple_researcher("A", discipline=Discipline.HUMANITIES),
        simple_researcher("B", discipline=Discipline.COMPUTER_SCIENCE),
    ]
    corpus = one_pub_corpus(researchers)
    summaries = cohort_aggregate(
        [report("A"), report("B")], corpus, Dimension.DISCIPLINE
    )
    assert [s.key.value for s in summaries] == [
        Discipline.COMPUTER_SCIENCE,
        Discipline.HUMANITIES,
    ]


def test_empty_input_rejected():
    corpus = one_pub_corpus([simple_researcher("A")])
    with pytest.raises(EmptyInput):
        cohort_aggregate([], corpus, Dimension.GENDER)


# ---------------------------------------------------------------------------
# gap reduction
# ---------------------------------------------------------------------------

MALE_KEY = CohortKey(Dimension.GENDER, Gender.MALE)
FEMALE_KEY = CohortKey(Dimension.GENDER, Gender.FEMALE)


def gender_corpus_and_reports(spec):
    """spec: list of (rid, gender, h, scr)."""
    researchers = [simple_researcher(rid, gender=g) for rid, g, _, _ in spec]
    corpus = one_pub_corpus(researchers)
    reports = [report(rid, h=h, scr=scr) for rid, _, h, scr in spec]
    return corpus, reports


def test_gap_reduction_hand_case():
    corpus, reports = gender_corpus_and_reports([
        ("M1", Gender.MALE, 20, 0.21),
        ("F1", Gender.FEMALE, 18, 0.12),
    ])
    gap = gap_reduction(reports, corpus, MALE_KEY, FEMALE_KEY)
    assert gap.gap_h == 2.0
    expected_scai_gap = compute_scai(20, 0.21) - compute_scai(18, 0.12)
    assert gap.gap_scai == pytest.approx(expected_scai_gap, abs=1e-12)
    assert gap.reduction == pytest.approx(0.16968644140819045, abs=1e-12)
    assert gap.reduction == pytest.approx(0.170, abs=1e-3)


def test_gap_antisymmetry():
    corpus, reports = gender_corpus_and_reports([
        ("M1", Gender.MALE, 20, 0.21),
        ("M2", Gender.MALE, 10, 0.30),
        ("F1", Gender.FEMALE, 18, 0.12),
    ])
    ab = gap_reduction(reports, corpus, MALE_KEY, FEMALE_KEY)
    ba = gap_reduction(reports, corpus, FEMALE_KEY, MALE_KEY)
    assert ba.gap_h == pytest.approx(-ab.gap_h)
    assert ba.gap_scai == pytest.approx(-ab.gap_scai)
    assert ba.reduction == pytest.approx(ab.reduction)


def test_gap_reduction_can_be_negative():
    # the *lower-h* group self-cites more, so adjustment widens the gap
    corpus, reports = gender_corpus_and_reports([
        ("M1", Gender.MALE, 20, 0.05),
        ("F1", Gender.FEMALE, 18, 0.40),
    ])
    gap = gap_reduction(reports, corpus, MALE_KEY, FEMALE_KEY)
    assert gap.gap_scai > gap.gap_h
    assert gap.reduction < 0


def test_zero_gap_rejected():
    corpus, reports = gender_corpus_and_reports([
        ("M1", Gender.MALE, 15, 0.2),
        ("F1", Gender.FEMALE, 15, 0.3),
    ])
    with pytest.raises(ZeroGap):
        gap_reduction(reports, corpus, MALE_KEY, FEMALE_KEY)


def test_empty_group_rejected():
    corpus, reports = gender_corpus_and_reports([
        ("M1", Gender.MALE, 15, 0.2),
    ])
    with pytest.raises(EmptyGroup) as excinfo:
        gap_reduction(reports, corpus, MALE_KEY, FEMALE_KEY)
    assert excinfo.value.key == FEMALE_KEY


# ---------------------------------------------------------------------------
# misallocation
# ---------------------------------------------------------------------------


def test_misallocation_headline_value():
    assert estimate_misallocation(100e9, 0.5, 0.1) == 5.0e9


def test_misallocation_zero_cases():
    assert estimate_misallocation(0.0, 0.5, 0.1) == 0.0
    assert estimate_misallocation(100.0, 0.0, 0.1) == 0.0
    assert estimate_misallocation(100.0, 0.5, 0.0) == 0.0


def test_misallocation_identity_case():
    assert estimate_misallocation(250.0, 1.0, 1.0) == 250.0


@pytest.mark.parametrize(
    "args",
    [(-1.0, 0.5, 0.1), (100.0, 1.5, 0.1), (100.0, 0.5, -0.2), (100.0, 2.0, 2.0)],
)
def test_misallocation_out_of_range(args):
    with pytest.raises(OutOfRange):
        estimate_misallocation(*args)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_summaries_to_csv_layout():
    researchers = [
        simple_researcher("A", gender=Gender.FEMALE),
        simple_researcher("B", gender=Gender.UNREPORTED),
    ]
    corpus = one_pub_corpus(researchers)
    reports = [report("A", scr=0.1234567, inflation=0.25),
               report("B", inflation=None)]
    text = summaries_to_csv(cohort_aggregate(reports, corpus, Dimension.GENDER))
    lines = text.splitlines()
    assert lines[0] == "group,avg_scr,mean_inflation_pct,n"
    assert lines[1] == "Female,0.1235,25.00,1"
    assert lines[2] == "Unreported,0.1000,,1"
    assert text.endswith("\n")
