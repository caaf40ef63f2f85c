import dataclasses
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selfcite.corpus import parse_corpus
from selfcite.metrics import (
    ExternalExceedsAll,
    InvalidParams,
    MetricParams,
    MetricsReport,
    SelfExceedsTotal,
    compute_h_index,
    compute_i10,
    compute_inflation,
    compute_report,
    compute_s_index,
    compute_scai,
    compute_scr,
    report_from_json,
    report_to_json,
    reports_to_json_text,
)

from conftest import DATA


def h_oracle(counts):
    # quadratic reference: largest h with at least h papers cited >= h times
    for h in range(len(counts), -1, -1):
        if sum(1 for c in counts if c >= h) >= h:
            return h
    return 0


# ---------------------------------------------------------------------------
# h-index, i10, s-index
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts,expected",
    [
        ([], 0),
        ([0], 0),
        ([1], 1),
        ([10, 8, 5, 4, 3], 4),
        ([25, 8, 5, 3], 3),
        ([4, 4, 4, 4], 4),
        ([100], 1),
        ([1, 1, 1, 1, 1], 1),
        ([9, 9, 9, 9, 9, 9, 9, 9, 9], 9),
    ],
)
def test_h_index_examples(counts, expected):
    assert compute_h_index(counts) == expected
    assert h_oracle(counts) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=50))
def test_h_index_matches_oracle(counts):
    assert compute_h_index(counts) == h_oracle(counts)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=50))
def test_h_index_order_invariant(counts):
    assert compute_h_index(counts) == compute_h_index(sorted(counts))


def test_i10():
    assert compute_i10([]) == 0
    assert compute_i10([9, 10, 11, 10]) == 3
    assert compute_i10([100, 0]) == 1


def test_s_index_is_h_over_self_counts():
    assert compute_s_index([3, 2, 2, 1]) == 2
    assert compute_s_index([0, 0]) == 0


# ---------------------------------------------------------------------------
# SCR
# ---------------------------------------------------------------------------


def test_scr_basic():
    assert compute_scr(3, 10) == 0.3
    assert compute_scr(0, 10) == 0.0
    assert compute_scr(10, 10) == 1.0


def test_scr_zero_over_zero_is_zero():
    assert compute_scr(0, 0) == 0.0


def test_scr_rejects_negative():
    with pytest.raises(ValueError):
        compute_scr(-1, 5)
    with pytest.raises(ValueError):
        compute_scr(1, -5)


def test_scr_rejects_self_over_total():
    with pytest.raises(SelfExceedsTotal):
        compute_scr(6, 5)


# ---------------------------------------------------------------------------
# SCAI
# ---------------------------------------------------------------------------


def test_scai_at_or_below_threshold_is_exactly_h():
    assert compute_scai(20, 0.10) == 20.0
    assert compute_scai(20, 0.0) == 20.0
    assert compute_scai(7, 0.09999) == 7.0


def test_scai_above_threshold():
    # 20 - 0.5 * 0.1^1.5 * 20
    assert compute_scai(20, 0.20) == pytest.approx(19.683772233983162, abs=1e-12)


def test_scai_zero_h():
    assert compute_scai(0, 0.9) == 0.0


def test_scai_clamped_at_zero():
    params = MetricParams(alpha=5.0, beta=0.0, gamma=1.0)
    assert compute_scai(10, 1.0, params) == 0.0


def test_scai_rejects_out_of_range_scr():
    with pytest.raises(ValueError):
        compute_scai(10, 1.5)
    with pytest.raises(ValueError):
        compute_scai(10, -0.1)


def test_scai_custom_params():
    params = MetricParams(alpha=1.0, beta=0.2, gamma=2.0)
    assert compute_scai(10, 0.5, params) == pytest.approx(10 - 0.09 * 10, abs=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha": -0.1},
        {"beta": -0.01},
        {"beta": 1.01},
        {"gamma": 0.5},
        {"alpha": float("inf")},
        {"gamma": float("inf")},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(InvalidParams):
        MetricParams(**kwargs)


scr_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
h_values = st.integers(min_value=0, max_value=200)


@settings(max_examples=200, deadline=None)
@given(h=h_values, scr=scr_values)
def test_scai_bounds(h, scr):
    scai = compute_scai(h, scr)
    assert 0.0 <= scai <= h or h == 0


@settings(max_examples=200, deadline=None)
@given(h=h_values, scr=scr_values)
def test_scai_proportional_to_h(h, scr):
    # the penalty scales linearly with h, so scai(h)/h is a constant factor
    assert abs(compute_scai(h, scr) - h * compute_scai(1, scr)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(h=h_values, a=scr_values, b=scr_values)
def test_scai_monotone_nonincreasing_in_scr(h, a, b):
    lo, hi = min(a, b), max(a, b)
    assert compute_scai(h, hi) <= compute_scai(h, lo) + 1e-12


@settings(max_examples=200, deadline=None)
@given(h1=h_values, h2=h_values, scr=scr_values)
def test_scai_monotone_in_h(h1, h2, scr):
    lo, hi = min(h1, h2), max(h1, h2)
    assert compute_scai(hi, scr) >= compute_scai(lo, scr) - 1e-12


# ---------------------------------------------------------------------------
# inflation
# ---------------------------------------------------------------------------


def test_inflation_examples():
    assert compute_inflation(12, 10) == pytest.approx(0.2)
    assert compute_inflation(10, 10) == 0.0


def test_inflation_none_without_baseline():
    assert compute_inflation(5, 0) is None
    assert compute_inflation(0, 0) is None


def test_inflation_rejects_external_above_all():
    with pytest.raises(ExternalExceedsAll):
        compute_inflation(5, 6)


def test_inflation_rejects_negative():
    with pytest.raises(ValueError):
        compute_inflation(-1, 0)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------


def test_report_matches_golden(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    report = compute_report(corpus, "M")
    with open(DATA / "researcher_mid_report.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert report_to_json(report) == golden


def test_report_two_papers(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    report = compute_report(corpus, "A")
    assert report.h_index == 1
    assert report.h_index_external == 0
    assert report.scr == 1.0
    assert report.scai == pytest.approx(0.5730925158772688, abs=1e-12)
    assert report.s_index == 1
    assert report.inflation is None
    assert report.yearly_scr == {2012: 1.0}


def test_report_json_roundtrip(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    report = compute_report(corpus, "M")
    assert report_from_json(report_to_json(report)) == report


def test_report_json_field_order(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    record = report_to_json(compute_report(corpus, "A"))
    assert tuple(record.keys()) == (
        "researcher_id",
        "h_index",
        "h_index_external",
        "i10_index",
        "total_citations",
        "self_citations",
        "scr",
        "scai",
        "s_index",
        "inflation",
        "yearly_scr",
    )


def test_report_custom_params_change_scai_only(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    base = compute_report(corpus, "M")
    harsh = compute_report(corpus, "M", MetricParams(alpha=1.0))
    assert harsh.scai < base.scai
    assert (harsh.h_index, harsh.scr, harsh.s_index) == (
        base.h_index,
        base.scr,
        base.s_index,
    )


# ---------------------------------------------------------------------------
# reports.json writer, against json.dumps
# ---------------------------------------------------------------------------

report_ids = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800", "\udfff"]),
        st.characters(),
    ),
)
report_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1 / 3, math.nan, math.inf, -math.inf]),
    st.floats(),
)
reports = st.builds(
    MetricsReport,
    researcher_id=report_ids,
    h_index=st.integers(min_value=0),
    h_index_external=st.integers(min_value=0),
    i10_index=st.integers(min_value=0),
    total_citations=st.integers(min_value=0),
    self_citations=st.integers(min_value=0),
    scr=report_floats,
    scai=report_floats,
    s_index=st.integers(min_value=0),
    inflation=st.one_of(st.none(), report_floats),
    # insertion order is the draw order, so years arrive unsorted
    yearly_scr=st.lists(st.tuples(st.integers(1500, 2100), report_floats)).map(dict),
)
EDGE_CASE_REPORT = MetricsReport(
    researcher_id='q"b\\c\x01\u2028\U0001f600\ud800', h_index=3, h_index_external=2,
    i10_index=0, total_citations=9, self_citations=4, scr=1 / 3, scai=-0.0,
    s_index=1, inflation=None, yearly_scr={2012: math.nan, 2001: math.inf, 2005: 5e-324},
)


@settings(max_examples=300, deadline=None)
@given(reports=st.lists(reports, max_size=4))
@example(reports=[])
@example(reports=[EDGE_CASE_REPORT, dataclasses.replace(EDGE_CASE_REPORT, yearly_scr={})])
def test_reports_text_matches_json_dumps(reports):
    expected = json.dumps([report_to_json(r) for r in reports], indent=2, ensure_ascii=False)
    assert reports_to_json_text(reports) == expected + "\n"
