import pytest
from hypothesis import given, settings

from selfcite.corpus import (
    CitationEdge,
    Researcher,
    UnknownResearcher,
    parse_corpus,
    person_key,
)
from selfcite.identity import SelfCitationMode, Tally, count_citations
from selfcite.metrics import (
    MetricParams,
    MetricsReport,
    compute_h_index,
    compute_i10,
    compute_inflation,
    compute_report,
    compute_s_index,
    compute_scai,
    compute_scr,
    report_from_counts,
)

from conftest import make_corpus, simple_pub, simple_researcher, small_corpora
from reference import is_self_citation, one_person


# ---------------------------------------------------------------------------
# person_key: names never decide
# ---------------------------------------------------------------------------


def rec(rid, names, orcid=None):
    return Researcher(researcher_id=rid, name_variants=tuple(names), orcid=orcid)


def test_same_id_is_id_match():
    a = rec("R1", ("Alpha One",))
    b = rec("R1", ("Totally Different",))
    assert person_key(a) == person_key(b)


def test_different_ids_same_orcid_is_orcid_match():
    a = rec("R1", ("John Smith",), orcid="0000-1")
    b = rec("R2", ("J. Smith",), orcid="0000-1")
    assert person_key(a) == person_key(b)


def test_different_ids_never_name_match():
    a = rec("R1", ("John Smith",))
    b = rec("R2", ("John Smith",))
    assert person_key(a) != person_key(b)


def test_orcid_conflict_overrides_equal_names():
    a = rec("R1", ("John Smith",), orcid="0000-1")
    b = rec("R2", ("John Smith",), orcid="0000-2")
    assert person_key(a) != person_key(b)


# ---------------------------------------------------------------------------
# count_citations
# ---------------------------------------------------------------------------


def test_count_citations_no_incoming():
    corpus = make_corpus(
        [simple_researcher("R")], [simple_pub("P", 2000, ["R"])], []
    )
    counts = count_citations(corpus, "R")
    assert counts.per_publication == {"P": Tally(total=0, self=0)}
    assert counts.per_year == {}
    assert counts.total == 0 and counts.self_total == 0


def test_count_citations_two_papers(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    counts = count_citations(corpus, "A")
    assert counts.per_publication["P1"] == Tally(total=1, self=1)
    assert counts.per_publication["P2"] == Tally(total=0, self=0)


def test_count_citations_researcher_mid(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    counts = count_citations(corpus, "M")
    expected = {
        "M1": Tally(total=5, self=2),
        "M2": Tally(total=3, self=1),
        "M3": Tally(total=3, self=1),
        "M4": Tally(total=1, self=0),
    }
    assert counts.per_publication == expected
    assert counts.total == 12 and counts.self_total == 4
    assert counts.per_year == {
        2012: Tally(1, 1),
        2013: Tally(2, 0),
        2015: Tally(2, 2),
        2016: Tally(2, 0),
        2018: Tally(1, 1),
        2019: Tally(4, 0),
    }
    for tally in counts.per_publication.values():
        assert tally.external == tally.total - tally.self


def test_count_citations_ten_edges_three_self():
    corpus_pairs = [(3, 10)]
    from conftest import corpus_with_ratios

    corpus = corpus_with_ratios(corpus_pairs)
    counts = count_citations(corpus, "R000")
    tally = counts.per_publication["R000-P0"]
    assert (tally.total, tally.self, tally.external) == (10, 3, 7)


def test_classify_two_papers_fixture(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    for mode in SelfCitationMode:
        counts = count_citations(corpus, "A", mode)
        assert counts.focal_researcher == "A"
        assert counts.per_publication["P1"] == Tally(total=1, self=1)


def test_classify_external(researcher_mid_path):
    # dropping X1P1's citation of M's paper takes one from its total and
    # none from its self count
    corpus = parse_corpus(researcher_mid_path)
    edge = next(e for e in corpus.edges if e.citing_id == "X1P1")
    rest = [e for e in corpus.edges if e != edge]
    without = make_corpus(corpus.researchers.values(), corpus.publications.values(), rest)
    before = count_citations(corpus, "M").per_publication[edge.cited_id]
    after = count_citations(without, "M").per_publication[edge.cited_id]
    assert (before.total - after.total, before.self - after.self) == (1, 0)


def test_classify_orcid_duplicate_record():
    # same person split across two records sharing an ORCID
    j1 = simple_researcher("J1", name_variants=("John Smith",), orcid="0000-7")
    j2 = simple_researcher("J2", name_variants=("J. Smith",), orcid="0000-7")
    cited = simple_pub("P1", 2010, ["J1"])
    citing = simple_pub("P2", 2014, ["J2"])
    corpus = make_corpus([j1, j2], [cited, citing], [CitationEdge("P2", "P1")])
    for mode in SelfCitationMode:
        assert count_citations(corpus, "J1", mode).per_publication["P1"] == Tally(1, 1)


def focal_dependence_corpus():
    """A authors both ends; B authors only the cited paper."""
    a, b = simple_researcher("A"), simple_researcher("B")
    cited = simple_pub("P1", 2010, ["A", "B"])
    citing = simple_pub("P2", 2012, ["A"])
    return make_corpus([a, b], [cited, citing], [CitationEdge("P2", "P1")])


def test_focal_dependence_of_classification():
    corpus = focal_dependence_corpus()
    assert count_citations(corpus, "A").self_total == 1
    assert count_citations(corpus, "B").self_total == 0


def test_any_overlap_mode_ignores_focal():
    corpus = focal_dependence_corpus()
    assert count_citations(corpus, "B", SelfCitationMode.ANY_OVERLAP).self_total == 1


def test_count_citations_unknown_researcher(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    with pytest.raises(UnknownResearcher):
        count_citations(corpus, "ghost")


@settings(max_examples=40, deadline=None)
@given(corpus=small_corpora())
def test_partition_identity_property(corpus):
    for rid in corpus.researchers:
        counts = count_citations(corpus, rid)
        for pid, tally in counts.per_publication.items():
            assert tally.self + tally.external == tally.total
            assert tally.total == sum(e.cited_id == pid for e in corpus.edges)
        year_total = sum(t.total for t in counts.per_year.values())
        assert year_total == counts.total


@settings(max_examples=30, deadline=None)
@given(corpus=small_corpora())
def test_classification_matches_membership_oracle(corpus):
    # with researcher ids on every record, self-citation reduces to the focal
    # id being listed on the citing publication
    for rid in corpus.researchers:
        for pid in corpus.publications_by_author.get(rid, ()):
            for edge in (e for e in corpus.edges if e.cited_id == pid):
                oracle = rid in corpus.publications[edge.citing_id].author_ids
                assert is_self_citation(corpus, edge, rid) == oracle


# ---------------------------------------------------------------------------
# person_key: the counting rule, checked against the per-edge reference
# ---------------------------------------------------------------------------


def test_person_key_keeps_orcid_apart_from_ids():
    # R0's ORCID is spelled like R1's id; the reference calls them two people
    r0 = simple_researcher("R0", orcid="R1")
    r1 = simple_researcher("R1")
    assert not one_person(r0, r1)
    assert person_key(r0) != person_key(r1)
    cited = simple_pub("P0", 2010, ["R0"])
    citing = simple_pub("P1", 2012, ["R1"])
    corpus = make_corpus([r0, r1], [cited, citing], [CitationEdge("P1", "P0")])
    for mode in SelfCitationMode:
        assert count_citations(corpus, "R0", mode).self_total == 0


def test_count_citations_shared_orcid_is_self():
    j1 = simple_researcher("J1", orcid="0000-7")
    j2 = simple_researcher("J2", orcid="0000-7")
    b = simple_researcher("B")
    cited = simple_pub("P1", 2010, ["J1", "B"])
    citing = simple_pub("P2", 2014, ["J2"])
    corpus = make_corpus([j1, j2, b], [cited, citing], [CitationEdge("P2", "P1")])
    assert count_citations(corpus, "J1").self_total == 1
    assert count_citations(corpus, "B").self_total == 0
    assert count_citations(corpus, "B", SelfCitationMode.ANY_OVERLAP).self_total == 1


@settings(max_examples=60, deadline=None)
@given(corpus=small_corpora(orcids=True))
def test_person_key_matches_same_person(corpus):
    records = list(corpus.researchers.values())
    for a in records:
        for b in records:
            assert one_person(a, b) == (person_key(a) == person_key(b))


def reference_counts(corpus, focal, mode):
    """Tally edge by edge from the reference classifier, without the indexes."""
    per_publication = {}
    per_year = {}
    authored = sorted(
        pid for pid, pub in corpus.publications.items() if focal in pub.author_ids
    )
    for pid in authored:
        total = self_count = 0
        for edge in corpus.edges:
            if edge.cited_id != pid:
                continue
            is_self = is_self_citation(corpus, edge, focal, mode)
            year = corpus.publications[edge.citing_id].year
            old = per_year.get(year, Tally(0, 0))
            per_year[year] = Tally(old.total + 1, old.self + is_self)
            total += 1
            self_count += is_self
        per_publication[pid] = Tally(total, self_count)
    return per_publication, dict(sorted(per_year.items()))


@settings(max_examples=80, deadline=None)
@given(corpus=small_corpora(orcids=True))
def test_count_citations_matches_per_edge_classification(corpus):
    for rid in corpus.researchers:
        for mode in SelfCitationMode:
            counts = count_citations(corpus, rid, mode)
            per_publication, per_year = reference_counts(corpus, rid, mode)
            assert list(counts.per_publication.items()) == list(per_publication.items())
            assert list(counts.per_year.items()) == list(per_year.items())
            assert counts.focal_researcher == rid


def reference_report(corpus, focal, params, mode):
    """A report from the per-edge tallies, every metric computed in full."""
    per_publication, per_year = reference_counts(corpus, focal, mode)
    totals = [t.total for t in per_publication.values()]
    selves = [t.self for t in per_publication.values()]
    h = compute_h_index(totals)
    h_external = compute_h_index([t.external for t in per_publication.values()])
    total, self_total = sum(totals), sum(selves)
    scr = compute_scr(self_total, total)
    return MetricsReport(
        researcher_id=focal,
        h_index=h,
        h_index_external=h_external,
        i10_index=compute_i10(totals),
        total_citations=total,
        self_citations=self_total,
        scr=scr,
        scai=compute_scai(h, scr, params),
        s_index=compute_s_index(selves),
        inflation=compute_inflation(h, h_external),
        yearly_scr={year: compute_scr(t.self, t.total) for year, t in per_year.items()},
    )


@settings(max_examples=80, deadline=None)
@given(corpus=small_corpora(orcids=True))
def test_reports_match_per_edge_reference(corpus):
    """compute_report and report_from_counts(count_citations(...)) share one
    counting loop and one assembly; both equal a report built edge by edge."""
    params = MetricParams(alpha=0.7, beta=0.05)
    for rid in corpus.researchers:
        for mode in SelfCitationMode:
            expected = reference_report(corpus, rid, params, mode)
            assert compute_report(corpus, rid, params, mode) == expected
            assert report_from_counts(count_citations(corpus, rid, mode), params) == expected
