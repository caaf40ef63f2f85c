import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfcite.corpus import CitationEdge, Researcher, parse_corpus
from selfcite.identity import (
    CitationCounts,
    EmptyName,
    FocalNotAuthorOfCited,
    MatchBasis,
    SelfCitationMode,
    Tally,
    classify_self_citation,
    count_citations,
    normalize_name,
    person_key,
    same_person,
)
from selfcite.corpus import UnknownResearcher

from conftest import make_corpus, simple_pub, simple_researcher, small_corpora


# ---------------------------------------------------------------------------
# normalize_name
# ---------------------------------------------------------------------------


def test_family_given_layout():
    n = normalize_name("Smith, John")
    assert n.family == "smith"
    assert n.initials == ("j",)
    assert n.full_given == "john"
    assert not n.initials_only


def test_initials_layout():
    n = normalize_name("J. Smith")
    assert n.family == "smith"
    assert n.initials == ("j",)
    assert n.full_given is None
    assert n.initials_only


def test_diacritics_folded():
    n = normalize_name("Müller, Ángel")
    assert n.family == "muller"
    assert n.full_given == "angel"
    assert n.initials == ("a",)


def test_plain_given_family_layout():
    n = normalize_name("Jane Rebecca Smith")
    assert n.family == "smith"
    assert n.given == ("jane", "rebecca")
    assert n.initials == ("j", "r")


def test_hyphenated_family_kept_whole():
    n = normalize_name("Ana García-López")
    assert n.family == "garcia-lopez"
    assert normalize_name("Ana García").family == "garcia"
    assert n.family != "garcia"


def test_apostrophes_dropped():
    assert normalize_name("Niall O'Brien").family == "obrien"


@pytest.mark.parametrize("raw", ["", "   ", "...", "--", "123"])
def test_empty_name_rejected(raw):
    with pytest.raises(EmptyName):
        normalize_name(raw)


def test_normalization_idempotent_on_own_output():
    n = normalize_name("GARCÍA, José")
    again = normalize_name(f"{' '.join(n.given)} {n.family}")
    assert again == n


# ---------------------------------------------------------------------------
# same_person
# ---------------------------------------------------------------------------


def rec(rid="", names=("N N",), orcid=None):
    return Researcher(researcher_id=rid, name_variants=tuple(names), orcid=orcid)


def test_same_id_is_id_match():
    a = rec("R1", ("Alpha One",))
    b = rec("R1", ("Totally Different",))
    assert same_person(a, b) == (True, MatchBasis.ID_MATCH)


def test_different_ids_same_orcid_is_orcid_match():
    a = rec("R1", ("John Smith",), orcid="0000-1")
    b = rec("R2", ("J. Smith",), orcid="0000-1")
    assert same_person(a, b) == (True, MatchBasis.ORCID_MATCH)


def test_different_ids_never_name_match():
    a = rec("R1", ("John Smith",))
    b = rec("R2", ("John Smith",))
    assert same_person(a, b) == (False, None)


def test_orcid_conflict_overrides_equal_names():
    a = rec("", ("John Smith",), orcid="0000-1")
    b = rec("", ("John Smith",), orcid="0000-2")
    assert same_person(a, b) == (False, None)


def test_name_match_full_vs_initials():
    assert same_person("John Smith", "J. Smith") == (True, MatchBasis.NAME_MATCH)


def test_name_match_initial_prefix():
    assert same_person("J. R. Smith", "Jane Rebecca Smith")[0]
    assert same_person("J. Smith", "Jane Rebecca Smith")[0]


def test_name_mismatch_cases():
    assert not same_person("Jane Q. Smith", "J. R. Smith")[0]
    assert not same_person("John Smith", "John Smythe")[0]
    assert not same_person("Jane Smith", "Jane Rebecca Smith")[0]
    assert not same_person("Ana García-López", "Ana García")[0]


def test_name_match_across_variants():
    a = rec("", ("Robert Roe", "R. Roe"))
    b = rec("", ("Bob Roe", "R. Roe"))
    assert same_person(a, b) == (True, MatchBasis.NAME_MATCH)


def test_comma_layout_matches_plain_layout():
    assert same_person("Smith, John", "John Smith")[0]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    names_a=st.lists(
        st.sampled_from(["John Smith", "J. Smith", "Ana García", "Smith, John"]),
        min_size=1,
        max_size=2,
    ),
)
def test_same_person_symmetry(data, names_a):
    ids = st.sampled_from(["", "R1", "R2"])
    orcids = st.sampled_from([None, "0000-1", "0000-2"])
    names_b = data.draw(
        st.lists(
            st.sampled_from(["John Smith", "Garcia, Ana", "J. R. Smith"]),
            min_size=1,
            max_size=2,
        )
    )
    a = rec(data.draw(ids), names_a, data.draw(orcids))
    b = rec(data.draw(ids), names_b, data.draw(orcids))
    assert same_person(a, b) == same_person(b, a)


# ---------------------------------------------------------------------------
# classify_self_citation
# ---------------------------------------------------------------------------


def test_classify_two_papers_fixture(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    label = classify_self_citation(corpus, corpus.edges[0], "A")
    assert label.is_self
    assert label.match_basis is MatchBasis.ID_MATCH
    assert label.focal_researcher == "A"


def test_classify_external(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    edge = next(e for e in corpus.edges if e.citing_id == "X1P1")
    label = classify_self_citation(corpus, edge, "M")
    assert not label.is_self
    assert label.match_basis is None


def test_classify_requires_focal_on_cited(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    rs = list(corpus.researchers.values()) + [simple_researcher("B")]
    corpus2 = make_corpus(rs, corpus.publications.values(), corpus.edges)
    with pytest.raises(FocalNotAuthorOfCited):
        classify_self_citation(corpus2, corpus2.edges[0], "B")


def test_classify_orcid_duplicate_record():
    # same person split across two records sharing an ORCID
    j1 = simple_researcher("J1", name_variants=("John Smith",), orcid="0000-7")
    j2 = simple_researcher("J2", name_variants=("J. Smith",), orcid="0000-7")
    cited = simple_pub("P1", 2010, ["J1"])
    citing = simple_pub("P2", 2014, ["J2"])
    corpus = make_corpus([j1, j2], [cited, citing], [CitationEdge("P2", "P1")])
    label = classify_self_citation(corpus, corpus.edges[0], "J1")
    assert label.is_self
    assert label.match_basis is MatchBasis.ORCID_MATCH


def test_focal_dependence_of_classification():
    # A authors both ends; B authors only the cited paper
    a, b = simple_researcher("A"), simple_researcher("B")
    cited = simple_pub("P1", 2010, ["A", "B"])
    citing = simple_pub("P2", 2012, ["A"])
    corpus = make_corpus([a, b], [cited, citing], [CitationEdge("P2", "P1")])
    assert classify_self_citation(corpus, corpus.edges[0], "A").is_self
    assert not classify_self_citation(corpus, corpus.edges[0], "B").is_self


def test_any_overlap_mode_ignores_focal():
    a, b = simple_researcher("A"), simple_researcher("B")
    cited = simple_pub("P1", 2010, ["A", "B"])
    citing = simple_pub("P2", 2012, ["A"])
    corpus = make_corpus([a, b], [cited, citing], [CitationEdge("P2", "P1")])
    label = classify_self_citation(
        corpus, corpus.edges[0], "B", SelfCitationMode.ANY_OVERLAP
    )
    assert label.is_self
    assert label.match_basis is MatchBasis.ID_MATCH


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
            assert tally.total == len(corpus.incoming_edges.get(pid, ()))
        year_total = sum(t.total for t in counts.per_year.values())
        assert year_total == counts.total


@settings(max_examples=30, deadline=None)
@given(corpus=small_corpora())
def test_classification_matches_membership_oracle(corpus):
    # with researcher ids on every record, self-citation reduces to the focal
    # id being listed on the citing publication
    for rid in corpus.researchers:
        for pid in corpus.publications_by_author.get(rid, ()):
            for edge in corpus.incoming_edges.get(pid, ()):
                label = classify_self_citation(corpus, edge, rid)
                oracle = rid in corpus.publications[edge.citing_id].author_ids
                assert label.is_self == oracle


# ---------------------------------------------------------------------------
# person_key: the counting rule, checked against the per-edge cascade
# ---------------------------------------------------------------------------


def test_person_key_keeps_orcid_apart_from_ids():
    # R0's ORCID is spelled like R1's id; same_person calls them two people
    r0 = simple_researcher("R0", orcid="R1")
    r1 = simple_researcher("R1")
    assert same_person(r0, r1) == (False, None)
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
            assert same_person(a, b)[0] == (person_key(a) == person_key(b))


def reference_counts(corpus, focal, mode):
    """Tally edge by edge from classify_self_citation, without the indexes."""
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
            is_self = classify_self_citation(corpus, edge, focal, mode).is_self
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
