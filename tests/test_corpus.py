import io
import json
from datetime import date

import pytest
from hypothesis import given, settings

from selfcite.corpus import (
    CitationEdge,
    Corpus,
    CorpusFormat,
    CorpusWarning,
    DanglingReference,
    Discipline,
    DuplicateId,
    Gender,
    MalformedRecord,
    Provenance,
    Publication,
    Researcher,
    UnknownResearcher,
    WarningCode,
    derive_first_pub_year,
    max_valid_year,
    parse_corpus,
    serialize_corpus,
    validate_corpus,
    write_corpus,
)

from conftest import DATA, make_corpus, simple_pub, simple_researcher, small_corpora


def test_parse_two_papers_fixture(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    assert set(corpus.researchers) == {"A"}
    assert set(corpus.publications) == {"P1", "P2"}
    assert [e.pair for e in corpus.edges] == [("P2", "P1")]
    assert corpus.publications["P1"].year == 2010
    assert corpus.researchers["A"].gender is Gender.UNREPORTED


def test_parse_researcher_mid_fixture(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    assert len(corpus.researchers) == 3
    assert len(corpus.publications) == 7
    assert len(corpus.edges) == 12
    assert corpus.researchers["M"].orcid == "0000-0002-1825-0097"
    assert corpus.researchers["M"].name_variants == (
        "Morgan Mitchell",
        "Mitchell, Morgan",
    )


def test_csv_bundle_matches_jsonl_fixture(researcher_mid_path):
    from_jsonl = parse_corpus(researcher_mid_path)
    from_csv = parse_corpus(DATA / "csv_bundle", CorpusFormat.CSV_BUNDLE)
    assert from_csv.researchers == from_jsonl.researchers
    assert from_csv.publications == from_jsonl.publications
    assert from_csv.edges == from_jsonl.edges


def test_csv_bundle_missing_column(tmp_path):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "researchers.csv").write_text("id,names\nR1,Some Name\n")
    (bundle / "publications.csv").write_text("id,title,year,authors,discipline\n")
    (bundle / "citations.csv").write_text("citing,cited\n")
    with pytest.raises(MalformedRecord):
        parse_corpus(bundle, CorpusFormat.CSV_BUNDLE)


def test_empty_corpus_is_valid():
    corpus = make_corpus([], [], [])
    assert corpus.publications == {}
    assert corpus.edges == ()
    assert validate_corpus(corpus) == []


def test_roundtrip_is_byte_stable(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    text = serialize_corpus(corpus)
    again = serialize_corpus(parse_corpus(io.StringIO(text)))
    assert again == text


def test_write_corpus_reads_back(tmp_path, two_papers_path):
    corpus = parse_corpus(two_papers_path)
    out = tmp_path / "copy.jsonl"
    write_corpus(corpus, out)
    assert parse_corpus(out).publications == corpus.publications


def test_blank_lines_skipped_and_unknown_keys_ignored():
    text = (
        '{"kind":"researcher","id":"R","names":["N N"],"orcid":null,'
        '"gender":null,"discipline":"Other","first_pub_year":null,"extra":1}\n'
        "\n"
        '{"kind":"publication","id":"P","title":"T","year":2000,'
        '"authors":["R"],"discipline":"Other","surplus":true}\n'
    )
    corpus = parse_corpus(io.StringIO(text))
    assert set(corpus.researchers) == {"R"}
    assert set(corpus.publications) == {"P"}


def test_invalid_json_line_reports_location():
    text = '{"kind":"researcher","id":"R","names":["N"],"discipline":"Other"}\n{broken\n'
    with pytest.raises(MalformedRecord) as err:
        parse_corpus(io.StringIO(text))
    assert "line 2" in str(err.value)


def test_non_utf8_jsonl_line_reports_location(tmp_path):
    good = b'{"kind":"researcher","id":"R","names":["N"],"discipline":"Other"}\n'
    data = good + b"\n" + b'{"kind":"researcher","id":"\xff"}\n' + good
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(data)
    sources = [(path, str(path)), (data, "<bytes>"), (io.BytesIO(data), "<stream>")]
    for source, label in sources:
        with pytest.raises(MalformedRecord) as err:
            parse_corpus(source)
        assert err.value.location == f"{label} line 3"
        assert "UTF-8" in err.value.reason


def test_non_utf8_csv_names_file(tmp_path):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "researchers.csv").write_text(
        "id,names,orcid,gender,discipline,first_pub_year\nA,N,,,Other,\n"
    )
    (bundle / "publications.csv").write_bytes(
        b"id,title,year,authors,discipline\nP1,T\xff,2000,A,Other\n"
    )
    (bundle / "citations.csv").write_text("citing,cited\n")
    with pytest.raises(MalformedRecord) as err:
        parse_corpus(bundle, CorpusFormat.CSV_BUNDLE)
    assert err.value.location == "publications.csv"


def test_unknown_kind_rejected():
    with pytest.raises(MalformedRecord):
        parse_corpus(io.StringIO('{"kind":"grant","id":"G"}\n'))


def test_unknown_discipline_rejected():
    text = '{"kind":"researcher","id":"R","names":["N"],"discipline":"Alchemy"}\n'
    with pytest.raises(MalformedRecord):
        parse_corpus(io.StringIO(text))


def test_bad_gender_rejected():
    text = '{"kind":"researcher","id":"R","names":["N"],"gender":"yes","discipline":"Other"}\n'
    with pytest.raises(MalformedRecord):
        parse_corpus(io.StringIO(text))


def test_dangling_author():
    with pytest.raises(DanglingReference):
        make_corpus([], [simple_pub("P", 2000, ["ghost"])], [])


def test_dangling_edge_endpoint():
    r = simple_researcher("R")
    p = simple_pub("P", 2000, ["R"])
    with pytest.raises(DanglingReference):
        make_corpus([r], [p], [CitationEdge("P", "missing")])


def test_duplicate_researcher_id():
    with pytest.raises(DuplicateId):
        make_corpus([simple_researcher("R"), simple_researcher("R")], [], [])


def test_duplicate_publication_id():
    r = simple_researcher("R")
    with pytest.raises(DuplicateId):
        make_corpus(
            [r], [simple_pub("P", 2000, ["R"]), simple_pub("P", 2001, ["R"])], []
        )


def test_duplicate_edge_rejected():
    r = simple_researcher("R")
    pubs = [simple_pub("P1", 2000, ["R"]), simple_pub("P2", 2001, ["R"])]
    edges = [CitationEdge("P2", "P1"), CitationEdge("P2", "P1")]
    with pytest.raises(DuplicateId):
        make_corpus([r], pubs, edges)


def test_self_loop_edge_rejected():
    r = simple_researcher("R")
    with pytest.raises(MalformedRecord):
        make_corpus([r], [simple_pub("P", 2000, ["R"])], [CitationEdge("P", "P")])


@pytest.mark.parametrize("year", [1499, date.today().year + 2])
def test_publication_year_bounds(year):
    r = simple_researcher("R")
    with pytest.raises(MalformedRecord):
        make_corpus([r], [simple_pub("P", year, ["R"])], [])


def test_year_bound_edges_allowed():
    r = simple_researcher("R")
    corpus = make_corpus(
        [r],
        [simple_pub("P1", 1500, ["R"]), simple_pub("P2", max_valid_year(), ["R"])],
        [],
    )
    assert len(corpus.publications) == 2


def test_empty_names_rejected():
    with pytest.raises(MalformedRecord):
        make_corpus([simple_researcher("R", name_variants=("  ",))], [], [])


def test_publication_without_authors_rejected():
    r = simple_researcher("R")
    with pytest.raises(MalformedRecord):
        make_corpus([r], [Publication("P", "T", 2000, (), Discipline.OTHER)], [])


def test_author_listed_twice_rejected():
    # counted twice, P1's one citation would make A's per-year total 3, not 2
    a = simple_researcher("A")
    pubs = [
        simple_pub("P1", 2000, ["A", "A"]),
        simple_pub("P2", 2000, ["A"]),
        simple_pub("P3", 2005, ["A"]),
    ]
    edges = [CitationEdge("P3", "P1"), CitationEdge("P3", "P2")]
    with pytest.raises(MalformedRecord) as err:
        make_corpus([a], pubs, edges)
    assert "'P1'" in str(err.value) and "'A'" in str(err.value)


def test_author_listed_twice_rejected_from_files(tmp_path):
    text = (
        '{"kind":"researcher","id":"A","names":["N"],"discipline":"Other"}\n'
        '{"kind":"publication","id":"P1","title":"T","year":2000,'
        '"authors":["A","A"],"discipline":"Other"}\n'
    )
    with pytest.raises(MalformedRecord, match="'A' more than once"):
        parse_corpus(io.StringIO(text))
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    (bundle / "researchers.csv").write_text(
        "id,names,orcid,gender,discipline,first_pub_year\nA,N,,,Other,\n"
    )
    (bundle / "publications.csv").write_text(
        "id,title,year,authors,discipline\nP1,T,2000,A|A,Other\n"
    )
    (bundle / "citations.csv").write_text("citing,cited\n")
    with pytest.raises(MalformedRecord, match="'A' more than once"):
        parse_corpus(bundle, CorpusFormat.CSV_BUNDLE)


def test_negative_citation_count_rejected():
    r = simple_researcher("R")
    pub = simple_pub("P", 2000, ["R"], source_citation_count=-1)
    with pytest.raises(MalformedRecord):
        make_corpus([r], [pub], [])


def test_citation_count_roundtrips():
    text = (
        '{"kind":"researcher","id":"R","names":["N N"],"orcid":null,'
        '"gender":null,"discipline":"Other","first_pub_year":null}\n'
        '{"kind":"publication","id":"P","title":"T","year":2000,'
        '"authors":["R"],"discipline":"Other","citation_count":7}\n'
    )
    corpus = parse_corpus(io.StringIO(text))
    assert corpus.publications["P"].source_citation_count == 7
    assert '"citation_count":7' in serialize_corpus(corpus)


def test_unknown_researcher_lookup():
    corpus = make_corpus([simple_researcher("R")], [], [])
    with pytest.raises(UnknownResearcher):
        corpus.researcher("nope")


def test_indexes(researcher_mid_path):
    corpus = parse_corpus(researcher_mid_path)
    assert corpus.publications_by_author["M"] == ("M1", "M2", "M3", "M4")
    incoming = corpus.incoming_edges["M4"]
    assert [e.citing_id for e in incoming] == ["X2P1"]
    assert corpus.publications_by_author["X2"] == ("X2P1",)


def test_validate_warnings():
    rs = [simple_researcher("R"), simple_researcher("idle")]
    pubs = [
        simple_pub("P1", 2010, ["R"]),
        simple_pub("P2", 2005, ["R"], discipline=Discipline.OTHER),
    ]
    edges = [CitationEdge("P2", "P1")]  # citing 2005 predates cited 2010
    warnings = validate_corpus(make_corpus(rs, pubs, edges))
    codes = {w.code for w in warnings}
    assert codes == {
        WarningCode.TIME_TRAVEL_CITATION,
        WarningCode.ORPHAN_RESEARCHER,
        WarningCode.OTHER_DISCIPLINE,
    }
    orphan = next(w for w in warnings if w.code is WarningCode.ORPHAN_RESEARCHER)
    assert orphan.subject == "idle"


def test_derive_first_pub_year_explicit_wins():
    r = simple_researcher("R", first_pub_year=1999)
    corpus = make_corpus([r], [simple_pub("P", 2010, ["R"])], [])
    assert derive_first_pub_year(corpus, "R") == 1999


def test_derive_first_pub_year_from_publications():
    r = simple_researcher("R")
    pubs = [simple_pub("P1", 2010, ["R"]), simple_pub("P2", 2003, ["R"])]
    corpus = make_corpus([r], pubs, [])
    assert derive_first_pub_year(corpus, "R") == 2003


def test_derive_first_pub_year_none():
    corpus = make_corpus([simple_researcher("R")], [], [])
    assert derive_first_pub_year(corpus, "R") is None


@settings(max_examples=40, deadline=None)
@given(corpus=small_corpora())
def test_serialization_roundtrip_property(corpus):
    text = serialize_corpus(corpus)
    reparsed = parse_corpus(io.StringIO(text))
    assert serialize_corpus(reparsed) == text
    assert reparsed.researchers == corpus.researchers
    assert reparsed.publications == corpus.publications
    assert set(e.pair for e in reparsed.edges) == set(e.pair for e in corpus.edges)
