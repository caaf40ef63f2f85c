import csv
import io
import json
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from json.encoder import encode_basestring

from selfcite.corpus import (
    MIN_YEAR,
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
    _canonical_orcid,
    _encode_compact,
    _publication_from_json,
    _researcher_from_json,
    derive_first_pub_year,
    max_valid_year,
    parse_corpus,
    person_key,
    serialize_corpus,
    validate_corpus,
    write_corpus,
)

from selfcite.identity import SelfCitationMode, count_citations

from conftest import DATA, make_corpus, simple_pub, simple_researcher, small_corpora


def test_parse_two_papers_fixture(two_papers_path):
    corpus = parse_corpus(two_papers_path)
    assert set(corpus.researchers) == {"A"}
    assert set(corpus.publications) == {"P1", "P2"}
    assert corpus.edges == (("P2", "P1"),)
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


CSV_COLUMNS = {
    "researcher": (
        "researchers.csv", ["id", "names", "orcid", "gender", "discipline", "first_pub_year"]
    ),
    "publication": (
        "publications.csv", ["id", "title", "year", "authors", "discipline", "citation_count"]
    ),
    "citation": ("citations.csv", ["citing", "cited"]),
}


def write_csv_bundle(records, base):
    """Write JSONL records as a CSV bundle: lists joined by "|", null blank."""
    def cell(value):
        return "|".join(value) if isinstance(value, list) else "" if value is None else value

    base.mkdir()
    for kind, (name, columns) in CSV_COLUMNS.items():
        with (base / name).open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(
                [cell(record.get(column)) for column in columns]
                for record in records
                if record["kind"] == kind
            )


def varied_corpus():
    """Teams, a shared ORCID, blank optional fields and names with commas."""
    shared = "0000-0001-0000-0001"
    researchers = [
        simple_researcher("A", name_variants=("Lee, Ann", "Ann Lee"), orcid=shared,
                          gender=Gender.FEMALE, first_pub_year=2001),
        simple_researcher("A2", name_variants=("A. Lee",), orcid=shared),
        simple_researcher("B", name_variants=("Brown, Bo",), discipline=Discipline.LIFE_SCIENCES),
        simple_researcher("C", orcid="0000-0002-0000-0002", gender=Gender.MALE,
                          first_pub_year=1999, discipline=Discipline.HUMANITIES),
    ]
    publications = [
        simple_pub("P1", 2000, ["A", "B"]),
        simple_pub("P2", 2003, ["A2", "C", "B"], source_citation_count=7),
        simple_pub("P3", 2005, ["C"], source_citation_count=0, discipline=Discipline.OTHER),
        simple_pub("P4", 2010, ["B", "A"], title='Risks, rewards and "quotes"'),
    ]
    pairs = [("P2", "P1"), ("P3", "P1"), ("P4", "P2"), ("P4", "P3")]
    return make_corpus(researchers, publications, [CitationEdge(*p) for p in pairs])


def test_csv_bundle_matches_jsonl_fixture(researcher_mid_path, tmp_path):
    written = tmp_path / "varied.jsonl"
    write_corpus(varied_corpus(), written)
    records = [json.loads(line) for line in written.read_text(encoding="utf-8").splitlines()]
    write_csv_bundle(records, tmp_path / "varied")
    pairs = [(researcher_mid_path, DATA / "csv_bundle"), (written, tmp_path / "varied")]
    for jsonl, bundle in pairs:
        from_jsonl = parse_corpus(jsonl)
        from_csv = parse_corpus(bundle, CorpusFormat.CSV_BUNDLE)
        assert from_csv.researchers == from_jsonl.researchers
        assert from_csv.publications == from_jsonl.publications
        assert from_csv.edges == from_jsonl.edges


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("researcher", "id", ""),
        ("researcher", "names", []),
        ("publication", "id", ""),
        ("publication", "title", ""),
        ("publication", "authors", []),
        ("publication", "discipline", "Alchemy"),
        ("publication", "year", "MMI"),
        ("publication", "year", "1_990"),
        ("publication", "year", "+2001"),
        ("publication", "year", "\uff12\uff10\uff10\uff11"),
        ("citation", "cited", ""),
    ],
    ids=[
        "researcher-empty-id", "no-names", "publication-empty-id", "empty-title",
        "no-authors", "unknown-discipline", "year-roman", "year-underscore",
        "year-plus", "year-fullwidth", "empty-cited",
    ],
)
def test_bad_field_rejected_in_both_formats(tmp_path, kind, field, value):
    records = [
        {"kind": "researcher", "id": "R", "names": ["N"], "orcid": None, "gender": None,
         "discipline": "Other", "first_pub_year": None},
        {"kind": "publication", "id": "P", "title": "T", "year": 2000, "authors": ["R"],
         "discipline": "Other"},
        {"kind": "publication", "id": "Q", "title": "U", "year": 2001, "authors": ["R"],
         "discipline": "Other"},
        {"kind": "citation", "citing": "Q", "cited": "P"},
    ]
    bad = next(r for r in records if r["kind"] == kind)
    bad[field] = value
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    write_csv_bundle(records, tmp_path / "bundle")
    with pytest.raises(MalformedRecord) as from_jsonl:
        parse_corpus(jsonl)
    with pytest.raises(MalformedRecord) as from_csv:
        parse_corpus(tmp_path / "bundle", CorpusFormat.CSV_BUNDLE)
    assert from_jsonl.value.location == f"{jsonl} line {records.index(bad) + 1}"
    assert from_csv.value.location == f"{CSV_COLUMNS[kind][0]} row 2"
    assert from_csv.value.reason == from_jsonl.value.reason


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


def researcher_line(rid):
    return (
        f'{{"kind":"researcher","id":"{rid}","names":["N N"],"orcid":null,'
        '"gender":null,"discipline":"Other","first_pub_year":null}'
    )


@pytest.mark.parametrize(
    "padding", [" ", "\t", "\r", " \t\r", "\xa0", "\u2028", "\x1c", "\x0b", "\x0c", "\x85", "\u3000"]
)
@pytest.mark.parametrize("blank", [False, True])
def test_only_json_whitespace_pads_a_line(padding, blank):
    """A blank line holds only JSON whitespace (space, tab, CR, LF), and
    only that may surround a record. Other Unicode whitespace on a line is
    a JSON error, as json.loads has it."""
    line = padding if blank else padding + researcher_line("R") + padding
    source = io.StringIO(f"{researcher_line('Q')}\n{line}\n")
    if padding.strip(" \t\r"):
        with pytest.raises(MalformedRecord) as err:
            parse_corpus(source)
        assert err.value.location == "<stream> line 2"
        assert err.value.reason.startswith("invalid JSON (")
    else:
        assert set(parse_corpus(source).researchers) == ({"Q"} if blank else {"Q", "R"})


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
    # as text, line 3's \xff is a lone surrogate, which is not UTF-8 either
    text = io.StringIO(data.decode("utf-8", "surrogateescape"))
    sources = [
        (path, str(path)), (data, "<bytes>"), (io.BytesIO(data), "<stream>"), (text, "<stream>")
    ]
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


def test_negative_citation_count_rejected(tmp_path):
    r = simple_researcher("R")
    pub = simple_pub("P", 2000, ["R"], source_citation_count=-1)
    with pytest.raises(MalformedRecord):
        make_corpus([r], [pub], [])
    records = [
        {"kind": "researcher", "id": "R", "names": ["N"], "discipline": "Other"},
        {"kind": "publication", "id": "P", "title": "T", "year": 2000, "authors": ["R"],
         "discipline": "Other", "citation_count": -1},
    ]
    write_csv_bundle(records, tmp_path / "bundle")
    with pytest.raises(MalformedRecord, match="'P' has negative citation_count"):
        parse_corpus(tmp_path / "bundle", CorpusFormat.CSV_BUNDLE)


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
    offsets, citers = corpus.incoming_edges
    ids, m4 = corpus.publication_ids, corpus.publication_numbers["M4"]
    assert [ids[c] for c in citers[offsets[m4]:offsets[m4 + 1]]] == ["X2P1"]
    assert corpus.publications_by_author["X2"] == ("X2P1",)


def test_person_numbers_follow_sorted_ids():
    # listed out of order; B and D share an ORCID, C's ORCID is spelled like A's id
    researchers = [
        simple_researcher("D", orcid="0000-9"),
        simple_researcher("C", orcid="A"),
        simple_researcher("B", orcid="0000-9"),
        simple_researcher("A"),
    ]
    pubs = [simple_pub("P1", 2010, ["D", "A"]), simple_pub("P2", 2011, ["C", "B"])]
    corpus = make_corpus(researchers, pubs, [])
    assert list(corpus.person_numbers.items()) == [("A", 0), ("B", 1), ("C", 2), ("D", 1)]
    assert corpus.publication_persons == ((1, 0), (2, 1))  # P1, P2


@settings(max_examples=60, deadline=None)
@given(corpus=small_corpora())
def test_incoming_index_matches_edges(corpus):
    """Numbers follow sorted ids, and the CSR index lists each
    publication's citers, ascending, as the edges view has them."""
    ids = corpus.publication_ids
    assert list(ids) == sorted(corpus.publications)
    assert corpus.publication_numbers == {pid: n for n, pid in enumerate(ids)}
    offsets, citers = corpus.incoming_edges
    assert len(offsets) == len(ids) + 1
    for n, pid in enumerate(ids):
        expected = sorted(e.citing_id for e in corpus.edges if e.cited_id == pid)
        assert [ids[c] for c in citers[offsets[n]:offsets[n + 1]]] == expected


@settings(max_examples=60, deadline=None)
@given(corpus=small_corpora(orcids=True))
def test_person_numbers_match_person_key(corpus):
    numbers = corpus.person_numbers
    assert list(numbers) == sorted(corpus.researchers)
    first_seen = list(dict.fromkeys(numbers.values()))
    assert first_seen == list(range(len(first_seen)))
    for a in corpus.researchers.values():
        for b in corpus.researchers.values():
            same = numbers[a.researcher_id] == numbers[b.researcher_id]
            assert same == (person_key(a) == person_key(b))
    for pid, pub in corpus.publications.items():
        persons = corpus.publication_persons[corpus.publication_numbers[pid]]
        assert persons == tuple(map(numbers.get, pub.author_ids))


def test_orcid_canonical_in_both_formats(tmp_path):
    """The URL and bare forms of one ORCID are one person; blank ORCIDs
    belong to no one, so S1 citing S2 is an external citation."""
    def researcher(rid, orcid):
        return {"kind": "researcher", "id": rid, "names": [f"N {rid}"], "orcid": orcid,
                "gender": None, "discipline": "Other", "first_pub_year": None}

    records = [
        researcher("U", "https://orcid.org/0000-0002-1825-0097"),
        researcher("H", "http://orcid.org/0000-0002-1825-0097 "),
        researcher("B", " 0000-0002-1825-0097"),
        researcher("D", "https://orcid.org/ https://orcid.org/0000-0002-1825-0097"),
        researcher("S1", " "),
        researcher("S2", " "),
        {"kind": "publication", "id": "P", "title": "T", "year": 2000, "authors": ["S2"],
         "discipline": "Other"},
        {"kind": "publication", "id": "Q", "title": "U", "year": 2001, "authors": ["S1"],
         "discipline": "Other"},
        {"kind": "citation", "citing": "Q", "cited": "P"},
    ]
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    write_csv_bundle(records, tmp_path / "bundle")
    for corpus in (parse_corpus(jsonl), parse_corpus(tmp_path / "bundle", CorpusFormat.CSV_BUNDLE)):
        keys = {rid: person_key(r) for rid, r in corpus.researchers.items()}
        assert keys["U"] == keys["H"] == keys["B"] == keys["D"] == (
            "orcid", "0000-0002-1825-0097"
        )
        assert corpus.researchers["S1"].orcid is None
        assert keys["S1"] != keys["S2"]
        for mode in SelfCitationMode:
            assert count_citations(corpus, "S2", mode).self_total == 0


@pytest.mark.parametrize(
    "orcid", [" ", "", " 0000-1", "https://orcid.org/0000-1", "https://orcid.org/"]
)
def test_from_parts_rejects_orcid_the_parser_would_change(orcid):
    # two blank ORCIDs used to give both researchers one person number
    with pytest.raises(MalformedRecord, match="orcid"):
        make_corpus([simple_researcher("A", orcid=orcid), simple_researcher("B", orcid=orcid)], [], [])


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
    assert set(reparsed.edges) == set(corpus.edges)


def test_write_corpus_streams_serialize_corpus_bytes(tmp_path, researcher_mid_path):
    for corpus in (parse_corpus(researcher_mid_path), make_corpus([], [], [])):
        out = tmp_path / "corpus.jsonl"
        write_corpus(corpus, out)
        assert out.read_bytes() == serialize_corpus(corpus).encode("utf-8")
    assert serialize_corpus(make_corpus([], [], [])) == "\n"


def test_write_corpus_failure_keeps_the_old_file(tmp_path):
    out = tmp_path / "corpus.jsonl"
    out.write_text("previous contents\n", encoding="utf-8")
    # the second researcher line cannot be encoded as UTF-8
    corpus = make_corpus(
        [simple_researcher("A"), simple_researcher("B", name_variants=("\ud800",))], [], []
    )
    with pytest.raises(UnicodeEncodeError):
        write_corpus(corpus, out)
    assert out.read_text(encoding="utf-8") == "previous contents\n"
    assert list(tmp_path.iterdir()) == [out]  # no partial file left beside it

    corpus = make_corpus([simple_researcher("A")], [], [])
    write_corpus(corpus, out)
    assert out.read_text(encoding="utf-8") == serialize_corpus(corpus)
    assert list(tmp_path.iterdir()) == [out]


# Characters the JSON string encoder escapes (quote, backslash, control
# characters) or passes through as they are (DEL, U+2028, non-BMP
# characters, lone surrogates).
ID_CHARS = [
    '"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\U0001f600", "\ud800", "\udfff", "a",
]
escaped_ids = st.text(
    alphabet=st.sampled_from(ID_CHARS) | st.characters(), min_size=1, max_size=5
)


@st.composite
def escaped_id_corpora(draw):
    pids = draw(st.lists(escaped_ids, min_size=2, max_size=6, unique=True))
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(pids), st.sampled_from(pids)).filter(
                lambda pair: pair[0] != pair[1]
            ),
            max_size=12,
            unique=True,
        )
    )
    return make_corpus(
        [simple_researcher("R")],
        [simple_pub(pid, 2000, ["R"]) for pid in pids],
        [CitationEdge(citing, cited) for citing, cited in pairs],
    )


@settings(max_examples=200, deadline=None)
@given(corpus=escaped_id_corpora())
def test_citation_lines_match_the_encoder(corpus):
    lines = [line + "\n" for line in serialize_corpus(corpus).split("\n")[:-1]]
    expected = [
        _encode_compact({"kind": "citation", "citing": e.citing_id, "cited": e.cited_id})
        + "\n"
        for e in sorted(corpus.edges, key=lambda e: (e.citing_id, e.cited_id))
    ]
    assert lines[len(lines) - len(expected):] == expected


# Text the JSON string encoder escapes (quote, backslash, U+0000-U+001F) or
# passes through as it is (U+2028, non-ASCII text, a lone surrogate).
RECORD_CHARS = [
    '"', "\\", *map(chr, range(0x20)), "\u2028", "\u00e9", "\U0001f600", "\ud800", "a", " ",
]
record_text = st.text(alphabet=st.sampled_from(RECORD_CHARS) | st.characters(), max_size=5)


@st.composite
def record_corpora(draw):
    """A corpus of researchers and publications whose strings need
    escaping, with one or several names and authors and each optional
    value null or set, beside the records a reader expects: dicts in the
    key order of the ``corpus`` module docstring."""
    ids = record_text.filter(bool)
    rids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    researchers, researcher_records = [], []
    for rid in rids:
        names = draw(st.lists(record_text.filter(str.strip), min_size=1, max_size=3))
        orcid = draw(st.none() | ids.filter(lambda text: _canonical_orcid(text) == text))
        gender = draw(st.sampled_from(list(Gender)))
        discipline = draw(st.sampled_from(list(Discipline)))
        first_pub_year = draw(st.none() | st.integers(MIN_YEAR, 2024))
        researchers.append(
            Researcher(rid, tuple(names), orcid, gender, first_pub_year, discipline)
        )
        researcher_records.append({
            "kind": "researcher",
            "id": rid,
            "names": names,
            "orcid": orcid,
            "gender": None if gender is Gender.UNREPORTED else gender.value,
            "discipline": discipline.value,
            "first_pub_year": first_pub_year,
        })
    publications, publication_records = [], []
    for pid in draw(st.lists(ids, max_size=4, unique=True)):
        title = draw(record_text)
        year = draw(st.integers(MIN_YEAR, 2024))
        authors = draw(st.lists(st.sampled_from(rids), min_size=1, max_size=3, unique=True))
        discipline = draw(st.sampled_from(list(Discipline)))
        count = draw(st.none() | st.integers(0, 10**6))
        publications.append(Publication(pid, title, year, tuple(authors), discipline, count))
        record = {
            "kind": "publication",
            "id": pid,
            "title": title,
            "year": year,
            "authors": authors,
            "discipline": discipline.value,
        }
        if count is not None:
            record["citation_count"] = count
        publication_records.append(record)
    records = sorted(researcher_records, key=lambda r: r["id"])
    records += sorted(publication_records, key=lambda r: r["id"])
    return make_corpus(researchers, publications, []), records


@settings(max_examples=300, deadline=None)
@given(case=record_corpora())
def test_record_lines_match_json_dumps(case):
    """The writer builds researcher and publication lines by pattern; each
    must be json.dumps of its record, byte for byte."""
    corpus, records = case
    expected = [
        json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
        for record in records
    ]
    # split on LF alone: str.splitlines would also split at U+2028
    assert [line + "\n" for line in serialize_corpus(corpus).split("\n")[:-1]] == expected


# ---------------------------------------------------------------------------
# Lean ingest: the record-line patterns, shared id strings, slotted records
# ---------------------------------------------------------------------------

# Publication ids the citation lines below may name: plain ones, ones the
# encoder escapes, and ones it writes as they are. Then ids no publication
# has: empty, unknown, a lone surrogate.
LINE_PUB_IDS = ["P1", "p-2", 'q"x', "b\\s", "t\tab", "\x7f", "\u00e9", "\u2028", "\U0001f600"]
LINE_STRAY_IDS = ["", "Z", "\ud800"]


def _escape_all(text):
    """A JSON string with every UTF-16 code unit of ``text`` as a \\u escape."""
    units = text.encode("utf-16-be", "surrogatepass")
    return '"' + "".join(
        f"\\u{int.from_bytes(units[i:i + 2], 'big'):04X}" for i in range(0, len(units), 2)
    ) + '"'


ID_ENCODINGS = {
    "canonical": encode_basestring,
    "ascii": json.dumps,
    "escaped": _escape_all,
    "raw": lambda text: f'"{text}"',  # raw controls, quotes and backslashes
}
EXTRA_MEMBERS = [
    ("x", "1"), ("kind", '"citation"'), ("kind", '"cit\\u0061tion"'), ("citing", '"P1"'),
    ("cited", '"p-2"'),
]
LINE_PADDING = [" ", "\t", "\r", "\ufeff", "\x0b", "\x1c", "\x85", "\u3000"]


@st.composite
def citation_lines(draw):
    """A citation record in write_corpus's form, or with its ids escaped
    or left raw, members reordered, added, repeated or missing, spaced
    separators, padding around the line, or a blank line."""
    def member(key):
        text = draw(st.sampled_from(LINE_PUB_IDS + LINE_STRAY_IDS))
        return key, draw(st.sampled_from(list(ID_ENCODINGS.values())))(text)

    members = [("kind", '"citation"'), member("citing"), member("cited")]
    if draw(st.booleans()):
        members += draw(st.lists(st.sampled_from(EXTRA_MEMBERS), min_size=1, max_size=2))
    if draw(st.booleans()):
        members = draw(st.permutations(members))
    if draw(st.integers(0, 9)) == 0:
        del members[draw(st.integers(0, len(members) - 1))]
    separator, colon = draw(st.sampled_from([(",", ":"), (", ", ": ")]))
    line = "{" + separator.join(f'"{key}"{colon}{value}' for key, value in members) + "}"
    if draw(st.booleans()):
        line = draw(st.sampled_from(LINE_PADDING)) + line + draw(st.sampled_from(LINE_PADDING))
    return "" if draw(st.integers(0, 19)) == 0 else line


def _citation_header() -> bytes:
    publications = [simple_pub(pid, 2000, ["R"]) for pid in LINE_PUB_IDS]
    return serialize_corpus(make_corpus([simple_researcher("R")], publications, [])).encode()


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _strings(item)


def _reference_parse(data: bytes):
    """The citation pairs of ``data``, or the first error as (class, message),
    reading each line with json.loads and each edge in turn."""
    pairs = []
    for lineno, raw in enumerate(io.BytesIO(data), start=1):
        where = f"<bytes> line {lineno}"
        try:
            line = raw.decode("utf-8").strip(" \t\r\n")  # JSON's whitespace
        except UnicodeDecodeError as exc:
            return MalformedRecord, f"{where}: invalid UTF-8 ({exc})"
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            return MalformedRecord, f"{where}: invalid JSON ({exc.msg})"
        if any("\ud800" <= ch <= "\udfff" for text in _strings(record) for ch in text):
            reason = "string holds a lone surrogate (an unpaired \\u escape)"
            return MalformedRecord, f"{where}: {reason}"
        kind = record.get("kind")
        if kind in ("researcher", "publication"):  # the header
            continue
        if kind != "citation":
            return MalformedRecord, f"{where}: unknown record kind {kind!r}"
        for key in ("citing", "cited"):
            if not isinstance(record.get(key), str) or not record[key]:
                return MalformedRecord, f"{where}: missing or empty string field {key!r}"
        pairs.append((record["citing"], record["cited"]))
    seen = set()
    for citing, cited in pairs:
        for pid, side in ((citing, "citing"), (cited, "cited")):
            if pid not in LINE_PUB_IDS:
                return DanglingReference, f"unresolved identifier {pid!r} ({side} side of citation)"
        if citing == cited:
            return MalformedRecord, f"publication {citing!r} cannot cite itself"
        if (citing, cited) in seen:
            return DuplicateId, "duplicate identifier " + repr(f"{citing}->{cited}")
        seen.add((citing, cited))
    return pairs


def _parse_outcome(data: bytes):
    try:
        return [tuple(edge) for edge in parse_corpus(data).edges]
    except (MalformedRecord, DanglingReference, DuplicateId) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(citation_lines(), max_size=8))
@example(lines=['{"kind":"citation","citing":"t\tab","cited":"P1"}'])  # raw tab: invalid JSON
@example(lines=['{"kind":"citation","citing":"\\u00e9","cited":"P1"}'])  # an escape
@example(lines=['{"kind":"citation","citing":"P1","cited":"p-2"}'] * 2)
def test_citation_pattern_matches_json_loads(lines):
    """parse_corpus, whose canonical citation lines skip the JSON decoder,
    gives the edges, in order, or the error, message and line, that
    json.loads line by line gives."""
    data = _citation_header() + "\n".join(lines).encode("utf-8", "surrogatepass")
    assert _parse_outcome(data) == _reference_parse(data)


# Researcher and publication lines: write_corpus's form, or with strings
# escaped or raw, values the record rules refuse or that only the decoder
# reads, members reordered, added, repeated or missing, spaced separators,
# padding, or blank lines.
RECORD_IDS = ["R1", "r 2", 'q"x', "b\\s", "\u00e9", "\U0001f600"]
RECORD_PUB_IDS = ["P1", "p 2", "t\tab", "\u2028"]
RECORD_NAMES = ["Ann Lee", "Lee, Ann", 'A "B" C', "back\\slash", "ctl\x01", "\u00e9 \u00fc"]
RECORD_ORCIDS = ["0000-0002-1825-0097", " 0000-0001 ", "https://orcid.org/0000-0001", "", "  "]
VALID_INTS = ["1990", "2024"]
ODD_INTS = ["null", "-5", "-0", "0", "007", "1990.0", "1e3", "true", '"1990"', "-01"]


@st.composite
def record_lines(draw):
    # one odd draw in `noise` on average; none at all in half the examples,
    # so that many of them hold a valid corpus
    noise = draw(st.sampled_from([0, 0, 30, 8]))

    def odd():
        return noise > 0 and draw(st.integers(1, noise)) == 1

    def string(text):
        encode = ID_ENCODINGS["canonical"] if not odd() else draw(
            st.sampled_from(list(ID_ENCODINGS.values()))
        )
        return encode(text)

    def string_list(pool, unique, odd_lists):
        if odd():
            return draw(st.sampled_from(["[]", '[""]', "null", '"Ann"', "[1]", *odd_lists]))
        entries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=unique))
        return "[" + ",".join(map(string, entries)) + "]"

    def choice(valid, others):
        return draw(st.sampled_from(others if odd() else valid))

    def line(members):
        if odd():
            members += draw(st.lists(st.sampled_from(
                [("x", "1"), ("kind", '"researcher"'), ("id", '"R1"'), ("year", "2000"),
                 ("names", '["N"]'), ("citation_count", "2")]
            ), min_size=1, max_size=2))
        if odd():
            members = draw(st.permutations(members))
        if odd():
            del members[draw(st.integers(0, len(members) - 1))]
        separator, colon = (", ", ": ") if odd() else (",", ":")
        text = "{" + separator.join(f'"{key}"{colon}{value}' for key, value in members) + "}"
        if odd():
            text = draw(st.sampled_from(LINE_PADDING)) + text + draw(st.sampled_from(LINE_PADDING))
        return text

    disciplines = [string(d.value) for d in Discipline]
    rids = draw(st.lists(st.sampled_from(RECORD_IDS), min_size=1, max_size=4, unique=True))
    lines = [
        line([
            ("kind", '"researcher"'),
            ("id", string(rid)),
            ("names", string_list(RECORD_NAMES, False, ['["  "]', '["N","\\t"]'])),
            ("orcid", "null" if draw(st.booleans()) else string(choice(RECORD_ORCIDS[:1], RECORD_ORCIDS))),
            ("gender", choice(["null", '"male"', '"female"'], ['"unreported"', '"other"', '""', "1"])),
            ("discipline", choice(disciplines, ['"Alchemy"', "null", '"other"'])),
            ("first_pub_year", choice(["null", *VALID_INTS], ODD_INTS)),
        ])
        for rid in rids
    ]
    for pid in draw(st.lists(st.sampled_from(RECORD_PUB_IDS), max_size=4, unique=True)):
        members = [
            ("kind", '"publication"'),
            ("id", string(pid)),
            ("title", string(choice(["A title", 'Say "hi"', "\u00e9t\u00e9"], ["", "\x00"]))),
            ("year", choice(VALID_INTS, ODD_INTS)),
            ("authors", string_list(rids, True, [f"[{string(rids[0])},{string(rids[0])}]", '["Z"]'])),
            ("discipline", choice(disciplines, ['"Alchemy"', "null"])),
        ]
        if draw(st.booleans()):
            members.append(("citation_count", choice(["0", "3", "12"], ODD_INTS)))
        lines.append(line(members))
    if odd():
        lines = draw(st.permutations(lines))
    if odd():
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " \t", "\xa0"])))
    return lines


def _reference_records(data: bytes):
    """The records of ``data`` in input order, or the first error as (class,
    message): each line read with json.loads, then the decoder path's record
    builders and the corpus check."""
    researchers, publications, ids = [], [], {}
    try:
        for lineno, raw in enumerate(io.BytesIO(data), start=1):
            where = f"<bytes> line {lineno}"
            line = raw.decode("utf-8").strip(" \t\r\n")
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(f"invalid JSON ({exc.msg})", where) from None
            if not isinstance(record, dict):
                raise MalformedRecord("record must be a JSON object", where)
            kind = record.get("kind")
            if kind == "researcher":
                researchers.append(_researcher_from_json(record, where, ids))
            elif kind == "publication":
                publications.append(_publication_from_json(record, where, ids))
            else:
                raise MalformedRecord(f"unknown record kind {kind!r}", where)
        make_corpus(researchers, publications, [])
    except (MalformedRecord, DanglingReference, DuplicateId) as exc:
        return type(exc), str(exc)
    return researchers, publications


def _parsed_records(data: bytes):
    try:
        corpus = parse_corpus(data)
    except (MalformedRecord, DanglingReference, DuplicateId) as exc:
        return type(exc), str(exc)
    return list(corpus.researchers.values()), list(corpus.publications.values())


@settings(max_examples=300, deadline=None)
@given(lines=record_lines())
@example(lines=[  # an escaped backslash: the pattern's strings hold none
    '{"kind":"researcher","id":"b\\\\s","names":["N"],"orcid":null,"gender":null,'
    '"discipline":"Other","first_pub_year":null}'
])
@example(lines=[
    '{"kind":"researcher","id":"R1","names":["A","B"],"orcid":"https://orcid.org/1",'
    '"gender":"female","discipline":"Other","first_pub_year":1990}',
    '{"kind":"publication","id":"P1","title":"T","year":2000,"authors":["R1"],'
    '"discipline":"Other","citation_count":3}',
])
def test_record_patterns_match_json_loads(lines):
    """parse_corpus, whose canonical researcher and publication lines skip
    the JSON decoder, gives the records, in order, or the error, message
    and line, that json.loads line by line gives."""
    data = "\n".join(lines).encode("utf-8")
    assert _parsed_records(data) == _reference_records(data)


def _assert_ids_shared(corpus):
    assert corpus.edges
    for edge in corpus.edges:
        assert edge.citing_id is corpus.publications[edge.citing_id].pub_id
        assert edge.cited_id is corpus.publications[edge.cited_id].pub_id
    for pub in corpus.publications.values():
        for author_id in pub.author_ids:
            assert author_id is corpus.researchers[author_id].researcher_id


@pytest.mark.parametrize(
    "source", ["path", "text stream", "byte stream", "reversed lines", "csv bundle"]
)
def test_parsed_ids_share_one_string(source, researcher_mid_path):
    text = researcher_mid_path.read_text(encoding="utf-8")
    if source == "path":
        corpus = parse_corpus(researcher_mid_path)
    elif source == "text stream":
        corpus = parse_corpus(io.StringIO(text))
    elif source == "byte stream":
        corpus = parse_corpus(io.BytesIO(text.encode("utf-8")))
    elif source == "reversed lines":  # citations before the records they name
        corpus = parse_corpus(io.StringIO("\n".join(reversed(text.splitlines()))))
    else:
        corpus = parse_corpus(DATA / "csv_bundle", CorpusFormat.CSV_BUNDLE)
    _assert_ids_shared(corpus)


@pytest.mark.parametrize(
    "record, field",
    [
        (simple_researcher("R"), "researcher_id"),
        (simple_pub("P", 2000, ["R"]), "year"),
        (CitationEdge("P1", "P2"), "cited_id"),
        (Provenance("test", "jsonl/1"), "source"),
    ],
    ids=lambda value: type(value).__name__ if not isinstance(value, str) else value,
)
def test_records_are_slotted_and_frozen(record, field):
    assert not hasattr(record, "__dict__")
    # a tuple's AttributeError; dataclasses.FrozenInstanceError subclasses it
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
