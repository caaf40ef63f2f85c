import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings

from selfcite.cohort import CareerStage, career_stage
from selfcite.corpus import (
    CitationEdge,
    Discipline,
    Gender,
    WarningCode,
    max_valid_year,
    serialize_corpus,
    validate_corpus,
)
from selfcite.identity import SelfCitationMode, count_citations
from selfcite.metrics import compute_h_index
from selfcite import synth
from selfcite.synth import (
    GeneratorSpec,
    GroupSpec,
    InvalidRate,
    InvalidSpec,
    YearRange,
    apply_compounding,
    generate_synthetic_corpus,
    spec_from_json,
)

from conftest import DATA, make_corpus, simple_pub, simple_researcher, small_corpora
from reference import is_self_citation

YEARS = YearRange(1985, 2024)


def one_group_spec(seed=7, n=4, scr=0.2, h=5, **group_kwargs):
    group = GroupSpec(
        discipline=Discipline.COMPUTER_SCIENCE,
        n_researchers=n,
        target_mean_scr=scr,
        target_mean_h=h,
        **group_kwargs,
    )
    return GeneratorSpec(seed=seed, groups=(group,), years=YEARS)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------


def test_spec_requires_groups():
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, groups=(), years=YEARS)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n": 0},
        {"scr": 1.5},
        {"scr": -0.1},
        {"h": -1},
        {"h": float("nan")},
        {"h": float("inf")},
        {"scr": float("nan")},
    ],
)
def test_spec_rejects_bad_group_values(kwargs):
    with pytest.raises(InvalidSpec):
        one_group_spec(**kwargs)


def test_spec_rejects_inverted_years():
    with pytest.raises(InvalidSpec):
        GeneratorSpec(
            seed=1,
            groups=(GroupSpec(Discipline.OTHER, 1, 0.1, 1.0),),
            years=YearRange(2024, 2020),
        )


def test_spec_rejects_future_years():
    with pytest.raises(InvalidSpec):
        GeneratorSpec(
            seed=1,
            groups=(GroupSpec(Discipline.OTHER, 1, 0.1, 1.0),),
            years=YearRange(2000, max_valid_year() + 1),
        )


def test_spec_rejects_infeasible_stage():
    # a senior career needs at least 21 years before the range end
    with pytest.raises(InvalidSpec):
        GeneratorSpec(
            seed=1,
            groups=(
                GroupSpec(
                    Discipline.OTHER, 1, 0.1, 1.0,
                    career_stage=CareerStage.SENIOR,
                ),
            ),
            years=YearRange(2020, 2024),
        )


def test_spec_rejects_bad_compounding():
    group = GroupSpec(Discipline.OTHER, 1, 0.1, 1.0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec(seed=1, groups=(group,), years=YEARS, compounding_rate=-1.0)
    with pytest.raises(InvalidSpec):
        GeneratorSpec(
            seed=1, groups=(group,), years=YEARS, compounding_horizon_years=0
        )
    for rate in (float("nan"), float("inf")):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(seed=1, groups=(group,), years=YEARS, compounding_rate=rate)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

RAW_SPEC = {
    "seed": 11,
    "years": {"start": 1990, "end": 2020},
    "groups": [
        {
            "discipline": "Engineering",
            "n_researchers": 3,
            "target_mean_scr": 0.22,
            "target_mean_h": 6,
            "gender": "female",
            "career_stage": "MidCareer",
        }
    ],
}


def test_spec_from_json_roundtrip():
    spec = spec_from_json(RAW_SPEC)
    assert spec.seed == 11
    assert spec.years == YearRange(1990, 2020)
    group = spec.groups[0]
    assert group.discipline is Discipline.ENGINEERING
    assert group.gender is Gender.FEMALE
    assert group.career_stage is CareerStage.MID
    assert spec.compounding_rate == 3.0
    assert spec.compounding_horizon_years == 5


def test_spec_from_json_optional_fields_default():
    raw = {
        "seed": 1,
        "years": {"start": 2000, "end": 2010},
        "groups": [
            {
                "discipline": "Other",
                "n_researchers": 1,
                "target_mean_scr": 0.0,
                "target_mean_h": 1,
            }
        ],
    }
    group = spec_from_json(raw).groups[0]
    assert group.gender is Gender.UNREPORTED
    assert group.career_stage is None


@pytest.mark.parametrize(
    "mutate",
    [
        lambda raw: raw.pop("seed"),
        lambda raw: raw.pop("groups"),
        lambda raw: raw["years"].pop("end"),
        lambda raw: raw["groups"][0].update(discipline="Alchemy"),
        lambda raw: raw["groups"][0].update(career_stage="Emeritus"),
        lambda raw: raw["groups"][0].update(n_researchers="many"),
        # numbers follow the corpus rules: no fractions, bools or strings
        lambda raw: raw.update(seed=1.9),
        lambda raw: raw.update(seed=True),
        lambda raw: raw.update(seed="1"),
        lambda raw: raw["groups"][0].update(n_researchers=2.9),
        lambda raw: raw["groups"][0].update(n_researchers="2"),
        lambda raw: raw["groups"][0].update(target_mean_h="5"),
        lambda raw: raw["groups"][0].update(target_mean_scr=True),
        lambda raw: raw["years"].update(start=1990.6),
        lambda raw: raw.update(compounding_horizon_years=2.5),
        lambda raw: raw.update(compounding_rate="3"),
        lambda raw: raw["groups"][0].update(target_mean_h=10**400),
    ],
)
def test_spec_from_json_rejects_malformed(mutate):
    import copy

    raw = copy.deepcopy(RAW_SPEC)
    mutate(raw)
    with pytest.raises(InvalidSpec):
        spec_from_json(raw)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generation_deterministic():
    spec = one_group_spec(seed=123, n=6)
    a = serialize_corpus(generate_synthetic_corpus(spec))
    b = serialize_corpus(generate_synthetic_corpus(spec))
    assert a == b


def test_different_seeds_differ():
    a = serialize_corpus(generate_synthetic_corpus(one_group_spec(seed=1)))
    b = serialize_corpus(generate_synthetic_corpus(one_group_spec(seed=2)))
    assert a != b


def test_no_time_travel_citations():
    corpus = generate_synthetic_corpus(one_group_spec(seed=5, n=8, scr=0.4))
    warnings = validate_corpus(corpus)
    assert not [w for w in warnings if w.code is WarningCode.TIME_TRAVEL_CITATION]


def test_zero_target_means_no_self_citations():
    spec = one_group_spec(seed=9, n=5, scr=0.0)
    corpus = generate_synthetic_corpus(spec)
    for gi in range(1):
        for ri in range(5):
            counts = count_citations(corpus, f"R{gi}-{ri:04d}")
            assert counts.self_total == 0


def test_full_target_means_only_self_citations():
    spec = one_group_spec(seed=9, n=5, scr=1.0)
    corpus = generate_synthetic_corpus(spec)
    for ri in range(5):
        counts = count_citations(corpus, f"R0-{ri:04d}")
        assert counts.self_total == counts.total


def test_group_mean_scr_near_target():
    spec = one_group_spec(seed=31, n=120, scr=0.18, h=8)
    corpus = generate_synthetic_corpus(spec)
    ratios = []
    for ri in range(120):
        counts = count_citations(corpus, f"R0-{ri:04d}")
        if counts.total:
            ratios.append(counts.self_total / counts.total)
    mean = sum(ratios) / len(ratios)
    assert abs(mean - 0.18) <= 0.02


def test_stage_and_gender_pass_through():
    spec = GeneratorSpec(
        seed=17,
        groups=(
            GroupSpec(
                Discipline.HUMANITIES, 10, 0.1, 4.0,
                gender=Gender.FEMALE, career_stage=CareerStage.SENIOR,
            ),
        ),
        years=YEARS,
    )
    corpus = generate_synthetic_corpus(spec)
    for ri in range(10):
        researcher = corpus.researcher(f"R0-{ri:04d}")
        assert researcher.gender is Gender.FEMALE
        assert researcher.discipline is Discipline.HUMANITIES
        assert career_stage(researcher.first_pub_year, YEARS.end) \
            is CareerStage.SENIOR


def test_explicit_first_year_matches_publications():
    corpus = generate_synthetic_corpus(one_group_spec(seed=3, n=6, scr=0.3))
    for rid, pubs in corpus.publications_by_author.items():
        researcher = corpus.researcher(rid)
        earliest = min(corpus.publications[p].year for p in pubs)
        assert researcher.first_pub_year == earliest


def test_single_researcher_gets_external_pool():
    corpus = generate_synthetic_corpus(one_group_spec(seed=2, n=1, scr=0.1))
    assert "EXT-0001" in corpus.researchers
    counts = count_citations(corpus, "R0-0000")
    externals = counts.total - counts.self_total
    # every external citation must come from the pool researcher
    ext_edge_count = sum(
        1
        for edge in corpus.edges
        if corpus.publications[edge.citing_id].author_ids == ("EXT-0001",)
    )
    assert ext_edge_count == externals


def test_multi_researcher_has_no_pool():
    corpus = generate_synthetic_corpus(one_group_spec(seed=2, n=3))
    assert "EXT-0001" not in corpus.researchers


def test_provenance_records_seed():
    corpus = generate_synthetic_corpus(one_group_spec(seed=55))
    assert corpus.provenance.source == "synthetic:seed=55"


def test_multiple_groups_sized_correctly():
    spec = GeneratorSpec(
        seed=8,
        groups=(
            GroupSpec(Discipline.ENGINEERING, 3, 0.22, 5.0),
            GroupSpec(Discipline.HUMANITIES, 2, 0.09, 3.0),
        ),
        years=YEARS,
    )
    corpus = generate_synthetic_corpus(spec)
    eng = [r for r in corpus.researchers.values()
           if r.discipline is Discipline.ENGINEERING]
    hum = [r for r in corpus.researchers.values()
           if r.discipline is Discipline.HUMANITIES]
    assert len(eng) == 3 and len(hum) == 2


def _group(discipline, n, scr, h, **extra):
    return {
        "discipline": discipline,
        "n_researchers": n,
        "target_mean_scr": scr,
        "target_mean_h": h,
        **extra,
    }


def _raw_spec(*groups):
    return {
        "seed": 2024,
        "years": {"start": 1985, "end": 2024},
        "compounding_rate": 0.0,
        "groups": list(groups),
    }


def _six_disciplines(per_group):
    raw = json.loads((DATA / "six_disciplines_spec.json").read_text(encoding="utf-8"))
    for group in raw["groups"]:
        group["n_researchers"] = per_group
    return raw


# sha1 of the corpus `selfcite synth` writes for the spec. The one spec
# that compounds ends early enough that no compounding year reaches the
# cap (today + 1), so no digest depends on the calendar. ROADMAP items 2
# (exact group SCR means) and 3 (pinned as-of year) will change these
# digests on purpose; whoever changes them records it in CHANGES.md.
PINNED_SYNTH = [
    pytest.param(
        json.loads((DATA / "e2e_spec.json").read_text(encoding="utf-8")),
        "d72017f0d8bf04f6ba756bc70f942a6fb3728027",
        id="e2e_spec",
    ),
    pytest.param(
        _six_disciplines(30),
        "dab723b5d440d259ddcdb14fc5fa4c389953ffec",
        id="six_disciplines_30",
    ),
    pytest.param(
        # h 0 and 0.5 give one-paper researchers, whose block year draw is
        # empty; SCR 0 and 1 are the binomial's end points
        _raw_spec(
            _group("Humanities", 5, 0.1, 0),
            _group("Engineering", 8, 0.2, 0.5),
            _group("LifeSciences", 5, 0.0, 6),
            _group("PhysicalSciences", 5, 1.0, 6),
        ),
        "cf5ebdb70d1cfbf3cc6ab912cdcd38ded6ca8c68",
        id="edge_targets",
    ),
    pytest.param(
        # one researcher: every external citation comes from the pool
        _raw_spec(_group("ComputerScience", 1, 0.2, 8)),
        "a3c9f08e005ded5053e0acc6d9533e0ec53602f8",
        id="single_researcher",
    ),
    pytest.param(
        _raw_spec(
            _group("SocialSciences", 4, 0.15, 4, gender="female", career_stage="EarlyCareer"),
            _group("SocialSciences", 4, 0.15, 7, gender="male", career_stage="MidCareer"),
            _group("Engineering", 4, 0.22, 12, career_stage="Senior"),
        ),
        "285af459d15188023ed5d59eda5c54735ee2db77",
        id="career_stages",
    ),
    pytest.param(
        {
            **_raw_spec(
                _group("Engineering", 6, 0.22, 6),
                _group("Humanities", 4, 0.09, 4, career_stage="Senior"),
            ),
            "years": {"start": 1980, "end": 2015},
            "compounding_rate": 3.0,
            "compounding_horizon_years": 5,
        },
        "543efd6ea05c4f41a05743739cc48b46342d375c",
        id="compounded",
    ),
]


@pytest.mark.parametrize("raw, sha1", PINNED_SYNTH)
def test_synth_bytes_pinned(raw, sha1):
    spec = spec_from_json(raw)
    corpus = generate_synthetic_corpus(spec)
    if spec.compounding_rate > 0:
        # a compounding year is at most years.end + horizon, so the cap
        # never binds and the bytes do not follow the calendar
        assert spec.years.end + spec.compounding_horizon_years < max_valid_year()
        corpus = apply_compounding(
            corpus, spec.compounding_rate, spec.compounding_horizon_years, seed=spec.seed
        )
    assert hashlib.sha1(serialize_corpus(corpus).encode("utf-8")).hexdigest() == sha1


@pytest.mark.parametrize("capacity", [synth.CITER_PUB_CAPACITY, 1])
def test_citing_publications_hold_at_most_capacity(monkeypatch, capacity):
    monkeypatch.setattr(synth, "CITER_PUB_CAPACITY", capacity)
    corpus = generate_synthetic_corpus(spec_from_json(_six_disciplines(30)))
    references = Counter(e.citing_id for e in corpus.edges if e.citing_id.startswith("Q"))
    # some synthesized citing publication fills up, and none overflows
    assert max(references.values()) == capacity


def test_pool_citer_never_cites_a_work_twice(monkeypatch):
    """With one researcher, every external citation comes from the one pool
    citer, and at a capacity no bundle fills, a work finds every earlier
    bundle still open: only the last-target rule keeps its edges unique."""
    raw = _raw_spec(_group("ComputerScience", 1, 0.2, 8))
    default = generate_synthetic_corpus(spec_from_json(raw))
    monkeypatch.setattr(synth, "CITER_PUB_CAPACITY", 10_000)
    # Corpus._from_columns raises DuplicateId on a repeated pair
    corpus = generate_synthetic_corpus(spec_from_json(raw))
    assert len(set(corpus.edges)) == len(corpus.edges)
    # with one researcher every count is drawn before the first bundle
    assert Counter(e.cited_id for e in corpus.edges) == Counter(
        e.cited_id for e in default.edges
    )


# ---------------------------------------------------------------------------
# compounding
# ---------------------------------------------------------------------------


def chain_corpus(n_pubs=6):
    """One researcher whose pubs cite their predecessor: n-1 self edges."""
    r = simple_researcher("S")
    pubs = [simple_pub(f"P{i:03d}", 2005, ["S"]) for i in range(n_pubs)]
    edges = [
        CitationEdge(f"P{i + 1:03d}", f"P{i:03d}") for i in range(n_pubs - 1)
    ]
    return make_corpus([r], pubs, edges)


def shared_orcid_corpus():
    """J1 and J2 share an ORCID and cite each other's papers; X is cited externally."""
    people = [
        simple_researcher("J1", orcid="0000-7"),
        simple_researcher("J2", orcid="0000-7"),
        simple_researcher("X"),
    ]
    pubs = [simple_pub(f"P{i:03d}", 2005, ["J1" if i % 2 else "J2"]) for i in range(6)]
    pubs.append(simple_pub("X000", 2005, ["X"]))
    edges = [CitationEdge(f"P{i + 1:03d}", f"P{i:03d}") for i in range(5)]
    edges.append(CitationEdge("P000", "X000"))
    return make_corpus(people, pubs, edges)


def orcid_equals_id_corpus():
    """R0's ORCID is spelled like R1's id, yet they are two people: R1's
    citation of R0's last paper is external."""
    people = [simple_researcher("R0", orcid="R1"), simple_researcher("R1")]
    pubs = [simple_pub(f"P{i:03d}", 2005, ["R0"]) for i in range(4)]
    pubs.append(simple_pub("Q000", 2005, ["R1"]))
    edges = [CitationEdge(f"P{i + 1:03d}", f"P{i:03d}") for i in range(3)]
    edges.append(CitationEdge("Q000", "P003"))
    return make_corpus(people, pubs, edges)


def self_cited_works(corpus):
    """Cited ids of the any-overlap self-citations, classified edge by edge
    by the reference classifier."""
    return {
        e.cited_id
        for e in corpus.edges
        if is_self_citation(
            corpus,
            e,
            corpus.publications[e.cited_id].author_ids[0],
            SelfCitationMode.ANY_OVERLAP,
        )
    }


def test_compounding_rejects_bad_rate():
    corpus = chain_corpus()
    with pytest.raises(InvalidRate):
        apply_compounding(corpus, -0.5)
    with pytest.raises(InvalidRate):
        apply_compounding(corpus, 1.0, horizon_years=0)


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_compounding_rejects_non_finite_rate(rate):
    with pytest.raises(InvalidRate):
        apply_compounding(chain_corpus(), rate)


def test_compounding_zero_rate_is_identity():
    corpus = chain_corpus()
    assert apply_compounding(corpus, 0.0) is corpus


def test_compounding_only_adds():
    corpus = chain_corpus()
    grown = apply_compounding(corpus, 3.0, seed=4)
    assert set(corpus.researchers) <= set(grown.researchers)
    assert set(corpus.publications) <= set(grown.publications)
    assert set(corpus.edges) <= set(grown.edges)


@pytest.mark.parametrize(
    "build", [chain_corpus, shared_orcid_corpus, orcid_equals_id_corpus]
)
def test_compounding_new_edges_target_self_cited_works(build):
    corpus = build()
    self_cited = self_cited_works(corpus)
    grown = apply_compounding(corpus, 3.0, seed=4)
    old_edges = set(corpus.edges)
    new_edges = [e for e in grown.edges if e not in old_edges]
    assert new_edges
    for edge in new_edges:
        assert edge.cited_id in self_cited
        assert edge.citing_id.startswith("CP")
        citer = grown.publications[edge.citing_id].author_ids
        assert len(citer) == 1 and citer[0].startswith("CR")


@settings(max_examples=40, deadline=None)
@given(corpus=small_corpora(orcids=True))
def test_compounding_targets_match_per_edge_classification(corpus):
    # at rate 30 a self-citation spawns nothing with probability e**-30
    grown = apply_compounding(corpus, 30.0, seed=1)
    old_edges = set(corpus.edges)
    targets = {e.cited_id for e in grown.edges if e not in old_edges}
    assert targets == self_cited_works(corpus)


def test_compounding_deterministic():
    corpus = chain_corpus()
    a = serialize_corpus(apply_compounding(corpus, 2.0, seed=11))
    b = serialize_corpus(apply_compounding(corpus, 2.0, seed=11))
    assert a == b


def test_compounding_monotone_in_h():
    corpus = chain_corpus(10)
    grown = apply_compounding(corpus, 4.0, seed=1)

    def h_of(c):
        return compute_h_index(count_citations(c, "S").totals)

    assert h_of(grown) >= h_of(corpus)
    assert count_citations(grown, "S").total >= count_citations(corpus, "S").total


def test_compounding_respects_year_cap():
    corpus = chain_corpus()
    grown = apply_compounding(corpus, 5.0, horizon_years=50, seed=2)
    cap = max_valid_year()
    assert all(p.year <= cap for p in grown.publications.values())


def test_compounding_years_fall_in_horizon():
    corpus = chain_corpus()
    grown = apply_compounding(corpus, 5.0, horizon_years=3, seed=6)
    old = set(corpus.publications)
    for pid, pub in grown.publications.items():
        if pid not in old:
            # every self edge in the chain fixture is dated 2005
            assert 2006 <= pub.year <= 2008
