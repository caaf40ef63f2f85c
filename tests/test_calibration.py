import json
import random

import pytest

from selfcite.calibration import (
    Basis,
    FieldProfile,
    InsufficientCohort,
    MIN_COHORT,
    MalformedProfileFile,
    PROFILED_DISCIPLINES,
    default_profiles,
    estimate_field_beta,
    load_profiles,
    save_profiles,
)
from selfcite.corpus import Discipline
from selfcite.metrics import InvalidParams, MetricParams

from conftest import corpus_with_ratios


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def test_median_odd_cohort():
    corpus = corpus_with_ratios([(1, 20)] * 5 + [(1, 10)] + [(3, 10)] * 5)
    profile = estimate_field_beta(corpus, Discipline.ENGINEERING)
    assert profile.params.beta == 0.10
    assert profile.basis is Basis.ESTIMATED
    assert profile.sample_size == 11


def test_median_even_cohort_averages_middle_pair():
    corpus = corpus_with_ratios([(0, 10)] * 5 + [(1, 10), (3, 10)] + [(5, 10)] * 5)
    profile = estimate_field_beta(corpus, Discipline.ENGINEERING)
    assert profile.params.beta == pytest.approx(0.2, abs=1e-15)


def test_all_equal_ratios_give_exact_beta():
    corpus = corpus_with_ratios([(2, 10)] * MIN_COHORT)
    profile = estimate_field_beta(corpus, Discipline.ENGINEERING)
    assert profile.params.beta == 0.2


def test_uncited_researchers_excluded_from_cohort():
    # (0, 0) contributes a researcher with no citations at all
    corpus = corpus_with_ratios([(1, 10)] * 5 + [(2, 10)] + [(3, 10)] * 5 + [(0, 0)])
    profile = estimate_field_beta(corpus, Discipline.ENGINEERING)
    assert profile.sample_size == 11
    assert profile.params.beta == 0.2


def test_insufficient_cohort():
    corpus = corpus_with_ratios([(1, 10)] * 9)
    with pytest.raises(InsufficientCohort) as excinfo:
        estimate_field_beta(corpus, Discipline.ENGINEERING)
    assert excinfo.value.count == 9
    assert excinfo.value.needed == MIN_COHORT


def test_wrong_discipline_has_empty_cohort():
    corpus = corpus_with_ratios([(1, 10)] * 12)
    with pytest.raises(InsufficientCohort) as excinfo:
        estimate_field_beta(corpus, Discipline.HUMANITIES)
    assert excinfo.value.count == 0


def test_estimate_permutation_invariant():
    ratios = [(i % 4, 10) for i in range(12)]
    base = estimate_field_beta(
        corpus_with_ratios(ratios), Discipline.ENGINEERING
    )
    shuffled = ratios[:]
    random.Random(7).shuffle(shuffled)
    other = estimate_field_beta(
        corpus_with_ratios(shuffled), Discipline.ENGINEERING
    )
    assert base.params.beta == other.params.beta
    assert base.sample_size == other.sample_size


def test_alpha_gamma_pass_through():
    corpus = corpus_with_ratios([(2, 10)] * 10)
    template = MetricParams(alpha=0.9, beta=0.5, gamma=2.5)
    profile = estimate_field_beta(corpus, Discipline.ENGINEERING, template)
    assert profile.params.alpha == 0.9
    assert profile.params.gamma == 2.5
    assert profile.params.beta == 0.2


# ---------------------------------------------------------------------------
# profiles and their file format
# ---------------------------------------------------------------------------


def test_default_profiles_cover_named_disciplines():
    profiles = default_profiles()
    assert set(profiles) == set(PROFILED_DISCIPLINES)
    assert Discipline.OTHER not in profiles
    for profile in profiles.values():
        assert profile.basis is Basis.DEFAULT
        assert profile.params == MetricParams()


def test_profile_rejects_negative_sample_size():
    with pytest.raises(InvalidParams):
        FieldProfile(
            discipline=Discipline.ENGINEERING,
            params=MetricParams(),
            sample_size=-1,
        )


def test_save_load_roundtrip(tmp_path):
    profiles = default_profiles()
    profiles[Discipline.ENGINEERING] = FieldProfile(
        discipline=Discipline.ENGINEERING,
        params=MetricParams(beta=0.22),
        basis=Basis.ESTIMATED,
        sample_size=700,
    )
    path = tmp_path / "profiles.json"
    save_profiles(profiles, path)
    loaded = load_profiles(path)
    assert loaded == profiles
    save_profiles(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def write_profile_file(tmp_path, payload):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_rejects_unknown_discipline(tmp_path):
    path = write_profile_file(
        tmp_path,
        {"Astrology": {"alpha": 0.5, "beta": 0.1, "gamma": 1.5}},
    )
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


def test_load_rejects_invalid_params(tmp_path):
    path = write_profile_file(
        tmp_path,
        {"Engineering": {"alpha": -1.0, "beta": 0.1, "gamma": 1.5}},
    )
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sample_size", 12.7),
        ("sample_size", True),
        ("sample_size", "12"),
        ("alpha", True),
        ("alpha", "0.5"),
        ("beta", "0.1"),
        ("gamma", "2"),
        pytest.param("gamma", 10**400, id="gamma-beyond-float"),
    ],
)
def test_load_refuses_numbers_the_corpus_rules_refuse(tmp_path, field, value):
    record = {"alpha": 0.5, "beta": 0.1, "gamma": 1.5, "sample_size": 12}
    record[field] = value
    path = write_profile_file(tmp_path, {"Engineering": record})
    with pytest.raises(MalformedProfileFile, match=field):
        load_profiles(path)


def test_load_rejects_missing_key(tmp_path):
    path = write_profile_file(tmp_path, {"Engineering": {"alpha": 0.5}})
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


def test_load_rejects_small_estimated_cohort(tmp_path):
    path = write_profile_file(
        tmp_path,
        {
            "Engineering": {
                "alpha": 0.5,
                "beta": 0.2,
                "gamma": 1.5,
                "basis": "estimated",
                "sample_size": 9,
            }
        },
    )
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


def test_load_accepts_estimated_cohort_at_minimum(tmp_path):
    path = write_profile_file(
        tmp_path,
        {
            "Engineering": {
                "alpha": 0.5,
                "beta": 0.2,
                "gamma": 1.5,
                "basis": "estimated",
                "sample_size": 10,
            }
        },
    )
    profiles = load_profiles(path)
    assert profiles[Discipline.ENGINEERING].sample_size == 10


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


def test_load_missing_file_is_not_found(tmp_path):
    path = tmp_path / "absent.json"
    with pytest.raises(FileNotFoundError) as excinfo:
        load_profiles(path)
    assert excinfo.value.filename == str(path)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(MalformedProfileFile) as excinfo:
        load_profiles(path)
    assert excinfo.value.path == path


def test_load_rejects_non_object_top_level(tmp_path):
    path = write_profile_file(tmp_path, ["Engineering"])
    with pytest.raises(MalformedProfileFile):
        load_profiles(path)


def test_malformed_error_carries_path(tmp_path):
    path = write_profile_file(tmp_path, {"Nope": {}})
    with pytest.raises(MalformedProfileFile) as excinfo:
        load_profiles(path)
    assert str(path) in str(excinfo.value)
