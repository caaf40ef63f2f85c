"""Field-specific parameter profiles and their estimation.

Disciplines differ in how much self-citation is normal, so the no-penalty
threshold beta should track disciplinary norms rather than a single global
constant. The estimator here sets beta to the median self-citation ratio
of the discipline's cited researchers: the median is robust to the heavy
upper tail of SCR distributions, and a minimum cohort size keeps it from
being driven by a handful of profiles. Alpha and gamma are never
estimated; they pass through from the supplied template.

Profiles live in a JSON file mapping discipline names to parameter
records, for example::

    {"Engineering": {"alpha": 0.5, "beta": 0.22, "gamma": 1.5,
                     "basis": "estimated", "sample_size": 700}}
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Corpus, Discipline, json_int, json_number
from .identity import SelfCitationMode, count_citations
from .metrics import InvalidParams, MetricParams, compute_scr

MIN_COHORT = 10


class Basis(Enum):
    DEFAULT = "default"
    ESTIMATED = "estimated"


class InsufficientCohort(ValueError):
    """Too few cited researchers in the discipline to estimate from."""

    def __init__(self, count: int):
        self.count = count
        self.needed = MIN_COHORT
        super().__init__(
            f"cohort has {count} cited researchers, need at least {MIN_COHORT}"
        )


class MalformedProfileFile(ValueError):
    def __init__(self, reason: str, path):
        self.reason = reason
        self.path = path
        super().__init__(f"{path}: {reason}")


@dataclass(frozen=True)
class FieldProfile:
    discipline: Discipline
    params: MetricParams
    basis: Basis = Basis.DEFAULT
    sample_size: int = 0

    def __post_init__(self):
        if self.sample_size < 0:
            raise InvalidParams(
                f"sample_size must be >= 0, got {self.sample_size}"
            )


# The catch-all discipline gets no profile of its own; researchers filed
# under it fall back to the default parameters.
PROFILED_DISCIPLINES = tuple(d for d in Discipline if d is not Discipline.OTHER)


def default_profiles() -> dict[Discipline, FieldProfile]:
    return {
        d: FieldProfile(discipline=d, params=MetricParams())
        for d in PROFILED_DISCIPLINES
    }


def estimate_field_beta(
    corpus: Corpus,
    discipline: Discipline,
    params_template: MetricParams = MetricParams(),
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> FieldProfile:
    """Estimate beta as the discipline cohort's median self-citation ratio.

    The cohort is every researcher filed under the discipline with at
    least one incoming citation. Below ``MIN_COHORT`` members the median
    is too unstable to trust and ``InsufficientCohort`` is raised. An
    even-sized cohort takes the mean of the two central values. Alpha and
    gamma are copied from the template unchanged.
    """
    ratios = []
    for rid in sorted(corpus.researchers):
        if corpus.researchers[rid].discipline is not discipline:
            continue
        counts = count_citations(corpus, rid, mode)
        if counts.total > 0:
            ratios.append(compute_scr(counts.self_total, counts.total))
    if len(ratios) < MIN_COHORT:
        raise InsufficientCohort(len(ratios))
    return FieldProfile(
        discipline=discipline,
        params=MetricParams(
            alpha=params_template.alpha,
            beta=statistics.median(ratios),
            gamma=params_template.gamma,
        ),
        basis=Basis.ESTIMATED,
        sample_size=len(ratios),
    )


def load_profiles(path) -> dict[Discipline, FieldProfile]:
    """Load a profile file.

    Unknown discipline names, invalid parameter values, and estimated
    profiles with cohorts below the stable minimum are all rejected with
    ``MalformedProfileFile``. As in a corpus file, ``sample_size`` must be
    a JSON integer and the parameters JSON numbers. A file that cannot be
    read raises its ``OSError``: ``FileNotFoundError``, carrying the path,
    when it is absent.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedProfileFile(f"cannot parse profile file: {exc}", path) from None
    if not isinstance(raw, dict):
        raise MalformedProfileFile("profile file must be a JSON object", path)

    profiles: dict[Discipline, FieldProfile] = {}
    for name, record in raw.items():
        try:
            discipline = Discipline(name)
        except ValueError:
            raise MalformedProfileFile(f"unknown discipline {name!r}", path) from None
        if not isinstance(record, dict):
            raise MalformedProfileFile(f"entry for {name!r} must be an object", path)
        try:
            params = MetricParams(
                alpha=json_number(record["alpha"], "alpha"),
                beta=json_number(record["beta"], "beta"),
                gamma=json_number(record["gamma"], "gamma"),
            )
            basis = Basis(record.get("basis", "default"))
            sample_size = json_int(record.get("sample_size", 0), "sample_size")
            profile = FieldProfile(
                discipline=discipline,
                params=params,
                basis=basis,
                sample_size=sample_size,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedProfileFile(f"entry for {name!r}: {exc}", path) from None
        if profile.basis is Basis.ESTIMATED and profile.sample_size < MIN_COHORT:
            raise MalformedProfileFile(
                f"entry for {name!r} claims an estimate from only "
                f"{profile.sample_size} researchers (minimum {MIN_COHORT})",
                path,
            )
        profiles[discipline] = profile
    return profiles


def profiles_to_json(profiles: dict[Discipline, FieldProfile]) -> dict:
    """JSON-ready mapping of discipline name to profile, in sorted key order."""
    return {
        discipline.value: {
            "alpha": profile.params.alpha,
            "beta": profile.params.beta,
            "gamma": profile.params.gamma,
            "basis": profile.basis.value,
            "sample_size": profile.sample_size,
        }
        for discipline, profile in sorted(
            profiles.items(), key=lambda item: item[0].value
        )
    }


def save_profiles(profiles: dict[Discipline, FieldProfile], path) -> None:
    """Write profiles as JSON; stable key order, so round-trips are bit-exact."""
    Path(path).write_text(
        json.dumps(profiles_to_json(profiles), indent=2, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="\n",
    )
