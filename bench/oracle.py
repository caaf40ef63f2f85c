"""Independent output oracle for the benchmark.

Rebuilds, from the input corpus alone, what ``selfcite analyze`` and
``selfcite calibrate`` must write, and compares it with what they wrote.
Nothing here imports ``selfcite``: the corpus readers, the self-citation
rule and every metric are written again from the README's definitions.

The self-citation rule: an author's *key* is their ORCID when they have
one and their researcher id otherwise. In focal mode a citation to a
researcher's paper is a self-citation when the researcher's key is among
the citing paper's author keys; in any-overlap mode when the two papers'
key sets intersect. Names never decide: two records with distinct ids
and no shared ORCID are two people, however alike their names.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_ALPHA = 0.5
DEFAULT_BETA = 0.1
DEFAULT_GAMMA = 1.5
MIN_COHORT = 10
DISCIPLINES = (
    "ComputerScience",
    "LifeSciences",
    "PhysicalSciences",
    "SocialSciences",
    "Engineering",
    "Humanities",
    "Other",
)
PROFILED = DISCIPLINES[:-1]
COHORT_FILES = {
    "cohort_discipline.csv": "discipline",
    "cohort_gender.csv": "gender",
    "cohort_career_stage.csv": "career_stage",
}


class OracleMismatch(AssertionError):
    """The program's output disagrees with the oracle."""


@dataclass
class Person:
    rid: str
    orcid: str | None
    gender: str | None
    discipline: str
    first_pub_year: int | None

    @property
    def key(self) -> str:
        return self.orcid or self.rid


@dataclass
class Data:
    researchers: dict[str, Person]
    pubs: dict[str, tuple[int, tuple[str, ...]]]  # id -> (year, author ids)
    edges: list[tuple[str, str]]  # (citing, cited)

    @property
    def records(self) -> int:
        return len(self.researchers) + len(self.pubs) + len(self.edges)


def _gender(value) -> str | None:
    return None if value in (None, "", "unreported") else value


def load_jsonl(path) -> Data:
    researchers: dict[str, Person] = {}
    pubs: dict[str, tuple[int, tuple[str, ...]]] = {}
    edges: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            kind = rec["kind"]
            if kind == "researcher":
                researchers[rec["id"]] = Person(
                    rec["id"], rec.get("orcid"), _gender(rec.get("gender")),
                    rec["discipline"], rec.get("first_pub_year"),
                )
            elif kind == "publication":
                pubs[rec["id"]] = (rec["year"], tuple(rec["authors"]))
            else:
                edges.append((rec["citing"], rec["cited"]))
    return Data(researchers, pubs, edges)


def load_csv_bundle(base) -> Data:
    base = Path(base)

    def rows(name):
        with open(base / name, encoding="utf-8", newline="") as fh:
            yield from csv.DictReader(fh)

    researchers = {
        row["id"]: Person(
            row["id"],
            row["orcid"] or None,
            _gender(row["gender"]),
            row["discipline"],
            int(row["first_pub_year"]) if row["first_pub_year"].strip() else None,
        )
        for row in rows("researchers.csv")
    }
    pubs = {
        row["id"]: (int(row["year"]), tuple(a for a in row["authors"].split("|") if a))
        for row in rows("publications.csv")
    }
    edges = [(row["citing"], row["cited"]) for row in rows("citations.csv")]
    return Data(researchers, pubs, edges)


def load(path) -> Data:
    return load_csv_bundle(path) if Path(path).is_dir() else load_jsonl(path)


@dataclass
class Counts:
    """Per-researcher (total, self) tallies by cited paper and citing year."""

    per_pub: dict[str, list[int]] = field(default_factory=dict)
    per_year: dict[int, list[int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(t for t, _ in self.per_pub.values())

    @property
    def self_total(self) -> int:
        return sum(s for _, s in self.per_pub.values())


def author_keys(data: Data) -> dict[str, set[str]]:
    """Publication id -> the keys of its authors."""
    people = data.researchers
    return {pid: {people[a].key for a in authors} for pid, (_, authors) in data.pubs.items()}


def count(data: Data, mode: str) -> dict[str, Counts]:
    """One pass over the edges; ``mode`` is "focal" or "any-overlap"."""
    people = data.researchers
    counts = {rid: Counts() for rid in people}
    for pid, (_, authors) in data.pubs.items():
        for aid in authors:
            counts[aid].per_pub[pid] = [0, 0]
    keys = author_keys(data)
    for citing, cited in data.edges:
        year = data.pubs[citing][0]
        citing_keys = keys[citing]
        overlap = not citing_keys.isdisjoint(keys[cited])
        for aid in data.pubs[cited][1]:
            is_self = overlap if mode == "any-overlap" else people[aid].key in citing_keys
            tally = counts[aid]
            tally.per_pub[cited][0] += 1
            tally.per_pub[cited][1] += is_self
            bucket = tally.per_year.setdefault(year, [0, 0])
            bucket[0] += 1
            bucket[1] += is_self
    return counts


def self_edge_share(data: Data) -> float:
    """Share of edges whose citing and cited papers share an author key."""
    if not data.edges:
        return 0.0
    keys = author_keys(data)
    hits = sum(not keys[c].isdisjoint(keys[d]) for c, d in data.edges)
    return hits / len(data.edges)


def h_index(values) -> int:
    ranked = sorted(values, reverse=True)
    return sum(1 for rank, v in enumerate(ranked, start=1) if v >= rank)


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def expected_report(rid: str, c: Counts, params: tuple[float, float, float]) -> dict:
    alpha, beta, gamma = params
    totals = [t for t, _ in c.per_pub.values()]
    selves = [s for _, s in c.per_pub.values()]
    h = h_index(totals)
    h_ext = h_index([t - s for t, s in c.per_pub.values()])
    scr = ratio(sum(selves), sum(totals))
    scai = float(h) if scr <= beta else max(0.0, h - alpha * (scr - beta) ** gamma * h)
    return {
        "researcher_id": rid,
        "h_index": h,
        "h_index_external": h_ext,
        "i10_index": sum(1 for t in totals if t >= 10),
        "total_citations": sum(totals),
        "self_citations": sum(selves),
        "scr": scr,
        "scai": scai,
        "s_index": h_index(selves),
        "inflation": None if h_ext == 0 else (h - h_ext) / h_ext,
        "yearly_scr": {
            str(year): ratio(s, t) for year, (t, s) in sorted(c.per_year.items())
        },
    }


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (
            isinstance(a, (int, float))
            and isinstance(b, (int, float))
            and math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
        )
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def expected_betas(data: Data, counts: dict[str, Counts]) -> dict[str, tuple[float, int]]:
    """Discipline -> (beta, sample size); disciplines below the cohort
    minimum are absent (they keep the default profile)."""
    betas = {}
    for discipline in PROFILED:
        ratios = [
            ratio(counts[rid].self_total, counts[rid].total)
            for rid in sorted(data.researchers)
            if data.researchers[rid].discipline == discipline and counts[rid].total > 0
        ]
        if len(ratios) >= MIN_COHORT:
            betas[discipline] = (statistics.median(ratios), len(ratios))
    return betas


def check_profiles(profiles_path, data: Data, counts: dict[str, Counts]) -> None:
    """The profile file written by ``calibrate`` must carry the median SCR
    of each discipline's cited researchers as beta."""
    written = json.loads(Path(profiles_path).read_text(encoding="utf-8"))
    betas = expected_betas(data, counts)
    if sorted(written) != sorted(PROFILED):
        raise OracleMismatch(f"profiles cover {sorted(written)}, expected {PROFILED}")
    for discipline in PROFILED:
        entry = written[discipline]
        beta, n = betas.get(discipline, (DEFAULT_BETA, 0))
        basis = "estimated" if discipline in betas else "default"
        want = {"alpha": DEFAULT_ALPHA, "beta": beta, "gamma": DEFAULT_GAMMA,
                "basis": basis, "sample_size": n}
        if not _same(entry, want):
            raise OracleMismatch(f"profile {discipline}: got {entry}, expected {want}")


def _params_by_discipline(profiles_path) -> dict[str, tuple[float, float, float]]:
    if profiles_path is None or not Path(profiles_path).exists():
        return {}
    raw = json.loads(Path(profiles_path).read_text(encoding="utf-8"))
    return {d: (p["alpha"], p["beta"], p["gamma"]) for d, p in raw.items()}


def check_reports(
    reports_path, data: Data, counts: dict[str, Counts], profiles_path=None
) -> list[dict]:
    """Every researcher's report must match the oracle's; returns the reports."""
    params = _params_by_discipline(profiles_path)
    defaults = (DEFAULT_ALPHA, DEFAULT_BETA, DEFAULT_GAMMA)
    written = json.loads(Path(reports_path).read_text(encoding="utf-8"))
    ids = [r["researcher_id"] for r in written]
    if ids != sorted(data.researchers):
        raise OracleMismatch(
            f"reports cover {len(ids)} researchers in some order, expected "
            f"{len(data.researchers)} sorted by id"
        )
    for got in written:
        rid = got["researcher_id"]
        person = data.researchers[rid]
        want = expected_report(rid, counts[rid], params.get(person.discipline, defaults))
        if not _same(got, want):
            diff = {k: (got.get(k), want[k]) for k in want if not _same(got.get(k), want[k])}
            raise OracleMismatch(f"report {rid}: (got, expected) {diff}")
    return written


def _first_pub_year(data: Data, rid: str, by_author: dict[str, list[int]]) -> int | None:
    person = data.researchers[rid]
    if person.first_pub_year is not None:
        return person.first_pub_year
    years = by_author.get(rid)
    return min(years) if years else None


def _career_stage(first: int | None, reference_year: int) -> str | None:
    if first is None:
        return None
    years = reference_year - first
    return "EarlyCareer" if years < 10 else "MidCareer" if years <= 20 else "Senior"


def expected_cohorts(data: Data, reports: list[dict], reference_year: int) -> dict[str, str]:
    """File name -> CSV text of the three cohort tables."""
    by_author: dict[str, list[int]] = {}
    for year, authors in data.pubs.values():
        for aid in authors:
            by_author.setdefault(aid, []).append(year)
    group_of = {
        "discipline": lambda p: p.discipline,
        "gender": lambda p: p.gender,
        "career_stage": lambda p: _career_stage(
            _first_pub_year(data, p.rid, by_author), reference_year
        ),
    }
    order = {
        "discipline": DISCIPLINES,
        "gender": ("male", "female"),
        "career_stage": ("EarlyCareer", "MidCareer", "Senior"),
    }
    tables = {}
    for filename, dimension in COHORT_FILES.items():
        buckets: dict[str | None, list[dict]] = {}
        for report in reports:
            value = group_of[dimension](data.researchers[report["researcher_id"]])
            buckets.setdefault(value, []).append(report)
        ordered = [v for v in order[dimension] if v in buckets]
        if None in buckets:
            ordered.append(None)
        lines = ["group,avg_scr,mean_inflation_pct,n"]
        for value in ordered:
            group = buckets[value]
            label = "Unreported" if value is None else (
                value.capitalize() if dimension == "gender" else value
            )
            inflations = [r["inflation"] for r in group if r["inflation"] is not None]
            cell = f"{sum(inflations) / len(inflations) * 100:.2f}" if inflations else ""
            mean_scr = sum(r["scr"] for r in group) / len(group)
            lines.append(f"{label},{mean_scr:.4f},{cell},{len(group)}")
        tables[filename] = "\n".join(lines) + "\n"
    return tables


def check_analysis(
    out_dir, data: Data, counts: dict[str, Counts], reference_year: int, profiles_path=None
) -> None:
    """Check ``reports.json`` and the three cohort tables under ``out_dir``."""
    out_dir = Path(out_dir)
    reports = check_reports(out_dir / "reports.json", data, counts, profiles_path)
    for filename, text in expected_cohorts(data, reports, reference_year).items():
        got = (out_dir / filename).read_text(encoding="utf-8")
        if got != text:
            raise OracleMismatch(f"{filename}: got {got!r}, expected {text!r}")


def check_synth_targets(data: Data, counts: dict[str, Counts], groups, tolerance=0.02) -> None:
    """Realized mean SCR of each spec group lies within ``tolerance`` of its
    target. ``groups`` lists (target_mean_scr, n_researchers) in spec
    order; the generator names group g's members R{g}-{i:04d}."""
    for gi, (target, n) in enumerate(groups):
        members = [f"R{gi}-{ri:04d}" for ri in range(n)]
        realized = sum(ratio(counts[r].self_total, counts[r].total) for r in members) / n
        if abs(realized - target) > tolerance:
            raise OracleMismatch(
                f"group {gi}: realized mean SCR {realized:.4f}, target {target}"
            )


def check_compounding(data: Data, max_year: int) -> int:
    """Every compounding paper (id ``CP*``) has one fresh author and one
    edge, to a paper that received a self-citation, dated no later than
    ``max_year``. Returns the number of compounding edges."""
    keys = author_keys(data)
    self_cited = {d for c, d in data.edges if not keys[c].isdisjoint(keys[d])}
    added = 0
    for citing, cited in data.edges:
        if not citing.startswith("CP"):
            continue
        added += 1
        year, authors = data.pubs[citing]
        if len(authors) != 1 or not authors[0].startswith("CR"):
            raise OracleMismatch(f"compounding paper {citing} has authors {authors}")
        if cited not in self_cited:
            raise OracleMismatch(f"compounding paper {citing} cites {cited}, never self-cited")
        if year > max_year:
            raise OracleMismatch(f"compounding paper {citing} dated {year} > {max_year}")
    compounding_pubs = sum(1 for pid in data.pubs if pid.startswith("CP"))
    if compounding_pubs != added:
        raise OracleMismatch(f"{compounding_pubs} compounding papers, {added} edges")
    return added
