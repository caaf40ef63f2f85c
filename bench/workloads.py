"""Seeded inputs for the benchmark's three workloads.

Every input is a pure function of the workload's seed. The program only
ever sees the files written here (generator specs) and the CSV bundle
that :func:`overlay_teams` derives from a ``selfcite synth`` corpus.

six-pipeline   the six-discipline spec at 100 researchers per group, no
               compounding: synth -> calibrate -> analyze --profiles.
               Single-author papers in JSONL, so analyze splits about
               evenly between parse and counting.
team-overlap   a smaller six-discipline synth corpus whose single authors
               the benchmark turns into overlapping teams of 1-6 authors,
               with duplicate researcher records sharing an ORCID,
               researchers without ORCID and name look-alikes, written as
               a CSV bundle; calibrate and analyze run in any-overlap
               mode. The only workload where the ORCID rung and
               multi-author pairs run and the only CSV input.
compound-wide  the six-discipline spec with the CLI's default compounding
               (rate 3.0, horizon 5): ~130 one-paper, never-cited
               researchers per real one, so cost moves into compounding,
               per-researcher overhead and a large reports.json.

``analyze`` always gets ``--reference-year`` set to the spec's last year:
without it career stages follow the calendar and the cohort tables would
change on New Year's Day. Compound-wide's synth bytes still depend on the
calendar, because compounding caps citation years at the program's
``max_valid_year()`` (today + 1); the benchmark records that cap with every
result and compares synth bytes only within one invocation.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

# (discipline, target mean SCR), as in the repository's six-discipline spec.
SIX_GROUPS = (
    ("ComputerScience", 0.18),
    ("LifeSciences", 0.15),
    ("PhysicalSciences", 0.20),
    ("SocialSciences", 0.14),
    ("Engineering", 0.22),
    ("Humanities", 0.09),
)
TARGET_MEAN_H = 10
YEARS = {"start": 1985, "end": 2024}
REFERENCE_YEAR = YEARS["end"]


@dataclass(frozen=True)
class Workload:
    name: str
    per_group: int
    compounding: bool
    mode: str  # self-citation mode passed to calibrate and analyze
    teams: bool  # overlay teams and write a CSV bundle
    check_targets: bool  # synth must meet the spec's per-group SCR targets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("six-pipeline", 100, False, "focal", False, True),
        Workload("team-overlap", 20, False, "any-overlap", True, False),
        Workload("compound-wide", 25, True, "focal", False, False),
    )
}


def generator_spec(workload: Workload, seed: int) -> dict:
    """The ``selfcite synth`` spec for a workload. Compounding workloads
    leave rate and horizon out, so the CLI's defaults apply."""
    spec = {
        "seed": seed,
        "years": dict(YEARS),
        "groups": [
            {
                "discipline": discipline,
                "n_researchers": workload.per_group,
                "target_mean_scr": scr,
                "target_mean_h": TARGET_MEAN_H,
            }
            for discipline, scr in SIX_GROUPS
        ],
    }
    if not workload.compounding:
        spec["compounding_rate"] = 0.0
    return spec


def spec_targets(spec: dict) -> list[tuple[float, int]]:
    return [(g["target_mean_scr"], g["n_researchers"]) for g in spec["groups"]]


# ---------------------------------------------------------------------------
# Team overlay
# ---------------------------------------------------------------------------

FAMILY_NAMES = (
    "Smith", "Chen", "Garcia", "Müller", "Kim", "Okafor", "Rossi", "Novak",
    "Nguyen", "Silva", "Cohen", "Ivanova", "Tanaka", "Brown", "Haddad", "Singh",
)
GIVEN_NAMES = (
    "John", "Jane", "Wei", "Maria", "Ana", "James", "Jia", "Omar",
    "Lena", "Luca", "Priya", "Sofia", "Kenji", "Amara", "Jonas", "Mei",
)
AUTHORS_PER_PAPER = (1, 2, 3, 4, 5, 6)
AUTHOR_WEIGHTS = (0.25, 0.25, 0.2, 0.15, 0.1, 0.05)
ORCID_SHARE = 0.8  # people with an ORCID
ALT_RECORD_SHARE = 0.25  # of ORCID holders: a second record with the same ORCID
SECOND_TEAM_SHARE = 0.3  # people who also belong to a second team
TEAM_SIZES = (3, 7)


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def overlay_teams(synth_corpus, seed: int, out_dir) -> None:
    """Rewrite a single-author synth corpus as a team corpus (CSV bundle).

    Each synth researcher becomes a person with a drawn name and, usually,
    an ORCID; a quarter of ORCID holders get a second researcher record
    that shares it. People form teams of 3-7 within a discipline, and some
    join a second team. Every paper keeps its synth author and gains 0-5
    coauthors from that author's teams; each person appears on a paper
    under one of their records, picked at random. Citations are unchanged.
    Names come from small pools, so distinct people such as "John Smith"
    and "J. Smith" would match by name; only ids and ORCIDs may decide.
    """
    rng = random.Random(seed)
    people, pubs, edges = [], [], []
    for rec in _read_jsonl(synth_corpus):
        {"researcher": people, "publication": pubs, "citation": edges}[rec["kind"]].append(rec)

    records: list[dict] = []
    handles: dict[str, list[str]] = {}  # person -> their researcher record ids
    for serial, person in enumerate(people):
        rid = person["id"]
        given, family = rng.choice(GIVEN_NAMES), rng.choice(FAMILY_NAMES)
        orcid = f"0000-0002-{serial // 10000:04d}-{serial % 10000:04d}" if rng.random() < ORCID_SHARE else ""
        base = {
            "orcid": orcid,
            "gender": person["gender"] or "",
            "discipline": person["discipline"],
        }
        records.append(dict(base, id=rid, names=f"{given} {family}|{family}, {given[0]}.",
                            first_pub_year=person["first_pub_year"]))
        handles[rid] = [rid]
        if orcid and rng.random() < ALT_RECORD_SHARE:
            alt = f"{rid}-alt"
            records.append(dict(base, id=alt, names=f"{given[0]}. {family}", first_pub_year=""))
            handles[rid].append(alt)

    by_discipline: dict[str, list[str]] = {}
    for person in people:
        by_discipline.setdefault(person["discipline"], []).append(person["id"])
    teams: list[list[str]] = []
    for members in by_discipline.values():
        rng.shuffle(members)
        start = 0
        while start < len(members):
            size = rng.randint(*TEAM_SIZES)
            teams.append(members[start:start + size])
            start += size
    teams_of: dict[str, list[int]] = {}
    for ti, team in enumerate(teams):
        for rid in team:
            teams_of[rid] = [ti]
    for rid in sorted(teams_of):
        if rng.random() < SECOND_TEAM_SHARE:
            ti = rng.randrange(len(teams))
            if ti not in teams_of[rid]:
                teams_of[rid].append(ti)
                teams[ti].append(rid)

    for pub in pubs:
        lead = pub["authors"][0]
        pool = sorted({m for ti in teams_of[lead] for m in teams[ti]} - {lead})
        k = rng.choices(AUTHORS_PER_PAPER, AUTHOR_WEIGHTS)[0]
        team = [lead] + rng.sample(pool, min(k - 1, len(pool)))
        pub["authors"] = [rng.choice(handles[rid]) for rid in team]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "researchers.csv",
               ["id", "names", "orcid", "gender", "discipline", "first_pub_year"],
               ([r["id"], r["names"], r["orcid"], r["gender"], r["discipline"],
                 r["first_pub_year"] if r["first_pub_year"] is not None else ""]
                for r in records))
    _write_csv(out_dir / "publications.csv",
               ["id", "title", "year", "authors", "discipline", "citation_count"],
               ([p["id"], p["title"], p["year"], "|".join(p["authors"]), p["discipline"], ""]
                for p in pubs))
    _write_csv(out_dir / "citations.csv", ["citing", "cited"],
               ([e["citing"], e["cited"]] for e in edges))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def input_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size
