from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

from selfcite.corpus import (
    CitationEdge,
    Corpus,
    Discipline,
    Gender,
    Provenance,
    Publication,
    Researcher,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True, scope="session")
def _checkout_on_subprocess_path():
    """Subprocesses running ``python -m selfcite`` import this checkout's package."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield


@pytest.fixture
def two_papers_path() -> Path:
    return DATA / "two_papers_one_selfcite.jsonl"


@pytest.fixture
def researcher_mid_path() -> Path:
    return DATA / "researcher_mid.jsonl"


def make_corpus(researchers, publications, edges, source="test") -> Corpus:
    return Corpus.from_parts(
        researchers, publications, edges, Provenance(source, "jsonl/1")
    )


def simple_researcher(rid: str, **kwargs) -> Researcher:
    kwargs.setdefault("name_variants", (f"Author {rid}",))
    kwargs.setdefault("discipline", Discipline.COMPUTER_SCIENCE)
    return Researcher(researcher_id=rid, **kwargs)


def simple_pub(pid: str, year: int, authors, **kwargs) -> Publication:
    kwargs.setdefault("title", f"Paper {pid}")
    kwargs.setdefault("discipline", Discipline.COMPUTER_SCIENCE)
    return Publication(pub_id=pid, year=year, author_ids=tuple(authors), **kwargs)


def corpus_with_ratios(
    ratios: list[tuple[int, int]],
    discipline: Discipline = Discipline.ENGINEERING,
) -> Corpus:
    """One researcher per (self, total) pair, each with one cited paper.

    Researcher Ri has paper Ri-P0 (year 2000) receiving exactly ``total``
    citations, ``self`` of them from Ri's own follow-up papers and the
    rest from a dedicated external citer's papers.
    """
    researchers = []
    publications = []
    edges = []
    ext = simple_researcher("EXT", discipline=Discipline.OTHER)
    researchers.append(ext)
    for i, (self_count, total) in enumerate(ratios):
        assert 0 <= self_count <= total
        rid = f"R{i:03d}"
        researchers.append(simple_researcher(rid, discipline=discipline))
        target = f"{rid}-P0"
        publications.append(simple_pub(target, 2000, [rid], discipline=discipline))
        for j in range(self_count):
            citing = f"{rid}-S{j:03d}"
            publications.append(simple_pub(citing, 2001, [rid], discipline=discipline))
            edges.append(CitationEdge(citing, target))
        for j in range(total - self_count):
            citing = f"{rid}-E{j:03d}"
            publications.append(simple_pub(citing, 2002, ["EXT"]))
            edges.append(CitationEdge(citing, target))
    return make_corpus(researchers, publications, edges)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def small_corpora(draw, orcids: bool = False) -> Corpus:
    """Small random corpora satisfying every structural invariant.

    With ``orcids``, about half the records carry an ORCID drawn from a
    pool of two plain ORCIDs and every record id. So records can share an
    ORCID (one person on two records), and an ORCID can equal another
    record's id, as R0 with ORCID "R1" beside R1: two people, not one.
    """
    n_researchers = draw(st.integers(min_value=1, max_value=6))
    rids = [f"R{i}" for i in range(n_researchers)]
    orcid_pool = st.one_of(st.none(), st.sampled_from(["0000-1", "0000-2", *rids]))
    researchers = [
        Researcher(
            researcher_id=rid,
            name_variants=(f"Name {rid}",),
            gender=draw(st.sampled_from(list(Gender))),
            discipline=draw(st.sampled_from(list(Discipline))),
            orcid=draw(orcid_pool) if orcids else None,
        )
        for rid in rids
    ]
    n_pubs = draw(st.integers(min_value=1, max_value=10))
    publications = []
    for i in range(n_pubs):
        authors = draw(
            st.lists(st.sampled_from(rids), min_size=1, max_size=3, unique=True)
        )
        year = draw(st.integers(min_value=1990, max_value=2024))
        publications.append(
            Publication(
                pub_id=f"P{i}",
                title=f"Title {i}",
                year=year,
                author_ids=tuple(authors),
                discipline=draw(st.sampled_from(list(Discipline))),
            )
        )
    pids = [p.pub_id for p in publications]
    possible = [(a, b) for a in pids for b in pids if a != b]
    pairs = draw(
        st.lists(st.sampled_from(possible), max_size=min(20, len(possible)), unique=True)
    ) if possible else []
    edges = [CitationEdge(citing, cited) for citing, cited in pairs]
    return make_corpus(researchers, publications, edges)
