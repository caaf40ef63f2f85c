"""A per-edge self-citation classifier written from the README's rule.

Two corpus records are one person when they share a researcher id, or when
both carry the same ORCID. Ids and ORCIDs are compared directly, not
through ``person_key``, so a fault in the key (a dropped namespace, say)
shows up as a disagreement with the counting path.
"""

from selfcite.corpus import CitationEdge, Corpus, Researcher
from selfcite.identity import SelfCitationMode


def one_person(a: Researcher, b: Researcher) -> bool:
    return a.researcher_id == b.researcher_id or (
        a.orcid is not None and a.orcid == b.orcid
    )


def is_self_citation(
    corpus: Corpus,
    edge: CitationEdge,
    focal: str,
    mode: SelfCitationMode = SelfCitationMode.FOCAL,
) -> bool:
    """Whether ``edge`` is a self-citation of ``focal``, an author of the
    cited paper: in focal mode the focal researcher is one person with an
    author of the citing paper, in any-overlap mode any cited author is."""

    def authors(pub_id):
        return [corpus.researchers[a] for a in corpus.publications[pub_id].author_ids]

    if mode is SelfCitationMode.FOCAL:
        cited = [corpus.researchers[focal]]
    else:
        cited = authors(edge.cited_id)
    return any(one_person(a, b) for a in cited for b in authors(edge.citing_id))
