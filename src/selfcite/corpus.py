"""Citation corpus data model and file adapters.

A corpus is an immutable snapshot of three record collections: researchers,
publications, and citation edges between publications. Two on-disk formats
are supported:

* JSON Lines, one self-describing record per line with a ``"kind"``
  discriminator in ``{"researcher", "publication", "citation"}``:

  - ``{"kind":"researcher","id":...,"names":[...],"orcid":null|"...",
    "gender":"male"|"female"|null,"discipline":...,"first_pub_year":null|int}``
  - ``{"kind":"publication","id":...,"title":...,"year":int,
    "authors":[ids],"discipline":...}`` with an optional ``"citation_count"``
    carrying a pre-counted total from the source database
  - ``{"kind":"citation","citing":id,"cited":id}``

  Files are UTF-8 with LF line endings. Unknown keys are ignored so the
  format stays forward-extensible.

* A CSV bundle: a directory holding ``researchers.csv``, ``publications.csv``
  and ``citations.csv`` with the same vocabulary. Each row becomes the JSON
  record of its kind and follows the JSONL field rules. Multi-valued cells
  (name variants, author lists) join their entries with ``|``; a blank
  integer cell means null; integer cells are plain decimals (an optional
  ``-`` and ASCII digits); a row with fewer cells than its header is an
  error that names file and row.

In both formats an ``orcid`` loses surrounding whitespace and
``http(s)://orcid.org/`` prefixes, and a blank one means null;
``Corpus.from_parts`` accepts no other form.

Loading is all-or-nothing: any structural problem raises and no corpus is
returned, so downstream metrics never run on a silently truncated graph.
"""

from __future__ import annotations

import csv
import io
import json
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import islice, repeat
from json.encoder import encode_basestring
from json.scanner import make_scanner
from operator import add, eq, mod, mul
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

MIN_YEAR = 1500


def max_valid_year() -> int:
    """Upper bound for publication years: next calendar year."""
    return date.today().year + 1


class Discipline(Enum):
    COMPUTER_SCIENCE = "ComputerScience"
    LIFE_SCIENCES = "LifeSciences"
    PHYSICAL_SCIENCES = "PhysicalSciences"
    SOCIAL_SCIENCES = "SocialSciences"
    ENGINEERING = "Engineering"
    HUMANITIES = "Humanities"
    OTHER = "Other"


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"
    UNREPORTED = "unreported"


class CorpusFormat(Enum):
    JSONL = "jsonl"
    CSV_BUNDLE = "csv_bundle"


FORMAT_VERSION = "1"


class CorpusError(Exception):
    """Base class for corpus loading and lookup failures."""


class MalformedRecord(CorpusError):
    """A record is syntactically or semantically invalid.

    ``location`` names the line or row when the record came from a file.
    """

    def __init__(self, reason: str, location: str | None = None):
        self.reason = reason
        self.location = location
        where = f"{location}: " if location else ""
        super().__init__(f"{where}{reason}")


class DanglingReference(CorpusError):
    """An identifier does not resolve to any record in the corpus."""

    def __init__(self, identifier: str, context: str):
        self.identifier = identifier
        super().__init__(f"unresolved identifier {identifier!r} ({context})")


class DuplicateId(CorpusError):
    """An identifier (or citation pair) appears more than once."""

    def __init__(self, identifier: str):
        self.identifier = identifier
        super().__init__(f"duplicate identifier {identifier!r}")


class UnknownResearcher(CorpusError):
    def __init__(self, researcher_id: str):
        self.researcher_id = researcher_id
        super().__init__(f"unknown researcher {researcher_id!r}")


@dataclass(frozen=True, slots=True)
class Publication:
    pub_id: str
    title: str
    year: int
    author_ids: tuple[str, ...]
    discipline: Discipline
    source_citation_count: Optional[int] = None


class CitationEdge(NamedTuple):
    citing_id: str
    cited_id: str


@dataclass(frozen=True, slots=True)
class Researcher:
    researcher_id: str
    name_variants: tuple[str, ...]
    orcid: Optional[str] = None
    gender: Gender = Gender.UNREPORTED
    first_pub_year: Optional[int] = None
    discipline: Discipline = Discipline.OTHER


def person_key(researcher: Researcher) -> tuple[str, str]:
    """Equal keys mean one person: two records are one person when they
    share a researcher id, or when both carry the same ORCID.

    Namespaced, so an ORCID equal to another record's id merges no one.
    """
    if researcher.orcid:
        return ("orcid", researcher.orcid)
    return ("id", researcher.researcher_id)


@dataclass(frozen=True, slots=True)
class Provenance:
    source: str
    format_version: str


class WarningCode(Enum):
    TIME_TRAVEL_CITATION = "time_travel_citation"
    ORPHAN_RESEARCHER = "orphan_researcher"
    OTHER_DISCIPLINE = "other_discipline"


@dataclass(frozen=True)
class CorpusWarning:
    code: WarningCode
    subject: str
    detail: str


@dataclass(frozen=True, eq=False)
class Corpus:
    """Validated, read-only citation corpus.

    Instances are only created through :meth:`from_parts` (or the parsers,
    which delegate to the same check), so every corpus in circulation
    satisfies referential integrity. Treat the contained collections as
    read-only; the derived indexes below are cached against the loaded
    state.

    Publications are numbered in sorted-id order, so integer order is id
    order: ``publication_ids[n]`` is number ``n``'s id and
    ``publication_numbers`` maps back. The citation graph is two
    ``array('i')`` columns of publication numbers in input order, citation
    ``i`` being ``citing[i]`` citing ``cited[i]``. ``incoming_edges`` is
    the same graph as a CSR index ``(offsets, citers)``: the numbers citing
    publication ``n`` are ``citers[offsets[n]:offsets[n + 1]]``, ascending.
    """

    publications: dict[str, Publication]
    researchers: dict[str, Researcher]
    publication_ids: tuple[str, ...]
    publication_numbers: dict[str, int]
    citing: array
    cited: array
    incoming_edges: tuple[array, array]
    provenance: Provenance

    @classmethod
    def from_parts(
        cls,
        researchers: Iterable[Researcher],
        publications: Iterable[Publication],
        edges: Iterable[CitationEdge],
        provenance: Provenance,
    ) -> "Corpus":
        """Assemble and fully validate a corpus; raises on any violation."""
        citing: list[str] = []
        cited: list[str] = []
        for e in edges:  # by field name, so a bare tuple is refused
            citing.append(e.citing_id)
            cited.append(e.cited_id)
        return cls._from_columns(researchers, publications, citing, cited, provenance)

    @classmethod
    def _from_columns(
        cls,
        researchers: Iterable[Researcher],
        publications: Iterable[Publication],
        citing_ids: Sequence[str],
        cited_ids: Sequence[str],
        provenance: Provenance,
    ) -> "Corpus":
        """:meth:`from_parts` with citation ``i`` given as ``citing_ids[i]``
        citing ``cited_ids[i]``: the check every corpus passes."""
        year_hi = max_valid_year()

        researcher_map: dict[str, Researcher] = {}
        for r in researchers:
            if not r.researcher_id:
                raise MalformedRecord("researcher with empty id")
            if r.researcher_id in researcher_map:
                raise DuplicateId(r.researcher_id)
            if r.orcid is not None and _canonical_orcid(r.orcid) != r.orcid:
                raise MalformedRecord(
                    f"researcher {r.researcher_id!r} orcid {r.orcid!r} is not a bare iD "
                    "(blank, padded or in URL form)"
                )
            if not r.name_variants or any(not n.strip() for n in r.name_variants):
                raise MalformedRecord(
                    f"researcher {r.researcher_id!r} needs at least one non-blank name"
                )
            if r.first_pub_year is not None and not (
                MIN_YEAR <= r.first_pub_year <= year_hi
            ):
                raise MalformedRecord(
                    f"researcher {r.researcher_id!r} first_pub_year "
                    f"{r.first_pub_year} outside [{MIN_YEAR}, {year_hi}]"
                )
            researcher_map[r.researcher_id] = r

        publication_map: dict[str, Publication] = {}
        for p in publications:
            if not p.pub_id:
                raise MalformedRecord("publication with empty id")
            if p.pub_id in publication_map:
                raise DuplicateId(p.pub_id)
            if not p.author_ids:
                raise MalformedRecord(f"publication {p.pub_id!r} has no authors")
            if len(set(p.author_ids)) < len(p.author_ids):
                repeated = next(a for a in p.author_ids if p.author_ids.count(a) > 1)
                raise MalformedRecord(
                    f"publication {p.pub_id!r} lists author {repeated!r} more than once"
                )
            if not (MIN_YEAR <= p.year <= year_hi):
                raise MalformedRecord(
                    f"publication {p.pub_id!r} year {p.year} "
                    f"outside [{MIN_YEAR}, {year_hi}]"
                )
            if p.source_citation_count is not None and p.source_citation_count < 0:
                raise MalformedRecord(
                    f"publication {p.pub_id!r} has negative citation_count"
                )
            publication_map[p.pub_id] = p

        for p in publication_map.values():
            for author_id in p.author_ids:
                if author_id not in researcher_map:
                    raise DanglingReference(
                        author_id, f"author of publication {p.pub_id!r}"
                    )

        publication_ids = tuple(sorted(publication_map))
        numbers = dict(zip(publication_ids, range(len(publication_ids))))
        citing, cited, incoming = _number_edges(numbers, citing_ids, cited_ids)
        return cls(
            publications=publication_map,
            researchers=researcher_map,
            publication_ids=publication_ids,
            publication_numbers=numbers,
            citing=citing,
            cited=cited,
            incoming_edges=incoming,
            provenance=provenance,
        )

    def researcher(self, researcher_id: str) -> Researcher:
        try:
            return self.researchers[researcher_id]
        except KeyError:
            raise UnknownResearcher(researcher_id) from None

    @cached_property
    def edges(self) -> tuple[CitationEdge, ...]:
        """The citations as ``CitationEdge``s, in input order: a view of
        the number columns for library callers, built on first access."""
        pid = self.publication_ids.__getitem__
        return tuple(map(CitationEdge, map(pid, self.citing), map(pid, self.cited)))

    def sorted_citations(self) -> Iterator[tuple[int, int]]:
        """(citing, cited) number pairs in (citing id, cited id) order."""
        n = len(self.publication_ids)
        for key in sorted(map(add, map(mul, self.citing, repeat(n)), self.cited)):
            yield divmod(key, n)

    @cached_property
    def publications_by_author(self) -> dict[str, tuple[str, ...]]:
        """Researcher id -> that researcher's publication ids, sorted."""
        index: dict[str, list[str]] = {rid: [] for rid in self.researchers}
        publications = self.publications
        for pid in self.publication_ids:  # in sorted order, so each list is too
            for author_id in publications[pid].author_ids:
                index[author_id].append(pid)
        return {rid: tuple(pids) for rid, pids in index.items()}

    @cached_property
    def publication_years(self) -> array:
        """Publication number -> year."""
        publications = self.publications
        return array("i", (publications[pid].year for pid in self.publication_ids))

    @cached_property
    def person_numbers(self) -> dict[str, int]:
        """Researcher id -> person number, shared by records with one
        :func:`person_key` and assigned in sorted-id order, so it depends
        neither on input order nor on the hash seed."""
        numbers: dict[tuple[str, str], int] = {}
        return {
            rid: numbers.setdefault(person_key(self.researchers[rid]), len(numbers))
            for rid in sorted(self.researchers)
        }

    @cached_property
    def publication_persons(self) -> tuple[tuple[int, ...], ...]:
        """Publication number -> its authors' person numbers, in author order."""
        number = self.person_numbers.__getitem__
        publications = self.publications
        return tuple(
            tuple(map(number, publications[pid].author_ids)) for pid in self.publication_ids
        )


def _number_edges(
    numbers: dict[str, int], citing_ids: Sequence[str], cited_ids: Sequence[str]
) -> tuple[array, array, tuple[array, array]]:
    """The citing and cited number columns and the incoming CSR index.

    Raises on a dangling id, a self-citation or a repeated pair. The columns
    are checked whole, at C speed; when one of them fails, the edges are
    walked again in order, so the first faulty edge is the one reported.
    """
    number = numbers.__getitem__
    try:
        citing = array("i", map(number, citing_ids))
        cited = array("i", map(number, cited_ids))
    except KeyError:
        _raise_first_edge_fault(numbers, citing_ids, cited_ids)
    # cited-major keys: sorted, a repeated pair is two equal neighbours,
    # and each cited publication's citers form one ascending run
    n = len(numbers)
    keys = sorted(map(add, map(mul, cited, repeat(n)), citing))
    if any(map(eq, citing, cited)) or any(map(eq, keys, islice(keys, 1, None))):
        _raise_first_edge_fault(numbers, citing_ids, cited_ids)
    offsets = array("i", map(bisect_left, repeat(keys), range(0, n * n + 1, n or 1)))
    return citing, cited, (offsets, array("i", map(mod, keys, repeat(n))))


def _raise_first_edge_fault(numbers, citing_ids, cited_ids) -> None:
    """Raise the fault of the first faulty edge, walking them in order."""
    seen: set[tuple[str, str]] = set()
    for citing, cited in zip(citing_ids, cited_ids):
        if citing not in numbers:
            raise DanglingReference(citing, "citing side of citation")
        if cited not in numbers:
            raise DanglingReference(cited, "cited side of citation")
        if citing == cited:
            raise MalformedRecord(f"publication {citing!r} cannot cite itself")
        if (citing, cited) in seen:
            raise DuplicateId(f"{citing}->{cited}")
        seen.add((citing, cited))
    raise AssertionError("the edge columns hold no fault")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


# Field value -> member, for both record readers: a dict lookup, not an
# Enum call per record
_DISCIPLINES = {d.value: d for d in Discipline}
_GENDERS = {None: Gender.UNREPORTED, "": Gender.UNREPORTED, **{g.value: g for g in Gender}}


def _parse_discipline(value: object, location: str) -> Discipline:
    discipline = _DISCIPLINES.get(value) if isinstance(value, str) else None
    if discipline is None:
        known = ", ".join(_DISCIPLINES)
        raise MalformedRecord(
            f"unknown discipline {value!r} (expected one of: {known})", location
        )
    return discipline


def _parse_gender(value: object, location: str) -> Gender:
    gender = _GENDERS.get(value) if value is None or isinstance(value, str) else None
    if gender is None:
        raise MalformedRecord(
            f"gender must be \"male\", \"female\" or null, got {value!r}", location
        )
    return gender


def _require_str(record: dict, key: str, location: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise MalformedRecord(f"missing or empty string field {key!r}", location)
    return value


def json_int(value: object, what: str) -> int:
    """``value`` when it is a JSON integer. Anything else raises TypeError:
    a float, a bool, or a string of digits."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


def json_number(value: object, what: str) -> float:
    """``value`` as a float when it is a JSON number. Anything else raises
    TypeError: a bool, or a string of digits. An integer too large for a
    float raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


def _require_int(value: object, what: str, location: str) -> int:
    try:
        return json_int(value, what)
    except TypeError as exc:
        raise MalformedRecord(str(exc), location) from None


# ORCIDs are compared as bare iDs. The checksum is not verified: test
# corpora use ORCIDs that are not valid iDs.
_ORCID_PREFIX = re.compile(r"\s*(?:https?://orcid\.org/\s*)*")


def _canonical_orcid(orcid: str) -> Optional[str]:
    """The bare iD: surrounding whitespace and ``http(s)://orcid.org/``
    prefixes dropped, None when nothing is left. Parsers store this form
    and ``Corpus.from_parts`` accepts no other."""
    return orcid[_ORCID_PREFIX.match(orcid).end():].rstrip() or None


def _researcher_from_json(record: dict, location: str, ids: dict[str, str]) -> Researcher:
    names = record.get("names")
    if not isinstance(names, list) or not names or not all(
        isinstance(n, str) for n in names
    ):
        raise MalformedRecord("\"names\" must be a non-empty list of strings", location)
    orcid = record.get("orcid")
    if orcid is not None:
        if not isinstance(orcid, str):
            raise MalformedRecord("\"orcid\" must be a string or null", location)
        orcid = _canonical_orcid(orcid)
    first_pub_year = record.get("first_pub_year")
    if first_pub_year is not None:
        first_pub_year = _require_int(first_pub_year, "first_pub_year", location)
    rid = _require_str(record, "id", location)
    return Researcher(
        researcher_id=ids.setdefault(rid, rid),
        name_variants=tuple(names),
        orcid=orcid,
        gender=_parse_gender(record.get("gender"), location),
        first_pub_year=first_pub_year,
        discipline=_parse_discipline(record.get("discipline"), location),
    )


def _publication_from_json(record: dict, location: str, ids: dict[str, str]) -> Publication:
    authors = record.get("authors")
    if not isinstance(authors, list) or not authors or not all(
        isinstance(a, str) and a for a in authors
    ):
        raise MalformedRecord(
            "\"authors\" must be a non-empty list of researcher ids", location
        )
    count = record.get("citation_count")
    if count is not None:
        count = _require_int(count, "citation_count", location)
    pid = _require_str(record, "id", location)
    return Publication(
        pub_id=ids.setdefault(pid, pid),
        title=_require_str(record, "title", location),
        year=_require_int(record.get("year"), "year", location),
        author_ids=tuple(map(ids.setdefault, authors, authors)),
        discipline=_parse_discipline(record.get("discipline"), location),
        source_citation_count=count,
    )


def _citation_from_json(record: dict, location: str, ids: dict[str, str]) -> tuple[str, str]:
    """The (citing, cited) ids of a citation record."""
    citing = _require_str(record, "citing", location)
    cited = _require_str(record, "cited", location)
    return ids.setdefault(citing, citing), ids.setdefault(cited, cited)


def parse_corpus(source, format: CorpusFormat = CorpusFormat.JSONL) -> Corpus:
    """Parse and validate a corpus file.

    ``source`` is a filesystem path (or ``Path``) for either format, or a
    readable text/byte stream for JSONL. Loading is all-or-nothing.

    Raises ``MalformedRecord``, ``DanglingReference`` or ``DuplicateId``
    with the offending location where one is known.
    """
    if format is CorpusFormat.JSONL:
        return _parse_jsonl(source)
    if format is CorpusFormat.CSV_BUNDLE:
        return _parse_csv_bundle(source)
    raise ValueError(f"unsupported corpus format: {format!r}")


def _open_lines(source) -> tuple[io.BytesIO, str, bool]:
    """Return (stream of byte lines, provenance label, needs_close).

    Bytes stay undecoded so that a decode error can name its line.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        return path.open("rb"), str(path), True
    if isinstance(source, (bytes, bytearray)):
        return io.BytesIO(source), "<bytes>", False
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            # back to bytes, so that a lone surrogate fails to decode on its line
            data = data.encode("utf-8", "surrogatepass")
        return io.BytesIO(data), "<stream>", False
    raise TypeError(f"cannot read corpus from {type(source).__name__}")


# The whitespace JSON allows around a value. str.strip would also remove
# U+00A0, U+2028, U+001C and the like, which json.loads rejects.
_JSON_WHITESPACE = " \t\r\n"

# The scanner json.loads runs (the C one where the build has it), without
# the wrapper around it. It keeps no state between calls.
_scan_json = make_scanner(json.JSONDecoder())


def _decode_line(line: str):
    """``json.loads(line)`` in one call of the C scanner where that is exact.

    The scanner's value stands only when it consumed the whole line. Any
    other line (leading or trailing whitespace, a BOM, trailing data, a
    syntax error) goes to ``json.loads``, which returns or raises as it
    always has.
    """
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, json.JSONDecodeError):
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


# Record lines exactly as write_corpus writes them, for strings holding no
# quote, backslash or control character: such a string's JSON text is its
# contents unchanged, so each group is what json.loads would give. A list
# of them is split on '","'. Integers follow the JSON grammar, and a
# discipline or gender must be one the decoder path accepts. Every other
# line goes through the JSON decoder.
_STR = r'[^"\\\x00-\x1f]+'
_INT = r"-?(?:0|[1-9][0-9]*)"
_CITATION_LINE = re.compile(
    rf'\{{"kind":"citation","citing":"({_STR})","cited":"({_STR})"\}}\n?'
)
_DISCIPLINE = "|".join(map(re.escape, _DISCIPLINES))
_RESEARCHER_LINE = re.compile(
    rf'\{{"kind":"researcher","id":"({_STR})","names":\["({_STR}(?:","{_STR})*)"\],'
    rf'"orcid":(?:null|"({_STR})"),"gender":(?:null|"(male|female)"),'
    rf'"discipline":"({_DISCIPLINE})","first_pub_year":(?:null|({_INT}))\}}\n?'
)
_PUBLICATION_LINE = re.compile(
    rf'\{{"kind":"publication","id":"({_STR})","title":"({_STR})","year":({_INT}),'
    rf'"authors":\["({_STR}(?:","{_STR})*)"\],"discipline":"({_DISCIPLINE})"'
    rf'(?:,"citation_count":({_INT}))?\}}\n?'
)


def _parse_jsonl(source) -> Corpus:
    stream, label, needs_close = _open_lines(source)
    researchers: list[Researcher] = []
    publications: list[Publication] = []
    citing: list[str] = []
    cited: list[str] = []
    # Equal ids share one str: researcher, publication, author, citing and
    # cited ids all pass through this table. A local table rather than
    # sys.intern, whose strings newer CPythons keep for the whole process.
    ids: dict[str, str] = {}
    share = ids.setdefault
    decode = _decode_line
    citation_line = _CITATION_LINE.fullmatch
    researcher_line = _RESEARCHER_LINE.fullmatch
    publication_line = _PUBLICATION_LINE.fullmatch
    add_citing = citing.append
    add_cited = cited.append
    disciplines = _DISCIPLINES
    genders = _GENDERS
    try:
        for lineno, line in enumerate(stream, start=1):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedRecord(
                    f"invalid UTF-8 ({exc})", f"{label} line {lineno}"
                ) from None
            match = citation_line(line)
            if match is not None:
                c, d = match.groups()
                add_citing(share(c, c))
                add_cited(share(d, d))
                continue
            match = publication_line(line)
            if match is not None:
                pid, title, year, authors, discipline, count = match.groups()
                authors = authors.split('","')
                publications.append(Publication(
                    share(pid, pid),
                    title,
                    int(year),
                    tuple(map(share, authors, authors)),
                    disciplines[discipline],
                    None if count is None else int(count),
                ))
                continue
            match = researcher_line(line)
            if match is not None:
                rid, names, orcid, gender, discipline, first = match.groups()
                researchers.append(Researcher(
                    share(rid, rid),
                    tuple(names.split('","')),
                    None if orcid is None else _canonical_orcid(orcid),
                    genders[gender],
                    None if first is None else int(first),
                    disciplines[discipline],
                ))
                continue
            line = line.strip(_JSON_WHITESPACE)
            if not line:
                continue
            try:
                record = decode(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(
                    f"invalid JSON ({exc.msg})", f"{label} line {lineno}"
                ) from None
            if "\\" in line:  # only a \u escape can decode to a lone surrogate
                try:
                    _encode_compact(record).encode("utf-8")
                except UnicodeEncodeError:
                    raise MalformedRecord(
                        "string holds a lone surrogate (an unpaired \\u escape)",
                        f"{label} line {lineno}",
                    ) from None
            if not isinstance(record, dict):
                raise MalformedRecord(
                    "record must be a JSON object", f"{label} line {lineno}"
                )
            kind = record.get("kind")
            if kind == "citation":
                c, d = _citation_from_json(record, f"{label} line {lineno}", ids)
                add_citing(c)
                add_cited(d)
            elif kind == "researcher":
                researchers.append(
                    _researcher_from_json(record, f"{label} line {lineno}", ids)
                )
            elif kind == "publication":
                publications.append(
                    _publication_from_json(record, f"{label} line {lineno}", ids)
                )
            else:
                raise MalformedRecord(
                    f"unknown record kind {kind!r}", f"{label} line {lineno}"
                )
    finally:
        if needs_close:
            stream.close()
    provenance = Provenance(source=label, format_version=f"jsonl/{FORMAT_VERSION}")
    return Corpus._from_columns(researchers, publications, citing, cited, provenance)


def _csv_record(row: dict, location: str, lists: tuple, integers: tuple) -> dict:
    """A researcher or publication row as the JSONL record of its kind.

    A blank integer cell is null, which the JSONL rules then accept or
    reject as they do a JSON null.
    """
    for column in lists:
        row[column] = [part for part in map(str.strip, row[column].split("|")) if part]
    for column in integers:
        cell = row.get(column, "").strip()  # publications.csv may lack citation_count
        if cell and not (cell.isascii() and cell.removeprefix("-").isdecimal()):
            raise MalformedRecord(f"{column} must be an integer, got {cell!r}", location)
        row[column] = int(cell) if cell else None
    return row


def _csv_rows(path: Path, required: list[str]) -> Iterator[tuple[dict, str]]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [col for col in required if col not in header]
            if missing:
                raise MalformedRecord(
                    f"missing columns {missing}", f"{path.name} header"
                )
            name, width = path.name, len(header)
            for cells in reader:
                location = f"{name} row {reader.line_num}"
                if len(cells) < width:
                    if not cells:  # a blank line
                        continue
                    raise MalformedRecord(
                        f"{len(cells)} cells where the header has {width}", location
                    )
                yield dict(zip(header, cells)), location
        except UnicodeDecodeError as exc:
            # text mode decodes in chunks, so only the file is known
            raise MalformedRecord(f"invalid UTF-8 ({exc})", path.name) from None


def _parse_csv_bundle(source) -> Corpus:
    """Each row becomes a JSONL record and goes through the JSONL rules."""
    base = Path(source)
    if not base.is_dir():
        raise MalformedRecord(f"CSV bundle {base} is not a directory")
    ids: dict[str, str] = {}  # equal ids share one str, as in _parse_jsonl
    researchers = [
        _researcher_from_json(_csv_record(row, loc, ("names",), ("first_pub_year",)), loc, ids)
        for row, loc in _csv_rows(
            base / "researchers.csv",
            ["id", "names", "orcid", "gender", "discipline", "first_pub_year"],
        )
    ]
    publications = [
        _publication_from_json(
            _csv_record(row, loc, ("authors",), ("year", "citation_count")), loc, ids
        )
        for row, loc in _csv_rows(
            base / "publications.csv", ["id", "title", "year", "authors", "discipline"]
        )
    ]
    citing: list[str] = []
    cited: list[str] = []
    for row, loc in _csv_rows(base / "citations.csv", ["citing", "cited"]):
        c, d = _citation_from_json(row, loc, ids)
        citing.append(c)
        cited.append(d)
    provenance = Provenance(source=str(base), format_version=f"csv_bundle/{FORMAT_VERSION}")
    return Corpus._from_columns(researchers, publications, citing, cited, provenance)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _researcher_to_json(r: Researcher) -> dict:
    return {
        "kind": "researcher",
        "id": r.researcher_id,
        "names": list(r.name_variants),
        "orcid": r.orcid,
        "gender": None if r.gender is Gender.UNREPORTED else r.gender.value,
        "discipline": r.discipline.value,
        "first_pub_year": r.first_pub_year,
    }


def _publication_to_json(p: Publication) -> dict:
    record = {
        "kind": "publication",
        "id": p.pub_id,
        "title": p.title,
        "year": p.year,
        "authors": list(p.author_ids),
        "discipline": p.discipline.value,
    }
    if p.source_citation_count is not None:
        record["citation_count"] = p.source_citation_count
    return record


# json.dumps(record, ensure_ascii=False, separators=(",", ":")) without
# building an encoder per record
_encode_compact = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _jsonl_lines(corpus: Corpus) -> Iterator[str]:
    """The canonical JSONL lines of a corpus, each ending in a newline."""
    if not corpus.researchers:  # so no publications and no citations either
        yield "\n"
        return
    for rid in sorted(corpus.researchers):
        yield _encode_compact(_researcher_to_json(corpus.researchers[rid])) + "\n"
    for pid in sorted(corpus.publications):
        yield _encode_compact(_publication_to_json(corpus.publications[pid])) + "\n"
    # _encode_compact's bytes for {"kind": "citation", "citing": c, "cited": d},
    # quoting each id with the function that encoder uses
    quoted = list(map(encode_basestring, corpus.publication_ids))
    for citing, cited in corpus.sorted_citations():
        yield f'{{"kind":"citation","citing":{quoted[citing]},"cited":{quoted[cited]}}}\n'


def serialize_corpus(corpus: Corpus) -> str:
    """Render a corpus to canonical JSONL text.

    Records are sorted (researchers, then publications, then citations, each
    by identifier), so equal corpora serialize to byte-identical text.
    """
    return "".join(_jsonl_lines(corpus))


def write_corpus(corpus: Corpus, path) -> None:
    """Write :func:`serialize_corpus`'s text line by line, never all at once."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_jsonl_lines(corpus))


# ---------------------------------------------------------------------------
# Non-fatal checks and derivations
# ---------------------------------------------------------------------------


def validate_corpus(corpus: Corpus) -> list[CorpusWarning]:
    """Collect non-fatal data-quality warnings. Pure; never mutates.

    Flags citations whose citing paper predates the cited one (preprints and
    in-press citations legitimately produce these), researchers without any
    publication, and publications filed under the catch-all discipline.
    """
    warnings: list[CorpusWarning] = []
    ids = corpus.publication_ids
    years = corpus.publication_years
    for citing, cited in zip(corpus.citing, corpus.cited):
        if years[citing] < years[cited]:
            warnings.append(CorpusWarning(
                code=WarningCode.TIME_TRAVEL_CITATION,
                subject=ids[citing],
                detail=(
                    f"{ids[citing]} ({years[citing]}) cites "
                    f"{ids[cited]} ({years[cited]})"
                ),
            ))
    for rid in sorted(corpus.researchers):
        if not corpus.publications_by_author.get(rid):
            warnings.append(CorpusWarning(
                code=WarningCode.ORPHAN_RESEARCHER,
                subject=rid,
                detail=f"researcher {rid} has no publications",
            ))
    for pid in sorted(corpus.publications):
        if corpus.publications[pid].discipline is Discipline.OTHER:
            warnings.append(CorpusWarning(
                code=WarningCode.OTHER_DISCIPLINE,
                subject=pid,
                detail=f"publication {pid} is filed under discipline Other",
            ))
    return warnings


def derive_first_pub_year(corpus: Corpus, researcher_id: str) -> Optional[int]:
    """First-publication year for a researcher.

    An explicitly recorded year wins; otherwise the minimum year over the
    researcher's publications; ``None`` for a researcher with neither.
    """
    researcher = corpus.researcher(researcher_id)
    if researcher.first_pub_year is not None:
        return researcher.first_pub_year
    pub_ids = corpus.publications_by_author.get(researcher_id, ())
    if not pub_ids:
        return None
    return min(corpus.publications[pid].year for pid in pub_ids)
