"""Core data model and file ingestion.

A corpus is a plain dict from PMID to PaperRecord; every author mention is
an instance, one int pmid << POSITION_BITS | position with a 1-based
byline position below 2**POSITION_BITS, written "<pmid>_<position>" in
files (parse_instance_id, format_instance_id). A corpus keeps the row
order of its file; nothing computed from it depends on that order.
Alongside the corpus live four auxiliary tables used to build labeled
evaluation data: authority profiles (person + work titles), grant PI
records, citation edges, and per-instance demographic annotations.
Every record is a NamedTuple: it compares, unpacks and sorts as the
tuple of its fields, and _replace makes a changed copy.

All tables are TSV with one header row; see the ingest_* functions for
the exact columns. Ingestion is streaming, validates per row, and
reports errors with 1-based data row numbers.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from pathlib import Path
from typing import NamedTuple, TypeVar

from ._tsv import read_table, write_rows
from .errors import ParseError, echo

PAPERS_COLUMNS = ("pmid", "year", "title", "authors")
CLUSTERING_COLUMNS = ("cluster_id", "instance_id")
AUTHORITY_COLUMNS = ("authority_id", "name", "title")
GRANTS_COLUMNS = ("pi_id", "pi_name", "pmid")
CITATIONS_COLUMNS = ("citing_pmid", "cited_pmid")
ANNOTATIONS_COLUMNS = ("instance_id", "ethnicity", "gender")

_V = TypeVar("_V")

# One author mention, pmid << POSITION_BITS | position: ids sort as (pmid,
# position) tuples would. Other modules shift by POSITION_BITS inline.
InstanceID = int
POSITION_BITS = 32
_POSITION_MASK = (1 << POSITION_BITS) - 1


# [0-9], not \d, which also matches non-ASCII digits; used with fullmatch,
# since $ would let a trailing newline through
_INSTANCE_ID = re.compile(r"[0-9]+_[0-9]+")


def parse_instance_id(s: str) -> InstanceID:
    """Parse the canonical "<pmid>_<position>" form of an instance ID."""
    if _INSTANCE_ID.fullmatch(s) is None:
        raise ParseError(f"instance id {echo(s)} is not of the form <pmid>_<position>")
    pmid_s, _, pos_s = s.partition("_")
    try:
        pmid = int(pmid_s)
        position = int(pos_s)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"instance id is too long: {len(s)} characters") from None
    if pmid < 1:
        raise ParseError(f"instance id {echo(s)}: pmid must be >= 1")
    if position < 1:
        raise ParseError(f"instance id {echo(s)}: position must be >= 1")
    if position > _POSITION_MASK:
        raise ParseError(f"instance id {echo(s)}: position must be below 2**{POSITION_BITS}")
    return pmid << POSITION_BITS | position


def format_instance_id(instance: InstanceID) -> str:
    return f"{instance >> POSITION_BITS}_{instance & _POSITION_MASK}"


class PaperRecord(NamedTuple):
    """A paper with its raw title and byline names in order."""

    pmid: int
    year: int
    raw_title: str
    authors: tuple[str, ...]

    def instances(self) -> range:
        first = (self.pmid << POSITION_BITS) + 1
        return range(first, first + len(self.authors))


class AuthorityProfile(NamedTuple):
    """A curated person profile: one name plus the titles of their works."""

    authority_id: str
    person_name: str
    work_titles: frozenset[str]


class GrantRecord(NamedTuple):
    """A grant principal investigator and the papers their grants funded."""

    pi_id: str
    pi_name: str
    funded_pmids: frozenset[int]


class CitationEdge(NamedTuple):
    citing_pmid: int
    cited_pmid: int


class Annotation(NamedTuple):
    """Verbatim demographic tags for one instance; no recoding at ingest."""

    ethnicity: str
    gender: str


# A corpus is the dict of its papers, keyed by pmid.
Corpus = dict[int, PaperRecord]


class Clustering(dict[InstanceID, str]):
    """A clustering: a dict from each instance to its cluster id.

    A plain dict in all but name; `groups` lists the members of each
    cluster. The name is kept only because the benchmark's trace harness
    (perfbench/traced.py) wraps `Clustering.__init__` and
    `from_assignment` to time how clusterings are built.
    """

    @classmethod
    def from_assignment(cls, assignment: Mapping[InstanceID, str]) -> Clustering:
        """A copy of an instance -> cluster-id mapping; an empty cluster id raises ValueError."""
        if "" in assignment.values():
            raise ValueError("empty cluster_id")
        return cls(assignment)


def groups(clustering: Mapping[InstanceID, str]) -> dict[str, list[InstanceID]]:
    """Sorted members of each cluster, in cluster-id order; each list is sorted in place."""
    members: dict[str, list[InstanceID]] = {}
    for instance, cluster_id in clustering.items():
        members.setdefault(cluster_id, []).append(instance)
    for group in members.values():
        group.sort()
    return {cluster_id: members[cluster_id] for cluster_id in sorted(members)}


def _positive_int(text: str, field: str) -> int:
    if text.isascii() and text.isdigit():
        try:
            value = int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError(f"{field} is too long: {len(text)} digits") from None
        if value >= 1:
            return value
    raise ParseError(f"{field} must be a positive integer, got {echo(text)}")


# an optional "-" and ASCII digits: int() would also take spaces, "+",
# "_" and non-ASCII digits
_INTEGER = re.compile(r"-?[0-9]+")


def _int(text: str, field: str) -> int:
    if _INTEGER.fullmatch(text) is None:
        raise ParseError(f"{field} must be an integer, got {echo(text)}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"{field} is too long: {len(text.lstrip('-'))} digits") from None


def _read_papers(
    path: str | Path, record: Callable[[int, int, str, tuple[str, ...]], _V]
) -> dict[int, _V]:
    """Check every papers.tsv row; keep record(pmid, year, title, byline names) per pmid.

    The one row validator of papers.tsv, so every reader of it accepts and
    rejects the same files.
    """
    papers: dict[int, _V] = {}
    with read_table(path, PAPERS_COLUMNS) as rows:
        for pmid_s, year_s, title, authors_s in rows:
            pmid = _positive_int(pmid_s, "pmid")
            year = _int(year_s, "year")
            if not title:
                raise ParseError("missing title")
            authors = tuple(authors_s.split("|"))
            # an empty byline splits to ("",), so this also rejects it
            if "" in authors:
                raise ParseError("empty author name in byline")
            if pmid in papers:
                raise ParseError(f"duplicate pmid {echo(pmid_s)}")
            papers[pmid] = record(pmid, year, title, authors)
    return papers


def ingest_corpus(path: str | Path) -> Corpus:
    """Read papers.tsv (pmid, year, title, authors; byline joined by "|").

    Equal byline names are one string object, on every paper that has them.
    """
    names: dict[str, str] = {}

    def paper(pmid: int, year: int, title: str, authors: tuple[str, ...]) -> PaperRecord:
        return PaperRecord(pmid, year, title, tuple([names.setdefault(n, n) for n in authors]))

    return _read_papers(path, paper)


def ingest_paper_years(path: str | Path) -> dict[int, tuple[int, int]]:
    """Read papers.tsv as pmid -> (year, byline length), checked as ingest_corpus checks it.

    No title or name is kept; equal (year, length) pairs share one tuple.
    """
    shared: dict[tuple[int, int], tuple[int, int]] = {}

    def year_and_length(
        pmid: int, year: int, title: str, authors: tuple[str, ...]
    ) -> tuple[int, int]:
        value = (year, len(authors))
        return shared.setdefault(value, value)

    return _read_papers(path, year_and_length)


def ingest_clustering(
    path: str | Path, *, onto: dict[InstanceID, str] | None = None
) -> dict[InstanceID, str | tuple[str, str]]:
    """Read clustering.tsv (cluster_id, instance_id); enforce the partition.

    Without `onto` a Clustering comes back. With `onto`, a table of
    instance -> id read before (a clustering or labels), the file is read
    as a second clustering of its instances and no second table is made:
    the id of each instance of `onto` that a row lists is replaced by its
    (`onto` id, file id) cell, one tuple per distinct cell, and `onto` is
    returned. An instance the file does not list keeps its string id, and
    the rows of other instances are checked but not kept.
    """
    clustering = Clustering() if onto is None else onto
    # the instances not in onto, with their cluster ids for the partition check
    others = clustering if onto is None else {}
    ids: dict[str, str] = {}  # one string object per cluster id, shared by its members
    cells: dict[tuple[str, str], tuple[str, str]] = {}
    with read_table(path, CLUSTERING_COLUMNS) as rows:
        for cluster_id, instance_s in rows:
            if not cluster_id:
                raise ParseError("empty cluster_id")
            instance = parse_instance_id(instance_s)
            cluster_id = ids.setdefault(cluster_id, cluster_id)
            if onto is not None:
                first = onto.get(instance)
                if type(first) is str:
                    cell = (first, cluster_id)
                    onto[instance] = cells.setdefault(cell, cell)
                    continue
                if first is not None:
                    raise ParseError(
                        f"instance {echo(instance_s)} already assigned to cluster {echo(first[1])}"
                    )
            if instance in others:
                raise ParseError(
                    f"instance {echo(instance_s)} already assigned to cluster"
                    f" {echo(others[instance])}"
                )
            others[instance] = cluster_id
    return clustering


def _read_people(
    path: str | Path,
    columns: tuple[str, str, str],
    who: str,
    parse_value: Callable[[str, str], _V | None],
) -> dict[str, tuple[str, set[_V]]]:
    """Read (id, name, value) rows into id -> (name, values); one name per id.

    parse_value(text, name) checks a row's value field and returns what
    is kept of it, None for nothing.
    """
    people: dict[str, tuple[str, set[_V]]] = {}
    with read_table(path, columns) as rows:
        for person_id, name, value_s in rows:
            if not person_id or not name:
                raise ParseError("empty field")
            value = parse_value(value_s, name)
            known = people.get(person_id)
            if known is None:
                known = people[person_id] = (name, set())
            elif known[0] != name:
                raise ParseError(
                    f"{who} {echo(person_id)} has conflicting names"
                    f" {echo(known[0])} and {echo(name)}"
                )
            if value is not None:
                known[1].add(value)
    return people


def _title(text: str) -> str:
    if not text:
        raise ParseError("empty field")
    return text


def ingest_authority(
    path: str | Path, resolve: Callable[[str, str], _V | None]
) -> dict[str, tuple[str, set[_V]]]:
    """Read authority.tsv (authority_id, name, title; one row per work).

    Each checked row's title goes to resolve(title, name) as the row is
    read, and no title is kept: id -> (name, the set of what resolve
    returned, None left out) comes back.
    """
    return _read_people(
        path, AUTHORITY_COLUMNS, "authority", lambda text, name: resolve(_title(text), name)
    )


def ingest_grants(path: str | Path) -> dict[str, GrantRecord]:
    """Read grants.tsv (pi_id, pi_name, pmid; one row per funded paper)."""
    people = _read_people(
        path, GRANTS_COLUMNS, "PI", lambda text, name: _positive_int(text, "pmid")
    )
    return {
        pi_id: GrantRecord(pi_id, name, frozenset(pmids))
        for pi_id, (name, pmids) in people.items()
    }


def ingest_citations(path: str | Path) -> tuple[CitationEdge, ...]:
    """Read citations.tsv (citing_pmid, cited_pmid); dedupe, reject self-loops."""
    edges: set[CitationEdge] = set()
    with read_table(path, CITATIONS_COLUMNS) as rows:
        for citing_s, cited_s in rows:
            citing = _positive_int(citing_s, "citing_pmid")
            cited = _positive_int(cited_s, "cited_pmid")
            if citing == cited:
                raise ParseError(f"self-loop: paper {echo(citing_s)} cites itself")
            edges.add(CitationEdge(citing, cited))
    return tuple(sorted(edges))


def ingest_annotations(
    path: str | Path, *, onto: dict[InstanceID, Annotation | None] | None = None
) -> dict[InstanceID, Annotation | None]:
    """Read annotations.tsv (instance_id, ethnicity, gender); tags kept verbatim.

    Rows with equal tags share one Annotation. With `onto`, every row is
    still checked, but only the instances that are keys of `onto` are
    kept: each one's Annotation overwrites its value, so the key stays
    the caller's own int, and `onto` is returned.
    """
    annotations = {} if onto is None else onto
    others: set[InstanceID] = set()  # with onto, the instances not kept
    shared: dict[tuple[str, str], Annotation] = {}
    with read_table(path, ANNOTATIONS_COLUMNS) as rows:
        for instance_s, ethnicity, gender in rows:
            instance = parse_instance_id(instance_s)
            if annotations.get(instance) is not None or instance in others:
                raise ParseError(f"duplicate annotation for instance {echo(instance_s)}")
            if onto is not None and instance not in onto:
                others.add(instance)
                continue
            annotation = shared.get((ethnicity, gender))
            if annotation is None:
                annotation = shared[ethnicity, gender] = Annotation(ethnicity, gender)
            annotations[instance] = annotation
    return annotations


def write_corpus(path: str | Path, corpus: Corpus) -> None:
    def rows() -> Iterator[tuple[str, ...]]:
        for _, paper in sorted(corpus.items()):
            for name in paper.authors:
                if "|" in name:
                    raise ValueError(f"author name {echo(name)} contains '|'")
            yield str(paper.pmid), str(paper.year), paper.raw_title, "|".join(paper.authors)

    write_rows(path, PAPERS_COLUMNS, rows())


def write_clustering(path: str | Path, clustering: Mapping[InstanceID, str]) -> None:
    rows = (
        (cluster_id, format_instance_id(instance))
        for cluster_id, members in groups(clustering).items()
        for instance in members
    )
    write_rows(path, CLUSTERING_COLUMNS, rows)


def write_authority(path: str | Path, registry: Mapping[str, AuthorityProfile]) -> None:
    rows = (
        (profile.authority_id, profile.person_name, title)
        for _, profile in sorted(registry.items())
        for title in sorted(profile.work_titles)
    )
    write_rows(path, AUTHORITY_COLUMNS, rows)


def write_grants(path: str | Path, grants: Mapping[str, GrantRecord]) -> None:
    rows = (
        (record.pi_id, record.pi_name, str(pmid))
        for _, record in sorted(grants.items())
        for pmid in sorted(record.funded_pmids)
    )
    write_rows(path, GRANTS_COLUMNS, rows)


def write_citations(path: str | Path, edges: Iterable[CitationEdge]) -> None:
    rows = ((str(e.citing_pmid), str(e.cited_pmid)) for e in sorted(set(edges)))
    write_rows(path, CITATIONS_COLUMNS, rows)


def write_annotations(path: str | Path, annotations: Mapping[InstanceID, Annotation]) -> None:
    # sorting the ids, not the (instance, annotation) pairs, builds no tuple per row
    rows = (
        (format_instance_id(instance), *annotations[instance])
        for instance in sorted(annotations)
    )
    write_rows(path, ANNOTATIONS_COLUMNS, rows)
