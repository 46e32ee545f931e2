"""Labeling pipelines and the label/clustering join.

Three independent routes produce truth data: matching the work titles
of an authority.tsv's profiles to corpus titles as the file is read,
matching grant PI names onto funded papers, and pairing byline instances
across citation edges. Labels are assigned only when a name's blocking
key matches; any ambiguity (one instance drawing two labels, or one
profile matching two positions on the same paper) drops the affected
candidates and logs a conflict rather than guessing. Byline, profile
and PI names are keyed through one table, baseline.name_keys(corpus,
normalize.match_key), which parses each once; an unparseable name or a
mononym matches nothing. join_labels reads a labels file, a predicted
clustering, a papers file and optional annotations onto the labels' own
instance table, as b3_scores reads two clusterings.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import NamedTuple

from ._tsv import _write_lines, open_text_write, read_table, write_rows
from .baseline import name_keys
from .corpus import (
    POSITION_BITS,
    CitationEdge,
    Corpus,
    GrantRecord,
    InstanceID,
    _int,
    format_instance_id,
    ingest_annotations,
    ingest_authority,
    ingest_clustering,
    ingest_paper_years,
    parse_instance_id,
)
from .errors import EvaluationError, ParseError, echo
from .normalize import match_key, normalize_title, parse_or_none

SOURCE_AUTHORITY = "authority"
SOURCE_GRANT = "grant"
SOURCES = (SOURCE_AUTHORITY, SOURCE_GRANT)

DUP_TITLE_POLICIES = ("drop-all", "keep-first")

LABELS_COLUMNS = ("instance_id", "label_id", "source")
PAIRS_COLUMNS = ("instance_a", "instance_b")
EVAL_COLUMNS = (
    "instance_id",
    "truth_label",
    "predicted_cluster_id",
    "year",
    "ethnicity",
    "gender",
)


class LabeledInstance(NamedTuple):
    """A truth label for one instance from one labeling route."""

    instance: InstanceID
    label_id: str
    source: str


class ConflictRecord(NamedTuple):
    """One dropped candidate label with its reason code."""

    reason: str
    instance: InstanceID
    detail: str


class LinkResult(NamedTuple):
    labels: tuple[LabeledInstance, ...]
    conflicts: tuple[ConflictRecord, ...]
    stats: dict[str, int]


def _ordered(a: InstanceID, b: InstanceID) -> tuple[InstanceID, InstanceID]:
    """A positive pair as (smaller, larger), the one form a pair set holds."""
    return (a, b) if a <= b else (b, a)


def _person_key(keys: dict[str, str | None], name: str) -> str | None:
    """A profile's or PI's match key from `keys`, name_keys(corpus, match_key).

    A name on no byline is parsed once and its key stored in `keys`.
    """
    if name not in keys:
        form = parse_or_none(name)
        keys[name] = None if form is None else match_key(form)
    return keys[name]


def _match_people(
    corpus: Corpus,
    keys: dict[str, str | None],
    people: Iterable[tuple[str, str, Iterable[int]]],
) -> tuple[set[tuple[InstanceID, str]], int, set[int]]:
    """Match each (person id, raw name, pmids) to the byline positions under its key.

    A person matches every position on one of their in-corpus pmids whose
    name has the person's key, as _person_key reads it from `keys`.
    Returns the (instance, person id) candidates, the number of people
    whose key is None (their name is unusable; their pmids are not read),
    and the in-corpus pmids of the usable people.
    """
    candidates: set[tuple[InstanceID, str]] = set()
    unusable = 0
    pmids_in_corpus: set[int] = set()
    for person_id, name, pmids in people:
        key = _person_key(keys, name)
        if key is None:
            unusable += 1
            continue
        for pmid in pmids:
            paper = corpus.get(pmid)
            if paper is None:
                continue
            pmids_in_corpus.add(pmid)
            for instance, raw in zip(paper.instances(), paper.authors):
                if keys[raw] == key:
                    candidates.add((instance, person_id))
    return candidates, unusable, pmids_in_corpus


def _resolve_candidates(
    candidates: set[tuple[InstanceID, str]], source: str
) -> tuple[tuple[LabeledInstance, ...], tuple[ConflictRecord, ...]]:
    """Apply both ambiguity rules to the full candidate set at once.

    Candidates are counted per instance and per (pmid, label); only the
    few counted more than once are grouped, in order, to name them in
    their conflicts.
    """
    per_instance = Counter(instance for instance, _ in candidates)
    per_paper_label = Counter((i >> POSITION_BITS, label_id) for i, label_id in candidates)
    label_ids: dict[InstanceID, list[str]] = {}
    instances: dict[tuple[int, str], list[InstanceID]] = {}
    labels = []
    for instance, label_id in sorted(candidates):
        multilabel = per_instance[instance] > 1
        if multilabel:
            label_ids.setdefault(instance, []).append(label_id)
        paper_label = (instance >> POSITION_BITS, label_id)
        if per_paper_label[paper_label] > 1:
            instances.setdefault(paper_label, []).append(instance)
        elif not multilabel:
            labels.append(LabeledInstance(instance, label_id, source))

    conflicts = [
        ConflictRecord("instance_multilabel", instance, f"{source}:{','.join(ids)}")
        for instance, ids in label_ids.items()
    ]
    for (_, label_id), members in instances.items():
        listed = ",".join(map(format_instance_id, members))
        conflicts.extend(
            ConflictRecord("paper_multimatch", instance, f"{source}:{label_id} instances:{listed}")
            for instance in members
        )
    return tuple(labels), tuple(sorted(conflicts))


def _resolve_registry(
    corpus: Corpus,
    registry: str | Path,
    keys: dict[str, str | None],
    dup_title_policy: str,
    nonalpha: str,
) -> tuple[dict[str, tuple[str, set[int]]], int, int]:
    """Read authority.tsv at `registry`, each work title resolved to its pmid as it is read.

    Returns authority id -> (name, pmids), the number of usable titles
    and the number of duplicate title copies dropped. A profile keeps no
    title, and the title maps are freed on return. A title of a profile
    whose name has no key (_person_key over `keys`) is not normalized. A
    title that is no corpus title is normalized where it is read and not
    cached, so no copy of it is kept.
    """
    texts: dict[str, str | None] = {}  # corpus raw title -> its normalized text
    pmids_by_title: dict[str, list[int]] = {}
    for paper in corpus.values():
        if paper.raw_title not in texts:
            texts[paper.raw_title] = normalize_title(paper.raw_title, nonalpha=nonalpha)
        text = texts[paper.raw_title]
        if text is not None:
            pmids_by_title.setdefault(text, []).append(paper.pmid)
    title_to_pmid: dict[str, int] = {}
    duplicate_copies = 0
    for text, pmids in pmids_by_title.items():
        if len(pmids) == 1:
            title_to_pmid[text] = pmids[0]
        elif dup_title_policy == "keep-first":
            title_to_pmid[text] = min(pmids)
            duplicate_copies += len(pmids) - 1
        else:
            duplicate_copies += len(pmids)
    del pmids_by_title  # freed before the registry is read

    def resolve(title: str, name: str) -> int | None:
        if _person_key(keys, name) is None:
            return None
        text = texts[title] if title in texts else normalize_title(title, nonalpha=nonalpha)
        return title_to_pmid.get(text)

    return ingest_authority(registry, resolve), len(title_to_pmid), duplicate_copies


def link_authority(
    corpus: Corpus,
    registry: str | Path,
    *,
    dup_title_policy: str = "drop-all",
    nonalpha: str = "delete",
) -> LinkResult:
    """Label byline instances via profile work-title + blocking-key match.

    `registry` is the path of an authority.tsv, read here once the
    corpus's titles are indexed. Each work title is resolved to its pmid
    as its row is read, and only the pmids are kept.

    Corpus titles too short to normalize are unusable. A normalized
    title appearing on more than one paper is removed entirely under
    "drop-all" (the default; no survivor is elected) or mapped to its
    lowest PMID under "keep-first".
    """
    if dup_title_policy not in DUP_TITLE_POLICIES:
        raise ValueError(
            f"dup_title_policy must be one of {DUP_TITLE_POLICIES}, got {dup_title_policy!r}"
        )
    keys = name_keys(corpus, match_key)
    profiles, titles_usable, duplicate_copies = _resolve_registry(
        corpus, registry, keys, dup_title_policy, nonalpha
    )
    people = ((authority_id, name, pmids) for authority_id, (name, pmids) in profiles.items())
    candidates, unusable_profiles, _ = _match_people(corpus, keys, people)
    del keys  # freed before the candidates are resolved
    labels, conflicts = _resolve_candidates(candidates, SOURCE_AUTHORITY)
    stats = {
        "papers": len(corpus),
        "titles_usable": titles_usable,
        "duplicate_title_copies_dropped": duplicate_copies,
        "profiles": len(profiles),
        "profiles_unusable_name": unusable_profiles,
        "candidates": len(candidates),
        "labels": len(labels),
        "conflict_drops": len(candidates) - len(labels),
    }
    return LinkResult(labels, conflicts, stats)


def link_grants(corpus: Corpus, grants: Mapping[str, GrantRecord]) -> LinkResult:
    """Label byline instances of funded papers by PI blocking-key match."""
    keys = name_keys(corpus, match_key)
    people = ((pi_id, record.pi_name, record.funded_pmids) for pi_id, record in grants.items())
    candidates, unusable_pis, funded_in_corpus = _match_people(corpus, keys, people)
    del keys  # freed before the candidates are resolved
    funded = set().union(*(record.funded_pmids for record in grants.values()))
    labels, conflicts = _resolve_candidates(candidates, SOURCE_GRANT)
    stats = {
        "grants": len(grants),
        "pis_unusable_name": unusable_pis,
        "funded_pmids": len(funded),
        "funded_pmids_in_corpus": len(funded_in_corpus),
        "candidates": len(candidates),
        "labels": len(labels),
        "conflict_drops": len(candidates) - len(labels),
    }
    return LinkResult(labels, conflicts, stats)


def extract_selfcitation_pairs(
    corpus: Corpus, citations: Iterable[CitationEdge]
) -> frozenset[tuple[InstanceID, InstanceID]]:
    """Pair same-key instances across each in-corpus citation edge.

    Each pair spans two papers and is (smaller, larger) instance. A citing
    byline is grouped by key once per run of edges from that paper, so
    edges sorted by citing pmid, as ingest_citations gives them, group
    each byline once.
    """
    keys = name_keys(corpus, match_key)
    pairs: set[tuple[InstanceID, InstanceID]] = set()
    citing_pmid = None
    for edge in citations:
        if edge.citing_pmid != citing_pmid:
            citing_pmid = edge.citing_pmid
            citing = corpus.get(citing_pmid)
            citing_instances: dict[str, list[InstanceID]] = {}
            if citing is not None:
                for instance, raw in zip(citing.instances(), citing.authors):
                    key = keys[raw]
                    if key is not None:
                        citing_instances.setdefault(key, []).append(instance)
        cited = corpus.get(edge.cited_pmid)
        if not citing_instances or cited is None or edge.cited_pmid == citing_pmid:
            continue
        for cited_instance, raw in zip(cited.instances(), cited.authors):
            for citing_instance in citing_instances.get(keys[raw], ()):
                pairs.add(_ordered(citing_instance, cited_instance))
    return frozenset(pairs)


class EvalRow(NamedTuple):
    instance: InstanceID
    truth_label: str
    predicted_cluster_id: str
    year: int
    ethnicity: str | None
    gender: str | None


class JoinResult(NamedTuple):
    rows: tuple[EvalRow, ...]  # in instance order
    dropped_unclustered: int
    dropped_missing_paper: int


def join_labels(
    labels: str | Path,
    predicted: str | Path,
    papers: str | Path,
    annotations: str | Path | None = None,
    *,
    strict: bool = False,
) -> JoinResult:
    """Inner-join the labels file with the predicted clustering; attach year and tags.

    The files are read in argument order, and every row of each is
    checked. The predicted clustering is read onto the labels' own table
    (ingest_clustering's `onto`), so no second instance table is made;
    of `papers` (a papers.tsv) only each pmid's year and byline length
    are kept, and of `annotations` only the labeled instances' tags. An
    instance carrying two labels raises ValueError once every file is
    read. Labeled instances without a predicted cluster are dropped and
    counted, in strict mode too. Instances missing from the papers (no
    year available) are an error in strict mode, otherwise dropped and
    counted.
    """
    table, conflict = read_labels(labels)
    ingest_clustering(predicted, onto=table)
    years = ingest_paper_years(papers)
    tags = None
    if annotations is not None:
        tags = ingest_annotations(annotations, onto=dict.fromkeys(table))
    if conflict is not None:
        raise ValueError(conflict)
    rows = []
    dropped_unclustered = 0
    dropped_missing_paper = 0
    mask = (1 << POSITION_BITS) - 1
    for instance in sorted(table):
        cell = table[instance]
        if type(cell) is str:  # a label the prediction does not list
            dropped_unclustered += 1
            continue
        paper = years.get(instance >> POSITION_BITS)
        if paper is None or not 1 <= instance & mask <= paper[1]:
            if strict:
                raise EvaluationError(
                    f"labeled instance {echo(format_instance_id(instance))} is not in the corpus"
                )
            dropped_missing_paper += 1
            continue
        annotation = None if tags is None else tags[instance]
        rows.append(
            EvalRow(
                instance=instance,
                truth_label=cell[0],
                predicted_cluster_id=cell[1],
                year=paper[0],
                ethnicity=annotation.ethnicity if annotation else None,
                gender=annotation.gender if annotation else None,
            )
        )
    return JoinResult(tuple(rows), dropped_unclustered, dropped_missing_paper)


class AgreementReport(NamedTuple):
    overlap_count: int
    agree_count: int
    disagreements: tuple[tuple[InstanceID, str, str], ...]


def label_agreement(
    labels_a: Mapping[InstanceID, str], labels_b: Mapping[InstanceID, str]
) -> AgreementReport:
    """Compare two instance -> label mappings on their shared instances.

    Label namespaces differ, so clusters are aligned by greedy largest-
    overlap matching (ties broken lexicographically); an instance whose
    label pair is not part of the alignment is a disagreement. The shared
    instances are found by intersecting the two mappings' key views, so
    neither mapping's instances are copied into a set of their own.
    """
    overlap = sorted(labels_a.keys() & labels_b.keys())
    if not overlap:
        return AgreementReport(0, 0, ())
    cell_counts = Counter((labels_a[i], labels_b[i]) for i in overlap)
    used_a: set[str] = set()
    used_b: set[str] = set()
    accepted: set[tuple[str, str]] = set()
    for (label_a, label_b), _ in sorted(
        cell_counts.items(), key=lambda item: (-item[1], item[0])
    ):
        if label_a in used_a or label_b in used_b:
            continue
        used_a.add(label_a)
        used_b.add(label_b)
        accepted.add((label_a, label_b))
    disagreements = tuple(
        (instance, labels_a[instance], labels_b[instance])
        for instance in overlap
        if (labels_a[instance], labels_b[instance]) not in accepted
    )
    return AgreementReport(
        overlap_count=len(overlap),
        agree_count=len(overlap) - len(disagreements),
        disagreements=disagreements,
    )


def write_labels(path: str | Path, labels: Iterable[LabeledInstance]) -> None:
    rows = (
        (format_instance_id(label.instance), label.label_id, label.source)
        for label in sorted(labels, key=lambda l: (l.instance, l.source, l.label_id))
    )
    write_rows(path, LABELS_COLUMNS, rows)


def read_labels(path: str | Path) -> tuple[dict[InstanceID, str], str | None]:
    """Read labels.tsv as instance -> label id, and the first instance carrying two labels.

    Equal label ids are one string object. An instance that both sources
    label keeps the label of its last row; the first such instance comes
    back as a message (join_labels raises it once every input is read),
    else None.
    """
    labels: dict[InstanceID, str] = {}
    conflict = None
    seen: dict[str, set[InstanceID]] = {source: set() for source in SOURCES}
    label_ids: dict[str, str] = {}
    with read_table(path, LABELS_COLUMNS) as rows:
        for instance_s, label_id, source in rows:
            instance = parse_instance_id(instance_s)
            if source not in seen:
                raise ParseError(f"unknown source {echo(source)}")
            if not label_id:
                raise ParseError("empty label_id")
            if instance in seen[source]:
                raise ParseError(f"duplicate label for instance {echo(instance_s)} from {source}")
            seen[source].add(instance)
            if conflict is None and instance in labels:
                # a source labels an instance once, so the first label is the other source's
                first = SOURCE_GRANT if source == SOURCE_AUTHORITY else SOURCE_AUTHORITY
                conflict = (
                    f"instance {echo(format_instance_id(instance))} carries two labels "
                    f"({first}:{echo(labels[instance])}, {source}:{echo(label_id)}); "
                    "join one labeling source at a time"
                )
            labels[instance] = label_ids.setdefault(label_id, label_id)
    return labels, conflict


def write_pairs(path: str | Path, pairs: Iterable[tuple[InstanceID, InstanceID]]) -> None:
    rows = ((format_instance_id(a), format_instance_id(b)) for a, b in sorted(pairs))
    write_rows(path, PAIRS_COLUMNS, rows)


def read_pairs(path: str | Path) -> frozenset[tuple[InstanceID, InstanceID]]:
    """Read pairs.tsv; each pair comes back as (smaller, larger) instance."""
    pairs = []
    with read_table(path, PAIRS_COLUMNS) as rows:
        for a_s, b_s in rows:
            a = parse_instance_id(a_s)
            b = parse_instance_id(b_s)
            if a >> POSITION_BITS == b >> POSITION_BITS:
                raise ParseError(
                    f"invalid pair ({echo(a_s)}, {echo(b_s)}):"
                    " members must come from distinct papers"
                )
            pairs.append(_ordered(a, b))
    return frozenset(pairs)


def write_eval_dataset(path: str | Path, dataset: Iterable[EvalRow]) -> None:
    rows = (
        (
            format_instance_id(row.instance),
            row.truth_label,
            row.predicted_cluster_id,
            str(row.year),
            row.ethnicity if row.ethnicity is not None else "",
            row.gender if row.gender is not None else "",
        )
        for row in dataset
    )
    write_rows(path, EVAL_COLUMNS, rows)


def read_eval_dataset(path: str | Path) -> tuple[EvalRow, ...]:
    """Read an eval dataset's rows in instance order, whatever the file's order.

    Equal labels, cluster ids and tags share one string object. The rows
    are sorted in the list they are read into, not in a copy of it.
    """
    rows = []
    seen: set[InstanceID] = set()
    strings: dict[str, str] = {}
    with read_table(path, EVAL_COLUMNS) as table:
        for instance_s, truth_label, predicted_id, year_s, ethnicity, gender in table:
            instance = parse_instance_id(instance_s)
            if instance in seen:
                raise ParseError(f"duplicate row for instance {echo(instance_s)}")
            seen.add(instance)
            if not truth_label or not predicted_id:
                raise ParseError("truth_label and predicted_cluster_id are required")
            rows.append(
                EvalRow(
                    instance=instance,
                    truth_label=strings.setdefault(truth_label, truth_label),
                    predicted_cluster_id=strings.setdefault(predicted_id, predicted_id),
                    year=_int(year_s, "year"),
                    ethnicity=strings.setdefault(ethnicity, ethnicity) if ethnicity else None,
                    gender=strings.setdefault(gender, gender) if gender else None,
                )
            )
    rows.sort()
    return tuple(rows)


def write_conflicts(path: str | Path, conflicts: Iterable[ConflictRecord]) -> None:
    """Reason-coded drop records, one tab-separated line each (no header).

    A field holding a tab, newline or NUL byte raises ValueError, as in write_rows.
    """
    rows = (
        (record.reason, format_instance_id(record.instance), record.detail)
        for record in sorted(conflicts)
    )
    with open_text_write(path) as fh:
        _write_lines(fh, rows)
