"""Labeling pipelines and the label/clustering join.

Three independent routes produce truth data: matching authority-profile
work titles to corpus titles, matching grant PI names onto funded
papers, and pairing byline instances across citation edges. Labels are
assigned only when a name's blocking key matches; any ambiguity (one
instance drawing two labels, or one profile matching two positions on
the same paper) drops the affected candidates and logs a conflict
rather than guessing. Byline, profile and PI names are keyed by one
rule, normalize.match_key (byline names through baseline.name_keys), so
an unparseable name or a mononym matches nothing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import NamedTuple

from ._tsv import _write_lines, open_text_write, read_table, write_rows
from .baseline import name_keys
from .corpus import (
    AuthorityProfile,
    Annotation,
    CitationEdge,
    Corpus,
    GrantRecord,
    InstanceID,
    _int,
    format_instance_id,
    parse_instance_id,
)
from .errors import EvaluationError, ParseError, echo
from .normalize import match_key, normalize_title, parse_or_none

SOURCE_AUTHORITY = "authority"
SOURCE_GRANT = "grant"
SOURCES = (SOURCE_AUTHORITY, SOURCE_GRANT)
_SOURCE_NAMES = {source: source for source in SOURCES}  # the read text -> the constant

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


def _match_people(
    corpus: Corpus, people: Iterable[tuple[str, str, Iterable[int]]]
) -> tuple[set[tuple[InstanceID, str]], int, set[int]]:
    """Match each (person id, raw name, pmids) to the byline positions under its key.

    A person matches every position on one of their in-corpus pmids whose
    name has the person's blocking key. Returns the (instance, person id)
    candidates, the number of people whose name is unusable (their pmids
    are not read), and the in-corpus pmids of the usable people.
    """
    keys = name_keys(corpus, match_key)
    candidates: set[tuple[InstanceID, str]] = set()
    unusable = 0
    pmids_in_corpus: set[int] = set()
    for person_id, raw_name, pmids in people:
        name = parse_or_none(raw_name)
        key = None if name is None else match_key(name)
        if key is None:
            unusable += 1
            continue
        for pmid in pmids:
            paper = corpus.get(pmid)
            if paper is None:
                continue
            pmids_in_corpus.add(pmid)
            for position, raw in enumerate(paper.authors, start=1):
                if keys[raw] == key:
                    candidates.add(((pmid, position), person_id))
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
    per_paper_label = Counter((instance[0], label_id) for instance, label_id in candidates)
    label_ids: dict[InstanceID, list[str]] = {}
    instances: dict[tuple[int, str], list[InstanceID]] = {}
    labels = []
    for instance, label_id in sorted(candidates):
        multilabel = per_instance[instance] > 1
        if multilabel:
            label_ids.setdefault(instance, []).append(label_id)
        if per_paper_label[instance[0], label_id] > 1:
            instances.setdefault((instance[0], label_id), []).append(instance)
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


def link_authority(
    corpus: Corpus,
    registry: Mapping[str, AuthorityProfile],
    *,
    dup_title_policy: str = "drop-all",
    nonalpha: str = "delete",
) -> LinkResult:
    """Label byline instances via profile work-title + blocking-key match.

    Corpus titles too short to normalize are unusable. A normalized
    title appearing on more than one paper is removed entirely under
    "drop-all" (the default; no survivor is elected) or mapped to its
    lowest PMID under "keep-first".
    """
    if dup_title_policy not in DUP_TITLE_POLICIES:
        raise ValueError(
            f"dup_title_policy must be one of {DUP_TITLE_POLICIES}, got {dup_title_policy!r}"
        )
    title_texts: dict[str, str | None] = {}

    def title_text(raw: str) -> str | None:
        if raw not in title_texts:
            title_texts[raw] = normalize_title(raw, nonalpha=nonalpha)
        return title_texts[raw]

    pmids_by_title: dict[str, list[int]] = {}
    for paper in corpus.values():
        text = title_text(paper.raw_title)
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

    def profile_pmids(profile: AuthorityProfile) -> Iterator[int]:
        for raw_title in profile.work_titles:
            pmid = title_to_pmid.get(title_text(raw_title))
            if pmid is not None:
                yield pmid

    candidates, unusable_profiles, _ = _match_people(
        corpus,
        ((authority_id, profile.person_name, profile_pmids(profile))
         for authority_id, profile in registry.items()),
    )
    labels, conflicts = _resolve_candidates(candidates, SOURCE_AUTHORITY)
    stats = {
        "papers": len(corpus),
        "titles_usable": len(title_to_pmid),
        "duplicate_title_copies_dropped": duplicate_copies,
        "profiles": len(registry),
        "profiles_unusable_name": unusable_profiles,
        "candidates": len(candidates),
        "labels": len(labels),
        "conflict_drops": len(candidates) - len(labels),
    }
    return LinkResult(labels, conflicts, stats)


def link_grants(corpus: Corpus, grants: Mapping[str, GrantRecord]) -> LinkResult:
    """Label byline instances of funded papers by PI blocking-key match."""
    candidates, unusable_pis, funded_in_corpus = _match_people(
        corpus,
        ((pi_id, record.pi_name, record.funded_pmids) for pi_id, record in grants.items()),
    )
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
            citing_positions: dict[str, list[int]] = {}
            if citing is not None:
                for position, raw in enumerate(citing.authors, start=1):
                    key = keys[raw]
                    if key is not None:
                        citing_positions.setdefault(key, []).append(position)
        cited = corpus.get(edge.cited_pmid)
        if not citing_positions or cited is None or edge.cited_pmid == citing_pmid:
            continue
        for pos_cited, raw in enumerate(cited.authors, start=1):
            for pos_citing in citing_positions.get(keys[raw], ()):
                pairs.add(_ordered((citing_pmid, pos_citing), (edge.cited_pmid, pos_cited)))
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


class LabelIndex(NamedTuple):
    """Labels by instance, keyed by each label's own instance tuple."""

    labels: dict[InstanceID, LabeledInstance]
    conflict: str | None  # the first instance carrying two labels, raised by join_labels


def index_labels(labels: Iterable[LabeledInstance]) -> LabelIndex:
    """Index labels by instance; note, not raise, the first instance with two labels.

    An instance's first label is kept. The index is a `keep` mapping for
    ingest_clustering and ingest_annotations, which then key what they
    keep by the labels' own tuples.
    """
    by_instance: dict[InstanceID, LabeledInstance] = {}
    conflict = None
    for label in labels:
        existing = by_instance.setdefault(label.instance, label)
        if conflict is None and (existing.label_id, existing.source) != (
            label.label_id,
            label.source,
        ):
            conflict = (
                f"instance {echo(format_instance_id(label.instance))} carries two labels "
                f"({existing.source}:{echo(existing.label_id)},"
                f" {label.source}:{echo(label.label_id)}); "
                "join one labeling source at a time"
            )
    return LabelIndex(by_instance, conflict)


def join_labels(
    index: LabelIndex,
    clustering: Mapping[InstanceID, str],
    papers: Mapping[int, tuple[int, int]],
    annotations: Mapping[InstanceID, Annotation] | None = None,
    *,
    strict: bool = False,
) -> JoinResult:
    """Inner-join indexed labels with predicted clusters; attach year and tags.

    `papers` maps a pmid to its (year, byline length), as
    ingest_paper_years reads it. An index that noted an instance with two
    labels raises ValueError. Labeled instances without a predicted
    cluster are dropped and counted. Instances missing from the papers
    (no year available) are an error in strict mode, otherwise dropped
    and counted.
    """
    if index.conflict is not None:
        raise ValueError(index.conflict)
    annotations = annotations or {}
    rows = []
    dropped_unclustered = 0
    dropped_missing_paper = 0
    for instance in sorted(index.labels):
        cluster_id = clustering.get(instance)
        if cluster_id is None:
            dropped_unclustered += 1
            continue
        paper = papers.get(instance[0])
        if paper is None or not 1 <= instance[1] <= paper[1]:
            if strict:
                raise EvaluationError(
                    f"labeled instance {echo(format_instance_id(instance))} is not in the corpus"
                )
            dropped_missing_paper += 1
            continue
        annotation = annotations.get(instance)
        rows.append(
            EvalRow(
                instance=instance,
                truth_label=index.labels[instance].label_id,
                predicted_cluster_id=cluster_id,
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
    label pair is not part of the alignment is a disagreement.
    """
    overlap = sorted(set(labels_a) & set(labels_b))
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


def read_labels(path: str | Path) -> tuple[LabeledInstance, ...]:
    """Read labels.tsv; equal label ids and sources share one string object."""
    labels = []
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
            labels.append(
                LabeledInstance(
                    instance, label_ids.setdefault(label_id, label_id), _SOURCE_NAMES[source]
                )
            )
    return tuple(labels)


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
            if a[0] == b[0]:
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

    Equal labels, cluster ids and tags share one string object.
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
    return tuple(sorted(rows))


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
