"""Independent, intentionally naive reference implementations for tests."""

import csv
import gzip
import unicodedata
import zlib
from collections import Counter
from collections.abc import Mapping
from contextlib import contextmanager
from typing import NamedTuple

from linklab._tsv import _records, open_text_read, open_text_write, write_rows
from linklab.baseline import UNPARSEABLE_PREFIX
from linklab.corpus import CLUSTERING_COLUMNS, Clustering, format_instance_id
from linklab.errors import EvaluationError, IngestError, ParseError, echo
from linklab.linkage import (
    DUP_TITLE_POLICIES,
    SOURCE_AUTHORITY,
    SOURCE_GRANT,
    ConflictRecord,
    EvalRow,
    JoinResult,
    LabeledInstance,
    LinkResult,
)
from linklab.metrics import STRATA, UNKNOWN_STRATUM, B3Scores, _f1
from linklab.normalize import _FOLD, fini_key, is_keyed, normalize_title, parse_name
from linklab.profile import block_size_ccdf, classify_synonym_types


def naive_ascii_fold(text):
    """Character loop over NFKD: transliterate, drop marks and other non-ASCII."""
    out = []
    for ch in unicodedata.normalize("NFKD", text):
        mapped = _FOLD.get(ch)
        if mapped is not None:
            out.append(mapped)
        elif unicodedata.combining(ch):
            continue
        elif ch.isascii():
            out.append(ch)
    return "".join(out)


def naive_normalize_title(raw, nonalpha="delete"):
    """Character-generator title cleanup; returns the text or None."""
    raw_tokens = raw.split()
    if len(raw_tokens) < 5:
        return None
    folded = naive_ascii_fold(raw).lower()
    if nonalpha == "delete":
        cleaned = "".join(ch for ch in folded if ch.isalpha() or ch.isspace())
    else:
        cleaned = "".join(ch if ch.isalpha() else " " for ch in folded)
    words = cleaned.split()
    if len(words) < 5:
        return None
    return " ".join(words)


def naive_clean_tokens(text):
    """Fold, lowercase, split, then keep each token's letters."""
    tokens = []
    for token in naive_ascii_fold(text).lower().split():
        letters = "".join(ch for ch in token if ch.isalpha())
        if letters:
            tokens.append(letters)
    return tokens


class BlockKey(NamedTuple):
    """The earlier blocking key: surname plus first forename initial."""

    surname: str
    first_initial: str


class NameKey(NamedTuple):
    """The earlier refined key: surname plus all forename initials."""

    surname: str
    all_initials: str


def tuple_fini_key(name):
    """The earlier normalize.fini_key."""
    return BlockKey(surname=name.surname, first_initial=name.first_initial)


def tuple_aini_key(name):
    """The earlier normalize.aini_key."""
    return NameKey(surname=name.surname, all_initials=name.all_initials)


def fini_cluster_id(key):
    """The earlier baseline.fini_cluster_id: a blocking key as its cluster id."""
    return f"{key.surname}|{key.first_initial}"


def aini_cluster_id(key):
    """The earlier baseline.aini_cluster_id: a refined key as its cluster id."""
    return f"{key.surname}|{key.all_initials}"


def naive_selfcitation_pairs(corpus, citations):
    """Compare every byline slot of the citing paper with every slot of the cited one.

    Returns canonical (smaller, larger) instance pairs.
    """

    def key(raw):
        try:
            name = parse_name(raw)
        except ParseError:
            return None
        return fini_key(name) if is_keyed(name) else None

    pairs = set()
    for edge in citations:
        citing = corpus.get(edge.citing_pmid)
        cited = corpus.get(edge.cited_pmid)
        if citing is None or cited is None or citing.pmid == cited.pmid:
            continue
        for pos_a, raw_a in enumerate(citing.authors, start=1):
            for pos_b, raw_b in enumerate(cited.authors, start=1):
                key_a = key(raw_a)
                if key_a is not None and key_a == key(raw_b):
                    a = (citing.pmid, pos_a)
                    b = (cited.pmid, pos_b)
                    pairs.add((a, b) if a <= b else (b, a))
    return pairs


def parse_keyed(raw):
    """The earlier linkage._parse_keyed: unparseable and mononym names yield None."""
    try:
        name = parse_name(raw)
    except ParseError:
        return None
    return name if is_keyed(name) else None


def corpus_names(corpus):
    """The earlier baseline.corpus_names: (instance, parsed name or None) per byline slot.

    Each distinct raw string is parsed once per call.
    """
    parsed = {}
    for paper in corpus.values():
        for position, raw in enumerate(paper.authors, start=1):
            if raw not in parsed:
                try:
                    parsed[raw] = parse_name(raw)
                except ParseError:
                    parsed[raw] = None
            yield (paper.pmid, position), parsed[raw]


def shared_keys(instances, key):
    """The earlier baseline._shared_keys: each (instance, name) with its name's key.

    None for an unparseable name or a None key; keys are memoised by raw
    string and equal keys are one object.
    """
    by_raw = {}
    shared = {}
    for instance, name in instances:
        if name is None:
            yield instance, None
            continue
        try:
            name_key = by_raw[name.raw]
        except KeyError:
            name_key = key(name)
            if name_key is not None:
                name_key = shared.setdefault(name_key, name_key)
            by_raw[name.raw] = name_key
        yield instance, name_key


def cluster(instances, key):
    """The earlier baseline._cluster: group (instance, name) pairs; unparseable names are singletons."""
    return Clustering.from_assignment({
        instance: UNPARSEABLE_PREFIX + format_instance_id(instance) if name_key is None else name_key
        for instance, name_key in shared_keys(instances, key)
    })


def key_index(corpus):
    """The earlier linkage._key_index: distinct raw byline name -> blocking key, None for none."""
    names = dict.fromkeys(raw for paper in corpus.values() for raw in paper.authors)
    return dict(shared_keys(((raw, parse_keyed(raw)) for raw in names), fini_key))


def profile_ccdf(corpus):
    """The earlier `profile` block sizes: a whole fini clustering of a name list, counted."""
    return block_size_ccdf(Counter(cluster(corpus_names(corpus), fini_key).values()).values())


def profile_typology(truth, corpus):
    """The earlier `profile` typology: a dict of every instance's parsed name."""
    return classify_synonym_types(truth, dict(corpus_names(corpus)).get)


def naive_b3(truth_clusters, predicted_clusters):
    """Per-instance double-loop B-cubed over the truth universe.

    truth_clusters / predicted_clusters: mapping cluster_id -> set of
    instances. Every truth instance must appear in predicted; predicted
    clusters are restricted to the truth universe.
    """
    universe = set()
    for members in truth_clusters.values():
        universe |= members

    def cluster_of(clusters, instance):
        for members in clusters.values():
            if instance in members:
                return members
        raise KeyError(instance)

    recall_sum = 0.0
    precision_sum = 0.0
    for t in sorted(universe):
        truth_members = cluster_of(truth_clusters, t)
        predicted_members = cluster_of(predicted_clusters, t) & universe
        shared = len(truth_members & predicted_members)
        recall_sum += shared / len(truth_members)
        precision_sum += shared / len(predicted_members)
    n = len(universe)
    recall = recall_sum / n
    precision = precision_sum / n
    f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
    return recall, precision, f1


def random_partition(rng, instances, max_clusters=None):
    """Random partition as a cluster_id -> set mapping; may be skewed."""
    instances = list(instances)
    k = rng.randint(1, max_clusters or len(instances))
    clusters = {}
    for instance in instances:
        clusters.setdefault(f"c{rng.randint(1, k)}", set()).add(instance)
    return clusters


def make_instances(n):
    return [(i, 1) for i in range(1, n + 1)]


def clustering_of(groups):
    """A Clustering of {cluster_id: members}; a partition is assumed, not checked."""
    return Clustering.from_assignment({i: cid for cid, members in groups.items() for i in members})


class TwoCopyClustering(Mapping):
    """The earlier Clustering: frozenset members per cluster plus an assignment dict."""

    def __init__(self, clusters):
        built = {}
        assignment = {}
        for cluster_id, members in clusters.items():
            if not cluster_id:
                raise ValueError("empty cluster_id")
            member_set = frozenset(members)
            if not member_set:
                raise ValueError(f"cluster {cluster_id!r} has no members")
            built[cluster_id] = member_set
        for cluster_id in sorted(built):
            for instance in built[cluster_id]:
                other = assignment.get(instance)
                if other is not None:
                    raise ValueError(
                        f"instance {format_instance_id(instance)} is in both "
                        f"clusters {other!r} and {cluster_id!r}"
                    )
                assignment[instance] = cluster_id
        self.clusters = built
        self._assignment = assignment

    @classmethod
    def from_assignment(cls, assignment):
        clusters = {}
        for instance, cluster_id in assignment.items():
            clusters.setdefault(cluster_id, set()).add(instance)
        return cls(clusters)

    def __getitem__(self, instance):
        return self._assignment[instance]

    def __iter__(self):
        return iter(self._assignment)

    def __len__(self):
        return len(self._assignment)

    def __eq__(self, other):
        if not isinstance(other, TwoCopyClustering):
            return NotImplemented
        return self.clusters == other.clusters


def write_two_copy_clustering(path, clustering):
    """The earlier write_clustering, over a TwoCopyClustering."""
    rows = [
        (cluster_id, format_instance_id(instance))
        for cluster_id in sorted(clustering.clusters)
        for instance in sorted(clustering.clusters[cluster_id])
    ]
    write_rows(path, CLUSTERING_COLUMNS, rows)


def parse_instance_id(s):
    """The earlier parser: string-method checks, a (pmid, position) result."""
    pmid_s, sep, pos_s = s.partition("_")
    if not sep or not (pmid_s.isascii() and pmid_s.isdigit()) or not (
        pos_s.isascii() and pos_s.isdigit()
    ):
        raise ParseError(f"instance id {s!r} is not of the form <pmid>_<position>")
    pmid = int(pmid_s)
    position = int(pos_s)
    if pmid < 1:
        raise ParseError(f"instance id {s!r}: pmid must be >= 1")
    if position < 1:
        raise ParseError(f"instance id {s!r}: position must be >= 1")
    return (pmid, position)


def _nul_free_lines(fh, path):
    for row_no, line in enumerate(fh):
        if "\0" in line:
            raise IngestError("field contains a NUL byte", row=row_no, path=str(path))
        yield line


def csv_records(path):
    """The earlier _tsv._records: csv.reader with no quoting over NUL-checked lines.

    Leaves the csv module's 128 KiB field limit as it is, so keep test
    tables below it.
    """
    row_no = 0
    try:
        with open_text_read(path) as fh:
            lines = _nul_free_lines(fh, path)
            for record in csv.reader(lines, delimiter="\t", quoting=csv.QUOTE_NONE):
                yield record
                row_no += 1
    except csv.Error as exc:
        raise IngestError(str(exc), row=row_no, path=str(path)) from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8 text: {exc}", path=str(path)) from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise IngestError(f"damaged gzip data: {exc}", path=str(path)) from None


def keyed_bylines(corpus):
    """The earlier linkage._keyed_bylines: pmid -> blocking key -> keyed byline positions.

    Every pmid maps to a dict, an empty one when the paper has no keyed name.
    """

    def keyed_fini_key(name):
        return fini_key(name) if is_keyed(name) else None

    bylines = {pmid: {} for pmid in corpus}
    for (pmid, position), key in shared_keys(corpus_names(corpus), keyed_fini_key):
        if key is not None:
            bylines[pmid].setdefault(key, []).append(position)
    return bylines


def resolve_candidates(candidates, source):
    """The earlier linkage._resolve_candidates: one set per instance and per (pmid, label)."""
    by_instance = {}
    by_paper_label = {}
    for instance, label_id in candidates:
        by_instance.setdefault(instance, set()).add(label_id)
        by_paper_label.setdefault((instance[0], label_id), set()).add(instance)

    dropped = set()
    conflicts = []
    for instance in sorted(by_instance):
        label_ids = by_instance[instance]
        if len(label_ids) > 1:
            dropped.update((instance, label_id) for label_id in label_ids)
            conflicts.append(
                ConflictRecord(
                    "instance_multilabel",
                    instance,
                    f"{source}:{','.join(sorted(label_ids))}",
                )
            )
    for pmid, label_id in sorted(by_paper_label):
        instances = by_paper_label[(pmid, label_id)]
        if len(instances) > 1:
            listed = ",".join(format_instance_id(i) for i in sorted(instances))
            for instance in sorted(instances):
                dropped.add((instance, label_id))
                conflicts.append(
                    ConflictRecord(
                        "paper_multimatch",
                        instance,
                        f"{source}:{label_id} instances:{listed}",
                    )
                )
    labels = tuple(
        LabeledInstance(instance, label_id, source)
        for instance, label_id in sorted(candidates)
        if (instance, label_id) not in dropped
    )
    return labels, tuple(sorted(conflicts))


def link_authority(corpus, registry, *, dup_title_policy="drop-all", nonalpha="delete"):
    """The earlier linkage.link_authority: its own per-profile matching loop."""
    if dup_title_policy not in DUP_TITLE_POLICIES:
        raise ValueError(
            f"dup_title_policy must be one of {DUP_TITLE_POLICIES}, got {dup_title_policy!r}"
        )
    title_texts = {}

    def title_text(raw):
        if raw not in title_texts:
            title_texts[raw] = normalize_title(raw, nonalpha=nonalpha)
        return title_texts[raw]

    pmids_by_title = {}
    for paper in corpus.values():
        text = title_text(paper.raw_title)
        if text is not None:
            pmids_by_title.setdefault(text, []).append(paper.pmid)
    title_to_pmid = {}
    duplicate_copies = 0
    for text, pmids in pmids_by_title.items():
        if len(pmids) == 1:
            title_to_pmid[text] = pmids[0]
        elif dup_title_policy == "keep-first":
            title_to_pmid[text] = min(pmids)
            duplicate_copies += len(pmids) - 1
        else:
            duplicate_copies += len(pmids)

    bylines = keyed_bylines(corpus)
    candidates = set()
    unusable_profiles = 0
    for authority_id in sorted(registry):
        profile = registry[authority_id]
        profile_name = parse_keyed(profile.person_name)
        if profile_name is None:
            unusable_profiles += 1
            continue
        profile_key = fini_key(profile_name)
        matched_pmids = set()
        for raw_title in profile.work_titles:
            pmid = title_to_pmid.get(title_text(raw_title))
            if pmid is not None:
                matched_pmids.add(pmid)
        for pmid in matched_pmids:
            for position in bylines[pmid].get(profile_key, ()):
                candidates.add(((pmid, position), authority_id))

    labels, conflicts = resolve_candidates(candidates, SOURCE_AUTHORITY)
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


def link_grants(corpus, grants):
    """The earlier linkage.link_grants: its own per-PI matching loop."""
    bylines = keyed_bylines(corpus)
    candidates = set()
    unusable_pis = 0
    funded = set()
    funded_in_corpus = set()
    for pi_id in sorted(grants):
        record = grants[pi_id]
        funded.update(record.funded_pmids)
        pi_name = parse_keyed(record.pi_name)
        if pi_name is None:
            unusable_pis += 1
            continue
        pi_key = fini_key(pi_name)
        for pmid in sorted(record.funded_pmids):
            grouped = bylines.get(pmid)
            if grouped is None:
                continue
            funded_in_corpus.add(pmid)
            for position in grouped.get(pi_key, ()):
                candidates.add(((pmid, position), pi_id))

    labels, conflicts = resolve_candidates(candidates, SOURCE_GRANT)
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


def b3_scores(truth, predicted, *, strict=True):
    """The earlier metrics.b3_scores: three Counter updates per instance.

    Its strict message quotes the instance through errors.echo, as the
    current one does.
    """
    if not truth:
        raise EvaluationError("nothing to evaluate: truth clustering is empty")

    overlap = Counter()
    truth_sizes = Counter()
    predicted_sizes = Counter()
    dropped = 0
    for instance, truth_id in truth.items():
        predicted_id = predicted.get(instance)
        if predicted_id is None:
            if strict:
                raise EvaluationError(
                    f"instance {echo(format_instance_id(instance))} has no "
                    "predicted cluster (use lenient mode to drop)"
                )
            dropped += 1
            continue
        overlap[(truth_id, predicted_id)] += 1
        truth_sizes[truth_id] += 1
        predicted_sizes[predicted_id] += 1

    n = sum(truth_sizes.values())
    if n == 0:
        raise EvaluationError("nothing to evaluate: no truth instance has a prediction")

    recall_sum = 0.0
    precision_sum = 0.0
    for (truth_id, predicted_id), count in sorted(overlap.items()):
        shared = count * count
        recall_sum += shared / truth_sizes[truth_id]
        precision_sum += shared / predicted_sizes[predicted_id]
    recall = recall_sum / n
    precision = precision_sum / n
    return B3Scores(recall, precision, _f1(recall, precision), n, dropped)


def join_labels(labels, clustering, corpus, annotations=None, *, strict=False):
    """The earlier linkage.join_labels, fed by the full readers.

    It indexes the labels itself, raising at the first instance with two
    labels, and reads the year and byline of each instance from a whole
    corpus of PaperRecords.
    """
    annotations = annotations or {}
    by_instance = {}
    for label in labels:
        existing = by_instance.get(label.instance)
        if existing is not None and (existing.label_id, existing.source) != (
            label.label_id,
            label.source,
        ):
            raise ValueError(
                f"instance {echo(format_instance_id(label.instance))} carries two labels "
                f"({existing.source}:{echo(existing.label_id)},"
                f" {label.source}:{echo(label.label_id)}); "
                "join one labeling source at a time"
            )
        by_instance[label.instance] = label

    rows = []
    dropped_unclustered = 0
    dropped_missing_paper = 0
    for instance in sorted(by_instance):
        label = by_instance[instance]
        cluster_id = clustering.get(instance)
        if cluster_id is None:
            dropped_unclustered += 1
            continue
        paper = corpus.get(instance[0])
        if paper is None or not 1 <= instance[1] <= len(paper.authors):
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
                truth_label=label.label_id,
                predicted_cluster_id=cluster_id,
                year=paper.year,
                ethnicity=annotation.ethnicity if annotation else None,
                gender=annotation.gender if annotation else None,
            )
        )
    return JoinResult(tuple(rows), dropped_unclustered, dropped_missing_paper)


def stratify(rows, stratum):
    """The earlier metrics.stratify."""
    groups = {}
    for row in rows:
        value = getattr(row, stratum)
        key = UNKNOWN_STRATUM if value is None or value == "" else str(value)
        groups.setdefault(key, []).append(row)
    return dict(sorted(groups.items()))


def stratified_eval(dataset, stratum):
    """The earlier metrics.stratified_eval: two instance dicts per stratum, b3_scores on each."""
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}, expected one of {STRATA}")
    rows = list(dataset)
    if not rows:
        raise EvaluationError("nothing to evaluate: empty dataset")

    def score(subset):
        return b3_scores(
            {row.instance: row.truth_label for row in subset},
            {row.instance: row.predicted_cluster_id for row in subset},
        )

    result = {value: score(group) for value, group in stratify(rows, stratum).items()}
    result["ALL"] = score(rows)
    return result


def read_rows(path, columns):
    """The earlier _tsv.read_rows: a generator over _records, numbering every row."""
    expected = list(columns)
    records = _records(path)
    header = next(records, None)
    if header is None:
        raise IngestError("empty file, expected a header row", path=str(path))
    if header != expected:
        got, want = "\t".join(header), "\t".join(expected)
        raise IngestError(f"bad header {echo(got)}, expected {want!r}", path=str(path))
    for row_no, fields in enumerate(records, start=1):
        if not fields:
            continue
        if len(fields) != len(expected):
            raise IngestError(
                f"expected {len(expected)} columns, got {len(fields)}",
                row=row_no,
                path=str(path),
            )
        yield row_no, fields


@contextmanager
def read_table(path, columns):
    """The earlier _tsv.read_table: a third generator over read_rows keeps the row number."""
    row_no = 0

    def fields():
        nonlocal row_no
        for row_no, row in read_rows(path, columns):
            yield row

    rows = fields()
    try:
        yield rows
    except ParseError as exc:
        raise IngestError(str(exc), row=row_no, path=str(path)) from None
    finally:
        rows.close()


def field_scan_write_rows(path, columns, rows):
    """The earlier _tsv.write_rows: every field checked before its row is joined.

    Like the current writer, it refuses a NUL byte as it refuses a tab or newline.
    """
    with open_text_write(path) as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            for field in row:
                if "\t" in field or "\n" in field or "\r" in field:
                    raise ValueError(f"field {echo(field)} contains a tab or newline")
                if "\0" in field:
                    raise ValueError(f"field {echo(field)} contains a NUL byte")
            fh.write("\t".join(row) + "\n")
