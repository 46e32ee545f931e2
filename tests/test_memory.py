"""Memory guards: what a command holds, as ratios between tables of one run.

tracemalloc counts the Python allocations of a call in this process, so
each guard compares two calls on the same small synth bundle, never an
absolute size.
"""

import gc
import random
import tracemalloc

import pytest

import oracles
from oracles import iid
from linklab.baseline import cluster_fini, name_keys
from linklab.corpus import (
    Annotation,
    groups,
    ingest_annotations,
    ingest_clustering,
    ingest_corpus,
    ingest_paper_years,
    write_annotations,
    write_clustering,
)
from linklab.linkage import EvalRow, LabeledInstance, join_labels, read_labels, write_labels
from linklab.metrics import b3_scores
from linklab.synth import SynthConfig, generate, write_bundle


def _peak(call) -> int:
    """The most memory traced while `call` runs, what it returns included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundle")
    bundle = generate(SynthConfig(seed=3, n_authors=300, synonym_rate=0.1, homonym_rate=0.1))
    write_bundle(bundle, out)
    write_clustering(out / "fini.tsv", cluster_fini(bundle.corpus))
    return out


def test_clustering_scoring_holds_one_instance_table(bundle):
    truth, pred = bundle / "truth_clustering.tsv", bundle / "fini.tsv"
    read_truth = _peak(lambda: ingest_clustering(truth))
    read_pred = _peak(lambda: ingest_clustering(pred))
    # scoring the files adds to the truth's table less than half a second table
    assert _peak(lambda: b3_scores(truth, pred)) < read_truth + read_pred / 2
    # two tables held at once do not: the guard tells the two apart
    both = _peak(lambda: (ingest_clustering(truth), ingest_clustering(pred)))
    assert both > read_truth + read_pred / 2


def test_int_instance_ids_hold_less_than_tuple_keys(bundle):
    path = bundle / "truth_clustering.tsv"

    def tuple_keyed():
        """The file's rows in a dict keyed by (pmid, position), each cluster id shared."""
        table, ids = {}, {}
        with open(path, encoding="utf-8") as handle:
            next(handle)
            for line in handle:
                cluster_id, instance = line.rstrip("\n").split("\t")
                pmid, _, position = instance.partition("_")
                table[int(pmid), int(position)] = ids.setdefault(cluster_id, cluster_id)
        return table

    assert oracles.by_pair(ingest_clustering(path)) == tuple_keyed()
    # a full collection empties the tuple free list: tracemalloc does not
    # see a tuple that reuses memory freed before it started
    gc.collect()
    read = _peak(lambda: ingest_clustering(path))
    gc.collect()
    assert read < _peak(tuple_keyed)


def test_labels_join_holds_one_instance_table(bundle):
    # every instance of a seeded 70% of the planted authors, as the score benchmark labels them
    rng = random.Random(3)
    members = groups(ingest_clustering(bundle / "truth_clustering.tsv"))
    labels = bundle / "labels.tsv"
    write_labels(
        labels,
        [
            LabeledInstance(instance, f"orc-{author}", "authority")
            for author in members
            if rng.random() < 0.7
            for instance in members[author]
        ],
    )
    pred, papers = bundle / "fini.tsv", bundle / "papers.tsv"

    def join():
        return join_labels(labels, pred, papers)

    def two_table_join():
        """The same join with the prediction read into a table of its own."""
        table, _ = read_labels(labels)
        predicted = ingest_clustering(pred)
        years = ingest_paper_years(papers)
        return tuple(
            EvalRow(i, table[i], predicted[i], years[oracles.pair_of(i)[0]][0], None, None)
            for i in sorted(table)
            if i in predicted
        )

    assert join().rows == two_table_join()
    # both ran once above, so no first-call allocation falls in one side's peak
    bound = _peak(two_table_join) - _peak(lambda: ingest_clustering(pred)) / 2
    # reading the prediction onto the labels' table saves more than half a prediction table
    assert _peak(join) < bound
    # a join run while a second table is held does not: the guard tells the two apart
    assert _peak(lambda: (ingest_clustering(pred), join())) > bound


def test_profile_name_index_is_smaller_than_parsed_names(bundle):
    corpus = ingest_corpus(bundle / "papers.tsv")

    def parse_all():
        parsed = oracles.ParsedNames()
        for paper in corpus.values():
            for raw in paper.authors:
                parsed[raw]
        return parsed

    assert _peak(lambda: name_keys(corpus, str)) < _peak(parse_all)


def test_annotation_writer_sorts_instance_ids_not_rows(tmp_path):
    shared = Annotation("English", "Female")
    annotations = {
        iid(pmid, position): shared for pmid in range(5000, 0, -1) for position in (1, 2, 3, 4)
    }
    # the writer's sort holds one pointer per row, less than the
    # (instance, annotation) pair tuples a sort of the items holds
    write = _peak(lambda: write_annotations(tmp_path / "annotations.tsv", annotations))
    assert write < _peak(lambda: sorted(annotations.items()))


def test_groups_sorts_each_member_list_in_place(bundle):
    truth = ingest_clustering(bundle / "truth_clustering.tsv")

    def sorted_copies():
        members = {}
        for instance, cluster_id in truth.items():
            members.setdefault(cluster_id, []).append(instance)
        return {cluster_id: sorted(members[cluster_id]) for cluster_id in sorted(members)}

    assert groups(truth) == sorted_copies()
    # one list per cluster, not a list and its sorted copy
    assert _peak(lambda: groups(truth)) < 0.9 * _peak(sorted_copies)
