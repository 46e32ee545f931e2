"""B-cubed scoring, pair accuracy, and stratified evaluation."""

import json
import random
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

import oracles
from linklab.corpus import Clustering, InstanceID
from linklab.errors import EvaluationError
from linklab.linkage import EvalRow
from linklab.metrics import (
    STRATA,
    B3Scores,
    b3_rows,
    metrics_to_json,
    pair_accuracy_detail,
    stratified_eval,
)
from oracles import (
    iid,
    clustering_of,
    make_instances,
    naive_b3,
    random_partition,
    score_clusterings,
)

A, B, C = iid(1, 1), iid(2, 1), iid(3, 1)


def test_identity_scores_one():
    clustering = clustering_of({"x": {A, B}, "y": {C}})
    assert score_clusterings(clustering, clustering) == B3Scores(1.0, 1.0, 1.0, 3, 0)


def test_worked_example_two_thirds():
    truth = clustering_of({"t1": {A, B}, "t2": {C}})
    predicted = clustering_of({"p1": {A}, "p2": {B, C}})
    scores = score_clusterings(truth, predicted)
    assert scores.recall == pytest.approx(2 / 3, abs=1e-15)
    assert scores.precision == pytest.approx(2 / 3, abs=1e-15)
    assert scores.f1 == pytest.approx(2 / 3, abs=1e-15)
    assert scores.n == 3


def test_worked_example_singletons():
    truth = clustering_of({"t": {A, B, C}})
    predicted = clustering_of({"p1": {A}, "p2": {B}, "p3": {C}})
    scores = score_clusterings(truth, predicted)
    assert scores.recall == pytest.approx(1 / 3, abs=1e-15)
    assert scores.precision == 1.0
    assert scores.f1 == pytest.approx(0.5, abs=1e-15)


def test_extremes():
    truth = clustering_of({"t1": {A, B}, "t2": {C}})
    singletons = clustering_of({"p1": {A}, "p2": {B}, "p3": {C}})
    giant = clustering_of({"p": {A, B, C}})
    assert score_clusterings(truth, singletons).precision == 1.0
    assert score_clusterings(truth, giant).recall == 1.0


def test_extra_predicted_instances_are_ignored():
    extra = iid(9, 9)
    truth = clustering_of({"t1": {A, B}})
    predicted = clustering_of({"p1": {A, B}, "p2": {extra}})
    assert score_clusterings(truth, predicted) == B3Scores(1.0, 1.0, 1.0, 2, 0)


def test_restrict_predicted_flag():
    extra = iid(9, 9)
    truth = clustering_of({"t1": {A, B}})
    predicted = clustering_of({"p1": {A, B, extra}})
    restricted = score_clusterings(truth, predicted)
    assert restricted.precision == 1.0


def test_missing_instance_strict_and_lenient():
    truth = clustering_of({"t1": {A, B}, "t2": {C}})
    predicted = clustering_of({"p1": {A, B}})
    with pytest.raises(EvaluationError, match="no predicted cluster"):
        score_clusterings(truth, predicted)
    scores = score_clusterings(truth, predicted, strict=False)
    assert scores == B3Scores(1.0, 1.0, 1.0, 2, 1)


def test_lenient_drop_restricts_truth_cluster():
    # b is dropped, so a's truth cluster shrinks to {a} for scoring.
    truth = clustering_of({"t1": {A, B}})
    predicted = clustering_of({"p1": {A}})
    scores = score_clusterings(truth, predicted, strict=False)
    assert scores == B3Scores(1.0, 1.0, 1.0, 1, 1)


def test_empty_and_unevaluable_inputs_error():
    predicted = clustering_of({"p": {A}})
    empty = clustering_of({})
    with pytest.raises(EvaluationError, match="empty"):
        score_clusterings(empty, predicted)
    truth = clustering_of({"t": {B}})
    with pytest.raises(EvaluationError, match="no truth instance"):
        score_clusterings(truth, predicted, strict=False)


def test_matches_naive_oracle_on_random_partitions():
    rng = random.Random(20260814)
    for _ in range(200):
        n = rng.randint(1, 50)
        instances = make_instances(n)
        truth = random_partition(rng, instances)
        predicted = random_partition(rng, instances)
        fast = score_clusterings(clustering_of(truth), clustering_of(predicted))
        slow = naive_b3(truth, predicted)
        assert fast.recall == pytest.approx(slow[0], abs=1e-12)
        assert fast.precision == pytest.approx(slow[1], abs=1e-12)
        assert fast.f1 == pytest.approx(slow[2], abs=1e-12)


def test_precision_recall_symmetry():
    rng = random.Random(99)
    for _ in range(50):
        instances = make_instances(rng.randint(1, 40))
        one = clustering_of(random_partition(rng, instances))
        two = clustering_of(random_partition(rng, instances))
        assert score_clusterings(one, two).precision == pytest.approx(
            score_clusterings(two, one).recall, abs=1e-15
        )


def test_pair_accuracy_giant_cluster():
    predicted = clustering_of({"p": {A, B, C}})
    assert pair_accuracy_detail([(A, B), (B, C)], predicted).accuracy == 1.0


def test_pair_accuracy_counts_splits():
    predicted = clustering_of({"p1": {A, B}, "p2": {C}})
    detail = pair_accuracy_detail([(A, B), (B, C), (A, C)], predicted)
    assert detail.accuracy == pytest.approx(1 / 3)
    assert detail.evaluated == 3
    assert detail.dropped == 0


def test_pair_accuracy_drops_unclustered_members():
    predicted = clustering_of({"p1": {A, B}})
    detail = pair_accuracy_detail([(A, B), (A, C)], predicted)
    assert detail == (1.0, 1, 1)
    with pytest.raises(EvaluationError, match="no pair"):
        pair_accuracy_detail([(A, C)], predicted)


class Row(NamedTuple):
    instance: InstanceID
    truth_label: str
    predicted_cluster_id: str
    year: int | None
    ethnicity: str | None
    gender: str | None


def test_stratified_single_stratum_equals_whole():
    rows = [
        Row(A, "t1", "p1", 1999, "English", "Female"),
        Row(B, "t1", "p2", 1999, "English", "Female"),
        Row(C, "t2", "p2", 1999, "English", "Female"),
    ]
    result = stratified_eval(rows, "gender")
    assert set(result) == {"Female", "ALL"}
    assert result["Female"] == result["ALL"]
    assert result["ALL"].recall == pytest.approx(2 / 3)


def test_stratified_weighted_mean_identity():
    d = iid(4, 1)
    rows = [
        Row(A, "t1", "p1", 1991, None, None),
        Row(B, "t1", "p1", 1991, None, None),
        Row(C, "t2", "p2", 1991, None, None),
        Row(d, "t3", "p3", 2005, None, None),
    ]
    result = stratified_eval(rows, "year")
    assert set(result) == {"1991", "2005", "ALL"}
    weighted = (
        result["1991"].recall * result["1991"].n
        + result["2005"].recall * result["2005"].n
    ) / (result["1991"].n + result["2005"].n)
    assert result["ALL"].recall == pytest.approx(weighted, abs=1e-15)


def test_stratified_missing_attribute_goes_unknown():
    rows = [
        Row(A, "t1", "p1", 1999, "", None),
        Row(B, "t1", "p1", 1999, None, None),
        Row(C, "t2", "p2", 1999, "Korean", None),
    ]
    result = stratified_eval(rows, "ethnicity")
    assert set(result) == {"UNKNOWN", "Korean", "ALL"}
    assert result["UNKNOWN"].n == 2


def _clusters(rows, field):
    clusters = {}
    for row in rows:
        clusters.setdefault(getattr(row, field), set()).add(row.instance)
    return clusters


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3", "t4"]),
            st.sampled_from(["p1", "p2", "p3"]),
            st.sampled_from([None, "", "English", "Korean", "Spanish"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_stratified_matches_naive_oracle(cells):
    rows = [
        Row((i, 1), truth, predicted, 2000, ethnicity, None)
        for i, (truth, predicted, ethnicity) in enumerate(cells, start=1)
    ]
    result = stratified_eval(rows, "ethnicity")
    subsets = {"ALL": rows}
    for row in rows:
        subsets.setdefault(row.ethnicity or "UNKNOWN", []).append(row)
    assert set(result) == set(subsets)
    for value, subset in subsets.items():
        slow = naive_b3(_clusters(subset, "truth_label"), _clusters(subset, "predicted_cluster_id"))
        fast = result[value]
        assert fast.n == len(subset)
        assert fast.recall == pytest.approx(slow[0], abs=1e-12)
        assert fast.precision == pytest.approx(slow[1], abs=1e-12)
        assert fast.f1 == pytest.approx(slow[2], abs=1e-12)


def test_scores_ignore_mapping_order():
    rng = random.Random(5)
    instances = make_instances(300)
    truth = {i: f"t{rng.randint(1, 40)}" for i in instances}
    predicted = {i: f"p{rng.randint(1, 40)}" for i in instances}
    shuffled = list(instances)
    rng.shuffle(shuffled)
    expected = score_clusterings(
        Clustering.from_assignment(truth), Clustering.from_assignment(predicted)
    )
    assert score_clusterings({i: truth[i] for i in shuffled}, predicted) == expected
    assert score_clusterings(truth, {i: predicted[i] for i in shuffled}) == expected


def test_stratified_rejects_unknown_attribute():
    with pytest.raises(ValueError, match="unknown stratum"):
        stratified_eval([Row(A, "t", "p", None, None, None)], "shoe_size")


def test_metrics_json_key_order():
    scores = B3Scores(0.5, 1.0, 2 / 3, 4, 1)
    payload = json.loads(metrics_to_json(scores, {"ALL": scores}))
    assert list(payload) == ["recall", "precision", "f1", "n", "dropped", "strata"]
    assert payload["strata"]["ALL"]["n"] == 4


def _outcome(score, *args, **kwargs):
    """repr() of what a scorer returns, so floats must agree to the last bit, or its error."""
    try:
        return repr(score(*args, **kwargs))
    except EvaluationError as exc:
        return f"EvaluationError: {exc}"


INSTANCES = st.builds(iid, st.integers(1, 25), st.integers(1, 4))
# ids whose sort order differs from their insertion order, an upper-case
# letter and a non-ASCII one included
CLUSTER_IDS = st.sampled_from(["c", "a", "b", "B", "\xe9", "a b", "a0"])


@st.composite
def truth_and_prediction(draw):
    """A truth partition, a prediction that may miss some of its instances, and extras."""
    truth = draw(st.dictionaries(INSTANCES, CLUSTER_IDS, max_size=40))
    order = list(truth)
    missing = set()
    if order and draw(st.booleans()):
        missing = draw(st.sets(st.sampled_from(order), min_size=1, max_size=len(order)))
    predicted = draw(st.dictionaries(INSTANCES, CLUSTER_IDS, max_size=5))
    for instance in order:
        predicted.pop(instance, None)
        if instance not in missing:
            predicted[instance] = draw(CLUSTER_IDS)
    return truth, predicted


@given(truth_and_prediction(), st.booleans())
def test_b3_scores_match_the_earlier_scorer_bit_for_bit(pair, strict):
    truth, predicted = pair
    assert _outcome(score_clusterings, truth, predicted, strict=strict) == _outcome(
        oracles.b3_scores, truth, predicted, strict=strict
    )


def test_strict_b3_names_the_first_unpredicted_instance_in_truth_order():
    truth = {iid(3, 1): "a", iid(1, 1): "a", iid(2, 1): "b"}
    predicted = {iid(3, 1): "p"}
    with pytest.raises(EvaluationError) as err:
        score_clusterings(truth, predicted)
    assert str(err.value) == "instance '1_1' has no predicted cluster (use lenient mode to drop)"
    assert score_clusterings(truth, predicted, strict=False).dropped == 2


YEARS = st.one_of(st.none(), st.integers(1990, 1994))
TAGS = st.sampled_from([None, "", "English", "Korean", "UNKNOWN", "b"])


@given(
    st.dictionaries(
        INSTANCES,
        st.tuples(CLUSTER_IDS, CLUSTER_IDS, YEARS, TAGS, TAGS),
        max_size=40,
    ),
    st.randoms(use_true_random=False),
)
def test_stratified_eval_matches_the_earlier_scorer_bit_for_bit(cells, rng):
    rows = [EvalRow(instance, *cell) for instance, cell in cells.items()]
    rng.shuffle(rows)
    for stratum in STRATA:
        # stratified_eval streams its input; the earlier one listed it first
        got = _outcome(lambda: list(stratified_eval(iter(rows), stratum).items()))
        want = _outcome(lambda: list(oracles.stratified_eval(rows, stratum).items()))
        assert got == want
    truth = {row.instance: row.truth_label for row in rows}
    predicted = {row.instance: row.predicted_cluster_id for row in rows}
    if rows:
        assert _outcome(b3_rows, iter(rows)) == _outcome(oracles.b3_scores, truth, predicted)
    else:
        assert _outcome(b3_rows, rows) == "EvaluationError: nothing to evaluate: empty dataset"
