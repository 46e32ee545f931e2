"""B-cubed clustering evaluation, positive-pair accuracy, and strata.

Recall averages |P(t) ∩ T(t)| / |T(t)| over evaluated instances t,
precision averages |P(t) ∩ T(t)| / |P(t)|, where T(t) and P(t) are the
truth and predicted clusters containing t. The aggregation tallies
per-(truth, predicted) overlap counts, so cost is O(n log n) in
instances rather than quadratic. Clusterings are plain
instance-to-cluster-id mappings: a `Clustering` is a dict, so its
lookups are the dict's own.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .corpus import InstanceID, format_instance_id
from .errors import EvaluationError, echo


class B3Scores(NamedTuple):
    recall: float
    precision: float
    f1: float
    n: int
    dropped: int = 0


class PairAccuracy(NamedTuple):
    accuracy: float
    evaluated: int
    dropped: int


def _f1(recall: float, precision: float) -> float:
    if recall + precision == 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


def _b3(overlap: Counter[tuple[str, str]], dropped: int) -> B3Scores:
    """B-cubed from the instance count of each (truth id, predicted id) cell, summed in cell order."""
    truth_sizes: Counter[str] = Counter()
    predicted_sizes: Counter[str] = Counter()
    for (truth_id, predicted_id), count in overlap.items():
        truth_sizes[truth_id] += count
        predicted_sizes[predicted_id] += count
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


def b3_scores(
    truth: Mapping[InstanceID, str],
    predicted: Mapping[InstanceID, str],
    *,
    strict: bool = True,
) -> B3Scores:
    """Score `predicted` against `truth` over the truth instances.

    Instances only in `predicted` are ignored, and P(t) is intersected
    with the evaluated universe before the precision denominator is
    taken. Instances only in `truth` are an error when strict, otherwise
    dropped and counted. The overlap cells are summed in sorted order, so
    the scores do not depend on the order in which the mappings list
    their instances.
    """
    if not truth:
        raise EvaluationError("nothing to evaluate: truth clustering is empty")
    # one (truth id, predicted id) cell per instance, counted in C; a None
    # predicted id is a truth instance with no prediction
    overlap = Counter(zip(truth.values(), map(predicted.get, truth)))
    missing = [cell for cell in overlap if cell[1] is None]
    if missing and strict:
        instance = next(instance for instance in truth if predicted.get(instance) is None)
        raise EvaluationError(
            f"instance {echo(format_instance_id(instance))} has no "
            "predicted cluster (use lenient mode to drop)"
        )
    return _b3(overlap, sum(overlap.pop(cell) for cell in missing))


# an eval row's (truth label, predicted cluster id) cell
_CELL = attrgetter("truth_label", "predicted_cluster_id")


def b3_rows(rows: Iterable) -> B3Scores:
    """B-cubed of the truth labels against the predicted cluster ids of eval rows.

    `rows` are EvalRows, one per instance (join_labels(...).rows or
    read_eval_dataset).
    """
    overlap = Counter(map(_CELL, rows))
    if not overlap:
        raise EvaluationError("nothing to evaluate: empty dataset")
    return _b3(overlap, 0)


def pair_accuracy_detail(
    pairs: Iterable[tuple[InstanceID, InstanceID]], predicted: Mapping[InstanceID, str]
) -> PairAccuracy:
    """Fraction of positive pairs whose members share a predicted cluster.

    Pairs with a member absent from `predicted` are dropped and counted.
    """
    evaluated = 0
    agreed = 0
    dropped = 0
    for a, b in pairs:
        cluster_a = predicted.get(a)
        cluster_b = predicted.get(b)
        if cluster_a is None or cluster_b is None:
            dropped += 1
            continue
        evaluated += 1
        if cluster_a == cluster_b:
            agreed += 1
    if evaluated == 0:
        raise EvaluationError("nothing to evaluate: no pair has both members clustered")
    return PairAccuracy(agreed / evaluated, evaluated, dropped)


STRATA = ("year", "gender", "ethnicity")
UNKNOWN_STRATUM = "UNKNOWN"


def stratify(rows: Iterable, stratum: str) -> dict[str, list]:
    """Rows grouped by the string form of their `stratum` value, in value order.

    A missing or empty value falls into UNKNOWN_STRATUM.
    """
    groups: dict[str, list] = {}
    for row in rows:
        value = getattr(row, stratum)
        key = UNKNOWN_STRATUM if value is None or value == "" else str(value)
        groups.setdefault(key, []).append(row)
    return dict(sorted(groups.items()))


def stratified_eval(dataset: Iterable, stratum: str) -> dict[str, B3Scores]:
    """Per-stratum B-cubed scores plus an unrestricted "ALL" entry.

    `dataset` is the EvalRows of a join (join_labels(...).rows) or of
    read_eval_dataset, one row per instance; the stratum is one of year,
    gender, or ethnicity. Rows missing the attribute fall into "UNKNOWN".
    Within a stratum, truth and predicted clusters are restricted to that
    stratum's instances before scoring.
    """
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}, expected one of {STRATA}")
    groups = stratify(dataset, stratum)
    if not groups:
        raise EvaluationError("nothing to evaluate: empty dataset")
    # one group's cells at a time, so no more than one tally is alive at once
    result = {value: _b3(Counter(map(_CELL, group)), 0) for value, group in groups.items()}
    result["ALL"] = _b3(Counter(map(_CELL, chain.from_iterable(groups.values()))), 0)
    return result


def metrics_to_json(
    scores: B3Scores, strata: Mapping[str, B3Scores] | None = None
) -> str:
    """Serialize scores as JSON, keys in B3Scores field order."""
    payload = scores._asdict()
    if strata is not None:
        payload["strata"] = {value: strata[value]._asdict() for value in sorted(strata)}
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def write_metrics_json(
    path: str | Path,
    scores: B3Scores,
    strata: Mapping[str, B3Scores] | None = None,
) -> None:
    Path(path).write_text(metrics_to_json(scores, strata), encoding="utf-8")
