"""Representativeness analyses, synonym typology, and tag perturbation.

Everything here produces plot data (TSV) or in-memory summaries; no
rendering. Percentages are over all rows of the profiled dataset and
sum to 100 within 1e-9.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import NamedTuple

from ._tsv import write_rows
from .corpus import Corpus, InstanceID
from .errors import EvaluationError
from .linkage import EvalRow
from .metrics import STRATA, stratify
from .normalize import match_key

TYPE_SURNAME = "surname_variant"
TYPE_INITIAL = "initial_variant"
TYPE_FLIPPED = "flipped_order"
TYPOLOGY_ORDER = (TYPE_SURNAME, TYPE_INITIAL, TYPE_FLIPPED)


def distribution(rows: Iterable, attribute: str) -> dict[str, float]:
    """Percentage of rows per stratum of one of metrics.STRATA."""
    if attribute not in STRATA:
        raise ValueError(f"unknown attribute {attribute!r}, expected one of {STRATA}")
    rows = list(rows)
    if not rows:
        raise EvaluationError("nothing to profile: empty dataset")
    total = len(rows)
    return {key: 100.0 * len(group) / total for key, group in stratify(rows, attribute).items()}


def pair_year_distribution(
    pairs: Iterable[tuple[InstanceID, InstanceID]], corpus: Corpus
) -> dict[str, float]:
    """Year percentages over pair members; both members of a pair count."""
    counts: Counter[str] = Counter()
    total = 0
    for a, b in pairs:
        for member in (a, b):
            paper = corpus.get(member[0])
            if paper is None:
                continue
            counts[str(paper.year)] += 1
            total += 1
    if total == 0:
        raise EvaluationError("nothing to profile: no pair member found in the corpus")
    return {key: 100.0 * count / total for key, count in sorted(counts.items())}


class CCDFPoint(NamedTuple):
    size: int
    fraction_at_least: float


def block_size_ccdf(sizes: Iterable[int]) -> list[CCDFPoint]:
    """Fraction of blocks at or above each distinct size, given every block's size.

    The point (1, 1.0) is always present as the anchor; fractions are
    non-increasing in size.
    """
    sizes = sorted(sizes)
    if not sizes:
        raise EvaluationError("nothing to profile: no blocks")
    total = len(sizes)
    points = []
    for size in sorted(set(sizes) | {1}):
        at_least = total - bisect_left(sizes, size)
        points.append(CCDFPoint(size, at_least / total))
    return points


def ccdf_fraction_at_least(points: Sequence[CCDFPoint], size: int) -> float:
    """Evaluate the CCDF step function at an arbitrary size."""
    for point in points:
        if point.size >= size:
            return point.fraction_at_least
    return 0.0


def reference_sample(
    instances: Iterable[InstanceID], n: int, seed: int
) -> set[InstanceID]:
    """Uniform sample of n instances without replacement, fixed per seed."""
    population = sorted(set(instances))
    if n < 0 or n > len(population):
        raise ValueError(
            f"sample size {n} out of range for population of {len(population)}"
        )
    return set(random.Random(seed).sample(population, n))


class TypologyCounts(NamedTuple):
    surname_variant: int
    initial_variant: int
    flipped_order: int
    total_multiform_authors: int


class TypologyReport(NamedTuple):
    counts: TypologyCounts
    assignments: dict[str, str]


def _classify_forms(forms: Iterable[str]) -> str:
    """The variant type of a multiform author, from its keyed name forms."""
    # a keyed form has a forename; only the surname and the first forename count
    split = (form.partition("|") for form in forms)
    names = [(surname, forenames.partition(" ")[0]) for surname, _, forenames in split]
    for (a_surname, a_first), (b_surname, b_first) in itertools.combinations(names, 2):
        if a_surname == b_first and b_surname == a_first:
            return TYPE_FLIPPED
    if len({surname for surname, _ in names}) > 1:
        return TYPE_SURNAME
    return TYPE_INITIAL


def _multiform_clusters(
    truth: Mapping[InstanceID, str], form_of: Callable[[InstanceID], str | None]
) -> set[str]:
    """The clusters whose members' names carry at least two blocking keys."""
    first_key: dict[str, str] = {}
    multiform: set[str] = set()
    for instance, cluster_id in truth.items():
        form = form_of(instance)
        key = None if form is None else match_key(form)
        if key is not None and first_key.setdefault(cluster_id, key) != key:
            multiform.add(cluster_id)
    return multiform


def classify_synonym_types(
    truth: Mapping[InstanceID, str], form_of: Callable[[InstanceID], str | None]
) -> TypologyReport:
    """Assign one variant type to each author with several blocking keys.

    `truth` is any instance -> cluster-id mapping, a Clustering or a
    plain dict. `form_of` gives the form (normalize.parse_name) of a
    truth instance's name, or None when it has none
    (baseline.name_lookup over name_keys(corpus, str), or a dict's
    `get`); mononyms, which have no match_key, do not count.
    Authors whose name forms all share one blocking key are not
    multiform and are never counted. Priority when several rules match:
    flipped_order, then surname_variant, then initial_variant.
    Assignments are in cluster-id order.

    No cluster's members are grouped: a first pass compares blocking keys
    to find the multiform clusters, and a second gathers the distinct
    name forms of their instances only.
    """
    multiform = _multiform_clusters(truth, form_of)
    forms_of: dict[str, set[str]] = {}
    for instance, cluster_id in truth.items():
        if cluster_id in multiform:
            form = form_of(instance)
            if form is not None and match_key(form) is not None:
                forms_of.setdefault(cluster_id, set()).add(form)
    assignments: dict[str, str] = {}
    tallies: Counter[str] = Counter()
    for cluster_id in sorted(forms_of):
        assigned = _classify_forms(forms_of[cluster_id])
        assignments[cluster_id] = assigned
        tallies[assigned] += 1
    counts = TypologyCounts(
        surname_variant=tallies[TYPE_SURNAME],
        initial_variant=tallies[TYPE_INITIAL],
        flipped_order=tallies[TYPE_FLIPPED],
        total_multiform_authors=len(assignments),
    )
    return TypologyReport(counts, assignments)


def perturb_tags(
    dataset: Iterable[EvalRow], fraction: float, seed: int
) -> tuple[EvalRow, ...]:
    """Reassign ethnicity tags for a fixed share of each tag group.

    Per group of rows sharing a tag, exactly floor(fraction * size)
    uniformly chosen rows receive a replacement drawn uniformly from
    the other observed tags. Rows without a tag are untouched; all
    non-ethnicity fields and the row order are preserved. The draws
    follow the row order, so a seed repeats its result on rows in
    instance order, the order read_eval_dataset gives.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rows = list(dataset)
    by_tag: dict[str, list[int]] = {}
    for index, row in enumerate(rows):
        if row.ethnicity:
            by_tag.setdefault(row.ethnicity, []).append(index)
    if len(by_tag) < 2:
        raise EvaluationError(
            "perturbation needs at least 2 distinct ethnicity tags, "
            f"found {len(by_tag)}"
        )
    rng = random.Random(seed)
    tags = sorted(by_tag)
    for tag in tags:
        indices = by_tag[tag]
        changed = rng.sample(indices, math.floor(fraction * len(indices)))
        others = [t for t in tags if t != tag]
        for index in changed:
            rows[index] = rows[index]._replace(ethnicity=rng.choice(others))
    return tuple(rows)


def write_distribution(
    path: str | Path, columns: Mapping[str, Mapping[str, float]]
) -> None:
    """One value column plus one percentage column per named dataset."""
    names = list(columns)
    values = sorted({value for column in columns.values() for value in column})
    rows = (
        (value, *(f"{columns[name].get(value, 0.0):.6f}" for name in names))
        for value in values
    )
    write_rows(path, ("value", *names), rows)


def write_ccdf(path: str | Path, columns: Mapping[str, Sequence[CCDFPoint]]) -> None:
    """One size column plus one fraction column per named dataset."""
    names = list(columns)
    sizes = sorted({point.size for points in columns.values() for point in points})
    rows = (
        (
            str(size),
            *(f"{ccdf_fraction_at_least(columns[name], size):.9f}" for name in names),
        )
        for size in sizes
    )
    write_rows(path, ("size", *names), rows)


def write_typology(path: str | Path, report: TypologyReport) -> None:
    total = report.counts.total_multiform_authors
    rows = []
    for kind in TYPOLOGY_ORDER:
        count = getattr(report.counts, kind)
        share = 100.0 * count / total if total else 0.0
        rows.append((kind, str(count), f"{share:.6f}"))
    write_rows(path, ("type", "count", "share_percent"), rows)
