"""The benchmark's named workloads: generator settings, derived inputs, commands.

Each workload is one synthetic bundle made by ``linklab synth`` from the
workload seed, optionally post-processed by the benchmark (gzipped, or
extended with files derived from the planted truth), and one fixed
sequence of ``linklab`` commands run over it as a user would.

Commands run with the run directory as their working directory and
read the bundle through the relative path ``../bundle``, so repeated
runs write byte-identical ``run_manifest.json`` files wherever the
checkout lives.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import tsvio

BUNDLE = "../bundle"


class Step(NamedTuple):
    """One ``linklab`` invocation: its output directory and its arguments."""

    out: str
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict
    steps: Callable[[int, str], list[Step]]
    derive: Callable[[Path, int], None] | None = None
    gzip_inputs: bool = False

    def synth_config(self, scale: float) -> dict:
        config = dict(self.synth)
        config["n_authors"] = max(40, round(config["n_authors"] * scale))
        return config

    def ext(self) -> str:
        return ".gz" if self.gzip_inputs else ""


def _bundle(name: str, ext: str) -> str:
    return f"{BUNDLE}/{name}.tsv{ext}"


def pipeline_steps(seed: int, ext: str) -> list[Step]:
    """The README round trip: baselines, all three linkage routes, scoring, profiling."""
    papers = _bundle("papers", ext)
    truth = _bundle("truth_clustering", ext)
    raw = [
        ("fini", "baseline", "--papers", papers, "--method", "fini"),
        ("aini", "baseline", "--papers", papers, "--method", "aini"),
        ("auth", "link-authority", "--papers", papers, "--authority", _bundle("authority", ext)),
        ("grants", "link-grants", "--papers", papers, "--grants", _bundle("grants", ext)),
        ("pairs", "pairs", "--papers", papers, "--citations", _bundle("citations", ext)),
        (
            "eval_labels", "evaluate", "--truth", "auth/labels.tsv", "--pred", "fini/clustering.tsv",
            "--papers", papers, "--annotations", _bundle("annotations", ext), "--stratum", "ethnicity",
        ),
        ("eval_clustering", "evaluate", "--truth", truth, "--pred", "aini/clustering.tsv"),
        ("eval_pairs", "evaluate", "--pairs", "pairs/pairs.tsv", "--pred", "fini/clustering.tsv"),
        (
            "profile", "profile", "--eval", "eval_labels/eval_dataset.tsv", "--papers", papers,
            "--truth", truth, "--pairs", "pairs/pairs.tsv",
        ),
        ("agree", "agree", "--a", "auth/labels.tsv", "--b", "grants/labels.tsv"),
    ]
    return [Step(out, (*argv, "--out", out)) for out, *argv in raw]


def score_steps(seed: int, ext: str) -> list[Step]:
    """Scoring at scale: every evaluate mode, perturbation and agreement."""
    papers = _bundle("papers", ext)
    pred = _bundle("pred_clustering", ext)
    eval_dataset = "eval_labels/eval_dataset.tsv"
    raw = [
        ("eval_clustering", "evaluate", "--truth", _bundle("truth_clustering", ext), "--pred", pred),
        (
            "eval_labels", "evaluate", "--truth", _bundle("labels", ext), "--pred", pred,
            "--papers", papers, "--annotations", _bundle("annotations", ext), "--stratum", "year",
        ),
        ("eval_pairs", "evaluate", "--pairs", _bundle("pairs", ext), "--pred", pred),
        ("perturb", "perturb", "--eval", eval_dataset, "--fraction", "0.1", "--seed", str(seed)),
        ("agree", "agree", "--a", _bundle("labels", ext), "--b", _bundle("labels_pred", ext)),
    ]
    return [Step(out, (*argv, "--out", out)) for out, *argv in raw]


def derive_score_inputs(bundle: Path, seed: int) -> None:
    """Write a predicted clustering, two label files and positive pairs from the truth.

    The prediction splits about 10% of planted authors in two and merges
    about 10% into another author's cluster, so every score is below 1.
    ``labels.tsv`` labels all instances of a seeded 70% of authors with
    their planted identity; ``labels_pred.tsv`` labels another 70% with
    their predicted cluster. Pairs chain each author's instances in
    order, so pair accuracy sees the splits.
    """
    rng = random.Random(seed * 7919 + 1)
    planted = tsvio.clusters(bundle / "truth_clustering.tsv")
    truth = {author: sorted(members) for author, members in planted.items()}
    authors = sorted(truth)
    pred: dict[str, list] = {}
    for author in authors:
        members = truth[author]
        roll = rng.random()
        if roll < 0.1 and len(members) >= 2:
            half = len(members) // 2
            pred[f"p-{author}-a"] = members[:half]
            pred[f"p-{author}-b"] = members[half:]
        elif roll < 0.2:
            pred.setdefault(f"p-{authors[rng.randrange(len(authors))]}", []).extend(members)
        else:
            pred.setdefault(f"p-{author}", []).extend(members)
    predicted = {i: cluster for cluster, members in pred.items() for i in members}
    tsvio.write(
        bundle / "pred_clustering.tsv",
        ("cluster_id", "instance_id"),
        [(cluster, tsvio.fmt(i)) for cluster in sorted(pred) for i in sorted(pred[cluster])],
    )

    def sampled() -> list:
        chosen = [author for author in authors if rng.random() < 0.7]
        return sorted((i, author) for author in chosen for i in truth[author])

    tsvio.write(
        bundle / "labels.tsv",
        ("instance_id", "label_id", "source"),
        [(tsvio.fmt(i), f"orc-{author}", "authority") for i, author in sampled()],
    )
    tsvio.write(
        bundle / "labels_pred.tsv",
        ("instance_id", "label_id", "source"),
        [(tsvio.fmt(i), predicted[i], "grant") for i, _ in sampled()],
    )
    pairs = sorted(pair for members in truth.values() for pair in zip(members, members[1:]))
    tsvio.write(
        bundle / "pairs.tsv",
        ("instance_a", "instance_b"),
        [(tsvio.fmt(a), tsvio.fmt(b)) for a, b in pairs],
    )


# Sizes are scaled down from the paper-scale corpora so that one run of
# every workload, set-up included, fits well inside a minute on two cores
# while each keeps the layer that dominates it.
WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="truth_build",
            synth={
                "n_authors": 8000,
                "max_coauthors": 6,
                "homonym_rate": 0.1,
                "synonym_rate": 0.1,
                "midinitial_variant_rate": 0.05,
                "authority_coverage": 0.3,
                "grant_coverage": 0.1,
                "duplicate_title_rate": 0.02,
                "selfcitation_rate": 0.5,
            },
            steps=pipeline_steps,
        ),
        Workload(
            name="score",
            synth={
                "n_authors": 16000,
                "homonym_rate": 0.1,
                "synonym_rate": 0.1,
                "midinitial_variant_rate": 0.05,
            },
            steps=score_steps,
            derive=derive_score_inputs,
        ),
        Workload(
            name="collab_gz",
            synth={
                "n_authors": 3000,
                "papers_per_author": [3, 10],
                "max_coauthors": 24,
                "homonym_rate": 0.4,
                "synonym_rate": 0.1,
                "midinitial_variant_rate": 0.05,
                "authority_coverage": 0.8,
                "grant_coverage": 0.3,
                "duplicate_title_rate": 0.1,
                "selfcitation_rate": 1.0,
            },
            steps=pipeline_steps,
            gzip_inputs=True,
        ),
    )
}


def prepare(workload: Workload, bundle: Path, seed: int) -> None:
    """Turn the ``linklab synth`` output in ``bundle`` into the workload's inputs."""
    if workload.derive is not None:
        workload.derive(bundle, seed)
    if workload.gzip_inputs:
        for path in sorted(bundle.glob("*.tsv")):
            tsvio.gzip_file(path)


if __name__ == "__main__":
    # Run as its own process by run.py, so the memory it needs never
    # counts towards the peak RSS of the commands the benchmark starts.
    name, seed, bundle = sys.argv[1:]
    prepare(WORKLOADS[name], Path(bundle), int(seed))
