"""Golden artifacts: every benchmark command line's files and summary, pinned.

Two small bundles are made with ``linklab synth``: one with the settings
of the benchmark's truth_build workload at 300 authors, one with those of
collab_gz at 100 authors, every table of which this test gzips. A
prediction, two label files and positive pairs are derived here from the
first bundle's truth, in the way of the score workload. Then every
command line of the three workloads runs in this process, plus the option
variants (``--dup-title-policy keep-first``, ``--nonalpha space``,
``evaluate --strict`` in each mode, ``profile --sample N --seed S``).

Paths are relative to one working directory, so each run_manifest.json
is the same wherever the test runs. A run is pinned by its exit code,
its stdout and stderr, and the sha256 of each file it left in ``--out``;
run_manifest.json is hashed with its ``versions`` entry removed, since
that records the Python version. The pins are in golden.json.
"""

import gzip
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from linklab.cli import main

PINS = json.loads((Path(__file__).parent / "golden.json").read_text(encoding="utf-8"))

SEED = 3
TRUTH_BUILD = {
    "n_authors": 300,
    "max_coauthors": 6,
    "homonym_rate": 0.1,
    "synonym_rate": 0.1,
    "midinitial_variant_rate": 0.05,
    "authority_coverage": 0.3,
    "grant_coverage": 0.1,
    "duplicate_title_rate": 0.02,
    "selfcitation_rate": 0.5,
}
COLLAB_GZ = {
    "n_authors": 100,
    "papers_per_author": [3, 10],
    "max_coauthors": 24,
    "homonym_rate": 0.4,
    "synonym_rate": 0.1,
    "midinitial_variant_rate": 0.05,
    "authority_coverage": 0.8,
    "grant_coverage": 0.3,
    "duplicate_title_rate": 0.1,
    "selfcitation_rate": 1.0,
}


def _pipeline(run: str, bundle: str, ext: str) -> list[tuple[str, str]]:
    """The truth_build and collab_gz command lines: (out, argv) with --out added later."""
    t = f"{bundle}/{{}}.tsv{ext}".format
    return [
        (f"{run}/fini", f"baseline --papers {t('papers')} --method fini"),
        (f"{run}/aini", f"baseline --papers {t('papers')} --method aini"),
        (f"{run}/auth", f"link-authority --papers {t('papers')} --authority {t('authority')}"),
        (f"{run}/grants", f"link-grants --papers {t('papers')} --grants {t('grants')}"),
        (f"{run}/pairs", f"pairs --papers {t('papers')} --citations {t('citations')}"),
        (
            f"{run}/eval_labels",
            f"evaluate --truth {run}/auth/labels.tsv --pred {run}/fini/clustering.tsv"
            f" --papers {t('papers')} --annotations {t('annotations')} --stratum ethnicity",
        ),
        (
            f"{run}/eval_clustering",
            f"evaluate --truth {t('truth_clustering')} --pred {run}/aini/clustering.tsv",
        ),
        (
            f"{run}/eval_pairs",
            f"evaluate --pairs {run}/pairs/pairs.tsv --pred {run}/fini/clustering.tsv",
        ),
        (
            f"{run}/profile",
            f"profile --eval {run}/eval_labels/eval_dataset.tsv --papers {t('papers')}"
            f" --truth {t('truth_clustering')} --pairs {run}/pairs/pairs.tsv",
        ),
        (f"{run}/agree", f"agree --a {run}/auth/labels.tsv --b {run}/grants/labels.tsv"),
        (
            f"{run}/auth_keep_first",
            f"link-authority --papers {t('papers')} --authority {t('authority')}"
            " --dup-title-policy keep-first",
        ),
        (
            f"{run}/auth_space",
            f"link-authority --papers {t('papers')} --authority {t('authority')}"
            " --nonalpha space",
        ),
    ]


def _score(run: str, bundle: str, derived: str) -> list[tuple[str, str]]:
    """The score command lines over the derived prediction, labels and pairs."""
    papers = f"{bundle}/papers.tsv"
    pred = f"{derived}/pred_clustering.tsv"
    return [
        (
            f"{run}/eval_clustering",
            f"evaluate --truth {bundle}/truth_clustering.tsv --pred {pred}",
        ),
        (
            f"{run}/eval_labels",
            f"evaluate --truth {derived}/labels.tsv --pred {pred} --papers {papers}"
            f" --annotations {bundle}/annotations.tsv --stratum year",
        ),
        (f"{run}/eval_pairs", f"evaluate --pairs {derived}/pairs.tsv --pred {pred}"),
        (
            f"{run}/perturb",
            f"perturb --eval {run}/eval_labels/eval_dataset.tsv --fraction 0.1 --seed {SEED}",
        ),
        (f"{run}/agree", f"agree --a {derived}/labels.tsv --b {derived}/labels_pred.tsv"),
        (
            f"{run}/strict_clustering",
            f"evaluate --truth {bundle}/truth_clustering.tsv --pred {pred} --strict",
        ),
        (
            f"{run}/strict_labels",
            f"evaluate --truth {derived}/labels.tsv --pred {pred} --papers {papers} --strict",
        ),
        (f"{run}/strict_pairs", f"evaluate --pairs {derived}/pairs.tsv --pred {pred} --strict"),
        (f"{run}/sample", f"profile --papers {papers} --sample 40 --seed {SEED}"),
    ]


def _instance(text: str) -> tuple[int, int]:
    pmid, _, position = text.partition("_")
    return int(pmid), int(position)


def _text(instance: tuple[int, int]) -> str:
    return f"{instance[0]}_{instance[1]}"


def _write(path: Path, header: str, rows) -> None:
    path.write_text(header + "\n" + "".join("\t".join(row) + "\n" for row in rows))


def _derive_score_inputs(truth_path: Path, out: Path) -> None:
    """A prediction that splits and merges some authors, two label files and chained pairs."""
    rng = random.Random(SEED * 7919 + 1)
    truth: dict[str, list[tuple[int, int]]] = {}
    for line in truth_path.read_text().splitlines()[1:]:
        cluster_id, instance = line.split("\t")
        truth.setdefault(cluster_id, []).append(_instance(instance))
    authors = sorted(truth)
    pred: dict[str, list[tuple[int, int]]] = {}
    for author in authors:
        members = sorted(truth[author])
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
    out.mkdir()
    _write(
        out / "pred_clustering.tsv",
        "cluster_id\tinstance_id",
        [(cluster, _text(i)) for cluster in sorted(pred) for i in sorted(pred[cluster])],
    )

    def sampled() -> list[tuple[tuple[int, int], str]]:
        chosen = [author for author in authors if rng.random() < 0.7]
        return sorted((i, author) for author in chosen for i in truth[author])

    header = "instance_id\tlabel_id\tsource"
    _write(
        out / "labels.tsv", header, [(_text(i), f"orc-{a}", "authority") for i, a in sampled()]
    )
    _write(
        out / "labels_pred.tsv", header, [(_text(i), predicted[i], "grant") for i, _ in sampled()]
    )
    pairs = sorted(
        pair for members in truth.values() for pair in zip(sorted(members), sorted(members)[1:])
    )
    _write(out / "pairs.tsv", "instance_a\tinstance_b", [(_text(a), _text(b)) for a, b in pairs])


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "run_manifest.json":
        manifest = json.loads(data)
        del manifest["versions"]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _record(argv: str, out: str) -> dict:
    """Run one command line; its exit code, output streams and --out file digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([*argv.split(), "--out", out])
    files = sorted(Path(out).iterdir()) if Path(out).is_dir() else []
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "files": {path.name: _digest(path) for path in files},
    }


def run_all(root: Path) -> dict[str, dict]:
    """Build both bundles under `root` (the working directory) and run every command line."""
    records = {}
    for name, config in (("truth", TRUTH_BUILD), ("collab", COLLAB_GZ)):
        Path(f"{name}.json").write_text(json.dumps(config))
        out = f"bundles/{name}"
        records[out] = _record(f"synth --seed {SEED} --config {name}.json", out)
    for path in sorted(Path("bundles/collab").glob("*.tsv")):
        path.with_name(path.name + ".gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
        path.unlink()
    _derive_score_inputs(Path("bundles/truth/truth_clustering.tsv"), Path("bundles/score"))
    lines = [
        *_pipeline("truth_build", "bundles/truth", ""),
        *_score("score", "bundles/truth", "bundles/score"),
        *_pipeline("collab_gz", "bundles/collab", ".gz"),
    ]
    for out, argv in lines:
        records[out] = _record(argv, out)
    return records


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> dict[str, dict]:
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        return run_all(root)


def test_every_command_line_is_pinned(records):
    assert sorted(records) == sorted(PINS)


@pytest.mark.parametrize("run", sorted(PINS))
def test_artifacts_match_their_pins(records, run):
    assert records[run] == PINS[run]
