"""Small-size self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

They run every workload at a few hundred authors, check that each metric
named in BENCHMARK.json is printed with its unit, and check that the
correctness gate trips on deliberately corrupted artifacts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
from gate import Gate
from workloads import WORKLOADS

SCALE = "0.02"
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_printed_with_units(workload, seed):
    result, stdout = bench_run(workload, seed, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ops_share" in stdout


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_metrics_printed_with_units(workload):
    result, _ = bench_run(workload, 1, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    details = run.RESULTS / run.result_name(workload, 1, 1, float(SCALE))
    record = json.loads(details.read_text(encoding="utf-8"))
    tree = record["span_tree"]["sequence"]
    assert tree[0][0] == "pass" and any(span[0] == "cli.main" for span in tree)
    assert record["self_times"]["sequence"]["layer_self_s"]["corpus"] > 0


@pytest.fixture(scope="module")
def first_rep(tmp_path_factory):
    """One gated repetition of truth_build at small size, its outputs kept."""
    bench = run.Bench(WORKLOADS["truth_build"], 5, float(SCALE), tmp_path_factory.mktemp("b") / "w")
    bench.setup(0)
    bench.adopt_bundle()
    bench.sequence(traced=False, hash_seed=1)
    assert bench.failures == []
    return bench


def corrupt_and_check(bench: run.Bench, out: str, edit) -> list[str]:
    run_dir = bench.work / "run"
    edit(run_dir / out)
    step = next(step for step in bench.steps if step.out == out)
    return Gate(run_dir, "../bundle/truth_clustering.tsv").check_step(step)


def test_gate_trips_on_a_wrong_score(first_rep):
    def edit(out: Path):
        path = out / "metrics.json"
        written = json.loads(path.read_text(encoding="utf-8"))
        written["recall"] = written["recall"] * 0.999
        path.write_text(json.dumps(written), encoding="utf-8")
        # the manifest checksum would catch the edit first; empty it
        (out / "run_manifest.json").write_text('{"outputs": {}}', encoding="utf-8")

    problems = corrupt_and_check(first_rep, "eval_clustering", edit)
    assert any("recall" in problem for problem in problems)


def test_gate_trips_on_an_unsound_label(first_rep):
    def edit(out: Path):
        path = out / "labels.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        instance, label, source = lines[1].split("\t")
        lines[1] = "\t".join((instance, label + "x", source))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (out / "run_manifest.json").write_text('{"outputs": {}}', encoding="utf-8")

    problems = corrupt_and_check(first_rep, "auth", edit)
    assert any("unsound label" in problem for problem in problems)


def test_gate_trips_on_an_artifact_unlike_its_manifest(first_rep):
    def edit(out: Path):
        with open(out / "clustering.tsv", "a", encoding="utf-8") as handle:
            handle.write("extra\t1_99\n")

    problems = corrupt_and_check(first_rep, "fini", edit)
    assert any("not as in the manifest" in problem for problem in problems)


def test_repetition_with_different_bytes_counts_as_failed(first_rep):
    first_rep.reference["aini"] = {"clustering.tsv": "0" * 64}
    first_rep.sequence(traced=False, hash_seed=2)
    assert any("aini: artifacts differ" in failure for failure in first_rep.failures)
