"""The benchmark's trace harness still finds the layer functions it wraps.

perfbench/traced.py wraps linklab functions by name; a rename in src/
would otherwise surface only in the slow benchmark self-tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from linklab.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]


def test_traced_baseline_records_clustering_spans(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"n_authors": 20}))
    assert main(["synth", "--seed", "1", "--config", "config.json", "--out", "bundle"]) == EXIT_OK
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [
            sys.executable,
            str(REPO / "perfbench" / "traced.py"),
            str(spans_path),
            "--",
            "baseline",
            "--papers",
            "bundle/papers.tsv",
            "--method",
            "fini",
            "--out",
            "fini",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit"] == 0
    names = {name for name, *_ in trace["spans"]}
    assert any(name.startswith("corpus.Clustering.") for name in names), sorted(names)
    assert (tmp_path / "fini" / "clustering.tsv").is_file()
