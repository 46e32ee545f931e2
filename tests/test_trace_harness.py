"""The benchmark's trace harness still finds the layer functions it wraps.

perfbench/traced.py wraps linklab functions by name and its kernels read
tables through _tsv.read_rows; a rename or a changed contract in src/
would otherwise surface only in the slow benchmark self-tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linklab.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]


def _synth_bundle(tmp_path, monkeypatch, **config) -> Path:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"n_authors": 20, **config}))
    assert main(["synth", "--seed", "1", "--config", "config.json", "--out", "bundle"]) == EXIT_OK
    return tmp_path / "bundle"


def _traced(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    return subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_traced_baseline_records_clustering_spans(tmp_path, monkeypatch):
    _synth_bundle(tmp_path, monkeypatch)
    spans_path = tmp_path / "spans.json"
    done = _traced(
        str(spans_path), "--", "baseline", "--papers", "bundle/papers.tsv", "--method", "fini",
        "--out", "fini",
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit"] == 0
    names = {name for name, *_ in trace["spans"]}
    assert any(name.startswith("corpus.Clustering.") for name in names), sorted(names)
    assert (tmp_path / "fini" / "clustering.tsv").is_file()


def test_kernels_read_every_data_row(tmp_path, monkeypatch):
    bundle = _synth_bundle(tmp_path, monkeypatch)
    tables = sorted(bundle.glob("*.tsv"))
    spec = {
        "tables": [str(path) for path in tables],
        "papers": str(bundle / "papers.tsv"),
        "citations": str(bundle / "citations.tsv"),
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    done = _traced("--kernels", "spec.json", "kernels.json")
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "kernels.json").read_text())
    data_rows = sum(path.read_text(encoding="utf-8").count("\n") - 1 for path in tables)
    assert data_rows > 0
    assert result["tsv.rows_read"] == data_rows


@pytest.mark.parametrize(
    "argv,spans,count",
    [
        (["link-authority", "--papers", "bundle/papers.tsv", "--authority", "bundle/authority.tsv"],
         ("linkage.link_authority", "corpus.ingest_authority"), "linkage.authority_candidates"),
        (["link-grants", "--papers", "bundle/papers.tsv", "--grants", "bundle/grants.tsv"],
         ("linkage.link_grants", "corpus.ingest_grants"), "linkage.grant_candidates"),
        # the harness counts the pairs with len() of what pairing returns
        (["pairs", "--papers", "bundle/papers.tsv", "--citations", "bundle/citations.tsv"],
         ("linkage.extract_selfcitation_pairs", "corpus.ingest_citations"), "linkage.pairs"),
    ],
)
def test_traced_link_commands_record_spans_and_candidates(tmp_path, monkeypatch, argv, spans, count):
    _synth_bundle(
        tmp_path, monkeypatch, authority_coverage=0.5, grant_coverage=0.5, selfcitation_rate=0.8
    )
    spans_path = tmp_path / "spans.json"
    done = _traced(str(spans_path), "--", *argv, "--out", "linked")
    assert done.returncode == 0, done.stderr
    trace = json.loads(spans_path.read_text())
    assert trace["exit"] == 0
    names = {name for name, *_ in trace["spans"]}
    assert set(spans) <= names, sorted(names)
    assert trace["counts"].get(count, 0) > 0, trace["counts"]
