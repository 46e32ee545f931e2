"""End to end tests for the command line driver."""

import filecmp
import gc
import gzip
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from collections.abc import Mapping
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from linklab.baseline import cluster_fini
from linklab.cli import (
    EXIT_EVALUATION,
    EXIT_FORMAT,
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    MANIFEST_NAME,
    _sha256,
    main,
)
from linklab.corpus import (
    format_instance_id,
    ingest_clustering,
    ingest_corpus,
    ingest_grants,
    write_clustering,
)
from linklab.errors import EvaluationError, IngestError, ParseError
from linklab.linkage import (
    LabeledInstance,
    link_authority,
    link_grants,
    read_eval_dataset,
    write_eval_dataset,
    write_labels,
)
from linklab.metrics import b3_rows, metrics_to_json, write_metrics_json
from linklab.profile import block_size_ccdf, write_ccdf
from linklab.synth import BUNDLE_FILES, SynthConfig, generate, write_bundle

import oracles

CONFIG = {
    "n_authors": 60,
    "papers_per_author": [3, 5],
    "homonym_rate": 0.1,
    "synonym_rate": 0.1,
    "midinitial_variant_rate": 0.1,
    "authority_coverage": 0.8,
    "grant_coverage": 0.5,
    "selfcitation_rate": 0.8,
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree_hashes(root: Path) -> dict[str, str]:
    return {p.name: _sha(p) for p in sorted(root.iterdir()) if p.is_file()}


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture()
def bundle_dir(workdir):
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    assert main(["synth", "--seed", "21", "--config", "config.json", "--out", "bundle"]) == EXIT_OK
    return workdir / "bundle"


def test_unknown_subcommand_is_usage_error(workdir, capsys):
    assert main(["frobnicate", "--out", "x"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


def test_missing_required_seed_is_usage_error(workdir):
    assert main(["synth", "--out", "x"]) == EXIT_USAGE


def test_missing_input_file(workdir, capsys):
    code = main(["baseline", "--papers", "absent.tsv", "--method", "fini", "--out", "x"])
    assert code == EXIT_MISSING_INPUT
    assert "missing input" in capsys.readouterr().err


def test_format_violation(workdir, capsys):
    bad = workdir / "bad.tsv"
    bad.write_text("wrong\theader\n")
    code = main(["baseline", "--papers", "bad.tsv", "--method", "fini", "--out", "x"])
    assert code == EXIT_FORMAT
    assert "format violation" in capsys.readouterr().err


def test_unrecognized_truth_header(workdir, bundle_dir):
    code = main(
        [
            "evaluate",
            "--truth",
            "bundle/citations.tsv",
            "--pred",
            "bundle/truth_clustering.tsv",
            "--out",
            "eval",
        ]
    )
    assert code == EXIT_FORMAT


def test_domain_error_exit_code(workdir, bundle_dir, capsys):
    assert main(["baseline", "--papers", "bundle/papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    capsys.readouterr()
    # evaluating against a clustering that shares no instances with truth
    code = main(
        [
            "perturb",
            "--eval",
            "missing-ok.tsv",
            "--fraction",
            "2.0",
            "--seed",
            "1",
            "--out",
            "x",
        ]
    )
    assert code == EXIT_MISSING_INPUT
    (workdir / "rows.tsv").write_text(
        "instance_id\ttruth_label\tpredicted_cluster_id\tyear\tethnicity\tgender\n"
        "1_1\ta\tc1\t2000\tEnglish\tMale\n"
        "2_1\ta\tc1\t2000\tKorean\tMale\n"
    )
    code = main(["perturb", "--eval", "rows.tsv", "--fraction", "2.0", "--seed", "1", "--out", "x"])
    assert code == EXIT_EVALUATION


def test_synth_config_validation(workdir):
    (workdir / "withseed.json").write_text('{"seed": 3}')
    assert main(["synth", "--seed", "1", "--config", "withseed.json", "--out", "x"]) == EXIT_EVALUATION
    (workdir / "unknown.json").write_text('{"bogus": 1}')
    assert main(["synth", "--seed", "1", "--config", "unknown.json", "--out", "x"]) == EXIT_EVALUATION
    (workdir / "badrate.json").write_text('{"homonym_rate": 2.0}')
    assert main(["synth", "--seed", "1", "--config", "badrate.json", "--out", "x"]) == EXIT_EVALUATION


def test_evaluate_identical_partitions(workdir, bundle_dir, capsys):
    code = main(
        [
            "evaluate",
            "--truth",
            "bundle/truth_clustering.tsv",
            "--pred",
            "bundle/truth_clustering.tsv",
            "--out",
            "eval",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "recall=1.000000" in out
    assert "precision=1.000000" in out
    assert "f1=1.000000" in out
    metrics = json.loads((workdir / "eval" / "metrics.json").read_text())
    assert metrics["recall"] == 1.0
    assert metrics["precision"] == 1.0
    assert metrics["f1"] == 1.0


def test_synth_twice_is_byte_identical(workdir):
    (workdir / "config.json").write_text(json.dumps(CONFIG))
    args = ["synth", "--seed", "7", "--config", "config.json"]
    assert main(args + ["--out", "one"]) == EXIT_OK
    assert main(args + ["--out", "two"]) == EXIT_OK
    hashes_one = _tree_hashes(workdir / "one")
    hashes_two = _tree_hashes(workdir / "two")
    assert hashes_one == hashes_two
    assert "run_manifest.json" in hashes_one


def test_synth_config_of_every_default_equals_an_empty_one(workdir):
    defaults = SynthConfig(seed=1)._asdict()
    del defaults["seed"]
    # tuples dump as JSON lists; a read-only mapping default as an object
    (workdir / "every.json").write_text(
        json.dumps({k: dict(v) if isinstance(v, Mapping) else v for k, v in defaults.items()})
    )
    (workdir / "none.json").write_text("{}")
    for name in ("every", "none"):
        assert main(["synth", "--seed", "1", "--config", f"{name}.json", "--out", name]) == EXIT_OK
    assert main(["synth", "--seed", "1", "--out", "plain"]) == EXIT_OK
    bundles = [
        {file: _sha(workdir / out / file) for file in BUNDLE_FILES} for out in ("every", "none", "plain")
    ]
    assert bundles[0] == bundles[1] == bundles[2]


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command is a new process, so each module its imports pull in is paid per run
    code = "import sys, linklab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


def test_importing_the_cli_loads_neither_hashlib_nor_openssl(workdir):
    # hashlib loads OpenSSL's libcrypto; the manifest checksums use the
    # interpreter's built-in SHA-256, so a whole command loads neither
    (workdir / "papers.tsv").write_text(PAPERS)
    loaded = "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    command = "main(['baseline', '--papers', 'papers.tsv', '--method', 'fini', '--out', 'fini'])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    for code in (
        f"import sys, linklab.cli; {loaded}",
        f"import sys; from linklab.cli import main; assert {command} == 0; {loaded}",
    ):
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.splitlines()[-1] == "[]"
    assert json.loads((workdir / "fini" / MANIFEST_NAME).read_text())["inputs"]["papers.tsv"][
        "sha256"
    ] == _sha(workdir / "papers.tsv")


# empty, one byte, exactly one 64 KiB read, and several reads with a short last one
DIGEST_SIZES = [0, 1, 1 << 16, 3 * (1 << 16) + 5]


@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")], ids=["built-in", "hashlib"])
@pytest.mark.parametrize("size", DIGEST_SIZES)
def test_manifest_digest_is_hashlib_sha256(tmp_path, monkeypatch, size, blocked):
    # with both built-in modules blocked, the checksum falls back to hashlib
    for module in blocked:
        monkeypatch.setitem(sys.modules, module, None)
    path = tmp_path / "data.bin"
    path.write_bytes(random.Random(size).randbytes(size))
    assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_checksums_are_sha256_of_files_longer_than_one_read(workdir):
    # the checksum reads 64 KiB at a time; this corpus and its clustering take several reads
    rows = "".join(f"{pmid}\t2001\tA title\tKim, Ji|Lee, Ann|Park, Q\n" for pmid in range(1, 4001))
    (workdir / "papers.tsv").write_text(PAPERS.splitlines(keepends=True)[0] + rows)
    assert main(["baseline", "--papers", "papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    manifest = json.loads((workdir / "fini" / "run_manifest.json").read_text())
    for entry, path in (
        (manifest["inputs"]["papers.tsv"], workdir / "papers.tsv"),
        (manifest["outputs"]["clustering.tsv"], workdir / "fini" / "clustering.tsv"),
    ):
        assert entry["bytes"] == path.stat().st_size > 1 << 16
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_outputs_identical_across_out_directories(workdir, bundle_dir):
    def run(out: str):
        assert (
            main(
                [
                    "link-authority",
                    "--papers",
                    "bundle/papers.tsv",
                    "--authority",
                    "bundle/authority.tsv",
                    "--out",
                    out,
                ]
            )
            == EXIT_OK
        )
        return _tree_hashes(workdir / out)

    assert run("auth1") == run("auth2")


def test_run_manifest_records_checksums(workdir, bundle_dir):
    assert main(["baseline", "--papers", "bundle/papers.tsv", "--method", "aini", "--out", "aini"]) == EXIT_OK
    manifest = json.loads((workdir / "aini" / "run_manifest.json").read_text())
    assert manifest["subcommand"] == "baseline"
    assert manifest["flags"]["method"] == "aini"
    assert "out" not in manifest["flags"]
    assert manifest["versions"]["linklab"]
    papers_entry = manifest["inputs"]["bundle/papers.tsv"]
    assert papers_entry["sha256"] == _sha(workdir / "bundle" / "papers.tsv")
    clustering_entry = manifest["outputs"]["clustering.tsv"]
    assert clustering_entry["sha256"] == _sha(workdir / "aini" / "clustering.tsv")


def test_no_subcommand_mutates_inputs(workdir, bundle_dir):
    before = _tree_hashes(workdir / "bundle")
    assert (
        main(
            [
                "link-authority",
                "--papers",
                "bundle/papers.tsv",
                "--authority",
                "bundle/authority.tsv",
                "--out",
                "auth",
            ]
        )
        == EXIT_OK
    )
    assert _tree_hashes(workdir / "bundle") == before


def test_cli_matches_api_through_pipeline(workdir, bundle_dir, capsys):
    # synth: the CLI bundle must equal a direct generate() with the same settings
    config = SynthConfig(
        seed=21,
        **{k: tuple(v) if isinstance(v, list) else v for k, v in CONFIG.items()},
    )
    api_bundle = generate(config)
    write_bundle(api_bundle, workdir / "api_bundle")
    for name in _tree_hashes(workdir / "api_bundle"):
        assert filecmp.cmp(
            workdir / "api_bundle" / name, bundle_dir / name, shallow=False
        ), name

    # baseline
    assert main(["baseline", "--papers", "bundle/papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    corpus = ingest_corpus(bundle_dir / "papers.tsv")
    fini = cluster_fini(corpus)
    write_clustering(workdir / "api_clustering.tsv", fini)
    assert filecmp.cmp(workdir / "api_clustering.tsv", workdir / "fini" / "clustering.tsv", shallow=False)

    # linkage
    assert (
        main(
            [
                "link-authority",
                "--papers",
                "bundle/papers.tsv",
                "--authority",
                "bundle/authority.tsv",
                "--out",
                "auth",
            ]
        )
        == EXIT_OK
    )
    result = oracles.link_registry(corpus, api_bundle.registry)
    write_labels(workdir / "api_labels.tsv", result.labels)
    assert filecmp.cmp(workdir / "api_labels.tsv", workdir / "auth" / "labels.tsv", shallow=False)

    # evaluation
    assert (
        main(
            [
                "evaluate",
                "--truth",
                "auth/labels.tsv",
                "--pred",
                "fini/clustering.tsv",
                "--papers",
                "bundle/papers.tsv",
                "--out",
                "eval",
            ]
        )
        == EXIT_OK
    )
    dataset = oracles.join_tables(result.labels, fini, corpus).rows
    write_eval_dataset(workdir / "api_eval.tsv", dataset)
    assert filecmp.cmp(workdir / "api_eval.tsv", workdir / "eval" / "eval_dataset.tsv", shallow=False)
    scores = b3_rows(dataset)
    write_metrics_json(workdir / "api_metrics.json", scores)
    assert filecmp.cmp(workdir / "api_metrics.json", workdir / "eval" / "metrics.json", shallow=False)
    summary = capsys.readouterr().out
    assert f"recall={scores.recall:.6f}" in summary

    # profiling
    assert main(["profile", "--papers", "bundle/papers.tsv", "--out", "prof"]) == EXIT_OK
    sizes = Counter(fini.values()).values()
    write_ccdf(workdir / "api_ccdf.tsv", {"fraction_at_least": block_size_ccdf(sizes)})
    assert filecmp.cmp(workdir / "api_ccdf.tsv", workdir / "prof" / "ccdf.tsv", shallow=False)


def test_perturb_fraction_zero_keeps_dataset(workdir, bundle_dir, capsys):
    assert main(["baseline", "--papers", "bundle/papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    assert (
        main(
            [
                "evaluate",
                "--truth",
                "bundle/truth_clustering.tsv",
                "--pred",
                "fini/clustering.tsv",
                "--out",
                "direct",
            ]
        )
        == EXIT_OK
    )
    # need an eval dataset with tags: join authority labels with annotations
    assert (
        main(
            [
                "link-authority",
                "--papers",
                "bundle/papers.tsv",
                "--authority",
                "bundle/authority.tsv",
                "--out",
                "auth",
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "evaluate",
                "--truth",
                "auth/labels.tsv",
                "--pred",
                "fini/clustering.tsv",
                "--papers",
                "bundle/papers.tsv",
                "--annotations",
                "bundle/annotations.tsv",
                "--out",
                "eval",
            ]
        )
        == EXIT_OK
    )
    capsys.readouterr()
    code = main(
        [
            "perturb",
            "--eval",
            "eval/eval_dataset.tsv",
            "--fraction",
            "0",
            "--seed",
            "5",
            "--out",
            "pert",
        ]
    )
    assert code == EXIT_OK
    assert "changed=0" in capsys.readouterr().out
    assert read_eval_dataset(workdir / "pert" / "eval_dataset.tsv") == read_eval_dataset(
        workdir / "eval" / "eval_dataset.tsv"
    )


def test_agree_reports_planted_flip(workdir, capsys):
    labels_a = [
        LabeledInstance((i, 1), label, "authority")
        for i, label in ((1, "x"), (2, "x"), (3, "x"), (4, "y"), (5, "y"))
    ]
    labels_b = [
        LabeledInstance((i, 1), label, "grant")
        for i, label in ((1, "B"), (2, "B"), (3, "B2"), (4, "C"), (5, "C"))
    ]
    write_labels(workdir / "a.tsv", labels_a)
    write_labels(workdir / "b.tsv", labels_b)
    assert main(["agree", "--a", "a.tsv", "--b", "b.tsv", "--out", "agr"]) == EXIT_OK
    assert "disagreements=1" in capsys.readouterr().out
    report = json.loads((workdir / "agr" / "agreement.json").read_text())
    assert report == {"overlap": 5, "agree": 4, "disagreements": 1}
    disagreements = (workdir / "agr" / "disagreements.tsv").read_bytes()
    assert disagreements == b"instance_id\tlabel_a\tlabel_b\n3_1\tx\tB2\n"


def test_profile_sample_lists_instance_ids(workdir):
    (workdir / "papers.tsv").write_text(PAPERS + "2\t2002\tB title\tPark, Quin\n")
    argv = ["profile", "--papers", "papers.tsv", "--sample", "3", "--seed", "1", "--out", "prof"]
    assert main(argv) == EXIT_OK
    assert (workdir / "prof" / "sample.tsv").read_bytes() == b"instance_id\n1_1\n1_2\n2_1\n"


def test_profile_usage_checks(workdir, bundle_dir, capsys):
    eval_only = ["--eval", "bundle/annotations.tsv"]  # never read: the checks come first
    for argv, message in (
        ([], "needs --eval and/or --papers"),
        (["--truth", "bundle/truth_clustering.tsv"], "needs --eval and/or --papers"),
        ([*eval_only, "--truth", "bundle/truth_clustering.tsv"], "--truth needs --papers"),
        ([*eval_only, "--pairs", "bundle/truth_clustering.tsv"], "--pairs needs --papers"),
        ([*eval_only, "--sample", "5"], "--sample needs --papers"),
        (["--papers", "bundle/papers.tsv", "--sample", "5"], "--sample needs --seed"),
    ):
        assert main(["profile", *argv, "--out", "prof"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
    assert not (workdir / "prof").exists() or not list((workdir / "prof").iterdir())


def test_profile_reads_every_input_before_it_computes(workdir, capsys):
    # a header-only eval dataset has nothing to profile (exit 5), but the bad
    # pairs row is read before anything is computed and fails first (exit 4)
    (workdir / "eval.tsv").write_text(EVAL.splitlines(keepends=True)[0])
    (workdir / "papers.tsv").write_text(PAPERS)
    (workdir / "pairs.tsv").write_text("instance_a\tinstance_b\n1_1\tx\n")
    argv = ["profile", "--eval", "eval.tsv", "--papers", "papers.tsv", "--out", "prof"]
    assert main(argv) == EXIT_EVALUATION
    capsys.readouterr()
    assert main([*argv, "--pairs", "pairs.tsv"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "pairs.tsv, row 1" in err


def test_profile_holds_an_eval_error_until_truth_is_read(workdir, capsys):
    # the header-only eval dataset is profiled, and fails, before truth is read
    (workdir / "eval.tsv").write_text(EVAL.splitlines(keepends=True)[0])
    (workdir / "papers.tsv").write_text(PAPERS)
    (workdir / "truth.tsv").write_text(CLUSTERING + "c2\t1_x\n")
    argv = ["profile", "--eval", "eval.tsv", "--papers", "papers.tsv", "--truth", "truth.tsv"]
    assert main([*argv, "--out", "prof"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "truth.tsv, row 3" in err
    assert not (workdir / "prof").exists() or not list((workdir / "prof").iterdir())


def test_profile_holds_a_corpus_error_until_pairs_are_read(workdir, capsys):
    # the header-only corpus has no blocks (exit 5), found before pairs are read
    (workdir / "eval.tsv").write_text(EVAL)
    (workdir / "papers.tsv").write_text(PAPERS.splitlines(keepends=True)[0])
    (workdir / "pairs.tsv").write_text("instance_a\tinstance_b\n1_1\t2_1\n1_1\tx\n")
    argv = ["profile", "--eval", "eval.tsv", "--papers", "papers.tsv", "--out", "prof"]
    assert main(argv) == EXIT_EVALUATION
    assert "no blocks" in capsys.readouterr().err
    assert main([*argv, "--pairs", "pairs.tsv"]) == EXIT_FORMAT
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "pairs.tsv, row 2" in err
    assert not (workdir / "prof").exists() or not list((workdir / "prof").iterdir())


def test_stratum_requires_labels_truth(workdir, bundle_dir):
    assert main(["baseline", "--papers", "bundle/papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    code = main(
        [
            "evaluate",
            "--truth",
            "bundle/truth_clustering.tsv",
            "--pred",
            "fini/clustering.tsv",
            "--stratum",
            "gender",
            "--out",
            "eval",
        ]
    )
    assert code == EXIT_USAGE


def test_link_authority_nonalpha_mode(workdir, bundle_dir, capsys):
    code = main(
        [
            "link-authority",
            "--papers",
            "bundle/papers.tsv",
            "--authority",
            "bundle/authority.tsv",
            "--nonalpha",
            "space",
            "--out",
            "auth",
        ]
    )
    assert code == EXIT_OK
    assert "labels=" in capsys.readouterr().out
    manifest = json.loads((workdir / "auth" / "run_manifest.json").read_text())
    assert manifest["flags"]["nonalpha"] == "space"


@pytest.mark.parametrize(
    "argv,link",
    [
        (["link-authority", "--authority", "bundle/authority.tsv"], "authority"),
        (["link-grants", "--grants", "bundle/grants.tsv"], "grants"),
    ],
    ids=["link-authority", "link-grants"],
)
def test_link_summary_prints_every_stat(workdir, bundle_dir, capsys, argv, link):
    assert main([*argv, "--papers", "bundle/papers.tsv", "--out", "out"]) == EXIT_OK
    corpus = ingest_corpus(bundle_dir / "papers.tsv")
    if link == "authority":
        result = link_authority(corpus, bundle_dir / "authority.tsv")
    else:
        result = link_grants(corpus, ingest_grants(bundle_dir / "grants.tsv"))
    line = capsys.readouterr().out.strip()
    assert line.count("\n") == 0
    command, _, fields = line.partition(": ")
    assert command == argv[0]
    printed = dict(field.split("=") for field in fields.split(" "))
    assert list(printed)[:2] == ["labels", "conflicts"]
    assert printed == {
        "labels": str(len(result.labels)),
        "conflicts": str(len(result.conflicts)),
        **{key: str(value) for key, value in result.stats.items()},
    }


def test_version_flag(workdir, capsys):
    assert main(["--version"]) == EXIT_OK
    assert "linklab" in capsys.readouterr().out


PAPERS = "pmid\tyear\ttitle\tauthors\n1\t2001\tA title\tKim, Ji|Lee, Ann\n"
LABELS = "instance_id\tlabel_id\tsource\n1_1\tx\tauthority\n1_2\ty\tauthority\n"
CLUSTERING = "cluster_id\tinstance_id\nc1\t1_1\nc1\t1_2\n"
ANNOTATIONS = "instance_id\tethnicity\tgender\n1_1\tEnglish\tMale\n1_2\tKorean\tFemale\n"
EVAL = (
    "instance_id\ttruth_label\tpredicted_cluster_id\tyear\tethnicity\tgender\n"
    "1_1\ta\tc1\t2001\tEnglish\tMale\n"
    "1_2\tb\tc1\t2001\tKorean\tFemale\n"
)
# one instance labeled by both sources: the join refuses it (exit 5)
CONFLICT_LABELS = "instance_id\tlabel_id\tsource\n1_1\tx\tauthority\n1_1\ty\tgrant\n"
LONG_BYLINE = "|".join(f"Surname{i}, Given" for i in range(15000))
# more digits than int() converts by default
HUGE = "1" * 5000
# a field no message echoes in full, and the first 24 characters it is cut to
LONG = "s" * 5000
LONG_ECHO = f"{'s' * 24!r}... (5000 characters)"
# a valid instance id of 4002 characters: its pmid has fewer digits than int()'s limit
LONG_ID = f"{'1' * 4000}_1"
LONG_ID_ECHO = f"{'1' * 24!r}... (4002 characters)"
LONG_PMID, LONG_PMID_ECHO = LONG_ID[:-2], f"{'1' * 24!r}... (4000 characters)"
TAB_TAG = "t" * 1500 + "\t" + "t" * 1499


def _gz_flipped(data: bytes, offset: int) -> bytes:
    packed = bytearray(gzip.compress(data, mtime=0))
    packed[offset] ^= 0xFF
    return bytes(packed)


def _crlf(text: str) -> bytes:
    return text.replace("\n", "\r\n").encode()


def _baseline(papers: str, out: str = "out") -> list[str]:
    return ["baseline", "--papers", papers, "--method", "fini", "--out", out]


def _synth_with_config() -> list[str]:
    return ["synth", "--seed", "1", "--config", "config.json", "--out", "out"]


# A synth config whose field has the wrong JSON type, and the field it names.
BAD_CONFIGS = {
    '{"n_authors": "abc"}': "n_authors",
    '{"n_authors": null}': "n_authors",
    '{"n_authors": 10.5}': "n_authors",
    '{"n_authors": true}': "n_authors",
    '{"homonym_rate": "0.1"}': "homonym_rate",
    '{"papers_per_author": ["a", "b"]}': "papers_per_author",
    '{"year_range": [1991]}': "year_range",
    '{"ethnicity_shares": [1, 2]}': "ethnicity_shares",
    '{"gender_shares": {"Male": "half"}}': "gender_shares",
}
# A NaN share has the right type but fails every comparison, the sum check's too.
NAN_SHARES = {
    '{"ethnicity_shares": {"A": NaN}}': "ethnicity_shares['A'] must be a finite non-negative number",
    '{"gender_shares": {"Male": 0.5, "Female": NaN}}': "gender_shares['Female'] must be a finite",
    '{"synonym_type_shares": {"flipped_order": NaN}}': "synonym_type_shares['flipped_order'] must be a finite",
}


# (case, file written for the case, its bytes, argv, exit code). A failing
# run must explain itself in one line, naming that file unless the fault lies
# in the data as a whole (exit 5), and must leave --out as it was.
BAD_INPUTS = [
    ("utf-8 bom before the header", "bom.tsv", b"\xef\xbb\xbf" + PAPERS.encode(), _baseline("bom.tsv"), EXIT_OK),
    (
        "utf-8 bom in a gzip table",
        "bom.tsv.gz",
        gzip.compress(b"\xef\xbb\xbf" + PAPERS.encode(), mtime=0),
        _baseline("bom.tsv.gz"),
        EXIT_OK,
    ),
    (
        "utf-8 bom before the synth config",
        "config.json",
        b'\xef\xbb\xbf{"n_authors": 5}',
        ["synth", "--seed", "1", "--config", "config.json", "--out", "out"],
        EXIT_OK,
    ),
    (
        "crlf labels as evaluate truth",
        "labels.tsv",
        _crlf(LABELS),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_OK,
    ),
    (
        "crlf labels in agree",
        "labels.tsv",
        _crlf(LABELS),
        ["agree", "--a", "labels.tsv", "--b", "labels.tsv", "--out", "out"],
        EXIT_OK,
    ),
    (
        "15000-author byline",
        "long.tsv",
        f"pmid\tyear\ttitle\tauthors\n1\t2001\tA title\t{LONG_BYLINE}\n".encode(),
        _baseline("long.tsv"),
        EXIT_OK,
    ),
    # offset 10 is the first byte of the deflate stream, -8 the CRC trailer
    ("damaged deflate stream", "papers.tsv.gz", _gz_flipped(PAPERS.encode(), 10), _baseline("papers.tsv.gz"), EXIT_FORMAT),
    ("gzip checksum mismatch", "papers.tsv.gz", _gz_flipped(PAPERS.encode(), -8), _baseline("papers.tsv.gz"), EXIT_FORMAT),
    ("truncated gzip", "papers.tsv.gz", gzip.compress(PAPERS.encode(), mtime=0)[:-12], _baseline("papers.tsv.gz"), EXIT_FORMAT),
    ("plain text named .gz", "papers.tsv.gz", PAPERS.encode(), _baseline("papers.tsv.gz"), EXIT_FORMAT),
    ("NUL byte in a byline name", "nul.tsv", PAPERS.replace("Kim, Ji", "Kim, J\x00i").encode(), _baseline("nul.tsv"), EXIT_FORMAT),
    ("NUL byte as a byline name", "nul.tsv", PAPERS.replace("Lee, Ann", "\x00").encode(), _baseline("nul.tsv"), EXIT_FORMAT),
    ("5000-digit pmid", "huge.tsv", f"pmid\tyear\ttitle\tauthors\n{HUGE}\t2001\tA title\tKim, Ji\n".encode(),
     _baseline("huge.tsv"), EXIT_FORMAT),
    ("5000-digit year", "huge.tsv", f"pmid\tyear\ttitle\tauthors\n1\t{HUGE}\tA title\tKim, Ji\n".encode(),
     _baseline("huge.tsv"), EXIT_FORMAT),
    ("5000-character pmid", "long.tsv", f"pmid\tyear\ttitle\tauthors\n{'x' * 5000}\t2001\tA title\tKim, Ji\n".encode(),
     _baseline("long.tsv"), EXIT_FORMAT),
    ("year in Arabic-Indic digits", "year.tsv", PAPERS.replace("2001", "\u0662\u0660\u0660\u0661").encode(),
     _baseline("year.tsv"), EXIT_FORMAT),
    *(
        (
            f"5000-digit {part} in an instance id",
            "huge.tsv",
            (CLUSTERING + f"c2\t{instance}\n").encode(),
            ["evaluate", "--truth", "clustering.tsv", "--pred", "huge.tsv", "--out", "out"],
            EXIT_FORMAT,
        )
        for part, instance in (("pmid", f"{HUGE}_1"), ("position", f"1_{HUGE}"))
    ),
    *(
        (
            f"5000-digit {column}",
            "huge.tsv",
            f"citing_pmid\tcited_pmid\n1\t2\n{edge}\n".encode(),
            ["pairs", "--papers", "papers.tsv", "--citations", "huge.tsv", "--out", "out"],
            EXIT_FORMAT,
        )
        for column, edge in (("citing_pmid", f"{HUGE}\t1"), ("cited_pmid", f"1\t{HUGE}"))
    ),
    ("5000-digit integer in the synth config", "config.json", f'{{"n_authors": {HUGE}}}'.encode(),
     _synth_with_config(), EXIT_FORMAT),
    ("synth config nested 200,000 deep", "config.json", b"[" * 200_000 + b"]" * 200_000,
     _synth_with_config(), EXIT_FORMAT),
    ("bad synth config for a new nested --out", "config.json", b'{"n_authors": "x"}',
     ["synth", "--seed", "1", "--config", "config.json", "--out", "newdir/sub"], EXIT_EVALUATION),
    ("bad synth config for a new --out through ..", "config.json", b'{"n_authors": "x"}',
     ["synth", "--seed", "1", "--config", "config.json", "--out", "newdir/../sub"], EXIT_EVALUATION),
    ("non-UTF-8 table", "latin.tsv", PAPERS.replace("Ann", "Ann\xe9").encode("latin-1"), _baseline("latin.tsv"), EXIT_FORMAT),
    (
        "non-UTF-8 evaluate truth",
        "latin.tsv",
        LABELS.replace("x", "\xe9").encode("latin-1"),
        ["evaluate", "--truth", "latin.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "non-UTF-8 synth config",
        "config.json",
        b'{"n_authors": "\xff"}',
        ["synth", "--seed", "1", "--config", "config.json", "--out", "out"],
        EXIT_FORMAT,
    ),
    *(
        (f"synth config {text}", "config.json", text.encode(), _synth_with_config(), EXIT_EVALUATION)
        for text in [*BAD_CONFIGS, *NAN_SHARES]
    ),
    ("--out names a file", "taken", b"a file\n", _baseline("papers.tsv", out="taken"), EXIT_USAGE),
    ("--out under a file", "taken", b"a file\n", _baseline("papers.tsv", out="taken/sub"), EXIT_USAGE),
    (
        "labels that join no predicted instance",
        "labels.tsv",
        LABELS.replace("1_", "5_").encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_EVALUATION,
    ),
    *(
        (
            f"annotations: {fault} on an unlabeled row",
            "ann.tsv",
            (ANNOTATIONS + row).encode(),
            ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv",
             "--annotations", "ann.tsv", "--out", "out"],
            EXIT_FORMAT,
        )
        for fault, row in (("malformed id", "9_x\tEnglish\tMale\n"), ("duplicate", "5_1\tA\tB\n5_1\tA\tB\n"))
    ),
    # labels-mode evaluate keeps only labeled instances, but checks every row
    (
        "predicted clustering: one unlabeled instance in two clusters",
        "pred.tsv",
        (CLUSTERING + "c7\t5_1\nc8\t05_1\n").encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "pred.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "annotations: one unlabeled instance annotated twice, written two ways",
        "ann.tsv",
        (ANNOTATIONS + "5_1\tA\tB\n05_1\tA\tB\n").encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv",
         "--annotations", "ann.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "papers: empty author name on a paper with no labeled instance",
        "papers2.tsv",
        (PAPERS + "9\t2002\tOther title\tKim, Ji||Lee, Ann\n").encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers2.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    # a bad input outranks the label conflict, which the join finds after every read
    (
        "two-source label conflict and a malformed --pred",
        "pred.tsv",
        (CLUSTERING + "c2\t1_x\n").encode(),
        ["evaluate", "--truth", "conflict.tsv", "--pred", "pred.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    # a config too large to generate is refused before anything is allocated
    *(
        (f"synth config planting {what}", "config.json", text.encode(), _synth_with_config(), EXIT_EVALUATION)
        for what, text in (
            ("a 401-digit number of authors", f'{{"n_authors": 1{"0" * 400}}}'),
            ("10^11 authors", '{"n_authors": 100000000000}'),
            ("up to 10^15 papers per author", '{"papers_per_author": [1, 1000000000000000]}'),
        )
    ),
    # a message quotes each bad field cut short, whatever its length
    (
        "5000-character label source",
        "labels.tsv",
        f"instance_id\tlabel_id\tsource\n1_1\tx\t{LONG}\n".encode(),
        ["agree", "--a", "labels.tsv", "--b", "labels.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "instance repeated under a 5000-character cluster id",
        "long.tsv",
        f"cluster_id\tinstance_id\n{LONG}\t1_1\nc2\t1_1\n".encode(),
        ["evaluate", "--truth", "clustering.tsv", "--pred", "long.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "conflicting names of a 5000-character authority id",
        "authority.tsv",
        f"authority_id\tname\ttitle\n{LONG}\t{'n' * 4800}\tT one\n{LONG}\tKim, Ji\tT two\n".encode(),
        ["link-authority", "--papers", "papers.tsv", "--authority", "authority.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    # the join, not a reader, finds two labels on one instance: exit 5, no row
    (
        "one instance with two 5000-character labels",
        "labels.tsv",
        f"instance_id\tlabel_id\tsource\n1_1\t{LONG}\tauthority\n1_1\t{'t' * 5000}\tgrant\n".encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv", "--out", "out"],
        EXIT_EVALUATION,
    ),
    ("5000-character header column", "long.tsv", f"{LONG}\tyear\ttitle\tauthors\n".encode(), _baseline("long.tsv"),
     EXIT_FORMAT),
    (
        "duplicate 4002-character instance in labels",
        "labels.tsv",
        f"instance_id\tlabel_id\tsource\n{LONG_ID}\tx\tauthority\n{LONG_ID}\ty\tauthority\n".encode(),
        ["agree", "--a", "labels.tsv", "--b", "labels.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "duplicate 4002-character instance in an eval dataset",
        "eval.tsv",
        (EVAL.splitlines(keepends=True)[0] + f"{LONG_ID}\ta\tc1\t2001\tEnglish\tMale\n" * 2).encode(),
        ["perturb", "--eval", "eval.tsv", "--fraction", "0.5", "--seed", "1", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "duplicate 4002-character instance in annotations",
        "ann.tsv",
        (ANNOTATIONS + f"{LONG_ID}\tA\tB\n" * 2).encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv",
         "--annotations", "ann.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "pair of 4002-character instances on one paper",
        "pairs.tsv",
        f"instance_a\tinstance_b\n{LONG_ID}\t{LONG_ID[:-1]}2\n".encode(),
        ["evaluate", "--pairs", "pairs.tsv", "--pred", "clustering.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    (
        "strict evaluate of a 4002-character instance with no prediction",
        "truth.tsv",
        f"cluster_id\tinstance_id\nc1\t{LONG_ID}\n".encode(),
        ["evaluate", "--truth", "truth.tsv", "--pred", "clustering.tsv", "--strict", "--out", "out"],
        EXIT_EVALUATION,
    ),
    (
        "strict join of a 4002-character instance outside the corpus",
        "labels.tsv",
        f"instance_id\tlabel_id\tsource\n{LONG_ID}\tx\tauthority\n".encode(),
        ["evaluate", "--truth", "labels.tsv", "--pred", "long_id.tsv", "--papers", "papers.tsv", "--strict",
         "--out", "out"],
        EXIT_EVALUATION,
    ),
    (
        "duplicate 4000-digit pmid",
        "dup.tsv",
        f"pmid\tyear\ttitle\tauthors\n{LONG_PMID}\t2001\tOne\tKim, Ji\n{LONG_PMID}\t2002\tTwo\tLee, Ann\n".encode(),
        _baseline("dup.tsv"),
        EXIT_FORMAT,
    ),
    (
        "4000-digit pmid citing itself",
        "loop.tsv",
        f"citing_pmid\tcited_pmid\n{LONG_PMID}\t{LONG_PMID}\n".encode(),
        ["pairs", "--papers", "papers.tsv", "--citations", "loop.tsv", "--out", "out"],
        EXIT_FORMAT,
    ),
    ("5000-character string as n_authors", "config.json", json.dumps({"n_authors": LONG}).encode(),
     _synth_with_config(), EXIT_EVALUATION),
    ("5000-character unknown config field", "config.json", json.dumps({LONG: 1}).encode(),
     _synth_with_config(), EXIT_EVALUATION),
    (
        "5000-character ethnicity tag with a negative share",
        "config.json",
        json.dumps({"ethnicity_shares": {LONG: -1.0, "A": 2.0}}).encode(),
        _synth_with_config(),
        EXIT_EVALUATION,
    ),
    ("4000-digit papers_per_author lo above hi", "config.json",
     f'{{"papers_per_author": [{LONG_PMID}, 2]}}'.encode(), _synth_with_config(), EXIT_EVALUATION),
    ("4000-digit year_range start after its end", "config.json",
     f'{{"year_range": [{LONG_PMID}, 1991]}}'.encode(), _synth_with_config(), EXIT_EVALUATION),
    ("4000-digit homonym_rate", "config.json", f'{{"homonym_rate": {LONG_PMID}}}'.encode(),
     _synth_with_config(), EXIT_EVALUATION),
    ("negative 4000-digit n_authors", "config.json", f'{{"n_authors": -{LONG_PMID}}}'.encode(),
     _synth_with_config(), EXIT_EVALUATION),
    ("5000-character synonym type", "config.json", json.dumps({"synonym_type_shares": {LONG: 1.0}}).encode(),
     _synth_with_config(), EXIT_EVALUATION),
    (
        "3000-character ethnicity tag holding a tab",
        "config.json",
        json.dumps({"ethnicity_shares": {TAB_TAG: 1.0}}).encode(),
        _synth_with_config(),
        EXIT_EVALUATION,
    ),
    ("ethnicity tag holding a NUL byte", "config.json",
     json.dumps({"ethnicity_shares": {"A\u0000B": 1.0}}).encode(), _synth_with_config(), EXIT_EVALUATION),
    (
        "profile of a header-only corpus",
        "empty.tsv",
        PAPERS.splitlines(keepends=True)[0].encode(),
        ["profile", "--eval", "eval.tsv", "--papers", "empty.tsv", "--out", "out"],
        EXIT_EVALUATION,
    ),
    (
        "perturb output onto its input",
        "e/eval_dataset.tsv",
        EVAL.encode(),
        ["perturb", "--eval", "e/eval_dataset.tsv", "--fraction", "1", "--seed", "1", "--out", "e"],
        EXIT_USAGE,
    ),
]


# What the one-line message must say beyond naming the case file.
MESSAGES = {
    "NUL byte in a byline name": "nul.tsv, row 1",
    "NUL byte as a byline name": "nul.tsv, row 1",
    "5000-digit pmid": "huge.tsv, row 1: pmid is too long: 5000 digits",
    "5000-digit year": "huge.tsv, row 1: year is too long: 5000 digits",
    "5000-character pmid": f"long.tsv, row 1: pmid must be a positive integer, got {'x' * 24!r}... (5000 characters)",
    "year in Arabic-Indic digits": "year.tsv, row 1: year must be an integer",
    "5000-digit pmid in an instance id": "huge.tsv, row 3: instance id is too long: 5002 characters",
    "5000-digit position in an instance id": "huge.tsv, row 3: instance id is too long: 5002 characters",
    "5000-digit citing_pmid": "huge.tsv, row 2: citing_pmid is too long: 5000 digits",
    "5000-digit cited_pmid": "huge.tsv, row 2: cited_pmid is too long: 5000 digits",
    "5000-digit integer in the synth config": "config.json: invalid JSON",
    "synth config nested 200,000 deep": "config.json: invalid JSON",
    "bad synth config for a new nested --out": "n_authors",
    "bad synth config for a new --out through ..": "n_authors",
    "labels that join no predicted instance": "dropped_unclustered=2",
    "annotations: malformed id on an unlabeled row": "ann.tsv, row 3",
    "annotations: duplicate on an unlabeled row": "ann.tsv, row 4",
    "predicted clustering: one unlabeled instance in two clusters":
        "pred.tsv, row 4: instance '05_1' already assigned to cluster 'c7'",
    "annotations: one unlabeled instance annotated twice, written two ways":
        "ann.tsv, row 4: duplicate annotation for instance '05_1'",
    "papers: empty author name on a paper with no labeled instance":
        "papers2.tsv, row 2: empty author name in byline",
    "two-source label conflict and a malformed --pred":
        "pred.tsv, row 3: instance id '1_x' is not of the form <pmid>_<position>",
    "synth config planting a 401-digit number of authors":
        f"n_authors * papers_per_author[1] must be <= 10000000, got {'1' + '0' * 23!r}... (401 characters) * '6'",
    "synth config planting 10^11 authors":
        "n_authors * papers_per_author[1] must be <= 10000000, got '100000000000' * '6'",
    "synth config planting up to 10^15 papers per author":
        "n_authors * papers_per_author[1] must be <= 10000000, got '100' * '1000000000000000'",
    **{f"synth config {text}": field for text, field in BAD_CONFIGS.items()},
    **{f"synth config {text}": message for text, message in NAN_SHARES.items()},
    "5000-character label source": f"labels.tsv, row 1: unknown source {LONG_ECHO}",
    "instance repeated under a 5000-character cluster id":
        f"long.tsv, row 2: instance '1_1' already assigned to cluster {LONG_ECHO}",
    "conflicting names of a 5000-character authority id": (
        f"authority.tsv, row 2: authority {LONG_ECHO} has conflicting names"
        f" {'n' * 24!r}... (4800 characters) and 'Kim, Ji'"
    ),
    "one instance with two 5000-character labels": (
        f"instance '1_1' carries two labels (authority:{LONG_ECHO},"
        f" grant:{'t' * 24!r}... (5000 characters))"
    ),
    "5000-character header column": f"long.tsv: bad header {'s' * 24!r}... (5019 characters), expected",
    "duplicate 4002-character instance in labels":
        f"labels.tsv, row 2: duplicate label for instance {LONG_ID_ECHO} from authority",
    "duplicate 4002-character instance in an eval dataset":
        f"eval.tsv, row 2: duplicate row for instance {LONG_ID_ECHO}",
    "duplicate 4002-character instance in annotations":
        f"ann.tsv, row 4: duplicate annotation for instance {LONG_ID_ECHO}",
    "pair of 4002-character instances on one paper":
        f"pairs.tsv, row 1: invalid pair ({LONG_ID_ECHO}, {LONG_ID_ECHO})",
    "strict evaluate of a 4002-character instance with no prediction":
        f"instance {LONG_ID_ECHO} has no predicted cluster",
    "strict join of a 4002-character instance outside the corpus":
        f"labeled instance {LONG_ID_ECHO} is not in the corpus",
    "duplicate 4000-digit pmid": f"dup.tsv, row 2: duplicate pmid {LONG_PMID_ECHO}",
    "4000-digit pmid citing itself": f"loop.tsv, row 1: self-loop: paper {LONG_PMID_ECHO} cites itself",
    "5000-character string as n_authors":
        "n_authors must be an integer, got " + repr('"' + "s" * 23) + "... (5002 characters)",
    "5000-character unknown config field": f"unknown config fields: {LONG_ECHO}",
    "5000-character ethnicity tag with a negative share":
        f"ethnicity_shares[{LONG_ECHO}] must be a finite non-negative number",
    "4000-digit papers_per_author lo above hi":
        f"papers_per_author must satisfy 1 <= lo <= hi, got {'(' + '1' * 23!r}... (4005 characters)",
    "4000-digit year_range start after its end":
        f"invalid year_range {'(' + '1' * 23!r}... (4008 characters)",
    "4000-digit homonym_rate": f"homonym_rate must be in [0, 1], got {LONG_PMID_ECHO}",
    "negative 4000-digit n_authors": f"n_authors must be >= 1, got {'-' + '1' * 23!r}... (4001 characters)",
    "5000-character synonym type": f"unknown synonym types {LONG_ECHO}",
    "3000-character ethnicity tag holding a tab":
        f"field {'t' * 24!r}... (3000 characters) contains a tab or newline",
    "ethnicity tag holding a NUL byte": "field 'A\\x00B' contains a NUL byte",
}


def _entries(out: Path) -> set[Path]:
    return set(out.rglob("*")) if out.is_dir() else set()


@pytest.mark.parametrize("case,name,data,argv,code", BAD_INPUTS, ids=[case[0] for case in BAD_INPUTS])
def test_bad_inputs_end_in_documented_exit_codes(workdir, capsys, case, name, data, argv, code):
    (workdir / "papers.tsv").write_text(PAPERS)
    (workdir / "clustering.tsv").write_text(CLUSTERING)
    (workdir / "labels.tsv").write_text(LABELS)
    (workdir / "eval.tsv").write_text(EVAL)
    (workdir / "long_id.tsv").write_text(f"cluster_id\tinstance_id\nc1\t{LONG_ID}\n")
    (workdir / "conflict.tsv").write_text(CONFLICT_LABELS)
    (workdir / name).parent.mkdir(exist_ok=True)
    (workdir / name).write_bytes(data)
    out = workdir / argv[argv.index("--out") + 1]
    before = _entries(out)
    existed = [out.exists(), out.parent.exists()]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert err.count("\n") == 1
        # a bad field is echoed cut short, whatever its length
        assert len(err) <= 200
        if code != EXIT_EVALUATION:
            assert name in err
        assert MESSAGES.get(case, "") in err
        assert _entries(out) == before
        # nor any directory made for --out
        assert [out.exists(), out.parent.exists()] == existed
    assert not list(out.glob(".linklab-*"))
    assert (workdir / name).read_bytes() == data


# a name longer than the 255 bytes a file system allows a path component
TOO_LONG = "n" * 300


@pytest.mark.parametrize(
    "argv,code",
    [
        (_baseline("papers.tsv", out="dangling/x"), EXIT_USAGE),
        (_baseline("papers.tsv", out=TOO_LONG), EXIT_USAGE),
        (_baseline(TOO_LONG), EXIT_MISSING_INPUT),
    ],
    ids=["--out under a dangling symlink", "--out of a 300-character name", "--papers of a 300-character name"],
)
def test_paths_the_os_refuses_end_in_documented_exit_codes(workdir, capsys, argv, code):
    (workdir / "papers.tsv").write_text(PAPERS)
    (workdir / "dangling").symlink_to("nowhere")
    before = sorted(workdir.iterdir())
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1
    assert sorted(workdir.iterdir()) == before
    assert not (workdir / "dangling").exists()


def test_a_bad_papers_file_outranks_a_bad_authority_file(workdir, capsys):
    # link_authority reads --authority itself, after --papers: papers.tsv's error still wins
    argv = ["link-authority", "--papers", "papers.tsv", "--authority", "authority.tsv", "--out", "out"]
    (workdir / "authority.tsv").write_text("authority_id\tname\ttitle\na1\tKim, Ji\tT one\na1\t\tT two\n")
    for papers, message in (
        (PAPERS, "authority.tsv, row 2: empty field"),
        (PAPERS + "2\t2001\tT\tKim, Ji|\n", "papers.tsv, row 2: empty author name in byline"),
    ):
        (workdir / "papers.tsv").write_text(papers)
        assert main(argv) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err
        assert not (workdir / "out" / "labels.tsv").exists()


def test_synth_into_a_non_empty_out(workdir):
    out = workdir / "bundle"
    (out / "sub").mkdir(parents=True)
    (out / "notes.txt").write_text("kept\n")
    assert main(["synth", "--seed", "3", "--out", "bundle"]) == EXIT_OK
    write_bundle(generate(SynthConfig(seed=3)), workdir / "api")
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert sorted(manifest["outputs"]) == sorted(_tree_hashes(workdir / "api"))
    assert (out / "notes.txt").read_text() == "kept\n"
    assert (out / "sub").is_dir()
    assert not list(out.glob(".linklab-*"))


def test_output_onto_a_directory_is_refused(workdir, capsys):
    (workdir / "papers.tsv").write_text(PAPERS)
    (workdir / "out" / "clustering.tsv").mkdir(parents=True)
    assert main(_baseline("papers.tsv")) == EXIT_USAGE
    assert "out/clustering.tsv is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in (workdir / "out").iterdir()) == ["clustering.tsv"]


def test_every_file_flag_is_an_input(workdir):
    for name, text in (("papers.tsv", PAPERS), ("clustering.tsv", CLUSTERING), ("labels.tsv", LABELS)):
        (workdir / name).write_text(text)
    # a flag the mode refuses is still checked first, as an input
    argv = ["evaluate", "--truth", "clustering.tsv", "--pred", "clustering.tsv", "--papers"]
    assert main(argv + ["absent.tsv", "--out", "eval"]) == EXIT_MISSING_INPUT
    (workdir / "annotations.tsv").write_text(ANNOTATIONS)
    argv = ["evaluate", "--truth", "labels.tsv", "--pred", "clustering.tsv", "--papers", "papers.tsv"]
    assert main(argv + ["--annotations", "annotations.tsv", "--out", "eval"]) == EXIT_OK
    manifest = json.loads((workdir / "eval" / "run_manifest.json").read_text())
    assert sorted(manifest["inputs"]) == ["annotations.tsv", "clustering.tsv", "labels.tsv", "papers.tsv"]


def test_evaluate_needs_truth_or_pairs(workdir, bundle_dir, capsys):
    truth = "bundle/truth_clustering.tsv"
    argv = ["evaluate", "--pred", truth, "--out", "eval"]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "needs --truth or --pairs" in err
    (workdir / "pairs.tsv").write_text("instance_a\tinstance_b\n")
    (workdir / "labels.tsv").write_text(LABELS)
    papers, annotations = ["--papers", "bundle/papers.tsv"], ["--annotations", "bundle/annotations.tsv"]
    for mode, extra, flag in (
        (["--pairs", "pairs.tsv"], ["--truth", truth], "--truth"),
        (["--pairs", "pairs.tsv"], ["--stratum", "gender"], "--stratum"),
        (["--pairs", "pairs.tsv"], papers, "--papers"),
        (["--pairs", "pairs.tsv"], annotations, "--annotations"),
        (["--pairs", "pairs.tsv"], ["--strict"], "--strict"),
        (["--truth", truth], papers, "--papers"),
        (["--truth", truth], annotations, "--annotations"),
        (["--truth", truth], ["--stratum", "gender"], "--stratum"),
        (["--truth", "labels.tsv"], annotations, "--papers"),
    ):
        assert main(argv + mode + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and flag in err
        assert not (workdir / "eval" / "metrics.json").exists()


def _commands(bundle: str) -> list[list[str]]:
    """Every command that reads papers.tsv, each writing under <bundle>-out/."""
    papers = f"{bundle}/papers.tsv"
    raw = [
        ("fini", "baseline", "--papers", papers, "--method", "fini"),
        ("aini", "baseline", "--papers", papers, "--method", "aini"),
        ("auth", "link-authority", "--papers", papers, "--authority", f"{bundle}/authority.tsv"),
        (
            "auth_keep", "link-authority", "--papers", papers, "--authority", f"{bundle}/authority.tsv",
            "--dup-title-policy", "keep-first",
        ),
        ("grants", "link-grants", "--papers", papers, "--grants", f"{bundle}/grants.tsv"),
        ("pairs", "pairs", "--papers", papers, "--citations", f"{bundle}/citations.tsv"),
        (
            "eval", "evaluate", "--truth", f"{bundle}-out/auth/labels.tsv",
            "--pred", f"{bundle}-out/fini/clustering.tsv", "--papers", papers,
            "--annotations", f"{bundle}/annotations.tsv",
        ),
        (
            "profile", "profile", "--papers", papers, "--truth", f"{bundle}/truth_clustering.tsv",
            "--pairs", f"{bundle}-out/pairs/pairs.tsv", "--sample", "25", "--seed", "3",
        ),
    ]
    return [[*argv, "--out", f"{bundle}-out/{out}"] for out, *argv in raw]


def test_outputs_do_not_depend_on_the_row_order_of_papers(workdir, capsys):
    config = {**CONFIG, "duplicate_title_rate": 0.1}
    (workdir / "config.json").write_text(json.dumps(config))
    assert main(["synth", "--seed", "5", "--config", "config.json", "--out", "sorted"]) == EXIT_OK
    shutil.copytree(workdir / "sorted", workdir / "shuffled")
    header, *rows = (workdir / "sorted" / "papers.tsv").read_text().splitlines(keepends=True)
    shuffled = random.Random(5).sample(rows, len(rows))
    assert shuffled != rows
    (workdir / "shuffled" / "papers.tsv").write_text(header + "".join(shuffled))
    capsys.readouterr()

    def run(bundle: str) -> tuple[list[str], dict[str, str]]:
        summaries = []
        for argv in _commands(bundle):
            assert main(argv) == EXIT_OK
            summaries.append(capsys.readouterr().out)
        root = workdir / f"{bundle}-out"
        artifacts = {
            str(path.relative_to(root)): _sha(path)
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "run_manifest.json"
        }
        return summaries, artifacts

    summaries, artifacts = run("sorted")
    assert len(artifacts) > len(_commands("sorted"))
    assert run("shuffled") == (summaries, artifacts)


def _score_commands(bundle: str) -> list[list[str]]:
    """The scoring commands, on the outputs of _commands(bundle)."""
    out = f"{bundle}-out"
    raw = [
        ("eval_year", "evaluate", "--truth", f"{out}/auth/labels.tsv", "--pred", f"{out}/fini/clustering.tsv",
         "--papers", f"{bundle}/papers.tsv", "--annotations", f"{bundle}/annotations.tsv", "--stratum", "year"),
        ("eval_clustering", "evaluate", "--truth", f"{bundle}/truth_clustering.tsv", "--pred",
         f"{out}/aini/clustering.tsv", "--strict"),
        ("eval_pairs", "evaluate", "--pairs", f"{out}/pairs/pairs.tsv", "--pred", f"{out}/fini/clustering.tsv"),
        ("perturb", "perturb", "--eval", f"{out}/eval/eval_dataset.tsv", "--fraction", "0.5", "--seed", "2"),
        ("agree", "agree", "--a", f"{out}/auth/labels.tsv", "--b", f"{out}/grants/labels.tsv"),
    ]
    return [[*argv, "--out", f"{out}/{name}"] for name, *argv in raw]


def _cyclic_garbage_per_command(workdir: Path, n_authors: int) -> list[int]:
    """What gc.collect() finds after each command on an n-author bundle, the collector off."""
    bundle = f"bundle{n_authors}"
    (workdir / f"{bundle}.json").write_text(json.dumps({**CONFIG, "n_authors": n_authors}))
    found = []
    for argv in (
        ["synth", "--seed", "4", "--config", f"{bundle}.json", "--out", bundle],
        *_commands(bundle),
        *_score_commands(bundle),
    ):
        gc.collect()
        assert main(argv) == EXIT_OK, argv
        found.append(gc.collect())
    return found


def test_cyclic_garbage_does_not_grow_with_the_input(workdir, capsys):
    collecting = gc.isenabled()
    gc.disable()
    try:
        small = _cyclic_garbage_per_command(workdir, 20)
        large = _cyclic_garbage_per_command(workdir, 400)
    finally:
        if collecting:
            gc.enable()
    # what is left is argparse's and the run's own bookkeeping, a few hundred objects
    assert all(count <= 1000 for count in small)
    assert all(count <= limit for count, limit in zip(large, small)), (small, large)


@pytest.mark.parametrize("collecting", [True, False], ids=["collector on", "collector off"])
def test_main_leaves_the_cycle_collector_as_it_found_it(workdir, bundle_dir, capsys, collecting):
    (workdir / "bad_config.json").write_text('{"n_authors": "abc"}')
    truth = "bundle/truth_clustering.tsv"
    runs = [
        (["evaluate", "--truth", truth, "--pred", truth, "--out", "ok"], EXIT_OK),
        (["frobnicate", "--out", "x"], EXIT_USAGE),
        (["evaluate", "--pred", truth, "--out", "usage"], EXIT_USAGE),
        (["baseline", "--papers", "absent.tsv", "--method", "fini", "--out", "missing"], EXIT_MISSING_INPUT),
        (["baseline", "--papers", truth, "--method", "fini", "--out", "format"], EXIT_FORMAT),
        (["synth", "--seed", "1", "--config", "bad_config.json", "--out", "config"], EXIT_EVALUATION),
    ]
    before = gc.isenabled()
    try:
        for argv, code in runs:
            (gc.enable if collecting else gc.disable)()
            assert main(argv) == code
            assert gc.isenabled() is collecting, argv
    finally:
        (gc.enable if before else gc.disable)()


def _evaluate_outcome(truth: Path, pred: Path, out: Path, strict: bool) -> tuple:
    """Exit code, stdout, stderr and metrics.json of clustering-mode `linklab evaluate`."""
    argv = ["evaluate", "--truth", str(truth), "--pred", str(pred), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv + ["--strict"] * strict)
    metrics = out / "metrics.json"
    return code, stdout.getvalue(), stderr.getvalue(), metrics.read_bytes() if metrics.exists() else None


def _two_clusterings_outcome(truth: Path, pred: Path, strict: bool) -> tuple:
    """The same outcome from two clusterings read whole and scored by the earlier scorer."""
    try:
        scores = oracles.b3_scores(ingest_clustering(truth), ingest_clustering(pred), strict=strict)
    except (IngestError, ParseError) as exc:
        return EXIT_FORMAT, "", f"linklab: format violation: {exc}\n", None
    except EvaluationError as exc:
        return EXIT_EVALUATION, "", f"linklab: {exc}\n", None
    summary = "evaluate: recall=%.6f precision=%.6f f1=%.6f n=%d dropped=%d\n" % scores
    return EXIT_OK, summary, "", metrics_to_json(scores).encode()


CLUSTERING_INSTANCES = st.tuples(st.integers(1, 12), st.integers(1, 3))
# ids whose sort order differs from their insertion order, a non-ASCII one included
CLUSTERING_IDS = st.sampled_from(["c", "a", "b", "B", "\xe9", "a b", "a0"])


@st.composite
def clustering_files(draw):
    """Rows of a truth and a predicted clustering file, each may list an instance twice.

    The prediction misses some truth instances and lists some outside it.
    """
    truth = draw(st.dictionaries(CLUSTERING_INSTANCES, CLUSTERING_IDS, max_size=20))
    predicted = draw(st.dictionaries(CLUSTERING_INSTANCES, CLUSTERING_IDS, max_size=5))
    for instance in truth:
        predicted.pop(instance, None)
        if draw(st.integers(0, 5)):
            predicted[instance] = draw(CLUSTERING_IDS)
    files = []
    for clustering in (truth, predicted):
        rows = draw(st.permutations(list(clustering.items())))
        if rows and draw(st.integers(0, 3)) == 0:
            # a second row for one listed instance, anywhere after its first
            first = draw(st.integers(0, len(rows) - 1))
            at = draw(st.integers(first + 1, len(rows)))
            rows.insert(at, (rows[first][0], draw(CLUSTERING_IDS)))
        files.append(rows)
    return files


def _write_clustering_rows(path: Path, rows) -> Path:
    lines = [f"{cluster_id}\t{format_instance_id(instance)}\n" for instance, cluster_id in rows]
    path.write_text("cluster_id\tinstance_id\n" + "".join(lines), encoding="utf-8")
    return path


@settings(max_examples=150, deadline=None)
@given(clustering_files(), st.booleans())
@example([[((1, 1), "a"), ((2, 1), "b")], [((2, 1), "p"), ((3, 1), "q"), ((2, 1), "r")]], False)
@example([[((1, 1), "a"), ((2, 1), "b")], [((3, 1), "q"), ((1, 1), "p"), ((3, 1), "r")]], False)
@example([[((1, 1), "a"), ((1, 1), "b")], [((3, 1), "q"), ((3, 1), "r")]], False)
@example([[((2, 1), "a"), ((1, 1), "a")], [((3, 1), "q")]], True)
@example([[((2, 1), "a"), ((1, 1), "a")], [((3, 1), "q")]], False)
@example([[], [((3, 1), "q")]], False)
@example([[], [((3, 1), "q"), ((3, 1), "r")]], True)
def test_clustering_evaluate_matches_two_clusterings_scored_as_mappings(files, strict):
    """Streaming --pred into the truth table changes no byte of what evaluate reports."""
    truth_rows, pred_rows = files
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        truth = _write_clustering_rows(tmp / "truth.tsv", truth_rows)
        pred = _write_clustering_rows(tmp / "pred.tsv", pred_rows)
        got = _evaluate_outcome(truth, pred, tmp / "out", strict)
        assert got == _two_clusterings_outcome(truth, pred, strict)
