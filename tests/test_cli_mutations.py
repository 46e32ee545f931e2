"""Seeded mutations of the CLI's inputs: every run ends in a documented exit code.

A small bundle, plain and gzipped, and the files the commands derive
from it are written once. Each case mutates one input of one command
line (a flipped byte, a cut, a blank or swapped cell, a dropped or extra
column, a shuffled header, CRLF line ends, a cut gzip stream, a repeated
row) and runs the command in this process. It must exit 0, 3, 4 or 5;
a failed run prints one stderr line starting "linklab: " and leaves
--out as it found it.
"""

import gzip
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from linklab.cli import EXIT_EVALUATION, EXIT_FORMAT, EXIT_MISSING_INPUT, EXIT_OK, main
from linklab.synth import SynthConfig, generate, write_bundle

CONFIG = SynthConfig(
    seed=5,
    n_authors=40,
    papers_per_author=(2, 4),
    homonym_rate=0.1,
    synonym_rate=0.1,
    authority_coverage=0.8,
    grant_coverage=0.5,
    selfcitation_rate=0.8,
    duplicate_title_rate=0.1,
)
TABLES = (
    "papers", "authority", "grants", "citations", "annotations", "truth_clustering",
    "labels", "fini", "pairs", "eval",
)
# each command line: (name, argv with {table} placeholders); --out is added per run
COMMANDS = [
    ("baseline", "baseline --papers {papers} --method fini"),
    ("link-authority", "link-authority --papers {papers} --authority {authority}"),
    ("link-grants", "link-grants --papers {papers} --grants {grants}"),
    ("pairs", "pairs --papers {papers} --citations {citations}"),
    (
        "evaluate-labels",
        "evaluate --truth {labels} --pred {fini} --papers {papers} --annotations {annotations}"
        " --stratum ethnicity",
    ),
    ("evaluate-clusterings", "evaluate --truth {truth_clustering} --pred {fini}"),
    ("evaluate-pairs", "evaluate --pairs {pairs} --pred {fini}"),
    ("profile", "profile --eval {eval} --papers {papers} --truth {truth_clustering} --pairs {pairs}"),
    ("perturb", "perturb --eval {eval} --fraction 0.3 --seed 2"),
    ("agree", "agree --a {labels} --b {eval}"),
]
CASES_PER_COMMAND = 30
EXIT_CODES = {EXIT_OK, EXIT_MISSING_INPUT, EXIT_FORMAT, EXIT_EVALUATION}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> dict[str, dict[str, Path]]:
    """Table name -> its path, plain ("tsv") and gzipped ("tsv.gz")."""
    root = tmp_path_factory.mktemp("mutations")
    bundle = root / "bundle"
    write_bundle(generate(CONFIG), bundle)
    plain = {name: bundle / f"{name}.tsv" for name in TABLES[:6]}
    derived = {
        "labels": ("link-authority", "labels.tsv"),
        "fini": ("baseline", "clustering.tsv"),
        "pairs": ("pairs", "pairs.tsv"),
        "eval": ("evaluate-labels", "eval_dataset.tsv"),
    }
    commands = dict(COMMANDS)
    for name, (command, output) in derived.items():
        out = root / command
        argv = commands[command].format(**plain).split()
        assert _run([*argv, "--out", str(out)]) == (EXIT_OK, "")
        plain[name] = out / output
    gzipped = {}
    for name, path in plain.items():
        gzipped[name] = root / "gz" / f"{name}.tsv.gz"
        gzipped[name].parent.mkdir(exist_ok=True)
        gzipped[name].write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    return {"tsv": plain, "tsv.gz": gzipped}


def _rows(text: bytes) -> list[list[str]]:
    return [line.split("\t") for line in text.decode("utf-8", "replace").split("\n")]


def _joined(rows: list[list[str]]) -> bytes:
    return "\n".join("\t".join(row) for row in rows).encode()


def _data_row(rng: random.Random, rows: list[list[str]]) -> list[str]:
    # the header and the empty string after the last newline are no data rows
    return rows[rng.randrange(1, len(rows) - 1)] if len(rows) > 2 else rows[0]


def flip_byte(rng, data):
    data = bytearray(data)
    data[rng.randrange(len(data))] ^= rng.randrange(1, 256)
    return bytes(data)


def truncate(rng, data):
    return data[: rng.randrange(len(data))]


def blank_cell(rng, data):
    rows = _rows(data)
    row = _data_row(rng, rows)
    row[rng.randrange(len(row))] = ""
    return _joined(rows)


def swap_cells(rng, data):
    rows = _rows(data)
    row = _data_row(rng, rows)
    i, j = rng.randrange(len(row)), rng.randrange(len(row))
    row[i], row[j] = row[j], row[i]
    return _joined(rows)


def drop_column(rng, data):
    rows = _rows(data)
    every_row = rng.random() < 0.5
    column = rng.randrange(len(rows[0]))
    for row in rows[:-1] if every_row else [_data_row(rng, rows)]:
        del row[min(column, len(row) - 1)]
    return _joined(rows)


def extra_column(rng, data):
    rows = _rows(data)
    every_row = rng.random() < 0.5
    for row in rows[:-1] if every_row else [_data_row(rng, rows)]:
        row.insert(rng.randrange(len(row) + 1), "extra")
    return _joined(rows)


def shuffle_header(rng, data):
    rows = _rows(data)
    rng.shuffle(rows[0])
    return _joined(rows)


def crlf(rng, data):
    return data.replace(b"\n", b"\r\n")


def duplicate_row(rng, data):
    rows = _rows(data)
    row = _data_row(rng, rows)
    rows.insert(rows.index(row), list(row))
    return _joined(rows)


TEXT_MUTATIONS = (
    flip_byte, truncate, blank_cell, swap_cells, drop_column, extra_column, shuffle_header,
    crlf, duplicate_row,
)


def _mutated(rng: random.Random, path: Path) -> tuple[str, bytes]:
    """A mutation's name and the bytes it makes of the file at `path`."""
    data = path.read_bytes()
    if path.suffix != ".gz":
        mutation = rng.choice(TEXT_MUTATIONS)
        return mutation.__name__, mutation(rng, data)
    mutation = rng.choice((*TEXT_MUTATIONS, "cut_stream", "flip_stream_byte"))
    if mutation == "cut_stream":
        return mutation, data[: rng.randrange(len(data))]
    if mutation == "flip_stream_byte":
        return mutation, flip_byte(rng, data)
    return mutation.__name__, gzip.compress(mutation(rng, gzip.decompress(data)), mtime=0)


def _entries(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else b"" for p in out.rglob("*")}


@pytest.mark.parametrize("command,template", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_mutated_inputs_end_in_documented_exit_codes(inputs, tmp_path, command, template):
    rng = random.Random(command)
    codes = set()
    for case in range(CASES_PER_COMMAND):
        suffix = rng.choice(("tsv", "tsv.gz"))
        used = [name for name in TABLES if "{" + name + "}" in template]
        target = rng.choice(used)
        mutation, data = _mutated(rng, inputs[suffix][target])
        mutated = tmp_path / f"{case}-{target}.{suffix}"
        mutated.write_bytes(data)
        paths = {name: str(inputs[suffix][name]) for name in used}
        paths[target] = str(mutated)
        out = tmp_path / f"out-{case}"
        out.mkdir()
        (out / "kept.txt").write_text("from an earlier run\n")
        before = _entries(out)
        argv = [*template.format(**paths).split(), "--out", str(out)]
        what = f"{command} case {case}: {mutation} of {target}.{suffix}"
        try:
            code, err = _run(argv)
        except Exception as exc:  # any exception escaping main is the failure reported
            raise AssertionError(f"{what} raised {exc!r}") from exc
        codes.add(code)
        assert code in EXIT_CODES, (what, code, err)
        assert mutated.read_bytes() == data, what
        if code == EXIT_OK:
            assert (out / "run_manifest.json").is_file(), what
            continue
        assert err.count("\n") == 1 and err.startswith("linklab: "), (what, err)
        assert _entries(out) == before, what
    # the mutations reach the readers' checks, not only their successes
    assert codes != {EXIT_OK}, command
