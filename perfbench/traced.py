"""Run one linklab command with spans around every layer call, or the layer kernels.

    python3 perfbench/traced.py SPANS_OUT -- <linklab arguments>
    python3 perfbench/traced.py --kernels SPEC_IN RESULT_OUT

The first form replaces, in every loaded ``linklab`` module, each public
function of the layer modules by a wrapper that records a span (in
``normalize`` only ``parse_name`` and ``normalize_title``, and only counts
their calls), then runs ``linklab.cli.main``. The
span file is written even when the command fails. Nothing under ``src/``
changes; the wrappers live only in this process.

The second form times the per-item kernels that the traced pipeline
cannot attribute on its own: draining ``_tsv.read_rows`` once per input
table, one ``parse_name`` per byline string, one ``normalize_title`` per
title, and it counts the byline slot comparisons self-citation pairing
makes.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

from spans import Recorder

LAYERS = ("synth", "_tsv", "corpus", "normalize", "baseline", "linkage", "metrics", "profile")
# normalize runs per name or per title, where a span would cost more than
# the work: these two are counted, the rest of the module is left alone.
COUNTED = ("normalize.parse_name", "normalize.normalize_title")
# read_rows is timed by the kernels; the open_* helpers are context managers;
# the rest run once per row or per instance, where a span would cost more
# than the work.
UNWRAPPED = (
    "tsv.read_rows", "tsv.open_text_read", "tsv.open_text_write",
    "corpus.parse_instance_id", "corpus.format_instance_id",
    "baseline.fini_cluster_id", "baseline.aini_cluster_id",
    "profile.ccdf_fraction_at_least",
)
# Argument position of the rows that each TSV writer is given.
ROWS_ARG = {"tsv.write_rows": 2, "linkage.write_conflicts": 1}


def _observe_link(prefix: str):
    def observe(recorder: Recorder, result) -> None:
        recorder.count(f"linkage.{prefix}_candidates", result.stats.get("candidates", 0))
        recorder.count(f"linkage.{prefix}_labels", len(result.labels))
        recorder.count("linkage.conflicts", len(result.conflicts))

    return observe


OBSERVE = {
    "linkage.link_authority": _observe_link("authority"),
    "linkage.link_grants": _observe_link("grant"),
    "linkage.extract_selfcitation_pairs": lambda recorder, result: recorder.count(
        "linkage.pairs", len(result)
    ),
}


def _counting(recorder: Recorder, rows):
    for row in rows:
        recorder.count("tsv.rows_written")
        yield row


def _spanned(recorder: Recorder, name: str, fn):
    observe = OBSERVE.get(name)
    rows_arg = ROWS_ARG.get(name)
    eager = inspect.isgeneratorfunction(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rows_arg is not None and len(args) > rows_arg:
            args = (*args[:rows_arg], _counting(recorder, args[rows_arg]), *args[rows_arg + 1:])
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if eager:
                # every caller drains these generators at once; draining
                # inside the span keeps their time in their own layer
                result = iter(list(result))
        finally:
            recorder.close(index)
        if observe is not None:
            observe(recorder, result)
        return result

    return wrapper


def _counted(recorder: Recorder, name: str, fn):
    key = name + "_calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.count(key)
        return fn(*args, **kwargs)

    return wrapper


def instrument(recorder: Recorder) -> None:
    """Wrap the layer functions wherever linklab modules refer to them."""
    import linklab.cli  # noqa: F401  (loads every layer module)
    from linklab import corpus

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("linklab.") and m]
    replace: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"linklab.{layer}"]
        for attr, fn in vars(module).items():
            name = f"{layer.lstrip('_')}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__
                or name in UNWRAPPED
            ):
                continue
            if layer == "normalize":
                if name in COUNTED:
                    replace[id(fn)] = _counted(recorder, name, fn)
            else:
                replace[id(fn)] = _spanned(recorder, name, fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replace and inspect.isfunction(value):
                setattr(module, attr, replace[id(value)])

    init = corpus.Clustering.__init__
    build = corpus.Clustering.from_assignment.__func__
    corpus.Clustering.__init__ = _spanned(recorder, "corpus.Clustering.__init__", init)
    corpus.Clustering.from_assignment = classmethod(
        _spanned(recorder, "corpus.Clustering.from_assignment", build)
    )


def run_command(spans_out: Path, argv: list[str]) -> int:
    recorder = Recorder("cli.main")
    instrument(recorder)
    from linklab.cli import main

    code = 1
    try:
        code = main(argv)
    finally:
        recorder.finish()
        spans_out.write_text(
            json.dumps({"spans": recorder.spans, "counts": recorder.counts, "exit": code}),
            encoding="utf-8",
        )
    return code


def _time(fn, items) -> float:
    start = time.perf_counter()
    for item in items:
        fn(item)
    return time.perf_counter() - start


def run_kernels(spec_in: Path, result_out: Path) -> None:
    from linklab._tsv import read_rows
    from linklab.errors import ParseError
    from linklab.normalize import is_keyed, normalize_title, parse_name

    import tsvio

    spec = json.loads(spec_in.read_text(encoding="utf-8"))
    result = {"tsv.read_rows_s": 0.0, "tsv.rows_read": 0}
    for table in spec["tables"]:
        header = tsvio.read(Path(table))[0]
        start = time.perf_counter()
        rows = sum(1 for _ in read_rows(table, header))
        result["tsv.read_rows_s"] += time.perf_counter() - start
        result["tsv.rows_read"] += rows

    papers = tsvio.read(Path(spec["papers"]))[1]
    bylines = {int(pmid): authors.split("|") for pmid, _, _, authors in papers}
    names = [name for byline in bylines.values() for name in byline]

    def parse(raw: str):
        try:
            return parse_name(raw)
        except ParseError:
            return None

    result["normalize.parse_name_s"] = _time(parse, names)
    result["normalize.normalize_title_s"] = _time(normalize_title, [row[2] for row in papers])
    result["normalize.distinct_names"] = len(set(names))

    comparisons = 0
    if spec.get("citations"):
        keyed_cache: dict[str, bool] = {}
        keyed = {}
        for pmid, byline in bylines.items():
            for raw in byline:
                if raw not in keyed_cache:
                    name = parse(raw)
                    keyed_cache[raw] = name is not None and is_keyed(name)
            keyed[pmid] = sum(keyed_cache[raw] for raw in byline)
        for citing, cited in tsvio.read(Path(spec["citations"]))[1]:
            citing, cited = int(citing), int(cited)
            if citing != cited and citing in keyed and cited in keyed:
                comparisons += keyed[citing] * keyed[cited]
    result["linkage.pair_comparisons"] = comparisons
    result_out.write_text(json.dumps(result), encoding="utf-8")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--kernels"]:
        run_kernels(Path(argv[1]), Path(argv[2]))
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS_OUT -- <linklab arguments>", file=sys.stderr)
        return 2
    return run_command(Path(argv[0]), argv[2:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
