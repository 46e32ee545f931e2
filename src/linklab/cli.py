"""Command line driver for batch linkage, evaluation, and profiling runs.

Every subcommand reads its inputs and writes its artifacts into a staging
directory; ``_run`` then moves them into ``--out`` together with a
``run_manifest.json`` recording inputs, flags, seed, versions, and
checksums, so a run can be audited and reproduced. The manifest is moved
last and only after the command succeeded, so a failed run leaves
``--out`` as it was. Inputs are never modified.

Exit codes: 0 success, 2 usage error, 3 missing input, 4 input format
violation, 5 evaluation or configuration error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from pathlib import Path
from typing import get_type_hints

from . import __version__
from ._tsv import read_header, write_rows
from .baseline import (
    ParsedNames,
    cluster_aini,
    cluster_fini,
    fini_block_sizes,
    name_lookup,
    unparseable_count,
)
from .corpus import (
    CLUSTERING_COLUMNS,
    InstanceID,
    format_instance_id,
    ingest_annotations,
    ingest_authority,
    ingest_citations,
    ingest_clustering,
    ingest_corpus,
    ingest_grants,
    ingest_paper_years,
    write_clustering,
)
from .errors import ConfigError, EvaluationError, IngestError, ParseError, echo
from .linkage import (
    EVAL_COLUMNS,
    LABELS_COLUMNS,
    JoinResult,
    extract_selfcitation_pairs,
    index_labels,
    join_labels,
    label_agreement,
    link_authority,
    link_grants,
    read_eval_dataset,
    read_labels,
    read_pairs,
    write_conflicts,
    write_eval_dataset,
    write_labels,
    write_pairs,
)
from .linkage import DUP_TITLE_POLICIES
from .metrics import (
    STRATA,
    b3_rows,
    b3_scores,
    pair_accuracy_detail,
    stratified_eval,
    write_metrics_json,
)
from .profile import (
    block_size_ccdf,
    classify_synonym_types,
    distribution,
    pair_year_distribution,
    perturb_tags,
    reference_sample,
    write_ccdf,
    write_distribution,
    write_typology,
)
from .synth import SynthConfig, generate, write_bundle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3
EXIT_FORMAT = 4
EXIT_EVALUATION = 5

MANIFEST_NAME = "run_manifest.json"


def _can_be_directory(path: Path) -> bool:
    """True when `path` is a directory or mkdir could make it one."""
    for existing in (path, *path.parents):
        if existing.exists():
            return existing.is_dir()
    return True


def _sha256(path: Path) -> str:
    # imported here, not at the top: hashlib loads OpenSSL's libcrypto, a few
    # MiB that every command would carry through its peak, and _run checksums
    # only once the command has returned and its tables are freed
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _flags(args: argparse.Namespace) -> dict:
    # the output directory is where the manifest itself lives; omitting it
    # keeps identical runs into different directories byte-identical
    skip = {"func", "subcommand", "out"}
    flags = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        flags[key] = str(value) if isinstance(value, Path) else value
    return flags


def _checksum(path: Path) -> dict:
    return {"sha256": _sha256(path), "bytes": path.stat().st_size}


def _write_json(path: Path, payload: dict, sort_keys: bool = False) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=sort_keys) + "\n", encoding="utf-8")


def _write_link_result(out: Path, result) -> None:
    write_labels(out / "labels.tsv", result.labels)
    write_conflicts(out / "conflicts.tsv", result.conflicts)


def _usage_error(message: str) -> int:
    print(f"linklab: usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _usage_exit(message: str) -> SystemExit:
    """A command's usage error: one line on stderr, and exit 2 once raised."""
    return SystemExit(_usage_error(message))


def _refuse(args: argparse.Namespace, mode: str, ignored: Sequence[str]) -> None:
    """Fail with a usage error on the first flag in `ignored` that was given."""
    for dest in ignored:
        if getattr(args, dest):
            raise _usage_exit(f"{mode} takes no --{dest}")


def _run(args: argparse.Namespace) -> int:
    """Run one subcommand in a staging directory and publish what it wrote.

    Every file flag given is an input: all must exist before any is read.
    Artifacts reach ``--out`` only when the command succeeds, the manifest
    last; the staging directory is removed whatever happens.
    """
    inputs = [v for k, v in vars(args).items() if k != "out" and isinstance(v, Path)]
    for path in inputs:
        if not path.is_file():
            raise FileNotFoundError(str(path))
    args.out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".linklab-", dir=args.out))
    try:
        summary = args.func(args, stage)
        outputs = sorted(stage.iterdir())
        for path in outputs:
            target = args.out / path.name
            if target.is_dir():
                return _usage_error(f"{target} is a directory")
            if target.exists() and any(target.samefile(source) for source in inputs):
                return _usage_error(f"{target} would replace an input")
        manifest = {
            "subcommand": args.subcommand,
            "flags": _flags(args),
            "seed": getattr(args, "seed", None),
            "versions": {"linklab": __version__, "python": platform.python_version()},
            "inputs": {str(path): _checksum(path) for path in inputs},
            "outputs": {path.name: _checksum(path) for path in outputs},
        }
        _write_json(stage / MANIFEST_NAME, manifest, sort_keys=True)
        for path in [*outputs, stage / MANIFEST_NAME]:
            os.replace(path, args.out / path.name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    print(summary)
    return EXIT_OK


def cmd_link_authority(args: argparse.Namespace, out: Path) -> str:
    result = link_authority(
        ingest_corpus(args.papers),
        ingest_authority(args.authority),
        dup_title_policy=args.dup_title_policy,
        nonalpha=args.nonalpha,
    )
    _write_link_result(out, result)
    return (
        "link-authority: labels={labels} conflicts={conflicts} papers={papers}"
        " profiles={profiles} candidates={candidates}"
    ).format(conflicts=len(result.conflicts), **result.stats)


def cmd_link_grants(args: argparse.Namespace, out: Path) -> str:
    result = link_grants(ingest_corpus(args.papers), ingest_grants(args.grants))
    _write_link_result(out, result)
    return (
        "link-grants: labels={labels} conflicts={conflicts} grants={grants}"
        " funded_in_corpus={funded_pmids_in_corpus}"
    ).format(conflicts=len(result.conflicts), **result.stats)


def cmd_pairs(args: argparse.Namespace, out: Path) -> str:
    corpus = ingest_corpus(args.papers)
    citations = ingest_citations(args.citations)
    pairs = extract_selfcitation_pairs(corpus, citations)
    write_pairs(out / "pairs.tsv", pairs)
    return "pairs: pairs=%d edges=%d" % (len(pairs), len(citations))


def cmd_baseline(args: argparse.Namespace, out: Path) -> str:
    cluster = cluster_fini if args.method == "fini" else cluster_aini
    clustering = cluster(ingest_corpus(args.papers))
    write_clustering(out / "clustering.tsv", clustering)
    return "baseline: method=%s clusters=%d instances=%d unparseable=%d" % (
        args.method,
        len(set(clustering.values())),
        len(clustering),
        unparseable_count(clustering),
    )


def _evaluate_pairs(args: argparse.Namespace, out: Path) -> str:
    detail = pair_accuracy_detail(read_pairs(args.pairs), ingest_clustering(args.pred))
    payload = {
        "pair_accuracy": detail.accuracy,
        "evaluated": detail.evaluated,
        "dropped": detail.dropped,
    }
    _write_json(out / "metrics.json", payload)
    return "evaluate: pair_accuracy=%.6f evaluated=%d dropped=%d" % detail


def _join_label_files(args: argparse.Namespace) -> JoinResult:
    """Read --truth, --pred, --papers and --annotations, in that order, and join them.

    Every row of every input is checked, but only labeled instances are
    kept, under the labels' own tuples, and of the papers only the year
    and byline length. A label conflict is raised by the join, once every
    input has been read.
    """
    index = index_labels(read_labels(args.truth))
    predicted = ingest_clustering(args.pred, keep=index.labels)
    papers = ingest_paper_years(args.papers)
    annotations = (
        None if args.annotations is None else ingest_annotations(args.annotations, keep=index.labels)
    )
    return join_labels(index, predicted, papers, annotations, strict=args.strict)


def _evaluate_labels(args: argparse.Namespace, out: Path) -> str:
    if args.papers is None:
        raise _usage_exit("evaluate with a labels file needs --papers for the join")
    joined = _join_label_files(args)
    rows = joined.rows
    if not rows:
        raise EvaluationError(
            "nothing to evaluate: no labeled instance joined a predicted cluster"
            f" (dropped_unclustered={joined.dropped_unclustered}"
            f" dropped_missing_paper={joined.dropped_missing_paper})"
        )
    write_eval_dataset(out / "eval_dataset.tsv", rows)
    strata = None if args.stratum is None else stratified_eval(rows, args.stratum)
    overall = strata.pop("ALL") if strata is not None else b3_rows(rows)
    write_metrics_json(out / "metrics.json", overall, strata)
    return (
        "evaluate: recall=%.6f precision=%.6f f1=%.6f n=%d"
        " dropped_unclustered=%d dropped_missing_paper=%d"
        % (
            overall.recall,
            overall.precision,
            overall.f1,
            overall.n,
            joined.dropped_unclustered,
            joined.dropped_missing_paper,
        )
    )


def _evaluate_clusterings(args: argparse.Namespace, out: Path) -> str:
    if args.stratum is not None:
        raise _usage_exit(
            "--stratum needs a labels file as --truth (attributes come from the join)"
        )
    _refuse(args, "evaluate with a clustering --truth", ("papers", "annotations"))
    scores = b3_scores(
        ingest_clustering(args.truth), ingest_clustering(args.pred), strict=args.strict
    )
    write_metrics_json(out / "metrics.json", scores)
    return "evaluate: recall=%.6f precision=%.6f f1=%.6f n=%d dropped=%d" % scores


def cmd_evaluate(args: argparse.Namespace, out: Path) -> str:
    if args.pairs is not None:
        _refuse(args, "evaluate --pairs", ("truth", "stratum", "papers", "annotations", "strict"))
        return _evaluate_pairs(args, out)
    if args.truth is None:
        raise _usage_exit("evaluate needs --truth or --pairs")
    header = read_header(args.truth)
    if header == LABELS_COLUMNS:
        return _evaluate_labels(args, out)
    if header == CLUSTERING_COLUMNS:
        return _evaluate_clusterings(args, out)
    raise IngestError(
        "truth file header matches neither a labels nor a clustering file",
        path=args.truth,
    )


def cmd_profile(args: argparse.Namespace, out: Path) -> str:
    if args.eval is None and args.papers is None:
        raise _usage_exit("profile needs --eval and/or --papers")
    for flag, name in ((args.truth, "--truth"), (args.pairs, "--pairs")):
        if flag is not None and args.papers is None:
            raise _usage_exit(f"profile {name} needs --papers")
    if args.sample is not None:
        if args.papers is None:
            raise _usage_exit("profile --sample needs --papers")
        if args.seed is None:
            raise _usage_exit("profile --sample needs --seed (no hidden entropy)")

    # Inputs are read in the order eval, papers, truth, pairs. Each artifact is
    # written once its inputs are read, and then every input but the corpus is
    # dropped. An evaluation error waits until every input is read, so a
    # format error in a later input still wins.
    held: list[Exception] = []

    @contextmanager
    def holding():
        try:
            yield
        except (EvaluationError, ValueError) as exc:
            held.append(exc)

    if args.eval is not None:
        dataset = read_eval_dataset(args.eval)
        with holding():
            for attribute in STRATA:
                write_distribution(
                    out / f"dist_{attribute}.tsv", {"percent": distribution(dataset, attribute)}
                )
        del dataset
    corpus = None if args.papers is None else ingest_corpus(args.papers)
    if corpus is not None:
        # one parse per distinct byline name, shared by the block sizes and the typology
        parsed = ParsedNames()
        with holding():
            ccdf = block_size_ccdf(fini_block_sizes(corpus, parsed))
            write_ccdf(out / "ccdf.tsv", {"fraction_at_least": ccdf})
        if args.truth is not None:
            truth = ingest_clustering(args.truth)
            with holding():
                write_typology(
                    out / "typology.tsv", classify_synonym_types(truth, name_lookup(corpus, parsed))
                )
            del truth
        del parsed
    if args.pairs is not None:
        pairs = read_pairs(args.pairs)
        with holding():
            write_distribution(
                out / "dist_pair_year.tsv", {"percent": pair_year_distribution(pairs, corpus)}
            )
        del pairs
    if held:
        raise held[0]
    if args.sample is not None:
        population = (instance for paper in corpus.values() for instance in paper.instances())
        sample = reference_sample(population, args.sample, args.seed)
        rows = ((format_instance_id(instance),) for instance in sorted(sample))
        write_rows(out / "sample.tsv", ("instance_id",), rows)
    return "profile: wrote %s" % ",".join(sorted(path.name for path in out.iterdir()))


def cmd_perturb(args: argparse.Namespace, out: Path) -> str:
    dataset = read_eval_dataset(args.eval)
    perturbed = perturb_tags(dataset, args.fraction, args.seed)
    changed = sum(
        1
        for before, after in zip(dataset, perturbed)
        if before.ethnicity != after.ethnicity
    )
    write_eval_dataset(out / "eval_dataset.tsv", perturbed)
    return "perturb: rows=%d changed=%d fraction=%g" % (
        len(perturbed),
        changed,
        args.fraction,
    )


def _agreement_labels(path: Path) -> dict[InstanceID, str]:
    """Load either a labels file or an eval dataset as instance -> label.

    An instance listed twice (a labels file may carry it from two
    sources) keeps the label of its last row.
    """
    header = read_header(path)
    if header == LABELS_COLUMNS:
        return {label.instance: label.label_id for label in read_labels(path)}
    if header == EVAL_COLUMNS:
        return {row.instance: row.truth_label for row in read_eval_dataset(path)}
    raise IngestError(
        "agreement input header matches neither a labels nor an eval dataset file",
        path=path,
    )


def cmd_agree(args: argparse.Namespace, out: Path) -> str:
    report = label_agreement(_agreement_labels(args.a), _agreement_labels(args.b))
    write_rows(
        out / "disagreements.tsv",
        ("instance_id", "label_a", "label_b"),
        (
            (format_instance_id(instance), label_a, label_b)
            for instance, label_a, label_b in report.disagreements
        ),
    )
    _write_json(
        out / "agreement.json",
        {
            "overlap": report.overlap_count,
            "agree": report.agree_count,
            "disagreements": len(report.disagreements),
        },
    )
    return "agree: overlap=%d agree=%d disagreements=%d" % (
        report.overlap_count,
        report.agree_count,
        len(report.disagreements),
    )


def _is_int(value) -> bool:
    return type(value) is int  # JSON true and false are bools, not integers


def _is_number(value) -> bool:
    return type(value) in (int, float)


# The JSON value each SynthConfig field type accepts, and its name in a message.
_CONFIG_TYPES = {
    int: ("an integer", _is_int),
    float: ("a number", _is_number),
    tuple[int, int]: (
        "a list of two integers",
        lambda value: type(value) is list and len(value) == 2 and all(map(_is_int, value)),
    ),
    Mapping[str, float]: (
        "an object of numbers",
        lambda value: type(value) is dict and all(map(_is_number, value.values())),
    ),
}


def _load_synth_config(path: Path | None, seed: int) -> SynthConfig:
    if path is None:
        return SynthConfig(seed=seed)
    try:
        # a leading byte order mark is not part of the JSON text
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # bad JSON or UTF-8, or an integer of too many digits
        raise IngestError(f"invalid JSON: {exc}", path=path)
    if not isinstance(raw, dict):
        raise IngestError("config must be a JSON object", path=path)
    if "seed" in raw:
        raise ConfigError("the seed comes from --seed, not the config file")
    field_types = get_type_hints(SynthConfig)
    unknown = sorted(set(raw) - set(field_types))
    if unknown:
        raise ConfigError(f"unknown config fields: {echo(', '.join(unknown))}")
    for key, value in raw.items():
        expected, accepts = _CONFIG_TYPES[field_types[key]]
        if not accepts(value):
            raise ConfigError(f"{key} must be {expected}, got {echo(json.dumps(value))}")
        if type(value) is list:
            raw[key] = tuple(value)
    return SynthConfig(seed=seed, **raw)


def cmd_synth(args: argparse.Namespace, out: Path) -> str:
    bundle = generate(_load_synth_config(args.config, args.seed))
    write_bundle(bundle, out)
    return "synth: authors=%d papers=%d instances=%d" % (
        bundle.manifest["authors"],
        bundle.manifest["papers"],
        bundle.manifest["instances"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linklab",
        description="Construct, evaluate, and profile author name disambiguation truth data.",
    )
    parser.add_argument("--version", action="version", version=f"linklab {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--out", type=Path, required=True, help="output directory")
        sub.set_defaults(func=func)
        return sub

    sub = add("link-authority", cmd_link_authority, "label instances from a registry of profiles")
    sub.add_argument("--papers", type=Path, required=True)
    sub.add_argument("--authority", type=Path, required=True)
    sub.add_argument(
        "--dup-title-policy",
        choices=DUP_TITLE_POLICIES,
        default="drop-all",
        help="how to treat papers whose normalized titles collide",
    )
    sub.add_argument(
        "--nonalpha",
        choices=("delete", "space"),
        default="delete",
        help="drop non-letters inside title words, or break words there",
    )

    sub = add("link-grants", cmd_link_grants, "label instances from funded grants")
    sub.add_argument("--papers", type=Path, required=True)
    sub.add_argument("--grants", type=Path, required=True)

    sub = add("pairs", cmd_pairs, "extract self-citation instance pairs")
    sub.add_argument("--papers", type=Path, required=True)
    sub.add_argument("--citations", type=Path, required=True)

    sub = add("baseline", cmd_baseline, "cluster instances by name key")
    sub.add_argument("--papers", type=Path, required=True)
    sub.add_argument("--method", choices=("fini", "aini"), required=True)

    sub = add("evaluate", cmd_evaluate, "score a predicted clustering")
    sub.add_argument("--truth", type=Path, help="labels file or clustering file")
    sub.add_argument("--pairs", type=Path, help="positive pairs file (pair accuracy mode)")
    sub.add_argument("--pred", type=Path, required=True, help="predicted clustering file")
    sub.add_argument("--papers", type=Path, help="corpus, required when --truth is a labels file")
    sub.add_argument("--annotations", type=Path, help="instance attribute tags")
    sub.add_argument("--stratum", choices=STRATA, help="report scores per attribute value")
    sub.add_argument("--strict", action="store_true", help="fail on incomplete inputs instead of dropping")

    sub = add("profile", cmd_profile, "emit distribution, block size, and typology plot data")
    sub.add_argument("--eval", type=Path, help="eval dataset for attribute distributions")
    sub.add_argument("--papers", type=Path, help="corpus for block sizes and name forms")
    sub.add_argument("--truth", type=Path, help="truth clustering for the variant typology")
    sub.add_argument("--pairs", type=Path, help="pairs file for the pair year distribution")
    sub.add_argument("--sample", type=int, help="write a uniform reference sample of this size")
    sub.add_argument("--seed", type=int, help="sampling seed, required with --sample")

    sub = add("perturb", cmd_perturb, "randomly reassign a fraction of ethnicity tags")
    sub.add_argument("--eval", type=Path, required=True)
    sub.add_argument("--fraction", type=float, required=True)
    sub.add_argument("--seed", type=int, required=True)

    sub = add("agree", cmd_agree, "compare two labelings on shared instances")
    sub.add_argument("--a", type=Path, required=True, help="labels or eval dataset file")
    sub.add_argument("--b", type=Path, required=True, help="labels or eval dataset file")

    sub = add("synth", cmd_synth, "generate a synthetic bundle with known truth")
    sub.add_argument("--seed", type=int, required=True)
    sub.add_argument("--config", type=Path, help="JSON file of generator settings")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if not _can_be_directory(args.out):
        return _usage_error(f"--out {args.out} is not a directory")
    collecting = gc.isenabled()
    # a run's tables hold no cycles, so the collector would only rewalk them as they grow
    gc.disable()
    try:
        return _run(args)
    except SystemExit as exc:
        # a usage error a command found, already reported by _usage_exit
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"linklab: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (IngestError, ParseError) as exc:
        print(f"linklab: format violation: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (EvaluationError, ConfigError, ValueError) as exc:
        print(f"linklab: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
