"""linklab's benchmark: one workload, run through the ``linklab`` CLI as users run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout root is the parent of this directory and
the program is ``src/linklab``. A run

1. writes the workload's generator settings and sets its inputs up five
   times (``linklab synth`` plus what the benchmark derives), reporting the
   median as ``setup_s`` and requiring identical bytes each time;
2. runs the workload's command sequence, each command its own process,
   one at a time, again and again until S seconds of sequences are timed;
3. checks every command (exit code, manifest, outputs against the gate in
   ``gate.py``, and identical sha256 across repetitions);
4. prints the metrics with their units, the environment, and, as the last
   line, one JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.

With ``--trace 1`` each repetition is a pair: the sequence untraced, then
again with every command under ``traced.py``, and the per-layer metrics
are printed instead. The span tree, self times and everything recorded
are written to ``perfbench/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import spans
from gate import digest_tree, sha256
from workloads import WORKLOADS, Step, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# A set-up is one short process, so a burst of load from elsewhere moves a
# single one by up to a third; the median of five holds still.
SETUP_REPS = 5
# A run starts no repetition after RUN_DEADLINE_S and kills any command
# still running at KILL_DEADLINE_S, so it ends within three minutes even
# when the program hangs.
RUN_DEADLINE_S = 120
KILL_DEADLINE_S = 160

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
}
SUBCOMMANDS = (
    "synth", "baseline", "link-authority", "link-grants", "pairs",
    "evaluate", "profile", "perturb", "agree",
)
# Per-layer metric name to unit; times are seconds inside the named
# functions, outermost calls only. See README.md for what each measures.
PER_LAYER = {
    "synth.generate_s": "s",
    "synth.write_bundle_s": "s",
    "tsv.read_rows_s": "s",
    "tsv.rows_read": "count",
    "tsv.write_s": "s",
    "tsv.rows_written": "count",
    "corpus.ingest_corpus_s": "s",
    "corpus.ingest_clustering_s": "s",
    "corpus.ingest_aux_s": "s",
    "normalize.parse_name_s": "s",
    "normalize.normalize_title_s": "s",
    "normalize.parse_name_calls": "count",
    "normalize.normalize_title_calls": "count",
    "normalize.distinct_names": "count",
    "baseline.corpus_names_s": "s",
    "baseline.cluster_fini_s": "s",
    "baseline.cluster_aini_s": "s",
    "baseline.build_blocks_s": "s",
    "linkage.link_authority_s": "s",
    "linkage.authority_candidates": "count",
    "linkage.authority_label_yield": "ratio",
    "linkage.link_grants_s": "s",
    "linkage.grant_label_yield": "ratio",
    "linkage.conflicts": "count",
    "linkage.selfcite_pairs_s": "s",
    "linkage.pair_comparisons": "count",
    "linkage.pair_yield": "ratio",
    "linkage.join_labels_s": "s",
    "linkage.label_agreement_s": "s",
    "linkage.read_s": "s",
    "metrics.clustering_build_s": "s",
    "metrics.b3_scores_s": "s",
    "metrics.stratified_eval_s": "s",
    "metrics.pair_accuracy_s": "s",
    "profile.block_size_ccdf_s": "s",
    "profile.classify_synonym_types_s": "s",
    "profile.distribution_s": "s",
    "profile.perturb_tags_s": "s",
    **{f"cli.{sub}_s": "s" for sub in SUBCOMMANDS},
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}
# Spans whose summed time makes each per-layer time metric.
FUNCTIONS = {
    "synth.generate_s": ("synth.generate",),
    "synth.write_bundle_s": ("synth.write_bundle",),
    "corpus.ingest_corpus_s": ("corpus.ingest_corpus",),
    "corpus.ingest_clustering_s": ("corpus.ingest_clustering",),
    "corpus.ingest_aux_s": (
        "corpus.ingest_authority", "corpus.ingest_grants",
        "corpus.ingest_citations", "corpus.ingest_annotations",
    ),
    "baseline.corpus_names_s": ("baseline.corpus_names",),
    "baseline.cluster_fini_s": ("baseline.cluster_fini",),
    "baseline.cluster_aini_s": ("baseline.cluster_aini",),
    "baseline.build_blocks_s": ("baseline.build_blocks",),
    "linkage.link_authority_s": ("linkage.link_authority",),
    "linkage.link_grants_s": ("linkage.link_grants",),
    "linkage.selfcite_pairs_s": ("linkage.extract_selfcitation_pairs",),
    "linkage.join_labels_s": ("linkage.join_labels",),
    "linkage.label_agreement_s": ("linkage.label_agreement",),
    "linkage.read_s": ("linkage.read_labels", "linkage.read_pairs", "linkage.read_eval_dataset"),
    "metrics.b3_scores_s": ("metrics.b3_scores",),
    "metrics.stratified_eval_s": ("metrics.stratified_eval",),
    "metrics.pair_accuracy_s": ("metrics.pair_accuracy_detail", "metrics.pair_accuracy"),
    "profile.block_size_ccdf_s": ("profile.block_size_ccdf",),
    "profile.classify_synonym_types_s": ("profile.classify_synonym_types",),
    "profile.distribution_s": ("profile.distribution", "profile.pair_year_distribution"),
    "profile.perturb_tags_s": ("profile.perturb_tags",),
}
LAYER_PREFIXES = ("synth.", "tsv.", "corpus.", "baseline.", "linkage.", "metrics.", "profile.")


class Proc(NamedTuple):
    """One finished child process, as its parent saw it."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    start_ns: int
    end_ns: int


class Rep(NamedTuple):
    """One pass over the workload's command sequence."""

    wall_s: float
    procs: list[Proc]
    digests: dict[str, dict[str, str]]
    tree: list[list] | None
    counts: dict[str, int]


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # String hashing decides dict and set layouts, which move a command's
    # CPU time by up to a third between processes. Repetition r of every
    # run uses hash seed r, so runs sample the same layouts; outputs do
    # not depend on it.
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def run_child(cmd: list[str], cwd: Path, log: Path, hash_seed: int, kill_at: float) -> Proc:
    """Run one process to its end; wall, CPU and peak RSS come from its rusage.

    The process is killed if it is still running at monotonic time ``kill_at``.
    On Linux a child's peak RSS is at least its parent's peak at the fork,
    so the harness leaves every large table to a helper process and stays
    smaller than any linklab command (``harness_peak_rss_mib`` in the
    details file).
    """
    start_ns = time.monotonic_ns()
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            cmd, cwd=cwd, env=child_env(hash_seed), stdout=out, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(0.0, kill_at - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    end_ns = time.monotonic_ns()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(
        code,
        (end_ns - start_ns) / 1e9,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        start_ns,
        end_ns,
    )


def median(values) -> float:
    return statistics.median(list(values))


class Bench:
    """One workload at one seed, set up and run inside a private work directory."""

    def __init__(self, workload: Workload, seed: int, scale: float, work: Path):
        now = time.monotonic()
        self.start_by = now + RUN_DEADLINE_S
        self.kill_at = now + KILL_DEADLINE_S
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.work = work
        self.ext = workload.ext()
        self.steps: list[Step] = workload.steps(seed, self.ext)
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, dict[str, str]] | None = None
        self.bundle_digest: dict[str, str] = {}
        self.probes: list[float] = []
        self._runs = 0
        (work / "logs").mkdir(parents=True)
        (work / "spans").mkdir()
        (work / "synth_config.json").write_text(
            json.dumps(workload.synth_config(scale), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def linklab(self, argv, cwd: Path, traced: bool, tag: str, hash_seed: int) -> tuple[Proc, dict | None]:
        log = self.work / "logs" / f"{tag}.log"
        if not traced:
            cmd = [sys.executable, "-m", "linklab.cli", *argv]
            return run_child(cmd, cwd, log, hash_seed, self.kill_at), None
        spans_out = self.work / "spans" / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "traced.py"), str(spans_out), "--", *argv]
        proc = run_child(cmd, cwd, log, hash_seed, self.kill_at)
        data = json.loads(spans_out.read_text(encoding="utf-8")) if spans_out.exists() else None
        return proc, data

    def helper(self, cmd: list[str], cwd: Path, tag: str) -> Proc:
        """Run one of the benchmark's own processes (set-up, gate, kernels)."""
        return run_child(cmd, cwd, self.work / "logs" / f"{tag}.log", 1, self.kill_at)

    def _failed(self, what: str, proc: Proc, log_tag: str) -> str:
        log = (self.work / "logs" / f"{log_tag}.log").read_text(encoding="utf-8", errors="replace")
        tail = " | ".join(log.strip().splitlines()[-3:])
        return f"{what}: exit {proc.code}: {tail}"

    def setup(self, index: int, traced: bool = False) -> tuple[Proc, float, dict | None]:
        """Make the workload's inputs in ``setup<index>/bundle``; return its timing."""
        home = self.work / f"setup{index}"
        home.mkdir()
        argv = ["synth", "--seed", str(self.seed), "--config", "../synth_config.json", "--out", "bundle"]
        tag = f"setup{index}"
        start = time.perf_counter()
        synth, data = self.linklab(argv, home, traced, tag, hash_seed=index + 1)
        failure = self._failed(tag, synth, tag) if synth.code else None
        if failure is None and (self.workload.derive or self.workload.gzip_inputs):
            cmd = [sys.executable, str(BENCH / "workloads.py"), self.workload.name, str(self.seed), "bundle"]
            prepare = self.helper(cmd, home, f"{tag}-prepare")
            failure = self._failed(tag, prepare, f"{tag}-prepare") if prepare.code else None
        wall = time.perf_counter() - start
        if failure is not None:
            self.op(False, failure)
        else:
            digest = digest_tree(home / "bundle")
            if not self.bundle_digest:
                self.bundle_digest = digest
            self.op(digest == self.bundle_digest, f"{tag}: inputs differ from setup0")
        return synth, wall, data

    def adopt_bundle(self) -> dict:
        """Keep setup0's inputs as ``bundle``, drop the other copies, return sizes."""
        (self.work / "setup0" / "bundle").rename(self.work / "bundle")
        for home in sorted(self.work.glob("setup*")):
            shutil.rmtree(home)
        manifest = json.loads((self.work / "bundle" / "manifest.json").read_text(encoding="utf-8"))
        return {key: manifest[key] for key in ("authors", "papers", "instances", "citation_edges")}

    def sequence(self, traced: bool, hash_seed: int) -> Rep:
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        run.mkdir()
        number = self._runs
        self._runs += 1
        procs, data = [], []
        start = time.perf_counter()
        for step in self.steps:
            tag = f"rep{number}-{step.out}"
            proc, spans_data = self.linklab(step.argv, run, traced, tag, hash_seed)
            procs.append(proc)
            data.append(spans_data)
        wall = time.perf_counter() - start
        self.probes.append(host_probe_s())
        digests = {step.out: digest_tree(run / step.out) for step in self.steps}
        tree, counts = (self._tree(procs, data) if traced else (None, {}))
        rep = Rep(wall, procs, digests, tree, counts)
        self._check(rep, number, run)
        return rep

    def _tree(self, procs: list[Proc], data: list[dict | None]) -> tuple[list[list], dict]:
        tree = [["pass", procs[0].start_ns, procs[-1].end_ns, -1]]
        counts: dict[str, int] = {}
        for step, proc, spans_data in zip(self.steps, procs, data):
            tree.append([f"step.{step.out}", proc.start_ns, proc.end_ns, 0])
            if spans_data is not None:
                spans.graft(tree, spans_data["spans"], len(tree) - 1)
                for key, value in spans_data["counts"].items():
                    counts[key] = counts.get(key, 0) + value
        return tree, counts

    def _check(self, rep: Rep, number: int, run: Path) -> None:
        """Gate the first repetition; hold every later one to its sha256."""
        first = self.reference is None
        if first:
            self.reference = rep.digests
            tag = f"rep{number}-gate"
            cmd = [sys.executable, str(BENCH / "gate.py"), str(run), self.workload.name, str(self.seed)]
            gate = self.helper(cmd, self.work, tag)
            log = (self.work / "logs" / f"{tag}.log").read_text(encoding="utf-8")
            found = json.loads(log.splitlines()[-1]) if gate.code == 0 else {}
        for step, proc in zip(self.steps, rep.procs):
            what = f"rep{number} {step.out}"
            if proc.code != 0:
                self.op(False, self._failed(what, proc, f"rep{number}-{step.out}"))
            elif first:
                problems = found.get(step.out, [self._failed("gate", gate, tag)])
                self.op(not problems, f"{what}: " + "; ".join(problems))
            else:
                same = rep.digests[step.out] == self.reference[step.out]
                self.op(same, f"{what}: artifacts differ from rep0")

    def kernels(self) -> dict:
        bundle = self.work / "bundle"
        spec = {
            "tables": [str(path) for path in sorted(bundle.glob(f"*.tsv{self.ext}"))],
            "papers": str(bundle / f"papers.tsv{self.ext}"),
            "citations": str(bundle / f"citations.tsv{self.ext}")
            if any(step.subcommand == "pairs" for step in self.steps)
            else None,
        }
        spec_path = self.work / "kernels_spec.json"
        result_path = self.work / "kernels.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(BENCH / "traced.py"), "--kernels", str(spec_path), str(result_path)]
        proc = self.helper(cmd, self.work, "kernels")
        self.op(proc.code == 0, self._failed("kernels", proc, "kernels") if proc.code else "")
        return json.loads(result_path.read_text(encoding="utf-8")) if proc.code == 0 else {}


def layer_metrics(bench: Bench, untraced: Rep, traced: Rep, synth_tree: list, synth_proc: Proc, kernels: dict) -> dict:
    tree, counts = traced.tree, traced.counts
    metrics = {}
    for name, functions in FUNCTIONS.items():
        source = synth_tree if name.startswith("synth.") else tree
        metrics[name] = spans.outermost_s(source, functions.__contains__)
    metrics["tsv.write_s"] = spans.outermost_s(
        tree, lambda n: n.startswith(LAYER_PREFIXES) and n.split(".")[-1].startswith("write_")
    )
    metrics["metrics.clustering_build_s"] = spans.outermost_s(
        tree, lambda n: n.startswith("corpus.Clustering.")
    )
    metrics["tsv.rows_written"] = counts.get("tsv.rows_written", 0)
    metrics["normalize.parse_name_calls"] = counts.get("normalize.parse_name_calls", 0)
    metrics["normalize.normalize_title_calls"] = counts.get("normalize.normalize_title_calls", 0)
    for key in ("tsv.read_rows_s", "tsv.rows_read", "normalize.parse_name_s",
                "normalize.normalize_title_s", "normalize.distinct_names", "linkage.pair_comparisons"):
        metrics[key] = kernels.get(key, 0)

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics["linkage.authority_candidates"] = counts.get("linkage.authority_candidates", 0)
    metrics["linkage.authority_label_yield"] = share(
        counts.get("linkage.authority_labels", 0), counts.get("linkage.authority_candidates", 0)
    )
    metrics["linkage.grant_label_yield"] = share(
        counts.get("linkage.grant_labels", 0), counts.get("linkage.grant_candidates", 0)
    )
    metrics["linkage.conflicts"] = counts.get("linkage.conflicts", 0)
    metrics["linkage.pair_yield"] = share(
        counts.get("linkage.pairs", 0), metrics["linkage.pair_comparisons"]
    )
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = sum(
            proc.wall_s for step, proc in zip(bench.steps, untraced.procs) if step.subcommand == sub
        )
    metrics["cli.synth_s"] = synth_proc.wall_s
    own = spans.self_times(tree)
    metrics["cli.overhead_s"] = sum(
        ns for span, ns in zip(tree, own) if span[0].startswith("step.") or span[0] == "cli.main"
    ) / 1e9
    metrics["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return metrics


def traced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    synth_proc, _, _ = bench.setup(0)
    _, _, synth_data = bench.setup(1, traced=True)
    synth_tree = synth_data["spans"] if synth_data else []
    sizes = bench.adopt_bundle()
    pairs: list[tuple[Rep, Rep]] = []
    timed = 0.0
    while not pairs or (timed < seconds and time.monotonic() < bench.start_by):
        untraced = bench.sequence(traced=False, hash_seed=len(pairs) + 1)
        traced = bench.sequence(traced=True, hash_seed=len(pairs) + 1)
        pairs.append((untraced, traced))
        timed += untraced.wall_s + traced.wall_s
    kernels = bench.kernels()
    per_pair = [layer_metrics(bench, u, t, synth_tree, synth_proc, kernels) for u, t in pairs]
    metrics = {
        name: (statistics.median_low if unit == "count" else statistics.median)(
            [m[name] for m in per_pair]
        )
        for name, unit in PER_LAYER.items()
    }
    first = pairs[0][1].tree
    record = {
        "sizes": sizes,
        "pairs": len(pairs),
        "span_tree": {"synth": synth_tree, "sequence": first},
        "self_times": {"synth": spans.summary(synth_tree), "sequence": spans.summary(first)},
        "counts": pairs[0][1].counts,
        "kernels": kernels,
    }
    return metrics, record


def untraced_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups = [bench.setup(index)[1] for index in range(SETUP_REPS)]
    sizes = bench.adopt_bundle()
    reps: list[Rep] = []
    timed = 0.0
    while not reps or (timed < seconds and time.monotonic() < bench.start_by):
        reps.append(bench.sequence(traced=False, hash_seed=len(reps) + 1))
        timed += reps[-1].wall_s
    # Each command's median over the repetitions, summed over the sequence:
    # a burst of load from elsewhere on the machine then moves one command's
    # sample, not the whole figure.
    by_command = list(zip(*(rep.procs for rep in reps)))
    wall = sum(median(p.wall_s for p in runs) for runs in by_command)
    metrics = {
        "setup_s": median(setups),
        "wall_s": wall,
        "instances_per_s": sizes["instances"] / wall,
        "cpu_s": sum(median(p.cpu_s for p in runs) for runs in by_command),
        "peak_rss_mib": median(max(p.rss_mib for p in rep.procs) for rep in reps),
    }
    record = {
        "sizes": sizes,
        "setup_s": setups,
        "repetitions": [
            {"wall_s": rep.wall_s, "commands": [proc._asdict() for proc in rep.procs]}
            for rep in reps
        ],
    }
    return metrics, record


def result_name(workload: str, seed: int, trace: int, scale: float) -> str:
    """The details file's name; runs at another scale never overwrite full-size ones."""
    suffix = "" if scale == 1 else f"-scale{scale:g}"
    return f"{workload}-seed{seed}-trace{trace}{suffix}.json"


def host_probe_s() -> float:
    """Median time of a fixed pure-Python loop.

    A run takes it before the set-ups, after every repetition and at the
    end, and records the samples and their median in the details file.
    The commands are CPU-bound Python, so this follows the host's speed;
    comparing it between two runs tells the host drifting from the
    program changing.
    """

    def once() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i % 7
        return time.perf_counter() - start

    return median(once() for _ in range(5))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def environment(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(SRC))
    try:
        from linklab.cli import thread_cap

        threads = thread_cap()
    except Exception as exc:  # recorded only: every command reports a bad setting itself
        threads = f"unavailable: {exc!r}"
    sources = sorted(path for path in SRC.rglob("*.py") if "__pycache__" not in path.parts)
    listing = "".join(f"{sha256(path)}  {path.relative_to(ROOT).as_posix()}\n" for path in sources)
    source_digest = hashlib.sha256(listing.encode("utf-8")).hexdigest()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "linklab_threads_env": os.environ.get("LINKLAB_THREADS"),
        "linklab_threads_effective": threads,
        "commit": git_commit(),
        "source_sha256": source_digest,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed sequence seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="author count factor, for self-tests")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so the running command is
    # killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "linklab" / "cli.py").is_file():
        print(f"perfbench: no linklab sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    probe_before = host_probe_s()
    try:
        bench = Bench(workload, args.seed, args.scale, work)
        run = traced_run if args.trace else untraced_run
        metrics, record = run(bench, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass

    probes = [probe_before, *bench.probes, host_probe_s()]
    units = PER_LAYER if args.trace else END_TO_END
    failed = len(bench.failures)
    harness_peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment(args)
    record.update(
        harness_peak_rss_mib=harness_peak_rss_mib,
        environment=env,
        metrics=metrics,
        attempted=bench.attempted,
        failures=bench.failures,
        artifacts={"bundle": bench.bundle_digest, "run": bench.reference},
        host_probe_s={"median": median(probes), "samples": probes},
    )
    RESULTS.mkdir(exist_ok=True)
    result_path = RESULTS / result_name(args.workload, args.seed, args.trace, args.scale)
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for failure in bench.failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} sizes={record['sizes']}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ops_share':34s} {failed / bench.attempted:14.6g} share"
              f" ({failed} of {bench.attempted} operations)")
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"details: {result_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
