"""Correctness gate: each command's artifacts against the benchmark's own recomputation.

``check_step`` returns a list of problems for one command of the first
repetition; an empty list means the command's outputs are correct. Later
repetitions are held to the first by sha256 (``digest_tree``), so every
repetition is checked without recomputing.

The recomputations are deliberately naive and share no code with
linklab: B-cubed by per-instance set intersection, pair accuracy by
direct lookup, label soundness against the planted truth.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from pathlib import Path

import tsvio
from workloads import WORKLOADS, Step

MANIFEST = "run_manifest.json"
LABEL_PREFIX = {"link-authority": "orc-", "link-grants": "nih-"}


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        path.relative_to(root).as_posix(): sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def naive_b3(truth: dict, pred: dict) -> tuple[float, float, float, int]:
    """B-cubed over truth instances that have a prediction, one instance at a time."""
    universe = [i for i in truth if i in pred]
    truth_sets: dict[str, set] = {}
    pred_sets: dict[str, set] = {}
    for i in universe:
        truth_sets.setdefault(truth[i], set()).add(i)
        pred_sets.setdefault(pred[i], set()).add(i)
    recall = precision = 0.0
    for i in universe:
        t, p = truth_sets[truth[i]], pred_sets[pred[i]]
        shared = len(t & p)
        recall += shared / len(t)
        precision += shared / len(p)
    n = len(universe)
    recall, precision = recall / n, precision / n
    f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
    return recall, precision, f1, n


class Gate:
    """Checks one run directory; tables read from disk are cached by path."""

    def __init__(self, run_dir: Path, truth: str):
        self.run_dir = run_dir
        self.truth = truth
        self._cache: dict[tuple[str, Path], object] = {}

    def _load(self, kind: str, rel: str):
        path = (self.run_dir / rel).resolve()
        key = (kind, path)
        if key not in self._cache:
            self._cache[key] = getattr(self, "_read_" + kind)(path)
        return self._cache[key]

    @staticmethod
    def _read_rows(path: Path):
        return tsvio.read(path)

    @staticmethod
    def _read_assignment(path: Path):
        return tsvio.assignment(path)

    @staticmethod
    def _read_papers(path: Path) -> dict[int, tuple[int, int]]:
        """pmid to (year, byline length)."""
        return {
            int(pmid): (int(year), len(authors.split("|")))
            for pmid, year, _, authors in tsvio.read(path)[1]
        }

    def check_step(self, step: Step) -> list[str]:
        out = self.run_dir / step.out
        problems = self._check_manifest(out)
        if problems:
            return problems
        opts = dict(zip(step.argv[1::2], step.argv[2::2]))
        checker = getattr(self, "_check_" + step.subcommand.replace("-", "_"))
        try:
            problems = checker(out, opts, step)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        return [f"{step.out}: {problem}" for problem in problems]

    def _check_manifest(self, out: Path) -> list[str]:
        manifest_path = out / MANIFEST
        if not manifest_path.is_file():
            return [f"{out.name}: no {MANIFEST}"]
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        problems = []
        for name, entry in manifest.get("outputs", {}).items():
            path = out / name
            if not path.is_file() or sha256(path) != entry.get("sha256"):
                problems.append(f"{out.name}: {name} missing or not as in the manifest")
        return problems

    def _check_baseline(self, out: Path, opts: dict, step: Step) -> list[str]:
        papers = self._load("papers", opts["--papers"])
        expected = {(pmid, k) for pmid, (_, size) in papers.items() for k in range(1, size + 1)}
        rows = self._load("rows", f"{step.out}/clustering.tsv")[1]
        got = [tsvio.inst(instance) for _, instance in rows]
        if len(got) != len(set(got)) or set(got) != expected:
            return ["clustering is not a partition of the corpus instances"]
        return []

    def _check_link_authority(self, out: Path, opts: dict, step: Step) -> list[str]:
        truth = self._load("assignment", self.truth)
        prefix = LABEL_PREFIX[step.subcommand]
        source = "authority" if step.subcommand == "link-authority" else "grant"
        problems = []
        for instance, label_id, label_source in self._load("rows", f"{step.out}/labels.tsv")[1]:
            author = truth.get(tsvio.inst(instance))
            if label_source != source or author is None or label_id != prefix + author:
                problems.append(f"unsound label {instance} -> {label_id} ({label_source})")
        return problems[:5]

    _check_link_grants = _check_link_authority

    def _check_pairs(self, out: Path, opts: dict, step: Step) -> list[str]:
        papers = self._load("papers", opts["--papers"])
        for a_s, b_s in self._load("rows", f"{step.out}/pairs.tsv")[1]:
            a, b = tsvio.inst(a_s), tsvio.inst(b_s)
            for pmid, position in (a, b):
                if pmid not in papers or not 1 <= position <= papers[pmid][1]:
                    return [f"pair member {pmid}_{position} is not in the corpus"]
            if a[0] == b[0] or a >= b:
                return [f"pair ({a_s}, {b_s}) is not canonical across two papers"]
        return []

    def _check_evaluate(self, out: Path, opts: dict, step: Step) -> list[str]:
        written = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        pred = self._load("assignment", opts["--pred"])
        if "--pairs" in opts:
            return self._check_pair_accuracy(written, opts, pred)
        header, rows = self._load("rows", opts["--truth"])
        if header == ["cluster_id", "instance_id"]:
            truth = self._load("assignment", opts["--truth"])
            expected = {"ALL": naive_b3(truth, pred)}
            dropped = sum(1 for i in truth if i not in pred)
            if written.get("dropped") != dropped:
                return [f"dropped {written.get('dropped')} != {dropped}"]
        else:
            expected = self._labels_scores(rows, opts, pred)
        problems = self._compare_scores("ALL", written, expected["ALL"])
        for stratum, scores in written.get("strata", {}).items():
            if stratum not in expected:
                problems.append(f"unexpected stratum {stratum!r}")
            else:
                problems += self._compare_scores(stratum, scores, expected[stratum])
        missing = set(expected) - {"ALL"} - set(written.get("strata", {}))
        if missing:
            problems.append(f"strata missing: {sorted(missing)}")
        return problems

    def _labels_scores(self, rows: list, opts: dict, pred: dict) -> dict[str, tuple]:
        papers = self._load("papers", opts["--papers"])
        tags = {}
        if "--annotations" in opts:
            tags = {
                tsvio.inst(i): (ethnicity, gender)
                for i, ethnicity, gender in self._load("rows", opts["--annotations"])[1]
            }
        stratum = opts.get("--stratum")
        truth, strata = {}, {}
        for instance_s, label_id, _ in rows:
            instance = tsvio.inst(instance_s)
            paper = papers.get(instance[0])
            if instance not in pred or paper is None or not 1 <= instance[1] <= paper[1]:
                continue
            truth[instance] = label_id
            if stratum == "year":
                strata[instance] = str(paper[0])
            elif stratum is not None:
                value = tags.get(instance, ("", ""))[0 if stratum == "ethnicity" else 1]
                strata[instance] = value or "UNKNOWN"
        expected = {"ALL": naive_b3(truth, pred)}
        for value in set(strata.values()):
            subset = {i: label for i, label in truth.items() if strata[i] == value}
            expected[value] = naive_b3(subset, {i: pred[i] for i in subset})
        return expected

    @staticmethod
    def _compare_scores(stratum: str, written: dict, expected: tuple) -> list[str]:
        recall, precision, f1, n = expected
        if written.get("n") != n:
            return [f"{stratum}: n {written.get('n')} != {n}"]
        return [
            f"{stratum}: {key} {written.get(key)} != {value}"
            for key, value in (("recall", recall), ("precision", precision), ("f1", f1))
            if not isinstance(written.get(key), float) or not close(written[key], value)
        ]

    def _check_pair_accuracy(self, written: dict, opts: dict, pred: dict) -> list[str]:
        evaluated = agreed = dropped = 0
        for a_s, b_s in self._load("rows", opts["--pairs"])[1]:
            a, b = pred.get(tsvio.inst(a_s)), pred.get(tsvio.inst(b_s))
            if a is None or b is None:
                dropped += 1
            else:
                evaluated += 1
                agreed += a == b
        accuracy = agreed / evaluated
        if (written.get("evaluated"), written.get("dropped")) != (evaluated, dropped):
            return [f"evaluated/dropped {written.get('evaluated')}/{written.get('dropped')}"
                    f" != {evaluated}/{dropped}"]
        if not close(written.get("pair_accuracy", -1.0), accuracy):
            return [f"pair_accuracy {written.get('pair_accuracy')} != {accuracy}"]
        return []

    def _check_profile(self, out: Path, opts: dict, step: Step) -> list[str]:
        problems = []
        for path in sorted(out.glob("dist_*.tsv")):
            total = sum(float(row[1]) for row in tsvio.read(path)[1])
            if abs(total - 100.0) > 1e-3:
                problems.append(f"{path.name} sums to {total}")
        if (out / "ccdf.tsv").exists():
            first = tsvio.read(out / "ccdf.tsv")[1][0]
            if first[0] != "1" or float(first[1]) != 1.0:
                problems.append("ccdf.tsv does not start at (1, 1.0)")
        return problems

    def _check_perturb(self, out: Path, opts: dict, step: Step) -> list[str]:
        before = self._load("rows", opts["--eval"])[1]
        after = tsvio.read(out / "eval_dataset.tsv")[1]
        if len(before) != len(after):
            return [f"{len(after)} rows, expected {len(before)}"]
        changed = 0
        for old, new in zip(before, after):
            if old[:4] != new[:4] or old[5] != new[5]:
                return [f"row {old[0]} changed outside ethnicity"]
            changed += old[4] != new[4]
        groups = Counter(row[4] for row in before if row[4])
        fraction = float(opts["--fraction"])
        expected = sum(math.floor(fraction * size) for size in groups.values())
        return [] if changed == expected else [f"{changed} tags changed, expected {expected}"]

    def _check_agree(self, out: Path, opts: dict, step: Step) -> list[str]:
        shared = set.intersection(*(
            {row[0] for row in self._load("rows", opts[flag])[1]} for flag in ("--a", "--b")
        ))
        report = json.loads((out / "agreement.json").read_text(encoding="utf-8"))
        disagreements = tsvio.read(out / "disagreements.tsv")[1]
        if report.get("overlap") != len(shared):
            return [f"overlap {report.get('overlap')} != {len(shared)}"]
        if report.get("agree", -1) + report.get("disagreements", -1) != len(shared):
            return ["agree + disagreements != overlap"]
        if len(disagreements) != report["disagreements"] or any(
            row[0] not in shared for row in disagreements
        ):
            return ["disagreements.tsv does not match agreement.json"]
        return []


if __name__ == "__main__":
    # Run as its own process by run.py, so the tables it loads never count
    # towards the peak RSS of the commands the benchmark starts.
    run_dir, name, seed = sys.argv[1:]
    workload = WORKLOADS[name]
    gate = Gate(Path(run_dir), f"../bundle/truth_clustering.tsv{workload.ext()}")
    steps = workload.steps(int(seed), workload.ext())
    print(json.dumps({step.out: gate.check_step(step) for step in steps}))
