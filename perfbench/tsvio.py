"""The benchmark's own TSV reading and writing, independent of linklab's readers.

Instances are ``(pmid, position)`` tuples, which sort like linklab's
``InstanceID``. Paths ending in ``.gz`` are read as gzip files.
"""

from __future__ import annotations

import gzip
from pathlib import Path

Instance = tuple[int, int]


def read(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a TSV file; blank lines are skipped."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as handle:
        lines = handle.read().split("\n")
    header = lines[0].split("\t")
    return header, [line.split("\t") for line in lines[1:] if line]


def write(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\t".join(header) + "\n")
        for row in rows:
            handle.write("\t".join(row) + "\n")


def gzip_file(path: Path) -> None:
    """Replace ``path`` by ``path.gz``; the member has no name and no mtime,
    so equal content gives equal bytes."""
    target = path.with_name(path.name + ".gz")
    with open(path, "rb") as src, open(target, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as member:
            member.write(src.read())
    path.unlink()


def inst(text: str) -> Instance:
    pmid, _, position = text.partition("_")
    return int(pmid), int(position)


def fmt(instance: Instance) -> str:
    return f"{instance[0]}_{instance[1]}"


def clusters(path: Path) -> dict[str, set[Instance]]:
    """Cluster id to member instances of a ``cluster_id, instance_id`` file."""
    result: dict[str, set[Instance]] = {}
    for cluster_id, instance in read(path)[1]:
        result.setdefault(cluster_id, set()).add(inst(instance))
    return result


def assignment(path: Path) -> dict[Instance, str]:
    return {inst(instance): cluster_id for cluster_id, instance in read(path)[1]}
