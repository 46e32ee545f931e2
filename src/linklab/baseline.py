"""Heuristic disambiguators used as performance floors.

Both baselines group instances by a deterministic name key, which is
also the cluster id: the blocking key (surname + first initial) or the
refined key (surname + all initials). The refined grouping always
splits blocks, never merges across them, so it refines the blocking
partition.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .corpus import Clustering, Corpus, InstanceID, format_instance_id
from .errors import ParseError
from .normalize import PersonName, aini_key, fini_key, parse_name

UNPARSEABLE_PREFIX = "?unparseable:"


def corpus_names(corpus: Corpus) -> Iterator[tuple[InstanceID, PersonName | None]]:
    """Parse every byline name; None marks an unparseable one.

    Each distinct raw string is parsed once per call, and every instance
    carrying it shares the result.
    """
    parsed: dict[str, PersonName | None] = {}
    for paper in corpus.values():
        for position, raw in enumerate(paper.authors, start=1):
            if raw in parsed:
                name = parsed[raw]
            else:
                try:
                    name = parse_name(raw)
                except ParseError:
                    name = None
                parsed[raw] = name
            yield (paper.pmid, position), name


def _sentinel_id(instance: InstanceID) -> str:
    return UNPARSEABLE_PREFIX + format_instance_id(instance)


def cluster_fini(
    instances: Iterable[tuple[InstanceID, PersonName | None]]
) -> Clustering:
    """Group by blocking key; unparseable names become singletons."""
    return Clustering.from_assignment({
        instance: _sentinel_id(instance) if name is None else fini_key(name)
        for instance, name in instances
    })


def cluster_aini(
    instances: Iterable[tuple[InstanceID, PersonName | None]]
) -> Clustering:
    """Group by refined key; unparseable names become singletons."""
    return Clustering.from_assignment({
        instance: _sentinel_id(instance) if name is None else aini_key(name)
        for instance, name in instances
    })


def unparseable_count(clustering: Clustering) -> int:
    # every sentinel id names one instance, so ids and instances count alike
    return sum(
        1 for cluster_id in clustering.values() if cluster_id.startswith(UNPARSEABLE_PREFIX)
    )
