"""Heuristic disambiguators used as performance floors.

Both baselines group instances by a deterministic name key, which is
also the cluster id: the blocking key (surname + first initial) or the
refined key (surname + all initials). The refined grouping always
splits blocks, never merges across them, so it refines the blocking
partition.

A command keeps one object per distinct raw byline string, not one per
instance: each string is parsed once (ParsedNames), its key derived once,
and every instance under one key shares one key string.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator

from .corpus import Clustering, Corpus, InstanceID, format_instance_id
from .errors import ParseError
from .normalize import PersonName, aini_key, fini_key, parse_name

UNPARSEABLE_PREFIX = "?unparseable:"


class ParsedNames(dict[str, "PersonName | None"]):
    """Raw byline string -> its parsed name, None when it does not parse.

    A string is parsed on its first lookup and kept for the life of the
    cache, so one cache passed to several passes parses each string once.
    """

    def __missing__(self, raw: str) -> PersonName | None:
        try:
            name = parse_name(raw)
        except ParseError:
            name = None
        self[raw] = name
        return name


def corpus_names(
    corpus: Corpus, parsed: ParsedNames | None = None
) -> Iterator[tuple[InstanceID, PersonName | None]]:
    """Parse every byline name; None marks an unparseable one.

    Each distinct raw string is parsed once per cache, a new one per call
    unless `parsed` is given, and every instance carrying it shares the
    result.
    """
    if parsed is None:
        parsed = ParsedNames()
    for paper in corpus.values():
        for position, raw in enumerate(paper.authors, start=1):
            yield (paper.pmid, position), parsed[raw]


def name_lookup(
    corpus: Corpus, parsed: ParsedNames
) -> Callable[[InstanceID], PersonName | None]:
    """A function from an instance to its parsed name, looked up in `parsed`.

    It returns None when the name does not parse, when the instance's
    paper is not in the corpus, or when its position is past the end of
    the byline.
    """

    def name_of(instance: InstanceID) -> PersonName | None:
        pmid, position = instance
        paper = corpus.get(pmid)
        if paper is None or not 1 <= position <= len(paper.authors):
            return None
        return parsed[paper.authors[position - 1]]

    return name_of


def _shared_keys(
    instances: Iterable[tuple[InstanceID, PersonName | None]],
    key: Callable[[PersonName], str | None],
) -> Iterator[tuple[InstanceID, str | None]]:
    """Each instance with its name's key; None for an unparseable name or a None key.

    Keys are memoised by raw string, which caches its hash where a
    PersonName re-hashes all five fields, and equal keys are one object.
    """
    by_raw: dict[str, str | None] = {}
    shared: dict[str, str] = {}
    for instance, name in instances:
        if name is None:
            yield instance, None
            continue
        try:
            name_key = by_raw[name.raw]
        except KeyError:
            name_key = key(name)
            if name_key is not None:
                name_key = shared.setdefault(name_key, name_key)
            by_raw[name.raw] = name_key
        yield instance, name_key


def _sentinel_id(instance: InstanceID) -> str:
    return UNPARSEABLE_PREFIX + format_instance_id(instance)


def _cluster(
    instances: Iterable[tuple[InstanceID, PersonName | None]],
    key: Callable[[PersonName], str],
) -> Clustering:
    return Clustering.from_assignment({
        instance: _sentinel_id(instance) if name_key is None else name_key
        for instance, name_key in _shared_keys(instances, key)
    })


def cluster_fini(
    instances: Iterable[tuple[InstanceID, PersonName | None]]
) -> Clustering:
    """Group by blocking key; unparseable names become singletons."""
    return _cluster(instances, fini_key)


def cluster_aini(
    instances: Iterable[tuple[InstanceID, PersonName | None]]
) -> Clustering:
    """Group by refined key; unparseable names become singletons."""
    return _cluster(instances, aini_key)


def fini_block_sizes(
    instances: Iterable[tuple[InstanceID, PersonName | None]]
) -> list[int]:
    """The size of every cluster_fini cluster, without building the clustering.

    Each unparseable name is a block of one.
    """
    blocks = Counter(name_key for _, name_key in _shared_keys(instances, fini_key))
    unparseable = blocks.pop(None, 0)
    return list(blocks.values()) + [1] * unparseable


def unparseable_count(clustering: Clustering) -> int:
    # every sentinel id names one instance, so ids and instances count alike
    return sum(
        1 for cluster_id in clustering.values() if cluster_id.startswith(UNPARSEABLE_PREFIX)
    )
