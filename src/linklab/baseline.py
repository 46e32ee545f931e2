"""Heuristic disambiguators used as performance floors, and the name-key index.

Both baselines group instances by a deterministic name key, which is
also the cluster id: the blocking key (surname + first initial) or the
refined key (surname + all initials). The refined grouping always
splits blocks, never merges across them, so it refines the blocking
partition.

`name_keys` is how a corpus's byline names become keys, for the
baselines, the block sizes and linkage alike: one dict from each
distinct raw byline string to its key, each string parsed once and
every instance under one key sharing one key string.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable

from .corpus import Clustering, Corpus, InstanceID, format_instance_id
from .normalize import PersonName, aini_key, fini_key, parse_or_none

UNPARSEABLE_PREFIX = "?unparseable:"


class ParsedNames(dict[str, "PersonName | None"]):
    """Raw byline string -> its parsed name, None when it does not parse.

    A string is parsed on its first lookup and kept for the life of the
    cache, so one cache passed to several passes parses each string once.
    """

    def __missing__(self, raw: str) -> PersonName | None:
        name = self[raw] = parse_or_none(raw)
        return name


def name_keys(
    corpus: Corpus,
    key: Callable[[PersonName], str | None],
    parsed: ParsedNames | None = None,
) -> dict[str, str | None]:
    """Every distinct raw byline name -> its key; None when it has none.

    A name has no key when it does not parse or when `key` returns None.
    Each distinct name is parsed once, through `parsed` when given, and
    equal keys are one string object.
    """
    parse = parse_or_none if parsed is None else parsed.__getitem__
    keys: dict[str, str | None] = {}
    shared: dict[str, str] = {}
    for paper in corpus.values():
        for raw in paper.authors:
            if raw not in keys:
                name = parse(raw)
                name_key = None if name is None else key(name)
                keys[raw] = None if name_key is None else shared.setdefault(name_key, name_key)
    return keys


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


def _cluster(corpus: Corpus, key: Callable[[PersonName], str]) -> Clustering:
    keys = name_keys(corpus, key)
    clustering = Clustering()
    for paper in corpus.values():
        for position, raw in enumerate(paper.authors, start=1):
            instance = (paper.pmid, position)
            clustering[instance] = keys[raw] or UNPARSEABLE_PREFIX + format_instance_id(instance)
    return clustering


def cluster_fini(corpus: Corpus) -> Clustering:
    """Group by blocking key; unparseable names become singletons."""
    return _cluster(corpus, fini_key)


def cluster_aini(corpus: Corpus) -> Clustering:
    """Group by refined key; unparseable names become singletons."""
    return _cluster(corpus, aini_key)


def fini_block_sizes(corpus: Corpus, parsed: ParsedNames) -> list[int]:
    """The size of every cluster_fini cluster, without building the clustering.

    Each unparseable name is a block of one. Names are parsed through
    `parsed`, so a later pass over the same cache parses none again.
    """
    keys = name_keys(corpus, fini_key, parsed)
    blocks = Counter(keys[raw] for paper in corpus.values() for raw in paper.authors)
    unparseable = blocks.pop(None, 0)
    return list(blocks.values()) + [1] * unparseable


def unparseable_count(clustering: Clustering) -> int:
    # every sentinel id names one instance, so ids and instances count alike
    return sum(
        1 for cluster_id in clustering.values() if cluster_id.startswith(UNPARSEABLE_PREFIX)
    )
