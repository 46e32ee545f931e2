"""Heuristic disambiguators used as performance floors, and the name-key index.

Both baselines group instances by a deterministic name key, which is
also the cluster id: the blocking key (surname + first initial) or the
refined key (surname + all initials). The refined grouping always
splits blocks, never merges across them, so it refines the blocking
partition.

`name_keys` is how a command's names become keys, for the baselines,
linkage and the profile's name forms alike: one plain dict from each
distinct raw byline name to its key, each parsed once and every
instance under one key sharing one key string.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Mapping
from typing import TypeVar

from .corpus import Clustering, Corpus, InstanceID, format_instance_id
from .normalize import aini_key, fini_key, parse_or_none

UNPARSEABLE_PREFIX = "?unparseable:"

_T = TypeVar("_T")


def name_keys(
    corpus: Corpus, key: Callable[[str], str | None]
) -> dict[str, str | None]:
    """Every distinct raw byline name -> its key; None when it has none.

    `key` maps a name form (normalize.parse_name) to its key. A name has
    no key when it does not parse or when `key` returns None.
    Each name is parsed once and equal keys are one string object. Only
    byline names are in it; linkage stores its profile and PI names there.
    """
    keys: dict[str, str | None] = {}
    shared: dict[str, str] = {}
    for paper in corpus.values():
        for raw in paper.authors:
            if raw not in keys:
                form = parse_or_none(raw)
                name_key = None if form is None else key(form)
                keys[raw] = None if name_key is None else shared.setdefault(name_key, name_key)
    return keys


def name_lookup(
    corpus: Corpus, names: Mapping[str, _T | None]
) -> Callable[[InstanceID], _T | None]:
    """A function from an instance to what `names` holds for its byline name.

    `names` has every raw byline name of the corpus, as name_keys gives
    them. The function returns None when `names` holds None, when the
    instance's paper is not in the corpus, or when its position is past
    the end of the byline.
    """

    def name_of(instance: InstanceID) -> _T | None:
        pmid, position = instance
        paper = corpus.get(pmid)
        if paper is None or not 1 <= position <= len(paper.authors):
            return None
        return names[paper.authors[position - 1]]

    return name_of


def _cluster(corpus: Corpus, key: Callable[[str], str]) -> Clustering:
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


def fini_block_sizes(corpus: Corpus, forms: Mapping[str, str | None]) -> list[int]:
    """The size of every cluster_fini cluster, without building the clustering.

    `forms` is name_keys(corpus, str): each byline name's form, whose
    fini_key is the name's blocking key. Each unparseable name is a
    block of one.
    """
    per_form = Counter(forms[raw] for paper in corpus.values() for raw in paper.authors)
    unparseable = per_form.pop(None, 0)
    blocks: Counter[str] = Counter()
    for form, count in per_form.items():
        blocks[fini_key(form)] += count
    return list(blocks.values()) + [1] * unparseable


def unparseable_count(clustering: Clustering) -> int:
    # every sentinel id names one instance, so ids and instances count alike
    return sum(
        1 for cluster_id in clustering.values() if cluster_id.startswith(UNPARSEABLE_PREFIX)
    )
