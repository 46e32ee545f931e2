"""Name-key baselines and blocking."""

import random

from linklab.baseline import (
    cluster_aini,
    cluster_fini,
    corpus_names,
    unparseable_count,
)
from linklab.corpus import PaperRecord
from linklab.linkage import _key_index
from linklab.normalize import aini_key, fini_key, parse_name


def named(*raws):
    return [
        ((i, 1), parse_name(raw)) for i, raw in enumerate(raws, start=1)
    ]


def test_fini_groups_on_surname_and_first_initial():
    clustering = cluster_fini(named("Wang, Wei", "Wang, W"))
    assert set(clustering.groups()) == {"wang|w"}


def test_fini_splits_different_first_initials():
    clustering = cluster_fini(named("Ng, Patricia M. L.", "Ng, Miang Lon Patricia"))
    assert set(clustering.groups()) == {"ng|p", "ng|m"}


def test_aini_splits_on_extra_initial():
    clustering = cluster_aini(named("Brown, C", "Brown, C. C."))
    assert set(clustering.groups()) == {"brown|c", "brown|cc"}


def test_aini_matches_equal_initials():
    clustering = cluster_aini(named("Brown, C. C.", "Brown, Charles Conrad"))
    assert len(clustering.groups()) == 1


def test_unparseable_names_become_singletons():
    instances = [
        ((1, 1), parse_name("Wang, Wei")),
        ((2, 1), None),
        ((3, 1), None),
    ]
    for make in (cluster_fini, cluster_aini):
        clustering = make(instances)
        assert len(clustering.groups()) == 3
        assert unparseable_count(clustering) == 2
        assert clustering[(2, 1)] != clustering[(3, 1)]


def test_corpus_names_parses_bylines():
    corpus = {
        1: PaperRecord(1, 1999, "T", ("Wang, Wei", "...")),
        2: PaperRecord(2, 2000, "U", ("Hertzog, P J",)),
    }
    parsed = dict(corpus_names(corpus))
    assert parsed[(1, 1)].surname == "wang"
    assert parsed[(1, 2)] is None
    assert parsed[(2, 1)].all_initials == "pj"


def test_grouping_matches_brute_force():
    rng = random.Random(11)
    surnames = ["garcia", "smith", "li"]
    forenames = ["A", "A B", "B", "Ann", "Ann B"]
    instances = [
        (
            (i, 1),
            parse_name(f"{rng.choice(surnames)}, {rng.choice(forenames)}"),
        )
        for i in range(1, 200)
    ]
    for make, key in ((cluster_fini, fini_key), (cluster_aini, aini_key)):
        expected = {}
        for instance, name in instances:
            expected.setdefault(key(name), set()).add(instance)
        got = {frozenset(m) for m in make(instances).groups().values()}
        assert got == {frozenset(m) for m in expected.values()}


def test_aini_refines_fini_partition():
    rng = random.Random(13)
    surnames = ["kim", "lee"]
    forenames = ["J", "J H", "Jin", "Jin Ho", "H"]
    instances = [
        (
            (i, 1),
            parse_name(f"{rng.choice(surnames)}, {rng.choice(forenames)}"),
        )
        for i in range(1, 300)
    ]
    fini = cluster_fini(instances)
    aini = cluster_aini(instances)
    for members in aini.groups().values():
        assert len({fini[m] for m in members}) == 1


def _one_object_per_value(keys):
    """True when equal keys are all one str object."""
    first = {}
    return all(first.setdefault(key, key) is key for key in keys)


def test_instances_under_one_key_share_one_string():
    # "Wang, Wei", "Wang, W" and "W Wang" are three raw strings with one
    # blocking key; "Li, A B" and "Li, A. B." two with one refined key
    corpus = {
        1: PaperRecord(1, 1999, "T", ("Wang, Wei", "Wang, W", "Li, A B", "Einstein", "123")),
        2: PaperRecord(2, 2000, "U", ("Wang, Wei", "W Wang", "Li, A. B.", "Einstein")),
        3: PaperRecord(3, 2001, "V", ("Li, A B", "Wang, W")),
    }
    for make in (cluster_fini, cluster_aini):
        clustering = make(corpus_names(corpus))
        assert len(set(clustering.values())) < len(clustering)
        assert _one_object_per_value(clustering.values())
    index = _key_index(corpus)
    assert index["Einstein"] is None and index["123"] is None
    keys = [key for key in index.values() if key is not None]
    assert len(set(keys)) < len(keys)
    assert _one_object_per_value(keys)
