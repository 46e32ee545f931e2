"""Name-key baselines, blocking and the raw-name key index."""

import random
from collections import Counter

from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from linklab.baseline import (
    ParsedNames,
    cluster_aini,
    cluster_fini,
    fini_block_sizes,
    name_keys,
    unparseable_count,
)
from linklab.corpus import PaperRecord, groups
from linklab.normalize import aini_key, fini_key, match_key, parse_name


def named(*raws):
    """A corpus of one-author papers, pmid i carrying the i-th raw name."""
    return {i: PaperRecord(i, 2000, "T", (raw,)) for i, raw in enumerate(raws, start=1)}


def test_fini_groups_on_surname_and_first_initial():
    clustering = cluster_fini(named("Wang, Wei", "Wang, W"))
    assert set(groups(clustering)) == {"wang|w"}


def test_fini_splits_different_first_initials():
    clustering = cluster_fini(named("Ng, Patricia M. L.", "Ng, Miang Lon Patricia"))
    assert set(groups(clustering)) == {"ng|p", "ng|m"}


def test_aini_splits_on_extra_initial():
    clustering = cluster_aini(named("Brown, C", "Brown, C. C."))
    assert set(groups(clustering)) == {"brown|c", "brown|cc"}


def test_aini_matches_equal_initials():
    clustering = cluster_aini(named("Brown, C. C.", "Brown, Charles Conrad"))
    assert len(groups(clustering)) == 1


def test_unparseable_names_become_singletons():
    corpus = named("Wang, Wei", "...", "...")
    for make in (cluster_fini, cluster_aini):
        clustering = make(corpus)
        assert len(groups(clustering)) == 3
        assert unparseable_count(clustering) == 2
        assert clustering[(2, 1)] != clustering[(3, 1)]


def test_name_keys_index_distinct_byline_names():
    corpus = {
        1: PaperRecord(1, 1999, "T", ("Wang, Wei", "...", "Einstein")),
        2: PaperRecord(2, 2000, "U", ("Hertzog, P J", "Wang, Wei")),
    }
    assert name_keys(corpus, aini_key) == {
        "Wang, Wei": "wang|w", "...": None, "Einstein": "einstein|", "Hertzog, P J": "hertzog|pj",
    }
    assert name_keys(corpus, match_key)["Einstein"] is None
    parsed = ParsedNames()
    name_keys(corpus, fini_key, parsed)
    assert parsed.keys() == {"Wang, Wei", "...", "Einstein", "Hertzog, P J"}
    assert parsed["..."] is None and parsed["Wang, Wei"].surname == "wang"


def test_grouping_matches_brute_force():
    rng = random.Random(11)
    surnames = ["garcia", "smith", "li"]
    forenames = ["A", "A B", "B", "Ann", "Ann B"]
    corpus = named(*(f"{rng.choice(surnames)}, {rng.choice(forenames)}" for _ in range(199)))
    for make, key in ((cluster_fini, fini_key), (cluster_aini, aini_key)):
        expected = {}
        for paper in corpus.values():
            expected.setdefault(key(parse_name(paper.authors[0])), set()).add((paper.pmid, 1))
        got = {frozenset(m) for m in groups(make(corpus)).values()}
        assert got == {frozenset(m) for m in expected.values()}


def test_aini_refines_fini_partition():
    rng = random.Random(13)
    surnames = ["kim", "lee"]
    forenames = ["J", "J H", "Jin", "Jin Ho", "H"]
    corpus = named(*(f"{rng.choice(surnames)}, {rng.choice(forenames)}" for _ in range(299)))
    fini = cluster_fini(corpus)
    aini = cluster_aini(corpus)
    for members in groups(aini).values():
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
        clustering = make(corpus)
        assert len(set(clustering.values())) < len(clustering)
        assert _one_object_per_value(clustering.values())
    index = name_keys(corpus, match_key)
    assert index["Einstein"] is None and index["123"] is None
    keys = [key for key in index.values() if key is not None]
    assert len(set(keys)) < len(keys)
    assert _one_object_per_value(keys)


# one blocking key in several forms, a refined split, a mononym, names
# that do not parse, and non-ASCII forms that fold onto ASCII ones
INDEX_NAMES = [
    "Kim, J", "Kim, Jin", "J Kim", "Kim, J. H.", "Lee, Ann", "Ann Lee-Park", "Einstein",
    "Müller, Jürgen", "Muller, J", "Ørsted, H C", "Orsted, Hans", "Łukasz Nowak", "123", "...", "",
]


@st.composite
def indexed_corpora(draw):
    # bylines repeat names, within a byline too
    bylines = draw(
        st.lists(st.lists(st.sampled_from(INDEX_NAMES), min_size=0, max_size=6), max_size=8)
    )
    return {
        pmid: PaperRecord(pmid, 2000, "T", tuple(authors))
        for pmid, authors in enumerate(bylines, start=1)
    }


@given(indexed_corpora())
@example({1: PaperRecord(1, 2000, "T", ("Kim, J", "Einstein", "Kim, J", "...", "Müller, Jürgen")),
          2: PaperRecord(2, 2001, "U", ("Muller, J", "...", "J Kim"))})
def test_name_key_index_matches_the_earlier_routines(corpus):
    for make, key in ((cluster_fini, fini_key), (cluster_aini, aini_key)):
        got = make(corpus)
        assert dict(got) == dict(oracles.cluster(oracles.corpus_names(corpus), key))
        assert _one_object_per_value(got.values())
    expected_sizes = Counter(oracles.cluster(oracles.corpus_names(corpus), fini_key).values())
    assert sorted(fini_block_sizes(corpus, ParsedNames())) == sorted(expected_sizes.values())
    index = name_keys(corpus, match_key)
    assert index == oracles.key_index(corpus)
    assert _one_object_per_value(key for key in index.values() if key is not None)
