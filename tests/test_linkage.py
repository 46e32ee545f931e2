"""Labeling pipelines, label joins, and agreement."""

import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from linklab import linkage, normalize
from linklab.corpus import (
    Annotation,
    AuthorityProfile,
    CitationEdge,
    GrantRecord,
    PaperRecord,
    format_instance_id,
    ingest_annotations,
    ingest_clustering,
    ingest_corpus,
    parse_instance_id,
    write_authority,
)
from linklab.baseline import cluster_aini, cluster_fini, fini_block_sizes, name_keys, name_lookup
from linklab.errors import EvaluationError, IngestError
from linklab.linkage import (
    ConflictRecord,
    EvalRow,
    LabeledInstance,
    extract_selfcitation_pairs,
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
from linklab.metrics import pair_accuracy_detail
from linklab.profile import classify_synonym_types
import oracles
from oracles import clustering_of, iid, naive_selfcitation_pairs


def make_corpus(*papers):
    return {
        pmid: PaperRecord(pmid, year, title, tuple(authors))
        for pmid, year, title, authors in papers
    }


def join(labels, clustering, corpus, annotations=None, **kwargs):
    return oracles.join_tables(labels, clustering, corpus, annotations, **kwargs)


def profile(authority_id, name, *titles):
    return AuthorityProfile(authority_id, name, frozenset(titles))


TITLE_1 = "Alpha beta gamma delta epsilon one"
TITLE_2 = "Alpha beta gamma delta epsilon two"
TITLE_3 = "Alpha beta gamma delta epsilon three"
TITLE_DUP = "Same shared title words here"


@pytest.fixture
def corpus():
    return make_corpus(
        (1, 1999, TITLE_1, ["Hertzog, P J"]),
        (2, 2001, TITLE_2, ["Hertzog, P J", "Smith, John"]),
        (3, 2002, "Tiny title", ["Lee, Ann"]),
        (4, 2003, TITLE_DUP, ["Park, Quin"]),
        (5, 2004, TITLE_DUP, ["Park, Quin"]),
    )


def test_link_authority_empty_registry(corpus):
    result = oracles.link_registry(corpus, {})
    assert result.labels == ()
    assert result.conflicts == ()


def test_link_authority_matches_title_and_name(corpus):
    registry = {
        "orc-1": profile("orc-1", "Hertzog, Paul J", TITLE_1, TITLE_2),
        "orc-2": profile("orc-2", "Smith, J", TITLE_2),
    }
    result = oracles.link_registry(corpus, registry)
    assert [(format_instance_id(l.instance), l.label_id) for l in result.labels] == [
        ("1_1", "orc-1"),
        ("2_1", "orc-1"),
        ("2_2", "orc-2"),
    ]
    assert all(l.source == "authority" for l in result.labels)
    pmid, position = oracles.pair_of(result.labels[0].instance)
    assert corpus[pmid].authors[position - 1] == "Hertzog, P J"
    assert result.conflicts == ()
    assert result.stats["labels"] == 3


def test_link_authority_ignores_short_and_duplicate_titles(corpus):
    registry = {
        "orc-3": profile("orc-3", "Lee, Ann", "Tiny title"),
        "orc-4": profile("orc-4", "Park, Quin", TITLE_DUP),
    }
    result = oracles.link_registry(corpus, registry)
    assert result.labels == ()
    assert result.stats["duplicate_title_copies_dropped"] == 2


def test_link_authority_keep_first_elects_lowest_pmid(corpus):
    registry = {"orc-4": profile("orc-4", "Park, Quin", TITLE_DUP)}
    result = oracles.link_registry(corpus, registry, dup_title_policy="keep-first")
    assert [(format_instance_id(l.instance), l.label_id) for l in result.labels] == [("4_1", "orc-4")]
    assert result.stats["duplicate_title_copies_dropped"] == 1
    with pytest.raises(ValueError, match="dup_title_policy"):
        oracles.link_registry(corpus, registry, dup_title_policy="maybe")


def test_link_authority_title_match_alone_is_not_enough(corpus):
    registry = {"orc-5": profile("orc-5", "Different, Name", TITLE_1)}
    assert oracles.link_registry(corpus, registry).labels == ()


def test_link_authority_normalizes_before_matching():
    corpus = make_corpus((9, 2000, "The Rôle of  P53 in Cancer-Risk!", ["Kim, Jinseok"]))
    registry = {
        "orc-9": profile("orc-9", "Kim, J", "the role of P53 in cancer-risk?")
    }
    result = oracles.link_registry(corpus, registry)
    assert [format_instance_id(l.instance) for l in result.labels] == ["9_1"]


def test_link_authority_ambiguous_profiles_conflict():
    corpus = make_corpus((7, 2005, TITLE_1, ["Kim, Jinseok"]))
    registry = {
        "orc-a": profile("orc-a", "Kim, J", TITLE_1),
        "orc-b": profile("orc-b", "Kim, Jin", TITLE_1),
    }
    result = oracles.link_registry(corpus, registry)
    assert result.labels == ()
    assert len(result.conflicts) == 1
    conflict = result.conflicts[0]
    assert conflict.reason == "instance_multilabel"
    assert conflict.instance == iid(7, 1)
    assert "orc-a" in conflict.detail and "orc-b" in conflict.detail


def test_link_authority_two_positions_one_profile_conflict():
    corpus = make_corpus((8, 2005, TITLE_1, ["Smith, J", "Smith, Jane"]))
    registry = {"orc-s": profile("orc-s", "Smith, John", TITLE_1)}
    result = oracles.link_registry(corpus, registry)
    assert result.labels == ()
    assert {c.reason for c in result.conflicts} == {"paper_multimatch"}
    assert {c.instance for c in result.conflicts} == {
        iid(8, 1),
        iid(8, 2),
    }


def test_link_authority_mononym_never_matches():
    corpus = make_corpus((6, 2000, TITLE_1, ["Hertzog"]))
    registry = {"orc-m": profile("orc-m", "Hertzog", TITLE_1)}
    assert oracles.link_registry(corpus, registry).labels == ()


def test_link_grants_labels_funded_papers(corpus):
    grants = {
        "nih-1": GrantRecord("nih-1", "Hertzog, Paul", frozenset({1, 2, 77})),
    }
    result = link_grants(corpus, grants)
    assert [(format_instance_id(l.instance), l.label_id) for l in result.labels] == [
        ("1_1", "nih-1"),
        ("2_1", "nih-1"),
    ]
    assert all(l.source == "grant" for l in result.labels)
    assert result.stats["funded_pmids"] == 3
    assert result.stats["funded_pmids_in_corpus"] == 2


def test_link_grants_conflicting_pis(corpus):
    grants = {
        "nih-1": GrantRecord("nih-1", "Hertzog, Paul", frozenset({1})),
        "nih-2": GrantRecord("nih-2", "Hertzog, Peter", frozenset({1})),
    }
    result = link_grants(corpus, grants)
    assert result.labels == ()
    assert [c.reason for c in result.conflicts] == ["instance_multilabel"]


def test_selfcitation_pairs_empty_and_single():
    corpus = make_corpus(
        (1, 1999, TITLE_1, ["Hertzog, P J"]),
        (2, 2001, TITLE_2, ["Hertzog, P J"]),
    )
    assert len(extract_selfcitation_pairs(corpus, [])) == 0
    pairs = extract_selfcitation_pairs(corpus, [CitationEdge(2, 1)])
    # the cited instance comes first: it is the smaller one
    assert pairs == frozenset({(iid(1, 1), iid(2, 1))})


def test_selfcitation_pairs_skip_out_of_corpus_edges():
    corpus = make_corpus((1, 1999, TITLE_1, ["Hertzog, P J"]))
    assert len(extract_selfcitation_pairs(corpus, [CitationEdge(2, 1)])) == 0


def test_selfcitation_pairs_match_brute_force():
    rng = random.Random(31)
    surnames = ["kim", "lee", "park"]
    forenames = ["J", "Jin", "M", "Min Ho"]
    papers = []
    for pmid in range(1, 40):
        authors = [
            f"{rng.choice(surnames)}, {rng.choice(forenames)}"
            for _ in range(rng.randint(1, 4))
        ]
        papers.append((pmid, 2000, TITLE_1 + f" {pmid}", authors))
    corpus = make_corpus(*papers)
    edges = {
        CitationEdge(*sorted(rng.sample(range(1, 40), 2), reverse=True))
        for _ in range(60)
    }

    pairs = extract_selfcitation_pairs(corpus, edges)
    assert oracles.pair_tuples(pairs) == naive_selfcitation_pairs(corpus, edges)

    assert pair_accuracy_detail(pairs, cluster_fini(corpus)).accuracy == 1.0
    assert pair_accuracy_detail(pairs, cluster_aini(corpus)).accuracy <= 1.0


# "Kim, J", "Kim, Jin" and "J Kim" share one blocking key, so one byline
# can carry a key at several positions; "Einstein" is a mononym and "123"
# does not parse.
BYLINE_NAMES = ["Kim, J", "Kim, Jin", "J Kim", "Kim, M", "Lee, Ann", "Lee, A. B.", "Einstein", "123"]


@st.composite
def cited_corpora(draw):
    bylines = draw(
        st.lists(st.lists(st.sampled_from(BYLINE_NAMES), min_size=1, max_size=6), min_size=1, max_size=6)
    )
    corpus = make_corpus(
        *((pmid, 2000, TITLE_1, authors) for pmid, authors in enumerate(bylines, start=1))
    )
    # pmids past the corpus make edges to outside papers; equal ends make self-loops
    pmid = st.integers(1, len(bylines) + 2)
    edges = draw(st.lists(st.builds(CitationEdge, pmid, pmid), max_size=15))
    return corpus, edges


@given(cited_corpora())
def test_selfcitation_pairs_match_quadratic_oracle(case):
    corpus, edges = case
    pairs = extract_selfcitation_pairs(corpus, edges)
    assert oracles.pair_tuples(pairs) == naive_selfcitation_pairs(corpus, edges)


@given(cited_corpora())
def test_selfcitation_pairs_are_ordered_and_survive_a_round_trip(case):
    corpus, edges = case
    pairs = extract_selfcitation_pairs(corpus, edges)
    # (smaller, larger), members on two papers
    pmids = {(oracles.pair_of(a)[0], oracles.pair_of(b)[0]) for a, b in pairs}
    assert all(a < b for a, b in pairs) and all(a != b for a, b in pmids)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pairs(path, pairs)
        assert read_pairs(path) == pairs


# Two papers drawing one title duplicate it (dropped or kept per policy);
# "epsilon-one" normalizes to TITLE_1 only with nonalpha="space"; "Tiny
# title" is too short to use; the last title is on no paper.
LINK_TITLES = [TITLE_1, TITLE_2, TITLE_DUP, "Tiny title", "Alpha beta gamma delta epsilon-one"]
PROFILE_TITLES = LINK_TITLES + ["A title that no paper in the corpus has"]


@st.composite
def linked_corpora(draw):
    """A corpus plus profiles and PIs whose names come from its byline pool."""
    papers = draw(
        st.lists(
            st.tuples(
                st.sampled_from(LINK_TITLES),
                st.lists(st.sampled_from(BYLINE_NAMES), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=6,
        )
    )
    corpus = make_corpus(
        *((pmid, 2000, title, authors) for pmid, (title, authors) in enumerate(papers, start=1))
    )
    # few names for several people, so one name often stands behind two labels
    name = st.sampled_from(BYLINE_NAMES)
    titles = st.frozensets(st.sampled_from(PROFILE_TITLES), min_size=1, max_size=3)
    registry = {
        f"orc-{i}": AuthorityProfile(f"orc-{i}", person, work)
        for i, (person, work) in enumerate(draw(st.lists(st.tuples(name, titles), max_size=5)))
    }
    # pmids past the corpus are funded papers outside it
    pmids = st.frozensets(st.integers(1, len(papers) + 2), min_size=1, max_size=4)
    grants = {
        f"pi-{i}": GrantRecord(f"pi-{i}", person, funded)
        for i, (person, funded) in enumerate(draw(st.lists(st.tuples(name, pmids), max_size=5)))
    }
    policy = draw(st.sampled_from(linkage.DUP_TITLE_POLICIES))
    nonalpha = draw(st.sampled_from(["delete", "space"]))
    return corpus, registry, grants, policy, nonalpha


# every case the generator is meant to reach, at once: a mononym profile and
# a mononym PI on in-corpus papers, a PI pmid outside the corpus, a duplicate
# title, two byline positions under one key, and one name on two labels
LINKED_EXAMPLE = (
    make_corpus(
        (1, 2000, TITLE_1, ["Kim, J", "Einstein", "Kim, Jin"]),
        (2, 2000, TITLE_DUP, ["Lee, Ann", "Einstein"]),
        (3, 2000, TITLE_DUP, ["Lee, Ann"]),
        (4, 2000, TITLE_2, ["Lee, A. B.", "123"]),
    ),
    {
        "orc-0": profile("orc-0", "Kim, J", TITLE_1),
        "orc-1": profile("orc-1", "Einstein", TITLE_1, TITLE_2),
        "orc-2": profile("orc-2", "Lee, Ann", TITLE_DUP, TITLE_2),
        "orc-3": profile("orc-3", "Lee, A. B.", TITLE_2),
        "orc-4": profile("orc-4", "123", TITLE_2),
    },
    {
        "pi-0": GrantRecord("pi-0", "Einstein", frozenset({2})),
        "pi-1": GrantRecord("pi-1", "Lee, Ann", frozenset({3, 4, 9})),
        "pi-2": GrantRecord("pi-2", "Lee, A", frozenset({4})),
        "pi-3": GrantRecord("pi-3", "123", frozenset({1, 8})),
    },
    "keep-first",
    "delete",
)


@given(linked_corpora())
@example(LINKED_EXAMPLE)
@example(LINKED_EXAMPLE[:3] + ("drop-all", "space"))
def test_person_linkers_match_the_earlier_loops(case):
    corpus, registry, grants, policy, nonalpha = case
    linked = oracles.link_registry(corpus, registry, dup_title_policy=policy, nonalpha=nonalpha)
    assert oracles.pair_link_result(linked) == oracles.link_authority(
        corpus, registry, dup_title_policy=policy, nonalpha=nonalpha
    )
    granted = oracles.pair_link_result(link_grants(corpus, grants))
    assert granted == oracles.link_grants(corpus, grants)


@st.composite
def linkage_cases(draw):
    """Every linker's input over one corpus: profiles, PIs and citation edges.

    Bylines draw from BYLINE_NAMES (homonyms under one key, a mononym, a
    name that does not parse), and one byline repeats one of its names.
    Edges come in any order, with repeats, self-loops and outside papers.
    """
    corpus, registry, grants, policy, nonalpha = draw(linked_corpora())
    paper = corpus[draw(st.sampled_from(sorted(corpus)))]
    repeated = draw(st.sampled_from(paper.authors))
    corpus[paper.pmid] = paper._replace(authors=(*paper.authors, repeated))
    pmid = st.integers(1, len(corpus) + 2)
    edges = draw(st.lists(st.builds(CitationEdge, pmid, pmid), max_size=15))
    return corpus, registry, grants, edges, policy, nonalpha


@given(linkage_cases())
def test_linkers_and_pairs_match_their_oracles(case):
    corpus, registry, grants, edges, policy, nonalpha = case
    linked = oracles.link_registry(corpus, registry, dup_title_policy=policy, nonalpha=nonalpha)
    assert oracles.pair_link_result(linked) == oracles.link_authority(
        corpus, registry, dup_title_policy=policy, nonalpha=nonalpha
    )
    granted = oracles.pair_link_result(link_grants(corpus, grants))
    assert granted == oracles.link_grants(corpus, grants)
    pairs = extract_selfcitation_pairs(corpus, edges)
    assert oracles.pair_tuples(pairs) == naive_selfcitation_pairs(corpus, edges)


# instances on two papers, three labels: both ambiguity rules fire, often on one candidate
CANDIDATES = st.sets(
    st.tuples(st.tuples(st.integers(1, 2), st.integers(1, 3)), st.sampled_from(["a", "b", "c"])),
    max_size=12,
)


@given(CANDIDATES, st.sampled_from(linkage.SOURCES))
@example({((1, 1), "a"), ((1, 1), "b"), ((1, 2), "a"), ((2, 1), "c")}, linkage.SOURCE_GRANT)
def test_resolve_candidates_matches_the_set_oracle(candidates, source):
    labels, conflicts = linkage._resolve_candidates(
        {(iid(*instance), label_id) for instance, label_id in candidates}, source
    )
    expected = oracles.resolve_candidates(candidates, source)
    assert (oracles.pair_records(labels), oracles.pair_records(conflicts)) == expected


def test_each_raw_string_is_normalised_once_per_call(monkeypatch, tmp_path):
    parses = Counter()
    titles = Counter()

    def counting_parse(raw, parse=normalize.parse_name):
        parses[raw] += 1
        return parse(raw)

    def counting_title(raw, normalize=linkage.normalize_title, **kwargs):
        titles[raw] += 1
        return normalize(raw, **kwargs)

    monkeypatch.setattr(normalize, "parse_name", counting_parse)
    monkeypatch.setattr(linkage, "normalize_title", counting_title)
    corpus = make_corpus(
        (1, 1999, TITLE_1, ["Kim, J", "Lee, Ann", "Kim, J", "Einstein"]),
        (2, 2001, TITLE_2, ["Kim, J", "Lee, Ann", "Einstein"]),
        (3, 2002, TITLE_1, ["Einstein", "Kim, J", "123"]),
        (4, 2003, TITLE_2, ["123", "Kim, J"]),
        (5, 2004, TITLE_3, ["Lee, Ann", "Kim, J"]),
    )
    # a profile and a PI whose names are byline names, on a title that
    # resolves, and profiles whose names are on no byline, one with a work
    # row per title; the registry is read from a mapping and from a file
    registry = {
        "orc-1": profile("orc-1", "Kim, Jin", TITLE_1, TITLE_2),
        "orc-2": profile("orc-2", "Lee, A", TITLE_2),
        "orc-3": profile("orc-3", "Lee, Ann", TITLE_3),
        "orc-4": profile("orc-4", "Park, Min", TITLE_1, TITLE_2, TITLE_3),
    }
    write_authority(tmp_path / "authority.tsv", registry)
    grants = {
        "nih-1": GrantRecord("nih-1", "Kim, Jin", frozenset({1, 2, 3})),
        "nih-2": GrantRecord("nih-2", "Kim, J", frozenset({5})),
    }
    edges = [CitationEdge(2, 1), CitationEdge(3, 2), CitationEdge(4, 1), CitationEdge(4, 3)]
    truth = clustering_of({"a1": {instance for paper in corpus.values() for instance in paper.instances()}})

    def profile_path():
        # block sizes and the typology share one index of name forms, as `linklab profile` does
        forms = name_keys(corpus, str)
        fini_block_sizes(corpus, forms)
        classify_synonym_types(truth, name_lookup(corpus, forms))

    calls = {
        "cluster_fini": lambda: cluster_fini(corpus),
        "cluster_aini": lambda: cluster_aini(corpus),
        "profile": profile_path,
        "link_authority": lambda: link_authority(corpus, tmp_path / "authority.tsv"),
        "link_grants": lambda: link_grants(corpus, grants),
        "extract_selfcitation_pairs": lambda: extract_selfcitation_pairs(corpus, edges),
    }
    for name, call in calls.items():
        parses.clear()
        titles.clear()
        result = call()
        if name.startswith("link_"):
            assert {"orc-3", "nih-2"} & {label.label_id for label in result.labels}, name
        assert parses["Kim, J"] == 1, name
        assert parses["Lee, Ann"] == 1, name
        if name.startswith("link_authority"):
            assert parses["Park, Min"] == parses["Kim, Jin"] == 1, name
        assert max(parses.values()) == 1, (name, parses)
        assert max(titles.values(), default=1) == 1, (name, titles)


def test_a_person_name_on_no_byline_is_parsed_once_and_stored(monkeypatch):
    parses = Counter()

    def counting_parse(raw, parse=normalize.parse_name):
        parses[raw] += 1
        return parse(raw)

    corpus = make_corpus((1, 1999, TITLE_1, ["Kim, J", "Einstein", "Wang, W"]))
    keys = name_keys(corpus, normalize.match_key)
    bylines = dict(keys)
    monkeypatch.setattr(normalize, "parse_name", counting_parse)
    # a byline name is read from the table, not parsed again
    assert linkage._person_key(keys, "Kim, J") is bylines["Kim, J"] == "kim|j"
    assert linkage._person_key(keys, "Kim, Jin") == "kim|j"
    assert linkage._person_key(keys, "Kim, Jin") == "kim|j"
    assert parses == {"Kim, Jin": 1}
    # an unparseable name and a mononym have no match key
    assert linkage._person_key(keys, "!!!") is None
    assert linkage._person_key(keys, "Plato") is None
    assert type(keys) is dict
    assert keys == {**bylines, "Kim, Jin": "kim|j", "!!!": None, "Plato": None}
    assert all(keys[raw] is key for raw, key in bylines.items())


@pytest.mark.parametrize("unusable", ["Einstein", "123"], ids=["mononym", "unparseable"])
def test_an_unusable_profile_name_normalises_none_of_its_titles(monkeypatch, tmp_path, unusable):
    titles = Counter()

    def counting_title(raw, normalize=linkage.normalize_title, **kwargs):
        titles[raw] += 1
        return normalize(raw, **kwargs)

    monkeypatch.setattr(linkage, "normalize_title", counting_title)
    corpus = make_corpus((1, 1999, TITLE_1, ["Kim, J"]), (2, 2001, TITLE_2, ["Einstein"]))
    # titles on no paper, so none is found among the corpus's normalized titles
    other = "A title that no paper in the corpus has"
    registry = {
        "orc-1": profile("orc-1", unusable, other, other + " either", TITLE_2),
        "orc-2": profile("orc-2", "Kim, Jin", other),
    }
    path = tmp_path / "authority.tsv"
    write_authority(path, registry)
    result = link_authority(corpus, path)
    assert result.stats["profiles_unusable_name"] == 1
    # the corpus's titles, then the usable profile's one title on no paper
    assert titles == Counter({TITLE_1: 1, TITLE_2: 1, other: 1})


def test_pairset_validation(tmp_path):
    path = tmp_path / "pairs.tsv"
    # one pair in both orders is one (smaller, larger) pair
    path.write_text("instance_a\tinstance_b\n2_1\t1_1\n1_1\t2_1\n", encoding="utf-8")
    assert read_pairs(path) == frozenset({(iid(1, 1), iid(2, 1))})
    for bad in ("1_1\t1_2", "1_1\t1_1"):  # within one paper, identical instances
        path.write_text(f"instance_a\tinstance_b\n{bad}\n", encoding="utf-8")
        with pytest.raises(IngestError, match="distinct papers"):
            read_pairs(path)


def test_read_pairs_orders_each_pair_by_instance(tmp_path):
    path = tmp_path / "pairs.tsv"
    # 2_1 is the larger member of one pair and the smaller of another
    path.write_text("instance_a\tinstance_b\n2_1\t1_1\n2_1\t3_1\n1_1\t3_2\n", encoding="utf-8")
    pairs = read_pairs(path)
    assert pairs == frozenset({(iid(1, 1), iid(2, 1)), (iid(2, 1), iid(3, 1)), (iid(1, 1), iid(3, 2))})
    assert oracles.pair_tuples(pairs) == {((1, 1), (2, 1)), ((2, 1), (3, 1)), ((1, 1), (3, 2))}


def test_join_labels_inner_join(corpus):
    labels = [
        LabeledInstance(iid(1, 1), "orc-1", "authority"),
        LabeledInstance(iid(2, 1), "orc-1", "authority"),
        LabeledInstance(iid(2, 2), "orc-2", "authority"),
    ]
    clustering = clustering_of(
        {"c1": {iid(1, 1), iid(2, 1)}, "c2": {iid(3, 1)}}
    )
    annotations = {
        iid(1, 1): Annotation("English", "Male"),
    }
    joined = join(labels, clustering, corpus, annotations)
    assert joined.dropped_unclustered == 1
    first, second = joined.rows
    assert first == EvalRow(iid(1, 1), "orc-1", "c1", 1999, "English", "Male")
    assert second.year == 2001
    assert second.ethnicity is None


def test_join_labels_disjoint_is_empty(corpus):
    labels = [LabeledInstance(iid(1, 1), "orc-1", "authority")]
    clustering = clustering_of({"c9": {iid(5, 1)}})
    joined = join(labels, clustering, corpus)
    assert joined.rows == ()
    assert joined.dropped_unclustered == 1


@pytest.mark.parametrize(
    "instance", [iid(99, 1), iid(2, 3)], ids=["pmid-not-in-corpus", "position-past-byline"]
)
def test_join_labels_missing_paper(corpus, instance):
    labels = [LabeledInstance(instance, "orc-1", "authority")]
    clustering = clustering_of({"c1": {instance}})
    joined = join(labels, clustering, corpus)
    assert joined.rows == ()
    assert joined.dropped_missing_paper == 1
    with pytest.raises(EvaluationError, match="not in the corpus"):
        join(labels, clustering, corpus, strict=True)


def test_join_labels_rejects_mixed_sources(corpus):
    labels = [
        LabeledInstance(iid(1, 1), "orc-1", "authority"),
        LabeledInstance(iid(1, 1), "nih-1", "grant"),
    ]
    clustering = clustering_of({"c1": {iid(1, 1)}})
    message = (
        "instance '1_1' carries two labels (authority:'orc-1', grant:'nih-1');"
        " join one labeling source at a time"
    )
    with pytest.raises(ValueError) as err:
        join(labels, clustering, corpus)
    assert str(err.value) == message
    # noted, not raised, while the files are read: a bad papers file wins
    with pytest.raises(IngestError, match="empty author name"):
        join(labels, clustering, {**corpus, 6: PaperRecord(6, 2000, "T", ("",))})


def test_join_labels_drops_and_counts_what_it_cannot_join(corpus):
    labels = [
        LabeledInstance(iid(1, 1), "orc-1", "authority"),  # joined
        LabeledInstance(iid(3, 1), "orc-2", "authority"),  # no predicted cluster
        LabeledInstance(iid(9, 1), "orc-3", "authority"),  # on no paper
    ]
    joined = join(labels, clustering_of({"c1": {iid(1, 1), iid(9, 1)}}), corpus)
    assert joined.rows == (EvalRow(iid(1, 1), "orc-1", "c1", 1999, None, None),)
    assert (joined.dropped_unclustered, joined.dropped_missing_paper) == (1, 1)


# Instances on pmids 1-3 at positions 1-3; a drawn paper has 1 or 2 names,
# so some labeled instances lie on no paper or past a byline.
JOIN_INSTANCE = st.tuples(st.integers(1, 3), st.integers(1, 3))


@st.composite
def join_inputs(draw):
    """The four tables of a labels-mode join, as lists of data rows.

    Each table holds distinct keys, and now and then one more row that
    repeats one of them: a duplicate pmid, label, assignment or
    annotation. An id may carry a leading zero, which names the same
    instance.
    """

    def instance_id(instance):
        return f"{draw(st.sampled_from(['', '0']))}{instance[0]}_{instance[1]}"

    def table(keys, value, row):
        drawn = list(draw(st.dictionaries(keys, value, max_size=8)).items())
        if drawn and draw(st.sampled_from([True, *[False] * 5])):
            drawn.append((draw(st.sampled_from(drawn))[0], draw(value)))
        return [row(key, value) for key, value in drawn]

    papers = table(
        st.integers(1, 3),
        st.integers(1, 2),
        lambda pmid, length: f"{pmid}\t{1990 + length}\tT\t{'|'.join(['Kim, Ji'] * length)}",
    )
    labels = table(
        JOIN_INSTANCE, st.sampled_from(["a", "b"]),
        lambda i, label: f"{instance_id(i)}\t{label}\t{linkage.SOURCE_AUTHORITY}",
    )
    # a grant label on an instance the authority also labels is a two-source conflict
    labels += [
        f"{instance_id(i)}\tg\t{linkage.SOURCE_GRANT}"
        for i in draw(st.lists(JOIN_INSTANCE, max_size=1))
    ]
    pred = table(JOIN_INSTANCE, st.sampled_from(["c1", "c2", "c3"]), lambda i, c: f"{c}\t{instance_id(i)}")
    annotations = None
    if draw(st.booleans()):
        annotations = table(
            JOIN_INSTANCE, st.sampled_from(["A", "B"]), lambda i, tag: f"{instance_id(i)}\t{tag}\tMale"
        )
    return papers, labels, pred, annotations


def _outcome(join):
    try:
        joined = join()
    except (ValueError, EvaluationError, IngestError) as exc:
        return type(exc).__name__, str(exc)
    return joined.rows, joined.dropped_unclustered, joined.dropped_missing_paper


# labeled: 1_1 and 2_1 join, 2_2 and 2_3 have no prediction, 3_1 lies on
# no paper and 1_2 past its byline; ids with a leading zero name 1_1 and 2_1
JOIN_EXAMPLE = (
    ["1\t1991\tT\tKim, Ji", "2\t1992\tT\tKim, Ji|Kim, Ji"],
    [f"{i}\t{label}\tauthority" for i, label in
     (("1_1", "a"), ("2_1", "b"), ("2_2", "a"), ("3_1", "a"), ("1_2", "b"), ("2_3", "a"))],
    ["c1\t01_1", "c2\t2_1", "c1\t3_1", "c2\t1_2", "c3\t3_3"],
    ["1_1\tA\tMale", "02_1\tB\tMale", "3_3\tA\tMale"],
)


@given(join_inputs(), st.booleans())
@example(JOIN_EXAMPLE, False)
@example(JOIN_EXAMPLE, True)
@example((*JOIN_EXAMPLE[:3], None), False)
def test_join_of_kept_rows_matches_the_full_reader_oracle(tables, strict):
    """The labels-mode join keeps only labeled rows and no paper text, to the same effect.

    The oracle reads every input in full and indexes the labels itself,
    from the file's records once read_labels has checked them; a failure
    must be the same error with the same text.
    """
    headers = ("pmid\tyear\ttitle\tauthors", "instance_id\tlabel_id\tsource",
               "cluster_id\tinstance_id", "instance_id\tethnicity\tgender")
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, header, rows in zip(("papers", "labels", "pred", "ann"), headers, tables):
            path = None
            if rows is not None:
                path = Path(tmp) / f"{name}.tsv"
                path.write_text("".join(f"{line}\n" for line in (header, *rows)), encoding="utf-8")
            paths.append(path)
        papers, labels, pred, annotations = paths

        def full():
            read_labels(labels)  # the row checks; the records are indexed by the oracle
            _, *records = oracles.csv_records(labels)
            return oracles.join_labels(
                [LabeledInstance(parse_instance_id(i), *rest) for i, *rest in records],
                ingest_clustering(pred),
                ingest_corpus(papers),
                None if annotations is None else ingest_annotations(annotations),
                strict=strict,
            )

        def joined():
            return join_labels(labels, pred, papers, annotations, strict=strict)

        assert _outcome(joined) == _outcome(full)


def labels_from(truth_labels):
    return {iid(i, 1): label for i, label in enumerate(truth_labels, start=1)}


AGREE_INSTANCE = st.builds(iid, st.integers(1, 5), st.integers(1, 2))


@given(
    st.dictionaries(AGREE_INSTANCE, st.sampled_from(["x", "y", "z"])),
    st.dictionaries(AGREE_INSTANCE, st.sampled_from(["p", "q", "x"])),
)
@example({iid(1, 1): "x", iid(2, 1): "y"}, {iid(3, 1): "x"})  # no shared instance
@example(
    {iid(1, 1): "x", iid(2, 1): "x", iid(3, 1): "y"},
    {iid(1, 1): "p", iid(2, 1): "q", iid(3, 1): "p"},
)
def test_label_agreement_matches_the_two_set_oracle(labels_a, labels_b):
    """Intersecting key views gives the overlap, counts and disagreements of two set copies."""
    assert label_agreement(labels_a, labels_b) == oracles.label_agreement(labels_a, labels_b)


def test_label_agreement_identical():
    a = labels_from(["x", "x", "y"])
    report = label_agreement(a, a)
    assert report.overlap_count == 3
    assert report.agree_count == 3
    assert report.disagreements == ()


def test_label_agreement_is_namespace_invariant():
    a = labels_from(["x", "x", "y"])
    b = labels_from(["u9", "u9", "v7"])
    report = label_agreement(a, b)
    assert report.agree_count == 3
    assert report.disagreements == ()


def test_label_agreement_planted_move():
    a = labels_from(["x"] * 3 + ["y"] * 2)
    moved = dict(a)
    moved[iid(3, 1)] = "z"
    b = {instance: {"x": "A", "y": "B", "z": "B"}[label] for instance, label in moved.items()}
    report = label_agreement(a, b)
    assert report.overlap_count == 5
    assert report.agree_count == 4
    assert report.disagreements == ((iid(3, 1), "x", "B"),)


def test_label_agreement_no_overlap():
    a = labels_from(["x"])
    b = {iid(9, 1): "x"}
    assert label_agreement(a, b) == (0, 0, ())


def test_labels_round_trip(tmp_path):
    labels = (
        LabeledInstance(iid(1, 1), "orc-1", "authority"),
        LabeledInstance(iid(2, 1), "nih-1", "grant"),
    )
    path = tmp_path / "labels.tsv"
    write_labels(path, labels)
    assert read_labels(path) == ({iid(1, 1): "orc-1", iid(2, 1): "nih-1"}, None)
    text = path.read_text(encoding="utf-8").splitlines()
    assert text[0] == "instance_id\tlabel_id\tsource"
    assert text[1] == "1_1\torc-1\tauthority"


def test_read_labels_returns_a_two_label_conflict_without_raising(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text(
        "instance_id\tlabel_id\tsource\n"
        "01_1\torc-1\tauthority\n2_1\tnih-2\tgrant\n1_1\tnih-1\tgrant\n2_1\torc-1\tauthority\n",
        encoding="utf-8",
    )
    labels, conflict = read_labels(path)
    # the last row wins; the first instance with two labels is named canonically
    assert labels == {iid(1, 1): "nih-1", iid(2, 1): "orc-1"}
    assert conflict == (
        "instance '1_1' carries two labels (authority:'orc-1', grant:'nih-1');"
        " join one labeling source at a time"
    )
    rows = path.read_text(encoding="utf-8").splitlines()
    rows.insert(1, "3_1\torc-1\tgrant")  # equal label ids are one string
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    labels, _ = read_labels(path)
    assert labels[iid(3, 1)] is labels[iid(2, 1)]


def test_read_labels_rejects_bad_rows(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text(
        "instance_id\tlabel_id\tsource\n1_1\torc-1\tguesswork\n", encoding="utf-8"
    )
    with pytest.raises(IngestError, match="unknown source"):
        read_labels(path)
    path.write_text(
        "instance_id\tlabel_id\tsource\n"
        "1_1\torc-1\tauthority\n1_1\torc-2\tauthority\n",
        encoding="utf-8",
    )
    with pytest.raises(IngestError, match="duplicate label"):
        read_labels(path)


def test_pairs_round_trip(tmp_path):
    pairs = frozenset({(iid(1, 1), iid(2, 1)), (iid(1, 2), iid(3, 1))})
    path = tmp_path / "pairs.tsv"
    write_pairs(path, pairs)
    assert path.read_text(encoding="utf-8") == "instance_a\tinstance_b\n1_1\t2_1\n1_2\t3_1\n"
    assert read_pairs(path) == pairs


def test_eval_dataset_round_trip(tmp_path):
    dataset = (
        EvalRow(iid(1, 1), "orc-1", "c1", 1999, "English", "Male"),
        EvalRow(iid(2, 1), "orc-2", "c2", 2001, None, None),
    )
    path = tmp_path / "eval_dataset.tsv"
    write_eval_dataset(path, dataset)
    again = read_eval_dataset(path)
    assert again == dataset
    assert again[1].ethnicity is None


def test_write_conflicts(tmp_path, corpus):
    registry = {
        "orc-a": profile("orc-a", "Kim, J", TITLE_1),
        "orc-b": profile("orc-b", "Kim, Jin", TITLE_1),
    }
    bad_corpus = make_corpus((7, 2005, TITLE_1, ["Kim, Jinseok"]))
    result = oracles.link_registry(bad_corpus, registry)
    path = tmp_path / "conflicts.log"
    write_conflicts(path, result.conflicts)
    assert path.read_text(encoding="utf-8") == (
        "instance_multilabel\t7_1\tauthority:orc-a,orc-b\n"
    )


@pytest.mark.parametrize("field", ["a\tb", "a\nb", "a\rb", "a\0b"])
def test_write_conflicts_refuses_a_field_write_labels_refuses(tmp_path, field):
    with pytest.raises(ValueError, match="contains a") as conflicts_refused:
        write_conflicts(tmp_path / "conflicts.tsv", [ConflictRecord("r", iid(7, 1), field)])
    with pytest.raises(ValueError) as labels_refused:
        write_labels(tmp_path / "labels.tsv", [LabeledInstance(iid(7, 1), field, "authority")])
    assert str(conflicts_refused.value) == str(labels_refused.value)


def test_linking_is_input_order_insensitive(corpus):
    registry_a = {
        "orc-1": profile("orc-1", "Hertzog, Paul J", TITLE_1, TITLE_2),
        "orc-2": profile("orc-2", "Smith, J", TITLE_2),
    }
    registry_b = dict(reversed(list(registry_a.items())))
    assert oracles.link_registry(corpus, registry_a).labels == oracles.link_registry(
        corpus, registry_b
    ).labels
