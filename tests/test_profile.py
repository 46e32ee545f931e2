"""Distributions, CCDF, sampling, typology, and tag perturbation."""

import math
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from linklab import normalize
from linklab.baseline import fini_block_sizes, name_keys, name_lookup
from linklab.cli import EXIT_OK, main
from linklab.corpus import Clustering, PaperRecord, write_clustering, write_corpus
from linklab.errors import EvaluationError
from linklab.linkage import EvalRow
from linklab.metrics import b3_rows
from linklab.normalize import parse_name
from linklab.profile import (
    CCDFPoint,
    block_size_ccdf,
    ccdf_fraction_at_least,
    classify_synonym_types,
    distribution,
    pair_year_distribution,
    perturb_tags,
    reference_sample,
    write_ccdf,
    write_distribution,
    write_typology,
)
from linklab.synth import SynthConfig, generate
import oracles
from oracles import clustering_of, iid


def rows_with(attrs):
    return [
        EvalRow((i, 1), f"t{i}", f"p{i}", year, eth, gen)
        for i, (year, eth, gen) in enumerate(attrs, start=1)
    ]


def test_distribution_percentages():
    rows = rows_with(
        [
            (1999, "English", "Male"),
            (1999, "Korean", "Female"),
            (2001, None, "Female"),
            (2001, "", "Female"),
        ]
    )
    years = distribution(rows, "year")
    assert years == {"1999": 50.0, "2001": 50.0}
    ethnicities = distribution(rows, "ethnicity")
    assert ethnicities == {"English": 25.0, "Korean": 25.0, "UNKNOWN": 50.0}
    assert sum(ethnicities.values()) == pytest.approx(100.0, abs=1e-9)


def test_distribution_uniform_years():
    rows = rows_with([(1991 + i % 10, None, None) for i in range(1000)])
    years = distribution(rows, "year")
    assert len(years) == 10
    for share in years.values():
        assert share == pytest.approx(10.0, abs=1e-9)


def test_distribution_errors():
    with pytest.raises(ValueError, match="unknown attribute"):
        distribution(rows_with([(1999, None, None)]), "surname")
    with pytest.raises(EvaluationError, match="empty"):
        distribution([], "year")


def test_pair_year_distribution_counts_both_members():
    corpus = {
        1: PaperRecord(1, 1991, "T", ("A, B",)),
        2: PaperRecord(2, 1992, "U", ("A, B",)),
        3: PaperRecord(3, 1992, "V", ("A, B",)),
    }
    pairs = frozenset({(iid(1, 1), iid(2, 1)), (iid(2, 1), iid(3, 1))})
    dist = pair_year_distribution(pairs, corpus)
    assert dist == {"1991": 25.0, "1992": 75.0}


def test_ccdf_singletons():
    points = block_size_ccdf([1, 1])
    assert points == [CCDFPoint(1, 1.0)]


def test_ccdf_mixed_sizes():
    points = block_size_ccdf([1, 1, 2])
    assert points == [CCDFPoint(1, 1.0), CCDFPoint(2, pytest.approx(1 / 3))]


def test_ccdf_is_anchored_even_without_singletons():
    points = block_size_ccdf([2, 3])
    assert points[0] == CCDFPoint(1, 1.0)
    fractions = [p.fraction_at_least for p in points]
    assert fractions == sorted(fractions, reverse=True)


def test_ccdf_step_evaluation():
    points = [CCDFPoint(1, 1.0), CCDFPoint(2, 0.6), CCDFPoint(5, 0.2)]
    assert ccdf_fraction_at_least(points, 1) == 1.0
    assert ccdf_fraction_at_least(points, 3) == 0.2
    assert ccdf_fraction_at_least(points, 5) == 0.2
    assert ccdf_fraction_at_least(points, 6) == 0.0


def test_ccdf_empty_errors():
    with pytest.raises(EvaluationError):
        block_size_ccdf([])


def test_reference_sample_deterministic():
    population = [iid(i, 1) for i in range(1, 200)]
    first = reference_sample(population, 50, seed=9)
    second = reference_sample(population, 50, seed=9)
    assert first == second
    assert len(first) == 50
    assert first <= set(population)
    assert reference_sample(population, 199, seed=1) == set(population)
    assert reference_sample(population, 50, seed=10) != first


def test_reference_sample_bounds():
    population = [iid(1, 1)]
    with pytest.raises(ValueError):
        reference_sample(population, 2, seed=1)
    with pytest.raises(ValueError):
        reference_sample(population, -1, seed=1)


def test_reference_sample_tracks_population_ccdf():
    # Sampled instances, grouped by paper, should give a similar block
    # profile to the population when the sample is large.
    rng = random.Random(5)
    population = []
    blocks = {}
    for block_id in range(2000):
        size = rng.choice([1, 1, 1, 2, 2, 5, 9])
        members = {(block_id * 100 + k, 1) for k in range(1, size + 1)}
        blocks[str(block_id)] = members
        population.extend(members)
    sample = reference_sample(population, 4000, seed=77)
    sampled_blocks = {
        bid: members & sample for bid, members in blocks.items() if members & sample
    }
    pop_points = block_size_ccdf(len(members) for members in blocks.values())
    sample_points = block_size_ccdf(len(members) for members in sampled_blocks.values())
    for size in (1, 2, 5):
        gap = abs(
            ccdf_fraction_at_least(pop_points, size)
            - ccdf_fraction_at_least(sample_points, size)
        )
        assert gap < 0.25


def names_for(cluster_forms):
    truth = {}
    names = {}
    counter = 1
    for cluster_id, forms in cluster_forms.items():
        members = set()
        for raw in forms:
            instance = (counter, 1)
            counter += 1
            members.add(instance)
            names[instance] = parse_name(raw)
        truth[cluster_id] = members
    return clustering_of(truth), names


def test_typology_worked_examples():
    truth, names = names_for(
        {
            "a1": ["Prado, Wagner L.", "do Prado, Wagner Luiz"],
            "a2": ["Ng, Patricia M. L.", "Ng, Miang Lon Patricia"],
            "a3": ["Wei, Wang", "Wang, Wei"],
            "a4": ["Smith, John", "Smith, J."],
        }
    )
    report = classify_synonym_types(truth, names.get)
    assert report.assignments == {
        "a1": "surname_variant",
        "a2": "initial_variant",
        "a3": "flipped_order",
    }
    assert report.counts.total_multiform_authors == 3
    assert (
        report.counts.surname_variant
        + report.counts.initial_variant
        + report.counts.flipped_order
        == report.counts.total_multiform_authors
    )


def test_typology_skips_single_key_authors():
    truth, names = names_for(
        {
            "a1": ["Smith, John", "Smith, John Q."],
            "a2": ["Lee, Ann"],
        }
    )
    report = classify_synonym_types(truth, names.get)
    assert report.assignments == {}
    assert report.counts.total_multiform_authors == 0


def test_typology_flipped_takes_priority():
    # The pair is flipped-order even though the surnames also differ.
    truth, names = names_for({"a1": ["Wei, Wang", "Wang, Wei"]})
    report = classify_synonym_types(truth, names.get)
    assert report.assignments["a1"] == "flipped_order"


# one name per blocking key except kim|j, which has three names in two forms
# ("Kim, Ji" spelt two ways, and "Kim, Jo"); "Ji, Kim" is "Kim, Ji" flipped,
# "Lee, Ji" a surname variant; a mononym and an unparsed name (None) carry no key
TYPOLOGY_NAMES = ["Kim, Ji", "KIM, Ji", "Kim, Jo", "Kim, Ann", "Ji, Kim", "Lee, Ji", "Einstein", None]
TYPOLOGY_INSTANCE = st.builds(iid, st.integers(1, 6), st.integers(1, 3))


@st.composite
def named_truths(draw):
    """A truth over up to four clusters and names for most of its instances."""
    truth = draw(st.dictionaries(TYPOLOGY_INSTANCE, st.sampled_from(["a1", "a2", "a3", "a4"]), max_size=16))
    # an instance missing from the names has none, as one named None
    names = {i: draw(st.sampled_from(TYPOLOGY_NAMES)) for i in truth if draw(st.integers(0, 5))}
    return truth, names


# a4 has three keys, a2 two (one repeated form), a5 two and a mononym,
# a3 one key in two forms, a1 only a mononym, an unparsed name and an
# instance with no name
TYPOLOGY_EXAMPLE = (
    {iid(1, 1): "a4", iid(2, 1): "a4", iid(3, 1): "a4",
     iid(1, 2): "a2", iid(2, 2): "a2", iid(3, 2): "a2",
     iid(4, 1): "a3", iid(4, 2): "a3", iid(5, 1): "a1", iid(5, 2): "a1", iid(5, 3): "a1",
     iid(6, 1): "a5", iid(6, 2): "a5", iid(6, 3): "a5"},
    {iid(1, 1): TYPOLOGY_NAMES[0], iid(2, 1): TYPOLOGY_NAMES[3], iid(3, 1): TYPOLOGY_NAMES[5],
     iid(1, 2): TYPOLOGY_NAMES[1], iid(2, 2): TYPOLOGY_NAMES[4], iid(3, 2): TYPOLOGY_NAMES[0],
     iid(4, 1): TYPOLOGY_NAMES[2], iid(4, 2): TYPOLOGY_NAMES[0],
     iid(5, 1): TYPOLOGY_NAMES[6], iid(5, 2): TYPOLOGY_NAMES[7],
     iid(6, 1): TYPOLOGY_NAMES[2], iid(6, 2): TYPOLOGY_NAMES[6], iid(6, 3): TYPOLOGY_NAMES[3]},
)


@given(named_truths())
@example(TYPOLOGY_EXAMPLE)
@example(({}, {}))
def test_typology_matches_the_grouped_oracle(case):
    """Two passes over name forms without grouping give the grouped typology of parsed names."""
    truth, raws = case
    forms = {instance: raw and parse_name(raw) for instance, raw in raws.items()}
    names = {instance: raw and oracles.tuple_parse_name(raw) for instance, raw in raws.items()}
    report = classify_synonym_types(truth, forms.get)
    expected = oracles.classify_synonym_types(truth, names.get)
    assert report == expected
    assert list(report.assignments.items()) == list(expected.assignments.items())


def annotated_rows(tags):
    return [
        EvalRow((i, 1), "t", "p", 2000, tag, None)
        for i, tag in enumerate(tags, start=1)
    ]


def test_perturb_changes_floor_counts_per_group():
    tags = ["English"] * 100 + ["Korean"] * 57 + [None] * 10
    dataset = tuple(annotated_rows(tags))
    perturbed = perturb_tags(dataset, 0.10, seed=3)
    changed = [
        (before, after)
        for before, after in zip(dataset, perturbed)
        if before.ethnicity != after.ethnicity
    ]
    changed_by_group = {}
    for before, after in changed:
        changed_by_group.setdefault(before.ethnicity, 0)
        changed_by_group[before.ethnicity] += 1
        assert after.ethnicity in {"English", "Korean"}
        assert after.ethnicity != before.ethnicity
        assert before._replace(ethnicity=None) == after._replace(ethnicity=None)
    assert changed_by_group == {"English": 10, "Korean": 5}
    untouched = [row for row in perturbed if row.ethnicity is None]
    assert len(untouched) == 10


def test_perturb_fraction_zero_is_identity():
    dataset = tuple(annotated_rows(["English", "Korean", "English"]))
    assert perturb_tags(dataset, 0.0, seed=1) == dataset


def test_perturb_is_deterministic():
    dataset = tuple(annotated_rows(["English"] * 40 + ["Korean"] * 40))
    one = perturb_tags(dataset, 0.25, seed=11)
    two = perturb_tags(dataset, 0.25, seed=11)
    assert one == two
    assert one != perturb_tags(dataset, 0.25, seed=12)


def test_perturb_requires_two_tags():
    dataset = tuple(annotated_rows(["English", "English", None]))
    with pytest.raises(EvaluationError, match="2 distinct"):
        perturb_tags(dataset, 0.1, seed=1)
    with pytest.raises(ValueError, match="fraction"):
        perturb_tags(dataset, 1.5, seed=1)


def test_perturb_preserves_unstratified_scores():
    rng = random.Random(8)
    rows = [
        EvalRow(
            iid(i, 1),
            f"t{rng.randint(1, 10)}",
            f"p{rng.randint(1, 10)}",
            2000,
            rng.choice(["English", "Korean", "Spanish"]),
            None,
        )
        for i in range(1, 200)
    ]
    dataset = tuple(rows)
    perturbed = perturb_tags(dataset, 0.10, seed=5)

    assert b3_rows(dataset) == b3_rows(perturbed)


def test_write_distribution_two_columns(tmp_path):
    path = tmp_path / "dist_year.tsv"
    write_distribution(
        path,
        {"observed": {"1999": 50.0, "2001": 50.0}, "reference": {"1999": 100.0}},
    )
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "value\tobserved\treference"
    assert lines[1] == "1999\t50.000000\t100.000000"
    assert lines[2] == "2001\t50.000000\t0.000000"


def test_write_ccdf_aligns_sizes(tmp_path):
    path = tmp_path / "ccdf.tsv"
    write_ccdf(
        path,
        {
            "pop": [CCDFPoint(1, 1.0), CCDFPoint(2, 0.5)],
            "ref": [CCDFPoint(1, 1.0), CCDFPoint(3, 0.25)],
        },
    )
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "size\tpop\tref"
    assert lines[1] == "1\t1.000000000\t1.000000000"
    assert lines[2] == "2\t0.500000000\t0.250000000"
    assert lines[3] == "3\t0.000000000\t0.250000000"


def test_write_typology(tmp_path):
    truth, names = names_for(
        {
            "a1": ["Prado, Wagner L.", "do Prado, Wagner Luiz"],
            "a2": ["Wei, Wang", "Wang, Wei"],
        }
    )
    report = classify_synonym_types(truth, names.get)
    path = tmp_path / "typology.tsv"
    write_typology(path, report)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "type\tcount\tshare_percent"
    assert lines[1] == "surname_variant\t1\t50.000000"
    assert lines[3] == "flipped_order\t1\t50.000000"


# "Kim, J", "Kim, Jin" and "J Kim" share a blocking key in two forms, as do
# the multi-token surnames "van der Berg, J" and "van der Berg, Jan";
# "J van der Berg" is a berg|j with three forenames. "Wei, Wang" is
# "Wang, Wei" flipped, "Lee, Ann-Marie" and "Ann-Marie Lee" one hyphenated
# forename; "Einstein" is a mononym, "123" and "..." do not parse.
PROFILE_NAMES = [
    "Kim, J", "Kim, Jin", "J Kim", "Kim, M", "Lee, Ann", "Lee, A. B.", "Ann Lee-Park",
    "Wei, Wang", "Wang, Wei", "Einstein", "123", "...", "van der Berg, J", "van der Berg, Jan",
    "J van der Berg", "Lee, Ann-Marie", "Ann-Marie Lee",
]


@st.composite
def profiled_corpora(draw):
    """A corpus and a truth clustering over instances in it, past its bylines and outside it."""
    bylines = draw(
        st.lists(st.lists(st.sampled_from(PROFILE_NAMES), min_size=1, max_size=5), min_size=1, max_size=6)
    )
    corpus = {
        pmid: PaperRecord(pmid, 2000, "T", tuple(authors))
        for pmid, authors in enumerate(bylines, start=1)
    }
    # positions up to 6 run past every byline; the last pmid is not in the corpus
    instances = [iid(pmid, pos) for pmid in range(1, len(bylines) + 2) for pos in range(1, 7)]
    members = draw(st.lists(st.sampled_from(instances), min_size=1, max_size=20, unique=True))
    authors = draw(st.lists(st.sampled_from(["a1", "a2", "a3"]), min_size=len(members), max_size=len(members)))
    return corpus, Clustering.from_assignment(dict(zip(members, authors)))


# every case at once: a shared key, a flipped pair, a mononym, unparseable
# names, and truth instances past a byline's end and outside the corpus
PROFILED_EXAMPLE = (
    {
        1: PaperRecord(1, 2000, "T", ("Kim, J", "Einstein", "Wei, Wang")),
        2: PaperRecord(2, 2001, "U", ("Kim, Jin", "123", "Wang, Wei", "Einstein")),
        3: PaperRecord(3, 2002, "V", ("...", "Lee, Ann", "Kim, M")),
    },
    clustering_of({
        "a1": {iid(1, 1), iid(2, 1), iid(3, 3), iid(3, 9)},
        "a2": {iid(1, 3), iid(2, 3), iid(1, 2), iid(2, 4)},
        "a3": {iid(3, 2), iid(2, 2), iid(7, 1)},
    }),
)


@given(profiled_corpora())
@example(PROFILED_EXAMPLE)
def test_block_sizes_and_typology_match_the_earlier_profile(case):
    corpus, truth = case
    forms = name_keys(corpus, str)
    assert block_size_ccdf(fini_block_sizes(corpus, forms)) == oracles.profile_ccdf(corpus)
    expected = oracles.profile_typology(truth, corpus)
    assert classify_synonym_types(truth, name_lookup(corpus, forms)) == expected


def test_profiled_example_reaches_every_case():
    corpus, truth = PROFILED_EXAMPLE
    report = oracles.profile_typology(truth, corpus)
    assert report.assignments == {"a1": "initial_variant", "a2": "flipped_order"}
    # kim|j and einstein| twice; wei|w, wang|w, kim|m and lee|a once; two that do not parse
    assert sorted(fini_block_sizes(corpus, name_keys(corpus, str))) == [1, 1, 1, 1, 1, 1, 2, 2]


def _profile_outputs(corpus, truth) -> tuple[dict[str, bytes], dict[str, bytes]]:
    """ccdf.tsv and typology.tsv from `linklab profile`, and from the earlier path."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_corpus(tmp / "papers.tsv", corpus)
        write_clustering(tmp / "truth.tsv", truth)
        argv = ["profile", "--papers", str(tmp / "papers.tsv"), "--truth", str(tmp / "truth.tsv")]
        assert main([*argv, "--out", str(tmp / "out")]) == EXIT_OK
        write_ccdf(tmp / "ccdf.tsv", {"fraction_at_least": oracles.profile_ccdf(corpus)})
        write_typology(tmp / "typology.tsv", oracles.profile_typology(truth, corpus))
        names = ("ccdf.tsv", "typology.tsv")
        return (
            {name: (tmp / "out" / name).read_bytes() for name in names},
            {name: (tmp / name).read_bytes() for name in names},
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    homonym_rate=st.sampled_from([0.0, 0.2]),
    synonym_rate=st.sampled_from([0.0, 0.2, 0.5]),
    midinitial_rate=st.sampled_from([0.0, 0.2]),
)
def test_profile_command_matches_the_earlier_path_on_synth_bundles(
    seed, homonym_rate, synonym_rate, midinitial_rate
):
    bundle = generate(
        SynthConfig(
            seed=seed,
            n_authors=40,
            homonym_rate=homonym_rate,
            synonym_rate=synonym_rate,
            midinitial_variant_rate=midinitial_rate,
        )
    )
    got, expected = _profile_outputs(bundle.corpus, bundle.truth)
    assert got == expected


def test_profile_command_matches_the_earlier_path_on_the_hand_built_corpus():
    got, expected = _profile_outputs(*PROFILED_EXAMPLE)
    assert got == expected


@settings(max_examples=40, deadline=None)
@given(profiled_corpora())
@example((
    {
        1: PaperRecord(1, 2000, "T", ("van der Berg, J", "Lee, Ann-Marie", "Einstein")),
        2: PaperRecord(2, 2001, "U", ("J van der Berg", "Lee, Ann", "123")),
        3: PaperRecord(3, 2002, "V", ("van der Berg, Jan", "Ann-Marie Lee", "...")),
        4: PaperRecord(4, 2003, "W", ("Ann Lee-Park",)),
    },
    # a1: van der berg|j in two forms and berg|j; a2: lee|a in two forms and leepark|a
    clustering_of({
        "a1": {iid(1, 1), iid(2, 1), iid(3, 1)},
        "a2": {iid(1, 2), iid(2, 2), iid(3, 2), iid(4, 1)},
        "a3": {iid(1, 3), iid(2, 3), iid(3, 3)},
    }),
))
def test_profile_command_matches_the_earlier_path_on_generated_corpora(case):
    got, expected = _profile_outputs(*case)
    assert got == expected


def test_profile_parses_each_distinct_name_once(monkeypatch, tmp_path):
    parses = Counter()

    def counting_parse(raw, parse=normalize.parse_name):
        parses[raw] += 1
        return parse(raw)

    monkeypatch.setattr(normalize, "parse_name", counting_parse)
    corpus, truth = PROFILED_EXAMPLE
    write_corpus(tmp_path / "papers.tsv", corpus)
    write_clustering(tmp_path / "truth.tsv", truth)
    argv = ["profile", "--papers", str(tmp_path / "papers.tsv"), "--truth", str(tmp_path / "truth.tsv")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert parses == Counter({raw: 1 for paper in corpus.values() for raw in paper.authors})


TAGS = st.sampled_from(["English", "Korean", "Spanish", ""])


@st.composite
def eval_files(draw):
    """The data lines of an eval dataset in instance order, and the same lines shuffled."""
    rows = draw(st.lists(st.tuples(TAGS, TAGS, st.integers(1999, 2001)), min_size=1, max_size=12))
    lines = [
        f"{i}_{1 + i % 2}\tt{i % 3}\tp{i % 2}\t{year}\t{ethnicity}\t{gender}\n"
        for i, (ethnicity, gender, year) in enumerate(rows, start=1)
    ]
    return lines, draw(st.permutations(lines))


@settings(max_examples=25, deadline=None)
@given(eval_files(), st.integers(0, 3))
def test_perturb_and_profile_do_not_depend_on_the_eval_row_order(files, seed):
    header = "instance_id\ttruth_label\tpredicted_cluster_id\tyear\tethnicity\tgender\n"

    def run(tmp: Path, lines: list[str]) -> tuple[list[int], dict[str, bytes]]:
        (tmp / "eval.tsv").write_text(header + "".join(lines), encoding="utf-8")
        codes = [
            main([*argv, "--eval", str(tmp / "eval.tsv"), "--out", str(tmp / out)])
            for out, argv in (
                ("perturb", ["perturb", "--fraction", "0.5", "--seed", str(seed)]),
                ("profile", ["profile"]),
            )
        ]
        # the manifests differ: they hold the checksum of the input
        written = {
            str(path.relative_to(tmp)): path.read_bytes()
            for path in sorted(tmp.glob("*/*"))
            if path.name != "run_manifest.json"
        }
        return codes, written

    in_order, shuffled = files
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
        expected = run(Path(one), in_order)
        assert expected[1]  # profile always writes its distributions
        assert run(Path(two), shuffled) == expected
