"""Tests for the synthetic bundle generator."""

import filecmp
import json

import pytest

from linklab.baseline import ParsedNames, cluster_aini, cluster_fini, name_lookup
from linklab.corpus import (
    groups,
    ingest_annotations,
    ingest_authority,
    ingest_citations,
    ingest_clustering,
    ingest_corpus,
    ingest_grants,
)
from linklab.errors import ConfigError
from linklab.linkage import extract_selfcitation_pairs, link_authority, link_grants
from linklab.metrics import b3_scores, pair_accuracy_detail
from linklab.normalize import aini_key, fini_key, parse_name
from linklab.profile import classify_synonym_types, distribution
from linklab import synth
from linklab.synth import (
    BUNDLE_FILES,
    MAX_PLANTED_INSTANCES,
    VARIANT_HOMONYM,
    VARIANT_MIDINITIAL,
    SynthConfig,
    generate,
    write_bundle,
)


def test_generate_clean_bundle_shape():
    cfg = SynthConfig(seed=1, n_authors=50, papers_per_author=(2, 4))
    bundle = generate(cfg)
    assert len(bundle.authors) == 50
    clusters = groups(bundle.truth)
    assert len(clusters) == 50
    # every instance belongs to exactly one truth cluster and one paper byline
    corpus_instances = {i for paper in bundle.corpus.values() for i in paper.instances()}
    assert set(bundle.truth) == corpus_instances
    for author in bundle.authors:
        assert set(clusters[author.author_id]) == set(author.instances)
        assert 2 <= len(author.pmids) <= 4


def test_clean_bundle_fini_equals_truth():
    # no homonyms and no synonyms: surname+initial recovers truth exactly
    cfg = SynthConfig(seed=1, n_authors=50, papers_per_author=(2, 4))
    bundle = generate(cfg)
    fini = cluster_fini(bundle.corpus)
    scores = b3_scores(bundle.truth, fini)
    assert scores.recall == 1.0
    assert scores.precision == 1.0
    assert scores.f1 == 1.0


def test_generate_same_seed_identical():
    cfg = SynthConfig(
        seed=9,
        n_authors=60,
        homonym_rate=0.1,
        synonym_rate=0.1,
        midinitial_variant_rate=0.1,
        authority_coverage=0.5,
        grant_coverage=0.5,
        duplicate_title_rate=0.1,
        selfcitation_rate=0.5,
    )
    a = generate(cfg)
    b = generate(cfg)
    assert a.manifest == b.manifest
    assert a.truth == b.truth
    assert a.citations == b.citations
    assert a.annotations == b.annotations
    assert a.corpus == b.corpus
    assert a.registry == b.registry
    assert a.grants == b.grants


def test_different_seed_differs():
    cfg_a = SynthConfig(seed=1, n_authors=40)
    cfg_b = SynthConfig(seed=2, n_authors=40)
    a = generate(cfg_a)
    b = generate(cfg_b)
    assert {p.pmid: p.raw_title for p in a.corpus.values()} != {
        p.pmid: p.raw_title for p in b.corpus.values()
    }


def test_write_bundle_byte_identical(tmp_path):
    cfg = SynthConfig(
        seed=5,
        n_authors=40,
        homonym_rate=0.1,
        synonym_rate=0.1,
        authority_coverage=1.0,
        grant_coverage=0.4,
        selfcitation_rate=0.6,
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    write_bundle(generate(cfg), dir_a)
    write_bundle(generate(cfg), dir_b)
    for name in BUNDLE_FILES:
        assert (dir_a / name).exists()
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name


def test_write_bundle_round_trip(tmp_path):
    cfg = SynthConfig(
        seed=12,
        n_authors=30,
        homonym_rate=0.2,
        authority_coverage=1.0,
        grant_coverage=0.5,
        selfcitation_rate=0.7,
    )
    bundle = generate(cfg)
    write_bundle(bundle, tmp_path)
    corpus = ingest_corpus(tmp_path / "papers.tsv")
    assert corpus == bundle.corpus
    assert ingest_authority(tmp_path / "authority.tsv") == bundle.registry
    assert ingest_grants(tmp_path / "grants.tsv") == bundle.grants
    assert ingest_citations(tmp_path / "citations.tsv") == bundle.citations
    assert ingest_annotations(tmp_path / "annotations.tsv") == bundle.annotations
    assert ingest_clustering(tmp_path / "truth_clustering.tsv") == bundle.truth
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == bundle.manifest


def test_homonym_pairs_share_block_key():
    cfg = SynthConfig(seed=3, n_authors=100, papers_per_author=(3, 3), homonym_rate=0.2)
    bundle = generate(cfg)
    homonyms = [a for a in bundle.authors if a.variant == VARIANT_HOMONYM]
    assert len(homonyms) == 20
    by_fini = {}
    for author in homonyms:
        key = fini_key(parse_name(author.forms[0]))
        by_fini.setdefault(key, []).append(author)
    # homonyms come in pairs: same surname+first initial, different full initials
    assert len(by_fini) == 10
    for key, members in by_fini.items():
        assert len(members) == 2
        keys = {aini_key(parse_name(a.forms[0])) for a in members}
        assert len(keys) == 2
    # no other author shares a block key with a homonym pair
    others = [a for a in bundle.authors if a.variant != VARIANT_HOMONYM]
    for author in others:
        for form in author.forms:
            assert fini_key(parse_name(form)) not in by_fini


def test_variant_forms_alternate_along_career():
    cfg = SynthConfig(
        seed=8, n_authors=50, papers_per_author=(4, 4), midinitial_variant_rate=0.1
    )
    bundle = generate(cfg)
    variants = [a for a in bundle.authors if a.variant == VARIANT_MIDINITIAL]
    assert len(variants) == 5
    for author in variants:
        assert len(author.forms) == 2
        observed = [
            bundle.corpus[instance[0]].authors[instance[1] - 1]
            for instance in author.instances
        ]
        assert observed == [author.forms[i % 2] for i in range(len(observed))]
        parsed = [parse_name(form) for form in author.forms]
        assert fini_key(parsed[0]) == fini_key(parsed[1])
        assert aini_key(parsed[0]) != aini_key(parsed[1])


def test_synonym_typology_matches_planted():
    cfg = SynthConfig(seed=7, n_authors=400, papers_per_author=(6, 6), synonym_rate=0.05)
    bundle = generate(cfg)
    report = classify_synonym_types(bundle.truth, name_lookup(bundle.corpus, ParsedNames()))
    planted = {
        a.author_id: a.variant
        for a in bundle.authors
        if a.variant in ("surname_variant", "initial_variant", "flipped_order")
    }
    assert report.assignments == planted
    assert report.counts.total_multiform_authors == 20
    assert report.counts.surname_variant == 15
    assert report.counts.initial_variant == 3
    assert report.counts.flipped_order == 2


def test_synonym_rate_drives_fini_recall_deficit():
    # fixed even paper count: split halves are equal, so the per-author
    # recall loss equals its variant-form instance count exactly
    cfg = SynthConfig(
        seed=7, n_authors=400, papers_per_author=(6, 6), max_coauthors=1, synonym_rate=0.05
    )
    bundle = generate(cfg)
    fini = cluster_fini(bundle.corpus)
    scores = b3_scores(bundle.truth, fini)
    share = bundle.manifest["multiform_variant_instance_share"]
    assert share == pytest.approx(0.025, abs=1e-12)
    assert 1.0 - scores.recall == pytest.approx(share, abs=1e-12)
    assert scores.precision == 1.0


def test_midinitial_rate_drives_aini_pair_accuracy():
    # single-author papers and a full citation chain: every extracted pair
    # joins consecutive appearances, and variant authors alternate forms,
    # so the split share equals the author-level variant rate
    cfg = SynthConfig(
        seed=11,
        n_authors=400,
        papers_per_author=(4, 4),
        max_coauthors=1,
        midinitial_variant_rate=0.05,
        selfcitation_rate=1.0,
    )
    bundle = generate(cfg)
    pairs = extract_selfcitation_pairs(bundle.corpus, bundle.citations)
    assert len(pairs) == 400 * 3
    assert pair_accuracy_detail(pairs, cluster_fini(bundle.corpus)).accuracy == 1.0
    assert pair_accuracy_detail(pairs, cluster_aini(bundle.corpus)).accuracy == pytest.approx(
        0.95, abs=1e-12
    )


def test_authority_labels_recover_truth_on_clean_bundle():
    cfg = SynthConfig(
        seed=2,
        n_authors=80,
        authority_coverage=1.0,
        registry_work_coverage=1.0,
        grant_coverage=0.4,
    )
    bundle = generate(cfg)
    result = link_authority(bundle.corpus, bundle.registry)
    assert not result.conflicts
    # full work coverage labels every instance of every author
    assert len(result.labels) == len(bundle.truth)
    truth_of = bundle.truth
    for label in result.labels:
        assert label.label_id == "orc-" + truth_of[label.instance]

    grants = link_grants(bundle.corpus, bundle.grants)
    assert not grants.conflicts
    pi_instances = sum(
        len(a.instances) for a in bundle.authors if a.pi
    )
    assert len(grants.labels) == pi_instances
    for label in grants.labels:
        assert label.label_id == "nih-" + truth_of[label.instance]


def test_ambiguous_bundle_yields_no_incorrect_labels():
    # planted homonyms and duplicate titles create real conflicts; the
    # drop-and-log policy must resolve them without a single wrong label
    cfg = SynthConfig(
        seed=4,
        n_authors=300,
        papers_per_author=(4, 8),
        max_coauthors=6,
        homonym_rate=0.5,
        duplicate_title_rate=0.1,
        authority_coverage=1.0,
        registry_work_coverage=1.0,
    )
    bundle = generate(cfg)
    result = link_authority(bundle.corpus, bundle.registry)
    assert result.conflicts
    truth_of = bundle.truth
    for label in result.labels:
        assert label.label_id == "orc-" + truth_of[label.instance]


def test_attribute_shares_are_exact():
    cfg = SynthConfig(
        seed=3,
        n_authors=5000,
        papers_per_author=(1, 1),
        max_coauthors=1,
        gender_shares={"Male": 0.6746, "Female": 0.3254},
    )
    bundle = generate(cfg)
    dist = distribution(bundle.annotations.values(), "gender")
    assert dist == {"Female": 32.54, "Male": 67.46}


def test_manifest_counts():
    cfg = SynthConfig(
        seed=6,
        n_authors=100,
        papers_per_author=(3, 3),
        homonym_rate=0.1,
        synonym_rate=0.1,
        midinitial_variant_rate=0.1,
        authority_coverage=0.5,
        grant_coverage=0.5,
    )
    bundle = generate(cfg)
    m = bundle.manifest
    assert m["seed"] == 6
    assert m["authors"] == 100
    assert m["homonym_authors"] == 10
    assert m["synonym_authors"] == 10
    assert m["midinitial_authors"] == 10
    assert sum(m["synonym_type_counts"].values()) == 10
    assert m["instances"] == 300
    assert m["profiled_authors"] == sum(1 for a in bundle.authors if a.profiled)
    assert m["pi_authors"] == sum(1 for a in bundle.authors if a.pi)
    assert sum(m["ethnicity_instance_counts"].values()) == 300
    assert sum(m["gender_instance_counts"].values()) == 300
    assert m["config"]["n_authors"] == 100


def test_duplicate_title_rate_plants_copies():
    cfg = SynthConfig(seed=5, n_authors=100, duplicate_title_rate=0.1)
    bundle = generate(cfg)
    expected = bundle.manifest["duplicate_title_papers"]
    assert expected == int(0.1 * len(bundle.corpus))
    titles = [p.raw_title for p in bundle.corpus.values()]
    assert len(titles) - len(set(titles)) >= 1


def test_selfcitation_edges_connect_consecutive_papers():
    cfg = SynthConfig(seed=10, n_authors=40, max_coauthors=1, selfcitation_rate=1.0)
    bundle = generate(cfg)
    expected = sum(len(a.pmids) - 1 for a in bundle.authors)
    assert len(bundle.citations) == expected
    for edge in bundle.citations:
        citing = bundle.corpus.get(edge.citing_pmid)
        cited = bundle.corpus.get(edge.cited_pmid)
        assert (cited.year, cited.pmid) < (citing.year, citing.pmid)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_authors": 0},
        {"papers_per_author": (0, 3)},
        {"papers_per_author": (4, 2)},
        {"max_coauthors": 0},
        {"homonym_rate": -0.1},
        {"synonym_rate": 1.5},
        {"authority_coverage": 2.0},
        {"year_range": (2005, 1999)},
        {"synonym_type_shares": {"surname_variant": 1.0, "bogus": 0.0}},
        {"ethnicity_shares": {}},
        {"gender_shares": {"Male": -1.0}},
    ],
)
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        generate(SynthConfig(seed=1, **kwargs))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_authors": 10**400},
        {"n_authors": 10**11},
        {"papers_per_author": (1, 10**15)},
        {"n_authors": MAX_PLANTED_INSTANCES // 2 + 1, "papers_per_author": (1, 2)},
    ],
)
def test_a_config_over_the_instance_cap_is_refused_before_anything_is_built(monkeypatch, kwargs):
    def build(*args):
        raise AssertionError("the generator started building")

    # the first step that allocates per author
    monkeypatch.setattr(synth, "_assign_roles", build)
    with pytest.raises(ConfigError, match=f"must be <= {MAX_PLANTED_INSTANCES}"):
        generate(SynthConfig(seed=1, **kwargs))


def test_the_instance_cap_admits_a_config_at_the_cap(monkeypatch):
    class Built(Exception):
        pass

    def build(config):
        raise Built

    monkeypatch.setattr(synth, "_assign_roles", build)
    with pytest.raises(Built):
        generate(SynthConfig(seed=1, n_authors=MAX_PLANTED_INSTANCES // 2, papers_per_author=(1, 2)))


def test_role_overflow_rejected():
    with pytest.raises(ConfigError):
        generate(
            SynthConfig(
                seed=1,
                n_authors=10,
                homonym_rate=0.6,
                synonym_rate=0.4,
                midinitial_variant_rate=0.4,
            )
        )


@pytest.fixture(scope="module")
def records():
    """One of each record type, by type name, with the name of one of its fields."""
    config = SynthConfig(seed=4, n_authors=20, authority_coverage=1.0, grant_coverage=1.0)
    bundle = generate(config)
    return {
        type(record).__name__: (record, field)
        for record, field in (
            (config, "seed"),
            (bundle, "corpus"),
            (bundle.authors[0], "author_id"),
            (bundle.corpus[1], "pmid"),
            (next(iter(bundle.registry.values())), "authority_id"),
            (next(iter(bundle.grants.values())), "pi_id"),
            (next(iter(bundle.annotations.values())), "ethnicity"),
        )
    }


RECORD_TYPES = (
    "SynthConfig",
    "Bundle",
    "PlantedAuthor",
    "PaperRecord",
    "AuthorityProfile",
    "GrantRecord",
    "Annotation",
)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_named_tuples_that_reject_assignment(records, name):
    record, field = records[name]
    assert isinstance(record, tuple) and field in record._fields
    before = getattr(record, field)
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("field", ["synonym_type_shares", "ethnicity_shares", "gender_shares"])
def test_config_mapping_defaults_are_read_only(field):
    shares = getattr(SynthConfig(seed=1), field)
    with pytest.raises(TypeError):
        shares["extra"] = 1.0
    assert "extra" not in getattr(SynthConfig(seed=2), field)


@pytest.fixture(scope="module")
def handed_out_ids():
    """Every instance id the program builds, by where it comes from."""
    bundle = generate(
        SynthConfig(
            seed=2,
            n_authors=60,
            homonym_rate=0.3,
            authority_coverage=0.6,
            grant_coverage=0.6,
            selfcitation_rate=0.5,
        )
    )
    authority = link_authority(bundle.corpus, bundle.registry)
    grants = link_grants(bundle.corpus, bundle.grants)
    pairs = extract_selfcitation_pairs(bundle.corpus, bundle.citations)
    return {
        "cluster_fini": list(cluster_fini(bundle.corpus)),
        "PaperRecord.instances": [
            instance for paper in bundle.corpus.values() for instance in paper.instances()
        ],
        "link_authority labels": [label.instance for label in authority.labels],
        "link_authority conflicts": [record.instance for record in authority.conflicts],
        "link_grants labels": [label.instance for label in grants.labels],
        "link_grants conflicts": [record.instance for record in grants.conflicts],
        "extract_selfcitation_pairs": [instance for pair in pairs for instance in pair],
        "synth truth": list(bundle.truth),
        "synth annotations": list(bundle.annotations),
        "synth authors": [instance for author in bundle.authors for instance in author.instances],
    }


@pytest.mark.parametrize(
    "source",
    [
        "cluster_fini",
        "PaperRecord.instances",
        "link_authority labels",
        "link_authority conflicts",
        "link_grants labels",
        "link_grants conflicts",
        "extract_selfcitation_pairs",
        "synth truth",
        "synth annotations",
        "synth authors",
    ],
)
def test_every_instance_id_is_a_plain_tuple(handed_out_ids, source):
    ids = handed_out_ids[source]
    assert ids
    assert {type(instance) for instance in ids} == {tuple}
