"""Tests for the synthetic bundle generator."""

import filecmp
import hashlib
import json
import math
from collections import Counter
from collections.abc import Mapping

import pytest

from linklab.baseline import cluster_aini, cluster_fini, name_keys, name_lookup
from linklab.corpus import (
    Annotation,
    groups,
    ingest_annotations,
    ingest_authority,
    ingest_citations,
    ingest_clustering,
    ingest_corpus,
    ingest_grants,
)
from linklab.errors import ConfigError
from linklab.linkage import (
    extract_selfcitation_pairs,
    join_labels,
    link_grants,
    read_eval_dataset,
    read_labels,
    read_pairs,
    write_eval_dataset,
    write_labels,
    write_pairs,
)
from linklab.metrics import pair_accuracy_detail
from linklab.normalize import aini_key, fini_key, parse_name
from linklab.profile import classify_synonym_types, distribution
from linklab import synth
from linklab.synth import (
    BUNDLE_FILES,
    MAX_PLANTED_INSTANCES,
    SYNONYM_TYPES,
    VARIANT_HOMONYM,
    VARIANT_MIDINITIAL,
    SynthConfig,
    generate,
    write_bundle,
)

import oracles


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
    scores = oracles.score_clusterings(bundle.truth, fini)
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


# Bundles whose every written file is pinned by digest. Across the grid
# every SynthConfig field takes a non-default value at least once, so a
# change that moves any random draw, or any written byte, shows here.
PINNED_CONFIGS = {
    "variants": dict(
        n_authors=240,
        homonym_rate=0.2,
        synonym_rate=0.1,
        midinitial_variant_rate=0.1,
        authority_coverage=0.7,
        registry_work_coverage=0.4,
        registry_year_skew=1.0,
        grant_coverage=0.5,
        duplicate_title_rate=0.1,
        selfcitation_rate=0.5,
    ),
    "shares": dict(
        n_authors=300,
        papers_per_author=(1, 9),
        max_coauthors=12,
        synonym_rate=0.2,
        synonym_type_shares={
            "surname_variant": 0.4,
            "initial_variant": 0.35,
            "flipped_order": 0.25,
        },
        authority_coverage=1.0,
        registry_work_coverage=0.6,
        registry_year_skew=0.5,
        year_range=(2001, 2004),
        ethnicity_shares={"English": 0.3, "Chinese": 0.3, "Korean": 0.2, "Indian": 0.2},
        gender_shares={"Male": 0.45, "Female": 0.55},
    ),
    "solo": dict(
        n_authors=150,
        papers_per_author=(3, 3),
        max_coauthors=1,
        homonym_rate=0.4,
        midinitial_variant_rate=0.3,
        grant_coverage=1.0,
        selfcitation_rate=1.0,
        year_range=(1995, 1995),
    ),
}

PINNED_BUNDLE_SHA256 = {
    ("variants", 3): {
        "papers.tsv": "a083436f76a60fc44c2103c173d39df96139218708b5e615f727ac0b74eab846",
        "authority.tsv": "1d7a56a1e1ea3d69ed480895214656893e0720a7e9778a01bce15c70acc20a71",
        "grants.tsv": "c4c94b0183764bfac2649b7b9c6a10b530d59744ae811fc260d56a19d507a52e",
        "citations.tsv": "1f5b6940f51dee8af7642246e2eea38f1b299bea6beb622e9e0567b1b59d5587",
        "annotations.tsv": "998f6a457bd7eec64bf2a01f4d66824bfeb5bac37ca0336a561a4f7fcb53c226",
        "truth_clustering.tsv": "c18561a8544cf4cbe97c46bdb8f3f72c017a289ad1c33b4b86fcf5fca8f29b02",
        "manifest.json": "8e23d69c3a75d6a41adddd28ebcf1f66c805cd5546c31cd8b90a01d6cb2462cf",
    },
    ("variants", 8): {
        "papers.tsv": "acdefda2bfcb3123762c772336b0f163956ff8061266205aff965aae7bc39c05",
        "authority.tsv": "f61efec7023374e0bf55f79c96799c08369e2d36aeb4cd52b722e3b7e837a28a",
        "grants.tsv": "4c7c070756c8ca72a6c553a982642ffdbbd8b4c0394fe3dc9d355dd19e1621bc",
        "citations.tsv": "74f89919f1379e60b9abf5d95d98ab21b2ff60c3621173aaa767302177bd48ea",
        "annotations.tsv": "fe1ad90e7f24bd0fa741e61036eb2c1eeaedd9be98e2f6ab7b258130d7af5638",
        "truth_clustering.tsv": "5eb9a0ce90eb43609787275e13fdb19d8d8c6bbc1b62e7ad7ab6a797dcc412bd",
        "manifest.json": "dee1567cba3a5ade56f67c685e1f455ba3f566fdc3c84d8a1f6ba770e66191d7",
    },
    ("shares", 3): {
        "papers.tsv": "43054663447998d263d399d61a0f2c7639e027eb0b49ee7d4bc2e38659f08626",
        "authority.tsv": "0f880e2b440f66403550c039fbee634b3fca74dcbedb82b4a9d826af70b9b08d",
        "grants.tsv": "36564c64dd53cbe878d73f9ba64447959be780efe1ff8d7d57476c93de8ceb62",
        "citations.tsv": "e164e6adce5fd032b7199441a07b50fbb4bb57498197d818c38a3c5a3da58419",
        "annotations.tsv": "5342babe835d135f8bd634a609cca5c8b22c19c245158f5a943cde0dd027f62f",
        "truth_clustering.tsv": "23def5f72c024e9e09e73a4178ec18fc9ba0615de27ee19279cebbb954c6ed50",
        "manifest.json": "85fa7af3499e42a313bb52c041db611e90c655cbb32c73830919f6b845e8e41f",
    },
    ("shares", 8): {
        "papers.tsv": "9e90004fbda6f2ddda55855be23cca7ed112541069bf62d94eed524899a50ff7",
        "authority.tsv": "2f41b0098b14876660b20ec943625f774d3969ba87079be76b86c46c10f1beba",
        "grants.tsv": "36564c64dd53cbe878d73f9ba64447959be780efe1ff8d7d57476c93de8ceb62",
        "citations.tsv": "e164e6adce5fd032b7199441a07b50fbb4bb57498197d818c38a3c5a3da58419",
        "annotations.tsv": "039dd830123660fd5cbfb30e35b31838811a0e672d840b3b36479042c9489d26",
        "truth_clustering.tsv": "e2d225bc6d8331dbe4e241ca598615d208739d19e17e2c4cc8cbcc33c7f9ad90",
        "manifest.json": "fb664e15a0628358f68df3350256e9c64c49ecb2e97fe56651f1c00a4875a37f",
    },
    ("solo", 3): {
        "papers.tsv": "198eda3f8779041dff7193e3c5d1343e83f050b23bfec7f10cd7fc03efd519b8",
        "authority.tsv": "cb6ab997a517b082de99932ddea238cf2442a197bba7605a3f79ee2bf190d872",
        "grants.tsv": "2447460c4eb26901c6a45f56d182a74b5e3aa52c966937282c4af6701d4a5a24",
        "citations.tsv": "fe08233954bbdbeb2084f1ca52e1c8f88a4f509aaf556f49480bff1d45e7e90a",
        "annotations.tsv": "686088c0e7f83177c7da0d262011fc438d75aed25530b60ec44d92db97b12b68",
        "truth_clustering.tsv": "c669690aff7244145506bb70cc7827c116fb75559516fce445e75026a176f9d3",
        "manifest.json": "1029dcc3c1d11562ed251a8f0b11cb20503457938bd3f705a780c1a705236b05",
    },
    ("solo", 8): {
        "papers.tsv": "6b1b4d545b2d486fb67f46fc6c2afd6b9d5acee74f59777a2149e9b23d0cfee1",
        "authority.tsv": "cb6ab997a517b082de99932ddea238cf2442a197bba7605a3f79ee2bf190d872",
        "grants.tsv": "c3e4951af7d757e287ae03e722705fefd7a30c023264210e0c5c30a2510e4ad8",
        "citations.tsv": "848525ba539824ffec894dc1e512729cfeb7038ca52670b35e5079ff7ee076f7",
        "annotations.tsv": "fec934ec070f864dea850c63aae67af263def32b228af11105ef45dd47b15cf7",
        "truth_clustering.tsv": "e83720d624cfea47522c82c4c1595f9ea25fa6779af143f37ae806fc54ba7f9f",
        "manifest.json": "65a66001009a2ecbe3c9385e728298594ab156138168936878054b880ec7a365",
    },
}


def test_the_pinned_grid_sets_every_config_field_off_its_default():
    defaults = SynthConfig(seed=0)
    for field in SynthConfig._fields[1:]:
        assert any(
            getattr(SynthConfig(seed=0, **kwargs), field) != getattr(defaults, field)
            for kwargs in PINNED_CONFIGS.values()
        ), field


@pytest.mark.parametrize("name, seed", sorted(PINNED_BUNDLE_SHA256))
def test_written_bundle_bytes_are_pinned(tmp_path, name, seed):
    write_bundle(generate(SynthConfig(seed=seed, **PINNED_CONFIGS[name])), tmp_path)
    digests = {
        file: hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() for file in BUNDLE_FILES
    }
    assert digests == PINNED_BUNDLE_SHA256[name, seed]


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
    assert ingest_authority(tmp_path / "authority.tsv", lambda title, name: title) == {
        authority_id: (p.person_name, set(p.work_titles))
        for authority_id, p in bundle.registry.items()
    }
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
            bundle.corpus[pmid].authors[position - 1]
            for pmid, position in map(oracles.pair_of, author.instances)
        ]
        assert observed == [author.forms[i % 2] for i in range(len(observed))]
        parsed = [parse_name(form) for form in author.forms]
        assert fini_key(parsed[0]) == fini_key(parsed[1])
        assert aini_key(parsed[0]) != aini_key(parsed[1])


def test_synonym_typology_matches_planted():
    cfg = SynthConfig(seed=7, n_authors=400, papers_per_author=(6, 6), synonym_rate=0.05)
    bundle = generate(cfg)
    forms = name_keys(bundle.corpus, str)
    report = classify_synonym_types(bundle.truth, name_lookup(bundle.corpus, forms))
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
    scores = oracles.score_clusterings(bundle.truth, fini)
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
    result = oracles.link_registry(bundle.corpus, bundle.registry)
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
    result = oracles.link_registry(bundle.corpus, bundle.registry)
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
        duplicate_title_rate=0.1,
        selfcitation_rate=0.5,
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
    assert sum(m["ethnicity_instance_counts"].values()) == 300
    assert sum(m["gender_instance_counts"].values()) == 300
    assert m["config"]["n_authors"] == 100

    # every field again, recounted naively from the bundle's tables
    authors, corpus = bundle.authors, bundle.corpus
    instances = sum(len(paper.authors) for paper in corpus.values())

    def second_form_share(kinds):
        printed = [
            corpus[pmid].authors[position - 1] == author.forms[1]
            for author in authors
            if author.variant in kinds
            for pmid, position in map(oracles.pair_of, author.instances)
        ]
        return sum(printed) / instances

    def instance_counts(tag):
        counts = Counter()
        for author in authors:
            counts[getattr(author, tag)] += len(author.instances)
        return dict(counts)

    def plain(value):
        if isinstance(value, tuple):
            return list(value)
        return dict(value) if isinstance(value, Mapping) else value

    # a planted copy carries another paper's title, so another pmid's suffix
    copies = sum(
        not paper.raw_title.endswith(f" x{synth._b26(pmid)}") for pmid, paper in corpus.items()
    )
    assert copies == math.floor(cfg.duplicate_title_rate * len(corpus))
    assert m == {
        "seed": cfg.seed,
        "authors": len(authors),
        "papers": len(corpus),
        "instances": instances,
        "homonym_authors": sum(a.variant == VARIANT_HOMONYM for a in authors),
        "synonym_authors": sum(a.variant in SYNONYM_TYPES for a in authors),
        "synonym_type_counts": {
            kind: sum(a.variant == kind for a in authors) for kind in SYNONYM_TYPES
        },
        "midinitial_authors": sum(a.variant == VARIANT_MIDINITIAL for a in authors),
        "multiform_variant_instance_share": second_form_share(SYNONYM_TYPES),
        "midinitial_variant_instance_share": second_form_share((VARIANT_MIDINITIAL,)),
        "profiled_authors": sum(a.profiled for a in authors),
        "pi_authors": sum(a.pi for a in authors),
        "citation_edges": len(bundle.citations),
        "duplicate_title_papers": copies,
        "ethnicity_instance_counts": instance_counts("ethnicity"),
        "gender_instance_counts": instance_counts("gender"),
        "config": {field: plain(value) for field, value in cfg._asdict().items()},
    }
    assert m["profiled_authors"] == len(bundle.registry)
    assert m["pi_authors"] == len(bundle.grants)


def _career(bundle, author):
    """An author's (year, pmid, position) appearances in order."""
    return sorted(
        (bundle.corpus[pmid].year, pmid, position)
        for pmid, position in map(oracles.pair_of, author.instances)
    )


@pytest.mark.parametrize("skew", [0.0, 1.0])
def test_registry_knobs_choose_how_many_and_which_works(skew):
    cfg = SynthConfig(
        seed=13,
        n_authors=200,
        papers_per_author=(1, 9),
        authority_coverage=1.0,
        registry_work_coverage=0.4,
        registry_year_skew=skew,
    )
    bundle = generate(cfg)
    assert len(bundle.registry) == 200
    profiles_last_works = []
    for author in bundle.authors:
        career = _career(bundle, author)
        k = max(1, round(0.4 * len(career)))
        profile = bundle.registry["orc-" + author.author_id]
        # titles are unique without duplicate_title_rate: k works, k titles
        assert len(profile.work_titles) == k
        last = {bundle.corpus[pmid].raw_title for _, pmid, _ in career[-k:]}
        profiles_last_works.append(profile.work_titles == last)
    if skew == 1.0:
        assert all(profiles_last_works)
    else:
        assert not all(profiles_last_works)


def test_an_author_shares_one_annotation_across_its_instances():
    bundle = generate(
        SynthConfig(seed=4, n_authors=80, homonym_rate=0.2, synonym_rate=0.2)
    )
    for author in bundle.authors:
        annotations = {id(bundle.annotations[instance]) for instance in author.instances}
        assert len(annotations) == 1
        assert bundle.annotations[author.instances[0]] == Annotation(author.ethnicity, author.gender)
    assert len({id(annotation) for annotation in bundle.annotations.values()}) == 80


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
def handed_out_ids(tmp_path_factory):
    """Every instance id the program builds or reads, by where it comes from."""
    out = tmp_path_factory.mktemp("ids")
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
    authority = oracles.link_registry(bundle.corpus, bundle.registry)
    grants = link_grants(bundle.corpus, bundle.grants)
    pairs = extract_selfcitation_pairs(bundle.corpus, bundle.citations)
    write_bundle(bundle, out)
    write_labels(out / "labels.tsv", authority.labels)
    write_pairs(out / "pairs.tsv", pairs)
    truth, labels = out / "truth_clustering.tsv", out / "labels.tsv"
    joined = join_labels(labels, truth, out / "papers.tsv", out / "annotations.tsv")
    write_eval_dataset(out / "eval.tsv", joined.rows)
    read = read_labels(labels)[0]
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
        "ingest_clustering": list(ingest_clustering(truth)),
        "ingest_clustering onto": list(ingest_clustering(truth, onto=dict(read))),
        "read_labels": list(read),
        "read_pairs": [instance for pair in read_pairs(out / "pairs.tsv") for instance in pair],
        "read_eval_dataset": [row.instance for row in read_eval_dataset(out / "eval.tsv")],
        "ingest_annotations onto": list(
            ingest_annotations(out / "annotations.tsv", onto=dict.fromkeys(read))
        ),
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
        "ingest_clustering",
        "ingest_clustering onto",
        "read_labels",
        "read_pairs",
        "read_eval_dataset",
        "ingest_annotations onto",
    ],
)
def test_every_instance_id_is_a_plain_int(handed_out_ids, source):
    ids = handed_out_ids[source]
    assert ids
    assert {type(instance) for instance in ids} == {int}
