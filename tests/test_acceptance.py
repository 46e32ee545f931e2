"""Acceptance suite: one test per primary criterion.

Each test prints a single pass/fail line through the conftest reporting
hook. Tolerances are stated inline next to each assertion.
"""

import filecmp
import hashlib
import json
import random
import time
from collections import Counter

import pytest

from linklab.baseline import ParsedNames, cluster_aini, cluster_fini, name_lookup
from linklab.cli import EXIT_OK, main
from linklab.corpus import Clustering, ingest_corpus, write_clustering
from linklab.linkage import (
    EvalRow,
    extract_selfcitation_pairs,
    label_agreement,
    link_authority,
    link_grants,
)
from linklab.metrics import b3_scores, pair_accuracy_detail, stratified_eval
from linklab.normalize import parse_name
from linklab.profile import (
    block_size_ccdf,
    ccdf_fraction_at_least,
    classify_synonym_types,
    perturb_tags,
    reference_sample,
)
from linklab.synth import SynthConfig, generate, write_bundle

from oracles import clustering_of, make_instances, naive_b3, random_partition


# ---------------------------------------------------------------------------
# shared synthetic bundles

@pytest.fixture(scope="module")
def bundle_midinitial():
    # single-author papers, fixed career length, complete citation chains:
    # every extracted pair joins consecutive appearances of one author
    return generate(
        SynthConfig(
            seed=11,
            n_authors=400,
            papers_per_author=(4, 4),
            max_coauthors=1,
            midinitial_variant_rate=0.05,
            selfcitation_rate=1.0,
        )
    )


@pytest.fixture(scope="module")
def bundle_synonym():
    # even fixed career length: each multiform author splits into two
    # equal halves, so the recall deficit equals the variant instance share
    return generate(
        SynthConfig(
            seed=7,
            n_authors=400,
            papers_per_author=(6, 6),
            max_coauthors=1,
            synonym_rate=0.05,
        )
    )


@pytest.fixture(scope="module")
def bundle_clean():
    return generate(
        SynthConfig(
            seed=2,
            n_authors=80,
            authority_coverage=1.0,
            registry_work_coverage=1.0,
            grant_coverage=0.4,
        )
    )


@pytest.fixture(scope="module")
def bundle_ambiguous():
    return generate(
        SynthConfig(
            seed=4,
            n_authors=300,
            papers_per_author=(4, 8),
            max_coauthors=6,
            homonym_rate=0.5,
            duplicate_title_rate=0.1,
            authority_coverage=1.0,
            registry_work_coverage=1.0,
        )
    )


@pytest.fixture(scope="module")
def bundle_mixed():
    return generate(
        SynthConfig(
            seed=9,
            n_authors=150,
            homonym_rate=0.1,
            synonym_rate=0.1,
            midinitial_variant_rate=0.1,
            selfcitation_rate=0.8,
        )
    )


# ---------------------------------------------------------------------------
# criterion 1

def test_criterion_1_b3_oracle_equivalence_and_scale():
    rng = random.Random(20260814)
    trials = 200
    for _ in range(trials):
        instances = make_instances(rng.randint(1, 50))
        truth = random_partition(rng, instances)
        predicted = random_partition(rng, instances)
        fast = b3_scores(clustering_of(truth), clustering_of(predicted))
        slow = naive_b3(truth, predicted)
        # tolerance: 1e-12 against the per-instance double-loop oracle
        assert abs(fast.recall - slow[0]) <= 1e-12
        assert abs(fast.precision - slow[1]) <= 1e-12
        assert abs(fast.f1 - slow[2]) <= 1e-12

    n = 10**6
    instances = [(i, 1) for i in range(1, n + 1)]
    truth = Clustering.from_assignment(
        {iid: f"t{i // 10}" for i, iid in enumerate(instances)}
    )
    predicted = Clustering.from_assignment(
        {iid: f"p{i // 7}" for i, iid in enumerate(instances)}
    )
    assert len(set(truth.values())) == 10**5
    start = time.perf_counter()
    scores = b3_scores(truth, predicted)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: {trials} oracle trials ok; 1e6 instances in {elapsed:.2f}s")
    assert scores.n == n
    # budget: 10 seconds on commodity hardware
    assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# criterion 2

def test_criterion_2_worked_b3_values():
    a, b, c = (1, 1), (2, 1), (3, 1)
    truth = clustering_of({"t1": {a, b}, "t2": {c}})
    predicted = clustering_of({"p1": {a}, "p2": {b, c}})
    scores = b3_scores(truth, predicted)
    # exact: (2/3, 2/3, 2/3)
    assert scores.recall == 2 / 3
    assert scores.precision == 2 / 3
    assert scores.f1 == 2 / 3

    identity = b3_scores(truth, truth)
    assert (identity.recall, identity.precision, identity.f1) == (1.0, 1.0, 1.0)

    one_cluster = clustering_of({"t": {a, b, c}})
    singletons = clustering_of({"s1": {a}, "s2": {b}, "s3": {c}})
    # singleton predictions can never mix truth clusters
    assert b3_scores(one_cluster, singletons).precision == 1.0
    # a single predicted cluster can never split truth clusters
    assert b3_scores(singletons, one_cluster).recall == 1.0
    print("criterion 2: worked values exact")


# ---------------------------------------------------------------------------
# criterion 3

def test_criterion_3_pair_accuracy_structure(
    bundle_midinitial, bundle_mixed, bundle_clean
):
    checked = 0
    for bundle in (bundle_midinitial, bundle_mixed, bundle_clean):
        pairs = extract_selfcitation_pairs(bundle.corpus, bundle.citations)
        if not pairs:
            continue
        checked += 1
        fini_accuracy = pair_accuracy_detail(pairs, cluster_fini(bundle.corpus)).accuracy
        aini_accuracy = pair_accuracy_detail(pairs, cluster_aini(bundle.corpus)).accuracy
        # exact: both members of a pair share surname and first initial
        assert fini_accuracy == 1.0
        assert aini_accuracy <= fini_accuracy
    assert checked >= 2

    pairs = extract_selfcitation_pairs(
        bundle_midinitial.corpus, bundle_midinitial.citations
    )
    aini_accuracy = pair_accuracy_detail(pairs, cluster_aini(bundle_midinitial.corpus)).accuracy
    planted_rate = 0.05
    # tolerance: 1 - planted rate within +/- 0.01
    assert aini_accuracy == pytest.approx(1.0 - planted_rate, abs=0.01)
    print(f"criterion 3: fini=1.0 exact, aini={aini_accuracy:.6f} vs {1 - planted_rate}")


# ---------------------------------------------------------------------------
# criterion 4

def test_criterion_4_synonym_recall_deficit_and_typology(bundle_synonym):
    scores = b3_scores(bundle_synonym.truth, cluster_fini(bundle_synonym.corpus))
    deficit = 1.0 - scores.recall
    share = bundle_synonym.manifest["multiform_variant_instance_share"]
    # tolerance: +/- 0.5% absolute
    assert deficit == pytest.approx(share, abs=0.005)

    report = classify_synonym_types(
        bundle_synonym.truth, name_lookup(bundle_synonym.corpus, ParsedNames())
    )
    planted = {
        author.author_id: author.variant
        for author in bundle_synonym.authors
        if author.variant in ("surname_variant", "initial_variant", "flipped_order")
    }
    # 100% recovery of planted type assignments
    assert report.assignments == planted

    # constructed worked cases, one per type
    constructed = {
        "a1": ["Prado, Wagner L.", "do Prado, Wagner Luiz"],
        "a2": ["Ng, Patricia M. L.", "Ng, Miang Lon Patricia"],
        "a3": ["Wei, Wang", "Wang, Wei"],
    }
    truth = {}
    constructed_names = {}
    counter = 1
    for cluster_id, forms in constructed.items():
        members = set()
        for raw in forms:
            instance = (counter, 1)
            counter += 1
            members.add(instance)
            constructed_names[instance] = parse_name(raw)
        truth[cluster_id] = members
    constructed_report = classify_synonym_types(clustering_of(truth), constructed_names.get)
    assert constructed_report.assignments == {
        "a1": "surname_variant",
        "a2": "initial_variant",
        "a3": "flipped_order",
    }
    print(f"criterion 4: deficit={deficit:.6f} share={share:.6f}; typology 100%")


# ---------------------------------------------------------------------------
# criterion 5

def test_criterion_5_linkage_soundness(bundle_clean, bundle_ambiguous):
    truth_of = bundle_clean.truth
    authority = link_authority(bundle_clean.corpus, bundle_clean.registry)
    assert authority.conflicts == ()
    # full registry coverage: every planted instance gets its label back
    assert len(authority.labels) == len(bundle_clean.truth)
    for label in authority.labels:
        assert label.label_id == "orc-" + truth_of[label.instance]

    grants = link_grants(bundle_clean.corpus, bundle_clean.grants)
    assert grants.conflicts == ()
    expected = sum(
        len(author.instances) for author in bundle_clean.authors if author.pi
    )
    assert len(grants.labels) == expected
    for label in grants.labels:
        assert label.label_id == "nih-" + truth_of[label.instance]

    # planted homonyms and duplicate titles: ambiguity is dropped and
    # logged, never mislabeled
    truth_of = bundle_ambiguous.truth
    result = link_authority(bundle_ambiguous.corpus, bundle_ambiguous.registry)
    assert len(result.conflicts) > 0
    incorrect = sum(
        1
        for label in result.labels
        if label.label_id != "orc-" + truth_of[label.instance]
    )
    assert incorrect == 0
    print(
        f"criterion 5: clean labels={len(authority.labels)}+{len(grants.labels)}; "
        f"ambiguous dropped={len(result.conflicts)} incorrect={incorrect}"
    )


# ---------------------------------------------------------------------------
# criterion 6

def test_criterion_6_ccdf_contract(bundle_mixed):
    # synthetic population: 10000 blocks, 6347 of size >= 2
    blocks = {}
    key = 0
    for size, count in ((2, 4000), (3, 2000), (7, 347), (1, 3653)):
        for _ in range(count):
            blocks[key] = range(size)
            key += 1
    points = block_size_ccdf(len(members) for members in blocks.values())
    assert points[0] == (1, 1.0)
    fractions = [point.fraction_at_least for point in points]
    assert all(x >= y for x, y in zip(fractions, fractions[1:]))
    # tolerance: +/- 1e-9
    assert ccdf_fraction_at_least(points, 2) == pytest.approx(0.6347, abs=1e-9)

    # generated corpora satisfy the same shape contract
    blocks = cluster_fini(bundle_mixed.corpus)
    generated = block_size_ccdf(Counter(blocks.values()).values())
    assert generated[0] == (1, 1.0)
    generated_fractions = [point.fraction_at_least for point in generated]
    assert all(x >= y for x, y in zip(generated_fractions, generated_fractions[1:]))
    print(f"criterion 6: fraction_at_least(2)={ccdf_fraction_at_least(points, 2):.9f}")


# ---------------------------------------------------------------------------
# criterion 7

def _tagged_dataset() -> tuple[EvalRow, ...]:
    rows = []
    tags = [("English", 100), ("Korean", 57), ("Spanish", 23)]
    index = 0
    for tag, count in tags:
        for _ in range(count):
            index += 1
            rows.append(
                EvalRow(
                    (index, 1),
                    f"t{index // 4}",
                    f"p{index // 3}",
                    1990 + index % 20,
                    tag,
                    "Female" if index % 2 else "Male",
                )
            )
    return tuple(rows)


def test_criterion_7_perturbation_mechanics():
    dataset = _tagged_dataset()
    perturbed = perturb_tags(dataset, 0.10, seed=13)

    changed_by_group = {"English": 0, "Korean": 0, "Spanish": 0}
    for before, after in zip(dataset, perturbed):
        # field-level diff: only the ethnicity tag may move
        assert before._replace(ethnicity="") == after._replace(ethnicity="")
        if before.ethnicity != after.ethnicity:
            changed_by_group[before.ethnicity] += 1
    # exactly floor(0.10 * group size) rows per group
    assert changed_by_group == {"English": 10, "Korean": 5, "Spanish": 2}

    def scores(rows):
        return b3_scores(
            {row.instance: row.truth_label for row in rows},
            {row.instance: row.predicted_cluster_id for row in rows},
        )

    # identical, not merely close: clusters are untouched
    assert scores(dataset) == scores(perturbed)

    strata_before = stratified_eval(dataset, "ethnicity")
    strata_after = stratified_eval(perturbed, "ethnicity")
    assert strata_before["ALL"] == strata_after["ALL"]
    assert strata_before != strata_after
    print(f"criterion 7: changed={changed_by_group}, aggregate scores identical")


# ---------------------------------------------------------------------------
# criterion 8

def test_criterion_8_determinism_and_cli_equivalence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = SynthConfig(
        seed=31,
        n_authors=50,
        homonym_rate=0.1,
        synonym_rate=0.1,
        authority_coverage=1.0,
        selfcitation_rate=0.5,
    )

    # seeded generation: byte-identical across two runs
    write_bundle(generate(config), tmp_path / "run1")
    write_bundle(generate(config), tmp_path / "run2")
    for name in sorted(p.name for p in (tmp_path / "run1").iterdir()):
        assert filecmp.cmp(tmp_path / "run1" / name, tmp_path / "run2" / name, shallow=False)

    bundle = generate(config)
    instances = [i for paper in bundle.corpus.values() for i in paper.instances()]
    assert reference_sample(instances, 10, seed=3) == reference_sample(
        instances, 10, seed=3
    )

    rows = _tagged_dataset()
    assert perturb_tags(rows, 0.10, seed=5) == perturb_tags(rows, 0.10, seed=5)

    # CLI runs into different output directories produce identical bytes
    def run_linkage(out: str) -> dict[str, str]:
        code = main(
            [
                "link-authority",
                "--papers",
                "run1/papers.tsv",
                "--authority",
                "run1/authority.tsv",
                "--out",
                out,
            ]
        )
        assert code == EXIT_OK
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / out).iterdir())
        }

    assert run_linkage("auth1") == run_linkage("auth2")

    # CLI artifacts equal direct API calls on the same inputs
    assert main(["baseline", "--papers", "run1/papers.tsv", "--method", "fini", "--out", "fini"]) == EXIT_OK
    corpus = ingest_corpus(tmp_path / "run1" / "papers.tsv")
    write_clustering(tmp_path / "api.tsv", cluster_fini(corpus))
    assert filecmp.cmp(tmp_path / "api.tsv", tmp_path / "fini" / "clustering.tsv", shallow=False)
    print("criterion 8: runs, output directories, and CLI/API all byte-identical")


# ---------------------------------------------------------------------------
# criterion 9

def test_criterion_9_agreement_flags_single_flip():
    left = {(i, 1): f"t{i // 3}" for i in range(1, 13)}
    right = {**left, (5, 1): "t3"}

    report = label_agreement(left, right)
    assert report.overlap_count == 12
    assert report.agree_count == 11
    assert len(report.disagreements) == 1
    instance, label_left, label_right = report.disagreements[0]
    assert instance == (5, 1)
    assert (label_left, label_right) == ("t1", "t3")
    print("criterion 9: exactly one disagreement, at the flipped instance")
