"""Synthetic corpora with planted ground truth.

The generator plants every phenomenon the pipelines must handle with
constructed, non-incidental name collisions: homonym pairs (same
blocking key, different initials), cross-block synonym authors (two
name forms with different blocking keys, one per typology type),
within-block variants (same blocking key, an extra middle initial),
duplicate titles, authority/grant coverage, and self-citation edges.

Instance-level bookkeeping is kept so oracle tests can check pipeline
output against the planted truth. Output is deterministic per seed: a
single seeded RNG drives all choices, and regeneration is
byte-identical when written. The config, the planted authors and the
bundle are NamedTuples, like the corpus records.

`generate` draws the bylines, years and titles, then takes each author
once, in author order: its instances, the name forms it writes into its
bylines' slots, its `PlantedAuthor`, profile, grant, self-citation
edges, one shared `Annotation`, its truth entries and its manifest
tallies. Each author's list of instances is dropped as its turn ends;
the byline lists, titles and years live until `generate` returns.

This is a test rig, not a statistically faithful bibliography model.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .corpus import (
    Annotation,
    AuthorityProfile,
    CitationEdge,
    Clustering,
    Corpus,
    GrantRecord,
    InstanceID,
    PaperRecord,
    write_annotations,
    write_authority,
    write_citations,
    write_clustering,
    write_corpus,
    write_grants,
)
from .errors import ConfigError, echo
from .profile import TYPE_FLIPPED, TYPE_INITIAL, TYPE_SURNAME

VARIANT_HOMONYM = "homonym"
VARIANT_MIDINITIAL = "midinitial"
SYNONYM_TYPES = (TYPE_SURNAME, TYPE_INITIAL, TYPE_FLIPPED)

# The most instances a config may plant: n_authors times the upper bound of
# papers_per_author. It sits far above any bundle the tests or the benchmark
# make (the 100k-author bundle plants about 400k) and keeps a config of
# absurd size from the generator's lists, where it would end in a
# MemoryError or OverflowError traceback.
MAX_PLANTED_INSTANCES = 10_000_000

_TITLE_WORDS = (
    "analysis",
    "clinical",
    "cohort",
    "effects",
    "expression",
    "factors",
    "model",
    "outcomes",
    "pathways",
    "response",
)


class SynthConfig(NamedTuple):
    """Knobs for one generated bundle; rates are author-level shares.

    A default is one object shared by every config, so the mapping
    defaults are read-only views.
    """

    seed: int
    n_authors: int = 100
    papers_per_author: tuple[int, int] = (2, 6)
    max_coauthors: int = 4
    homonym_rate: float = 0.0
    synonym_rate: float = 0.0
    synonym_type_shares: Mapping[str, float] = MappingProxyType(
        {TYPE_SURNAME: 0.77, TYPE_INITIAL: 0.15, TYPE_FLIPPED: 0.08}
    )
    midinitial_variant_rate: float = 0.0
    authority_coverage: float = 0.0
    registry_work_coverage: float = 1.0
    registry_year_skew: float = 0.0
    grant_coverage: float = 0.0
    duplicate_title_rate: float = 0.0
    selfcitation_rate: float = 0.0
    year_range: tuple[int, int] = (1991, 2009)
    ethnicity_shares: Mapping[str, float] = MappingProxyType(
        {"English": 0.6, "Korean": 0.25, "Spanish": 0.15}
    )
    gender_shares: Mapping[str, float] = MappingProxyType({"Male": 0.5, "Female": 0.5})


class PlantedAuthor(NamedTuple):
    """Ground truth for one author; form of instances[i] is forms[i % len(forms)]."""

    author_id: str
    forms: tuple[str, ...]
    variant: str | None
    ethnicity: str
    gender: str
    profiled: bool
    pi: bool
    pmids: tuple[int, ...]
    instances: tuple[InstanceID, ...]


class Bundle(NamedTuple):
    corpus: Corpus
    registry: dict[str, AuthorityProfile]
    grants: dict[str, GrantRecord]
    citations: tuple[CitationEdge, ...]
    annotations: dict[InstanceID, Annotation]
    truth: Clustering
    authors: tuple[PlantedAuthor, ...]
    manifest: dict


def _b26(n: int) -> str:
    letters = []
    n += 1
    while n:
        n, r = divmod(n - 1, 26)
        letters.append(chr(97 + r))
    return "".join(reversed(letters))


def _check_rate(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be in [0, 1], got {echo(str(value))}")


def _quota(shares: Mapping[str, float], total: int, name: str) -> list[str]:
    """Keys in sorted order, each repeated its largest-remainder share of total times."""
    items = sorted(shares.items())
    if not items:
        raise ConfigError(f"{name} must not be empty")
    for key, share in items:
        # NaN fails every comparison, so it would also pass the sum check
        if not (math.isfinite(share) and share >= 0):
            raise ConfigError(f"{name}[{echo(key)}] must be a finite non-negative number")
    if abs(sum(share for _, share in items) - 1.0) > 1e-9:
        raise ConfigError(f"{name} must sum to 1")
    counts = {key: math.floor(share * total + 1e-12) for key, share in items}
    # largest remainder first; the sort is stable, so ties stay in key order
    by_remainder = sorted(items, key=lambda item: counts[item[0]] - item[1] * total)
    for i in range(total - sum(counts.values())):
        counts[by_remainder[i][0]] += 1
    return [key for key, count in counts.items() for _ in range(count)]


def _validate(config: SynthConfig) -> None:
    if config.n_authors < 1:
        raise ConfigError(f"n_authors must be >= 1, got {echo(str(config.n_authors))}")
    lo, hi = config.papers_per_author
    if lo < 1 or lo > hi:
        raise ConfigError(
            f"papers_per_author must satisfy 1 <= lo <= hi, got {echo(str((lo, hi)))}"
        )
    if config.n_authors * hi > MAX_PLANTED_INSTANCES:
        raise ConfigError(
            f"n_authors * papers_per_author[1] must be <= {MAX_PLANTED_INSTANCES},"
            f" got {echo(str(config.n_authors))} * {echo(str(hi))}"
        )
    if config.max_coauthors < 1:
        raise ConfigError("max_coauthors must be >= 1")
    if config.year_range[0] > config.year_range[1]:
        raise ConfigError(f"invalid year_range {echo(str(config.year_range))}")
    for name in (
        "homonym_rate",
        "synonym_rate",
        "midinitial_variant_rate",
        "authority_coverage",
        "registry_work_coverage",
        "registry_year_skew",
        "grant_coverage",
        "duplicate_title_rate",
        "selfcitation_rate",
    ):
        _check_rate(getattr(config, name), name)
    unknown = set(config.synonym_type_shares) - set(SYNONYM_TYPES)
    if unknown:
        raise ConfigError(f"unknown synonym types {echo(', '.join(sorted(unknown)))}")


def _assign_roles(config: SynthConfig) -> list[str | None]:
    n = config.n_authors
    n_synonym = round(config.synonym_rate * n)
    n_homonym = 2 * math.floor(config.homonym_rate * n / 2)
    n_mid = round(config.midinitial_variant_rate * n)
    if n_synonym + n_homonym + n_mid > n:
        raise ConfigError(
            "synonym_rate + homonym_rate + midinitial_variant_rate exceed the author pool"
        )
    roles: list[str | None] = []
    roles.extend(_quota(config.synonym_type_shares, n_synonym, "synonym_type_shares"))
    roles.extend([VARIANT_HOMONYM] * n_homonym)
    roles.extend([VARIANT_MIDINITIAL] * n_mid)
    roles.extend([None] * (n - len(roles)))
    return roles


def _make_forms(role: str | None, index: int, partner_of: int | None) -> tuple[str, ...]:
    base = partner_of if partner_of is not None else index
    surname = "s" + _b26(base)
    forename = "f" + _b26(base)
    primary = f"{surname.capitalize()}, {forename.capitalize()}"
    if partner_of is not None:
        # Homonym partner: same blocking key as the lead, extra initial.
        return (f"{surname.capitalize()}, {forename.capitalize()} Q",)
    if role == TYPE_SURNAME:
        return (primary, f"Do{surname}, {forename.capitalize()}")
    if role == TYPE_INITIAL:
        return (primary, f"{surname.capitalize()}, E{forename}")
    if role == TYPE_FLIPPED:
        return (primary, f"{forename.capitalize()}, {surname.capitalize()}")
    if role == VARIANT_MIDINITIAL:
        return (primary, f"{surname.capitalize()}, {forename.capitalize()} Q")
    return (primary,)


def _bylines(rng: random.Random, config: SynthConfig) -> list[list]:
    """Author-index bylines: every paper slot shuffled, cut at a repeat or at the drawn size."""
    lo, hi = config.papers_per_author
    slots = [author for author in range(config.n_authors) for _ in range(rng.randint(lo, hi))]
    rng.shuffle(slots)
    bylines: list[list] = []
    current: list[int] = []
    seen: set[int] = set()
    target = rng.randint(1, config.max_coauthors)
    for author in slots:
        if author in seen or len(current) == target:
            bylines.append(current)
            current, seen = [], set()
            target = rng.randint(1, config.max_coauthors)
        current.append(author)
        seen.add(author)
    if current:
        bylines.append(current)
    return bylines


def generate(config: SynthConfig) -> Bundle:
    """Build a corpus bundle with planted truth, fixed per config.seed."""
    _validate(config)
    rng = random.Random(config.seed)
    n = config.n_authors
    roles = _assign_roles(config)

    # Homonym authors pair up: the second of each pair shadows the first.
    homonym_indices = [i for i, role in enumerate(roles) if role == VARIANT_HOMONYM]
    partner = dict(zip(homonym_indices[1::2], homonym_indices[::2]))
    ethnicities = _quota(config.ethnicity_shares, n, "ethnicity_shares")
    genders = _quota(config.gender_shares, n, "gender_shares")

    bylines = _bylines(rng, config)
    year_lo, year_hi = config.year_range
    years = [rng.randint(year_lo, year_hi) for _ in bylines]
    titles = [
        f"Study of {rng.choice(_TITLE_WORDS)} {rng.choice(_TITLE_WORDS)} "
        f"{rng.choice(_TITLE_WORDS)} x{_b26(pmid)}"
        for pmid in range(1, len(bylines) + 1)
    ]
    n_duplicates = math.floor(config.duplicate_title_rate * len(bylines))
    if n_duplicates:
        for index in rng.sample(range(len(titles)), n_duplicates):
            source = rng.randrange(len(titles))
            while source == index:
                source = rng.randrange(len(titles))
            titles[index] = titles[source]

    # Each author's instances in pmid order. An author is on a byline at
    # most once, so its turn below orders them by (year, pmid) with a
    # stable sort on year alone.
    careers: list[list[InstanceID]] = [[] for _ in range(n)]
    for pmid, byline in enumerate(bylines, start=1):
        for position, author in enumerate(byline, start=1):
            careers[author].append((pmid, position))

    profiled_flags = [rng.random() < config.authority_coverage for _ in range(n)]
    pi_flags = [rng.random() < config.grant_coverage for _ in range(n)]
    authors: list[PlantedAuthor] = []
    registry: dict[str, AuthorityProfile] = {}
    grants: dict[str, GrantRecord] = {}
    edges: set[CitationEdge] = set()
    annotations: dict[InstanceID, Annotation] = {}
    truth = Clustering()
    # manifest tallies; a variant author's second form holds k // 2 of its k instances
    second_forms: Counter[str | None] = Counter()
    ethnicity_counts: Counter[str] = Counter()
    gender_counts: Counter[str] = Counter()
    for index, career in enumerate(careers):
        career.sort(key=lambda instance: years[instance[0] - 1])
        # The tuple takes the list's place, so each list goes once used.
        instances = careers[index] = tuple(career)
        author_id = "a" + _b26(index)
        forms = _make_forms(roles[index], index, partner.get(index))
        annotation = Annotation(ethnicities[index], genders[index])
        # Forms alternate along the career, written straight into the bylines.
        for i, instance in enumerate(instances):
            pmid, position = instance
            bylines[pmid - 1][position - 1] = forms[i % len(forms)]
            annotations[instance] = annotation
            truth[instance] = author_id
        second_forms[roles[index]] += len(instances) // 2
        ethnicity_counts[ethnicities[index]] += len(instances)
        gender_counts[genders[index]] += len(instances)
        pmids = tuple(pmid for pmid, _ in instances)
        authors.append(
            PlantedAuthor(
                author_id=author_id,
                forms=forms,
                variant=roles[index],
                ethnicity=ethnicities[index],
                gender=genders[index],
                profiled=profiled_flags[index],
                pi=pi_flags[index],
                pmids=pmids,
                instances=instances,
            )
        )
        if profiled_flags[index]:
            k_works = max(1, round(config.registry_work_coverage * len(pmids)))
            if rng.random() < config.registry_year_skew:
                chosen = pmids[-k_works:]
            else:
                chosen = rng.sample(pmids, k_works)
            registry["orc-" + author_id] = AuthorityProfile(
                authority_id="orc-" + author_id,
                person_name=forms[0],
                work_titles=frozenset(titles[pmid - 1] for pmid in chosen),
            )
        if pi_flags[index]:
            grants["nih-" + author_id] = GrantRecord(
                pi_id="nih-" + author_id, pi_name=forms[0], funded_pmids=frozenset(pmids)
            )
        for earlier, later in zip(pmids, pmids[1:]):
            if rng.random() < config.selfcitation_rate:
                edges.add(CitationEdge(citing_pmid=later, cited_pmid=earlier))

    papers: Corpus = {
        pmid: PaperRecord(pmid=pmid, year=year, raw_title=title, authors=tuple(byline))
        for pmid, (year, title, byline) in enumerate(zip(years, titles, bylines), start=1)
    }

    variants = Counter(roles)
    n_instances = len(truth)
    multiform_instances = sum(second_forms[kind] for kind in SYNONYM_TYPES)
    manifest = {
        "seed": config.seed,
        "authors": n,
        "papers": len(papers),
        "instances": n_instances,
        "homonym_authors": variants[VARIANT_HOMONYM],
        "synonym_authors": sum(variants[kind] for kind in SYNONYM_TYPES),
        "synonym_type_counts": {kind: variants[kind] for kind in SYNONYM_TYPES},
        "midinitial_authors": variants[VARIANT_MIDINITIAL],
        "multiform_variant_instance_share": multiform_instances / n_instances,
        "midinitial_variant_instance_share": second_forms[VARIANT_MIDINITIAL] / n_instances,
        "profiled_authors": sum(profiled_flags),
        "pi_authors": sum(pi_flags),
        "citation_edges": len(edges),
        "duplicate_title_papers": n_duplicates,
        "ethnicity_instance_counts": dict(sorted(ethnicity_counts.items())),
        "gender_instance_counts": dict(sorted(gender_counts.items())),
        "config": _config_dict(config),
    }
    return Bundle(
        corpus=papers,
        registry=registry,
        grants=grants,
        citations=tuple(sorted(edges)),
        annotations=annotations,
        truth=truth,
        authors=tuple(authors),
        manifest=manifest,
    )


def _config_dict(config: SynthConfig) -> dict:
    raw = config._asdict()
    raw["papers_per_author"] = list(config.papers_per_author)
    raw["year_range"] = list(config.year_range)
    for key in ("synonym_type_shares", "ethnicity_shares", "gender_shares"):
        raw[key] = dict(sorted(raw[key].items()))
    return raw


BUNDLE_FILES = (
    "papers.tsv",
    "authority.tsv",
    "grants.tsv",
    "citations.tsv",
    "annotations.tsv",
    "truth_clustering.tsv",
    "manifest.json",
)


def write_bundle(bundle: Bundle, out_dir: str | Path) -> None:
    """Write all bundle tables plus manifest.json into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_corpus(out / "papers.tsv", bundle.corpus)
    write_authority(out / "authority.tsv", bundle.registry)
    write_grants(out / "grants.tsv", bundle.grants)
    write_citations(out / "citations.tsv", bundle.citations)
    write_annotations(out / "annotations.tsv", bundle.annotations)
    write_clustering(out / "truth_clustering.tsv", bundle.truth)
    (out / "manifest.json").write_text(
        json.dumps(bundle.manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
