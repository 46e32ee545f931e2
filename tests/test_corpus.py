"""Data model and TSV ingestion."""

import gzip
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linklab.corpus import (
    Clustering,
    PaperRecord,
    format_instance_id,
    groups,
    ingest_annotations,
    ingest_authority,
    ingest_citations,
    ingest_clustering,
    ingest_corpus,
    ingest_grants,
    ingest_paper_years,
    parse_instance_id,
    write_annotations,
    write_authority,
    write_citations,
    write_clustering,
    write_corpus,
    write_grants,
)
from linklab.errors import IngestError, ParseError
from linklab.linkage import LabeledInstance, index_labels

import oracles
from oracles import TwoCopyClustering, clustering_of, write_two_copy_clustering


def write_tsv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_instance_id():
    assert parse_instance_id("1234567_2") == (1234567, 2)
    assert parse_instance_id("1701372_1") == (1701372, 1)


def test_instance_id_round_trip():
    for text in ("1_1", "1234567_2", "999999999_40"):
        assert format_instance_id(parse_instance_id(text)) == text


@pytest.mark.parametrize(
    "bad", ["", "12", "_1", "12_", "12_0", "0_1", "-3_1", "12_1_1", "a_1", "12_b", "1.0_2"]
)
def test_parse_instance_id_rejects(bad):
    with pytest.raises(ParseError):
        parse_instance_id(bad)


def _parsed(parse, text):
    """What a parser makes of `text`: its result, or its error message."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


# text built from the characters an instance id is made of, plus look-alikes:
# a full-width digit, a Unicode digit of another script, signs, a space, a newline
ID_LIKE = st.text(alphabet="0123456789_+- \n\uff11\u0663", max_size=12)


@given(st.one_of(st.text(max_size=12), ID_LIKE))
@example("0_1")
@example("1_0")
@example("007_1")
@example("+1_2")
@example("1_2_3")
@example(" 1_2")
@example("1_2\n")
@example("\uff11_2")
@example("_1")
@example("1_")
def test_parse_instance_id_matches_the_earlier_parser(text):
    new, old = _parsed(parse_instance_id, text), _parsed(oracles.parse_instance_id, text)
    assert new == old
    if type(old) is tuple:
        assert type(new) is tuple and hash(new) == hash(old)


def test_ingest_corpus(tmp_path):
    path = write_tsv(
        tmp_path / "papers.tsv",
        "pmid\tyear\ttitle\tauthors\n"
        "3\t1999\tThird paper\tSmith, John|Lee, Ann\n"
        "1\t2001\tFirst paper\tSolo, Han\n"
        "2\t2005\tSecond paper\tOne, A|Two, B|Three, C\n",
    )
    corpus = ingest_corpus(path)
    assert len(corpus) == 3
    assert corpus[3].authors == ("Smith, John", "Lee, Ann")
    assert corpus[1].year == 2001
    assert list(corpus) == [3, 1, 2]  # row order of the file
    assert sorted(i for paper in corpus.values() for i in paper.instances()) == [
        (1, 1),
        (2, 1),
        (2, 2),
        (2, 3),
        (3, 1),
        (3, 2),
    ]
    assert corpus[3].authors[2 - 1] == "Lee, Ann"


def test_ingest_paper_years_keeps_the_year_and_byline_length(tmp_path):
    path = write_tsv(
        tmp_path / "papers.tsv",
        "pmid\tyear\ttitle\tauthors\n"
        "3\t1999\tThird paper\tSmith, John|Lee, Ann\n"
        "1\t2001\tFirst paper\tSolo, Han\n"
        "2\t1999\tSecond paper\tOne, A|Two, B\n",
    )
    years = ingest_paper_years(path)
    assert years == {pmid: (paper.year, len(paper.authors)) for pmid, paper in ingest_corpus(path).items()}
    assert list(years) == [3, 1, 2]  # row order of the file
    assert years[3] is years[2]  # equal pairs share one tuple


def test_ingest_corpus_duplicate_pmid_errors_at_second_row(tmp_path):
    path = write_tsv(
        tmp_path / "papers.tsv",
        "pmid\tyear\ttitle\tauthors\n"
        "7\t1999\tOne\tA, B\n"
        "8\t1999\tTwo\tA, B\n"
        "7\t2000\tThree\tA, B\n",
    )
    with pytest.raises(IngestError, match="duplicate pmid '7'") as err:
        ingest_corpus(path)
    assert err.value.row == 3


def test_year_takes_a_minus_sign_and_leading_zeros(tmp_path):
    path = write_tsv(
        tmp_path / "papers.tsv",
        "pmid\tyear\ttitle\tauthors\n1\t-5\tOne\tA, B\n2\t007\tTwo\tA, B\n",
    )
    corpus = ingest_corpus(path)
    assert (corpus[1].year, corpus[2].year) == (-5, 7)


@pytest.mark.parametrize(
    "row,message",
    [
        ("7\t\tTitle here\tA, B", "year"),
        ("7\t1999\t\tA, B", "title"),
        ("7\t1999\tTitle here\t", "author"),
        ("7\t1999\tTitle here\tA, B||C, D", "author"),
        ("0\t1999\tTitle here\tA, B", "pmid"),
        ("7\t1999\tTitle here", "columns"),
    ],
)
def test_ingest_corpus_bad_rows(tmp_path, row, message):
    path = write_tsv(tmp_path / "papers.tsv", f"pmid\tyear\ttitle\tauthors\n{row}\n")
    with pytest.raises(IngestError, match=message) as err:
        ingest_corpus(path)
    assert err.value.row == 1


def test_ingest_corpus_bad_header(tmp_path):
    path = write_tsv(tmp_path / "papers.tsv", "pmid\tyear\ttitle\n1\t1999\tT\n")
    with pytest.raises(IngestError, match="header"):
        ingest_corpus(path)


def test_ingest_corpus_gzip(tmp_path):
    path = tmp_path / "papers.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("pmid\tyear\ttitle\tauthors\n1\t1999\tOnly one\tSolo, Han\n")
    corpus = ingest_corpus(path)
    assert corpus[1].raw_title == "Only one"


def test_ingest_clustering(tmp_path):
    path = write_tsv(
        tmp_path / "clustering.tsv",
        "cluster_id\tinstance_id\nA\t1_1\nA\t2_1\nB\t3_1\n",
    )
    clustering = ingest_clustering(path)
    assert groups(clustering) == {
        "A": [(1, 1), (2, 1)],
        "B": [(3, 1)],
    }
    assert clustering[(2, 1)] == "A"


def test_ingest_clustering_rejects_double_assignment(tmp_path):
    path = write_tsv(
        tmp_path / "clustering.tsv",
        "cluster_id\tinstance_id\nA\t1_1\nB\t1_1\n",
    )
    with pytest.raises(IngestError, match="already assigned") as err:
        ingest_clustering(path)
    assert err.value.row == 2


def test_kept_instances_are_keyed_by_the_labels_own_tuples(tmp_path):
    labels = [LabeledInstance((1, 1), "a", "authority"), LabeledInstance((3, 1), "b", "grant")]
    keep = index_labels(labels).labels
    clustering = ingest_clustering(
        write_tsv(tmp_path / "pred.tsv", "cluster_id\tinstance_id\nA\t01_1\nB\t2_1\nA\t3_1\n"), keep=keep
    )
    annotations = ingest_annotations(
        write_tsv(tmp_path / "ann.tsv", "instance_id\tethnicity\tgender\n2_1\tE\tM\n3_1\tE\tM\n"), keep=keep
    )
    assert dict(clustering) == {(1, 1): "A", (3, 1): "A"}
    assert list(annotations) == [(3, 1)]
    for kept in (clustering, annotations):
        for instance in kept:
            assert instance is keep[instance].instance


@pytest.mark.parametrize(
    "reader,text,row,message",
    [
        (ingest_clustering, "cluster_id\tinstance_id\nA\t1_1\nB\t5_1\nC\t05_1\n", 3,
         "instance '05_1' already assigned to cluster 'B'"),
        (ingest_clustering, "cluster_id\tinstance_id\nA\t1_1\nB\t5_x\n", 2, "is not of the form"),
        (ingest_clustering, "cluster_id\tinstance_id\nA\t1_1\n\t5_1\n", 2, "empty cluster_id"),
        (ingest_annotations, "instance_id\tethnicity\tgender\n1_1\tE\tM\n5_1\tE\tM\n5_1\tK\tF\n", 3,
         "duplicate annotation for instance '5_1'"),
        (ingest_annotations, "instance_id\tethnicity\tgender\n1_1\tE\tM\n5_x\tE\tM\n", 2,
         "is not of the form"),
    ],
)
def test_keep_still_checks_the_rows_it_does_not_keep(tmp_path, reader, text, row, message):
    keep = index_labels([LabeledInstance((1, 1), "a", "authority")]).labels
    with pytest.raises(IngestError, match=message) as err:
        reader(write_tsv(tmp_path / "table.tsv", text), keep=keep)
    assert err.value.row == row


def test_clustering_round_trip(tmp_path):
    clustering = clustering_of(
        {
            "x9": {(5, 2), (1, 1)},
            "x10": {(2, 1)},
        }
    )
    path = tmp_path / "clustering.tsv"
    write_clustering(path, clustering)
    assert ingest_clustering(path) == clustering
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["cluster_id\tinstance_id", "x10\t2_1", "x9\t1_1", "x9\t5_2"]


INSTANCES = st.tuples(st.integers(1, 4), st.integers(1, 2))
CLUSTER_IDS = st.sampled_from(["", "a", "b", "c10", "c9", "\u00e9"])
# any group mapping: may overlap, hold an empty cluster or an empty id
GROUP_MAPPINGS = st.dictionaries(CLUSTER_IDS, st.lists(INSTANCES, max_size=4), max_size=5)
# a partition, as an instance -> cluster-id dict
ASSIGNMENTS = st.dictionaries(INSTANCES, CLUSTER_IDS.filter(bool), max_size=12)


def _two_copy(clusters):
    """The oracle's clustering of a group mapping, or None when it is not a partition."""
    try:
        return TwoCopyClustering(clusters)
    except ValueError:
        return None


def _written(write, clustering) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clustering.tsv"
        write(path, clustering)
        return path.read_bytes()


def _assert_same(new, old):
    assert dict(new.items()) == dict(old.items())
    expected = {cid: sorted(members) for cid, members in sorted(old.clusters.items())}
    assert groups(new) == groups(dict(old.items())) == expected
    assert _written(write_clustering, new) == _written(write_two_copy_clustering, old)


I1, I2 = (1, 1), (2, 1)


@given(GROUP_MAPPINGS, GROUP_MAPPINGS)
@example({"a": [I1], "b": [I1, I2]}, {"a": [I1, I1], "b": [I2]})
@example({"a": [I1], "b": []}, {"": [I2]})
def test_clustering_matches_two_copy_oracle_on_group_mappings(one, two):
    # a Clustering is only built from a partition: compare where the oracle accepts one
    old_one, old_two = _two_copy(one), _two_copy(two)
    if old_one is not None:
        _assert_same(clustering_of(one), old_one)
    if old_one is not None and old_two is not None:
        assert (clustering_of(one) == clustering_of(two)) == (old_one == old_two)


@given(ASSIGNMENTS, ASSIGNMENTS)
def test_clustering_matches_two_copy_oracle_on_partitions(one, two):
    new_one, old_one = Clustering.from_assignment(dict(one)), TwoCopyClustering.from_assignment(one)
    new_two, old_two = Clustering.from_assignment(dict(two)), TwoCopyClustering.from_assignment(two)
    _assert_same(new_one, old_one)
    assert new_one == clustering_of(groups(new_one))
    assert (new_one == new_two) == (old_one == old_two)


def test_from_assignment_rejects_an_empty_cluster_id():
    with pytest.raises(ValueError, match="cluster_id"):
        Clustering.from_assignment({(1, 1): ""})


def test_ingest_authority_groups_rows(tmp_path):
    path = write_tsv(
        tmp_path / "authority.tsv",
        "authority_id\tname\ttitle\n"
        "orc-1\tSmith, John\tPaper one\n"
        "orc-1\tSmith, John\tPaper two\n"
        "orc-2\tLee, Ann\tPaper one\n",
    )
    registry = ingest_authority(path)
    assert set(registry) == {"orc-1", "orc-2"}
    assert registry["orc-1"].work_titles == frozenset({"Paper one", "Paper two"})
    assert registry["orc-2"].person_name == "Lee, Ann"


def test_ingest_authority_conflicting_name(tmp_path):
    path = write_tsv(
        tmp_path / "authority.tsv",
        "authority_id\tname\ttitle\n"
        "orc-1\tSmith, John\tPaper one\n"
        "orc-1\tSmith, Jane\tPaper two\n",
    )
    with pytest.raises(IngestError, match="conflicting names") as err:
        ingest_authority(path)
    assert err.value.row == 2


def test_ingest_grants_groups_rows(tmp_path):
    path = write_tsv(
        tmp_path / "grants.tsv",
        "pi_id\tpi_name\tpmid\nnih-1\tSmith, John\t10\nnih-1\tSmith, John\t11\n",
    )
    grants = ingest_grants(path)
    assert grants["nih-1"].funded_pmids == frozenset({10, 11})


def test_ingest_citations_dedupes_and_sorts(tmp_path):
    path = write_tsv(
        tmp_path / "citations.tsv",
        "citing_pmid\tcited_pmid\n5\t3\n2\t9\n5\t3\n",
    )
    edges = ingest_citations(path)
    assert edges == ((2, 9), (5, 3))


def test_ingest_citations_rejects_self_loop(tmp_path):
    path = write_tsv(
        tmp_path / "citations.tsv", "citing_pmid\tcited_pmid\n5\t5\n"
    )
    with pytest.raises(IngestError, match="self-loop") as err:
        ingest_citations(path)
    assert err.value.row == 1


def test_ingest_annotations(tmp_path):
    path = write_tsv(
        tmp_path / "annotations.tsv",
        "instance_id\tethnicity\tgender\n1_1\tKorean-English\tFemale\n2_1\t\tNULL\n",
    )
    annotations = ingest_annotations(path)
    assert annotations[(1, 1)].ethnicity == "Korean-English"
    assert annotations[(2, 1)].ethnicity == ""
    assert annotations[(2, 1)].gender == "NULL"


def test_ingest_annotations_duplicate_instance(tmp_path):
    path = write_tsv(
        tmp_path / "annotations.tsv",
        "instance_id\tethnicity\tgender\n1_1\tEnglish\tMale\n1_1\tEnglish\tMale\n",
    )
    with pytest.raises(IngestError, match="duplicate annotation") as err:
        ingest_annotations(path)
    assert err.value.row == 2


@pytest.mark.parametrize(
    "row,message",
    [("3_x\tEnglish\tMale", "is not of the form"), ("1_1\tKorean\tFemale", "duplicate annotation")],
)
def test_ingest_annotations_keep_still_validates_every_row(tmp_path, row, message):
    text = "instance_id\tethnicity\tgender\n1_1\tEnglish\tMale\n2_1\tEnglish\tMale\n"
    path = write_tsv(tmp_path / "annotations.tsv", text)
    write_tsv(path, text + row + "\n")
    with pytest.raises(IngestError, match=message) as err:
        ingest_annotations(path)
    assert err.value.row == 3


def test_ingest_annotations_shares_equal_tags(tmp_path):
    path = write_tsv(
        tmp_path / "annotations.tsv",
        "instance_id\tethnicity\tgender\n1_1\tEnglish\tMale\n2_1\tEnglish\tMale\n3_1\tEnglish\tFemale\n",
    )
    annotations = ingest_annotations(path)
    assert annotations[(1, 1)] is annotations[(2, 1)]
    assert annotations[(3, 1)].gender == "Female"


def test_ingest_is_order_insensitive(tmp_path):
    header = "authority_id\tname\ttitle\n"
    rows = ["orc-1\tSmith, John\tPaper one\n", "orc-2\tLee, Ann\tPaper two\n"]
    a = write_tsv(tmp_path / "a.tsv", header + "".join(rows))
    b = write_tsv(tmp_path / "b.tsv", header + "".join(reversed(rows)))
    assert ingest_authority(a) == ingest_authority(b)


def test_write_corpus_rejects_a_bar_in_a_name_in_one_short_line(tmp_path):
    name = "n" * 1500 + "|" + "n" * 1499
    corpus = {1: PaperRecord(1, 2001, "Title", (name,))}
    with pytest.raises(ValueError) as err:
        write_corpus(tmp_path / "papers.tsv", corpus)
    assert str(err.value) == f"author name {'n' * 24!r}... (3000 characters) contains '|'"


def test_write_round_trips(tmp_path):
    corpus_path = write_tsv(
        tmp_path / "papers.tsv",
        "pmid\tyear\ttitle\tauthors\n2\t2005\tSecond\tOne, A|Two, B\n1\t2001\tFirst\tSolo, Han\n",
    )
    corpus = ingest_corpus(corpus_path)
    out = tmp_path / "papers_out.tsv"
    write_corpus(out, corpus)
    written = ingest_corpus(out)
    assert written == corpus
    assert list(written) == [1, 2]  # written in pmid order

    registry = ingest_authority(
        write_tsv(
            tmp_path / "authority.tsv",
            "authority_id\tname\ttitle\norc-1\tSmith, John\tPaper one\n",
        )
    )
    write_authority(tmp_path / "authority_out.tsv", registry)
    assert ingest_authority(tmp_path / "authority_out.tsv") == registry

    grants = ingest_grants(
        write_tsv(
            tmp_path / "grants.tsv", "pi_id\tpi_name\tpmid\nnih-1\tSmith, John\t10\n"
        )
    )
    write_grants(tmp_path / "grants_out.tsv", grants)
    assert ingest_grants(tmp_path / "grants_out.tsv") == grants

    edges = ingest_citations(
        write_tsv(tmp_path / "citations.tsv", "citing_pmid\tcited_pmid\n5\t3\n")
    )
    write_citations(tmp_path / "citations_out.tsv", edges)
    assert ingest_citations(tmp_path / "citations_out.tsv") == edges

    annotations = ingest_annotations(
        write_tsv(
            tmp_path / "annotations.tsv",
            "instance_id\tethnicity\tgender\n1_1\tEnglish\tMale\n",
        )
    )
    write_annotations(tmp_path / "annotations_out.tsv", annotations)
    assert ingest_annotations(tmp_path / "annotations_out.tsv") == annotations


def test_gzip_write_is_deterministic(tmp_path):
    clustering = clustering_of({"A": {(1, 1)}})
    first = tmp_path / "first.tsv.gz"
    second = tmp_path / "second.tsv.gz"
    write_clustering(first, clustering)
    write_clustering(second, clustering)
    assert first.read_bytes() == second.read_bytes()
    assert ingest_clustering(first) == clustering
