"""Row splitting and row-error reporting shared by every table reader."""

import gzip
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from linklab._tsv import _records, read_rows, read_table, write_rows
from linklab.corpus import (
    ANNOTATIONS_COLUMNS,
    AUTHORITY_COLUMNS,
    CITATIONS_COLUMNS,
    CLUSTERING_COLUMNS,
    GRANTS_COLUMNS,
    PAPERS_COLUMNS,
    ingest_annotations,
    ingest_authority,
    ingest_citations,
    ingest_clustering,
    ingest_corpus,
    ingest_paper_years,
    ingest_grants,
)
from linklab.errors import IngestError, ParseError
from linklab.linkage import (
    EVAL_COLUMNS,
    LABELS_COLUMNS,
    PAIRS_COLUMNS,
    read_eval_dataset,
    read_labels,
    read_pairs,
)

import oracles


def _outcome(records, path):
    """Every record read before a failure, and the failure as (message, row, path)."""
    got = []
    try:
        for record in records(path):
            got.append(record)
    except IngestError as exc:
        return got, (str(exc), exc.row, exc.path)
    return got, None


# line endings, quotes, NUL, the other characters str.splitlines() breaks
# on, whitespace that a bare rstrip() would eat, and letters
TABLE_TEXT = st.text(
    alphabet='\t\r\n"\0\x0b\x0c\x1c\x1d\x1e\x85 abZ\xe9', max_size=40
)


@given(st.booleans(), TABLE_TEXT, st.booleans(), st.booleans())
@example(False, "a\tb\r\nc\td\n", False, False)
@example(False, "a\rb\n\n\r\nc", False, False)
@example(False, 'a"b\t"c\td"\n"', False, False)
@example(False, "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g\n", False, False)
@example(False, "a \t\x0c\nb\x85\r", False, False)
@example(False, "a\nb\0c\nd", False, False)
@example(True, "\t\n", True, False)
@example(False, "ab\ncd\n", False, True)
def test_records_match_the_csv_reader(bom, text, gz, bad_byte):
    data = ("\ufeff" if bom else "").encode() + text.encode()
    if bad_byte:
        data += b"\xff"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("table.tsv.gz" if gz else "table.tsv")
        path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
        assert _outcome(_records, path) == _outcome(oracles.csv_records, path)


# years int() would take but the readers refuse: a space, a no-break
# space, a plus sign, an underscore and Arabic-Indic digits
BAD_YEARS = (" 2001", "2001\xa0", "+2001", "2_001", "\u0662\u0660\u0660\u0661")
HUGE = "1" * 5000
# a field no message echoes in full: its first 24 characters and its length
LONG = "x" * 5000
LONG_ECHO = f"{'x' * 24!r}... (5000 characters)"

# (reader, its columns, a good data row, a bad data row, the message for the bad row)
ROW_FAULTS = [
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "x\t2001\tT\tA, B",
     "pmid must be a positive integer, got 'x'"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "0\t2001\tT\tA, B",
     "pmid must be a positive integer, got '0'"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "2\tyr\tT\tA, B",
     "year must be an integer, got 'yr'"),
    *(
        (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", f"2\t{year}\tT\tA, B",
         f"year must be an integer, got {year!r}")
        for year in BAD_YEARS
    ),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", f"2\t{HUGE}\tT\tA, B",
     "year is too long: 5000 digits"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", f"{LONG}\t2001\tT\tA, B",
     f"pmid must be a positive integer, got {LONG_ECHO}"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", f"2\t{LONG}\tT\tA, B",
     f"year must be an integer, got {LONG_ECHO}"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "2\t2001\t\tA, B", "missing title"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "2\t2001\tT\tA, B|",
     "empty author name in byline"),
    # an empty byline is one empty name
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "2\t2001\tT\t",
     "empty author name in byline"),
    (ingest_corpus, PAPERS_COLUMNS, "1\t2001\tA title\tKim, Ji", "1\t2002\tT\tA, B", "duplicate pmid '1'"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", "\t1_2", "empty cluster_id"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", "c1\t1-2",
     "instance id '1-2' is not of the form <pmid>_<position>"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", f"c1\t{LONG}",
     f"instance id {LONG_ECHO} is not of the form <pmid>_<position>"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", "c1\t0_2", "instance id '0_2': pmid must be >= 1"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", "c1\t1_0", "instance id '1_0': position must be >= 1"),
    (ingest_clustering, CLUSTERING_COLUMNS, "c1\t1_1", "c2\t1_1", "instance '1_1' already assigned to cluster 'c1'"),
    (ingest_authority, AUTHORITY_COLUMNS, "a1\tKim, Ji\tT one", "a1\t\tT two", "empty field"),
    (ingest_authority, AUTHORITY_COLUMNS, "a1\tKim, Ji\tT one", "a1\tLee, Ann\tT two",
     "authority 'a1' has conflicting names 'Kim, Ji' and 'Lee, Ann'"),
    # an empty field is found before a conflicting name
    (ingest_authority, AUTHORITY_COLUMNS, "a1\tKim, Ji\tT one", "a1\tLee, Ann\t", "empty field"),
    (ingest_grants, GRANTS_COLUMNS, "p1\tKim, Ji\t1", "\tKim, Ji\t2", "empty field"),
    (ingest_grants, GRANTS_COLUMNS, "p1\tKim, Ji\t1", "p1\tKim, Ji\tx", "pmid must be a positive integer, got 'x'"),
    (ingest_grants, GRANTS_COLUMNS, "p1\tKim, Ji\t1", "p1\tLee, Ann\t2",
     "PI 'p1' has conflicting names 'Kim, Ji' and 'Lee, Ann'"),
    # a bad pmid is found before a conflicting name; an empty one is a bad pmid
    (ingest_grants, GRANTS_COLUMNS, "p1\tKim, Ji\t1", "p1\tLee, Ann\tx", "pmid must be a positive integer, got 'x'"),
    (ingest_grants, GRANTS_COLUMNS, "p1\tKim, Ji\t1", "p1\tKim, Ji\t", "pmid must be a positive integer, got ''"),
    (ingest_citations, CITATIONS_COLUMNS, "1\t2", "x\t2", "citing_pmid must be a positive integer, got 'x'"),
    (ingest_citations, CITATIONS_COLUMNS, "1\t2", "1\t0", "cited_pmid must be a positive integer, got '0'"),
    (ingest_citations, CITATIONS_COLUMNS, "1\t2", "3\t3", "self-loop: paper '3' cites itself"),
    (ingest_annotations, ANNOTATIONS_COLUMNS, "1_1\tEnglish\tMale", "1_x\tA\tB",
     "instance id '1_x' is not of the form <pmid>_<position>"),
    (ingest_annotations, ANNOTATIONS_COLUMNS, "1_1\tEnglish\tMale", "1_1\tA\tB",
     "duplicate annotation for instance '1_1'"),
    (read_labels, LABELS_COLUMNS, "1_1\tx\tauthority", "x\ty\tgrant",
     "instance id 'x' is not of the form <pmid>_<position>"),
    (read_labels, LABELS_COLUMNS, "1_1\tx\tauthority", "1_2\tx\torcid", "unknown source 'orcid'"),
    (read_labels, LABELS_COLUMNS, "1_1\tx\tauthority", "1_2\t\tgrant", "empty label_id"),
    (read_labels, LABELS_COLUMNS, "1_1\tx\tauthority", "1_1\ty\tauthority",
     "duplicate label for instance '1_1' from authority"),
    (read_pairs, PAIRS_COLUMNS, "1_1\t2_1", "1_1\t2-1", "instance id '2-1' is not of the form <pmid>_<position>"),
    (read_pairs, PAIRS_COLUMNS, "1_1\t2_1", "1_1\t1_2",
     "invalid pair ('1_1', '1_2'): members must come from distinct papers"),
    (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", "1_y\ta\tc1\t2001\t\t",
     "instance id '1_y' is not of the form <pmid>_<position>"),
    (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", "1_1\ta\tc1\t2001\t\t",
     "duplicate row for instance '1_1'"),
    (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", "1_2\t\tc1\t2001\t\t",
     "truth_label and predicted_cluster_id are required"),
    (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", "1_2\ta\tc1\tyr\t\t",
     "year must be an integer, got 'yr'"),
    *(
        (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", f"1_2\ta\tc1\t{year}\t\t",
         f"year must be an integer, got {year!r}")
        for year in BAD_YEARS
    ),
    # the sign is not a digit
    (read_eval_dataset, EVAL_COLUMNS, "1_1\ta\tc1\t2001\tEnglish\tMale", f"1_2\ta\tc1\t-{HUGE}\t\t",
     "year is too long: 5000 digits"),
]
# ingest_paper_years checks papers.tsv through ingest_corpus's own row validator
ROW_FAULTS += [(ingest_paper_years, *case[1:]) for case in ROW_FAULTS if case[0] is ingest_corpus]
READERS = {reader: (columns, good) for reader, columns, good, _, _ in ROW_FAULTS}
# a row of one field, which no table has; _tsv itself rejects it
ROW_FAULTS += [
    (reader, columns, good, "x", f"expected {len(columns)} columns, got 1")
    for reader, (columns, good) in READERS.items()
]
CASE_IDS = []
for case in ROW_FAULTS:
    case_id = f"{case[0].__name__}: {case[4]}"
    # a message met again names its bad row, so earlier ids stay as they are
    CASE_IDS.append(case_id if case_id not in CASE_IDS else f"{case_id}, row {case[3]!r}")


@pytest.mark.parametrize("reader,columns,good,bad,message", ROW_FAULTS, ids=CASE_IDS)
def test_a_bad_second_row_is_reported_with_its_path_and_row(tmp_path, reader, columns, good, bad, message):
    path = tmp_path / "table.tsv"
    path.write_text("\t".join(columns) + f"\n{good}\n{bad}\n", encoding="utf-8")
    with pytest.raises(IngestError) as err:
        if reader is ingest_authority:
            ingest_authority(path, lambda title, name: title)
        else:
            reader(path)
    assert err.value.path == str(path)
    assert err.value.row == 2
    assert str(err.value) == f"{path}, row 2: {message}"


COLUMNS = ("a", "b")
# line endings, tabs, NUL and letters: blank rows, wrong widths and bad bytes
BODY_TEXT = st.text(alphabet="\t\r\na\0\xe9", max_size=30)
HEADERS = st.sampled_from(["a\tb\n", "a\tb\r\n", "a\tb\r", "a\tb", "a\tc\n", "a\n", "\n", ""])


def _table(tmp, bom, header, body, gz, bad_byte):
    data = ("\ufeff" if bom else "").encode() + (header + body).encode()
    if bad_byte:
        data += b"\xff"
    path = Path(tmp) / ("table.tsv.gz" if gz else "table.tsv")
    path.write_bytes(gzip.compress(data, mtime=0) if gz else data)
    return path


def _table_outcome(read_table_fn, path, fail_at):
    """The rows read_table gives, and the error: its own, or a ParseError raised at row `fail_at`."""
    got = []
    try:
        with read_table_fn(path, COLUMNS) as rows:
            for fields in rows:
                if len(got) == fail_at:
                    raise ParseError("bad row")
                got.append(fields)
    except IngestError as exc:
        return got, (str(exc), exc.row, exc.path)
    return got, None


@given(st.booleans(), HEADERS, BODY_TEXT, st.booleans(), st.booleans(), st.integers(0, 4))
@example(True, "a\tb\r\n", "x\ty\r\n\r\nz\tw\r\n", False, False, 4)
@example(False, "a\tb\n", "x\ty\n\nz\tw\n", True, False, 1)
@example(False, "a\tb\n", "x\ty\rz\n\nw\n", False, False, 4)
@example(False, "a\tb\n", "x\ty\n\0\tz\n", False, False, 4)
@example(False, "a\tb\n", "x\ty\n", False, True, 4)
@example(False, "", "", False, False, 0)
def test_read_table_matches_the_three_layer_reader(bom, header, body, gz, bad_byte, fail_at):
    with tempfile.TemporaryDirectory() as tmp:
        path = _table(tmp, bom, header, body, gz, bad_byte)
        assert _table_outcome(read_table, path, fail_at) == _table_outcome(
            oracles.read_table, path, fail_at
        )
        assert _outcome(lambda p: read_rows(p, COLUMNS), path) == _outcome(
            lambda p: oracles.read_rows(p, COLUMNS), path
        )


def _write_outcome(write, path, rows):
    try:
        write(path, COLUMNS, iter(rows))
    except ValueError as exc:
        return str(exc), path.read_bytes()
    return None, path.read_bytes()


# rows of any width: a tab, \n, \r or NUL may sit in any field
WRITE_ROWS = st.lists(st.lists(st.text(alphabet="\t\n\r\0ab", max_size=4), max_size=4), max_size=6)


@given(WRITE_ROWS, st.booleans())
@example([["a", "b"], ["a\tb"]], False)
@example([["a", "b"], ["", "b\t"]], False)
@example([["\n"], ["a", "b\r"]], True)
@example([["a", "b\r\n", "c\t"]], False)
@example([[], [""], ["", "", ""]], False)
@example([["a", "b"], ["a\0", "b\t"]], False)
@example([["a\0\tb"]], True)
def test_write_rows_matches_the_field_scanning_writer(rows, gz):
    with tempfile.TemporaryDirectory() as tmp:
        name = "table.tsv.gz" if gz else "table.tsv"
        got = _write_outcome(write_rows, Path(tmp) / ("new-" + name), rows)
        want = _write_outcome(oracles.field_scan_write_rows, Path(tmp) / ("old-" + name), rows)
    assert got == want
