"""Shared TSV plumbing: header-checked streaming reads, deterministic writes.

All tables are UTF-8 (a leading byte order mark is ignored on read),
tab-separated with no quoting, one header row. Paths ending in ".gz" are
transparently (de)compressed; written gzip members carry no mtime so
equal content yields equal bytes.

Row errors are reported here. Every way a read can fail on the file's
content (bad UTF-8, a damaged gzip stream, a wrong column count, a NUL
byte) surfaces as IngestError naming the path and, where known, the row;
a reader that reads through read_table raises ParseError for a row that
breaks its own rules, and read_table adds the path and the row.
"""

from __future__ import annotations

import gzip
import io
import zlib
from collections.abc import Iterable, Iterator, Sequence
from contextlib import closing, contextmanager
from pathlib import Path

from .errors import IngestError, ParseError, echo


def _is_gz(path: str | Path) -> bool:
    return str(path).endswith(".gz")


@contextmanager
def open_text_read(path: str | Path):
    # utf-8-sig drops a leading byte order mark, which would otherwise
    # stick to the first header column
    if _is_gz(path):
        with gzip.open(path, "rt", encoding="utf-8-sig", newline="") as fh:
            yield fh
    else:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield fh


@contextmanager
def open_text_write(path: str | Path):
    if _is_gz(path):
        # mtime=0 and an empty embedded name keep the byte stream
        # independent of when or where the file was written.
        with open(path, "wb") as raw:
            with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
                with io.TextIOWrapper(gz, encoding="utf-8", newline="") as fh:
                    yield fh
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _records(path: str | Path) -> Iterator[list[str]]:
    """Yield every record, header first; content that cannot be read raises IngestError.

    Every line is one record: its "\r\n", "\n" or "\r" ending is dropped
    and the rest split on tabs, with no quoting; a blank line is []. Text
    is decoded a block at a time, so a decoding or gzip failure carries
    no row number: the row being parsed need not hold the bad byte.
    """
    try:
        with open_text_read(path) as fh:
            # newline="" splits lines at \r, \n and \r\n only, each kept on its line
            for row_no, line in enumerate(fh):
                # a NUL byte is never part of a name, title or ID
                if "\0" in line:
                    raise IngestError("field contains a NUL byte", row=row_no, path=str(path))
                line = line.rstrip("\r\n")
                yield line.split("\t") if line else []
    except UnicodeDecodeError as exc:
        raise IngestError(f"not UTF-8 text: {exc}", path=str(path)) from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise IngestError(f"damaged gzip data: {exc}", path=str(path)) from None


def read_header(path: str | Path) -> tuple[str, ...] | None:
    """The header row of a table, or None for an empty file."""
    with closing(_records(path)) as records:
        header = next(records, None)
    return None if header is None else tuple(header)


def _table_rows(path: str | Path, columns: Sequence[str], at: list[int]) -> Iterator[list[str]]:
    """Yield the fields of every data row after validating the header.

    Row numbers are 1-based over data rows (the header is row 0); `at[0]`
    holds the number of the row yielded last. Blank rows are skipped, and
    a row with the wrong number of fields raises IngestError.
    """
    expected = list(columns)
    width = len(expected)
    with closing(_records(path)) as records:
        header = next(records, None)
        if header is None:
            raise IngestError("empty file, expected a header row", path=str(path))
        if header != expected:
            got, want = "\t".join(header), "\t".join(expected)
            raise IngestError(f"bad header {echo(got)}, expected {want!r}", path=str(path))
        for row_no, fields in enumerate(records, start=1):
            if len(fields) != width:
                if not fields:
                    continue
                raise IngestError(
                    f"expected {width} columns, got {len(fields)}", row=row_no, path=str(path)
                )
            at[0] = row_no
            yield fields


def read_rows(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (row_number, fields) per data row, with read_table's checks and row numbers."""
    at = [0]
    for fields in _table_rows(path, columns, at):
        yield at[0], fields


@contextmanager
def read_table(path: str | Path, columns: Sequence[str]) -> Iterator[Iterator[list[str]]]:
    """Context for reading a table's data rows: yields an iterator of their fields.

    A ParseError raised in the with body becomes an IngestError naming
    the path and the row read last; IngestError passes through as it is.
    """
    at = [0]
    rows = _table_rows(path, columns, at)
    try:
        yield rows
    except ParseError as exc:
        raise IngestError(str(exc), row=at[0], path=str(path)) from None
    finally:
        rows.close()


def write_rows(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header plus rows. Fields must be free of tabs and newlines."""
    with open_text_write(path) as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            line = "\t".join(row)
            # a row of clean fields joins to exactly len(row) - 1 tabs and no line break
            if line.count("\t") >= len(row) or "\n" in line or "\r" in line:
                for field in row:
                    if "\t" in field or "\n" in field or "\r" in field:
                        raise ValueError(f"field {echo(field)} contains a tab or newline")
            fh.write(line + "\n")
