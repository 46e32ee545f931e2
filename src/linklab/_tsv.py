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


def read_rows(path: str | Path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield (row_number, fields) per data row after validating the header.

    Row numbers are 1-based over data rows (the header is row 0).
    A row with the wrong number of fields raises IngestError.
    """
    expected = list(columns)
    records = _records(path)
    header = next(records, None)
    if header is None:
        raise IngestError("empty file, expected a header row", path=str(path))
    if header != expected:
        got, want = "\t".join(header), "\t".join(expected)
        raise IngestError(f"bad header {echo(got)}, expected {want!r}", path=str(path))
    for row_no, fields in enumerate(records, start=1):
        if not fields:
            continue
        if len(fields) != len(expected):
            raise IngestError(
                f"expected {len(expected)} columns, got {len(fields)}",
                row=row_no,
                path=str(path),
            )
        yield row_no, fields


@contextmanager
def read_table(path: str | Path, columns: Sequence[str]) -> Iterator[Iterator[list[str]]]:
    """Context for reading a table's data rows: yields an iterator of their fields.

    A ParseError raised in the with body becomes an IngestError naming
    the path and the row read last; IngestError passes through as it is.
    """
    row_no = 0

    def fields() -> Iterator[list[str]]:
        nonlocal row_no
        for row_no, row in read_rows(path, columns):
            yield row

    rows = fields()
    try:
        yield rows
    except ParseError as exc:
        raise IngestError(str(exc), row=row_no, path=str(path)) from None
    finally:
        rows.close()


def write_rows(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write a header plus rows. Fields must be free of tabs and newlines."""
    with open_text_write(path) as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            for field in row:
                if "\t" in field or "\n" in field or "\r" in field:
                    raise ValueError(f"field {field!r} contains a tab or newline")
            fh.write("\t".join(row) + "\n")
