"""Exception types shared across the toolkit, and how a message quotes a bad field."""

# A bad field is echoed in its error message up to this many characters.
_ECHO_LIMIT = 24


def echo(text: str) -> str:
    """repr() of a bad field for a one-line message; a long one is cut and its length given."""
    if len(text) <= _ECHO_LIMIT:
        return repr(text)
    return f"{text[:_ECHO_LIMIT]!r}... ({len(text)} characters)"


class LinklabError(Exception):
    """Base class for all toolkit errors."""


class ParseError(LinklabError):
    """A value (instance ID, name, number) or a table row could not be parsed.

    A reader raises it for a row that breaks the reader's own rules
    (an empty field, a duplicate, a bad number); _tsv.read_table turns it
    into an IngestError naming the file and the row.
    """


class IngestError(LinklabError):
    """An input file violates its format contract.

    Carries the 1-based data row number where the violation occurred
    (0 for file-level problems such as a bad header).
    """

    def __init__(self, message: str, *, row: int = 0, path: str | None = None):
        self.row = row
        self.path = path
        where = f"{path or '<input>'}, row {row}" if row else (path or "<input>")
        super().__init__(f"{where}: {message}")


class EvaluationError(LinklabError):
    """An evaluation operation has nothing valid to evaluate."""


class ConfigError(LinklabError):
    """Invalid configuration for a generator or a run."""
