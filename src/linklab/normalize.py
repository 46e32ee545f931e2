"""Canonicalization of titles and person names, and matching-key derivation.

Titles are usable for matching only when the raw form has at least five
whitespace tokens; accepted titles are ASCII-folded, stripped of
non-alphabetic characters, lowercased, and whitespace-collapsed; the
resulting string is the title key.

Person names yield two keys, each a "surname|initials" string that is
also the baseline's cluster id: the blocking key (surname plus first
forename initial) and the finer name key (surname plus all forename
initials). A surname holds only lowercase letters and single spaces and
initials only lowercase letters, so the "|" is unambiguous and equal
name keys always imply equal blocking keys. Linkage matches on the
blocking key of names that carry an initial (match_key).
"""

from __future__ import annotations

import unicodedata
from typing import NamedTuple

from .errors import ParseError

# Transliterations for letters that do not decompose under NFKD.
_FOLD = {
    "ß": "ss",
    "ẞ": "SS",
    "æ": "ae",
    "Æ": "AE",
    "œ": "oe",
    "Œ": "OE",
    "ø": "o",
    "Ø": "O",
    "đ": "d",
    "Đ": "D",
    "ð": "d",
    "Ð": "D",
    "þ": "th",
    "Þ": "Th",
    "ł": "l",
    "Ł": "L",
    "ı": "i",
    "ħ": "h",
    "Ħ": "H",
    "ŋ": "n",
    "Ŋ": "N",
    "ĸ": "k",
}


# Each _FOLD letter becomes its transliteration; encoding to ASCII with
# "ignore" then drops combining marks and every other non-ASCII character.
_FOLD_TABLE = str.maketrans(_FOLD)


def ascii_fold(text: str) -> str:
    """Transliterate to ASCII; characters with no mapping are dropped."""
    if text.isascii():
        # NFKD leaves ASCII unchanged
        return text
    decomposed = unicodedata.normalize("NFKD", text).translate(_FOLD_TABLE)
    return decomposed.encode("ascii", "ignore").decode("ascii")


# Title and name cleanup runs on ascii_fold output, so tables over code
# points 0-127 cover every character. "delete" drops everything but
# letters and whitespace; "space" turns every non-letter into a space.
_NONALPHA_TABLES = {
    "delete": {
        c: None for c in range(128) if not (chr(c).isalpha() or chr(c).isspace())
    },
    "space": {c: " " for c in range(128) if not chr(c).isalpha()},
}


def normalize_title(raw: str, *, nonalpha: str = "delete") -> str | None:
    """Canonicalize a title, or return None when it is too short to match.

    Rejection is a filter outcome, not an error: titles with fewer than
    five raw whitespace tokens are skipped, as are titles left with
    fewer than five words once non-alphabetic characters are gone (the
    second check keeps normalization idempotent).

    nonalpha: "delete" removes non-alphabetic characters in place
    ("Cancer-Risk" becomes "cancerrisk"); "space" turns them into token
    breaks instead, for sensitivity checks.
    """
    table = _NONALPHA_TABLES.get(nonalpha)
    if table is None:
        raise ValueError(f"nonalpha must be 'delete' or 'space', got {nonalpha!r}")
    if len(raw.split()) < 5:
        return None
    words = ascii_fold(raw).lower().translate(table).split()
    if len(words) < 5:
        return None
    return " ".join(words)


class PersonName(NamedTuple):
    """A parsed byline or profile name with normalized parts."""

    raw: str
    surname: str
    forenames: tuple[str, ...]
    first_initial: str
    all_initials: str


def _clean_tokens(text: str) -> list[str]:
    """Fold, lowercase, and strip each whitespace token to its letters."""
    # deleting the non-letters before splitting drops the tokens that had none
    return ascii_fold(text).lower().translate(_NONALPHA_TABLES["delete"]).split()


def parse_name(raw: str) -> PersonName:
    """Parse a raw name string.

    The "Surname, Forenames" comma form is preferred; multi-token
    surnames before the comma are preserved. Without a comma the last
    whitespace token is taken as the surname. Initials come from the
    first letter of each forename token, so a hyphenated forename
    yields one initial.
    """
    head, comma, tail = raw.partition(",")
    if comma:
        surname_part, forename_part = head, tail
    else:
        tokens = raw.split()
        if len(tokens) <= 1:
            surname_part, forename_part = raw, ""
        else:
            surname_part, forename_part = tokens[-1], " ".join(tokens[:-1])
    surname_tokens = _clean_tokens(surname_part)
    if not surname_tokens:
        raise ParseError(f"name {raw!r}: surname is empty after normalization")
    forename_tokens = _clean_tokens(forename_part)
    all_initials = "".join(token[0] for token in forename_tokens)
    return PersonName(
        raw=raw,
        surname=" ".join(surname_tokens),
        forenames=tuple(forename_tokens),
        first_initial=all_initials[:1],
        all_initials=all_initials,
    )


def parse_or_none(raw: str) -> PersonName | None:
    """parse_name, or None when the name does not parse."""
    try:
        return parse_name(raw)
    except ParseError:
        return None


def fini_key(name: PersonName) -> str:
    """Blocking key of a name, "surname|first initial"; the initial is empty for mononyms."""
    return f"{name.surname}|{name.first_initial}"


def aini_key(name: PersonName) -> str:
    """Refined key of a name, "surname|all initials"."""
    return f"{name.surname}|{name.all_initials}"


def is_keyed(name: PersonName) -> bool:
    """True when the name carries at least one forename initial."""
    return name.first_initial != ""


def match_key(name: PersonName) -> str | None:
    """The blocking key a name is matched on, None for a mononym.

    Mononyms are never matched against anything: linkage, self-citation
    pairing and the synonym typology skip them.
    """
    return fini_key(name) if is_keyed(name) else None
