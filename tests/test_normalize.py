"""Title canonicalization, name parsing, and key derivation."""

import pytest
from hypothesis import example, given, strategies as st

from linklab.errors import ParseError
from linklab.normalize import (
    _FOLD,
    _clean_tokens,
    ascii_fold,
    aini_key,
    fini_key,
    is_keyed,
    match_key,
    normalize_title,
    parse_name,
    parse_or_none,
)
import oracles
from oracles import naive_ascii_fold, naive_clean_tokens, naive_normalize_title


def test_ascii_fold():
    assert ascii_fold("López") == "Lopez"
    assert ascii_fold("Müller") == "Muller"
    assert ascii_fold("Dvořák") == "Dvorak"
    assert ascii_fold("Søren") == "Soren"
    assert ascii_fold("Straße") == "Strasse"
    assert ascii_fold("Łukasz") == "Lukasz"
    assert ascii_fold("plain ascii") == "plain ascii"


def test_ascii_fold_drops_unmappable():
    assert ascii_fold("王伟") == ""
    assert ascii_fold("Kim 김") == "Kim "


def test_normalize_title_worked_example():
    assert normalize_title("The Rôle of  P53 in Cancer-Risk!") == "the role of p in cancerrisk"


def test_normalize_title_rejects_short():
    assert normalize_title("A four word title") is None
    assert normalize_title("") is None
    assert normalize_title("   ") is None


def test_normalize_title_fixed_point():
    norm = normalize_title("alpha beta gamma delta epsilon")
    assert norm == "alpha beta gamma delta epsilon"


def test_normalize_title_rejects_when_too_few_words_survive():
    # Five raw tokens, but only two alphabetic words remain.
    assert normalize_title("12 34 5678 x y") is None


def test_normalize_title_space_mode():
    norm = normalize_title("The Role of P53 in Cancer-Risk", nonalpha="space")
    assert norm == "the role of p in cancer risk"
    with pytest.raises(ValueError):
        normalize_title("a b c d e", nonalpha="shrug")


@given(st.text(max_size=80))
def test_normalize_title_idempotent(raw):
    norm = normalize_title(raw)
    if norm is not None:
        assert normalize_title(norm) == norm


def test_parse_name_comma_form():
    assert parse_name("Hertzog, P J") == "hertzog|p j"
    assert fini_key("hertzog|p j") == "hertzog|p"
    assert aini_key("hertzog|p j") == "hertzog|pj"


def test_parse_name_multi_token_surname():
    name = parse_name("do Prado, Wagner Luiz")
    assert name == "do prado|wagner luiz"
    assert fini_key(name) == "do prado|w"


def test_parse_name_without_comma_uses_last_token_as_surname():
    assert parse_name("Wang Wei") == "wei|wang"


def test_parse_name_strips_periods_and_folds():
    name = parse_name("Ng, Patricia M. L.")
    assert fini_key(name) == "ng|p"
    assert aini_key(name) == "ng|pml"
    other = parse_name("Ng, Miang Lon Patricia")
    assert fini_key(other) == "ng|m"


def test_hyphenated_forename_yields_one_initial():
    name = parse_name("Kim, Jin-Seok")
    assert name == "kim|jinseok"
    assert aini_key(name) == "kim|j"


def test_same_fini_different_aini():
    a = parse_name("Brown, C")
    b = parse_name("Brown, C. C.")
    assert fini_key(a) == fini_key(b)
    assert aini_key(a) != aini_key(b)


def test_parse_name_unparseable():
    with pytest.raises(ParseError):
        parse_name("")
    with pytest.raises(ParseError):
        parse_name("   ")
    with pytest.raises(ParseError):
        parse_name("123, 456")
    assert parse_or_none("123, 456") is None


def test_mononym_is_unkeyed():
    name = parse_name("Einstein")
    assert name == "einstein|"
    assert fini_key(name) == aini_key(name) == "einstein|"
    assert not is_keyed(name)
    assert match_key(name) is None
    assert is_keyed(parse_name("Hertzog, P J"))
    assert match_key(parse_name("Hertzog, P J")) == "hertzog|p"


word = st.text(alphabet="abcdefghijklmnopqrstuvwxyzàéøß-.'", min_size=1, max_size=10)


@given(st.lists(word, min_size=1, max_size=4), word)
def test_aini_refines_fini(forenames, surname):
    try:
        name = parse_name(f"{surname}, {' '.join(forenames)}")
    except ParseError:
        return
    try:
        other = parse_name(f"{surname}, {forenames[0]}")
    except ParseError:
        return
    if aini_key(name) == aini_key(other):
        assert fini_key(name) == fini_key(other)
    if is_keyed(name):
        assert fini_key(name) == aini_key(name)[: len(fini_key(name))]


@given(word, word)
def test_keys_are_deterministic(surname, forename):
    raw = f"{surname}, {forename}"
    try:
        first = parse_name(raw)
        second = parse_name(raw)
    except ParseError:
        return
    assert first == second
    assert fini_key(first) == fini_key(second)
    assert aini_key(first) == aini_key(second)


# Characters the fast paths treat specially: every transliterated letter,
# combining marks, the control characters str.split() takes for
# whitespace, non-ASCII spaces, compatibility forms whose NFKD is ASCII
# (ligature, superscript, roman numeral, fullwidth) and non-Latin letters.
TRICKY = (
    "".join(sorted(_FOLD))
    + "\u0301\u0308\u030a\u030c\u0327\u0323\u0338"
    + "\x1c\x1d\x1e\x1f\xa0\u2009\u3000 \t\n\r"
    + "\ufb01\xb2\u216b\uff21\u2024"
    + "\u738b\u4f1f\uae40\u0416\u03b1\u05d0\u0639"
    + "aZ09-.,'!"
)
unicode_text = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=60)
titles = unicode_text | st.lists(unicode_text, min_size=5, max_size=8).map(" ".join)


@given(unicode_text)
def test_ascii_fold_matches_character_loop(text):
    assert ascii_fold(text) == naive_ascii_fold(text)


@given(titles, st.sampled_from(["delete", "space"]))
def test_normalize_title_matches_character_loop(raw, nonalpha):
    assert normalize_title(raw, nonalpha=nonalpha) == naive_normalize_title(raw, nonalpha)


@given(unicode_text)
def test_clean_tokens_match_character_loop(text):
    assert _clean_tokens(text) == naive_clean_tokens(text)


# Letters, separators, transliterated letters, combining marks, digits and
# the "|" a key is spelled with; short parts make equal keys common.
NAME_CHARS = "abzAZ" + "".join(sorted(_FOLD)) + " ,-.'|09" + "\u0301\u0308" + "\xe9\xf1"
name_part = st.text(alphabet="abAB-.|9 \xdf\xe9\u0301", min_size=1, max_size=4)
raw_names = st.one_of(
    st.text(alphabet=NAME_CHARS, max_size=20),
    st.builds("{}, {}".format, name_part, name_part),
    st.builds("{} {}".format, name_part, name_part),
    name_part,  # mononyms and one-token names
)


@given(raw_names, raw_names)
@example("Abc", "Ab, C")
@example("A B, C", "A, B C")
@example("Ab, C D", "Ab C, D")
# were a "|" kept by the cleanup, these would spell one key from two tuples
@example("A, |x", "A|")
def test_string_keys_match_the_earlier_tuple_keys(raw_a, raw_b):
    parsed = [(parse_or_none(raw), oracles.tuple_parse_or_none(raw)) for raw in (raw_a, raw_b)]
    assert [form is None for form, _ in parsed] == [name is None for _, name in parsed]
    parsed = [(form, name) for form, name in parsed if name is not None]
    for form, name in parsed:
        assert fini_key(form) == oracles.fini_cluster_id(oracles.tuple_fini_key(name))
        assert aini_key(form) == oracles.aini_cluster_id(oracles.tuple_aini_key(name))
    if len(parsed) == 2:
        (a, tuple_a), (b, tuple_b) = parsed
        assert (fini_key(a) == fini_key(b)) == (oracles.tuple_fini_key(tuple_a) == oracles.tuple_fini_key(tuple_b))
        assert (aini_key(a) == aini_key(b)) == (oracles.tuple_aini_key(tuple_a) == oracles.tuple_aini_key(tuple_b))


# Folded letters, hyphens, periods, apostrophes, digits, commas, tabs and
# CJK letters, alone and in the comma and whitespace layouts.
FORM_CHARS = "abzAZ\xe0\xe9\xf8\xdf\u0141\u0131\u1e9e\xe6-.'09,\t \u738b\u4f1f"
form_part = st.text(alphabet=FORM_CHARS.replace(",", ""), min_size=1, max_size=8)
form_names = st.one_of(
    st.text(alphabet=FORM_CHARS, max_size=30),
    st.builds("{}, {}".format, form_part, form_part),
    st.builds("{}\t{}".format, form_part, form_part),
)


@given(form_names)
@example("Wang Wei")
@example("Einstein")
@example("\u738b\u4f1f")
@example("\u0141ukasz, \u1e9ee-\u0131. \xe6'0")
def test_forms_match_the_tuple_parser(raw):
    """parse_name fails where the tuple parser does, and its form gives the tuple parser's keys."""
    form = parse_or_none(raw)
    name = oracles.tuple_parse_or_none(raw)
    assert (form is None) == (name is None)
    if name is None:
        return
    assert form == f"{name.surname}|{' '.join(name.forenames)}"
    assert fini_key(form) == oracles.tuple_fini(name)
    assert aini_key(form) == oracles.tuple_aini(name)
    assert match_key(form) == oracles.tuple_match_key(name)
    assert is_keyed(form) == oracles.tuple_is_keyed(name)
