"""Unicode primitives reproducing the reference's ICU-backed semantics.

The reference wraps ICU (reference: src/utils/utf8.c):
  * ``utf8_normalize``   — ``unorm2_getNFKCCasefoldInstance`` (NFKC_Casefold:
    NFKC + case folding + removal of Default_Ignorable code points),
    src/utils/utf8.c:268-325.
  * ``utf8_subs_diacritics`` — transliterator rule
    ``"NFKD; [:Nonspacing Mark:] Remove; Latin-ASCII; NFKC"``,
    src/utils/utf8.c:28-31, 217-260.
  * ``utf8_tolower`` / ``utf8_toupper`` — ucasemap full case mapping,
    src/utils/utf8.c:182-208.

PyICU is not available in this environment, so these are pure-Python
equivalents built on ``unicodedata`` + the ``regex`` module's Unicode
property classes.  Behavior is pinned by fixtures transcribed from
reference src/tests/t_utf8.c (FIXTURES.md §3).
"""

from __future__ import annotations

import unicodedata

import regex

# Default_Ignorable_Code_Point set — NFKC_Casefold maps these to nothing.
_DEFAULT_IGNORABLE = regex.compile(r"\p{Default_Ignorable_Code_Point}+")

# Nonspacing marks, removed by the diacritics transliteration rule.
_NONSPACING_MARK = regex.compile(r"\p{Mn}+")

# Latin-ASCII transliteration table for characters that survive
# "NFKD; [:Nonspacing Mark:] Remove" (i.e. have no decomposition),
# transcribed from the published CLDR Latin-ASCII transform rules
# (common/transforms/Latin-ASCII.xml — the data ICU compiles for this
# rule).  Decomposable accented Latin never reaches this table: NFKD +
# mark-removal folds it first (t_utf8.c run_diacritic_test fixtures).
# The full CLDR file also covers rare phonetic letters; characters not
# listed here pass through unchanged, matching a partial rule set.
_LATIN_ASCII = {
    # sharp s / ligature vowels
    "ß": "ss", "ẞ": "SS",
    "æ": "ae", "Æ": "AE",
    "œ": "oe", "Œ": "OE",
    # stroked / barred / crossed letters
    "ø": "o", "Ø": "O",
    "đ": "d", "Đ": "D",
    "ð": "d", "Ð": "D",
    "þ": "th", "Þ": "TH",
    "ł": "l", "Ł": "L",
    "ħ": "h", "Ħ": "H",
    "ŧ": "t", "Ŧ": "T",
    "ƚ": "l", "Ƚ": "L",
    "ƶ": "z", "Ƶ": "Z",
    "ǥ": "g", "Ǥ": "G",
    "ɨ": "i", "Ɨ": "I",
    "ɇ": "e", "Ɇ": "E",
    "ɍ": "r", "Ɍ": "R",
    "ɏ": "y", "Ɏ": "Y",
    "ʉ": "u", "Ʉ": "U",
    "ƀ": "b", "Ƀ": "B",
    "ƒ": "f", "Ƒ": "F",
    # dotless / special forms
    "ı": "i", "ȷ": "j",
    "ŋ": "ng", "Ŋ": "NG",
    "ĸ": "q",            # kra → q (CLDR; Greenlandic orthography)
    "ſ": "s",
    # quotes / primes
    "’": "'", "‘": "'", "‚": "'", "‛": "'", "′": "'",
    "“": '"', "”": '"', "„": '"', "‟": '"', "″": '"',
    # guillemets (CLDR maps to angle pairs, not double quotes)
    "«": "<<", "»": ">>", "‹": "<", "›": ">",
    # dashes / minus
    "–": "-", "—": "-", "‐": "-", "‑": "-", "‒": "-", "―": "-",
    "−": "-",
    "…": "...",
    "×": "x",
}
_LATIN_ASCII_RE = regex.compile("[" + "".join(map(regex.escape, _LATIN_ASCII)) + "]")


def nfkc_casefold(s: str) -> str:
    """NFKC_Casefold: equivalent of ICU ``unorm2_getNFKCCasefoldInstance``
    (reference src/utils/utf8.c:69, 268-325).

    Defined in Unicode as: remove Default_Ignorable code points, apply
    NFKC + full case folding, iterated to a fixed point.
    """
    s = _DEFAULT_IGNORABLE.sub("", s)
    prev = None
    # casefold+NFKC is not idempotent in one pass (e.g. U+1E9E -> 'ss');
    # iterate to fixed point like ICU's composed normalizer does internally.
    while s != prev:
        prev = s
        s = unicodedata.normalize("NFKC", s.casefold())
    return s


def strip_diacritics(s: str) -> str:
    """Equivalent of the reference transliterator rule
    ``NFKD; [:Nonspacing Mark:] Remove; Latin-ASCII; NFKC``
    (reference src/utils/utf8.c:28-31, 217-260).
    """
    s = unicodedata.normalize("NFKD", s)
    s = _NONSPACING_MARK.sub("", s)
    s = _LATIN_ASCII_RE.sub(lambda m: _LATIN_ASCII[m.group(0)], s)
    return unicodedata.normalize("NFKC", s)


def normalize_token(s: str) -> str:
    """Full normalizer-filter transform: NFKC_Casefold then diacritics
    substitution, exactly the order of ``normalizer_filter``
    (reference src/core/filters_builtin.c:53-76).  On ASCII both are
    the lowercase: ASCII holds no Default_Ignorable code point, no
    nonspacing mark and no Latin-ASCII key, and NFKC/NFKD leave it
    as it is."""
    if s.isascii():
        return s.lower()
    return strip_diacritics(nfkc_casefold(s))


def utf8_tolower(s: str) -> str:
    """Reference ``utf8_tolower`` (src/utils/utf8.c:182-194): full lowercase."""
    return s.lower()


def utf8_toupper(s: str) -> str:
    """Reference ``utf8_toupper`` (src/utils/utf8.c:196-208): full uppercase
    (``straße`` → ``STRASSE`` per t_utf8.c:61-84)."""
    return s.upper()
