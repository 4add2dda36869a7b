"""Snowball "English" (Porter2) stemmer — pure-Python implementation.

The reference stems via libstemmer's ``sb_stemmer_stem`` with the language
from params (reference: src/core/filters_builtin.c:206-245).  libstemmer's
``english`` algorithm is Porter2, publicly specified at snowballstem.org;
this module implements that specification directly (no code is derived from
libstemmer).  Like ``sb_stemmer_new(lang, NULL)`` returning NULL for unknown
languages, ``get_stemmer`` returns None for languages we do not implement
(the filter then passes tokens through unchanged).  English (this module)
plus French/German/Spanish (functions/snowball.py) ship; other languages
pass through.

The C API is non-reentrant (src/core/filters_builtin.c:230-234) which forces
one stemmer per worker there; our implementation is a pure function, but the
filter still instantiates per-worker state to mirror the lifecycle.
"""

from __future__ import annotations

import re

_VOWELS = frozenset("aeiouy")
_DOUBLES = ("bb", "dd", "ff", "gg", "mm", "nn", "pp", "rr", "tt")
_LI_ENDING = frozenset("cdeghkmnrt")
_VC = re.compile("[aeiouy][^aeiouy]")  # a vowel, then a non-vowel
_R1_PREFIXES = ("gener", "commun", "arsen")

_EXCEPTIONS1 = {
    "skis": "ski", "skies": "sky",
    "dying": "die", "lying": "lie", "tying": "tie",
    "idly": "idl", "gently": "gentl", "ugly": "ugli",
    "early": "earli", "only": "onli", "singly": "singl",
    "sky": "sky", "news": "news", "howe": "howe",
    "atlas": "atlas", "cosmos": "cosmos", "bias": "bias", "andes": "andes",
}

_EXCEPTIONS2 = frozenset(
    ["inning", "outing", "canning", "herring", "earring",
     "proceed", "exceed", "succeed"]
)

_STEP1B_SUFFIXES = ("ingly", "edly", "ing", "ed")  # longest first

_STEP2_SUFFIXES = [
    # (suffix, replacement) — longest match wins; None repl handled specially
    ("ization", "ize"), ("ational", "ate"), ("fulness", "ful"),
    ("ousness", "ous"), ("iveness", "ive"), ("tional", "tion"),
    ("biliti", "ble"), ("lessli", "less"), ("entli", "ent"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"), ("ousli", "ous"),
    ("iviti", "ive"), ("fulli", "ful"), ("enci", "ence"), ("anci", "ance"),
    ("abli", "able"), ("izer", "ize"), ("ator", "ate"), ("alli", "al"),
    ("bli", "ble"), ("ogi", None), ("li", None),
]

_STEP3_SUFFIXES = [
    ("ational", "ate"), ("tional", "tion"), ("alize", "al"),
    ("icate", "ic"), ("iciti", "ic"), ("ative", None), ("ical", "ic"),
    ("ness", ""), ("ful", ""),
]

_STEP4_SUFFIXES = [
    "ement", "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ism", "ate", "iti", "ous", "ive", "ize",
    "ion", "al", "er", "ic",
]

# A suffix can only match when its last char equals the word's last
# char, so bucketing by last char skips most endswith probes; relative
# (longest-first) order inside each bucket is preserved, making the
# scan result identical to the flat list's.
def _by_last(pairs):
    d: dict = {}
    for p in pairs:
        suf = p[0] if isinstance(p, tuple) else p
        d.setdefault(suf[-1], []).append(p)
    return d


_STEP2_BY_LAST = _by_last(_STEP2_SUFFIXES)
_STEP3_BY_LAST = _by_last(_STEP3_SUFFIXES)
_STEP4_BY_LAST = _by_last(_STEP4_SUFFIXES)
_EMPTY: tuple = ()


def _is_vowel(word: str, i: int) -> bool:
    return word[i] in _VOWELS


def _regions(word: str) -> tuple[int, int]:
    """R1/R2 start offsets per the Porter2 definition, including the
    gener-/commun-/arsen- prefix exception: R1 starts after the first
    vowel + non-vowel pair, R2 after the first such pair inside R1."""
    if word.startswith(_R1_PREFIXES):
        r1 = 6 if word[0] == "c" else 5   # commun-, else gener-/arsen-
    else:
        m = _VC.search(word)
        if m is None:
            return len(word), len(word)
        r1 = m.end()
    m = _VC.search(word, r1)
    return r1, len(word) if m is None else m.end()


def _ends_short_syllable(word: str) -> bool:
    """True if the word ends in a short syllable:
    (a) vowel + non-vowel(not w/x/Y) preceded by a non-vowel, or
    (b) vowel at word start followed by a non-vowel."""
    n = len(word)
    if n == 2:
        return _is_vowel(word, 0) and not _is_vowel(word, 1)
    if n >= 3:
        return (
            not _is_vowel(word, n - 3)
            and _is_vowel(word, n - 2)
            and word[n - 1] not in _VOWELS
            and word[n - 1] not in "wxY"
        )
    return False


def _is_short(word: str) -> bool:
    r1, _ = _regions(word)
    return r1 >= len(word) and _ends_short_syllable(word)


def stem(word: str) -> str:
    """Stem one lowercase token with the Porter2 algorithm."""
    if len(word) <= 2:
        return word

    if word[0] == "'":
        word = word[1:]
    if word in _EXCEPTIONS1:
        return _EXCEPTIONS1[word]
    if len(word) <= 2:
        return word

    # Mark consonant-y as 'Y'.
    if "y" in word:
        chars = list(word)
        if chars[0] == "y":
            chars[0] = "Y"
        for i in range(1, len(chars)):
            if chars[i] == "y" and chars[i - 1] in _VOWELS:
                chars[i] = "Y"
        word = "".join(chars)

    # Step 0: trailing apostrophe forms.
    if word.endswith(("'", "s")):
        for suf in ("'s'", "'s", "'"):
            if word.endswith(suf):
                word = word[: -len(suf)]
                break

    # Regions are recomputed only when a step changed the word — an
    # unchanged word recomputes to the same (r1, r2), so this is
    # output-identical to recomputing after every step.
    prev = word
    r1, r2 = _regions(word)

    # Step 1a (each of its suffixes ends in "s" or "d").
    if word.endswith(("s", "d")):
        if word.endswith("sses"):
            word = word[:-2]
        elif word.endswith(("ied", "ies")):
            word = word[:-3] + ("i" if len(word) > 4 else "ie")
        elif word.endswith(("us", "ss")):
            pass
        elif word.endswith("s"):
            if any(c in _VOWELS for c in word[:-2]):
                word = word[:-1]

    if word in _EXCEPTIONS2:
        return word

    # Step 1b.
    if word.endswith(("eedly", "eed")):
        suf = "eedly" if word.endswith("eedly") else "eed"
        if len(word) - len(suf) >= r1:
            word = word[: -len(suf)] + "ee"
    elif word.endswith(_STEP1B_SUFFIXES):
        for suf in _STEP1B_SUFFIXES:
            if word.endswith(suf):
                stem_part = word[: -len(suf)]
                if any(c in _VOWELS for c in stem_part):
                    word = stem_part
                    if word.endswith(("at", "bl", "iz")):
                        word += "e"
                    elif word.endswith(_DOUBLES):
                        word = word[:-1]
                    elif _is_short(word):
                        word += "e"
                break

    # Step 1c: y/Y -> i when preceded by a non-vowel that isn't word-initial.
    if (
        len(word) > 2
        and word[-1] in "yY"
        and word[-2] not in _VOWELS
    ):
        word = word[:-1] + "i"

    if word is not prev:
        prev = word
        r1, r2 = _regions(word)

    # Step 2 (longest suffix; condition: found in R1).
    for suf, repl in _STEP2_BY_LAST.get(word[-1:], _EMPTY):
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ogi":
                    if word.endswith("logi"):
                        word = word[:-1]
                elif suf == "li":
                    if len(word) > 2 and word[-3] in _LI_ENDING:
                        word = word[:-2]
                else:
                    word = word[: -len(suf)] + repl
            break

    if word is not prev:
        prev = word
        r1, r2 = _regions(word)

    # Step 3 (longest suffix; condition: found in R1; "ative" needs R2).
    for suf, repl in _STEP3_BY_LAST.get(word[-1:], _EMPTY):
        if word.endswith(suf):
            if len(word) - len(suf) >= r1:
                if suf == "ative":
                    if len(word) - len(suf) >= r2:
                        word = word[:-5]
                else:
                    word = word[: -len(suf)] + repl
            break

    if word is not prev:
        prev = word
        r1, r2 = _regions(word)

    # Step 4 (longest suffix; condition: found in R2).
    for suf in _STEP4_BY_LAST.get(word[-1:], _EMPTY):
        if word.endswith(suf):
            if len(word) - len(suf) >= r2:
                if suf == "ion":
                    if len(word) > 3 and word[-4] in "st":
                        word = word[:-3]
                else:
                    word = word[: -len(suf)]
            break

    if word is not prev:
        r1, r2 = _regions(word)

    # Step 5.
    if word.endswith("e"):
        if len(word) - 1 >= r2 or (
            len(word) - 1 >= r1 and not _ends_short_syllable(word[:-1])
        ):
            word = word[:-1]
    elif word.endswith("l"):
        if len(word) - 1 >= r2 and len(word) > 1 and word[-2] == "l":
            word = word[:-1]

    if "Y" in word:
        word = word.replace("Y", "y")
    return word


class EnglishStemmer:
    """Per-worker stemmer instance (lifecycle parity with stemmer_create,
    reference src/core/filters_builtin.c:206-211)."""

    def stem(self, word: str) -> str:
        return stem(word)


def get_stemmer(lang: str):
    """Returns a stemmer for the language or None (pass-through), mirroring
    sb_stemmer_new's NULL for unsupported languages.  Like libstemmer,
    both ISO codes and full algorithm names are accepted
    (sb_stemmer_new("fr") == sb_stemmer_new("french"))."""
    if lang in ("en", "english"):
        return EnglishStemmer()
    from nxsearch_ray.functions.snowball import get_snowball

    return get_snowball(lang)
