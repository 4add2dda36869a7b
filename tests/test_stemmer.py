"""Porter2 (Snowball English) stemmer goldens.

The pairs below are from the public Snowball English specification and its
published sample vocabulary (snowballstem.org) — the same algorithm
libstemmer runs for the reference's stemmer filter
(src/core/filters_builtin.c:206-245).
"""

import hashlib

import numpy as np
import pytest

from nxsearch_ray.functions.snowball import (stem_french, stem_german,
                                             stem_spanish)
from nxsearch_ray.functions.stemmer import stem

GOLDENS = [
    # fixtures (FIXTURES.md §4)
    ("jumped", "jump"),
    ("foxes", "fox"),
    # step 1a
    ("caresses", "caress"),
    ("ties", "tie"),
    ("cries", "cri"),
    ("cats", "cat"),
    ("gas", "gas"),
    # step 1b + doubling / e-restoration
    ("running", "run"),
    ("hopping", "hop"),
    ("stemming", "stem"),
    ("falling", "fall"),
    ("agreed", "agre"),
    ("sized", "size"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"),
    ("sky", "sky"),          # exception list
    # exceptions
    ("skies", "sky"),
    ("dying", "die"),
    ("news", "news"),
    ("inning", "inning"),
    ("proceed", "proceed"),
    # steps 2-4
    ("national", "nation"),
    ("rational", "ration"),
    ("digitizer", "digit"),
    ("hopefulness", "hope"),
    ("generously", "generous"),
    ("communism", "communism"),  # commun- prefix exception keeps R1 tight
    # step 5
    ("rate", "rate"),
    ("cease", "ceas"),
    # short words untouched
    ("be", "be"),
    ("as", "as"),
    ("on", "on"),
]


@pytest.mark.parametrize("word,expected", GOLDENS)
def test_stemmer_goldens(word, expected):
    assert stem(word) == expected


# Pinned word lists for the digests below: a synthetic vocabulary of
# random lowercase 3-9 letter words, then seeded random words over a
# mixed alphabet (vowels, y, apostrophes, fr/de/es letters) with the
# R1 prefix exceptions and the suffixes every step probes.
_LETTERS = list("abcdefghijklmnopqrstuvwxyz")
_MIXED = _LETTERS + list("aeiouyy'") + list("éèêàâçëïîôûùäöüßñáíóú")
_HEADS = ["", "", "", "", "gener", "commun", "arsen", "y", "'", "re"]
_TAILS = [
    "", "", "", "s", "'s", "'s'", "'", "ed", "ing", "ly", "y", "ies",
    "sses", "eed", "eedly", "ingly", "edly", "ational", "ization",
    "fulness", "iveness", "biliti", "logi", "li", "alize", "icate",
    "ative", "ement", "ment", "ion", "ance", "ible", "ous", "ism", "er",
    "ements", "ité", "ités", "euse", "ique", "issement", "ations",
    "ateur", "ir", "issons", "erions", "ées", "aient", "ern", "em",
    "en", "es", "est", "ung", "heit", "keit", "lich", "isch", "ig",
    "end", "amiento", "imientos", "aciones", "mente", "ando", "iendo",
    "ándolo", "arse", "ían", "aremos", "idad", "ivas", "ución",
]


def _pinned_words() -> list[str]:
    rng = np.random.default_rng(20240101)
    letters = np.array(_LETTERS)
    vocab: set[str] = set()
    while len(vocab) < 32768:
        for n in rng.integers(3, 10, 32768):
            vocab.add("".join(rng.choice(letters, int(n))))
            if len(vocab) == 32768:
                break
    rng = np.random.default_rng(7)
    mixed = np.array(_MIXED)
    heads = rng.integers(len(_HEADS), size=20_000)
    tails = rng.integers(len(_TAILS), size=20_000)
    lens = rng.integers(1, 9, size=20_000)
    return sorted(vocab) + [
        _HEADS[h] + "".join(rng.choice(mixed, int(k))) + _TAILS[t]
        for h, t, k in zip(heads, tails, lens)]


@pytest.mark.parametrize("fn,digest", [
    (stem, "aa3bd0330aa958167d69ec7977de26c1110f523187fe7fb65429c23ca83723da"),
    (stem_french,
     "0da6ae2dbc2e33370acd032c281b00b4c4769d3bae0a2bec24458997c10c8cfc"),
    (stem_german,
     "94cc6d1cdc11c9c9a05466319025e70fceb9665fed8e096bf92529d77e5e0e6a"),
    (stem_spanish,
     "bf916ce9549759b1b330422a64316382677cb8817ef31f541d16db36cdf1be1a"),
])
def test_stemmer_output_digest(fn, digest):
    """Every stem of 52,768 pinned words, as one sha256: a rewrite of
    a stemmer's internals must leave each output as it was."""
    words = _pinned_words()
    assert len(words) == 52_768
    got = hashlib.sha256("\n".join(map(fn, words)).encode()).hexdigest()
    assert got == digest
