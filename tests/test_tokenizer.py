"""Tokenizer fixtures transcribed from reference src/tests/t_tokenize.c:22-80.

Filter chain for the golden cases is ["normalizer"] with lang=en (the C test
builds a pipeline with the normalizer only); expected token lists include
lowercasing because the normalizer NFKC-casefolds.
"""

import pytest

from nxsearch_ray.functions.filters import build_pipeline
from nxsearch_ray.functions.tokenizer import TokenSet, segment_words, tokenize

CASES = [
    # (text, expected unique tokens in first-seen order) — t_tokenize.c:22-80
    ("a", ["a"]),
    (
        "The quick brown fox jumped over the lazy dog.",
        ["the", "quick", "brown", "fox", "jumped", "over", "lazy", "dog"],
    ),
    ("We will play with I.B.M.", ["we", "will", "play", "with", "i.b.m"]),
    (
        "Hello_I_m_arbitrary_concatenated, foo and bar",
        ["hello_i_m_arbitrary_concatenated", "foo", "and", "bar"],
    ),
    (
        "the [client] is <foo>, some *bold* marks.",
        ["the", "client", "is", "foo", "some", "bold", "marks"],
    ),
    (
        "Text,which doesn't  have spaces right;one;two;three..",
        ["text", "which", "doesn't", "have", "spaces", "right",
         "one", "two", "three"],
    ),
    ("", []),
]


@pytest.fixture(scope="module")
def norm_pipeline():
    return build_pipeline(("normalizer",), "en")


@pytest.mark.parametrize("text,expected", CASES, ids=range(len(CASES)))
def test_tokenize_goldens(text, expected, norm_pipeline):
    tset, _seq = tokenize(text, norm_pipeline)
    assert tset.tokens() == expected


def test_tokenset_counts():
    # t_tokenize.c:85-120 run_tokenset_test
    tset = TokenSet()
    for tok in ["some-term-1", "another-term-2", "another-term-2"]:
        tset.add(tok)
    assert list(tset.counts.items()) == [
        ("some-term-1", 1), ("another-term-2", 2)]
    assert tset.seen == 3
    assert tset.count == 2


def test_sequence_keeps_repeats(norm_pipeline):
    _tset, seq = tokenize("cat dog cat", norm_pipeline)
    assert seq == ["cat", "dog", "cat"]


def test_segment_numbers():
    assert segment_words("price 3,500.12 eur") == ["price", "3,500.12", "eur"]


def test_doc_len_counts_repeats(norm_pipeline):
    # doc_len counts tokens including repetitions
    # (reference src/index/storage.h:86-88)
    tset, _ = tokenize("cat dog cat cat", norm_pipeline)
    assert tset.seen == 4
    assert tset.count == 2


def test_ascii_segmentation_matches_the_unicode_pass():
    """Seeded property: on ASCII text rich in the joiners ``'.:,;`` and
    ``_``, digits and mixed case, ``segment_words`` (its ASCII twin)
    gives exactly the UAX#29-subset pass's tokens."""
    import random

    from nxsearch_ray.functions.tokenizer import _TOKEN_RE

    rng = random.Random(16)
    alphabet = "'.:,;_" * 3 + "0123456789" + "aBcDeFxYz" + " \t\n-!?/\"("
    every_ascii = "".join(map(chr, range(128)))
    for chars in (alphabet, every_ascii):
        for _ in range(3000):
            text = "".join(rng.choice(chars)
                           for _ in range(rng.randint(0, 48)))
            assert segment_words(text) == _TOKEN_RE.findall(text), text
