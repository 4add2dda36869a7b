"""Signature primitives: batch invariance, sequence hashing, sketches."""

from __future__ import annotations

import numpy as np
import pytest

from nxsearch_ray.functions import hashing as H


def test_hash_strings_batch_invariant():
    """A string's hash must not depend on what else is in the batch
    (regression: padded FNV folds multiplied by the prime)."""
    alone = H.hash_strings(["abc"])[0]
    with_long = H.hash_strings(["abc", "x" * 100])[0]
    with_short = H.hash_strings(["abc", "z"])[0]
    assert alone == with_long == with_short


def test_hash_strings_distinct():
    vals = ["a", "b", "ab", "ba", "aa", "", "abc", "a" * 40, "a" * 41]
    hs = H.hash_strings(vals)
    assert len(set(hs.tolist())) == len(vals)


def test_sequence_hash_order_sensitive():
    a = np.array([1, 2, 3], dtype=np.uint64)
    b = np.array([3, 2, 1], dtype=np.uint64)
    off = np.array([0, 3], dtype=np.int64)
    ha = H.sequence_hashes(a, off)[0]
    hb = H.sequence_hashes(b, off)[0]
    assert ha != hb


def test_sequence_hash_segmentation_invariant():
    """Hash of a doc must not depend on its position in the flat array."""
    x = np.array([7, 8, 9], dtype=np.uint64)
    solo = H.sequence_hashes(x, np.array([0, 3]))[0]
    flat = np.array([1, 2, 7, 8, 9, 4], dtype=np.uint64)
    multi = H.sequence_hashes(flat, np.array([0, 2, 5, 6]))
    assert multi[1] == solo


def test_sequence_hash_empty_doc():
    flat = np.array([5], dtype=np.uint64)
    out = H.sequence_hashes(flat, np.array([0, 0, 1]))
    assert len(out) == 2
    empty_alone = H.sequence_hashes(
        np.empty(0, np.uint64), np.array([0, 0]))[0]
    assert out[0] == empty_alone


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2**63, 400).astype(np.uint64)
    b = np.concatenate([a[:300], rng.integers(0, 2**63, 100)
                        .astype(np.uint64)])
    au = np.unique(a)
    bu = np.unique(b)
    true_j = len(np.intersect1d(au, bu)) / len(np.union1d(au, bu))
    flat = np.concatenate([au, bu])
    off = np.array([0, len(au), len(au) + len(bu)])
    sig = H.minhash_signatures(flat, off, 256, seed=42)
    est = (sig[0] == sig[1]).mean()
    assert abs(est - true_j) < 0.1


def test_simhash_similar_docs_close():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 2**63, 500).astype(np.uint64)
    b = np.concatenate([a[:480], rng.integers(0, 2**63, 20)
                        .astype(np.uint64)])
    c = rng.integers(0, 2**63, 500).astype(np.uint64)
    flat = np.concatenate([np.unique(a), np.unique(b), np.unique(c)])
    off = np.cumsum([0, len(np.unique(a)), len(np.unique(b)),
                     len(np.unique(c))])
    sims = H.simhash_signatures(flat, off)
    close = H.hamming64(sims[0:1], sims[1:2])[0]
    far = H.hamming64(sims[0:1], sims[2:3])[0]
    assert close < far
    assert far > 20


def test_bottomk_and_unique():
    flat = np.array([9, 3, 3, 7, 1, 8, 8, 2], dtype=np.uint64)
    off = np.array([0, 4, 8])
    uflat, uoff = H.unique_per_doc(flat, off)
    assert uflat[uoff[0]:uoff[1]].tolist() == [3, 7, 9]
    assert uflat[uoff[1]:uoff[2]].tolist() == [1, 2, 8]
    bk, bko = H.bottomk_sketch(uflat, uoff, 2)
    assert bk[bko[0]:bko[1]].tolist() == [3, 7]
    assert bk[bko[1]:bko[2]].tolist() == [1, 2]


def test_shingle_hashes_short_doc_single():
    toks = np.array([11, 22], dtype=np.uint64)
    off = np.array([0, 2])
    sh, sho = H.shingle_hashes(toks, off, k=5)
    assert sho.tolist() == [0, 1]
    # deterministic and position-independent
    flat2 = np.array([99, 11, 22], dtype=np.uint64)
    sh2, sho2 = H.shingle_hashes(flat2, np.array([0, 1, 3]), k=5)
    assert sh2[sho2[1]] == sh[0]


def test_band_keys_depend_on_band_and_seed():
    sig = np.arange(128, dtype=np.uint64).reshape(1, 128)
    k1 = H.band_keys(sig, 32, 4, seed=1)
    k2 = H.band_keys(sig, 32, 4, seed=2)
    assert len(set(k1[0].tolist())) == 32
    assert not np.array_equal(k1, k2)


@pytest.mark.parametrize("a,b,expected", [
    (0, 0, 0), (0b1011, 0b0001, 2), (2**64 - 1, 0, 64)])
def test_hamming64(a, b, expected):
    assert H.hamming64(np.array([a], dtype=np.uint64),
                       np.array([b], dtype=np.uint64))[0] == expected
