"""Property-based gates (hypothesis) for the pure vectorized kernels.

These pin invariants the example-based suites can't sweep:
batch-composition independence of the string hash (a hash that depends
on what else is in the Arrow batch would make output depend on block
boundaries — breaking parallelism invariance), per-doc segmentation
independence of the sketch kernels, and idempotent PII redaction.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from nxsearch_ray.functions.hashing import (
    hash_strings,
    minhash_signatures,
    sequence_hashes,
    simhash_signatures,
    unique_per_doc,
)

token_st = st.text(min_size=0, max_size=48)


@settings(max_examples=200, deadline=None)
@given(st.lists(token_st, min_size=1, max_size=30),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_hash_strings_batch_composition_independent(strings, seed):
    """hash(batch)[i] == hash([s_i]) — block boundaries must not leak
    into token hashes (parallelism-invariance at the kernel level)."""
    batched = hash_strings(strings, seed=seed)
    singly = np.concatenate([hash_strings([s], seed=seed)
                             for s in strings])
    assert np.array_equal(batched, singly)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(min_size=1, max_size=20), min_size=2,
                max_size=20, unique=True),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_hash_strings_distinct_short_strings(strings, seed):
    """Distinct strings within the token-hash prefix width must get
    distinct hashes (64-bit collisions at n≤20 would be a kernel bug,
    not chance)."""
    h = hash_strings(strings, seed=seed)
    assert len(set(h.tolist())) == len(strings)


def _split_offsets(lengths):
    off = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=off[1:])
    return off


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=0,
                         max_size=25), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_sketches_doc_segmentation_independent(docs, seed):
    """MinHash/SimHash/sequence-hash of doc i must not depend on which
    other docs share its batch: computing per doc equals computing over
    the concatenated batch."""
    flat = np.array([v for d in docs for v in d], dtype=np.uint64)
    off = _split_offsets([len(d) for d in docs])

    mh_b = minhash_signatures(flat, off, num_perms=16, seed=seed)
    sh_b = simhash_signatures(flat, off)
    sq_b = sequence_hashes(flat, off)
    for i, d in enumerate(docs):
        f1 = np.array(d, dtype=np.uint64)
        o1 = _split_offsets([len(d)])
        assert np.array_equal(
            minhash_signatures(f1, o1, num_perms=16, seed=seed), mh_b[i:i+1])
        assert np.array_equal(simhash_signatures(f1, o1),
                              sh_b[i:i+1])
        assert np.array_equal(sequence_hashes(f1, o1), sq_b[i:i+1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 2**63 - 1), min_size=0,
                         max_size=25), min_size=1, max_size=8))
def test_unique_per_doc_matches_python(docs):
    flat = np.array([v for d in docs for v in d], dtype=np.uint64)
    off = _split_offsets([len(d) for d in docs])
    uflat, uoff = unique_per_doc(flat, off)
    for i, d in enumerate(docs):
        got = uflat[uoff[i]:uoff[i + 1]].tolist()
        assert got == sorted(set(d))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(min_size=0, max_size=80), min_size=1,
                max_size=10))
def test_pii_redaction_idempotent(texts):
    """redact(redact(x)) == redact(x): the replacement tokens contain
    no digits or '@', so a second pass must be a no-op."""
    from nxsearch_ray.stages.pii import redact_pii

    t = pa.table({"text": pa.array(texts, type=pa.string())})
    once = redact_pii(t)
    twice = redact_pii(
        once.drop_columns(["clean_text"]).append_column(
            "text2", once.column("clean_text")),
        text_col="text2")
    assert twice.column("clean_text").to_pylist() == \
        once.column("clean_text").to_pylist()
