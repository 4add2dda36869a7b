"""Bloom-filter ingest-guard gates: no false negatives ever, FP rate
within theory, distributed tree-fold == single-pass bitmap, and the
url_seen_guard query's invariant + mixture over the sf tables.  The
single-filter cases build the one-shard member of the filter family."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

M_BITS, K = 1 << 16, 5


def _strings(n, tag):
    return [f"{tag}-{i:06d}-{i * 2654435761 % 997}" for i in range(n)]


def _one_filter(ds):
    """The bitmap of the one-shard filter over ``ds["url"]``."""
    import ray

    from nxsearch_ray.stages.bloom import bloom_build_sharded

    [ref] = bloom_build_sharded(ds, "url", shards=1,
                                m_bits_per_shard=M_BITS, k=K)
    return ray.get(ref)


def test_no_false_negatives_and_fp_rate(ray_session):
    """Every inserted key probes True; non-member FP rate stays
    within 5x the theoretical (1 - e^{-kn/m})^k."""
    import ray.data as rd

    from nxsearch_ray.stages.bloom import bloom_probe

    members = _strings(2000, "in")
    ds = rd.from_arrow(pa.table({"url": pa.array(members)})) \
        .repartition(7)
    words = _one_filter(ds)

    assert bloom_probe(words, pa.array(members),
                       m_bits=M_BITS, k=K).all()

    others = _strings(20000, "out")
    fp = bloom_probe(words, pa.array(others),
                     m_bits=M_BITS, k=K).mean()
    theory = (1 - math.exp(-K * len(members) / M_BITS)) ** K
    assert fp <= max(5 * theory, 0.01), (fp, theory)


def test_tree_fold_equals_single_pass(ray_session):
    """The tree_fold OR fold over many blocks must produce the exact
    bitmap a single local pass produces."""
    import ray.data as rd

    from nxsearch_ray.functions.hashing import (hash_strings,
                                                string_buffers)
    from nxsearch_ray.stages.bloom import bloom_positions

    vals = _strings(5000, "x")
    ds = rd.from_arrow(pa.table({"url": pa.array(vals)})) \
        .repartition(23)
    got = _one_filter(ds)
    offs, data = string_buffers(pa.array(vals))
    pos = bloom_positions(hash_strings(offsets=offs, data=data, seed=0),
                          M_BITS, K).ravel()
    want = np.zeros(M_BITS // 64, dtype=np.uint64)
    np.bitwise_or.at(want, pos >> 6,
                     np.uint64(1) << (pos & 63).astype(np.uint64))
    assert np.array_equal(got, want)


def test_empty_input(ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.bloom import bloom_probe

    ds = rd.from_arrow(pa.table({"url": pa.array([], type=pa.string())}))
    words = _one_filter(ds)
    assert not words.any()
    assert not bloom_probe(words, pa.array(["anything"]),
                           m_bits=M_BITS, k=K).any()
    assert len(bloom_probe(words, pa.array([], type=pa.string()),
                           m_bits=M_BITS, k=K)) == 0


def test_bloom_seen_stage(ray_session):
    """The probe stage appends the flag column per batch."""
    import ray.data as rd

    from nxsearch_ray.stages.bloom import (bloom_build_sharded,
                                           bloom_seen_sharded)

    members = _strings(500, "m")
    prior = rd.from_arrow(pa.table({"url": pa.array(members)}))
    refs = bloom_build_sharded(prior, "url", shards=1,
                               m_bits_per_shard=M_BITS, k=K)
    probe = rd.from_arrow(pa.table(
        {"url": pa.array(members[:100] + _strings(100, "nope"))}))
    out = pa.concat_tables(
        [b for b in bloom_seen_sharded(probe, refs, "url",
                                       m_bits_per_shard=M_BITS,
                                       k=K).iter_batches(
                                           batch_format="pyarrow")])
    seen = out.column("seen_bloom").to_numpy(zero_copy_only=False)
    assert seen[:100].all()                 # members: never missed


def test_url_seen_guard_query(ray_session):
    """Invariant all-true; seen_exact is a genuine mixture (copies /
    tails of even docs resolve into the prior, odd docs don't)."""
    import __ray_entry__ as e

    tb = pa.concat_tables(
        [b for b in e.queries()["url_seen_guard"](
            "/root/testdata/sf0.001").iter_batches(
                batch_format="pyarrow")])
    nfn = tb.column("no_false_negative").to_numpy(zero_copy_only=False)
    seen = tb.column("seen_exact").to_numpy(zero_copy_only=False)
    assert nfn.all()
    assert 0 < seen.sum() < len(seen)


def test_sharded_sound_and_comparable_fp(ray_session):
    """The sharded filter keeps the soundness guarantee (no false
    negatives — every member probes True through the shard route)
    and, at the same total bits-per-key, its FP rate on non-members
    stays within the single-filter theory band.  Exact verdict
    equality with the single filter does NOT hold (positions are
    taken mod a different m), so it is not asserted."""
    import math

    import ray.data as rd

    from nxsearch_ray.stages.bloom import (bloom_build_sharded,
                                           bloom_seen_sharded)

    members = _strings(3000, "in")
    prior = rd.from_arrow(pa.table({"url": pa.array(members)})) \
        .repartition(9)
    shards = 8
    per_shard = M_BITS // shards
    sharded = bloom_build_sharded(prior, "url", shards=shards,
                                  m_bits_per_shard=per_shard, k=K)

    def flags(vals):
        ds = rd.from_arrow(pa.table({"url": pa.array(vals)})) \
            .repartition(5)
        t = pa.concat_tables([b for b in bloom_seen_sharded(
            ds, sharded, "url", m_bits_per_shard=per_shard,
            k=K).iter_batches(batch_format="pyarrow")]).sort_by("url")
        return t.column("seen_bloom").to_numpy(zero_copy_only=False)

    assert flags(members).all()            # soundness through shards
    fp = flags(_strings(20000, "out")).mean()
    theory = (1 - math.exp(-K * len(members) / M_BITS)) ** K
    assert fp <= max(5 * theory, 0.01), (fp, theory)


def test_sharded_single_block_and_empty(ray_session):
    """One-block builds normalize the empty-shard sentinel; empty
    datasets yield all-zero shards that probe False."""
    import ray
    import ray.data as rd

    from nxsearch_ray.stages.bloom import (bloom_build_sharded,
                                           bloom_seen_sharded)

    one = rd.from_arrow(pa.table({"url": pa.array(["solo-key"])}))
    refs = bloom_build_sharded(one, "url", shards=4,
                               m_bits_per_shard=1 << 10, k=3)
    ws = ray.get(refs)
    assert all(len(w) == (1 << 10) // 64 for w in ws)
    probe = rd.from_arrow(pa.table(
        {"url": pa.array(["solo-key", "missing"])}))
    t = pa.concat_tables([b for b in bloom_seen_sharded(
        probe, refs, "url", m_bits_per_shard=1 << 10,
        k=3).iter_batches(batch_format="pyarrow")]).sort_by("url")
    flags = dict(zip(t.column("url").to_pylist(),
                     t.column("seen_bloom").to_pylist()))
    assert flags["solo-key"] is True

    empty = rd.from_arrow(pa.table(
        {"url": pa.array([], type=pa.string())}))
    erefs = bloom_build_sharded(empty, "url", shards=4,
                                m_bits_per_shard=1 << 10, k=3)
    ews = ray.get(erefs)
    assert all(not w.any() for w in ews)
