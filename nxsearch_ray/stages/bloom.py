"""Bloom-filter "seen before" ingest guard — incremental crawl dedup
against a prior corpus.

At 10^12 documents, asking "has this URL been ingested in an earlier
crawl?" as an exact join is a full all-to-all exchange of BOTH
corpora on every incremental batch.  The standard large-crawl answer
(e.g. the Common-Crawl/Heritrix "already-seen" structure, public) is
a Bloom filter built ONCE over the prior corpus's keys and broadcast
to every ingest worker: membership is then a map-only pass with no
shuffle, no false negatives, and a tunable false-positive rate
(~(1-e^{-kn/m})^k), so the expensive exact path runs only for the
tiny "maybe seen" slice.

Mirrors the reference's ingest-time duplicate-id guard
(/root/reference/src/index/dtmap.c idx_dtmap_add's ALREADY_EXISTS
check) re-expressed for the no-shared-state dataflow: the shared
term/dtmap lookup becomes a broadcast read-only bitmap.

Scale plan (one filter family: ``shards`` independent filters routed
by the top bits of the key hash; ``shards=1`` is the single broadcast
bitmap):
  build  — one remote task per input block computes its partial
           bitmap for every shard it has keys for, over zero-copy
           Arrow string buffers (hash_strings is the repo's vectorized
           FNV+splitmix kernel); each shard's partials are OR-folded in
           ``tree_fold``'s 8-ary task tree, so the driver holds nothing
           and peak memory per task is 8 shard bitmaps.  The bitmap is
           sized by the caller; at 10^11 prior keys and 1% FP it is
           ~120 GB, which a 1024-shard layout splits into ~120 MB
           shards.
  probe  — the list of shard refs travels by handle into a task
           wave (stages/join.broadcast_map); each worker
           ray.get()s only the shards its batches' keys route to, ONCE
           each (plasma, zero-copy for the word array), and probes per
           batch with k gather+shift ops, no Python loop.

Positions use Kirsch-Mitzenmacher double hashing (public):
pos_i = (h1 + i*h2) mod m with h2 forced odd, giving k independent-
enough probes from one 64-bit hash.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.hashing import (hash_strings, splitmix64,
                                            string_buffers)
from nxsearch_ray.stages.shuffle import tree_fold

_U64 = np.uint64


def bloom_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    """(n, k) bit positions via double hashing; h2 is forced odd so
    its additive orbit covers the ring for any power-of-two m."""
    h1 = h.astype(_U64)
    h2 = splitmix64(h1 ^ _U64(0xA076_1D64_78BD_642F)) | _U64(1)
    i = np.arange(k, dtype=_U64)[None, :]
    old = np.seterr(over="ignore")
    try:
        return ((h1[:, None] + i * h2[:, None])
                % _U64(m_bits)).astype(np.int64)
    finally:
        np.seterr(**old)


def _key_hashes(values, seed: int) -> np.ndarray:
    """64-bit hashes of a non-empty pa.string Array/ChunkedArray."""
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    offs, data = string_buffers(values)
    return hash_strings(offsets=offs, data=data, seed=seed)


def _all_set(words: np.ndarray, h: np.ndarray, m_bits: int,
             k: int) -> np.ndarray:
    """Per hash: True iff all k of its bits are set in ``words``."""
    pos = bloom_positions(h, m_bits, k)
    bit = (words[pos >> 6] >> (pos & np.int64(63)).astype(_U64)) \
        & _U64(1)
    return bit.astype(bool).all(axis=1)


def bloom_probe(words: np.ndarray, values, *, m_bits: int, k: int,
                seed: int = 0) -> np.ndarray:
    """Vectorized membership over a pa.string Array/ChunkedArray
    against one bitmap: True iff all k bits are set (no false
    negatives by construction)."""
    if not len(values):
        return np.zeros(0, dtype=bool)
    return _all_set(words, _key_hashes(values, seed), m_bits, k)


# Keys are routed to shard = top bits of their hash; each shard is an
# independent Bloom filter over its own key population, held as a
# SEPARATE object ref.  A probe batch groups its keys by shard and
# fetches ONLY the shards it touches (plasma-cached per worker after
# first use), so no single worker ever holds the full bitmap.  With
# ``shards=1`` every key routes to shard 0 and the bit positions are
# those of one bitmap of ``m_bits_per_shard`` bits.


def _shard_of(h: np.ndarray, shards: int) -> np.ndarray:
    """Shard index from the TOP hash bits — disjoint from the
    position bits, which double-hash off the full value."""
    s = max(1, int(shards)).bit_length() - 1
    return (h >> _U64(64 - s)).astype(np.int64) if s else \
        np.zeros(len(h), dtype=np.int64)


def bloom_build_sharded(ds, col: str, *, shards: int = 16,
                        m_bits_per_shard: int = 1 << 16, k: int = 5,
                        seed: int = 0) -> list:
    """List of per-shard bitmap ObjectRefs (``shards`` must be a
    power of two).  One pass: every block contributes a partial to
    EVERY shard it has keys for; per-shard partials fold
    independently, so build parallelism is blocks × shards."""
    import ray

    assert shards & (shards - 1) == 0, "shards must be a power of two"

    @ray.remote
    def _partials(block: pa.Table):
        nwords = (m_bits_per_shard + 63) // 64
        out = [np.zeros(0, dtype=_U64)] * shards   # empty = no keys
        if block.num_rows:
            h = _key_hashes(block.column(col), seed)
            sh = _shard_of(h, shards)
            order = np.argsort(sh, kind="stable")
            h, sh = h[order], sh[order]
            bounds = np.searchsorted(sh, np.arange(shards + 1))
            for s in range(shards):
                hs = h[bounds[s]:bounds[s + 1]]
                if not len(hs):
                    continue
                words = np.zeros(nwords, dtype=_U64)
                pos = bloom_positions(hs, m_bits_per_shard, k).ravel()
                np.bitwise_or.at(
                    words, pos >> 6,
                    _U64(1) << (pos & np.int64(63)).astype(_U64))
                out[s] = words
        # one return value is the object itself, not a 1-list
        return out if shards > 1 else out[0]

    @ray.remote
    def _fold_shard(*parts):
        nwords = (m_bits_per_shard + 63) // 64
        full = [p for p in parts if len(p)]
        return np.bitwise_or.reduce(np.stack(full), axis=0) if full \
            else np.zeros(nwords, dtype=_U64)

    blocks = ds.select_columns([col]).to_arrow_refs()
    if not blocks:
        z = np.zeros((m_bits_per_shard + 63) // 64, dtype=_U64)
        return [ray.put(z.copy()) for _ in range(shards)]
    per_block = [_partials.options(num_returns=shards).remote(b)
                 for b in blocks]
    if shards == 1:
        per_block = [[pb] for pb in per_block]
    refs = []
    for s in range(shards):
        # final fold even for a single part: partials use a 0-length
        # array as the "no keys in this shard" sentinel, which the
        # fold normalizes to a full-width zero bitmap
        refs.append(_fold_shard.remote(
            tree_fold([pb[s] for pb in per_block], _fold_shard)))
    return refs


class ShardedBloomSeen:
    """Probe kernel over a sharded filter (the list of shard refs):
    fetches only the shards a batch's keys route to, each once per
    worker."""

    def __init__(self, shard_refs: list, col: str,
                 m_bits_per_shard: int, k: int, seed: int = 0,
                 out_col: str = "seen_bloom"):
        self.refs = shard_refs
        self.cache: dict[int, np.ndarray] = {}
        self.col = col
        self.m = m_bits_per_shard
        self.k = k
        self.seed = seed
        self.out_col = out_col

    def _shard(self, s: int) -> np.ndarray:
        if s not in self.cache:
            import ray
            self.cache[s] = ray.get(self.refs[s])
        return self.cache[s]

    def __call__(self, batch: pa.Table) -> pa.Table:
        seen = np.zeros(batch.num_rows, dtype=bool)
        if batch.num_rows:
            h = _key_hashes(batch.column(self.col), self.seed)
            sh = _shard_of(h, len(self.refs))
            for s in np.unique(sh):
                rows = np.nonzero(sh == s)[0]
                seen[rows] = _all_set(self._shard(int(s)), h[rows],
                                      self.m, self.k)
        return batch.append_column(self.out_col, pa.array(seen))


def bloom_seen_sharded(ds, shard_refs: list, col: str, *,
                       m_bits_per_shard: int = 1 << 16, k: int = 5,
                       seed: int = 0, out_col: str = "seen_bloom"):
    """Map-only "seen before" flag (``out_col``) against a prebuilt
    filter — the incremental-ingest guard.  No full-bitmap residency
    per worker: the broadcast value is the list of shard refs, not the
    shards."""
    import ray

    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(ds, ray.put(shard_refs), functools.partial(
        ShardedBloomSeen, col=col, m_bits_per_shard=m_bits_per_shard,
        k=k, seed=seed, out_col=out_col))
