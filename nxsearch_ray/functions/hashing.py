"""Vectorized 64-bit hashing for shingles, MinHash, SimHash and sketches.

The reference has no sketches (SURVEY.md §2.5 A7) — these are the new
Ray-native signature primitives (Broder 1997 MinHash; Charikar 2002 SimHash;
Manku et al. 2007 Hamming bucketing).  Everything here is numpy-vectorized
over a whole Arrow batch at once: token strings are hashed straight out of
the Arrow string buffer via one fancy-indexed gather (no per-row Python in
the hot path), shingles are built with strided uint64 mixing over the
flattened token-hash array, and per-document reductions use
``np.minimum.reduceat`` / ``np.add.reduceat`` over document offsets.

MinHash permutations: ``splitmix64(x ^ seed_i)`` — splitmix64 is a bijection
on uint64, so each seeded variant is a genuine permutation of the hash
space, which is exactly what MinHash needs (min over a random permutation).
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64
_MASK64 = _U64(0xFFFFFFFFFFFFFFFF)

# FNV-1a 64-bit parameters (public domain).
_FNV_OFFSET = _U64(0xCBF29CE484222325)
_FNV_PRIME = _U64(0x100000001B3)

# Max token bytes folded into the token hash (longer tokens: the prefix is
# hashed and the full length is mixed in, so only same-length same-prefix
# tokens can collide — negligible for word-ish tokens).
TOKEN_HASH_WIDTH = 32

# byte-popcount lookup for vectorized Hamming distance
_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _seg_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ranges [s, s+c) for each (start, count) pair — the core
    gather-index builder for segmented (per-document) array ops."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    excl = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.repeat(starts - excl, counts) + np.arange(total, dtype=np.int64)


def seg_triu(starts: np.ndarray, counts: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j), i < j, inside each segment [s, s+c),
    segment by segment in ``np.triu_indices(c, k=1)`` order: the
    all-pairs of many buckets at once, with no per-bucket Python."""
    rows = _seg_arange(starts, counts)
    after = np.repeat(np.asarray(starts, dtype=np.int64) + counts,
                      counts) - 1 - rows
    return np.repeat(rows, after), _seg_arange(rows + 1, after)


def _splitmix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 of the uint64 array ``z``, written into ``z`` (``tmp``
    is scratch of its shape).  uint64 arithmetic wraps mod 2^64, so it
    needs no masks."""
    with np.errstate(over="ignore"):
        z += _U64(0x9E3779B97F4A7C15)
        for shift, mult in ((30, 0xBF58476D1CE4E5B9),
                            (27, 0x94D049BB133111EB)):
            np.right_shift(z, _U64(shift), out=tmp)
            z ^= tmp
            z *= _U64(mult)
        np.right_shift(z, _U64(31), out=tmp)
        z ^= tmp
    return z


def splitmix64(x: np.ndarray | int) -> np.ndarray:
    """Vectorized splitmix64 finalizer (public domain constant set)."""
    z = np.array(x, dtype=_U64)
    z = _splitmix64_inplace(z, np.empty_like(z))
    return z if z.ndim else z[()]


def hash_strings(values=None, offsets: np.ndarray | None = None,
                 data: np.ndarray | None = None,
                 seed: int = 0) -> np.ndarray:
    """64-bit FNV-1a-based hash per string, vectorized.

    Accepts either a Python list of ``str`` (encoded once) or raw Arrow
    string-buffer views: ``offsets`` (int array, n+1) + ``data`` (uint8) —
    the zero-copy path used by the signature stage.
    """
    if offsets is None:
        enc = [v.encode("utf-8") for v in values]
        lens = np.fromiter((len(b) for b in enc), dtype=np.int64,
                           count=len(enc))
        data = np.frombuffer(b"".join(enc), dtype=np.uint8)
        offsets = np.zeros(len(enc) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
    else:
        offsets = np.asarray(offsets, dtype=np.int64)
        data = np.asarray(data, dtype=np.uint8)

    n = len(offsets) - 1
    if n == 0:
        return np.empty(0, dtype=_U64)
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    w = int(min(TOKEN_HASH_WIDTH, lengths.max(initial=0)))

    old = np.seterr(over="ignore")
    try:
        h = np.full(n, _FNV_OFFSET, dtype=_U64)
        if w > 0:
            # Gather an (n, w) byte matrix in one shot; positions past each
            # string's end contribute a constant 0 via the mask.
            idx = starts[:, None] + np.arange(w, dtype=np.int64)[None, :]
            valid = idx < offsets[1:, None]
            np.clip(idx, 0, max(len(data) - 1, 0), out=idx)
            mat = data[idx] * valid
            for j in range(w):
                # only strings long enough take this byte's fold —
                # otherwise the hash would depend on the longest string
                # in the batch (batch-composition-dependent hashes)
                folded = ((h ^ mat[:, j].astype(_U64)) * _FNV_PRIME) \
                    & _MASK64
                h = np.where(valid[:, j], folded, h)
        # Fold in the true length and the seed; finalize.
        h ^= splitmix64(lengths.astype(_U64) ^ _U64(seed & 0xFFFFFFFFFFFFFFFF))
        return splitmix64(h)
    finally:
        np.seterr(**old)


def string_buffers(arr) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (offsets, data) numpy views of a pa.string() column
    (Array or ChunkedArray), honoring the array's slice offset."""
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    bufs = arr.buffers()
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) \
        else np.int32
    offs = np.frombuffer(bufs[1], dtype=off_dtype)[
        arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None \
        else np.empty(0, dtype=np.uint8)
    return offs, data


# independent odd multipliers for the two 64-bit halves of
# content_hash128 (FNV prime; golden-ratio constant forced odd)
_POLY_P1 = _U64(0x100000001B3)
_POLY_P2 = _U64(0x9E3779B97F4A7C15 | 1)


def content_hash128(offsets: np.ndarray, data: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Full-content 128-bit hash per string over raw Arrow string
    buffers: two independent segmented polynomial hashes mod 2^64
    (splitmix64-finalized, length mixed in), returned as int64 views
    (the group keys' Arrow type).

    Unlike ``hash_strings`` (a 32-byte-prefix token hash), EVERY byte
    contributes — this is the engine-side exact-dedup group key.  All
    numpy, O(total bytes), no per-row Python: per-byte weights are a
    power table gathered by position-in-row, per-row sums are one
    ``np.add.reduceat``.  Expected cross-collisions over 128 bits at
    10^12 rows: ~n²/2^129 ≈ 10^-15."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = len(offsets) - 1
    if n <= 0:
        e = np.empty(0, dtype=np.int64)
        return e, e
    starts = offsets[:-1]
    lengths = offsets[1:] - starts
    lo, hi = int(offsets[0]), int(offsets[-1])
    seg = np.asarray(data, dtype=np.uint8)[lo:hi]
    old = np.seterr(over="ignore")
    try:
        halves = []
        for mult, seed in ((_POLY_P1, 0xA5A5), (_POLY_P2, 0x5A5A)):
            if len(seg):
                maxlen = int(lengths.max())
                pows = np.empty(maxlen, dtype=_U64)
                pows[0] = _U64(1)
                if maxlen > 1:
                    np.multiply.accumulate(
                        np.full(maxlen - 1, mult, dtype=_U64),
                        out=pows[1:])
                pos = np.arange(hi - lo, dtype=np.int64) \
                    - np.repeat(starts - lo, lengths)
                contrib = (seg.astype(_U64) + _U64(1)) * pows[pos]
                idx = np.minimum(starts - lo, max(hi - lo - 1, 0))
                sums = np.add.reduceat(contrib, idx)
                sums[lengths == 0] = _U64(0)
            else:
                sums = np.zeros(n, dtype=_U64)
            h = splitmix64(sums ^ splitmix64(
                lengths.astype(_U64) ^ _U64(seed)))
            halves.append(h.view(np.int64))
        return halves[0], halves[1]
    finally:
        np.seterr(**old)


def shingle_hashes(token_hashes: np.ndarray, doc_offsets: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """k-token rolling shingle hashes over a batch.

    ``token_hashes``: flat uint64 array of all docs' token hashes
    concatenated; ``doc_offsets``: int64 (ndocs+1) boundaries.  Documents
    shorter than ``k`` tokens get ONE shingle covering their whole sequence
    (so short docs still dedup on exact equality).  Returns
    ``(flat_shingles, shingle_offsets)`` with per-doc boundaries.
    """
    old = np.seterr(over="ignore")
    try:
        doc_offsets = np.asarray(doc_offsets, dtype=np.int64)
        ndocs = len(doc_offsets) - 1
        tlen = doc_offsets[1:] - doc_offsets[:-1]
        n = len(token_hashes)
        C = _U64(0x9E3779B97F4A7C15)

        out_counts = np.where(tlen == 0, 0, np.maximum(tlen - k + 1, 1))
        shingle_offsets = np.zeros(ndocs + 1, dtype=np.int64)
        np.cumsum(out_counts, out=shingle_offsets[1:])
        flat = np.empty(int(shingle_offsets[-1]), dtype=_U64)
        if n == 0 or len(flat) == 0:
            return flat, shingle_offsets

        # Rolling windows over the flat array; windows that cross document
        # boundaries exist in `win` but are never gathered below.
        nwin = max(n - k + 1, 0)
        if nwin > 0:
            win = np.zeros(nwin, dtype=_U64)
            for j in range(k):
                win = ((win * C) ^ token_hashes[j:nwin + j]) & _MASK64
        else:
            win = np.empty(0, dtype=_U64)

        # Docs with >= k tokens: shingles are windows starting at
        # doc_start .. doc_start + tlen - k (all within the doc).
        long_mask = tlen >= k
        if long_mask.any():
            counts = (tlen - k + 1)[long_mask]
            src_idx = _seg_arange(doc_offsets[:-1][long_mask], counts)
            dst_idx = _seg_arange(shingle_offsets[:-1][long_mask], counts)
            flat[dst_idx] = win[src_idx]

        # Short non-empty docs (< k tokens): one shingle = mix of the whole
        # sequence.  Rare; small Python loop.
        for d in np.nonzero((tlen > 0) & (tlen < k))[0]:
            h = _U64(0)
            for t in token_hashes[doc_offsets[d]:doc_offsets[d + 1]]:
                h = ((h * C) ^ t) & _MASK64
            flat[shingle_offsets[d]] = h
        return flat, shingle_offsets
    finally:
        np.seterr(**old)


def sequence_hashes(flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Order-sensitive 64-bit hash of each document's full token-hash
    sequence (polynomial hash, vectorized with per-position powers +
    segment sums).  Two docs share it iff their canonical token
    sequences are identical — the exact-duplicate pass key."""
    old = np.seterr(over="ignore")
    try:
        offsets = np.asarray(offsets, dtype=np.int64)
        ndocs = len(offsets) - 1
        out = np.zeros(ndocs, dtype=_U64)
        n = len(flat)
        if n == 0 or ndocs == 0:
            counts = (offsets[1:] - offsets[:-1]).astype(_U64)
            return splitmix64(out ^ splitmix64(counts))
        counts = offsets[1:] - offsets[:-1]
        C = _U64(0x100000001B3)
        maxlen = int(counts.max())
        powers = np.empty(maxlen + 1, dtype=_U64)
        powers[0] = _U64(1)
        for j in range(1, maxlen + 1):
            powers[j] = (powers[j - 1] * C) & _MASK64
        # exponent of position i (global) = (doc_end - 1 - i)
        ends = np.repeat(offsets[1:], counts)
        exp = ends - 1 - np.arange(n, dtype=np.int64)
        weighted = (splitmix64(flat) * powers[exp]) & _MASK64
        nonempty = counts > 0
        sums = np.add.reduceat(weighted, offsets[:-1][nonempty])
        out[nonempty] = sums
        # fold in length so prefix-of-zeros style collisions need equal len
        return splitmix64(out ^ splitmix64(counts.astype(_U64)))
    finally:
        np.seterr(**old)


def unique_per_doc(flat: np.ndarray, offsets: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique values per document segment, vectorized.

    Orders the (doc, value) pairs as a two-key lexsort would, in two
    sorts: the values first, then a stable sort of their doc ids, which
    for fewer than 2^15 docs are int16 and so take numpy's radix sort.
    Then drops intra-doc duplicates and rebuilds offsets — the
    distributed analogue of the reference's per-doc term dedup
    (tokenset map, src/core/tokenizer.c:100-111)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    ndocs = len(offsets) - 1
    if len(flat) == 0:
        return flat.astype(_U64, copy=False), offsets.copy()
    doc_ids = np.repeat(
        np.arange(ndocs, dtype=np.int16 if ndocs < 1 << 15 else np.int64),
        offsets[1:] - offsets[:-1])
    order = np.argsort(flat)
    order = order[np.argsort(doc_ids[order], kind="stable")]
    sflat = flat[order]
    sdocs = doc_ids[order]
    keep = np.ones(len(sflat), dtype=bool)
    keep[1:] = (sflat[1:] != sflat[:-1]) | (sdocs[1:] != sdocs[:-1])
    uflat = sflat[keep]
    udocs = sdocs[keep]
    counts = np.bincount(udocs, minlength=ndocs)
    new_offsets = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(counts, out=new_offsets[1:])
    return uflat, new_offsets


def minhash_signatures(flat_shingles: np.ndarray, offsets: np.ndarray,
                       num_perms: int, seed: int) -> np.ndarray:
    """(ndocs, num_perms) uint64 MinHash matrix via seeded splitmix64
    permutations + segment-min, each permutation computed in place in
    one reused buffer.  Empty docs get all-max sentinel rows."""
    offsets = np.asarray(offsets, dtype=np.int64)
    ndocs = len(offsets) - 1
    sig = np.full((ndocs, num_perms), _MASK64, dtype=_U64)
    if len(flat_shingles) == 0 or ndocs == 0:
        return sig
    starts = offsets[:-1]
    nonempty = offsets[1:] > starts
    red_starts = starts[nonempty]
    perm_seeds = splitmix64(
        np.arange(num_perms, dtype=_U64) ^ _U64(seed & 0xFFFFFFFFFFFFFFFF)
    )
    flat = np.asarray(flat_shingles, dtype=_U64)
    v, tmp = np.empty_like(flat), np.empty_like(flat)
    for p in range(num_perms):
        np.bitwise_xor(flat, perm_seeds[p], out=v)
        sig[nonempty, p] = np.minimum.reduceat(
            _splitmix64_inplace(v, tmp), red_starts)
    return sig


def simhash_signatures(flat_shingles: np.ndarray, offsets: np.ndarray,
                       bits: int = 64) -> np.ndarray:
    """(ndocs,) uint64 SimHash: per-bit majority vote over shingle hashes
    (Charikar 2002), vectorized with add.reduceat per bit."""
    offsets = np.asarray(offsets, dtype=np.int64)
    ndocs = len(offsets) - 1
    out = np.zeros(ndocs, dtype=_U64)
    if len(flat_shingles) == 0 or ndocs == 0:
        return out
    starts = offsets[:-1]
    counts = (offsets[1:] - starts).astype(np.int64)
    nonempty = counts > 0
    red_starts = starts[nonempty]
    ne_counts = counts[nonempty]
    acc = np.zeros(len(red_starts), dtype=_U64)
    for b in range(bits):
        col = ((flat_shingles >> _U64(b)) & _U64(1)).astype(np.int64)
        votes = np.add.reduceat(col, red_starts)
        # bit set when ones strictly outnumber zeros (ties → 0: deterministic)
        bitval = (votes * 2 > ne_counts).astype(_U64)
        acc |= bitval << _U64(b)
    out[nonempty] = acc
    return out


def bottomk_sketch(flat_sorted_unique: np.ndarray, offsets: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-k sketch per doc from per-doc *sorted unique* shingles: the
    first min(k, n) values of each segment.  Returns
    (flat_sketch, sketch_offsets)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    ndocs = len(offsets) - 1
    seg = offsets[1:] - offsets[:-1]
    take = np.minimum(seg, k)
    sk_off = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(take, out=sk_off[1:])
    src_idx = _seg_arange(offsets[:-1], take)
    return flat_sorted_unique[src_idx], sk_off


def band_keys(sig: np.ndarray, bands: int, rows: int, seed: int) -> np.ndarray:
    """(ndocs, bands) uint64 LSH band keys: mix each band's row-slice into
    one key, salted with the band index so identical slices in different
    bands never collide."""
    old = np.seterr(over="ignore")
    try:
        ndocs = sig.shape[0]
        C = _U64(0xC2B2AE3D27D4EB4F)
        out = np.empty((ndocs, bands), dtype=_U64)
        for b in range(bands):
            h = splitmix64(np.array(b, dtype=_U64) ^
                           _U64(seed & 0xFFFFFFFFFFFFFFFF))
            acc = np.full(ndocs, h, dtype=_U64)
            for r in range(rows):
                acc = ((acc * C) ^ sig[:, b * rows + r]) & _MASK64
            out[:, b] = splitmix64(acc)
        return out
    finally:
        np.seterr(**old)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a^b) over uint64 arrays (byte-LUT popcount)."""
    x = np.asarray(a, dtype=_U64) ^ np.asarray(b, dtype=_U64)
    by = x.reshape(-1, 1).view(np.uint8)
    return _POPCNT8[by].sum(axis=1).astype(np.int64).reshape(np.shape(x))
