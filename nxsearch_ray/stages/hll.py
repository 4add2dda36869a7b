"""HyperLogLog distinct-count sketch — shuffle-free cardinality.

"How many distinct URLs / domains / fingerprints does this corpus
have?" answered exactly is a full all-to-all `unique` exchange; at
10^12 rows the standard answer is HyperLogLog (Flajolet, Fusy,
Gandouet, Meunier 2007, public): a 2^p-register sketch whose
per-block partials MERGE BY ELEMENTWISE MAX, so the whole corpus
folds through the same ``tree_fold`` task tree the Bloom guard uses —
no shuffle, bounded memory, ~1.04/sqrt(2^p) relative error.

Mirrors the reference's global doc/token counters
(/root/reference/src/core/nxs_index.c counter fields) re-expressed
for distinct counts the shared-memory design got "for free" from its
term map.

Registers use the repo's deterministic FNV+splitmix `hash_strings`:
bucket = top p bits, rho = leading-zero count of the remaining bits
+ 1 (exact bit-twiddling clz — no float tricks).  Estimation is the
standard alpha_m * m^2 / sum(2^-M_j) with the small-range
linear-counting correction; the 64-bit-hash regime needs no
large-range correction at any realistic corpus size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.hashing import hash_strings, string_buffers
from nxsearch_ray.stages.shuffle import tree_fold

_U64 = np.uint64

# byte-popcount LUT for the vectorized clz
_POP8 = np.array([bin(i).count("1") for i in range(256)],
                 dtype=np.uint8)


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros over uint64 (propagate
    the highest set bit right, then 64 - popcount)."""
    x = x.copy()
    for s in (1, 2, 4, 8, 16, 32):
        x |= x >> _U64(s)
    pop = _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(
        axis=1, dtype=np.int64)
    return 64 - pop


def hll_partial(values, *, p: int = 12, seed: int = 0) -> np.ndarray:
    """2^p uint8 registers over a pa.string Array/ChunkedArray."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if isinstance(values, pa.ChunkedArray):
        values = values.combine_chunks()
    if not len(values):
        return regs
    offs, data = string_buffers(values)
    h = hash_strings(offsets=offs, data=data, seed=seed)
    bucket = (h >> _U64(64 - p)).astype(np.int64)
    w = (h << _U64(p)) & _U64(0xFFFFFFFFFFFFFFFF)
    rho = np.where(w == 0, 64 - p + 1, _clz64(w) + 1).astype(np.uint8)
    np.maximum.at(regs, bucket, rho)
    return regs


def hll_merge(parts: np.ndarray) -> np.ndarray:
    """Elementwise max over stacked register arrays."""
    return np.maximum.reduce(parts)


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator + small-range linear counting."""
    m = float(len(regs))
    if m >= 128:
        alpha = 0.7213 / (1.0 + 1.079 / m)
    elif m >= 64:
        alpha = 0.709
    elif m >= 32:
        alpha = 0.697
    else:
        alpha = 0.673
    est = alpha * m * m / np.power(2.0, -regs.astype(np.float64)).sum()
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def hll_build_ref(ds, col: str, *, p: int = 12, seed: int = 0):
    """ObjectRef to the merged register array over ``ds[col]`` —
    per-block partials, max-folded by ``tree_fold`` (the driver never
    holds more than task handles)."""
    import ray

    @ray.remote
    def _partial(block: pa.Table):
        if block.num_rows == 0:
            return np.zeros(1 << p, dtype=np.uint8)
        return hll_partial(block.column(col), p=p, seed=seed)

    @ray.remote
    def _fold(*regs):
        return hll_merge(np.stack(regs))

    parts = [_partial.remote(b)
             for b in ds.select_columns([col]).to_arrow_refs()]
    if not parts:
        return ray.put(np.zeros(1 << p, dtype=np.uint8))
    return tree_fold(parts, _fold)


def hll_count(ds, col: str, *, p: int = 12, seed: int = 0) -> float:
    """Approximate COUNT(DISTINCT col) — one streaming pass, no
    shuffle; relative error ~1.04/sqrt(2^p)."""
    import ray

    return hll_estimate(ray.get(hll_build_ref(ds, col, p=p,
                                              seed=seed)))
