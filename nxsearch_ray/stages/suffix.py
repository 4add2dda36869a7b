"""Suffix/containment pass: exact long-span substring verification.

Candidate generation is the anchor pass of the candidate exchange
(stages/pairs.py ``explode_all``: content-defined anchor shingles,
h % anchor_mod == 0, shared by containing and contained documents).
Survivors of the bottom-k containment screen are verified *exactly*
with a suffix automaton over canonical token-id sequences
(functions/suffix.py).

The token sequences reach each pair by broadcast lookup (test scale)
or, at 10^12 docs, by the bucketed pair join (a partition-wise hash
join per endpoint) exactly like stages/verify.py; both plans then call
the one decision kernel ``adjudicate_pairs``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions.suffix import lcs_tokens
from nxsearch_ray.stages.signatures import list_column_numpy

SUFFIX_PAIR_SCHEMA = pa.schema([
    ("a", pa.int64()), ("b", pa.int64()), ("source", pa.string()),
    ("lcs_len", pa.int32()), ("containment", pa.float64()),
    ("exact_jaccard", pa.float64())])


@dataclass
class TokenIndex:
    """page_id → canonical token-id sequence, broadcast through the
    object store."""

    page_ids: np.ndarray     # (n,) int64 sorted
    tok_flat: np.ndarray     # uint64 concatenated
    tok_offsets: np.ndarray  # (n+1,) int64

    @classmethod
    def from_table(cls, t: pa.Table) -> "TokenIndex":
        page = t.column("page_id").to_numpy()
        order = np.argsort(page, kind="stable")
        t = t.take(pa.array(order, type=pa.int64()))
        flat, off = list_column_numpy(t.column("token_ids"))
        return cls(page_ids=page[order], tok_flat=flat, tok_offsets=off)

    def gather(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized multi-doc lookup: (flat token ids, offsets) in
        ``pids`` order.  Raises KeyError on any missing id."""
        from nxsearch_ray.functions.hashing import _seg_arange
        from nxsearch_ray.stages.join import sorted_lookup

        pids = np.asarray(pids, dtype=np.int64)
        pos, hit = sorted_lookup(self.page_ids, pids)
        if not hit.all():
            raise KeyError(int(pids[np.argmin(hit)]))
        starts = self.tok_offsets[pos]
        counts = self.tok_offsets[pos + 1] - starts
        offsets = np.zeros(len(pids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return self.tok_flat[_seg_arange(starts, counts)], offsets


TOKEN_SCHEMA = pa.schema([("page_id", pa.int64()),
                          ("token_ids", pa.list_(pa.uint64()))])


def build_token_index_ref(canonical_ds):
    """ObjectRef to the broadcast TokenIndex, built in ONE remote task
    (stages/join.index_ref)."""
    from nxsearch_ray.stages.join import index_ref

    return index_ref(canonical_ds, TOKEN_SCHEMA, TokenIndex.from_table)


def exact_adjudicate(ta: np.ndarray, tb: np.ndarray, cfg: PipelineConfig
                     ) -> tuple[int, float, float]:
    """(lcs_len, containment, exact_jaccard) for one token-id pair —
    the single exact-decision kernel shared by the broadcast stage, the
    bucketed stage and the oracle.

    The exact shingle Jaccard (vectorized numpy) runs first; when it
    already crosses the keep threshold the pure-Python suffix-automaton
    LCS — the per-pair cost ceiling of this stage — is skipped and
    (lcs, containment) are reported as (-1, 0.0) sentinels.  The KEEP
    decision (containment ≥ thr OR jaccard ≥ thr) is unchanged."""
    m = min(len(ta), len(tb))
    if m == 0:
        return 0, 0.0, 0.0
    jac = exact_shingle_jaccard(ta, tb, cfg.shingle_k)
    if jac >= cfg.jaccard_threshold:
        return -1, 0.0, jac
    lcs = lcs_tokens(ta.tolist(), tb.tolist())
    return lcs, lcs / m, jac


def _seg_unique(vals: np.ndarray, offsets: np.ndarray, n: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment unique: (flat unique values grouped by segment,
    per-segment unique counts)."""
    seg = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    order = np.lexsort((vals, seg))
    v, s = vals[order], seg[order]
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = (v[1:] != v[:-1]) | (s[1:] != s[:-1])
    v, s = v[keep], s[keep]
    return v, np.bincount(s, minlength=n)


def batch_shingle_jaccard(ta_flat: np.ndarray, ta_off: np.ndarray,
                          tb_flat: np.ndarray, tb_off: np.ndarray,
                          k: int) -> np.ndarray:
    """Exact k-shingle-set Jaccard for a whole block of pairs at once:
    TWO shingle_hashes calls (one per side) instead of two per pair,
    then vectorized per-segment set unique + intersection.  Value-
    identical to ``exact_shingle_jaccard`` row by row (same shingle
    hashing, same integer set math, same division)."""
    from nxsearch_ray.functions import hashing as H

    n = len(ta_off) - 1
    sha, offa = H.shingle_hashes(ta_flat, np.asarray(ta_off, np.int64), k)
    shb, offb = H.shingle_hashes(tb_flat, np.asarray(tb_off, np.int64), k)
    ua, ca = _seg_unique(sha, offa, n)
    ub, cb = _seg_unique(shb, offb, n)
    # Each side is unique within a segment, so an adjacent (seg, value)
    # duplicate in the merged sorted stream means "present in both".
    seg = np.concatenate([np.repeat(np.arange(n, dtype=np.int64), ca),
                          np.repeat(np.arange(n, dtype=np.int64), cb)])
    val = np.concatenate([ua, ub])
    order = np.lexsort((val, seg))
    seg_s, val_s = seg[order], val[order]
    dup = (seg_s[1:] == seg_s[:-1]) & (val_s[1:] == val_s[:-1])
    inter = np.bincount(seg_s[1:][dup], minlength=n)
    union = ca + cb - inter
    out = np.zeros(n, dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


def batch_exact_adjudicate(ta_flat: np.ndarray, ta_off: np.ndarray,
                           tb_flat: np.ndarray, tb_off: np.ndarray,
                           cfg: PipelineConfig
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block-batched ``exact_adjudicate``: vectorized shingle Jaccard
    across all pairs decides first; the pure-Python suffix-automaton
    LCS runs only for the borderline remainder (jac < threshold).
    Decision- and value-identical to the scalar kernel per row."""
    ta_off = np.asarray(ta_off, dtype=np.int64)
    tb_off = np.asarray(tb_off, dtype=np.int64)
    n = len(ta_off) - 1
    m = np.minimum(ta_off[1:] - ta_off[:-1], tb_off[1:] - tb_off[:-1])
    jac = batch_shingle_jaccard(ta_flat, ta_off, tb_flat, tb_off,
                                cfg.shingle_k)
    jac[m == 0] = 0.0
    lcs = np.zeros(n, dtype=np.int32)
    con = np.zeros(n, dtype=np.float64)
    passed = (jac >= cfg.jaccard_threshold) & (m > 0)
    lcs[passed] = -1
    for i in np.flatnonzero(~passed & (m > 0)):
        length = lcs_tokens(ta_flat[ta_off[i]:ta_off[i + 1]].tolist(),
                            tb_flat[tb_off[i]:tb_off[i + 1]].tolist())
        lcs[i] = length
        con[i] = length / int(m[i])
    return lcs, con, jac


def exact_shingle_jaccard(ta: np.ndarray, tb: np.ndarray,
                          k: int) -> float:
    """Exact Jaccard of the two docs' k-shingle sets (recomputed from
    token ids — identical shingle hashing to the signature stage)."""
    from nxsearch_ray.functions import hashing as H

    off = np.array([0, len(ta)], dtype=np.int64)
    sha, _ = H.shingle_hashes(ta, off, k)
    offb = np.array([0, len(tb)], dtype=np.int64)
    shb, _ = H.shingle_hashes(tb, offb, k)
    sa = np.unique(sha)
    sb = np.unique(shb)
    if len(sa) == 0 or len(sb) == 0:
        return 0.0
    inter = len(np.intersect1d(sa, sb, assume_unique=True))
    return inter / (len(sa) + len(sb) - inter)


def adjudicate_pairs(pairs: pa.Table, ta_flat: np.ndarray,
                     ta_off: np.ndarray, tb_flat: np.ndarray,
                     tb_off: np.ndarray, cfg: PipelineConfig) -> pa.Table:
    """The one exact decision: given each pair's two token sequences
    (flat + offsets, in pair order), keep a pair when its exact
    suffix-automaton containment ≥ containment_threshold OR its exact
    shingle Jaccard ≥ jaccard_threshold (the borderline-est_j rescue).
    Both plans gather into this — the broadcast plan from the token
    index, the bucketed plan from the joined list columns."""
    if pairs.num_rows == 0:
        return SUFFIX_PAIR_SCHEMA.empty_table()
    lcs, con, jac = batch_exact_adjudicate(
        ta_flat, ta_off, tb_flat, tb_off, cfg)
    keep = (con >= cfg.containment_threshold) | \
        (jac >= cfg.jaccard_threshold)
    out = pa.Table.from_arrays(
        [pairs.column("a"), pairs.column("b"),
         pairs.column("source").cast(pa.string()),
         pa.array(lcs), pa.array(con), pa.array(jac)],
        schema=SUFFIX_PAIR_SCHEMA)
    return out.filter(pa.array(keep))


def exact_containment_table(pairs: pa.Table, idx: TokenIndex,
                            cfg: PipelineConfig) -> pa.Table:
    """Broadcast gather: both endpoints' tokens from the index."""
    return adjudicate_pairs(pairs,
                            *idx.gather(pairs.column("a").to_numpy()),
                            *idx.gather(pairs.column("b").to_numpy()), cfg)


def adjudicate_joined_table(t: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """Bucketed gather: the ``token_ids_a`` / ``token_ids_b`` columns
    the pair join attached."""
    return adjudicate_pairs(t, *list_column_numpy(t.column("token_ids_a")),
                            *list_column_numpy(t.column("token_ids_b")),
                            cfg)


def suffix_verify_broadcast(pairs_ds, idx_ref, cfg: PipelineConfig):
    """Exact adjudication as one task wave against the broadcast token
    index (same plan shape as verify.verify_pairs_broadcast)."""
    from nxsearch_ray.stages.join import broadcast_map, lookup_kernel

    return broadcast_map(
        pairs_ds, idx_ref,
        functools.partial(lookup_kernel, exact_containment_table, cfg),
        batch_size=4096)


def suffix_verify_bucketed(pairs_ds, canonical_ds, cfg: PipelineConfig):
    """Scale path for the exact-adjudication stage: attach both docs'
    token sequences with the pair join (stages/join.pair_join, no
    driver-side token index), then the shared ``adjudicate_pairs``.

    Semi-join reduction first: only a tiny fraction of docs appear in
    screen-passing pairs, so the needed page-id SET (ids only — tiny
    even when payloads are not) is broadcast and prunes the canonical
    side before the payload-carrying exchanges.  Each exchange sizes
    itself from its inputs' rows and bytes (shuffle.partition_width),
    so the heavy token_ids payload widens it by bytes, not rows."""
    from nxsearch_ray.stages.join import (PAIR_SCHEMA, id_set_ref,
                                          pair_join, semi_join)

    pairs_ds = pairs_ds.materialize()
    tok_slim = semi_join(canonical_ds.select_columns(TOKEN_SCHEMA.names),
                         "page_id", id_set_ref(pairs_ds, ["a", "b"]))
    joined = pair_join(pairs_ds, tok_slim, right_key="page_id",
                       pair_schema=PAIR_SCHEMA, right_schema=TOKEN_SCHEMA)
    return joined.map_batches(lambda t: adjudicate_joined_table(t, cfg),
                              batch_format="pyarrow")
