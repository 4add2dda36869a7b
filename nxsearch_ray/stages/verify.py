"""Candidate-pair verification: estimated Jaccard / Hamming / containment.

Semantics donor is the reference's query path: anything compared must
go through identical canonicalization first (reference
src/query/query.c:75-115), and the decision math runs over the derived
signatures.  Two physical plans differ only in how a pair gets its
endpoints' signatures; both then call the one decision kernel
``score_pairs``:

  * **broadcast** (default at test scale; per-node at cluster scale):
    a signature index is built once in the object store and every
    verify task reads it zero-copy — no shuffle.  This is the
    "broadcast the small side" join rule.
  * **bucketed** (the 10^12-doc path): each pair block is sent its
    endpoints' signature rows, each page once however many of the
    block's pairs name it (stages/join.endpoint_map), and scores its
    pairs against a local index of them.  The pairs never move.

A candidate pair carries the *set* of sources that proposed it
(comma-joined, sorted — see stages/pairs.union_pair_sources); the
decision rules themselves apply to every candidate regardless of
source (see ``apply_rules``).  ``keep_minsim`` marks pairs confirmed
outright; ``keep_exact_screen`` marks borderline pairs routed to exact
adjudication (stages/suffix.py: exact shingle Jaccard, then a
window-hash probe for the longest common token run).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions import hashing as H
from nxsearch_ray.stages.signatures import list_column_numpy

_U64 = np.uint64

SCORED_SCHEMA = pa.schema([
    ("a", pa.int64()), ("b", pa.int64()), ("source", pa.string()),
    ("est_jaccard", pa.float64()), ("hamming", pa.int32()),
    ("jaccard_bk", pa.float64()), ("containment_bk", pa.float64()),
    ("keep_minsim", pa.bool_()), ("keep_exact_screen", pa.bool_())])


@dataclass
class SignatureIndex:
    """Signature rows as arrays, sorted by page_id (lookups are
    vectorized ``join.sorted_lookup``): the broadcast lookup index, or
    a pair block's local index over the pages delivered to it.  At
    10^12 docs the full index does not fit on one node and the
    bucketed plan applies (verify_pairs_bucketed)."""

    page_ids: np.ndarray       # (n,) int64 sorted
    mh_res: np.ndarray         # (n, P) uint8 MinHash residues
    simhash: np.ndarray        # (n,) uint64
    bk_flat: np.ndarray        # uint32 bottom-k prefixes (sorted/doc)
    bk_offsets: np.ndarray     # (n+1,) int64

    @classmethod
    def from_table(cls, t: pa.Table, num_perms: int) -> "SignatureIndex":
        """The lookup index: ``t``'s rows sorted by page_id."""
        order = np.argsort(t.column("page_id").to_numpy(), kind="stable")
        t = t.take(pa.array(order, type=pa.int64()))
        mh_flat, _ = list_column_numpy(t.column("mh_res"), dtype=np.uint8)
        bk_flat, bk_off = list_column_numpy(t.column("bottomk"),
                                            dtype=np.uint32)
        return cls(
            page_ids=t.column("page_id").to_numpy(),
            mh_res=mh_flat.reshape(t.num_rows, num_perms),
            simhash=t.column("simhash").to_numpy().astype(_U64),
            bk_flat=bk_flat, bk_offsets=bk_off)

    def rows_for(self, ids: np.ndarray) -> np.ndarray:
        from nxsearch_ray.stages.join import sorted_lookup

        pos, hit = sorted_lookup(self.page_ids, ids)
        if not hit.all():
            raise KeyError(f"page_ids missing from index: {ids[~hit][:5]}")
        return pos


def build_signature_index_ref(sig_ds, cfg: PipelineConfig):
    """ObjectRef to the broadcast SignatureIndex, built in ONE remote
    task (stages/join.index_ref)."""
    from nxsearch_ray.stages.join import index_ref

    return index_ref(sig_ds, _sig_schema(cfg.num_perms),
                     functools.partial(SignatureIndex.from_table,
                                       num_perms=cfg.num_perms))


def _sig_schema(num_perms: int) -> pa.Schema:
    return pa.schema([("page_id", pa.int64()),
                      ("mh_res", pa.list_(pa.uint8(), num_perms)),
                      ("simhash", pa.uint64()),
                      ("bottomk", pa.list_(pa.uint32()))])


def _padded_gather(flat: np.ndarray, offsets: np.ndarray,
                   rows: np.ndarray, width: int,
                   pad: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """(npairs, width) matrix of each row's sketch slice, padded with
    ``pad`` past its true length; also returns the true lengths."""
    starts = offsets[rows]
    lens = offsets[rows + 1] - starts
    idx = starts[:, None] + np.arange(width, dtype=np.int64)[None, :]
    valid = idx < (starts + lens)[:, None]
    np.clip(idx, 0, max(len(flat) - 1, 0), out=idx)
    mat = np.where(valid, flat[idx] if len(flat) else pad, pad)
    return mat, lens


def bottomk_pair_scores(flat: np.ndarray, offsets: np.ndarray,
                        ia: np.ndarray, ib: np.ndarray,
                        k: int) -> tuple[np.ndarray, np.ndarray]:
    """(jaccard_bk, containment_bk) per pair from bottom-k sketches,
    fully vectorized across the pair batch.

    Bottom-k estimate: within the k smallest of the union of both
    sketches ("window", upper value hi), jaccard ≈ |in both| /
    |window| and containment ≈ |in both| / min(|SA ≤ hi|, |SB ≤ hi|)
    — dividing by the less-sampled side; any element ≤ hi of either
    full set is guaranteed present in that doc's sketch, which is what
    makes the estimator valid.

    Implementation: pad each pair's two (sorted) sketches into a
    (npairs, 2k) matrix with distinct sentinels, one row-wise sort,
    then adjacency marks intersection elements (each sketch's values
    are unique, so duplicates only arise across the two sketches)."""
    n = len(ia)
    jac = np.zeros(n, dtype=np.float64)
    con = np.zeros(n, dtype=np.float64)
    if n == 0:
        return jac, con
    offsets = np.asarray(offsets, dtype=np.int64)
    dt = flat.dtype if len(flat) else np.dtype(np.uint32)
    if dt.itemsize < 8:
        # widen so the pad sentinels sit OUTSIDE the value range — a
        # genuine sketch value can never collide with a pad (in-band
        # sentinels mis-scored real values w.p. ~2^-32 per element)
        flat = flat.astype(np.int64)
        bound = np.int64(1) << np.int64(8 * dt.itemsize)
        PAD_B = bound            # "real" test below is `< PAD_B`
        PAD_A = bound + 1        # distinct: pads never "match"
    else:
        top = np.iinfo(dt).max
        PAD_A = dt.type(top)
        PAD_B = dt.type(top - 1)
    SA, la = _padded_gather(flat, offsets, np.asarray(ia), k, PAD_A)
    SB, lb = _padded_gather(flat, offsets, np.asarray(ib), k, PAD_B)
    la = np.minimum(la, k)
    lb = np.minimum(lb, k)

    M = np.concatenate([SA, SB], axis=1)
    M.sort(axis=1)
    # intersection marks among REAL values only — runs of identical
    # pad sentinels at the row tail must not count
    dup = (M[:, 1:] == M[:, :-1]) & (M[:, 1:] < PAD_B)
    uniq = np.concatenate(
        [np.ones((n, 1), dtype=bool), ~dup], axis=1)
    ucount = np.cumsum(uniq, axis=1)

    total_unique = la + lb - dup.sum(axis=1)
    win = np.minimum(total_unique, k)              # window size
    nonempty = (la > 0) & (lb > 0)
    # index of the win-th unique element per row = hi position
    target = np.maximum(win, 1)
    hi_pos = np.argmax(ucount >= target[:, None], axis=1)
    hi = M[np.arange(n), hi_pos]

    nboth = np.sum(dup & (M[:, 1:] <= hi[:, None]), axis=1)
    n_a = np.sum(SA <= hi[:, None], axis=1)
    n_b = np.sum(SB <= hi[:, None], axis=1)
    n_small = np.minimum(n_a, n_b)

    ok = nonempty & (win > 0)
    jac[ok] = nboth[ok] / win[ok]
    okc = ok & (n_small > 0)
    con[okc] = nboth[okc] / n_small[okc]
    return jac, con


def apply_rules(sources: list[str], est_j: np.ndarray, ham: np.ndarray,
                con_bk: np.ndarray, cfg: PipelineConfig
                ) -> tuple[np.ndarray, np.ndarray]:
    """(keep_minsim, keep_exact_screen) — the single decision function
    shared by broadcast stage, bucketed stage and the python oracle.

    Decision rules apply to EVERY candidate regardless of which pass
    proposed it (sources only govern candidate *generation*):

      keep_minsim      — confirmed outright: exact sequence match, or
                         est_jaccard ≥ threshold, or SimHash Hamming
                         within the pigeonhole bound.
      keep_exact_screen — borderline: bottom-k containment above the
                         loose screen, or est_jaccard in the
                         [borderline, threshold) noise window.  These
                         go to exact adjudication (exact shingle
                         Jaccard, then window-hash containment)."""
    has_exact = np.array(["exact" in s.split(",") for s in sources])
    keep_minsim = has_exact | (est_j >= cfg.jaccard_threshold) | \
        (ham <= cfg.simhash_hamming)
    keep_screen = (con_bk >= 0.5 * cfg.containment_threshold) | \
        ((est_j >= cfg.jaccard_borderline)
         & (est_j < cfg.jaccard_threshold))
    return keep_minsim, keep_screen


def score_pairs(pairs: pa.Table, sigs: SignatureIndex, ia: np.ndarray,
                ib: np.ndarray, cfg: PipelineConfig) -> pa.Table:
    """The one verify decision: score each pair from its endpoints'
    signature rows ``sigs[ia]`` / ``sigs[ib]`` and return only the
    surviving pairs (any rule passed).  Both plans gather into this by
    page-id lookup (``score_pairs_table``) — the broadcast plan in the
    full index, the bucketed plan in a local index of the pages
    delivered to its pair block — so their outputs are identical."""
    if pairs.num_rows == 0:
        return SCORED_SCHEMA.empty_table()
    est_j = (sigs.mh_res[ia] == sigs.mh_res[ib]).mean(axis=1)
    ham = H.hamming64(sigs.simhash[ia], sigs.simhash[ib])
    jac_bk, con_bk = bottomk_pair_scores(
        sigs.bk_flat, sigs.bk_offsets, ia, ib, cfg.bottomk)
    src = pairs.column("source").to_pylist()
    keep_minsim, keep_screen = apply_rules(src, est_j, ham, con_bk, cfg)
    keep = keep_minsim | keep_screen
    out = pa.Table.from_arrays(
        [pairs.column("a"), pairs.column("b"),
         pa.array(src, type=pa.string()),
         pa.array(est_j, type=pa.float64()),
         pa.array(ham.astype(np.int32)),
         pa.array(jac_bk, type=pa.float64()),
         pa.array(con_bk, type=pa.float64()),
         pa.array(keep_minsim), pa.array(keep_screen)],
        schema=SCORED_SCHEMA)
    return out.filter(pa.array(keep))


def score_pairs_table(pairs: pa.Table, idx: SignatureIndex,
                      cfg: PipelineConfig) -> pa.Table:
    """Broadcast gather: look both endpoints up in the index."""
    return score_pairs(pairs, idx,
                       idx.rows_for(pairs.column("a").to_numpy()),
                       idx.rows_for(pairs.column("b").to_numpy()), cfg)


def verify_pairs_broadcast(pairs_ds, idx_ref, cfg: PipelineConfig):
    """Broadcast verify: one wave of plain tasks whose only per-worker
    state is the index (``join.broadcast_map``); ``ray.get`` of
    plasma-backed numpy is zero-copy.  Measured on 520k pages / 8.6M
    candidates: 20-27 s at 8 cpus and 49-55 s at 2, because
    batch_size-granular tasks keep every CPU busy and worker processes
    are already warm."""
    from nxsearch_ray.stages.join import broadcast_map, lookup_kernel

    return broadcast_map(
        pairs_ds, idx_ref,
        functools.partial(lookup_kernel, score_pairs_table, cfg),
        batch_size=32768, schema=SCORED_SCHEMA)


def score_delivered(cfg: PipelineConfig, pairs: pa.Table,
                    pages: pa.Table) -> pa.Table:
    """Bucketed gather: ``score_pairs_table`` over a local index of the
    pages ``join.endpoint_map`` delivered to the pair block."""
    return score_pairs_table(
        pairs, SignatureIndex.from_table(pages, cfg.num_perms), cfg)


def verify_pairs_bucketed(pairs_ds, sig_ds, cfg: PipelineConfig):
    """Scale path: each pair block gets its endpoints' signature rows,
    each page once (stages/join.endpoint_map: the signature side's split
    keeps only the signature columns), and one task per pair block
    scores it against a local index of them (``score_delivered``).  The
    delivery takes its width from the signature side's block metadata
    (shuffle.partition_width)."""
    from nxsearch_ray.stages.join import endpoint_map

    return endpoint_map(pairs_ds, sig_ds, _sig_schema(cfg.num_perms),
                        functools.partial(score_delivered, cfg),
                        SCORED_SCHEMA)
