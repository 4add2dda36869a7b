"""Suffix/containment pass: exact long-span substring verification.

Candidate generation is the anchor pass of the candidate exchange
(stages/pairs.py ``explode_all``: content-defined anchor shingles,
h % anchor_mod == 0, shared by containing and contained documents).
Survivors of the bottom-k containment screen are adjudicated *exactly*
over canonical token-id sequences, a batch at a time with no per-pair
Python: each distinct page's shingle set is built once per batch for
the exact Jaccard, and a strided window-hash probe with exact
verification of every hit decides LCS ≥ L (Karp & Rabin 1987).  The
scalar ``exact_adjudicate`` (suffix automaton, functions/suffix.py)
states the same decision and is the kernel's test oracle.

The token sequences reach each pair by broadcast lookup (test scale)
or, at 10^12 docs, by delivering each pair block its endpoints' pages
once (stages/join.endpoint_map) exactly like stages/verify.py; both
plans then look the pages up in a token index and call the one
decision kernel ``adjudicate_docs``.
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
    """(lcs_len, containment, exact_jaccard) for one token-id pair: the
    scalar statement of ``adjudicate_docs``' decision, kept as its test
    oracle (``oracle.py`` runs its own loop on the same two functions).

    The exact shingle Jaccard runs first; when it already crosses the
    keep threshold the suffix-automaton LCS is skipped and (lcs,
    containment) are reported as (-1, 0.0) sentinels.  A pair is kept
    when containment ≥ containment_threshold OR jaccard ≥
    jaccard_threshold."""
    m = min(len(ta), len(tb))
    if m == 0:
        return 0, 0.0, 0.0
    jac = exact_shingle_jaccard(ta, tb, cfg.shingle_k)
    if jac >= cfg.jaccard_threshold:
        return -1, 0.0, jac
    lcs = lcs_tokens(ta.tolist(), tb.tolist())
    return lcs, lcs / m, jac


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


def docs_shingle_jaccard(ia: np.ndarray, ib: np.ndarray, flat: np.ndarray,
                         off: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Exact k-shingle-set Jaccard of docs ``ia[i]`` and ``ib[i]`` (rows
    of the distinct docs ``flat``/``off``), value-identical to
    ``exact_shingle_jaccard`` per pair: the same shingle hashing, the
    same integer set math and the same division.  Returns ``(jaccard,
    inter, cnt)``: per pair the Jaccard and the intersection's size,
    per distinct doc its distinct shingle count.

    Each doc's sorted-unique shingle set is built once, however many
    pairs it is in.  A shingle's key is (doc, dense rank of its value),
    which is sorted as built, so each pair's intersection is one sorted
    lookup of the smaller set's keys under the other doc."""
    from nxsearch_ray.functions import hashing as H
    from nxsearch_ray.stages.join import sorted_lookup

    sh, sh_off = H.shingle_hashes(flat, off, k)
    u, u_off = H.unique_per_doc(sh, sh_off)
    cnt = np.diff(u_off)
    values, rank = np.unique(u, return_inverse=True)
    keys = np.repeat(np.arange(len(cnt)) * len(values), cnt) + rank
    src = np.where(cnt[ia] <= cnt[ib], ia, ib)
    c = cnt[src]
    _, hit = sorted_lookup(keys, np.repeat((ia + ib - src) * len(values), c)
                           + rank[H._seg_arange(u_off[src], c)])
    inter = np.bincount(np.repeat(np.arange(len(ia)), c)[hit],
                        minlength=len(ia))
    union = cnt[ia] + cnt[ib] - inter
    out = np.zeros(len(ia), dtype=np.float64)
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out, inter, cnt


def run_ruled_out(ia: np.ndarray, ib: np.ndarray, lens: np.ndarray,
                  inter: np.ndarray, cnt: np.ndarray, need: np.ndarray,
                  k: int) -> np.ndarray:
    """Per pair: whether the shingle counts alone show that docs
    ``ia[i]`` and ``ib[i]`` share no run of ``need[i]`` tokens (a
    q-gram count filter; Gravano et al., VLDB 2001).  A common run of
    L ≥ k tokens covers L − k + 1 shingle positions of each doc, and
    every shingle there is in the intersection, so each doc d keeps at
    most its len_d − L other positions for its ``cnt[d] − inter``
    shingles outside it.  Sound for hashed shingle sets too: a hash
    collision only merges values.  Below k a run covers no shingle and
    rules nothing out."""
    return (need >= k) & ((cnt[ia] - inter > lens[ia] - need)
                          | (cnt[ib] - inter > lens[ib] - need))


def min_run(m: np.ndarray, thr: float) -> np.ndarray:
    """Smallest integer L with L / m >= thr in float64 — the LCS a pair
    with shorter side m needs to pass the containment threshold.
    ``ceil(thr * m)`` can overshoot by one (0.55 * 100 = 55.000…01)."""
    m = np.asarray(m, dtype=np.int64)
    lo = np.maximum(np.ceil(thr * m).astype(np.int64) - 1, 0)
    # (lo - 1) / m < thr, and fl(x / m) is monotone in x: L ∈ lo..lo+2
    return lo + (lo / m < thr) + ((lo + 1) / m < thr)


_B = 0x9E3779B97F4A7C15              # odd, so invertible mod 2^64
_B_INV = pow(_B, -1, 1 << 64)


def _prefix_hashes(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Q, P) over the flat token array, mod 2^64: Q[g] = Σ_{j<g}
    t[j]·B^-(j+1) and P[g] = B^g, so ``window_hash`` needs no per-doc
    state."""
    n = len(flat)
    q = np.zeros(n + 1, dtype=np.uint64)
    p = np.ones(n + 1, dtype=np.uint64)
    np.cumprod(np.full(n, _B, dtype=np.uint64), out=p[1:])
    np.cumsum(flat * np.cumprod(np.full(n, _B_INV, dtype=np.uint64)),
              out=q[1:])
    return q, p


def window_hash(q: np.ndarray, p: np.ndarray, g: np.ndarray,
                w: np.ndarray) -> np.ndarray:
    """Polynomial hash Σ_i t[g+i]·B^(w-1-i) (mod 2^64) of each window
    [g, g + w) of the flat tokens ``_prefix_hashes`` ran over."""
    e = g + w
    return (q[e] - q[g]) * p[e]


def _runs_through(flat: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                  w: np.ndarray, back: np.ndarray, fwd: np.ndarray
                  ) -> np.ndarray:
    """Per hit: the length of the run of equal tokens on the diagonal
    through the windows [gx, gx + w) and [gy, gy + w), extended at most
    ``back`` tokens before and ``fwd`` after them; 0 when the windows
    themselves differ (a hash collision)."""
    from nxsearch_ray.functions.hashing import _seg_arange

    span = back + w + fwd
    end = np.cumsum(span)
    first = end - span
    differ = np.concatenate((
        [-1], np.flatnonzero(flat[_seg_arange(gx - back, span)]
                             != flat[_seg_arange(gy - back, span)]),
        end[-1:]))
    ws = first + back                       # the windows, in span coords
    i = np.searchsorted(differ, ws)
    j = np.searchsorted(differ, ws + w)
    prev = np.maximum(differ[i - 1], first - 1)
    nxt = np.minimum(differ[j], end)
    return np.where(i == j, nxt - prev - 1, 0)


# tokens compared per ``_runs_through`` call: bounds the memory of a
# batch whose pages repeat a block many times (one hit per repeat)
_SPAN_CHUNK = 1 << 22


def docs_containment_lcs(ia: np.ndarray, ib: np.ndarray, flat: np.ndarray,
                         off: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Per pair: the longest common token run of docs ``ia[i]`` and
    ``ib[i]`` (rows of ``flat``/``off``) — exact when it is at least
    ``need[i]`` (≥ 1) tokens, else some shorter length.

    Any run of L = need tokens holds, at stride s = ⌈L/2⌉, one whole
    W-window of the longer doc (W = L − s + 1), which equals a W-window
    of the shorter one.  So every W-window of the shorter doc and the
    longer doc's windows at stride s are hashed (per-doc polynomial
    prefix hashes) and probed in one sort on (pair, window hash).  Each
    hit is verified on the token ids and extended exactly along its
    diagonal, to the ends of the two docs' overlap there (at most the
    shorter doc's length); a hash collision only adds a hit that fails
    verification.  The LCS, when ≥ L, holds a hit, so the longest
    extension is the LCS."""
    from nxsearch_ray.functions import hashing as H

    n = len(ia)
    starts, lens = off[:-1], np.diff(off)
    a_short = lens[ia] <= lens[ib]
    x = np.where(a_short, ib, ia)           # strided side: the longer doc
    y = np.where(a_short, ia, ib)           # every window: the shorter
    need = np.asarray(need, dtype=np.int64)
    s = (need + 1) // 2
    w = need - s + 1
    n_full = np.maximum(lens[y] - w + 1, 0)
    n_step = np.where(lens[x] >= w, (lens[x] - w) // s + 1, 0)
    q, p = _prefix_hashes(flat)
    salt = H.splitmix64(np.arange(n, dtype=np.uint64))

    f_pair = np.repeat(np.arange(n), n_full)
    f_pos = H._seg_arange(starts[y], n_full)
    f_key = window_hash(q, p, f_pos, w[f_pair]) + salt[f_pair]
    order = np.argsort(f_key)
    f_key, f_pair, f_pos = f_key[order], f_pair[order], f_pos[order]

    s_pair = np.repeat(np.arange(n), n_step)
    s_pos = (starts[x][s_pair] + s[s_pair]
             * H._seg_arange(np.zeros(n, np.int64), n_step))
    s_key = window_hash(q, p, s_pos, w[s_pair]) + salt[s_pair]
    lo = np.searchsorted(f_key, s_key, side="left")
    cnt = np.searchsorted(f_key, s_key, side="right") - lo
    h_step = np.repeat(np.arange(len(s_key)), cnt)
    h_full = H._seg_arange(lo, cnt)
    same = s_pair[h_step] == f_pair[h_full]
    r = s_pair[h_step[same]]
    gx, gy = s_pos[h_step[same]], f_pos[h_full[same]]

    xl, yl = gx - starts[x[r]], gy - starts[y[r]]
    back = np.minimum(xl, yl)
    fwd = np.minimum(lens[x[r]] - xl, lens[y[r]] - yl) - w[r]
    ends = np.cumsum(back + w[r] + fwd)
    cuts = np.searchsorted(ends, np.arange(_SPAN_CHUNK, ends[-1:].sum(),
                                           _SPAN_CHUNK))
    lcs = np.zeros(n, dtype=np.int64)
    for h in np.split(np.arange(len(r)), cuts):
        np.maximum.at(lcs, r[h], _runs_through(
            flat, gx[h], gy[h], w[r[h]], back[h], fwd[h]))
    return lcs


def adjudicate_docs(pairs: pa.Table, ia: np.ndarray, ib: np.ndarray,
                    flat: np.ndarray, off: np.ndarray,
                    cfg: PipelineConfig) -> pa.Table:
    """The one exact decision: keep pair i, between the distinct docs
    ``ia[i]`` and ``ib[i]`` (rows of ``flat``/``off``), when its exact
    shingle Jaccard ≥ jaccard_threshold (the borderline-est_j rescue;
    lcs_len -1, containment 0.0) OR its exact longest common token run
    over the shorter doc ≥ containment_threshold.  Row values and the
    decision equal ``exact_adjudicate``'s; rows it rejects are never
    emitted, and their LCS is never computed: a pair whose shingle
    counts rule out a run of the containment minimum (``run_ruled_out``)
    is rejected without the probe."""
    if pairs.num_rows == 0:
        return SUFFIX_PAIR_SCHEMA.empty_table()
    off = np.asarray(off, dtype=np.int64)
    lens = np.diff(off)
    m = np.minimum(lens[ia], lens[ib])
    jac, inter, cnt = docs_shingle_jaccard(ia, ib, flat, off, cfg.shingle_k)
    passed = jac >= cfg.jaccard_threshold
    lcs = np.where(passed, -1, 0).astype(np.int32)
    con = np.zeros(len(m), dtype=np.float64)
    full = m > 0
    need = np.zeros(len(m), dtype=np.int64)
    need[full] = np.maximum(min_run(m[full], cfg.containment_threshold), 1)
    probe = ~passed & full & ~run_ruled_out(ia, ib, lens, inter, cnt, need,
                                            cfg.shingle_k)
    run = docs_containment_lcs(ia[probe], ib[probe], flat, off, need[probe])
    lcs[probe] = run
    con[probe] = run / m[probe]
    keep = (con >= cfg.containment_threshold) | passed
    out = pa.Table.from_arrays(
        [pairs.column("a"), pairs.column("b"),
         pairs.column("source").cast(pa.string()),
         pa.array(lcs), pa.array(con), pa.array(jac)],
        schema=SUFFIX_PAIR_SCHEMA)
    return out.filter(pa.array(keep))


def exact_containment_table(pairs: pa.Table, idx: TokenIndex,
                            cfg: PipelineConfig) -> pa.Table:
    """Broadcast gather: each distinct endpoint's tokens from the index,
    once."""
    ids = np.concatenate([pairs.column("a").to_numpy(),
                          pairs.column("b").to_numpy()])
    uniq, inv = np.unique(ids, return_inverse=True)
    return adjudicate_docs(pairs, inv[:pairs.num_rows],
                           inv[pairs.num_rows:], *idx.gather(uniq), cfg)


def adjudicate_delivered(cfg: PipelineConfig, pairs: pa.Table,
                         pages: pa.Table) -> pa.Table:
    """Bucketed gather: ``exact_containment_table`` over a local index
    of the pages ``join.endpoint_map`` delivered to the pair block."""
    return exact_containment_table(pairs, TokenIndex.from_table(pages), cfg)


def suffix_verify_broadcast(pairs_ds, idx_ref, cfg: PipelineConfig):
    """Exact adjudication as one task wave against the broadcast token
    index (same plan shape as verify.verify_pairs_broadcast)."""
    from nxsearch_ray.stages.join import broadcast_map, lookup_kernel

    return broadcast_map(
        pairs_ds, idx_ref,
        functools.partial(lookup_kernel, exact_containment_table, cfg),
        batch_size=4096, schema=SUFFIX_PAIR_SCHEMA)


def suffix_verify_bucketed(pairs_ds, canonical_ds, cfg: PipelineConfig):
    """Scale path for the exact-adjudication stage: each pair block gets
    its endpoints' token sequences, each page once (stages/join.
    endpoint_map: the canonical side's split keeps only the token
    columns, and only the pages some pair names are delivered), then
    one task per pair block adjudicates against a local index of them
    (``adjudicate_delivered``).  No driver-side token index; the pairs
    never move."""
    from nxsearch_ray.stages.join import endpoint_map

    return endpoint_map(pairs_ds, canonical_ds, TOKEN_SCHEMA,
                        functools.partial(adjudicate_delivered, cfg),
                        SUFFIX_PAIR_SCHEMA)
