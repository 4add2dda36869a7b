"""Candidate-pair generation: exact sequence hashes, LSH banding,
SimHash Hamming bucketing and anchor buckets ride ONE exchange
(explode every pass's keys → key-disjoint hash repartition → pairs
within each bucket), then one pair union/dedup exchange.

The shuffle-by-key pattern replaces the reference's shared in-memory
reverse index (term → doc bitmap, reference src/core/nxs.c:48-55):
what nxsearch surfaces as posting-list overlap we surface as co-located
rows after a hash exchange (SURVEY.md §2.3 ST5, §2.4 J1-J3).

Skew policy (SURVEY.md §4 "Skew / stragglers"): inside a bucket of n
docs we emit all C(n,2) pairs only while n ≤ ``hot_bucket_cap``;
beyond that the bucket is near-certainly boilerplate and a *spanning
chain* over the sorted doc ids preserves connectivity for the
union-find with n-1 pairs instead of O(n²); an anchor bucket of more
than ``anchor_bucket_max`` docs emits nothing.  ``pairs_within`` states
the policy for one bucket, and the pure-python oracle applies it bucket
by bucket; ``multi_candidate_pairs`` applies it to every bucket of a
partition at once with array ops, and the tests hold the two equal.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions import hashing as H
from nxsearch_ray.stages.join import PAIR_SCHEMA
from nxsearch_ray.stages.signatures import list_column_numpy

_U64 = np.uint64


def pairs_within(ids: np.ndarray, cap: int,
                 skip_over: int | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (a<b) pairs for one bucket under the skew policy.

    ids are deduped+sorted first so the result is independent of row
    order (determinism under retries/parallelism, SURVEY.md §7).
    ``skip_over``: buckets larger than this emit NOTHING (stop-shingle
    pruning for the anchor pass); None disables."""
    ids = np.unique(np.asarray(ids, dtype=np.int64))
    n = len(ids)
    if n < 2 or (skip_over is not None and n > skip_over):
        return (np.empty(0, np.int64), np.empty(0, np.int64))
    if n <= cap:
        iu = np.triu_indices(n, k=1)
        return ids[iu[0]], ids[iu[1]]
    # spanning chain: connectivity-preserving, linear in n
    return ids[:-1], ids[1:]


SRC_NAMES = ("exact", "minhash", "simhash", "suffix")
SIMHASH_CODE = SRC_NAMES.index("simhash")
SUFFIX_CODE = SRC_NAMES.index("suffix")
# pair rows carry the int8 source CODE, not the name: the pair stream is
# the widest intermediate and strings triple its width.  aux = min over
# the pair of the members' anchor counts for suffix rows (the
# achievable hit bound union_pair_sources caps the co-occurrence
# threshold at), 0 elsewhere; simhash pairs are Hamming-filtered in the
# bucket scan (aux carries the fingerprint) and emit 0.
SIGHTING_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("src", pa.int8()), ("aux", pa.int64())])
# source mask → "exact,minhash,..." (SRC_NAMES happens to be sorted)
MASK_LUT = np.array(
    [",".join(n for i, n in enumerate(SRC_NAMES) if m >> i & 1)
     for m in range(1 << len(SRC_NAMES))], dtype=object)


def explode_all(cfg_json: str):
    """ONE explode for all four candidate passes: signatures →
    (bucket_key, page_id, src: int8) rows.  Emitting every pass from a
    single block map lets the whole candidate generation ride ONE
    exchange instead of four — the dominant shuffle of the pipeline.
    Band/chunk keys are salted by band/chunk index; seq/anchor keys are
    salted by a source constant so buckets never mix across passes.
    The block map is ``_explode`` bound to the parsed config."""
    return functools.partial(_explode, PipelineConfig.from_json(cfg_json))


def _explode(cfg: PipelineConfig, batch: pa.Table) -> pa.Table:
    nchunks = cfg.simhash_hamming + 1
    width = cfg.simhash_bits // nchunks
    page = batch.column("page_id").to_numpy()
    ndocs = batch.num_rows
    keys_out: list[np.ndarray] = []
    page_out: list[np.ndarray] = []
    src_out: list[np.ndarray] = []
    aux_out: list[np.ndarray] = []

    def add(keys, pages, code, aux=None):
        keys_out.append(keys)
        page_out.append(pages)
        src_out.append(np.full(len(keys), code, dtype=np.int8))
        aux_out.append(np.zeros(len(keys), dtype=np.int64)
                       if aux is None else aux.astype(np.int64))

    # exact (src 0): seq_hash, salted
    seqh = batch.column("seq_hash").to_numpy().astype(_U64)
    add(H.splitmix64(seqh ^ _U64(0xE0)), page, 0)

    # minhash bands (src 1)
    sig_flat, _ = list_column_numpy(batch.column("minhash"))
    sig = sig_flat.reshape(ndocs, cfg.num_perms)
    bkeys = H.band_keys(sig, cfg.lsh_bands, cfg.lsh_rows, cfg.seed)
    add(bkeys.reshape(-1), np.repeat(page, cfg.lsh_bands), 1)

    # simhash chunks (src 2); aux = the full 64-bit fingerprint so the
    # bucket scan can apply the TRUE Hamming test in-bucket.  A w-bit
    # chunk key collides by pure chance between unrelated docs at rate
    # ~n²/2^w per chunk — 8.5M of 8.6M candidate pairs at 520k pages
    # (measured round 4) were such chance pairs, flooding the verify
    # exchanges; at 10^12 docs the unfiltered pass is unusable.
    # Filtering in-bucket emits only pairs at Hamming ≤
    # cfg.simhash_hamming — exactly the rule verification enforces for
    # this source.
    sim = batch.column("simhash").to_numpy().astype(_U64)
    ckeys = np.empty((ndocs, nchunks), dtype=_U64)
    mask = _U64((1 << width) - 1)
    for c in range(nchunks):
        chunk = (sim >> _U64(c * width)) & mask
        ckeys[:, c] = H.splitmix64(chunk ^ H.splitmix64(
            np.array(c + 0x5151, dtype=_U64)))
    add(ckeys.reshape(-1), np.repeat(page, nchunks), 2,
        np.repeat(sim.view(np.int64), nchunks))

    # anchors (src 3); aux = the emitting page's anchor count: a
    # fully-contained small doc can share at most min(n_anchors_a,
    # n_anchors_b) anchor buckets, so the co-occurrence threshold
    # downstream must cap at that — a tail/copy of a <2-shingle doc is
    # otherwise structurally unreachable by the containment pass (found
    # at sf0.01: a 10-word doc's 5-word tail has ONE shingle).
    a_flat, a_off = list_column_numpy(batch.column("anchors"))
    counts = a_off[1:] - a_off[:-1]
    add(H.splitmix64(a_flat ^ _U64(0xA3)),
        np.repeat(page, counts), 3, np.repeat(counts, counts))

    return pa.Table.from_arrays(
        [pa.array(np.concatenate(keys_out), type=pa.uint64()),
         pa.array(np.concatenate(page_out), type=pa.int64()),
         pa.array(np.concatenate(src_out), type=pa.int8()),
         pa.array(np.concatenate(aux_out), type=pa.int64())],
        names=["bucket_key", "page_id", "src", "aux"])


def _candidate_runs(cap: int, skip_over: int, max_ham: int, t: pa.Table,
                    starts: np.ndarray) -> pa.Table:
    """The bucket scan of one sorted partition: the pairs of every
    (bucket_key, src) run, ``pairs_within``'s policy applied to all runs
    at once, simhash pairs filtered at Hamming ≤ ``max_ham``."""
    # the rows of runs with ≥ 2 rows, each run sorted by page
    counts = np.diff(starts, append=t.num_rows)
    multi = counts >= 2
    starts, counts = starts[multi], counts[multi]
    rows = H._seg_arange(starts, counts)
    ids = t.column("page_id").to_numpy()[rows]
    auxs = t.column("aux").to_numpy()[rows]
    code = t.column("src").to_numpy()[starts]
    # each page's first row in its run: the sort is stable, so it is
    # the page's first occurrence, the row whose aux counts
    head = np.zeros(len(ids), dtype=bool)
    head[np.cumsum(counts) - counts] = True
    first = head.copy()
    first[1:] |= ids[1:] != ids[:-1]
    run = np.cumsum(head)[first] - 1
    ids, auxs = ids[first], auxs[first]
    # pairs_within's policy over every run at once, run r holding m[r]
    # distinct pages from off[r]: anchor runs over skip_over emit
    # nothing, runs up to cap every i<j pair, larger runs the sorted
    # chain
    m = np.bincount(run, minlength=len(counts))
    off = np.cumsum(m) - m
    emit = ~((code == SUFFIX_CODE) & (m > skip_over))
    full, chain = emit & (m <= cap), emit & (m > cap)
    ia, ib = H.seg_triu(off[full], m[full])
    ic = H._seg_arange(off[chain], m[chain] - 1)
    ia, ib = np.concatenate([ia, ic]), np.concatenate([ib, ic + 1])
    pcode = code[run[ia]]
    xa, xb = auxs[ia], auxs[ib]
    is_sim = pcode == SIMHASH_CODE
    ok = np.ones(len(ia), dtype=bool)
    ok[is_sim] = H.hamming64(xa[is_sim].view(_U64),
                             xb[is_sim].view(_U64)) <= max_ham
    pair_aux = np.where(is_sim, 0, np.minimum(xa, xb))
    return pa.Table.from_arrays(
        [pa.array(ids[ia][ok]), pa.array(ids[ib][ok]),
         pa.array(pcode[ok], type=pa.int8()),
         pa.array(pair_aux[ok])], schema=SIGHTING_SCHEMA)


def multi_candidate_pairs(signatures_ds, cfg: PipelineConfig):
    """All candidate passes in ONE grouped scan (stages/shuffle.grouped):
    explode_all, inside the exchange's split of each signature block →
    one run per (bucket_key, src) bucket, complete in its partition and
    sorted by page → pairs within every run from one vectorized scan
    (``_candidate_runs``: ``pairs_within``'s policy per run, the SimHash
    Hamming rule, each page's first-occurrence aux), with no Python
    loop over runs.  Returns (a, b, src int8-code, aux) pairs."""
    from nxsearch_ray.stages.shuffle import grouped

    return grouped(signatures_ds, ["bucket_key", "src"],
                   functools.partial(_candidate_runs, cfg.hot_bucket_cap,
                                     cfg.anchor_bucket_max,
                                     cfg.simhash_hamming),
                   SIGHTING_SCHEMA, then_by=["page_id"],
                   split_map=explode_all(cfg.to_json()))


def _union_runs(min_suffix_hits: int, t: pa.Table,
                starts: np.ndarray) -> pa.Table:
    """One sorted partition's (a, b) runs → one row per pair with its
    source set."""
    a = t.column("a").to_numpy()
    b = t.column("b").to_numpy()
    src = t.column("src").to_numpy().astype(np.int32)
    aux = t.column("aux").to_numpy().astype(np.int64)
    bits = np.left_shift(1, src)
    run_or = np.bitwise_or.reduceat(bits, starts)
    suffix_hits = np.add.reduceat(
        (src == SUFFIX_CODE).astype(np.int64), starts)
    # the achievable-hit bound: a pair whose smaller side emitted only
    # k < min_suffix_hits anchors can share at most k anchor buckets
    # even under full containment — cap the threshold there (aux is ≥1
    # on suffix rows; mask other sources' aux to 0 before the run max so
    # only the suffix bound survives)
    run_aux = np.maximum.reduceat(
        np.where(src == SUFFIX_CODE, aux, 0), starts)
    required = np.maximum(1, np.minimum(min_suffix_hits, run_aux))
    suffix_bit = 1 << SUFFIX_CODE
    final_mask = run_or & ~suffix_bit
    final_mask |= np.where(suffix_hits >= required, suffix_bit, 0)
    emit = final_mask != 0
    s_emit = starts[emit]
    names = MASK_LUT[final_mask[emit]]
    return pa.Table.from_arrays(
        [pa.array(a[s_emit]), pa.array(b[s_emit]),
         pa.array(names.tolist(), type=pa.string())],
        schema=PAIR_SCHEMA)


def union_pair_sources(pairs_ds, *, min_suffix_hits: int = 1):
    """``multi_candidate_pairs``' (a, b, src, aux) sightings from every
    pass (exact ∪ minhash ∪ simhash ∪ suffix) → one row per (a, b)
    carrying the sorted, comma-joined *set* of proposing sources
    (deterministic; verification checks each source's rule).  This is
    the exact pair dedup — the distributed analogue of the reference's
    doc-id-exists guard (reference src/core/nxs.c:505-511).

    ONE grouped scan on (a, b) (stages/shuffle.grouped), fully
    vectorized over the runs (``_union_runs``): per-run source bitmask
    via bitwise_or.reduceat, per-run suffix hit count via
    add.reduceat."""
    from nxsearch_ray.stages.shuffle import grouped

    return grouped(pairs_ds, ["a", "b"],
                   functools.partial(_union_runs, min_suffix_hits),
                   PAIR_SCHEMA)
