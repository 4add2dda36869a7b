"""Exact n-gram Jaccard set-similarity join (distributed).

The classic inverted-index similarity join, implemented the way the
literature actually scales it (Vernica et al., SIGMOD 2010; Bayardo et
al., WWW 2007 prefix filter; Xiao et al., WWW 2008 positional filter),
with this engine's grouped scans (stages/shuffle.grouped: one
key-disjoint exchange, then a kernel over each partition's sorted key
runs) instead of per-group Python:

  1. **df pass** — explode every document's distinct word n-grams to
     (gram_hash, page_id, setsize) rows and group them by gram;
     each gram's rows land in one block, so its document frequency is
     a run length.  The df column and the (gram, page) sort order are
     attached to the materialized partition blocks once, and both
     later passes (prefix source, exact count) reuse them.
  2. **prefix pass** — re-group by document; each document sorts
     its grams by (df, gram) — the global total order — and keeps only
     its *prefix* of length L - ceil(t·L) + 1 together with each
     gram's position in that order.  Pair-prefix theorem: any pair
     with Jaccard ≥ t must share a gram within both prefixes, so
     indexing prefixes alone loses no answers, while boilerplate
     grams (highest df) sort last and almost never enter a prefix —
     this is the skew handling, no cap or chain heuristic needed.
  3. **candidate pass** — group prefix rows by gram, emit all
     within-bucket pairs, prune with the length filter
     (min(|A|,|B|) ≥ t·max(|A|,|B|)) and the PPJoin positional
     filter: a shared gram at positions (pa, pb) bounds the overlap
     by 1 + min(pa, pb) + min(|A|-pa-1, |B|-pb-1), which must reach
     the required overlap α = ⌈t/(1+t)·(|A|+|B|)⌉; duplicates across
     grams are folded during the adjacency build.
  4. **exact count pass** — the candidate set is SHARDED by the
     ``a`` endpoint (splitmix64(a) % S; a pair's shard is a function
     of ``a`` alone, so per-shard dedup is global dedup).  S is sized
     from the materialized candidate count so one shard's CSR
     adjacency fits a task's heap budget; each shard task streams the
     candidate blocks one ``ray.get`` at a time (refs passed inside a
     list are not pre-fetched), filters to its shard, and broadcasts
     its CSR.  The (still materialized) gram partitions are then
     rescanned once per shard: for each gram run, count each
     shard-candidate edge whose BOTH endpoints are present, and emit
     per-block PARTIAL (a, b, cnt) rows.  This is the exact |A ∩ B| —
     gram runs are disjoint across partitions, so partial counts sum.
     The rescans cost S passes over the materialized gram blocks
     (parallel within each pass); at the default budget S stays 1
     until the candidate set passes ~20M pairs.
  5. **finish** — one remote task PER SHARD sums that shard's
     partials (streamed the same way, bounded by the shard's
     candidate count), computes jaccard = c / (|A| + |B| - c) and
     filters ≥ t.  The output dataset is the union of the per-shard
     tables.  No final exchange.

Exact — byte-equal to the DuckDB oracle (`__ray_entry__.oracle_sql`)
— and every per-row loop is numpy over run boundaries.

Partitioning assumption, stated: a gram run is never split across
blocks (stages/shuffle.grouped merges each partition into one block;
its width comes from the data, ``shuffle.partition_width``).  No task
holds the full candidate set: adjacency build, count and finish are
all per-shard.

N-grams are built over raw whitespace words (NOT canonical tokens) so
the SQL oracle can reproduce the result verbatim.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.hashing import hash_strings
from nxsearch_ray.stages.join import sorted_lookup
from nxsearch_ray.stages.shuffle import grouped

_WS_RE = None


def _words(text: str) -> list[str]:
    global _WS_RE
    if _WS_RE is None:
        import re

        _WS_RE = re.compile(r"\S+")
    return _WS_RE.findall(text or "")


def ngram_set(text: str, n: int) -> set[str]:
    """Distinct word n-grams, space-joined — the definition shared with
    the SQL oracle (list_transform over regexp_extract_all)."""
    w = _words(text)
    return {" ".join(w[i:i + n]) for i in range(len(w) - n + 1)}


def explode_ngrams(n: int, id_col: str = "page_id",
                   text_col: str = "text"):
    """map_batches fn: docs → (bucket_key=ngram hash, page_id, setsize)."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        texts = batch.column(text_col).to_pylist()
        all_grams: list[str] = []
        counts = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            grams = ngram_set(t, n)
            all_grams.extend(grams)
            counts[i] = len(grams)
        gh = hash_strings(all_grams) if all_grams else \
            np.empty(0, dtype=np.uint64)
        return pa.Table.from_arrays(
            [pa.array(gh, type=pa.uint64()),
             pa.array(np.repeat(ids, counts), type=pa.int64()),
             pa.array(np.repeat(counts, counts), type=pa.int64())],
            names=["bucket_key", "page_id", "setsize"])

    return fn


_GRAMS = pa.schema([("bucket_key", pa.uint64()), ("page_id", pa.int64()),
                    ("setsize", pa.int64())])
_CANDS = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                    ("size_a", pa.int64()), ("size_b", pa.int64())])


def _attach_df(t: pa.Table, starts: np.ndarray) -> pa.Table:
    """Gram run lengths = exact global df (every run is whole in its
    partition).  The rows stay lexsorted by (bucket_key, page_id) so
    the exact-count pass can reuse the order without re-sorting."""
    df = np.diff(starts, append=t.num_rows)
    return t.append_column("df", pa.array(np.repeat(df, df)))


def _prefix_fn(threshold: float):
    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        """Per-document prefix under the global (df, gram) order, with
        each kept gram's position in that order (positional filter)."""
        lens = np.diff(starts, append=t.num_rows)
        # prefix length p = L - ceil(t*L) + 1 (epsilon guards the
        # float ceil; an over-long prefix is only ever a superset)
        k = np.ceil(threshold * lens - 1e-9).astype(np.int64)
        p = np.maximum(lens - k + 1, 0)
        offset_in_run = np.arange(t.num_rows) - np.repeat(starts, lens)
        keep = offset_in_run < np.repeat(p, lens)
        return t.select(_GRAMS.names).filter(keep).append_column(
            "pos", pa.array(offset_in_run[keep]))

    return fn


def _cand_pairs(threshold: float):
    """All within-bucket pairs of the prefix index, pruned by the
    length filter and the PPJoin positional filter (module docstring
    step 3).  Both filters are per-occurrence upper bounds, so a pair
    survives iff ANY of its shared prefix grams passes — duplicates
    fold in the adjacency build."""

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        pid = t.column("page_id").to_numpy()
        size = t.column("setsize").to_numpy()
        pos = t.column("pos").to_numpy()
        counts = np.diff(starts, append=t.num_rows)
        ai, bi = [], []
        two = starts[counts == 2]
        if len(two):
            ai.append(two)
            bi.append(two + 1)
        for r in np.nonzero(counts >= 3)[0]:
            s, c = starts[r], counts[r]
            iu = np.triu_indices(c, k=1)
            ai.append(s + iu[0])
            bi.append(s + iu[1])
        if not ai:
            return _CANDS.empty_table()
        ia = np.concatenate(ai)
        ib = np.concatenate(bi)
        sa, sb = size[ia], size[ib]
        pa_, pb_ = pos[ia], pos[ib]
        # length filter: J >= t forces min >= t*max (Arasu et al.)
        keep = np.minimum(sa, sb) >= threshold * np.maximum(sa, sb) \
            - 1e-9
        # positional filter: common grams other than this one lie
        # strictly before it in both orders (<= min(pa, pb)) or
        # strictly after (<= min(sa-pa-1, sb-pb-1))
        alpha = np.ceil(threshold / (1.0 + threshold) * (sa + sb)
                        - 1e-9)
        ubound = 1 + np.minimum(pa_, pb_) \
            + np.minimum(sa - pa_ - 1, sb - pb_ - 1)
        keep &= ubound >= alpha
        ia, ib = ia[keep], ib[keep]
        return pa.table([pid[ia], pid[ib], size[ia], size[ib]],
                        schema=_CANDS)

    return fn


#: default per-shard candidate budget: ~20M pairs ≈ 1.1 GiB of CSR
#: state (5 × 8-byte arrays + rank tables) — comfortably inside one
#: worker's heap while keeping S = 1 for every sub-web-scale corpus
SHARD_BUDGET_PAIRS = 20_000_000


def _shard_of(a: np.ndarray, nshards: int) -> np.ndarray:
    """Shard id per candidate pair — a function of the ``a`` endpoint
    alone (splitmix64 for balance), so all duplicates of a pair land
    in one shard and per-shard dedup is global dedup."""
    from nxsearch_ray.functions.hashing import splitmix64

    return (splitmix64(a.astype(np.uint64))
            % np.uint64(nshards)).astype(np.int64)


def build_pair_adjacency_refs(cand_ds):
    """Per-shard CSR adjacency + per-doc set sizes of the candidate
    pairs: the candidate set is sharded by its ``a`` endpoint so no
    task ever holds more than ~1/S of the pairs.  Returns a list of S
    ObjectRefs, S sized from the materialized candidate count by
    ``SHARD_BUDGET_PAIRS``.

    All internal keys are DENSE RANKS over the shard's endpoint id
    universe (``ids``), not global doc ids: ranks are bounded by the
    shard's candidate count, so the packed (hi<<32)|lo keys downstream
    stay valid for arbitrary-width global ids — a 10^12-doc corpus has
    page_ids well past 2^32."""
    import ray

    cand = cand_ds.materialize()
    nshards = max(1, -(-cand.count() // SHARD_BUDGET_PAIRS))
    refs = list(cand.to_arrow_refs())

    # refs passed INSIDE a list are not pre-fetched by Ray: the task
    # streams blocks one ray.get at a time, so its peak heap is one
    # block plus its own shard's pairs — never the full candidate set
    @ray.remote
    def _build(shard: int, nshards: int, block_refs: list):
        parts = []
        for r in block_refs:
            blk = ray.get(r)
            # drop schema-less empty blocks (Ray emits them for empty
            # UDF outputs)
            if blk.num_columns == 0 or blk.num_rows == 0:
                continue
            if nshards > 1:
                mine = _shard_of(blk.column("a").to_numpy(),
                                 nshards) == shard
                blk = blk.filter(pa.array(mine))
            if blk.num_rows:
                parts.append(blk)
            del blk
        tbl = pa.concat_tables(parts) if parts else _CANDS.empty_table()
        a = tbl.column("a").to_numpy()
        b = tbl.column("b").to_numpy()
        sa = tbl.column("size_a").to_numpy()
        sb = tbl.column("size_b").to_numpy()
        order = np.lexsort((b, a))
        a, b, sa, sb = a[order], b[order], sa[order], sb[order]
        # global dedup (a pair's every duplicate shares this shard)
        if len(a):
            first = np.concatenate(
                ([True], (a[1:] != a[:-1]) | (b[1:] != b[:-1])))
            a, b, sa, sb = a[first], b[first], sa[first], sb[first]
        # dense-rank the id universe; sizes aligned to rank order
        ids = np.concatenate([a, b])
        szs = np.concatenate([sa, sb])
        uid, first = np.unique(ids, return_index=True)
        a_r = np.searchsorted(uid, a)
        b_r = np.searchsorted(uid, b)
        # rank order preserves id order, so lexsorted (a, b) stays
        # lexsorted as (a_r, b_r)
        nodes_r, starts_idx = np.unique(a_r, return_index=True)
        offsets = np.concatenate((starts_idx, [len(a_r)])) \
            .astype(np.int64)
        pair_keys = (a_r.astype(np.uint64) << np.uint64(32)) \
            | b_r.astype(np.uint64)
        return {"ids": uid, "sizes": szs[first],
                "nodes": nodes_r, "offsets": offsets, "partners": b_r,
                "pair_keys": pair_keys}

    return [_build.remote(s, nshards, refs) for s in range(nshards)]


def _count_cooccurrence(adj: dict):
    """Batch fn (built once per worker from the fetched shard
    adjacency ``adj``) over the gram-partitioned (df-attached, sorted)
    rows: PARTIAL (a, b, cnt) counts of candidate edges fully inside a
    gram run.  Runs are partition-disjoint, so partials sum exactly.

    Per-run strategy choice (each run counted by exactly ONE):

      * **enumerate** — emit all C(df, 2) within-run pairs and keep the
        ones that are candidate edges (one sorted_lookup against the
        sorted pair-key array).  Cheap for ordinary grams (df small).
      * **expand** — for each present doc, expand its candidate
        adjacency and test the partner's membership in the run.  Cheap
        for boilerplate grams whose df is huge but whose present docs
        have modest candidate degree — C(df, 2) would explode there.

    The measured crossover on the synthetic corpus is ~15× in favor of
    enumeration (2.0M pair tests vs 30M expansions); the per-run cost
    comparison keeps the boilerplate tail safe at web scale."""
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("cnt", pa.int64())])

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or len(adj["nodes"]) == 0:
            return out_schema.empty_table()
        ids = adj["ids"]
        # rows arrive lexsorted by (bucket_key, page_id) with df
        # attached (_attach_df); df=1 runs cannot host a co-occurrence
        multi = t.column("df").to_numpy() >= 2
        keys = t.column("bucket_key").to_numpy()[multi]
        pid = t.column("page_id").to_numpy()[multi]
        if len(keys) == 0:
            return out_schema.empty_table()
        # global id → dense rank; docs outside the candidate-endpoint
        # universe can never sit on a candidate edge — drop them.  All
        # packed keys below are over ranks (< |endpoints| << 2^32) and
        # run indices, never raw ids, so arbitrary-width page_ids work.
        rpos, in_univ = sorted_lookup(ids, pid)
        keys, pid = keys[in_univ], rpos[in_univ]
        n = len(keys)
        if n == 0:
            return out_schema.empty_table()
        new_run = np.concatenate(
            ([True], keys[1:] != keys[:-1]))
        run_id = np.cumsum(new_run.astype(np.int64)) - 1
        starts = np.nonzero(new_run)[0]
        rcounts = np.diff(np.concatenate((starts, [n])))
        nodes = adj["nodes"]
        offsets = adj["offsets"]
        partners = adj["partners"]
        pair_keys = adj["pair_keys"]
        # a-side candidate degree of every row's doc (0 if absent)
        pos, present = sorted_lookup(nodes, pid)
        deg = np.where(present, offsets[pos + 1] - offsets[pos], 0)
        # per-run costs: expansion work vs C(df, 2) enumeration
        cost_expand = np.add.reduceat(deg, starts)
        cost_enum = rcounts * (rcounts - 1) // 2
        enum_run = cost_enum <= cost_expand
        hits: list[np.ndarray] = []

        # --- enumeration runs: all within-run pairs, candidate test
        er = enum_run[run_id]
        if er.any():
            off_in_run = np.arange(n) - starts[run_id]
            cnt_per_row = np.where(er, off_in_run, 0)
            tot = int(cnt_per_row.sum())
            if tot:
                bidx = np.repeat(np.arange(n), cnt_per_row)
                first = np.repeat(starts[run_id], cnt_per_row)
                csum = np.cumsum(cnt_per_row) - cnt_per_row
                aidx = first + (np.arange(tot)
                                - np.repeat(csum, cnt_per_row))
                # pid ascends within a run → a < b strictly
                packed = (pid[aidx].astype(np.uint64) << np.uint64(32)) \
                    | pid[bidx].astype(np.uint64)
                hits.append(packed[sorted_lookup(pair_keys, packed)[1]])

        # --- expansion runs: adjacency out-edges, run-membership test
        xr = ~enum_run[run_id]
        rows = np.nonzero(xr & present)[0]
        if len(rows):
            rp = pos[rows]
            counts = offsets[rp + 1] - offsets[rp]
            tot = int(counts.sum())
            if tot:
                eidx = np.repeat(offsets[rp], counts) + (
                    np.arange(tot)
                    - np.repeat(np.cumsum(counts) - counts, counts))
                pa_ = np.repeat(pid[rows], counts)
                erun = np.repeat(run_id[rows], counts)
                pb_ = partners[eidx]
                # partner present in the SAME run?  packed (run, pid)
                # keys are sorted because rows are lexsorted
                packed_rows = (run_id.astype(np.uint64) << np.uint64(32)) \
                    | pid.astype(np.uint64)
                packed_q = (erun.astype(np.uint64) << np.uint64(32)) \
                    | pb_.astype(np.uint64)
                _, hit = sorted_lookup(packed_rows, packed_q)
                if hit.any():
                    hits.append(
                        (pa_[hit].astype(np.uint64) << np.uint64(32))
                        | pb_[hit].astype(np.uint64))

        if not hits:
            return out_schema.empty_table()
        upairs, cnts = np.unique(np.concatenate(hits),
                                 return_counts=True)
        return pa.Table.from_arrays(
            [pa.array((upairs >> np.uint64(32)).astype(np.int64)),
             pa.array((upairs & np.uint64(0xFFFFFFFF)).astype(np.int64)),
             pa.array(cnts.astype(np.int64))],
            schema=out_schema)

    return fn


def ngram_jaccard_pairs(docs_ds, *, n: int = 3, threshold: float = 0.5,
                        id_col: str = "page_id", text_col: str = "text"):
    """Dataset of (a, b, n_common, size_a, size_b, jaccard) for all doc
    pairs with word-n-gram Jaccard ≥ threshold.  Exact (prefix+
    positional-filter candidates + exact intersection recount); see
    module docstring.  The candidate shard count is sized so one shard
    fits a task's heap budget (``build_pair_adjacency_refs``)."""
    import ray
    import ray.data

    from nxsearch_ray.stages.join import broadcast_map

    keyed = docs_ds.map_batches(explode_ngrams(n, id_col, text_col),
                                batch_format="pyarrow")
    gparts = grouped(keyed, ["bucket_key"], _attach_df,
                     _GRAMS.append(pa.field("df", pa.int64())),
                     then_by=["page_id"])
    prefix = grouped(gparts, ["page_id"], _prefix_fn(threshold),
                     _GRAMS.append(pa.field("pos", pa.int64())),
                     then_by=["df", "bucket_key"])
    cand = grouped(prefix, ["bucket_key"], _cand_pairs(threshold),
                   _CANDS, then_by=["page_id"])
    # no dedup exchange: each shard's adjacency builder streams every
    # candidate block, filters to its shard (a function of ``a``
    # alone) and dedups its shard globally in one pass
    adj_refs = build_pair_adjacency_refs(cand)

    out_schema = pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), ("n_common", pa.int64()),
         ("size_a", pa.int64()), ("size_b", pa.int64()),
         ("jaccard", pa.float64())])

    @ray.remote
    def _finish(adj, thr, block_refs: list):
        # stream the shard's partial blocks one ray.get at a time
        parts = []
        for r in block_refs:
            blk = ray.get(r)
            if blk.num_columns > 0 and blk.num_rows > 0:
                parts.append(blk)
            del blk
        if not parts:
            return out_schema.empty_table()
        t = pa.concat_tables(parts)
        a = t.column("a").to_numpy()
        b = t.column("b").to_numpy()
        cnt = t.column("cnt").to_numpy()
        # partials carry dense ranks (see _count_cooccurrence); sizes
        # index directly, global ids come back via adj["ids"] at the end
        packed = (a.astype(np.uint64) << np.uint64(32)) \
            | b.astype(np.uint64)
        upairs, inv = np.unique(packed, return_inverse=True)
        totals = np.bincount(inv, weights=cnt.astype(np.float64))
        c = np.rint(totals).astype(np.int64)
        ra = (upairs >> np.uint64(32)).astype(np.int64)
        rb = (upairs & np.uint64(0xFFFFFFFF)).astype(np.int64)
        sa = adj["sizes"][ra]
        sb = adj["sizes"][rb]
        ua = adj["ids"][ra]
        ub = adj["ids"][rb]
        denom = sa + sb - c
        jac = np.where(denom > 0, c / np.maximum(denom, 1), 0.0)
        keep = jac >= thr
        return pa.Table.from_arrays(
            [pa.array(ua[keep]), pa.array(ub[keep]),
             pa.array(c[keep]), pa.array(sa[keep]),
             pa.array(sb[keep]),
             pa.array(jac[keep], type=pa.float64())],
            schema=out_schema)

    # one count pass + one finish task per shard; the gram partitions
    # are materialized, so each pass is a parallel block scan
    finish_refs = []
    for adj_ref in adj_refs:
        partial_refs = list(broadcast_map(
            gparts, adj_ref, _count_cooccurrence).to_arrow_refs())
        finish_refs.append(
            _finish.remote(adj_ref, threshold, partial_refs))
    return ray.data.from_arrow_refs(finish_refs)
