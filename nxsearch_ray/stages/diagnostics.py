"""Skew / corpus diagnostics.

The reference tracks global term totals with atomic counters in shared
mmap (reference src/index/idxterm.c:267-313); the distributed
equivalent for skew detection is a bucket-size census over the
exploded candidate keys (SURVEY.md §2.5 A2: "for dedup only
*bucket-size* stats matter") — the pre-pass the skew policy is tuned
from.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig


def duplicate_page_ids(pages_ds, id_col: str = "page_id") -> pa.Table:
    """Ids appearing on more than one row — the distributed analogue of
    the reference's duplicate-doc-id ingest guard (reference
    src/core/nxs.c:505-511 rejects an already-indexed doc_id; the
    hashed-id pipeline instead surfaces collisions/duplicates as a
    diagnostic).  One native Count aggregation; returns a small table
    ``(page_id, n_rows)`` with n_rows ≥ 2 — empty means ids are unique
    (the pipeline's input contract)."""
    import pyarrow.compute as pc
    from ray.data import aggregate as agg

    counts = pages_ds.select_columns([id_col]) \
        .groupby(id_col).aggregate(agg.Count())

    def keep_dups(t: pa.Table) -> pa.Table:
        t = t.rename_columns([id_col, "n_rows"])
        return t.filter(pc.greater_equal(t.column("n_rows"), 2))

    out = counts.map_batches(keep_dups, batch_format="pyarrow")
    batches = list(out.iter_batches(batch_size=1 << 20,
                                    batch_format="pyarrow"))
    schema = pa.schema([(id_col, pa.int64()), ("n_rows", pa.int64())])
    batches = [b for b in batches if b.num_columns > 0]
    return pa.concat_tables(batches) if batches else schema.empty_table()


def census_over_keys(keyed_ds, names: tuple[str, ...]):
    """EXACT bucket-size histogram ``(source, bucket_size, n_buckets)``
    over a Dataset of ``(bucket_key int64, src int8)`` rows.  The plan
    is key-disjoint and deterministic (no bucket is split at a block
    edge), so it can sit behind a value-hash oracle:

      hash exchange on bucket_key (each key lands in exactly one
      block) → vectorized per-block run count + histogram → second
      SMALL key-disjoint exchange on the histogram keys + per-block
      sum.

    ONE all-to-all exchange over the exploded keys — the same
    shape/cost as the candidate-pair census any 10^12-doc run needs
    for skew-policy tuning.  ``names[src]`` labels each source."""
    from nxsearch_ray.stages.shuffle import hash_partitioned

    parts = hash_partitioned(keyed_ds, ["bucket_key"])

    hist_schema = pa.schema([("src", pa.int8()),
                             ("bucket_size", pa.int64()),
                             ("n_buckets", pa.int64())])

    def block_hist(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return hist_schema.empty_table()
        keys = t.column("bucket_key").to_numpy()
        srcs = t.column("src").to_numpy()
        o = np.lexsort((keys, srcs))
        keys, srcs = keys[o], srcs[o]
        brk = np.r_[True, (keys[1:] != keys[:-1])
                    | (srcs[1:] != srcs[:-1])]
        starts = np.flatnonzero(brk)
        sizes = np.diff(np.r_[starts, len(keys)])
        run_src = srcs[starts]
        # (src, size) histogram via lexsort-unique
        o2 = np.lexsort((sizes, run_src))
        rs, rc = run_src[o2], sizes[o2]
        uniq = np.r_[True, (rs[1:] != rs[:-1]) | (rc[1:] != rc[:-1])]
        ustart = np.flatnonzero(uniq)
        freq = np.diff(np.r_[ustart, len(rs)])
        return pa.table({
            "src": pa.array(rs[ustart], type=pa.int8()),
            "bucket_size": pa.array(rc[ustart].astype(np.int64)),
            "n_buckets": pa.array(freq.astype(np.int64))})

    hist = parts.map_batches(block_hist, batch_format="pyarrow",
                             batch_size=None)
    combined = hash_partitioned(hist, ["src", "bucket_size"])

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("source", pa.string()),
                              ("bucket_size", pa.int64()),
                              ("n_buckets", pa.int64())]).empty_table()
        srcs = t.column("src").to_numpy()
        szs = t.column("bucket_size").to_numpy()
        cnt = t.column("n_buckets").to_numpy()
        o = np.lexsort((szs, srcs))
        srcs, szs, cnt = srcs[o], szs[o], cnt[o]
        brk = np.r_[True, (srcs[1:] != srcs[:-1]) | (szs[1:] != szs[:-1])]
        starts = np.flatnonzero(brk)
        totals = np.add.reduceat(cnt, starts)
        return pa.table({
            "source": pa.array([names[int(c)] for c in srcs[starts]],
                               type=pa.string()),
            "bucket_size": pa.array(szs[starts], type=pa.int64()),
            "n_buckets": pa.array(totals.astype(np.int64))})

    return combined.map_batches(finish, batch_format="pyarrow",
                                batch_size=None)


def bucket_census(signatures_ds, cfg: PipelineConfig):
    """:func:`census_over_keys` over the real candidate buckets of
    ``explode_all`` (all four passes) — the deterministic skew-policy
    census for the actual banding keys.  NOTE: the minhash rows here
    include genuine LSH band collisions between unequal shingle sets
    (~p^4 per band at Jaccard p), so this census is a diagnostic, not
    SQL-predictable."""
    from nxsearch_ray.stages.pairs import SRC_NAMES, explode_all

    def explode(t: pa.Table) -> pa.Table:
        t = explode_all(cfg.to_json())(t)
        return pa.table({
            # int64 view of the uint64 bucket keys, the census's key type
            "bucket_key": pa.array(
                t.column("bucket_key").to_numpy().view(np.int64)),
            "src": t.column("src")})

    return census_over_keys(
        signatures_ds.map_batches(explode, batch_format="pyarrow"),
        SRC_NAMES)
