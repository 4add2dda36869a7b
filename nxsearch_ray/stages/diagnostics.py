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
from nxsearch_ray.stages.join import map_blocks
from nxsearch_ray.stages.shuffle import grouped, refs


def duplicate_page_ids(pages_ds, id_col: str = "page_id") -> pa.Table:
    """Ids appearing on more than one row — the distributed analogue of
    the reference's duplicate-doc-id ingest guard (reference
    src/core/nxs.c:505-511 rejects an already-indexed doc_id; the
    hashed-id pipeline instead surfaces collisions/duplicates as a
    diagnostic).  One grouped scan on the id; returns a small table
    ``(page_id, n_rows)`` with n_rows ≥ 2 — empty means ids are unique
    (the pipeline's input contract)."""
    import ray

    schema = pa.schema([(id_col, pa.int64()), ("n_rows", pa.int64())])

    def dups(t: pa.Table, starts: np.ndarray) -> pa.Table:
        n = np.diff(starts, append=t.num_rows)
        ids = t.column(id_col).to_numpy()[starts]
        return pa.table([ids[n >= 2], n[n >= 2]], schema=schema)

    return pa.concat_tables(ray.get(refs(grouped(
        pages_ds, [id_col], dups, schema,
        split_map=lambda t: t.select([id_col])))))


def census_over_keys(keyed_ds, names: tuple[str, ...]):
    """EXACT bucket-size histogram ``(source, bucket_size, n_buckets)``
    over a Dataset of ``(bucket_key int64, src int8)`` rows.  The plan
    is key-disjoint and deterministic (no bucket is split at a block
    edge), so it can sit behind a value-hash oracle:

      grouped scan on (bucket_key, src) → per-partition run lengths
      histogrammed by (src, size) → a second, SMALL grouped scan on
      the histogram keys sums the partials.

    ONE all-to-all exchange over the exploded keys — the same
    shape/cost as the candidate-pair census any 10^12-doc run needs
    for skew-policy tuning.  ``names[src]`` labels each source."""
    hist_schema = pa.schema([("src", pa.int8()),
                             ("bucket_size", pa.int64()),
                             ("n_buckets", pa.int64())])
    out_schema = pa.schema([("source", pa.string()),
                            ("bucket_size", pa.int64()),
                            ("n_buckets", pa.int64())])

    def block_hist(t: pa.Table, starts: np.ndarray) -> pa.Table:
        run_src = t.column("src").to_numpy()[starts].astype(np.int64)
        sizes = np.diff(starts, append=t.num_rows)
        u, freq = np.unique(np.stack([run_src, sizes], axis=1), axis=0,
                            return_counts=True)
        return pa.table([u[:, 0].astype(np.int8), u[:, 1],
                         freq.astype(np.int64)], schema=hist_schema)

    def finish(t: pa.Table, starts: np.ndarray) -> pa.Table:
        srcs = t.column("src").to_numpy()[starts]
        return pa.table([
            [names[int(c)] for c in srcs],
            t.column("bucket_size").to_numpy()[starts],
            np.add.reduceat(t.column("n_buckets").to_numpy(), starts)],
            schema=out_schema)

    hist = grouped(keyed_ds, ["bucket_key", "src"], block_hist,
                   hist_schema)
    return grouped(hist, ["src", "bucket_size"], finish, out_schema)


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
        map_blocks(signatures_ds, explode, pa.schema([
            ("bucket_key", pa.int64()), ("src", pa.int8())])),
        SRC_NAMES)
