"""Benchmark decontamination — flag training docs that overlap an
evaluation set by any word n-gram.

Standard practice for web-scale training corpora (GPT-3 appendix C,
PaLM, Llama): any training document sharing an n-gram with a held-out
benchmark is flagged/removed so eval numbers aren't contaminated.
The reference engine has no analogue; this is part of the
training-data operator set.

Shape of the computation (broadcast membership, one pass each side):

1. Benchmark grams: the benchmark slice (real pipelines: the eval
   suites; here a deterministic ``doc_id % benchmark_mod == 0`` slice
   so the SQL oracle can reproduce it) is streamed through a
   map_batches that emits per-batch DISTINCT n-gram hashes; ONE remote
   task unions them (`stages.join.id_set_ref`) — its return ref IS
   the broadcast sorted uint64 array.  Benchmarks are small and
   fixed-size by nature — eval suites are MBs against a 100 TB
   corpus — so the broadcast set stays tiny no matter the corpus
   scale; if a pathological benchmark ever outgrew worker heaps, the
   same exploded-gram census feeds the `stages.join.hash_join`
   partition-wise join instead (the `linededup`-documented fallback).
2. Scan: every non-benchmark doc's distinct gram hashes are matched
   against the broadcast array with ``stages.join.sorted_lookup`` —
   ``n_hits`` = distinct contaminated grams, ``contaminated`` =
   n_hits > 0.  Map-only, no shuffle; the broadcast array ships once
   per node (object store), not per batch.

Gram definition shared verbatim with `stages.setsim` (whitespace
words, space-joined n-grams) so the DuckDB twin reuses the
ngram_jaccard SQL machinery; grams are hashed as rolling
token-hash combinations (see `_distinct_gram_hashes` for why plain
string hashing would not be collision-safe at n=5), so a
string-vs-hash divergence needs a 64-bit mixing collision
(~n²/2⁶⁴ — negligible and detectable: the oracle hash would break).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.hashing import (hash_strings,
                                            shingle_hashes,
                                            unique_per_doc)
from nxsearch_ray.stages.setsim import _words


def _distinct_gram_hashes(texts: list[str], n: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc DISTINCT gram hashes: (hashes concatenated, per-doc
    counts).

    Grams are hashed as rolling combinations of per-TOKEN hashes
    (`shingle_hashes`), not as joined strings: `hash_strings` folds
    only a 32-byte prefix + length, and a 5-gram routinely exceeds
    32 bytes — two grams differing past the prefix would collide
    deterministically.  Token-level hashing keeps each hashed unit
    short; residual collisions are 64-bit-mixing only (~n²/2⁶⁴).
    Docs with fewer than ``n`` tokens get ZERO grams (matching the
    SQL twin's ``len(ws) >= n`` filter), unlike the signature stage's
    whole-sequence fallback shingle."""
    toks: list[str] = []
    counts = np.zeros(len(texts), dtype=np.int64)
    for i, t in enumerate(texts):
        w = _words(t)
        toks.extend(w)
        counts[i] = len(w)
    offsets = np.zeros(len(texts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    th = hash_strings(toks) if toks else np.empty(0, dtype=np.uint64)
    sh, soff = shingle_hashes(th, offsets, n)
    short = (counts > 0) & (counts < n)
    if short.any():
        # drop the whole-sequence fallback shingle of short docs
        keep = np.ones(len(sh), dtype=bool)
        keep[soff[:-1][short]] = False
        percount = np.diff(soff)
        percount[short] = 0
        sh = sh[keep]
        soff = np.zeros(len(texts) + 1, dtype=np.int64)
        np.cumsum(percount, out=soff[1:])
    u, uoff = unique_per_doc(sh, soff)
    return u, np.diff(uoff)


def benchmark_gram_broadcast(docs_ds, *, n: int = 5,
                             benchmark_mod: int = 97,
                             id_col: str = "doc_id",
                             text_col: str = "text"):
    """Union the benchmark slice's distinct gram hashes into one
    sorted uint64 array in ONE remote task (stages/join.id_set_ref:
    the driver never holds a gram; the task's return ref is the
    broadcast).  Returns the ObjectRef."""
    from nxsearch_ray.stages.join import id_set_ref

    def bench_grams(batch: pa.Table) -> pa.Table:
        iv = batch.column(id_col).to_numpy()
        batch = batch.filter(pa.array(iv % benchmark_mod == 0))
        h, _ = _distinct_gram_hashes(
            batch.column(text_col).to_pylist(), n)
        return pa.table({"gram": pa.array(np.unique(h),
                                          type=pa.uint64())})

    return id_set_ref(docs_ds.map_batches(bench_grams,
                                          batch_format="pyarrow"),
                      ["gram"])


def decontaminate(docs_ds, *, n: int = 5, benchmark_mod: int = 97,
                  id_col: str = "doc_id", text_col: str = "text"):
    """(doc_id, n_hits, contaminated) for every NON-benchmark doc.

    Map-only scan against the broadcast benchmark gram set; docs with
    fewer than ``n`` words have no grams and are clean by definition
    (the SQL twin coalesces them to 0 the same way).
    """
    gram_ref = benchmark_gram_broadcast(
        docs_ds, n=n, benchmark_mod=benchmark_mod,
        id_col=id_col, text_col=text_col)

    def scan(batch: pa.Table) -> pa.Table:
        import ray

        from nxsearch_ray.stages.join import sorted_lookup

        bench = ray.get(gram_ref)
        iv = batch.column(id_col).to_numpy()
        batch = batch.filter(pa.array(iv % benchmark_mod != 0))
        ids = batch.column(id_col).to_numpy()
        if len(ids) == 0:
            return pa.table({
                "doc_id": pa.array([], type=pa.int64()),
                "n_hits": pa.array([], type=pa.int64()),
                "contaminated": pa.array([], type=pa.bool_())})
        h, counts = _distinct_gram_hashes(
            batch.column(text_col).to_pylist(), n)
        hit = sorted_lookup(bench, h)[1].astype(np.int64)
        ends = np.cumsum(counts)
        starts = ends - counts
        n_hits = np.add.reduceat(
            np.concatenate((hit, [0])), np.minimum(starts, h.size))
        n_hits[counts == 0] = 0
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "n_hits": pa.array(n_hits[:len(ids)], type=pa.int64()),
            "contaminated": pa.array(n_hits[:len(ids)] > 0,
                                     type=pa.bool_())})

    return docs_ds.map_batches(scan, batch_format="pyarrow")


def decontaminate_sql(*, n: int = 5, benchmark_mod: int = 97,
                      table: str = "documents") -> str:
    """DuckDB twin: string n-gram semi-join instead of hashed
    broadcast — same grams, same counts."""
    joins = " || ' ' || ".join(
        f"ws[i+{j}]" if j else "ws[i]" for j in range(n))
    return f"""
WITH w AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS ws
           FROM {table}),
g AS (SELECT doc_id,
             list_distinct(list_transform(
               generate_series(1, len(ws) - {n - 1}),
               i -> {joins})) AS gs
      FROM w WHERE len(ws) >= {n}),
bench AS (SELECT DISTINCT unnest(gs) AS gram FROM g
          WHERE doc_id % {benchmark_mod} = 0),
hits AS (SELECT doc_id, count(*) AS n_hits
         FROM (SELECT doc_id, unnest(gs) AS gram FROM g
               WHERE doc_id % {benchmark_mod} <> 0) t
         JOIN bench USING (gram) GROUP BY doc_id)
SELECT d.doc_id, coalesce(h.n_hits, 0)::BIGINT AS n_hits,
       coalesce(h.n_hits, 0) > 0 AS contaminated
FROM (SELECT doc_id FROM {table}
      WHERE doc_id % {benchmark_mod} <> 0) d
LEFT JOIN hits h USING (doc_id)
"""
