"""Operator-level tests: sources, embedding dup pairs, join, query
probe, diagnostics."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.config import PipelineConfig

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------ sources

def test_pages_table_shape_and_planting():
    from nxsearch_ray.sources.pages import PAGES_SCHEMA, pages_table

    t = pages_table(SF)
    assert t.schema.equals(PAGES_SCHEMA)
    variants = t.column("variant").to_pylist()
    pids = t.column("page_id").to_pylist()
    texts = dict(zip(pids, t.column("text").to_pylist()))
    htmls = dict(zip(pids, t.column("html").to_pylist()))
    n_copy = variants.count("copy")
    assert n_copy > 0 and variants.count("tail") > 0
    # exact copies share text; html embeds the text verbatim
    for pid, var in zip(pids, variants):
        if var == "copy":
            assert texts[pid] == texts[pid - 1]
        assert texts[pid].encode() in htmls[pid]


def test_extract_text_roundtrip():
    from nxsearch_ray.sources.pages import pages_table
    from nxsearch_ray.stages.html_extract import extract_text

    t = pages_table(SF)
    original = t.column("text").to_pylist()
    out = extract_text(t.drop_columns(["text"]).append_column(
        "text", pa.array([""] * t.num_rows)))
    assert out.column("text").to_pylist() == original


# -------------------------------------------------- embedding dup pairs

def _rand_embeddings(n=200, dim=16, seed=5):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    return pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              type=pa.list_(pa.float32()))})


def _planted(t: pa.Table, copies: dict) -> pa.Table:
    """``t`` with row ``dst``'s vector replaced by ``scale`` times row
    ``src``'s for each ``dst: (src, scale)`` of ``copies``."""
    emb = t.column("embedding").to_pylist()
    for dst, (src, scale) in copies.items():
        emb[dst] = [v * scale for v in emb[src]]
    return pa.table({"vec_id": t.column("vec_id"),
                     "embedding": pa.array(emb,
                                           type=pa.list_(pa.float32()))})


def _dup_pairs_oracle(t: pa.Table, threshold: float) -> dict:
    """{(a, b): cosine} of every pair a < b at cosine >= threshold, by
    one numpy all-pairs matmul."""
    from nxsearch_ray.stages.signatures import list_column_numpy

    flat, _ = list_column_numpy(t.column("embedding"), dtype=np.float64)
    mat = flat.reshape(t.num_rows, -1)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    ids = t.column("vec_id").to_numpy()
    ii, jj = np.nonzero(np.triu(sims >= threshold, k=1))
    return {(int(min(ids[i], ids[j])), int(max(ids[i], ids[j]))):
            sims[i, j] for i, j in zip(ii, jj)}


def test_embedding_dup_blocked_matches_broadcast(ray_session):
    """The blocked block-pair plan must reproduce a numpy all-pairs
    oracle's pairs AND cosines, with several blocks in play
    (block_rows << n) so same-block, cross-block and dedup paths all
    execute.  Two inputs: 120 vectors with same-block, cross-block and
    scaled duplicates at 0.8, and 50 vectors with one planted copy at
    0.999."""
    import ray.data as rd

    from nxsearch_ray.stages.semdedup import embedding_dup_pairs_blocked

    cases = [
        (_planted(_rand_embeddings(n=120),
                  {119: (0, 1.0),               # same-block-able
                   60: (1, 1.0),                # cross-block
                   61: (1, 0.5)}),              # same direction
         0.8, {(0, 119), (1, 60), (1, 61)}),
        (_planted(_rand_embeddings(n=50), {49: (0, 1.0)}), 0.999,
         {(0, 49)}),
    ]
    for t, thr, planted in cases:
        out = embedding_dup_pairs_blocked(rd.from_arrow(t), threshold=thr,
                                          block_rows=32)
        got = {(r["a"], r["b"]): r["cosine"] for r in pa.concat_tables(
            out.iter_batches(batch_size=1000,
                             batch_format="pyarrow")).to_pylist()}
        want = _dup_pairs_oracle(t, thr)
        assert got == pytest.approx(want, abs=1e-12)
        assert planted <= set(got)


# ----------------------------------------------------------------- join

def test_hash_join_correct(ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.join import hash_join

    left = pa.table({"k": [1, 2, 3, 5, 2], "x": [10, 20, 30, 50, 21]})
    right = pa.table({"id": [1, 2, 3, 4],
                      "payload": pa.array([[1, 1], [2, 2], [3, 3], [4, 4]],
                                          type=pa.list_(pa.uint64()))})
    out = hash_join(
        rd.from_arrow(left).repartition(3),
        rd.from_arrow(right).repartition(2),
        left_key="k", right_key="id",
        left_schema=left.schema, right_schema=right.schema)
    got = sorted(pa.concat_tables(out.iter_batches(
        batch_size=100, batch_format="pyarrow")).to_pylist(),
        key=lambda r: (r["k"], r["x"]))
    # k=5 has no match and is dropped; k=2 appears twice on the left
    assert [(r["k"], r["x"], r["payload_r"]) for r in got] == [
        (1, 10, [1, 1]), (2, 20, [2, 2]), (2, 21, [2, 2]),
        (3, 30, [3, 3])]


# ----------------------------------------------------------- diagnostics

def test_bucket_census(ray_session):
    """The census over the real candidate buckets of ``explode_all``
    (all four passes)."""
    import ray.data as rd

    from nxsearch_ray.sources.synth import synth_pages
    from nxsearch_ray.stages.diagnostics import census_over_keys
    from nxsearch_ray.stages.pairs import SRC_NAMES, explode_all
    from nxsearch_ray.stages.signatures import canonsig_stage

    cfg = PipelineConfig()
    tbl = synth_pages(200, seed=13)
    sigs = pa.concat_tables(canonsig_stage(
        rd.from_arrow(tbl.drop_columns(["html"])), cfg).iter_batches(
            batch_format="pyarrow")).combine_chunks()
    keys = explode_all(cfg.to_json())(sigs)
    out = census_over_keys(rd.from_arrow(pa.table({
        # int64 view of the uint64 bucket keys, the census's key type
        "bucket_key": keys.column("bucket_key").to_numpy().view(np.int64),
        "src": keys.column("src")})), SRC_NAMES)
    got = pa.concat_tables(out.iter_batches(batch_size=10000,
                                            batch_format="pyarrow"))
    rows = got.to_pylist()
    assert {r["source"] for r in rows} <= {
        "exact", "minhash", "simhash", "suffix"}
    # every doc emits one seq-hash row; copies share buckets
    exact_total = sum(r["bucket_size"] * r["n_buckets"]
                      for r in rows if r["source"] == "exact")
    assert exact_total == tbl.num_rows
