"""Gopher repetition stats (stages/textstats.py repetition_stats), with
an in-test DuckDB differential against its SQL twin."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.stages.textstats import (
    repetition_stats,
    repetition_stats_sql,
)


def test_repetition_stats_known_values():
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["a b a b a", "a a a a a a"]})
    out = repetition_stats(t).to_pylist()
    r1 = out[0]
    assert r1["n_words"] == 5
    assert r1["top_word_frac"] == pytest.approx(3 / 5)    # 'a' ×3
    assert r1["dup_word_frac"] == pytest.approx(3 / 5)    # 5 words, 2 distinct
    assert r1["top_bigram_frac"] == pytest.approx(2 / 4)  # 'a b' ×2
    r2 = out[1]
    assert r2["top_word_frac"] == 1.0
    assert r2["top_bigram_frac"] == 1.0
    assert r2["dup_bigram_frac"] == pytest.approx(4 / 5)


def test_repetition_stats_matches_duckdb(sf_dir):
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    got = repetition_stats(docs).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(repetition_stats_sql() +
                       " ORDER BY doc_id").fetchdf()
    assert got.shape == want.shape
    assert (got.values == want.values).all()       # bit-exact floats


def test_repetition_stats_batch_independence():
    """Same answers whatever the batch segmentation (no cross-doc
    state leaks through the packed keys)."""
    rng = np.random.default_rng(5)
    texts = [" ".join(rng.choice(["a", "b", "c", "d"], size=n))
             for n in rng.integers(1, 30, size=40)]
    t = pa.table({"doc_id": pa.array(range(40), pa.int64()),
                  "text": texts})
    whole = repetition_stats(t)
    parts = pa.concat_tables(
        [repetition_stats(t.slice(i, 7)) for i in range(0, 40, 7)])
    assert whole.equals(parts)
