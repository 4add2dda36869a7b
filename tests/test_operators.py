"""Operator-level tests: sources, setsim, embedding dup pairs, text
stats, join, query probe, diagnostics."""

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


def test_pages_from_text_files(ray_session, tmp_path):
    from nxsearch_ray.sources.pages import pages_from_text_files

    (tmp_path / "a.txt").write_text("plain text doc")
    (tmp_path / "b.html").write_text(
        "<html><head><title>t</title></head><body><p>html doc"
        "</p></body></html>")
    ds = pages_from_text_files(str(tmp_path))
    t = pa.concat_tables(ds.iter_batches(batch_size=100,
                                         batch_format="pyarrow"))
    assert t.num_rows == 2
    by_url = {u.split("/")[-1]: i for i, u in
              enumerate(t.column("url").to_pylist())}
    assert t.column("text")[by_url["a.txt"]].as_py() == "plain text doc"
    assert b"html doc" in t.column("html")[by_url["b.html"]].as_py()


# ------------------------------------------------------------- setsim

def test_ngram_set_definition():
    from nxsearch_ray.stages.setsim import ngram_set

    assert ngram_set("a b c d", 3) == {"a b c", "b c d"}
    assert ngram_set("a b", 3) == set()


def test_ngram_jaccard_matches_bruteforce(ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.setsim import ngram_jaccard_pairs, ngram_set

    texts = ["the quick brown fox jumps over the lazy dog",
             "the quick brown fox jumps over the lazy cat",
             "completely different words here now",
             "the quick brown fox jumps over the lazy dog today"]
    t = pa.table({"page_id": list(range(4)), "text": texts})
    out = ngram_jaccard_pairs(rd.from_arrow(t), n=3, threshold=0.3)
    got = pa.concat_tables(out.iter_batches(batch_size=100,
                                            batch_format="pyarrow"))
    pairs = {(r["a"], r["b"]): r["jaccard"]
             for r in got.to_pylist()}
    # brute force
    grams = [ngram_set(x, 3) for x in texts]
    for i in range(4):
        for j in range(i + 1, 4):
            inter = len(grams[i] & grams[j])
            if not inter:
                continue
            jac = inter / len(grams[i] | grams[j])
            if jac >= 0.3:
                assert pytest.approx(pairs[(i, j)]) == jac
            else:
                assert (i, j) not in pairs


def test_count_cooccurrence_both_strategies(ray_session):
    """Unit-test the exact-count pass's per-run strategy choice: a hot
    boilerplate run (C(df,2) huge, candidate degrees tiny) must take
    the adjacency-expansion branch while ordinary runs enumerate —
    and the partial counts must be identical to brute force either
    way.  Page ids sit above 2^32 to exercise the dense-rank mapping
    (the adjacency is rank-keyed; partials carry ranks)."""
    from nxsearch_ray.stages.setsim import _count_cooccurrence

    BIG = 3 << 32  # global ids beyond uint32 range
    # gram runs: hot run (key 100: docs 0..49), three ordinary runs —
    # local index i is also doc BIG+i's dense rank
    runs = {100: list(range(50)), 200: [0, 1, 2], 300: [1, 2],
            400: [0, 2]}
    keys, pids = [], []
    for k in sorted(runs):
        for p in runs[k]:
            keys.append(k)
            pids.append(BIG + p)
    dfs = [len(runs[k]) for k in sorted(runs) for _ in runs[k]]
    t = pa.table({"bucket_key": pa.array(keys, type=pa.uint64()),
                  "page_id": pa.array(pids, type=pa.int64()),
                  "df": pa.array(dfs, type=pa.int64())})
    # candidate pairs as ranks (a < b), a-side CSR exactly as _build
    # emits; ids maps rank -> global id over the endpoint universe
    cand = [(0, 1), (0, 2), (1, 2)]
    a = np.array([p[0] for p in cand], dtype=np.int64)
    b = np.array([p[1] for p in cand], dtype=np.int64)
    adj = {"nodes": np.array([0, 1], dtype=np.int64),
           "offsets": np.array([0, 2, 3], dtype=np.int64),
           "partners": np.array([1, 2, 2], dtype=np.int64),
           "pair_keys": (a.astype(np.uint64) << np.uint64(32))
           | b.astype(np.uint64),
           "ids": BIG + np.array([0, 1, 2], dtype=np.int64),
           "sizes": np.array([10, 10, 10], dtype=np.int64)}
    # the hot run must choose expansion: C(50,2)=1225 >> sum(deg)=3
    fn = _count_cooccurrence(adj)
    got = fn(t)
    counts = {(r["a"], r["b"]): r["cnt"] for r in got.to_pylist()}
    expected = {}
    for (x, y) in cand:
        expected[(x, y)] = sum(1 for k in runs
                               if x in runs[k] and y in runs[k])
    assert counts == expected
    # splitting into per-run blocks must sum to the same totals
    parts = []
    off = 0
    for k in sorted(runs):
        parts.append(fn(t.slice(off, len(runs[k]))))
        off += len(runs[k])
    summed: dict = {}
    for p in parts:
        for r in p.to_pylist():
            summed[(r["a"], r["b"])] = summed.get((r["a"], r["b"]), 0) \
                + r["cnt"]
    assert summed == expected


def test_ngram_jaccard_skewed_boilerplate(ray_session):
    """End-to-end exactness on a skewed corpus: every doc shares a
    boilerplate phrase (df = n_docs grams → the expansion branch and
    the prefix filter's high-df ordering both engage) plus planted
    near-dup pairs."""
    import ray.data as rd

    from nxsearch_ray.stages.setsim import ngram_jaccard_pairs, ngram_set

    boiler = "terms of service apply all rights reserved"
    texts = []
    for i in range(30):
        uniq = " ".join(f"w{i}x{j}" for j in range(6))
        texts.append(f"{boiler} {uniq}")
    # planted near-dups: same unique tail with one word changed
    texts[10] = texts[0].replace("w0x5", "zz")
    texts[21] = texts[20]
    BIG = 5 << 32  # ids beyond uint32: end-to-end wide-id coverage
    t = pa.table({"page_id": [BIG + i for i in range(30)],
                  "text": texts})
    out = ngram_jaccard_pairs(rd.from_arrow(t), n=3, threshold=0.3)
    got = pa.concat_tables(out.iter_batches(batch_size=1000,
                                            batch_format="pyarrow"))
    pairs = {(r["a"], r["b"]): (r["n_common"], r["jaccard"])
             for r in got.to_pylist()}
    grams = [ngram_set(x, 3) for x in texts]
    expected = {}
    for i in range(30):
        for j in range(i + 1, 30):
            inter = len(grams[i] & grams[j])
            jac = inter / len(grams[i] | grams[j]) if inter else 0.0
            if jac >= 0.3:
                expected[(BIG + i, BIG + j)] = inter
    assert set(pairs) == set(expected)
    for k, inter in expected.items():
        assert pairs[k][0] == inter
        assert pytest.approx(pairs[k][1]) == inter / (
            len(grams[k[0] - BIG] | grams[k[1] - BIG]))


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


# ---------------------------------------------------------- text stats

def test_doc_stats_values():
    from nxsearch_ray.stages.textstats import doc_stats

    t = pa.table({"text": ["Hello World 123, test!", ""]})
    out = doc_stats(t)
    row = out.to_pylist()[0]
    assert row["n_tokens"] == 4
    assert row["n_chars"] == 22
    assert 0 <= row["quality"] <= 1
    empty = out.to_pylist()[1]
    assert empty["n_tokens"] == 0


def test_langid():
    from nxsearch_ray.stages.textstats import LangIdActor

    actor = LangIdActor()
    t = pa.table({"text": [
        "the cat and the dog sat for a while that it is",
        "der hund und die katze ist nicht mit ein",
        "el perro es una cosa que por las casas",
        "中文网页内容测试",
        "il gatto che dorme sono anche gli animali nel prato",
        "não sei como dizer mais dos outros são pelo menos",
        "het is een huis van niet zijn voor de stad ook",
        "и вот не знаю что это как для него она",
    ]})
    assert actor(t).column("lang_pred").to_pylist() == \
        ["en", "de", "es", "zh", "it", "pt", "nl", "ru"]


def test_fingerprint_deterministic():
    from nxsearch_ray.stages.textstats import fingerprint

    t = pa.table({"text": ["abc", "abd", "abc"]})
    out = fingerprint(t)
    md5 = out.column("md5").to_pylist()
    roll = out.column("rolling64").to_pylist()
    assert md5[0] == md5[2] != md5[1]
    assert roll[0] == roll[2] != roll[1]


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
    import ray.data as rd

    from nxsearch_ray.sources.synth import synth_pages
    from nxsearch_ray.stages.diagnostics import bucket_census
    from nxsearch_ray.stages.signatures import canonsig_stage

    cfg = PipelineConfig()
    tbl = synth_pages(200, seed=13)
    sigs = canonsig_stage(
        rd.from_arrow(tbl.drop_columns(["html"])), cfg).materialize()
    out = bucket_census(sigs, cfg)
    got = pa.concat_tables(out.iter_batches(batch_size=10000,
                                            batch_format="pyarrow"))
    rows = got.to_pylist()
    assert {r["source"] for r in rows} <= {
        "exact", "minhash", "simhash", "suffix"}
    # every doc emits one seq-hash row; copies share buckets
    exact_total = sum(r["bucket_size"] * r["n_buckets"]
                      for r in rows if r["source"] == "exact")
    assert exact_total == tbl.num_rows


def test_ngram_jaccard_sharded_plan_equivalence(ray_session, monkeypatch):
    """Forcing >=4 candidate shards (the a-endpoint sharding that
    bounds every adjacency/count/finish task to ~1/S of the candidate
    set, forced by shrinking ``SHARD_BUDGET_PAIRS``) must give
    byte-identical results to the single-shard plan, over a corpus
    with real duplicate structure."""
    import ray.data as rd

    from nxsearch_ray.stages import setsim
    from nxsearch_ray.stages.setsim import ngram_jaccard_pairs

    build = setsim.build_pair_adjacency_refs
    shards = []

    def counted(cand):
        refs = build(cand)
        shards.append(len(refs))
        return refs

    monkeypatch.setattr(setsim, "build_pair_adjacency_refs", counted)

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(40)]
    texts = []
    for i in range(60):
        base = " ".join(rng.choice(words, size=12))
        texts.append(base)
        if i % 3 == 0:                      # planted near-dups
            texts.append(base + " extra")
    t = pa.table({"page_id": list(range(len(texts))), "text": texts})

    def run(budget):
        monkeypatch.setattr(setsim, "SHARD_BUDGET_PAIRS", budget)
        out = ngram_jaccard_pairs(rd.from_arrow(t), n=3, threshold=0.4)
        tb = pa.concat_tables(
            b for b in out.iter_batches(batch_size=1 << 20,
                                        batch_format="pyarrow")
            if b.num_columns > 0)
        order = np.lexsort((tb.column("b").to_numpy(),
                            tb.column("a").to_numpy()))
        return tb.take(pa.array(order, type=pa.int64()))

    one = run(1 << 30)
    many = run(16)
    assert shards[0] == 1 and shards[1] >= 4
    assert one.num_rows > 0          # the corpus must exercise pairs
    assert many.equals(one)
