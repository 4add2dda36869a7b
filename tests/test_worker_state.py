"""Per-worker state of the broadcast stages (stages/join.broadcast_map):
the cache rule in-process, per-call freshness of config-derived state,
and the retired actor-pool config key; the stateless wave
(``join.map_blocks``) and the exchange's per-side ``split_map``."""

from __future__ import annotations

import functools
import json

import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.stages import join


_CALLS: list = []


def _record(tag: str, value):
    _CALLS.append((tag, value))
    return (tag, value)


def test_same_ref_builds_once_new_ref_rebuilds(ray_session):
    import ray

    _CALLS.clear()
    build = functools.partial(_record, "k")
    site = join._site(build)
    r1, r2 = ray.put(1), ray.put(2)
    assert join._worker_state(site, r1, 1, build) == ("k", 1)
    assert join._worker_state(site, r1, 1, build) == ("k", 1)
    assert _CALLS == [("k", 1)]
    assert join._worker_state(site, r2, 2, build) == ("k", 2)
    assert _CALLS == [("k", 1), ("k", 2)]


def test_call_sites_do_not_evict_each_other(ray_session):
    import ray

    _CALLS.clear()
    verify = functools.partial(_record, "verify")
    suffix = functools.partial(_record, "suffix")
    assert join._site(verify) != join._site(suffix)
    assert join._site(verify) == join._site(
        functools.partial(_record, "verify"))
    rv, rs = ray.put("sig-index"), ray.put("token-index")
    for _ in range(3):
        assert join._worker_state(join._site(verify), rv, "sig-index",
                                  verify) == ("verify", "sig-index")
        assert join._worker_state(join._site(suffix), rs, "token-index",
                                  suffix) == ("suffix", "token-index")
    assert _CALLS == [("verify", "sig-index"), ("suffix", "token-index")]


def _blocks(t: pa.Table, n: int):
    import ray.data as rd

    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def test_canonsig_state_is_fresh_per_call(ray_session):
    """Config A, then config B with another filter chain, in one
    session: each output equals a fresh kernel of its own config (a
    worker reusing A's pipelines or memo under B would not)."""
    from nxsearch_ray.sources.synth import synth_pages
    from nxsearch_ray.stages.signatures import CanonSigActor, canonsig_stage

    pages = synth_pages(60, seed=5)
    ds = _blocks(pages, 8)
    outs = []
    for cfg in (PipelineConfig(), PipelineConfig(filters=("normalizer",))):
        got = pa.concat_tables(
            canonsig_stage(ds, cfg).iter_batches(batch_format="pyarrow"))
        want = CanonSigActor(cfg.to_json())(pages)
        assert got.sort_by("page_id").combine_chunks().equals(
            want.sort_by("page_id").combine_chunks())
        outs.append(want)
    assert not outs[0].column("token_ids").equals(
        outs[1].column("token_ids"))


def test_memo_codes_give_the_token_hashes(monkeypatch):
    """The word → code memo: over three batches of two languages, with
    a cap small enough to reset the memo between batches, every doc's
    ``token_ids``, ``doc_len`` and ``n_unique`` equal its canonical
    tokens from a fresh filter chain, hashed.  Two distinct tokens
    longer than the 32-byte hash width, with one prefix and one length,
    hash equal; ``n_unique`` still counts them twice.  A stopword-only
    text has no token, and repeated stopwords (memo hits on a discarded
    word) are dropped each time."""
    import numpy as np

    from nxsearch_ray.functions.filters import build_pipeline
    from nxsearch_ray.functions.hashing import hash_strings
    from nxsearch_ray.functions.tokenizer import tokenize
    from nxsearch_ray.stages import canonicalize
    from nxsearch_ray.stages.signatures import list_column_numpy

    twin_a, twin_b = "x" * 34 + "ab", "x" * 34 + "cd"
    cfg = PipelineConfig()
    assert hash_strings([twin_a], seed=cfg.seed) == \
        hash_strings([twin_b], seed=cfg.seed)
    batches = [
        {"text": [f"{twin_a} {twin_b} {twin_a} running runs",
                  "Die Häuser und das Haus, die Häuser",
                  None, "the runner ran; 3,500.12 runs"],
         "lang": ["en", "de", "en", None]},
        {"text": ["Häuser laufen, Hause läuft", "runs and running again",
                  f"{twin_b}", ""],
         "lang": ["de", "en", "en", "de"]},
        {"text": ["i.b.m doesn't run: runs", "Haus Häuser Hauses",
                  "the and of the a it", "the cat and the dog, the end"],
         "lang": ["en", "de", "en", "en"]},
    ]
    monkeypatch.setattr(canonicalize, "_CACHE_CAP", 3)
    actor = canonicalize.CanonicalizeActor(cfg)
    per_text = canonicalize.CanonicalizeActor(cfg)
    pipes = {lang: build_pipeline(cfg.filters, lang) for lang in ("en", "de")}
    for rows in batches:
        out = actor(pa.table(rows))
        flat, off = list_column_numpy(out.column("token_ids"))
        for i, (text, lang) in enumerate(zip(rows["text"], rows["lang"])):
            _, toks = tokenize(text or "", pipes[lang or cfg.lang])
            assert per_text.canonical_tokens(text or "",
                                             lang or cfg.lang) == toks
            want = hash_strings(toks, seed=cfg.seed)
            assert np.array_equal(flat[off[i]:off[i + 1]], want)
            assert out.column("doc_len")[i].as_py() == len(toks)
            assert out.column("n_unique")[i].as_py() == len(set(toks))
    assert per_text.canonical_codes("the and of the a it", "en") == []
    first = actor(pa.table(batches[0]))
    hashes = first.column("token_ids")[0].as_py()
    assert first.column("n_unique")[0].as_py() == len(set(hashes)) + 1


def test_from_json_drops_retired_concurrency_key():
    d = json.loads(PipelineConfig(shingle_k=7).to_json())
    d["canonicalize_concurrency"] = 4
    d["lang_column"] = "lang"
    assert PipelineConfig.from_json(json.dumps(d)) == \
        PipelineConfig(shingle_k=7)


# ------------------------------------------------- the broadcast wave
# (the kernels are built inside each test: a worker process cannot
# import this module, so they must be pickled by value)

def _wave_rows(ds) -> list:
    return [r for t in ds.iter_batches(batch_format="pyarrow")
            for r in t.to_pylist()]


def test_wave_rows_are_the_kernel_over_each_block_in_input_order(
        ray_session):
    import pyarrow.compute as pc
    import ray
    import ray.data as rd

    def add(offset):
        return lambda t: t.append_column("y", pc.add(t.column("x"), offset))

    blocks = [pa.table({"x": list(range(s, s + n))})
              for s, n in ((0, 5), (100, 1), (200, 17), (300, 9))]
    want = [r for b in blocks for r in add(1000)(b).to_pylist()]
    ref = ray.put(1000)
    for batch_size in (None, 4, 1024):
        got = join.broadcast_map(rd.from_arrow(blocks), ref, add,
                                 batch_size=batch_size)
        assert _wave_rows(got) == want


def test_wave_skips_zero_column_blocks(ray_session):
    import ray
    import ray.data as rd

    def only_x(_):
        def fn(t):
            assert t.column_names == ["x"] and t.num_rows
            return t
        return fn

    blocks = [pa.table({"x": [1, 2]}), pa.table({}),
              pa.table({"x": [3]}), pa.table({})]
    for batch_size in (None, 2, 1024):
        got = join.broadcast_map(rd.from_arrow(blocks), ray.put(0),
                                 only_x, batch_size=batch_size)
        assert [r["x"] for r in _wave_rows(got)] == [1, 2, 3]


def test_wave_over_zero_rows_is_empty(ray_session):
    import ray
    import ray.data as rd

    def never(_):
        def fn(t):
            raise AssertionError("the kernel ran on an empty input")
        return fn

    empty = rd.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    for batch_size in (None, 8):
        got = join.broadcast_map(empty, ray.put(0), never,
                                 batch_size=batch_size)
        assert got.count() == 0


def test_wave_plan_keeps_every_cpu_busy_within_batch_size(ray_session):
    """Eight blocks of 149 rows at ``batch_size`` 1,024 (a ``templated``
    signature stage): at least one task per CPU while blocks last,
    none over ``batch_size`` rows, every row once."""
    import ray
    import ray.data as rd

    from nxsearch_ray.stages.shuffle import session_cpus

    def row_count(_):
        return lambda t: pa.table({"n": [t.num_rows]})

    cpus = session_cpus()
    for n_blocks, rows, batch_size in ((8, 149, 1024), (3, 500, 128),
                                       (1, 10, 1024)):
        ds = rd.from_arrow([pa.table({"x": list(range(rows))})
                            for _ in range(n_blocks)])
        counts = [r["n"] for r in _wave_rows(join.broadcast_map(
            ds, ray.put(0), row_count, batch_size=batch_size))]
        assert len(counts) >= min(n_blocks, cpus)
        assert max(counts) <= batch_size
        assert sum(counts) == n_blocks * rows


def test_wave_plan_balances_rows():
    assert join._wave_plan([149] * 8, 1024, 2) == [
        [(i, 0, 149) for i in range(4)], [(i, 0, 149) for i in range(4, 8)]]
    assert join._wave_plan([0, 5, 0, 5], 1024, 4) == [
        [(1, 0, 2)], [(1, 2, 3)], [(3, 0, 2)], [(3, 2, 3)]]
    assert join._wave_plan([10], 4, 2) == [
        [(0, 0, 3)], [(0, 3, 3)], [(0, 6, 4)]]
    assert join._wave_plan([3, 0, 2], None, 8) == [[(0, 0, 3)], [(2, 0, 2)]]
    assert join._wave_plan([0, 0], 16, 2) == []


# ------------------------------------------------ the stateless wave

def test_map_blocks_keeps_input_order(ray_session):
    import pyarrow.compute as pc
    import ray.data as rd

    schema = pa.schema([("x", pa.int64()), ("y", pa.int64())])

    def double(t):
        return t.append_column("y", pc.multiply(t.column("x"), 2))

    blocks = [pa.table({"x": list(range(s, s + n))})
              for s, n in ((50, 3), (0, 7), (900, 1), (10, 4))]
    got = join.map_blocks(rd.from_arrow(blocks), double, schema)
    assert _wave_rows(got) == [r for b in blocks
                               for r in double(b).to_pylist()]
    assert got.count() == 15


def test_map_blocks_empty_and_zero_column_blocks(ray_session):
    """Empty and zero-column blocks never reach the kernel; an input
    with no rows at all gives one empty block of the declared schema,
    not a zero-column one."""
    import ray
    import ray.data as rd

    schema = pa.schema([("x", pa.int64()), ("n", pa.int64())])

    def count_rows(t):
        assert t.column_names == ["x"] and t.num_rows
        return pa.table({"x": t.column("x"),
                         "n": pa.array([t.num_rows] * t.num_rows,
                                       pa.int64())})

    x = pa.table({"x": pa.array([1, 2, 3], pa.int64())})
    got = join.map_blocks(rd.from_arrow(
        [x.slice(0, 2), pa.table({}), x.slice(0, 0), x.slice(2)]),
        count_rows, schema)
    assert _wave_rows(got) == [{"x": 1, "n": 2}, {"x": 2, "n": 2},
                               {"x": 3, "n": 1}]
    for empty in ([pa.table({})], [x.slice(0, 0), pa.table({})]):
        got = join.map_blocks(rd.from_arrow(empty), count_rows, schema)
        tables = ray.get(got.to_arrow_refs())
        assert got.count() == 0 and got.schema().base_schema == schema
        assert [t.schema for t in tables] == [schema]


def test_exchange_split_map_equals_map_then_exchange(ray_session,
                                                     monkeypatch):
    """A side's ``split_map`` runs inside the split: partition i holds
    the same rows as mapping every block first and exchanging that."""
    from collections import Counter

    import numpy as np
    import ray
    import ray.data as rd

    from nxsearch_ray.stages import shuffle

    def explode(t):
        ids = t.column("id").to_numpy()
        return pa.table({"k": pa.array(np.concatenate([ids % 5, ids % 7]),
                                       pa.int64()),
                         "id": pa.array(np.tile(ids, 2), pa.int64())})

    monkeypatch.setattr(shuffle, "partition_width", lambda n, b: 3)
    t = pa.table({"id": pa.array(np.arange(60), pa.int64())})
    blocks = [t.slice(0, 25), pa.table({}), t.slice(25, 0), t.slice(25)]
    fused = shuffle.exchange([(rd.from_arrow(blocks), ["k"], explode)])[0]
    mapped = shuffle.exchange([(rd.from_arrow(
        [explode(b) for b in blocks if b.num_rows]), ["k"])])[0]

    def rows(part):
        return Counter(tuple(r.values()) for r in
                       shuffle.concat(ray.get(part)).to_pylist())

    assert len(fused) == len(mapped) == 3
    assert [rows(p) for p in fused] == [rows(p) for p in mapped]
    assert sum(sum(rows(p).values()) for p in fused) == 120
