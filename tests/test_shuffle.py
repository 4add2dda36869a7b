"""The keyed exchange's contract (stages/shuffle.exchange + concat):
every key value lands in exactly one partition, and the partitions'
rows are the input rows."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from nxsearch_ray.stages import shuffle
from nxsearch_ray.stages.shuffle import concat, exchange


def _dataset(tables):
    import ray
    import ray.data as rd

    return rd.from_arrow_refs([ray.put(t) for t in tables])


def _blocks(ds, keys):
    """Each partition's pieces concatenated, as its consumer does."""
    import ray

    return [concat(ray.get(part)) for part in exchange([(ds, keys)])[0]]


@pytest.fixture
def width(monkeypatch):
    """Force the exchange width P (``width(P)``)."""
    return lambda P: monkeypatch.setattr(shuffle, "partition_width",
                                         lambda n, b: P)


def _rows(tables):
    return Counter(tuple(r.values()) for t in tables if t.num_columns
                   for r in t.to_pylist())


def _check(tables, keys, P=None):
    blocks = _blocks(_dataset(tables), keys)
    if P:
        assert len(blocks) == P
    home: dict = {}
    for i, b in enumerate(blocks):
        if b.num_rows == 0:
            continue
        for k in zip(*(b.column(c).to_pylist() for c in keys)):
            assert home.setdefault(k, i) == i, f"key {k} in two blocks"
    assert _rows(blocks) == _rows(tables)
    return blocks


def _three_blocks(col: pa.Array) -> list[pa.Table]:
    """``col`` as the key of three blocks, each key value in every
    block, with a row id payload."""
    n = len(col)
    t = pa.table({"k": col, "row": pa.array(np.arange(n), pa.int64())})
    return [t.slice(0, n // 3), t.slice(n // 3, n // 3),
            t.slice(2 * (n // 3))]


KEYS = {
    "int64": pa.array(np.arange(300) % 37 - 18, pa.int64()),
    "uint64_high_bit": pa.array(
        (np.arange(300, dtype=np.uint64) % np.uint64(41))
        | np.uint64(1 << 63), pa.uint64()),
    "int8": pa.array(np.arange(300) % 23 - 11, pa.int8()),
    "string": pa.array([f"https://example.org/section/page/{i % 29}"
                        for i in range(300)]),
}


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_each_key_in_one_block(ray_session, width, kind):
    width(4)
    _check(_three_blocks(KEYS[kind]), ["k"], 4)


def test_two_column_key(ray_session, width):
    width(5)
    i = np.arange(400)
    t = pa.table({"a": pa.array(i % 7, pa.int64()),
                  "b": pa.array(i % 11, pa.int64()),
                  "row": pa.array(i, pa.int64())})
    blocks = _check([t.slice(0, 150), t.slice(150)], ["a", "b"], 5)
    # the pair is the key, not either column alone: some value of a
    # spans several blocks
    assert any(sum(v in b.column("a").to_pylist() for b in blocks) > 1
               for v in range(7))


def test_empty_and_zero_column_blocks(ray_session, width):
    """A union with an empty side yields zero-row and zero-column
    blocks; they pass through without losing or inventing rows."""
    width(3)
    t = _three_blocks(KEYS["int64"])
    _check([t[0], pa.table({}), t[1].slice(0, 0), t[2]], ["k"], 3)
    # nothing but empties: P empty partitions
    blocks = _blocks(_dataset([pa.table({}), t[0].slice(0, 0)]), ["k"])
    assert len(blocks) == 3 and sum(b.num_rows for b in blocks) == 0
    assert concat([]).num_rows == 0


def test_one_partition(ray_session, width):
    width(1)
    blocks = _check(_three_blocks(KEYS["string"]), ["k"], 1)
    assert blocks[0].num_rows == 300


def test_more_partitions_than_rows(ray_session, width):
    width(16)
    t = pa.table({"k": pa.array([5, 5, 9], pa.int64()),
                  "row": pa.array([0, 1, 2], pa.int64())})
    blocks = _check([t.slice(0, 2), t.slice(2)], ["k"], 16)
    assert sum(b.num_rows > 0 for b in blocks) <= 2


def test_default_width_from_block_metadata(ray_session):
    import ray

    from nxsearch_ray.stages.shuffle import partition_width

    blocks = _check(_three_blocks(KEYS["int64"]), ["k"])
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(blocks) == partition_width(300, 0) == min(cpus, 300)
    assert partition_width(0, 0) == 1
    assert partition_width(10, 10 << 30) == 80


# ---------------------------------------------------------------- grouped
# stages/shuffle.grouped: every run of equal keys reaches the kernel
# whole and exactly once, empty partitions never reach it, and every
# output block carries the kernel's schema.

RUNS = pa.schema([("s", pa.string()), ("i", pa.int64()),
                  ("n", pa.int64()), ("row_sum", pa.int64())])


def _grouped_blocks(tables):
    import ray

    from nxsearch_ray.stages.shuffle import grouped

    def runs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        """One row per run: its key, its length and the sum of its row
        ids (a run split in two would show as two rows of one key)."""
        assert t.num_rows > 0 and len(starts) and starts[0] == 0
        return pa.table(
            [t.column("s").take(starts), t.column("i").take(starts),
             np.diff(starts, append=t.num_rows),
             np.add.reduceat(t.column("row").to_numpy(), starts)],
            schema=RUNS)

    blocks = ray.get(grouped(_dataset(tables), ["s", "i"], runs, RUNS)
                     .to_arrow_refs())
    assert all(b.schema == RUNS for b in blocks)
    return blocks


def _expected_runs(tables):
    n, row_sum = Counter(), Counter()
    for t in tables:
        for r in t.to_pylist():
            n[r["s"], r["i"]] += 1
            row_sum[r["s"], r["i"]] += r["row"]
    return {k: (n[k], row_sum[k]) for k in n}


def _check_runs(tables):
    blocks = _grouped_blocks(tables)
    got = [r for b in blocks for r in b.to_pylist()]
    keys = [(r["s"], r["i"]) for r in got]
    assert len(keys) == len(set(keys)), "a run reached the kernel twice"
    assert {(r["s"], r["i"]): (r["n"], r["row_sum"]) for r in got} \
        == _expected_runs(tables)
    return blocks


def _string_int_blocks(n=600):
    """A (string, int64) key whose runs span all three input blocks;
    the string alone and the int alone each repeat across keys, and
    null strings form one run per int."""
    i = np.arange(n)
    t = pa.table({"s": pa.array([f"site-{k % 7}" if k % 7 else None
                                 for k in i]),
                  "i": pa.array(i % 5, pa.int64()),
                  "row": pa.array(i, pa.int64())})
    return [t.slice(0, n // 3), t.slice(n // 3, n // 3),
            t.slice(2 * (n // 3))]


def test_grouped_two_column_key_runs_whole(ray_session):
    tables = _string_int_blocks()
    blocks = _check_runs(tables)
    assert sum(b.num_rows for b in blocks) == 35


def test_grouped_empty_dataset(ray_session):
    def never(t, starts):
        raise AssertionError("kernel saw an empty partition")

    import ray

    from nxsearch_ray.stages.shuffle import grouped

    empty = _string_int_blocks()[0].slice(0, 0)
    blocks = ray.get(grouped(_dataset([empty]), ["s", "i"], never, RUNS)
                     .to_arrow_refs())
    assert blocks and all(b.schema == RUNS and b.num_rows == 0
                          for b in blocks)


def test_grouped_zero_column_blocks(ray_session):
    t = _string_int_blocks()
    _check_runs([t[0], pa.table({}), t[1].slice(0, 0), t[2]])
    # nothing but empties: every block is the empty schema
    blocks = _grouped_blocks([pa.table({}), t[0].slice(0, 0)])
    assert sum(b.num_rows for b in blocks) == 0


def test_grouped_more_partitions_than_rows(ray_session, width):
    width(16)
    t = pa.table({"s": pa.array(["x", "x", "y"]),
                  "i": pa.array([1, 1, 2], pa.int64()),
                  "row": pa.array([0, 1, 2], pa.int64())})
    blocks = _check_runs([t.slice(0, 2), t.slice(2)])
    assert len(blocks) == 16
    assert sum(b.num_rows > 0 for b in blocks) <= 2


def _gram_census(ds, order: int):
    """(w1..wn, n) census of the lower-cased whitespace n-grams of
    ``text`` on ``grouped``: the exchange's split explodes each block
    into one row per n-gram, and each run of equal n-grams counts its
    rows."""
    cols = [f"w{i}" for i in range(1, order + 1)]

    def explode(t: pa.Table) -> pa.Table:
        grams = [ws[i:i + order]
                 for ws in (s.lower().split()
                            for s in t.column("text").to_pylist())
                 for i in range(len(ws) - order + 1)]
        return pa.table({c: pa.array([g[j] for g in grams], pa.string())
                         for j, c in enumerate(cols)})

    def count(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ends = np.append(starts[1:], t.num_rows)
        return t.select(cols).take(starts).append_column(
            "n", pa.array(ends - starts, pa.int64()))

    schema = pa.schema([(c, pa.string()) for c in cols]
                       + [("n", pa.int64())])
    return shuffle.grouped(ds, cols, count, schema, split_map=explode)


def test_grouped_censuses_match_counter(ray_session):
    """The censuses on ``grouped`` equal a plain-Python Counter on a
    seeded table: a unigram and a trigram census (``_gram_census``)."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = [f"w{k}" for k in range(40)] + ["Nav", "nav", "x:y"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
             for _ in range(120)]
    t = pa.table({"page_id": pa.array(np.arange(120) * 4, pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(5)
    toks = [s.lower().split() for s in texts]

    def census(out, cols):
        return {tuple(r[c] for c in cols): r["n"]
                for r in out.take_all()}

    assert census(_gram_census(ds, 1), ["w1"]) \
        == Counter((w,) for ws in toks for w in ws)
    assert census(_gram_census(ds, 3), ["w1", "w2", "w3"]) \
        == Counter(tuple(ws[i:i + 3]) for ws in toks
                   for i in range(len(ws) - 2))


def test_no_sort_shuffle_call_sites():
    """Every grouped operator runs on ``grouped``: no engine module
    calls Ray Data's sort-shuffle ``groupby`` / ``map_groups`` or
    imports its aggregates; and every keyed exchange ends in the task
    that uses it: nothing names the merge-first ``hash_partitioned`` /
    ``co_partitioned`` exchanges."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    pat = re.compile(r"\.groupby\(|\.map_groups\(|import aggregate"
                     r"|hash_partitioned|co_partitioned")
    files = [*sorted((root / "nxsearch_ray").rglob("*.py")),
             root / "__ray_entry__.py"]
    hits = [f"{p.relative_to(root)}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if pat.search(line)]
    assert len(files) > 40 and not hits, hits


def _count_dataset_work(monkeypatch) -> dict:
    """Counters of Ray Data work from here on: executor runs
    (``StreamingExecutor.execute``), Datasets built
    (``Dataset.__init__``) and per-block metadata tasks submitted
    (``get_table_block_metadata_schema``, which ``from_arrow_refs``
    starts one of per block)."""
    import ray.data as rd
    import ray.data.read_api as read_api
    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)
    from ray.data._internal.util import get_table_block_metadata_schema

    n = {"executions": 0, "datasets": 0, "metadata_tasks": 0}

    def counting(key, fn):
        def wrapped(*args, **kw):
            n[key] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(StreamingExecutor, "execute",
                        counting("executions", StreamingExecutor.execute))
    monkeypatch.setattr(rd.Dataset, "__init__",
                        counting("datasets", rd.Dataset.__init__))
    cached = read_api.cached_remote_fn

    class Counted:
        def __init__(self, fn):
            self.fn = fn

        def remote(self, *args, **kw):
            n["metadata_tasks"] += 1
            return self.fn.remote(*args, **kw)

    def cached_remote_fn(fn, **kw):
        out = cached(fn, **kw)
        return Counted(out) if fn is get_table_block_metadata_schema \
            else out

    monkeypatch.setattr(read_api, "cached_remote_fn", cached_remote_fn)
    return n


def test_no_dataset_execution_after_the_read(ray_session, tmp_path,
                                             monkeypatch, sf_dir):
    """No step of ``run_dedup`` over an engine Parquet read runs on Ray
    Data's executor, builds a Ray Dataset or starts a block metadata
    task, on the auto plans and on the scale-path plans, the read
    itself included: ``read_parquet_clean`` lists the files from their
    footers, the signature wave's tasks read the files themselves
    (``shuffle.blocks`` lists their row groups as ``ReadPart`` parts),
    and every later step is a plain task wave over block refs that
    hands on a ``shuffle.Blocks`` handle, its metadata returned by the
    tasks that made the blocks.  With ``out_dir`` neither does a
    checkpoint write, a wave of plain tasks over the pinned blocks.  Nor does an
    incremental ingest into a prior run's ``out_dir`` (its prior
    signatures are read by plain tasks, not unioned on the executor)
    or a removal from it.  Nor does a read of fewer files than session
    CPUs (one file of one row group, one file of eight), nor a mapped
    read: ``pages_dataset``'s pages, derived in the wave's tasks, and
    the CLI's pages of files with no ``page_id`` (``run._load_pages``),
    whose ids those tasks add.  Nor does the CLI's WARC input, ingested
    by plain tasks, one per archive, and read back as Parquet."""
    import pyarrow.parquet as pq

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.pipelines.dedup import (run_dedup,
                                              run_dedup_incremental,
                                              run_dedup_remove)
    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.sources.synth import synth_pages

    corpus = synth_pages(200, seed=21)
    per = -(-corpus.num_rows // 4)
    pages = tmp_path / "pages"
    pages.mkdir()
    for i in range(4):
        pq.write_table(corpus.slice(i * per, per),
                       pages / f"part-{i}.parquet")
    columns = ["page_id", "url", "warc_ts", "html", "lang"]

    def read(path):
        return read_parquet_clean(str(path), columns=columns)

    n = _count_dataset_work(monkeypatch)
    nothing = {"executions": 0, "datasets": 0, "metadata_tasks": 0}
    for plans in ({}, {"verify_mode": "bucketed", "cc_mode": "labelprop"}):
        for out_dir in (None, str(tmp_path / f"out{len(plans)}")):
            n.update(nothing)
            res = run_dedup(read(pages), PipelineConfig(), out_dir=out_dir,
                            **plans)
            assert res.clusters.count() > 0
            assert n == nothing, (plans, out_dir)

    # the prior run: 3/4 of the pages, in as many files as CPUs
    prior = tmp_path / "prior"
    prior.mkdir()
    head = corpus.slice(0, 3 * per)
    for i in range(4):
        pq.write_table(head.slice(i * (3 * per // 4), 3 * per // 4),
                       prior / f"part-{i}.parquet")
    out_dir = str(tmp_path / "incremental")
    run_dedup(read(prior), PipelineConfig(), out_dir=out_dir)
    n.update(nothing)
    res = run_dedup_incremental(read(pages), PipelineConfig(),
                                out_dir=out_dir)
    assert res.stats["incremental_new_pages"] > 0
    assert n == nothing

    n.update(nothing)
    res = run_dedup_remove(corpus.column("page_id").to_pylist()[::9],
                           PipelineConfig(), out_dir=out_dir)
    assert res.stats["removed_found"] > 0
    assert n == nothing

    for groups in (1, 8):
        one = tmp_path / f"one{groups}"
        one.mkdir()
        pq.write_table(corpus, one / "pages.parquet",
                       row_group_size=-(-corpus.num_rows // groups))
        assert pq.ParquetFile(one / "pages.parquet").num_row_groups == groups
        n.update(nothing)
        res = run_dedup(read(one), PipelineConfig())
        assert res.clusters.count() > 0
        assert n == nothing, groups

    from nxsearch_ray.run import _load_pages
    from nxsearch_ray.sources.pages import pages_dataset, pages_table
    from nxsearch_ray.sources.warc import response_record, warc_gz_bytes

    no_ids = tmp_path / "no_ids"
    no_ids.mkdir()
    warc = tmp_path / "warc"
    warc.mkdir()
    for i in range(4):
        part = corpus.slice(i * per, per)
        pq.write_table(part.drop_columns(["page_id"]),
                       no_ids / f"part-{i}.parquet")
        (warc / f"seg-{i}.warc.gz").write_bytes(warc_gz_bytes([
            response_record(url, "2024-01-01T00:00:00Z", html)
            for url, html in zip(part.column("url").to_pylist(),
                                 part.column("html").to_pylist())]))
    for name, load in (("pages_dataset", lambda: pages_dataset(sf_dir)),
                       ("_load_pages", lambda: _load_pages(str(no_ids))),
                       ("warc", lambda: _load_pages(
                           str(warc), str(tmp_path / "warc_out")))):
        n.update(nothing)
        res = run_dedup(load(), PipelineConfig())
        assert res.clusters.count() > 0
        assert n == nothing, name
    # a mapped read's count is its mapped rows, not its footers'
    derived = pages_dataset(sf_dir)
    assert derived.count() == pages_table(sf_dir).num_rows \
        > sum(m.num_rows for m in derived.meta)


def test_no_dataset_execution_in_a_resume_or_run_corpus(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """The counters of ``test_no_dataset_execution_after_the_read``
    read 0 executions and 0 Datasets, the collection included, for: a
    ``run_dedup`` rerun that resumes every stage (``lineage.read_stage``
    reads each checkpoint with plain tasks), and ``run_corpus`` over a
    4-file engine read with embeddings (its semantic tier is task waves),
    with a blocklist (one ``broadcast_map``), and with embeddings into
    an ``out_dir``, resumed."""
    import pyarrow.parquet as pq

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)
    from nxsearch_ray.pipelines.dedup import clusters_as_table, run_dedup
    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.sources.synth import synth_pages

    corpus = synth_pages(150, seed=11)
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(corpus.num_rows, 8)).astype(np.float32)
    mat[1::5] = mat[::5][:len(mat[1::5])]
    emb = pa.table({"vec_id": corpus.column("page_id"), "embedding":
                    pa.array(list(mat), type=pa.list_(pa.float32()))})
    per = -(-corpus.num_rows // 4)
    for name, t in (("pages", corpus), ("emb", emb)):
        (tmp_path / name).mkdir()
        for i in range(4):
            pq.write_table(t.slice(i * per, per),
                           tmp_path / name / f"part-{i}.parquet")

    def pages(columns=("page_id", "url", "warc_ts", "html", "lang")):
        return read_parquet_clean(str(tmp_path / "pages"),
                                  columns=list(columns))

    def embeddings():
        return read_parquet_clean(str(tmp_path / "emb"))

    n = _count_dataset_work(monkeypatch)
    nothing = {"executions": 0, "datasets": 0, "metadata_tasks": 0}
    out_dir = str(tmp_path / "dedup")
    run_dedup(pages(), PipelineConfig(), out_dir=out_dir)
    ds = pages()
    n.update(nothing)
    res = run_dedup(ds, PipelineConfig(), out_dir=out_dir)
    assert all(r["resumed"] for r in res.stats["stages"])
    assert clusters_as_table(res).num_rows > 0
    assert n == nothing

    kw = dict(min_words=10, min_required_stopwords=0, semdedup_nlist=4)
    corpus_dir = str(tmp_path / "corpus")
    for case in ({"embeddings_ds": True},
                 {"blocklist": ("spam.example.net",)},
                 {"embeddings_ds": True, "out_dir": corpus_dir},
                 {"embeddings_ds": True, "out_dir": corpus_dir}):
        ds = pages(("page_id", "url", "text"))
        case = dict(case, embeddings_ds=case.get("embeddings_ds")
                    and embeddings())
        n.update(nothing)
        res = run_corpus(ds, **case, **kw)
        assert decisions_as_table(res).num_rows > 0
        assert n == nothing, case
    assert all(r["resumed"] for r in res.stats["stages"])
    assert 3 in decisions_as_table(res).column("drop_tier").to_pylist()


def test_blocks_answer_the_dataset_api(ray_session):
    """A wave's ``Blocks`` handle answers the Dataset calls the traced
    benchmark replay makes of a stage output (``materialize``,
    ``count``, ``size_bytes``, ``stats``, ``union``, ``select_columns``,
    ``map_batches``) through one Dataset it builds on first use; its
    own ``count`` and ``size_bytes`` read the tasks' metadata and agree
    with that Dataset's.  It pickles and copies (without the cached
    Dataset), and a dunder or a field looked up on a handle with no
    state raises ``AttributeError`` rather than recursing."""
    import copy
    import pickle

    import ray

    from nxsearch_ray.stages.join import map_blocks

    def _flip(t: pa.Table) -> pa.Table:   # a closure: shipped by value
        return t.set_column(0, "k", pc.negate(t.column("k")))

    t = pa.table({"k": pa.array(np.arange(30) - 9, pa.int64()),
                  "s": pa.array([f"x{i}" for i in range(30)])})
    h = map_blocks(_dataset([t.slice(0, 12), t.slice(12)]), _flip,
                   t.schema)
    # a handle's wave chains on its refs, one task per block: a zero-row
    # block (here zero-column too) becomes the declared schema's
    h = map_blocks(shuffle.union(h, shuffle.Blocks.of(pa.table({}))),
                   _flip, t.schema)
    assert isinstance(h, shuffle.Blocks) and len(h.parts) == 3
    assert ray.get(h.parts[2]).schema == t.schema
    assert h.count() == 30 and h._dataset is None
    with pytest.raises(AttributeError):
        h.__array_interface__
    assert h._dataset is None

    mat = h.materialize()
    assert mat.count() == h.count() == 30
    assert mat.size_bytes() == h.size_bytes() > 0
    assert isinstance(mat.stats(), str)
    assert h.select_columns(["k"]).schema().names == ["k"]
    assert h.union(h.select_columns(["k", "s"])).count() == 60
    flipped = h.map_batches(_flip, batch_format="pyarrow")
    assert sorted(r["k"] for r in flipped.take_all()) == sorted(
        -k for k in t.column("k").to_pylist())
    assert h.to_arrow_refs() == h.parts

    assert h._dataset is not None
    for twin in (pickle.loads(pickle.dumps(h)), copy.copy(h)):
        assert twin._dataset is None and twin.count() == 30
        assert pa.concat_tables(ray.get(twin.to_arrow_refs())).equals(
            pa.concat_tables(ray.get(h.to_arrow_refs())))

    bare = shuffle.Blocks.__new__(shuffle.Blocks)
    for name in ("parts", "meta", "_dataset", "count_rows", "__setstate__"):
        with pytest.raises(AttributeError):
            getattr(bare, name)
