"""An engine read's parts are its files' row groups
(``sources.io.read_parquet_clean``, stages/shuffle.blocks): every
consumer reads the row groups inside its own tasks and gives what it
gives over the pinned read — the signature wave (a row group cut only
when there are fewer than CPUs, at most ``batch_size`` rows per
kernel call), the exchange and group-by, the broadcast builds and the
anti-join — and no row-group part reaches ``from_arrow_refs``."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nxsearch_ray.stages import join, shuffle

N_FILES = 6      # at least one file per CPU of the test session


def _write(tmp_path, table, n_files=N_FILES, empty=()):
    """``table`` as ``n_files`` Parquet files, file i in ``empty`` with
    zero rows of the table's schema and the others holding its rows in
    order, in row groups of 4 rows (so a file is read as several
    blocks); returns their directory."""
    d = tmp_path / "parts"
    d.mkdir()
    full = [i for i in range(n_files) if i not in empty]
    per = -(-table.num_rows // max(len(full), 1))
    for i in range(n_files):
        part = (table.slice(full.index(i) * per, per) if i in full
                else table.slice(0, 0))
        pq.write_table(part, d / f"part-{i}.parquet", row_group_size=4)
    return str(d)


def _sorted(ds) -> pa.Table:
    import ray

    t = pa.concat_tables(ray.get(ds.to_arrow_refs()),
                         promote_options="default")
    return t.sort_by("page_id") if t.num_rows else t


def _rows(tables) -> Counter:
    return Counter(tuple(r.values()) for t in tables if t.num_columns
                   for r in t.to_pylist())


@pytest.fixture(scope="module")
def pages():
    from nxsearch_ray.sources.synth import synth_pages

    return synth_pages(60, seed=5)


def _read(path, columns=("page_id", "html", "lang")):
    from nxsearch_ray.sources.io import read_parquet_clean

    return read_parquet_clean(path, columns=columns and list(columns))


def _assert_read_tasks(ds):
    parts = shuffle.blocks(ds)
    assert parts and all(isinstance(p, shuffle.ReadPart)
                         for p, _ in parts)


def _groups(rows, batch_size, cpus):
    """The wave plan of row-group parts of ``rows``."""
    return join._wave_plan(rows, batch_size, cpus, [True] * len(rows))


def test_wave_plan_never_cuts_a_read_task():
    """While a read has at least as many row groups as the wave has
    tasks, no row group is cut: each goes whole to the span its middle
    row falls in.  perfbench's inputs (8 files of one row group) keep
    their layout: 6 tasks on ``webmix``'s 644-row groups, 2 on
    ``templated``'s 149-row ones; block refs of the same rows are cut
    into equal spans."""
    def whole(*tasks, n):
        return [[(i, 0, n) for i in task] for task in tasks]

    assert _groups([149] * 8, 1024, 2) == whole(range(4), range(4, 8),
                                                n=149)
    assert _groups([644] * 8, 1024, 2) == whole(
        [0], [1, 2], [3], [4], [5, 6], [7], n=644)
    assert [sum(k for _, _, k in task) for task in
            join._wave_plan([644] * 8, 1024, 2)] == [858, 859, 859] * 2
    assert _groups([10] * 8, 25, 2) == whole([0, 1], [2, 3], [4, 5],
                                             [6, 7], n=10)
    assert len(_groups([10] * 8, 1024, 4)) == 4
    # a span left with no rows is dropped; a row group over batch_size
    # is one task, an empty one none
    assert _groups([1, 1, 1, 97], 1024, 4) == [
        [(0, 0, 1), (1, 0, 1), (2, 0, 1)], [(3, 0, 97)]]
    assert _groups([0, 3000, 0, 5, 7], 1024, 2) == [
        [(1, 0, 3000)], [(3, 0, 5), (4, 0, 7)]]
    # row groups of several batches each, at least one per CPU: each
    # is one task, however many batches it holds
    assert _groups([5000] * 8, 1024, 2) == whole(*[[i] for i in range(8)],
                                                 n=5000)
    assert _groups([3, 2], None, 8) == [[(0, 0, 3)], [(1, 0, 2)]]
    assert _groups([0, 0], 16, 2) == []


def test_read_fed_signatures_equal_pinned(ray_session, tmp_path, pages):
    """``canonsig_stage`` over a ``read_parquet_clean`` read with pruned
    columns equals it over the pinned read."""
    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.stages.signatures import canonsig_stage

    cols = ["page_id", "url", "warc_ts", "html", "lang"]
    read = read_parquet_clean(_write(tmp_path, pages), columns=cols)
    _assert_read_tasks(read)
    cfg = PipelineConfig()
    got = _sorted(canonsig_stage(read, cfg))
    assert got.num_rows == pages.num_rows
    assert got.equals(_sorted(canonsig_stage(read.materialize(), cfg)))


def test_read_task_over_batch_size(ray_session, tmp_path, pages):
    """Row groups of more rows than ``batch_size``: every kernel call
    stays within it (a recording kernel counts each call's rows), and
    the signatures equal the pinned read's."""
    import ray

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.signatures import canonsig_stage

    read = _read(_write(tmp_path, pages))
    parts = shuffle.blocks(read)
    assert len(parts) > N_FILES            # several row groups per file
    cfg = PipelineConfig(batch_size=3)
    assert max(m.num_rows for _, m in parts) > cfg.batch_size

    def record(_):
        return lambda t: pa.table({"n": [t.num_rows]})

    calls = _sorted_calls(join.broadcast_map(
        read, ray.put(0), record, batch_size=cfg.batch_size))
    assert max(calls) <= cfg.batch_size
    assert sum(calls) == pages.num_rows
    assert _sorted(canonsig_stage(read, cfg)).equals(
        _sorted(canonsig_stage(read.materialize(), cfg)))


def _sorted_calls(ds) -> list[int]:
    import ray

    return [n for t in ray.get(ds.to_arrow_refs())
            for n in t.column("n").to_pylist()]


def test_read_with_a_zero_row_file(ray_session, tmp_path, pages):
    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.signatures import canonsig_stage

    read = _read(_write(tmp_path, pages, N_FILES + 1, empty={2}))
    _assert_read_tasks(read)
    assert 0 in [m.num_rows for _, m in shuffle.blocks(read)]
    cfg = PipelineConfig()
    got = _sorted(canonsig_stage(read, cfg))
    assert got.num_rows == pages.num_rows
    assert got.equals(_sorted(canonsig_stage(read.materialize(), cfg)))


def test_all_empty_read(ray_session, tmp_path, pages):
    """Zero-row files only: one empty block of the schema the stage
    gives over pages, as over the pinned read."""
    import ray

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.signatures import canonsig_stage

    read = _read(_write(tmp_path, pages, empty=set(range(N_FILES))))
    _assert_read_tasks(read)
    cfg = PipelineConfig()
    (tmp_path / "full").mkdir()
    full = {t.schema for t in ray.get(canonsig_stage(
        _read(_write(tmp_path / "full", pages)), cfg).to_arrow_refs())}
    assert len(full) == 1
    for ds in (read, read.materialize()):
        tables = ray.get(canonsig_stage(ds, cfg).to_arrow_refs())
        assert len(tables) == 1 and tables[0].num_rows == 0
        assert {tables[0].schema} == full


def test_wave_task_reads_block_by_block(tmp_path, monkeypatch):
    """A wave task over several row groups maps contiguous batches of
    ``batch_size`` rows, each handed on as soon as its rows are read:
    no more than a batch and one row group are held at once.  A cut
    row group's task reads it and keeps its range."""
    from nxsearch_ray.sources.io import read_parquet_clean

    t = pa.table({"k": pa.array(np.arange(60), pa.int64())})
    pq.write_table(t, tmp_path / "t.parquet", row_group_size=10)
    pulled = []
    read_row_group = pq.ParquetFile.read_row_group

    def recording(self, i, *args, **kwargs):
        pulled.append(i)
        return read_row_group(self, i, *args, **kwargs)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", recording)
    groups = shuffle.pending(read_parquet_clean(str(tmp_path)))
    assert len(groups) == 6
    assert all(isinstance(g, shuffle.ReadPart) for g in groups)
    seen = [(b.num_rows, len(pulled), b.column("k").num_chunks,
             b.column("k").to_pylist())
            for b in join._batches(groups, [(0, 10)] * 6, 25)]
    assert [s[:3] for s in seen] == [(25, 3, 1), (25, 5, 1), (10, 6, 1)]
    assert [v for s in seen for v in s[3]] == list(range(60))
    (cut,) = join._batches(groups[2:3], [(3, 4)], None)
    assert cut.column("k").to_pylist() == [23, 24, 25, 26]
    task = shuffle.ReadPart(str(tmp_path / "t.parquet"))     # whole file
    # block-ref ranges, and no batch_size: one batch
    assert [b.num_rows for b in join._batches(
        [t, task], [(5, 20), (0, None)], None)] == [80]
    assert [b.num_rows for b in join._batches([t], [(0, 25)], 25)] == [25]


def test_fewer_read_tasks_than_cpus(ray_session, tmp_path, pages):
    """One file of one row group in a 4-CPU session: the part is still
    the row group (nothing is read before the wave), and the wave cuts
    it into one task per CPU, each reading it and keeping its range;
    the signatures equal the pinned read's.  With fewer row groups
    than tasks the plan cuts them as it cuts block refs."""
    import ray

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.signatures import canonsig_stage

    assert _groups([100], 1024, 2) == [[(0, 0, 50)], [(0, 50, 50)]]
    assert _groups([3000, 5], 1024, 4) == [
        [(0, 0, 751)], [(0, 751, 751)], [(0, 1502, 751)],
        [(0, 2253, 747), (1, 0, 5)]]
    (tmp_path / "one").mkdir()
    pq.write_table(pages, tmp_path / "one" / "pages.parquet")
    read = _read(str(tmp_path / "one"))
    parts = shuffle.blocks(read)
    assert len(parts) == 1 and isinstance(parts[0][0], shuffle.ReadPart)

    def record(_):
        return lambda t: pa.table({"n": [t.num_rows]})

    calls = _sorted_calls(join.broadcast_map(read, ray.put(0), record,
                                             batch_size=1024))
    assert len(calls) == shuffle.session_cpus()
    assert sum(calls) == pages.num_rows
    cfg = PipelineConfig()
    assert _sorted(canonsig_stage(read, cfg)).equals(
        _sorted(canonsig_stage(read.materialize(), cfg)))


def test_row_groups_over_batch_size_are_read_once(ray_session, tmp_path):
    """Row groups of several batches each: while the read has a row
    group per CPU each is read by one task, and below that by at most
    ⌈CPUs / row groups⌉ + 1 (one file of one row group: once per CPU)
    — never once per ``batch_size`` rows.  A map that tags the rows of
    each read with a token of its own counts every row group's reads;
    no kernel call sees more than ``batch_size`` rows."""
    import os

    import ray

    cpus, n, per = shuffle.session_cpus(), 40, 8

    def tag(t):         # one token per read of a row group
        return t.append_column("read", pa.array(
            [os.urandom(8).hex()] * t.num_rows, pa.string()))

    def record(_):
        return lambda t: t.append_column(
            "n", pa.array([t.num_rows] * t.num_rows, pa.int64()))

    for n_files in (cpus + 2, cpus, cpus - 1, 1):
        d = tmp_path / f"files-{n_files}"
        d.mkdir()
        for i in range(n_files):
            pq.write_table(pa.table({"k": pa.array(
                np.arange(i * n, (i + 1) * n), pa.int64())}),
                d / f"part-{i}.parquet")
        read = _read(str(d), None).map_batches(tag,
                                               batch_format="pyarrow")
        assert [m.num_rows for _, m in shuffle.blocks(read)] == [n] * n_files
        out = pa.concat_tables(ray.get(join.broadcast_map(
            read, ray.put(0), record, batch_size=per).to_arrow_refs()))
        assert sorted(out.column("k").to_pylist()) == list(
            range(n_files * n))
        assert max(out.column("n").to_pylist()) <= per
        reads = Counter(g for g, _ in {
            (k // n, r) for k, r in zip(out.column("k").to_pylist(),
                                        out.column("read").to_pylist())})
        assert sorted(reads) == list(range(n_files))
        if n_files >= cpus:
            assert set(reads.values()) == {1}, reads
        elif n_files == 1:
            assert reads == {0: cpus}
        else:
            assert max(reads.values()) <= -(-cpus // n_files) + 1, reads


def test_read_without_row_counts(ray_session, tmp_path, pages):
    """Ray Data's read with a ``filter`` declares no row counts: it is
    any other Dataset, so ``blocks`` runs it; the signatures equal the
    pinned read's."""
    import pyarrow.dataset as pds
    import ray.data as rd

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.signatures import canonsig_stage

    ids = pages.column("page_id").to_pylist()
    cut = sorted(ids)[len(ids) // 2]
    read = rd.read_parquet(_write(tmp_path, pages),
                           columns=["page_id", "html", "lang"],
                           filter=pds.field("page_id") < cut)
    parts = shuffle.blocks(read)
    assert not any(isinstance(p, shuffle.ReadPart) for p, _ in parts)
    cfg = PipelineConfig()
    got = _sorted(canonsig_stage(read, cfg))
    assert got.num_rows == sum(p < cut for p in ids) > 0
    assert got.equals(_sorted(canonsig_stage(read.materialize(), cfg)))


def test_other_consumers_over_a_bare_read(ray_session, tmp_path):
    """The exchange, the group-by, the broadcast builds and the
    anti-join give the same rows over a bare read as over the pinned
    read."""
    import ray

    n = 300
    t = pa.table({"k": pa.array(np.arange(n) % 37, pa.int64()),
                  "v": pa.array([f"v{i}" for i in range(n)])})
    read = _read(_write(tmp_path, t), None)
    _assert_read_tasks(read)
    pinned = read.materialize()
    want = _rows([t])

    def exchanged(ds):
        parts = shuffle.exchange([(ds, ["k"])])[0]
        return [shuffle.concat(ray.get(p)) for p in parts]

    for ds in (read, pinned):
        assert _rows(exchanged(ds)) == want

    schema = pa.schema([("k", pa.int64()), ("n", pa.int64())])

    def count(t, starts):
        ends = np.append(starts[1:], t.num_rows)
        return pa.table({"k": t.column("k").take(pa.array(starts)),
                         "n": pa.array(ends - starts, pa.int64())},
                        schema=schema)

    counts = Counter(t.column("k").to_pylist())
    for ds in (read, pinned):
        got = ray.get(shuffle.grouped(ds, ["k"], count,
                                      schema).to_arrow_refs())
        assert _rows(got) == Counter(counts.items())

    def identity(t):
        return t

    for ds in (read, pinned):
        built = ray.get(join.index_ref(ds, t.schema, identity))
        assert _rows([built]) == want
        ids = ray.get(join.index_ref(ds, pa.schema([t.schema.field("k")]),
                                     join.unique_ids))
        assert ids.tolist() == list(range(37))
        kept = ray.get(join.anti_join(ds, "k", [0, 5, 36]).to_arrow_refs())
        assert _rows(kept) == _rows([t.filter(pa.array(
            ~np.isin(np.arange(n) % 37, [0, 5, 36])))])


def test_no_read_task_reaches_from_arrow_refs(ray_session, tmp_path):
    """A row-group part is no object ref: ``shuffle.refs`` refuses a read,
    and no call in the engine that builds a handle of block refs
    (``from_arrow_refs``, ``Blocks.submit``, ``Blocks``) takes
    ``blocks`` parts (the dedup union and the CC tree-reduce list
    through ``refs``)."""
    t = pa.table({"page_id": pa.array(np.arange(60), pa.int64())})
    read = _read(_write(tmp_path, t), None)
    _assert_read_tasks(read)
    with pytest.raises(TypeError):
        shuffle.refs(read)
    assert len(shuffle.refs(read.materialize())) >= 1

    root = Path(__file__).resolve().parents[1] / "nxsearch_ray"
    hits, sites = [], 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call)
                    and (getattr(node.func, "attr", None)
                         in ("from_arrow_refs", "submit")
                         or getattr(node.func, "id", None) == "Blocks")):
                sites += 1
                hits += [f"{path.name}:{node.lineno}"
                         for sub in ast.walk(node)
                         if isinstance(sub, ast.Call)
                         and getattr(sub.func, "id", None) == "blocks"]
    assert sites >= 5 and not hits, hits
    for name in ("pipelines/dedup.py", "stages/cc.py"):
        src = (root / name).read_text()
        assert "refs(" in src and not re.search(r"(?<![\w.])blocks\(",
                                                src), name
