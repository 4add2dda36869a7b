"""The engine read (``sources.io.read_parquet_clean``) against Ray Data's
``read_parquet`` of the same arguments: the same files, the same rows
and the same metadata-free schema, and the same ``files:`` input
fingerprint the stock read's ``input_files()`` gave.  The one listing
rule the engine does not share: it skips ``.``- and ``_``-prefixed names
under a directory with ``file_extensions`` too."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _table(n, start=0):
    return pa.table({
        "page_id": pa.array(np.arange(start, start + n), pa.int64()),
        "html": pa.array([f"<p>page {i}</p>" for i in range(start,
                                                           start + n)]),
        "lang": pa.array(["en"] * n),
        "vec": pa.array([[float(i)] * 3 for i in range(start, start + n)],
                        pa.list_(pa.float32()))})


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A directory of every listing case: a pandas-metadata file, a
    nested directory, an empty file, a file of no row groups, a file of
    several row groups, ``_``- and ``.``-prefixed files and
    directories, and a file of another extension."""
    root = tmp_path_factory.mktemp("engine_read") / "pages"
    (root / "nested" / "deeper").mkdir(parents=True)
    (root / "_hidden").mkdir()
    (root / ".dot").mkdir()
    pq.write_table(pa.Table.from_pandas(_table(5).to_pandas()),
                   root / "a-pandas.parquet")
    assert pq.read_schema(root / "a-pandas.parquet").metadata
    pq.write_table(_table(40, 100), root / "b-groups.parquet",
                   row_group_size=7)
    pq.write_table(_table(0), root / "c-empty.parquet")
    pq.ParquetWriter(root / "c-no-groups.parquet", _table(0).schema).close()
    assert pq.ParquetFile(root / "c-no-groups.parquet").num_row_groups == 0
    pq.write_table(_table(6, 200), root / "nested" / "d.parquet")
    pq.write_table(_table(4, 300), root / "nested" / "deeper" / "e.PARQUET")
    pq.write_table(_table(3, 400), root / "nested" / "f.pq")
    for i, name in enumerate(["_g.parquet", ".h.parquet",
                              "_hidden/i.parquet", ".dot/j.parquet",
                              "nested/_k.parquet"]):
        pq.write_table(_table(2, 500 + 10 * i), root / name)
    return root


def _hidden(path, root) -> bool:
    """Whether a file under the directory ``root`` has a ``.``- or
    ``_``-prefixed name on its way down."""
    rel = os.path.relpath(path, root)
    return any(c.startswith((".", "_")) for c in rel.split(os.sep))


def _files_digest(files) -> str:
    """The ``files:`` fingerprint ``lineage.input_fingerprint`` gave a
    stock read from its ``input_files()``."""
    h = hashlib.sha256()
    for path in sorted(files):
        st = os.stat(path)
        h.update(f"{path}\t{st.st_size}\t{st.st_mtime_ns}\n".encode())
    return "files:" + h.hexdigest()[:32]


def _rows(read) -> pa.Table:
    """The engine's rows: every part read by a plain task wave."""
    import ray

    from nxsearch_ray.stages.join import map_blocks

    tables = ray.get(map_blocks(read, lambda t: t, read.schema()).parts)
    for t in tables:
        assert t.schema == read.schema() and t.schema.metadata is None
    return pa.concat_tables(tables).sort_by("page_id")


CASES = [
    ("dir", {}),
    ("dir", {"columns": ["lang", "page_id"]}),
    ("dir", {"file_extensions": ["parquet"]}),
    ("dir", {"file_extensions": ["parquet", "pq"],
             "columns": ["page_id", "vec"]}),
    ("nested", {}),
    ("nested", {"file_extensions": ["pq"]}),
    ("b-groups.parquet", {"columns": ["page_id", "html"]}),
    ("a-pandas.parquet", {}),
    ("c-empty.parquet", {}),
    ("c-no-groups.parquet", {}),
    ("c-no-groups.parquet", {"columns": ["lang", "page_id"]}),
    (["a-pandas.parquet", "b-groups.parquet", "nested/d.parquet",
      "_g.parquet"], {}),
]


@pytest.mark.parametrize("where,kw", CASES)
def test_engine_read_matches_ray_data(ray_session, tree, where, kw):
    """The files, rows and schema of the engine read equal Ray Data's
    read of the same arguments; its own Dataset API is that read; its
    ``input_fingerprint`` is the stock read's ``files:`` digest; and a
    read of fewer files than session CPUs reads the same rows."""
    import ray
    import ray.data as rd

    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.stages import shuffle
    from nxsearch_ray.state.lineage import input_fingerprint

    paths = (str(tree) if where == "dir" else
             [str(tree / p) for p in where] if isinstance(where, list)
             else str(tree / where))
    stock = rd.read_parquet(paths, **kw)
    under_dir = isinstance(paths, str) and os.path.isdir(paths)
    files = [f for f in stock.input_files()
             if not (under_dir and _hidden(f, paths))]
    if files != stock.input_files():
        # Ray Data 2.49 keeps these names under a directory when given
        # file_extensions (it tests its exclude prefixes against a path
        # that starts with "/"); the engine skips them always
        stock = rd.read_parquet(files, columns=kw.get("columns"),
                                schema=stock.schema().base_schema)
    read = read_parquet_clean(paths, **kw)
    assert isinstance(read, shuffle.Read) and read._dataset is None

    assert sorted(read.input_files()) == sorted(stock.input_files())
    assert input_fingerprint(read) == _files_digest(stock.input_files())
    assert read.schema() == stock.schema().base_schema.remove_metadata()
    assert read.schema().metadata is None
    want = pa.concat_tables(
        [t.replace_schema_metadata() for t in ray.get(stock.to_arrow_refs())
         if t.num_rows] or [read.schema().empty_table()])
    assert read.count() == want.num_rows == stock.count()
    assert _rows(read).equals(want.sort_by("page_id"))
    expect_parts = len(read.input_files()) >= shuffle.session_cpus()
    assert all(shuffle.is_read_task(p) for p in shuffle.pending(read)) \
        == expect_parts
    assert read._dataset is None          # the engine built no Dataset
    assert read.materialize().count() == want.num_rows
    assert read._dataset is not None


def test_footer_bytes_are_the_selected_columns(tree):
    """Each part's bytes are its file's uncompressed column chunks of
    the selected columns, so pruning a column drops its bytes."""
    from nxsearch_ray.sources.io import read_parquet_clean

    path = str(tree / "b-groups.parquet")
    md = pq.ParquetFile(path).metadata

    def chunks(names):
        return sum(md.row_group(g).column(j).total_uncompressed_size
                   for g in range(md.num_row_groups)
                   for j in range(md.num_columns)
                   if md.row_group(g).column(j).path_in_schema
                   .split(".")[0] in names)

    full = read_parquet_clean(path)
    assert full.meta == [(40, chunks({"page_id", "html", "lang", "vec"}))]
    cut = read_parquet_clean(path, columns=["page_id", "vec"])
    assert cut.meta == [(40, chunks({"page_id", "vec"}))]
    assert 0 < cut.size_bytes() < full.size_bytes()


def test_listing_skips_hidden_names(tree):
    """Under a directory, ``.``- and ``_``-prefixed files and
    directories are skipped with or without ``file_extensions``; a file
    named in the paths is read whatever its name."""
    from nxsearch_ray.sources.io import read_parquet_clean

    for kw in ({}, {"file_extensions": ["parquet", "pq"]}):
        files = read_parquet_clean(str(tree), **kw).input_files()
        assert files and not any(_hidden(f, str(tree)) for f in files)
    named = [str(tree / "_g.parquet"), str(tree / ".dot" / "j.parquet")]
    assert read_parquet_clean(named).input_files() == named


def test_read_takes_no_other_keyword(tree):
    """The engine read has no second path: a keyword of Ray Data's read
    it does not take (a ``filter``, a block count) is a ``TypeError``."""
    import pyarrow.dataset as pds

    from nxsearch_ray.sources.io import read_parquet_clean

    for kw in ({"filter": pds.field("page_id") < 3},
               {"override_num_blocks": 4}):
        with pytest.raises(TypeError):
            read_parquet_clean(str(tree), **kw)


def test_listing_refuses_partition_directories(tmp_path):
    """A hive ``k=v`` directory holds a partition column that is not in
    its files, so the engine read refuses it rather than drop it."""
    from nxsearch_ray.sources.io import read_parquet_clean

    (tmp_path / "lang=en").mkdir()
    pq.write_table(_table(3), tmp_path / "lang=en" / "a.parquet")
    with pytest.raises(ValueError, match="partition"):
        read_parquet_clean(str(tmp_path))
    with pytest.raises(FileNotFoundError):
        read_parquet_clean(str(tmp_path), file_extensions=["csv"])
