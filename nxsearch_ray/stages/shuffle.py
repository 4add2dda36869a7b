"""Key-disjoint hash exchange — the engine's three task-wave primitives.

``exchange`` sends every row to the partition its key hashes to, so
EVERY row of a given key lands in exactly one partition: a scan over
one partition sees every key run in full — one exchange, no fallback
pass, no second shuffle for stragglers.  It is one wave of plain Ray
tasks over the input's block refs: one ``_split`` per block hashes the
key columns and returns its P pieces (``num_returns=P``).  The caller
hands partition i's pieces to the ONE task that uses them, which
``concat``-s them itself, so no task and no object-store copy exists
only to merge a partition.  A task costs milliseconds to schedule,
where an exchange on Ray Data's hash-shuffle operator started a pool of
aggregator actors — seconds of fixed cost per exchange at benchmark
scale.  The exchange runs when called (it needs the input's parts and
their metadata, ``blocks``), so its cost lands at the call site.  A
part is a block ref, or, for a bare Parquet read (``Read``), one of its
row groups, which the split task reads itself (``as_arrow``): no read
runs on Ray Data's executor.  A per-block map (an explode, an edge map,
a projection) rides in the split rather than a wave of its own.  Its
users:
the partition-wise (Grace) hash join (stages/join.hash_join, two sides
at one width, so partition i of each side holds the same keys) and
label propagation's partitioned edge state (stages/cc.py).
stages/join.endpoint_map calls ``_split`` itself, at the right
side's width alone.

``grouped`` is the engine's group-by: the same exchange, then one
task per partition sorts its pieces by the keys, finds where each run
of equal keys starts and hands the sorted partition and the run
starts to a kernel.  Every run reaches the kernel whole, so a count,
min or sum per group is one ``np.<ufunc>.reduceat(col, starts)`` and
a per-group rule loops over the runs.  It replaces Ray Data's
sort-shuffle ``groupby`` (which sorted through a sample-partition-
merge all-to-all and cost seconds per call at benchmark scale).

``tree_fold`` is the third primitive: an associative merge of many
refs as a tree of tasks with at most eight inputs each; CC's star
edges (stages/cc.py) are its one user.

A wave hands on a ``Blocks`` handle, not a Ray Dataset: its block refs
and, per block, a ref to the ``(rows, bytes)`` the task that made the
block returned beside it (``num_returns=2``, ``with_meta``).  The next
wave chains on the pending refs; the driver waits on the metadata only
where it needs a count (an exchange's width, a batch cut, a stage
record).  The engine's input is a ``Read``
(``sources.io.read_parquet_clean``): one ``ReadPart`` per row group of
its Parquet files, listed with its row count and bytes from the file's
footer on the driver, which the consuming task reads, slices and maps
through the read's row-local maps itself.  Building a Dataset starts
Ray Data's stats actor (a process of its own), costs a synchronous
round trip to it and, for a read, fragment sampling tasks, so a handle
builds one only for a caller that uses the Dataset API.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

# a partition's byte target (Ray Data's default target block size):
# past one partition per CPU, the width grows with the data's bytes
PARTITION_BYTES = 128 << 20


def session_cpus() -> int:
    """The Ray session's CPU count (8 when it cannot be read): the
    width a task wave needs to keep every CPU busy."""
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def partition_width(n_rows: int, n_bytes: int) -> int:
    """Exchange width sized by the data: one partition per cluster CPU
    (the per-block scans downstream keep every CPU busy) but never more
    partitions than rows, and more partitions once one would pass
    ``PARTITION_BYTES``."""
    return max(1, min(session_cpus(), n_rows),
               -(-n_bytes // PARTITION_BYTES))


# a block's row count and bytes, as Ray Data's block metadata reports
# them (``with_meta``)
Meta = namedtuple("Meta", ["num_rows", "size_bytes"])


def with_meta(t: pa.Table) -> tuple:
    """A block-making task's two returns: the block and its
    ``(rows, bytes)``.  The bytes are the stored block's ``nbytes``, the
    figure Ray Data's metadata reads after the object store round trip:
    Ray's Arrow serializer drops all-valid validity bitmaps and trims
    each buffer to its slice, so the table is measured as that
    serializer rebuilds it (zero-copy but for re-based offsets)."""
    from ray._private.arrow_serialization import _arrow_table_reduce

    rebuild, args = _arrow_table_reduce(t)
    return t, (t.num_rows, rebuild(*args).nbytes)


class _DatasetAPI:
    """Any attribute a handle lacks is the Dataset API, answered by the
    Dataset ``_build`` makes, built on first use and cached (a copy or
    a pickle leaves it behind)."""

    def __getstate__(self):
        return {**self.__dict__, "_dataset": None}

    def __getattr__(self, name):
        # reached only for names the handle lacks: a dunder (copy and
        # pickle probe for them) or a field read before the instance
        # has its state must fail here, not recurse
        if name.startswith("__") or name in ("parts", "meta", "_dataset"):
            raise AttributeError(name)
        if self._dataset is None:
            self._dataset = self._build()
        return getattr(self._dataset, name)


class Blocks(_DatasetAPI):
    """A wave's output: ``parts`` (block refs, in order) and ``meta``
    (per block, a ref to its ``(rows, bytes)``).  ``count`` and
    ``size_bytes`` read the metadata, ``to_arrow_refs`` the refs; any
    other attribute is the Dataset API, answered by a Dataset of the
    blocks that have rows."""

    def __init__(self, parts, meta):
        self.parts, self.meta, self._dataset = list(parts), list(meta), None

    @classmethod
    def submit(cls, outputs) -> "Blocks":
        """The handle of ``(block ref, meta ref)`` task returns."""
        outputs = list(outputs)
        return cls([o[0] for o in outputs], [o[1] for o in outputs])

    @classmethod
    def of(cls, table: pa.Table) -> "Blocks":
        """One block put from the driver (an empty wave's declared
        output)."""
        block, meta = with_meta(table)
        return cls([ray.put(block)], [ray.put(meta)])

    def count(self) -> int:
        return sum(m.num_rows for _, m in blocks(self))

    def size_bytes(self) -> int:
        return sum(m.size_bytes for _, m in blocks(self))

    def to_arrow_refs(self) -> list:
        return list(self.parts)

    def _build(self):
        import ray.data as rd

        # without the zero-row blocks a chained wave keeps (Ray Data's
        # own maps pass them on unmapped, and warn of their schema),
        # but one, for the schema, when all are empty
        full = [p for p, m in blocks(self) if m.num_rows]
        return rd.from_arrow_refs(full or self.parts[:1])


class ReadPart(namedtuple("ReadPart", ["path", "row_group", "schema",
                                       "maps"], defaults=(None, None, ()))):
    """One row group of a Parquet file (None: the whole file, as a
    checkpoint's part is read), read where it is consumed: as
    ``schema``'s columns (metadata-free) when given, sliced to the rows
    asked for, then mapped through ``maps`` in order."""

    def __call__(self, start: int = 0, length: int | None = None):
        cols = None if self.schema is None else self.schema.names
        with pq.ParquetFile(self.path) as f:
            t = (f.read(columns=cols) if self.row_group is None
                 else f.read_row_group(self.row_group, columns=cols))
        t = t.slice(start, length)
        if self.schema is not None:
            t = t.replace_schema_metadata()
            t = t if t.schema == self.schema else t.cast(self.schema)
        for fn in self.maps:
            t = fn(t)
        return t


@ray.remote(num_returns=2)
def read_part(part: ReadPart):
    """A resumed checkpoint's part file into the object store, then its
    ``(rows, bytes)`` (``with_meta``)."""
    return with_meta(part())


class Read(_DatasetAPI):
    """A bare Parquet read (``sources.io.read_parquet_clean``): per row
    group of its files a ``ReadPart`` and its footer's ``Meta`` (rows,
    and the uncompressed bytes of the ``read_schema`` columns its tasks
    read).
    ``map_batches(fn, batch_format="pyarrow")`` is a read whose tasks
    map the rows they slice through the row-local ``fn``;
    ``select_columns`` prunes what they read.  Any attribute it lacks
    is the Dataset API, answered by Ray Data's read of the files,
    mapped alike."""

    def __init__(self, files, footers, schema: pa.Schema, maps=()):
        self.files, self.footers, self.read_schema = files, footers, schema
        self.maps, self._dataset = tuple(maps), None
        self.parts, self.meta = [], []
        for path, md in zip(files, footers):
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                self.parts.append(ReadPart(path, g, schema, self.maps))
                self.meta.append(Meta(rg.num_rows, sum(
                    rg.column(j).total_uncompressed_size
                    for j in range(rg.num_columns)
                    if rg.column(j).path_in_schema.split(".")[0]
                    in schema.names)))

    def count(self) -> int:
        if not self.maps:
            return sum(m.num_rows for m in self.meta)
        from nxsearch_ray.stages.join import map_blocks

        # a mapped read's rows, counted as blocks of no columns
        return map_blocks(self, functools.partial(project, []),
                          pa.schema([])).count()

    def size_bytes(self) -> int:
        return sum(m.size_bytes for m in self.meta)

    def schema(self) -> pa.Schema:
        t = self.read_schema.empty_table()
        for fn in self.maps:
            t = fn(t)
        return t.schema

    def input_files(self) -> list:
        return list(self.files)

    def map_batches(self, fn, **kw):
        if kw != {"batch_format": "pyarrow"}:
            return _DatasetAPI.__getattr__(self, "map_batches")(fn, **kw)
        return Read(self.files, self.footers, self.read_schema,
                    (*self.maps, fn))

    def select_columns(self, cols):
        if self.maps:
            return self.map_batches(functools.partial(project, list(cols)),
                                    batch_format="pyarrow")
        return Read(self.files, self.footers,
                    pa.schema([self.read_schema.field(c) for c in cols]))

    def _build(self):
        import ray.data as rd

        ds = rd.read_parquet(self.files, schema=self.read_schema,
                             columns=self.read_schema.names)
        for fn in self.maps:
            ds = ds.map_batches(fn, batch_format="pyarrow")
        return ds


def union(*handles) -> Blocks:
    """The handles' blocks, in order, as one handle."""
    return Blocks([p for h in handles for p in h.parts],
                  [m for h in handles for m in h.meta])


def adopt_hash_context(ds):
    """Identity: the task exchange needs no scoped Dataset context."""
    return ds


def key_hash(t, keys) -> np.ndarray:
    """uint64 hash per row of ``t``'s ``keys`` columns: integer keys
    (any width or sign) through splitmix64, string (or binary) keys by
    their full content (``content_hash128``; a prefix hash would pile
    URLs of one host into one partition), several columns folded in
    order.  Equal key tuples hash equal."""
    import pyarrow as pa

    from nxsearch_ray.functions.hashing import (
        content_hash128,
        splitmix64,
        string_buffers,
    )

    h = None
    for k in keys:
        col = t.column(k)
        if (pa.types.is_string(col.type) or pa.types.is_binary(col.type)
                or pa.types.is_large_string(col.type)):
            hc = content_hash128(*string_buffers(col))[0].view(np.uint64)
        else:
            hc = splitmix64(col.to_numpy().astype(np.uint64))
        h = hc if h is None else splitmix64(h) ^ hc
    return h


def as_arrow(block, start: int = 0, length: int | None = None
             ) -> pa.Table:
    """A ``blocks`` part as an Arrow table, in the task that holds it,
    or its rows ``start`` to ``start + length``: a Ray Data block
    (Arrow, or pandas converted), sliced, or a ``ReadPart`` read here,
    sliced before its maps (its footer counted the rows that planned
    the range)."""
    if isinstance(block, ReadPart):
        return block(start, length)
    if not isinstance(block, pa.Table):
        from ray.data.block import BlockAccessor

        block = BlockAccessor.for_block(block).to_arrow()
    return block.slice(start, length)


def project(names: list[str], t: pa.Table) -> pa.Table:
    return t.select(names)


@ray.remote
def _split(block, keys, P, split_map=None):
    """One input part (``as_arrow``; through ``split_map``, when given)
    → its P pieces, piece i holding the rows whose key hash is i mod P.
    An empty block (a union with an empty side yields zero-column ones) is
    every piece."""
    block = as_arrow(block)
    if split_map is not None and block.num_rows:
        block = split_map(block)
    if block.num_rows == 0:
        return (block,) * P if P > 1 else block
    part = (key_hash(block, keys) % np.uint64(P)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    block = block.take(order)
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    pieces = tuple(block.slice(bounds[i], bounds[i + 1] - bounds[i])
                   for i in range(P))
    return pieces if P > 1 else pieces[0]


def blocks(ds) -> list:
    """``(part, metadata)`` of every block of ``ds``, in order, without
    starting Ray Data's executor where it can: a ``Blocks`` handle
    lists its refs with one ``ray.get`` of their ``(rows, bytes)``
    (waiting for the tasks that make them), a pinned Dataset its block
    refs; a ``Read`` lists its row groups, a ``ReadPart`` each, with
    their footers' ``Meta`` (the rows before its maps), so the tasks
    that consume it read the row groups themselves and nothing of the
    read enters the object store.  Any other Dataset (a lazy map, Ray
    Data's own read) runs here, once per call.

    Only task arguments may hold a part: every consuming task resolves
    it with ``as_arrow``.  A ``ReadPart`` is no object ref; ``refs``
    lists the refs of an input that holds its blocks."""
    if isinstance(ds, Read):
        return list(zip(ds.parts, ds.meta))
    if isinstance(ds, Blocks):
        return [(p, Meta(*m)) for p, m in zip(ds.parts, ray.get(ds.meta))]
    from ray.data._internal.logical.interfaces import SourceOperator

    dag = ds._logical_plan.dag
    bundles = dag.output_data() if isinstance(dag, SourceOperator) else None
    if bundles is None:
        bundles = ds.iter_internal_ref_bundles()
    return [b for bundle in bundles for b in bundle.blocks]


def pending(ds) -> list:
    """The parts of ``ds`` as task arguments, for a task that needs no
    count: a handle's refs without waiting for its tasks, a ``Read``'s
    row groups, else ``blocks``' parts."""
    if isinstance(ds, (Blocks, Read)):
        return list(ds.parts)
    return [part for part, _ in blocks(ds)]


def refs(ds) -> list:
    """The block refs of ``ds`` (``pending``); a ``TypeError`` when its
    parts are ``ReadPart`` row groups."""
    parts = pending(ds)
    if any(isinstance(p, ReadPart) for p in parts):
        raise TypeError("refs: a read's parts are row groups, which "
                        "only task arguments may hold")
    return parts


def concat(pieces) -> pa.Table:
    """One partition's pieces → its block.  Empty pieces are dropped
    unless nothing else is left (their schema may be zero-column); no
    pieces at all is the zero-column table."""
    full = [p for p in pieces if p.num_rows]
    if not full:
        return max(pieces, key=lambda p: p.num_columns,
                   default=pa.table({}))
    return pa.concat_tables(full, promote_options="default")


@ray.remote(num_returns=2)
def _group(keys, then_by, fn, schema, *pieces):
    """One partition's pieces → ``fn(sorted partition, run starts)``;
    an empty partition → ``schema.empty_table()`` (``with_meta``)."""
    t = concat(pieces)
    n = t.num_rows
    if n == 0:
        return with_meta(schema.empty_table())
    t = t.take(pc.sort_indices(t, sort_keys=[
        (k, "ascending") for k in [*keys, *then_by]]))
    brk = np.zeros(n, dtype=bool)
    brk[0] = True
    for k in keys:
        a, b = t.column(k).slice(1), t.column(k).slice(0, n - 1)
        ne = pc.fill_null(pc.not_equal(a, b), True)
        if a.null_count:                 # null == null: one run
            ne = pc.and_not(ne, pc.and_(pc.is_null(a), pc.is_null(b)))
        brk[1:] |= ne.to_numpy()
    return with_meta(fn(t, np.flatnonzero(brk)))


def exchange(sides):
    """Split every block of every ``(ds, keys)`` side into P pieces;
    returns, per side, P lists of piece refs, list i holding the rows
    with ``key_hash(keys) % P == i`` — so rows of equal keys meet in
    partition i of every side.  P is ``partition_width`` of all sides'
    block metadata taken together.  The task that consumes partition i
    takes its pieces as arguments and ``concat``-s them.

    A side may be ``(ds, keys, split_map)``: ``_split`` then runs each
    non-empty block through ``split_map`` before hashing (an explode, an
    edge map, a projection), so the map costs no task wave of its own.
    P is sized from the blocks before the map."""
    sides = [(blocks(ds), list(keys), split_map)
             for ds, keys, *split_map in sides]
    metas = [m for side, _, _ in sides for _, m in side]
    P = partition_width(sum(m.num_rows or 0 for m in metas),
                        sum(m.size_bytes or 0 for m in metas))
    split = _split.options(num_returns=P)
    pieces = [[split.remote(part, keys, P, *split_map) for part, _ in side]
              for side, keys, split_map in sides]
    if P == 1:
        pieces = [[[p] for p in side] for side in pieces]
    # only the splits hold the input now: each block is freed as its
    # split finishes, not when the consumers do
    del sides
    return [[[p[i] for p in side] for i in range(P)] for side in pieces]


def grouped(ds, keys, fn, schema, then_by=(), split_map=None):
    """Group ``ds`` by ``keys``: one exchange on ``keys``, then one task
    per partition sorts it by ``keys`` (then by ``then_by`` inside each
    run) and returns ``fn(sorted_table, starts)``, ``starts`` being the
    int64 row index where each run of equal keys begins (nulls form one
    run).  Every run reaches ``fn`` whole and exactly once.  An empty
    partition returns ``schema.empty_table()``, so ``fn`` never sees
    one; ``fn`` must return ``schema`` too.  ``split_map`` maps each
    block in the exchange's split, before the keys are read
    (``exchange``).  Runs now and returns the ``Blocks`` of one block
    per partition."""
    keys, then_by = list(keys), list(then_by)
    return Blocks.submit(
        _group.remote(keys, then_by, fn, schema, *part)
        for part in exchange([(ds, keys, split_map)])[0])


def tree_fold(parts: list, merge_remote):
    """Fold a non-empty list of ObjectRefs down to one through a tree
    of ``merge_remote`` tasks (an associative merge, as CC's star-edge
    re-collapse).  The driver holds only task handles, and no task
    takes more than eight inputs."""
    fan_in = 8
    while len(parts) > 1:
        parts = [merge_remote.remote(*parts[i:i + fan_in])
                 for i in range(0, len(parts), fan_in)]
    return parts[0]
