"""Key-disjoint hash repartitioning — the engine's one exchange.

``hash_partitioned`` sends every row to the partition its key hashes
to, so EVERY row of a given key lands in exactly one output block: a
per-block vectorized scan after a local sort sees every key run in
full — one exchange, no fallback pass, no second shuffle for
stragglers.

The exchange is two waves of plain Ray tasks over the input's block
refs: one ``_split`` per block hashes the key columns and returns its
P pieces (``num_returns=P``), then one ``_merge`` per partition
concatenates the pieces addressed to it.  A task costs milliseconds
to schedule, where an exchange on Ray Data's hash-shuffle operator
started a pool of aggregator actors — seconds of fixed cost per
exchange at benchmark scale.  The exchange runs when called (it needs
the input's block refs and their metadata), so its cost lands at the
call site; the result is a materialized Dataset whose block i holds
the rows with ``key_hash(...) % P == i``.

``grouped`` is the engine's group-by: the same exchange, then one
task per partition sorts it by the keys, finds where each run of
equal keys starts and hands the sorted partition and the run starts
to a kernel.  Every run reaches the kernel whole, so a count, min or
sum per group is one ``np.<ufunc>.reduceat(col, starts)`` and a
per-group rule loops over the runs.  It replaces Ray Data's
sort-shuffle ``groupby`` (which sorted through a sample-partition-
merge all-to-all and cost seconds per call at benchmark scale).

``co_partitioned`` runs the same exchange over several inputs at one
width, so partition i of each input holds the same keys: a
partition-wise (Grace) hash join then joins each partition pair in
one task (stages/join.hash_join).

``tree_fold`` is the other task-wave primitive: an associative merge
of many refs (Bloom and HLL partials, CC star edges) as a tree of
tasks with at most eight inputs each.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

# a partition's byte target (Ray Data's default target block size):
# past one partition per CPU, the width grows with the data's bytes
PARTITION_BYTES = 128 << 20


def partition_width(n_rows: int, n_bytes: int) -> int:
    """Exchange width sized by the data: one partition per cluster CPU
    (the per-block scans downstream keep every CPU busy) but never more
    partitions than rows, and more partitions once one would pass
    ``PARTITION_BYTES``."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(1, min(cpus, n_rows), -(-n_bytes // PARTITION_BYTES))


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


@ray.remote
def _split(block, keys, P):
    """One input block → its P pieces, piece i holding the rows whose
    key hash is i mod P.  An empty block (a union with an empty side
    yields zero-column ones) is every piece."""
    import pyarrow as pa

    if not isinstance(block, pa.Table):
        from ray.data.block import BlockAccessor

        block = BlockAccessor.for_block(block).to_arrow()
    if block.num_rows == 0:
        return (block,) * P if P > 1 else block
    part = (key_hash(block, keys) % np.uint64(P)).astype(np.int64)
    order = np.argsort(part, kind="stable")
    block = block.take(order)
    bounds = np.searchsorted(part[order], np.arange(P + 1))
    pieces = tuple(block.slice(bounds[i], bounds[i + 1] - bounds[i])
                   for i in range(P))
    return pieces if P > 1 else pieces[0]


def _concat(pieces) -> pa.Table:
    """One partition's pieces → its block.  Empty pieces are dropped
    unless nothing else is left (their schema may be zero-column)."""
    full = [p for p in pieces if p.num_rows]
    if not full:
        return max(pieces, key=lambda p: p.num_columns,
                   default=pa.table({}))
    return pa.concat_tables(full, promote_options="default")


@ray.remote
def _merge(*pieces):
    return _concat(pieces)


@ray.remote
def _group(keys, then_by, fn, schema, *pieces):
    """One partition's pieces → ``fn(sorted partition, run starts)``;
    an empty partition → ``schema.empty_table()``."""
    t = _concat(pieces)
    n = t.num_rows
    if n == 0:
        return schema.empty_table()
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
    return fn(t, np.flatnonzero(brk))


def _exchange(sides, num_partitions: int | None):
    """Split every block of every ``(ds, keys)`` side into P pieces;
    returns, per side, P lists of piece refs, list i holding the rows
    with ``key_hash(keys) % P == i``.  P is ``num_partitions``, else
    ``partition_width`` of all sides' block metadata taken together."""
    sides = [([b for bundle in ds.iter_internal_ref_bundles()
               for b in bundle.blocks], list(keys)) for ds, keys in sides]
    metas = [m for blocks, _ in sides for _, m in blocks]
    P = num_partitions or partition_width(
        sum(m.num_rows or 0 for m in metas),
        sum(m.size_bytes or 0 for m in metas))
    split = _split.options(num_returns=P)
    pieces = [[split.remote(ref, keys, P) for ref, _ in blocks]
              for blocks, keys in sides]
    if P == 1:
        pieces = [[[p] for p in side] for side in pieces]
    # only the splits hold the input now: each block is freed as its
    # split finishes, not when the merges do
    del sides
    return [[[p[i] for p in side] for i in range(P)] for side in pieces]


def co_partitioned(sides, num_partitions: int | None = None):
    """Run one exchange over several ``(ds, keys)`` sides with one width
    P: returns, per side, the P merged block refs, partition i of every
    side holding the rows with ``key_hash(keys) % P == i``, so rows of
    equal keys meet in partition i of each side (a partition-wise join
    pairs them up)."""
    return [[_merge.remote(*part) for part in side]
            for side in _exchange(sides, num_partitions)]


def hash_partitioned(ds, keys, num_partitions: int | None = None):
    """Repartition ``ds`` so each value of ``keys`` occupies exactly
    one block.  Runs the exchange now and returns a materialized
    Dataset of exactly P blocks (``co_partitioned`` with one side)."""
    import ray.data as rd

    return rd.from_arrow_refs(
        co_partitioned([(ds, keys)], num_partitions)[0])


def grouped(ds, keys, fn, schema, then_by=()):
    """Group ``ds`` by ``keys``: one exchange on ``keys``, then one task
    per partition sorts it by ``keys`` (then by ``then_by`` inside each
    run) and returns ``fn(sorted_table, starts)``, ``starts`` being the
    int64 row index where each run of equal keys begins (nulls form one
    run).  Every run reaches ``fn`` whole and exactly once.  An empty
    partition returns ``schema.empty_table()``, so ``fn`` never sees
    one; ``fn`` must return ``schema`` too.  Runs now and returns a
    materialized Dataset of one block per partition."""
    import ray.data as rd

    keys, then_by = list(keys), list(then_by)
    return rd.from_arrow_refs([
        _group.remote(keys, then_by, fn, schema, *part)
        for part in _exchange([(ds, keys)], None)[0]])


def tree_fold(parts: list, merge_remote):
    """Fold a non-empty list of ObjectRefs down to one through a tree
    of ``merge_remote`` tasks (an associative merge: OR, max, a
    star-edge re-collapse, ...).  The driver holds only task handles,
    and no task takes more than eight inputs."""
    fan_in = 8
    while len(parts) > 1:
        parts = [merge_remote.remote(*parts[i:i + fan_in])
                 for i in range(0, len(parts), fan_in)]
    return parts[0]
