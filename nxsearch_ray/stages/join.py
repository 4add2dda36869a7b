"""Distributed equi-join for Ray Data (both-sides-large path).

Ray 2.49's `Dataset.join` is Acero underneath and rejects list-typed
payload columns (our minhash/bottomk/token_ids), so this implements
the join directly as a partition-wise (Grace) hash join: one exchange
(stages/shuffle.exchange) splits both sides into the same P partitions
by key hash, then one task per partition concatenates both sides'
pieces, sorts the right keys, looks the left keys up with
``sorted_lookup`` and gathers the payload with ``Table.take`` (every
Arrow type).  Each key is complete inside its partition, so there is
no boundary fallback, no global sort and no separate merge task.

Contract: the right side is unique per key (true for signature /
canonical tables keyed by page_id); every matching left row appears
exactly once, with right payload columns suffixed.

A pair stream meets its endpoints' rows without moving:
``endpoint_map`` delivers each pair block the rows its distinct
endpoints name, each once (a semi-join reduction per block).  The
bucketed verify and suffix tiers and ``pair_join`` run on it.

This is the engine's join operator (the distributed analogue of the
reference's token→term hash-lookup semi-join ``tokenset_resolve``,
reference src/core/tokenizer.c:160-199).  Small-side joins use a
broadcast instead: a lookup index built once and read by every task
(``index_ref`` + ``broadcast_map``, which also holds every stage's
per-worker state), such as ``anti_join``'s key set (``unique_ids``).
``broadcast_map`` is one wave of plain Ray tasks,
as the exchange is, planned from the input's block row counts so that
every CPU has work from the first task; ``map_blocks`` is the same wave
without a broadcast object, the engine's per-block map, and over a
``shuffle.Blocks`` handle it chains one task on each pending block ref.
Every wave returns a handle, not a Ray Dataset.  Over an engine
read (``shuffle.Read``) the parts are its row groups
(``shuffle.blocks``): each wave or build task reads, slices and maps
its row groups itself, and a wave cuts a row group only when the read
has fewer of them than the session has CPUs.  Every membership probe
of a sorted key array goes through ``sorted_lookup``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pyarrow as pa
import ray

from nxsearch_ray.stages.shuffle import (Blocks, ReadPart, as_arrow,
                                        blocks, concat, exchange, pending,
                                        project, session_cpus, with_meta)

PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                         ("source", pa.string())])


def sorted_lookup(keys: np.ndarray, values
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The one membership probe on a sorted key array: ``(pos, hit)``
    with ``hit[i]`` true iff ``keys[pos[i]] == values[i]``.  ``pos`` is
    always a valid index into a non-empty ``keys``; an empty ``keys``
    gives all-zero ``pos`` and no hit.  ``values`` keep their own
    dtype and width (casting strings to the keys' width would truncate
    a longer value into a false hit)."""
    values = np.asarray(values)
    if len(keys) == 0:
        return (np.zeros(len(values), np.int64),
                np.zeros(len(values), bool))
    pos = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return pos, keys[pos] == values


def _anti_probe(key: str, keys: np.ndarray):
    """The filter of an anti join against the sorted key set ``keys``."""
    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(key).to_numpy().astype(np.int64)
        return t.filter(pa.array(~sorted_lookup(keys, ids)[1]))
    return fn


def anti_join(ds, key: str, key_values):
    """Rows of ``ds`` whose ``key`` does NOT appear in ``key_values``
    — e.g. removing already-clustered docs on resume (SURVEY.md §2.4
    J4).  The key SET is broadcast once (`ray.put`) and every block is
    filtered in one ``broadcast_map`` wave, which hands each task the
    set as a resolved argument — no shuffle (the reference's AND-NOT
    bitmap algebra analogue, reference src/query/search.c:165-167, as a
    broadcast filter).

    ``key_values`` may also be an ``ObjectRef`` to a SORTED UNIQUE
    int64 array built off-driver (the driver then never holds the
    set): ``index_ref(ds, schema, unique_ids)`` builds one."""
    if not isinstance(key_values, ray.ObjectRef):
        key_values = ray.put(np.unique(np.asarray(key_values,
                                                  dtype=np.int64)))
    return broadcast_map(ds, key_values,
                         functools.partial(_anti_probe, key))


# ---------------------------------------------------- broadcast lookups

def unique_ids(t: pa.Table) -> np.ndarray:
    """The sorted unique values of ``t``'s one column: the
    ``from_table`` of a broadcast key set (8 B per id), which
    ``anti_join`` or any ``sorted_lookup`` probes."""
    return np.unique(t.column(0).to_numpy())


@ray.remote
def _build(schema: pa.Schema, from_table, *parts):
    parts = [t.select(schema.names) for t in map(as_arrow, parts)
             if t.num_rows]
    return from_table(pa.concat_tables(parts) if parts
                      else schema.empty_table())


def index_ref(ds, schema: pa.Schema, from_table):
    """ObjectRef to a lookup index ``from_table(table)`` over the
    ``schema`` columns of ``ds``, built in ONE remote task: the calling
    process never holds the index, it only hands the ref to the lookup
    tasks (which read it zero-copy from the object store).  The task
    takes the dataset's parts (``shuffle.pending``: block refs, or an
    engine read's row groups, read there) and selects the columns itself.
    Empty input builds the index of ``schema.empty_table()``.
    ``from_table`` is a module-level function (or a partial of one), so
    it ships by reference."""
    return _build.remote(schema, from_table, *pending(ds))


# per-worker-process state of the broadcast stages, one entry per call
# site (so the verify and suffix indices never evict each other),
# replaced when its ref changes: a wave runs several tasks in one
# worker, and the build (unpickle, BK-tree, filter pipelines) runs once
# per ref there, as an actor's ``__init__`` did.
# A site's last state (and any object-store value it views) stays
# until that site's next call in the worker.
_WORKER_STATE: dict = {}


def _site(build):
    """A call site's key: ``build``, or a partial's function with its
    bound kernel options."""
    if isinstance(build, functools.partial):
        return (build.func, build.args,
                tuple(sorted(build.keywords.items())))
    return build


def _worker_state(site, ref, value, build):
    """``build(value)`` for ``site``, built once per ``ref`` (``value``
    is that ref's object) in this worker."""
    hit = _WORKER_STATE.get(site)
    if hit is None or hit[0] != ref.hex():
        hit = _WORKER_STATE[site] = (ref.hex(), build(value))
    return hit[1]


def _wave_plan(rows: list[int], batch_size: int | None, cpus: int,
               groups: list[bool] | None = None
               ) -> list[list[tuple[int, int, int]]]:
    """A wave's tasks, each a list of ``(part, start, length)`` row
    ranges, contiguous and in input order.  With ``batch_size`` the
    rows are cut into max(``cpus``, ⌈rows / ``batch_size``⌉) equal
    spans (never more than rows), so every CPU has work from the first
    task.  One cut rule for every part: a span ends where its part is
    cut for free, at any row of a block ref but only at the edges of a
    row group (``groups[i]``), which each task that takes rows of it
    reads whole.  So a span end inside a row group moves to its nearer
    edge (the row group goes whole to the span its middle row falls
    in; a span left empty is dropped).  A read of fewer row groups
    than ``cpus`` is cut only to fill them: into ``cpus`` equal spans,
    so a row group is read by at most ⌈``cpus`` / row groups⌉ + 1
    tasks, never once per ``batch_size`` rows.  A task may then hold
    more than ``batch_size`` rows; ``_wave_task`` maps them in
    batches.  Without ``batch_size`` every non-empty part is one
    task."""
    full = [i for i, n in enumerate(rows) if n]
    if batch_size is None or not full:
        return [[(i, 0, rows[i])] for i in full]
    groups = groups or [False] * len(rows)
    total = sum(rows)
    snap = sum(1 if groups[i] else rows[i] for i in full) >= cpus
    n_tasks = min(total, max(cpus, -(-total // batch_size)) if snap
                  else cpus)
    bounds = [total * t // n_tasks for t in range(n_tasks + 1)]
    if snap:
        starts = np.cumsum([0, *rows])
        for t in range(1, n_tasks):
            i = int(np.searchsorted(starts, bounds[t], side="right")) - 1
            lo, hi = starts[i], starts[i + 1]
            if groups[i] and lo < bounds[t]:
                bounds[t] = int(hi if 2 * bounds[t] >= lo + hi else lo)
        bounds = sorted(set(bounds))
    plan, i, pos = [], 0, 0
    for lo, hi in zip(bounds, bounds[1:]):
        pieces = []
        while lo < hi:
            take = min(rows[i] - pos, hi - lo)
            if take:
                pieces.append((i, pos, take))
            pos, lo = pos + take, lo + take
            if pos == rows[i]:
                i, pos = i + 1, 0
        plan.append(pieces)
    return plan


def _batches(parts, pieces, batch_rows):
    """A wave task's rows, in order, as contiguous tables of
    ``batch_rows`` rows, the last holding the rest (one table without
    ``batch_rows``, and at least one): each part's range is taken
    (``shuffle.as_arrow``: a block's sliced, a ``shuffle.ReadPart``'s
    row group read, sliced and mapped) only when the batches before it
    are handed on, so no more than a batch and one part are held at
    once.  Each table is combined (a chunked one would leave the output
    chunked, and its checkpoint one Parquet row group per chunk)."""
    held, rows, given = [], 0, False
    for part, (start, n) in zip(parts, pieces):
        held.append(as_arrow(part, start, n))
        rows += held[-1].num_rows
        while batch_rows and rows >= batch_rows:
            t = concat(held)
            yield t.slice(0, batch_rows).combine_chunks()
            held, rows = [t.slice(batch_rows)], rows - batch_rows
            given = True
    if rows or not given:
        yield concat(held).combine_chunks()


@ray.remote(num_returns=2)
def _wave_task(value, ref_box, build, schema, batch_rows, pieces, *parts):
    """One task of a wave: its row ranges in batches of ``batch_rows``
    (``_batches``; the task's rows split evenly into batches of at most
    ``batch_size``, so one batch unless whole row groups hold more),
    mapped through this worker's state — or, in a stateless wave
    (``ref_box`` ``[None]``), through ``build`` itself — their outputs
    concatenated (``with_meta``).  No rows at all give
    ``schema.empty_table()`` without a kernel call, when a ``schema``
    is declared.  ``value`` is the broadcast object, resolved before
    the task starts (a ``ray.get`` inside it would block the worker,
    and Ray would start another); ``ref_box`` holds its ref unresolved,
    the state's key."""
    batches = _batches(parts, pieces, batch_rows)
    first = next(batches)       # empty only when every batch is
    if schema is not None and first.num_rows == 0:
        return with_meta(schema.empty_table())
    fn = build if ref_box[0] is None else _worker_state(
        _site(build), ref_box[0], value, build)
    out = [fn(batch) for batch in itertools.chain([first], batches)]
    return with_meta(out[0] if len(out) == 1
                     else pa.concat_tables(out).combine_chunks())


def broadcast_map(ds, ref, build, *, batch_size: int | None = None,
                  schema: pa.Schema | None = None):
    """The one task-wave primitive: one wave of plain Ray tasks in
    which each worker computes ``build`` of ``ref``'s object once per
    ``ref`` and maps its tasks' batches through the result.  ``build``
    is a class or module-level function (or a ``functools.partial`` of
    one), resolved by reference in the worker.  Config-derived state
    is keyed by a ``ray.put`` made per call, so each call starts fresh.
    With ``ref`` None the wave is stateless and ``build`` is the batch
    function itself (``map_blocks``).

    The wave runs when called, as ``exchange`` does, and returns the
    ``Blocks`` of one kernel output per task, in input order.  Without
    ``batch_size``, over a handle, it chains on the pending refs: one
    task per block, no wait, a zero-row block mapped to
    ``schema.empty_table()`` in its task.  Otherwise it lists the
    input's parts and row counts (``shuffle.blocks``: a handle's refs,
    waiting on their metadata, an engine read's row groups with their
    footers' counts — no Ray Data execution for either) and cuts them
    into tasks (``_wave_plan``: at least one per CPU, a row group cut
    only when there are fewer than CPUs).  No kernel call sees more
    than ``batch_size`` rows.  A zero-row input returns one empty block
    of ``schema``, the kernel's declared output (zero-column when none
    is given), without
    calling the kernel."""
    if batch_size is None and isinstance(ds, Blocks) and ds.parts:
        return Blocks.submit(
            _wave_task.remote(ref, [ref], build, schema, None, [(0, None)],
                              part) for part in ds.parts)
    parts = blocks(ds)
    rows = [m.num_rows for _, m in parts]
    plan = _wave_plan(rows, batch_size, session_cpus() if batch_size else 0,
                      [isinstance(p, ReadPart) for p, _ in parts])
    if not plan:
        return Blocks.of(pa.table({}) if schema is None
                         else schema.empty_table())

    def even(task):     # a task's rows in equal batches of <= batch_size
        n = sum(k for _, _, k in task)
        return batch_size and -(-n // -(-n // batch_size))

    return Blocks.submit(
        _wave_task.remote(ref, [ref], build, schema, even(task),
                          [(s, n) for _, s, n in task],
                          *[parts[i][0] for i, _, _ in task])
        for task in plan)


def map_blocks(ds, fn, schema: pa.Schema):
    """The stateless wave: ``fn`` over every non-empty block of ``ds``,
    one plain task per block, outputs in input order — a ``map_batches``
    without Ray Data's executor (``broadcast_map`` with no broadcast
    object).  ``fn`` returns ``schema``, and so does a zero-row block
    or input, without calling ``fn``."""
    return broadcast_map(ds, None, fn, schema=schema)


def lookup_kernel(kernel, cfg, index):
    """``kernel(batch, index, cfg)`` as a batch function — the build of
    a broadcast lookup: ``partial(lookup_kernel, kernel, cfg)``."""
    return lambda batch: kernel(batch, index, cfg)


def _endpoint_ids(key: str, pairs: pa.Table) -> pa.Table:
    """A pair block's request: its distinct ``a`` ∪ ``b`` ids, as
    ``key``."""
    ids = np.unique(np.concatenate([pairs.column("a").to_numpy(),
                                    pairs.column("b").to_numpy()]))
    return pa.table({key: pa.array(ids, pa.int64())})


@ray.remote
def _respond(key: str, n_asks: int, *pieces):
    """One partition: ``n_asks`` requests (one per pair block), then the
    right side's pieces → per request, the right rows its ids name
    (ids with no right row are left out; an empty pair block's request
    has no rows, and maybe not the ``key`` column)."""
    right = concat(pieces[n_asks:])
    if right.num_rows == 0:
        out = [right] * n_asks
    else:
        keys = right.column(key).to_numpy().astype(np.int64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        out = []
        for ask in pieces[:n_asks]:
            ids = (ask.column(key).to_numpy() if ask.num_rows
                   else np.empty(0, np.int64))
            pos, hit = sorted_lookup(keys, ids)
            out.append(right.take(order[pos[hit]]))
    return tuple(out) if n_asks > 1 else out[0]


@ray.remote(num_returns=2)
def _endpoint_task(kernel, right_schema: pa.Schema, schema: pa.Schema,
                   pairs, *answers):
    """One pair block → ``kernel(pairs, pages)`` (``with_meta``),
    ``pages`` its partitions' answers concatenated (``right_schema``
    when none has a row); a zero-row pair block → ``schema``'s empty
    table."""
    pairs = as_arrow(pairs)
    if pairs.num_rows == 0:
        return with_meta(schema.empty_table())
    pages = concat(answers)
    return with_meta(kernel(pairs, pages if pages.num_rows
                            else right_schema.empty_table()))


def endpoint_map(pairs_ds, right_ds, right_schema: pa.Schema, kernel,
                 schema: pa.Schema):
    """``kernel(pairs, pages)`` over every non-empty block of a pair
    stream (``a``, ``b`` int64), ``pages`` holding the rows of
    ``right_ds`` (its ``right_schema`` columns, keyed by the first, one
    row per key) that the block's endpoints name, each once — the
    scale path's endpoint delivery, a semi-join reduction per pair
    block: a page travels once to each block that needs it, however
    many of its pairs name it, and the pairs never move.

    Four waves, submitted together (no wait between them): per pair
    block, its distinct endpoint ids split by key hash into P pieces
    (``shuffle._split``, P the right side's ``partition_width``); the
    right side's projected split on the key at the same P; one respond
    task per partition that looks every block's ids up in its right rows
    (``num_returns`` one per pair block); and one kernel task per pair
    block that concatenates its P answers.  Returns the ``Blocks`` of
    one kernel output per pair block, in input order (a zero-row block's
    is ``schema``'s empty table; no block gives one).  A handle's pair
    blocks are chained on pending, so only the right side's metadata is
    waited for (P).  An endpoint with no right row is not in
    ``pages``."""
    from nxsearch_ray.stages import shuffle

    key = right_schema.names[0]
    pair_parts = (pending(pairs_ds) if isinstance(pairs_ds, Blocks)
                  else [p for p, m in blocks(pairs_ds) if m.num_rows])
    if not pair_parts:
        return Blocks.of(schema.empty_table())
    right = blocks(right_ds)
    P = shuffle.partition_width(sum(m.num_rows or 0 for _, m in right),
                                sum(m.size_bytes or 0 for _, m in right))
    split = shuffle._split.options(num_returns=P)
    asks = [split.remote(p, [key], P, functools.partial(_endpoint_ids, key))
            for p in pair_parts]
    gives = [split.remote(p, [key], P,
                          functools.partial(project, right_schema.names))
             for p, _ in right]
    if P == 1:
        asks, gives = [[r] for r in asks], [[r] for r in gives]
    J = len(pair_parts)
    respond = _respond.options(num_returns=J)
    answers = [respond.remote(key, J, *[a[i] for a in asks],
                              *[g[i] for g in gives]) for i in range(P)]
    if J == 1:
        answers = [[r] for r in answers]
    return Blocks.submit(
        _endpoint_task.remote(kernel, right_schema, schema, part,
                              *[ans[j] for ans in answers])
        for j, part in enumerate(pair_parts))


def _attach_endpoints(key: str, pair_names: list[str],
                      out_schema: pa.Schema, pairs: pa.Table,
                      pages: pa.Table) -> pa.Table:
    """``pair_join``'s kernel: each pair with both endpoints' payload
    columns (``pages`` less ``key``), pairs missing either dropped."""
    keys = pages.column(key).to_numpy().astype(np.int64)
    order = np.argsort(keys, kind="stable")
    (pos_a, hit_a), (pos_b, hit_b) = (
        sorted_lookup(keys[order], pairs.column(side).to_numpy())
        for side in ("a", "b"))
    hit = hit_a & hit_b
    payload = pages.drop_columns([key])
    return pa.Table.from_arrays(
        pairs.select(pair_names).filter(pa.array(hit)).columns
        + payload.take(order[pos_a[hit]]).columns
        + payload.take(order[pos_b[hit]]).columns,
        names=out_schema.names).cast(out_schema)


def pair_join(pairs_ds, right_ds, *, right_key: str,
              pair_schema: pa.Schema, right_schema: pa.Schema):
    """Attach a keyed payload table to BOTH endpoints of a pair stream:
    ``endpoint_map`` delivers each pair block its endpoints' rows, and a
    gather kernel appends the payload columns (all but ``right_key``)
    suffixed ``_a``, then ``_b``.

    Inner-join semantics: pairs missing either endpoint's payload row
    are dropped; the right side must be unique per key."""
    right_schema = pa.schema([right_schema.field(right_key)] + [
        f for f in right_schema if f.name != right_key])
    out = _joined_schema(_joined_schema(pair_schema, right_schema,
                                        right_key, "_a"),
                         right_schema, right_key, "_b")
    return endpoint_map(pairs_ds, right_ds, right_schema,
                        functools.partial(_attach_endpoints, right_key,
                                          pair_schema.names, out), out)


def _joined_schema(left_schema: pa.Schema, right_schema: pa.Schema,
                   right_key: str, right_suffix: str) -> pa.Schema:
    """A join's output: the left columns, then the right side's payload
    columns (all but ``right_key``) suffixed."""
    return pa.schema(list(left_schema) + [
        pa.field(f.name + right_suffix, f.type)
        for f in right_schema if f.name != right_key])


@ray.remote(num_returns=2)
def _join_partition(left_key: str, right_key: str, payload: pa.Schema,
                    out_schema: pa.Schema, how: str, n_left: int,
                    *pieces):
    """One partition's pieces (``n_left`` left, then right) → its
    joined block (``with_meta``): sort the right keys,
    ``sorted_lookup`` the left keys, ``take`` the ``payload`` columns.
    Either side may be empty (even zero-column)."""
    left, right = concat(pieces[:n_left]), concat(pieces[n_left:])
    if left.num_rows == 0:
        return with_meta(out_schema.empty_table())
    lk = left.column(left_key).to_numpy().astype(np.int64)
    if right.num_rows:
        rk = right.column(right_key).to_numpy().astype(np.int64)
    else:
        right, rk = payload.empty_table(), np.zeros(0, np.int64)
    order = np.argsort(rk, kind="stable")
    pos, hit = sorted_lookup(rk[order], lk)
    rows = order[pos] if len(order) else pos
    if how == "inner":
        left, rows, hit = left.filter(pa.array(hit)), rows[hit], hit[hit]
    # null take-indices give the unmatched left rows null payloads
    taken = right.select(payload.names).take(
        pa.array(rows, mask=~hit, type=pa.int64()))
    left_names = out_schema.names[:len(out_schema) - len(payload)]
    return with_meta(pa.Table.from_arrays(
        left.select(left_names).columns + taken.columns,
        names=out_schema.names).cast(out_schema))


def hash_join(left_ds, right_ds, *, left_key: str, right_key: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              right_suffix: str = "_r", how: str = "inner"):
    """Join ``left[left_key] == right[right_key]``.  Schemas are
    passed explicitly — Ray schemas are lazy, and passing them avoids
    triggering execution just to inspect.

    One exchange splits the left side on ``left_key`` and the right
    side on ``right_key`` into the same P partitions
    (stages/shuffle.exchange), then one task per partition takes both
    sides' pieces and joins them (``_join_partition``).  The exchange
    runs when called; the result is the ``Blocks`` of the P joined
    blocks.

    ``how='left'`` keeps unmatched left rows with null payload
    columns."""
    if how not in ("inner", "left"):
        raise ValueError(f"hash_join: unsupported how={how!r}")
    payload = pa.schema([f for f in right_schema if f.name != right_key])
    out_schema = _joined_schema(left_schema, right_schema, right_key,
                                right_suffix)
    # each side is projected to its schema's columns in the split, so
    # no other column crosses the exchange
    lefts, rights = exchange([
        (left_ds, [left_key], functools.partial(project, left_schema.names)),
        (right_ds, [right_key],
         functools.partial(project, right_schema.names))])
    return Blocks.submit(
        _join_partition.remote(left_key, right_key, payload, out_schema,
                               how, len(lt), *lt, *rt)
        for lt, rt in zip(lefts, rights))
