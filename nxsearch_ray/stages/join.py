"""Distributed equi-join for Ray Data (both-sides-large path).

Ray 2.49's `Dataset.join` is Acero underneath and rejects list-typed
payload columns (our minhash/bottomk/token_ids), so this implements
the join directly: tag rows from both sides, align schemas, ONE
key-disjoint hash exchange (stages/shuffle.py), then a vectorized
per-block run scan that broadcasts each key's single right-side row
to its left-side rows (`Table.take` gather — supports every Arrow
type).  Key runs are complete inside their block, so there is no
boundary fallback and no global sort.

Contract: the right side is unique per key (true for signature /
canonical tables keyed by page_id); every matching left row appears
exactly once, with right payload columns suffixed.

This is the engine's join operator (the distributed analogue of the
reference's token→term hash-lookup semi-join ``tokenset_resolve``,
reference src/core/tokenizer.c:160-199).  Small-side joins use a
broadcast instead: a key set (``semi_join`` / ``anti_join``) or a
lookup index built once and read by every task (``index_ref`` +
``broadcast_map``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                         ("source", pa.string())])


def _key_filter(ds, key: str, key_values, keep_matches: bool):
    """Shared body of semi/anti join: broadcast the key SET once
    (`ray.put`), filter inside map_batches — no shuffle (the
    reference's AND-NOT bitmap algebra analogue, reference
    src/query/search.c:165-167, as a broadcast filter).

    ``key_values`` may also be an ``ObjectRef`` to a SORTED UNIQUE
    int64 array built off-driver (the driver then never holds the
    set) — ``id_set_ref`` builds one."""
    import ray

    if isinstance(key_values, ray.ObjectRef):
        ref = key_values
    else:
        keys = np.unique(np.asarray(key_values, dtype=np.int64))
        ref = ray.put(keys)

    def fn(t: pa.Table) -> pa.Table:
        want = ray.get(ref)
        ids = t.column(key).to_numpy().astype(np.int64)
        pos = np.clip(np.searchsorted(want, ids), 0,
                      max(len(want) - 1, 0))
        hit = (len(want) > 0) & (want[pos] == ids)
        return t.filter(pa.array(hit if keep_matches else ~hit))

    return ds.map_batches(fn, batch_format="pyarrow")


def semi_join(ds, key: str, key_values):
    """Rows of ``ds`` whose ``key`` appears in ``key_values``."""
    return _key_filter(ds, key, key_values, True)


def anti_join(ds, key: str, key_values):
    """Rows of ``ds`` whose ``key`` does NOT appear in ``key_values``
    — e.g. removing already-clustered docs on resume (SURVEY.md §2.4
    J4)."""
    return _key_filter(ds, key, key_values, False)


def id_set_ref(ds, cols: list[str]):
    """ObjectRef to the sorted unique int64 values of ``cols`` across
    ``ds`` — the key set a semi/anti join broadcasts (8 B per id).  It
    is built in ONE remote task from the dataset's blocks, not in the
    calling process."""
    import ray

    @ray.remote
    def _ids(*blocks):
        chunks = [b.column(c).to_numpy() for b in blocks
                  if b.num_columns > 0 for c in cols]
        return (np.unique(np.concatenate(chunks)) if chunks
                else np.empty(0, np.int64))

    return _ids.remote(*ds.select_columns(cols).to_arrow_refs())


# ---------------------------------------------------- broadcast lookups

def index_ref(ds, schema: pa.Schema, from_table):
    """ObjectRef to a lookup index ``from_table(table)`` over the
    ``schema`` columns of ``ds``, built in ONE remote task: the calling
    process never holds the index, it only hands the ref to the lookup
    tasks (which read it zero-copy from the object store).  Empty input
    builds the index of ``schema.empty_table()``."""
    import ray

    @ray.remote
    def _build(*blocks):
        blocks = [b for b in blocks if b.num_columns > 0]
        return from_table(pa.concat_tables(blocks) if blocks
                          else schema.empty_table())

    return _build.remote(*ds.select_columns(schema.names).to_arrow_refs())


# per-worker-process cache of broadcast indices, one entry per index
# kind (so the verify and suffix indices never evict each other): a
# task-pool stage re-enters its kernel many times in one worker, and
# the plasma get is zero-copy but the unpickle is worth skipping
_INDEX_CACHE: dict = {}


def _cached_index(kind: str, idx_ref):
    import ray

    hit = _INDEX_CACHE.get(kind)
    if hit is None or hit[0] != idx_ref.hex():
        hit = _INDEX_CACHE[kind] = (idx_ref.hex(), ray.get(idx_ref))
    return hit[1]


def broadcast_map(pairs_ds, idx_ref, cfg, kernel, batch_size: int):
    """Broadcast-lookup join: ``kernel(batch, index, cfg)`` over every
    ``batch_size``-row batch of ``pairs_ds``, the index fetched once
    per worker process from ``idx_ref``."""
    kind = kernel.__name__

    def fn(batch: pa.Table) -> pa.Table:
        return kernel(batch, _cached_index(kind, idx_ref), cfg)

    return pairs_ds.map_batches(fn, batch_format="pyarrow",
                                batch_size=batch_size)


def pair_join(pairs_ds, right_ds, *, right_key: str,
              pair_schema: pa.Schema, right_schema: pa.Schema,
              a_col: str = "a", b_col: str = "b",
              num_partitions: int | None = None):
    """Attach a keyed payload table to BOTH endpoints of a pair stream
    in one fused plan — the flagship's verify-side join.

    Equivalent to ``hash_join(pairs, right, on=a) ∘ hash_join(·, right,
    on=b)`` but with half the exchanges and zero barriers: each pair
    emits two thin role rows (key=a → role 0, key=b → role 1); ONE
    key-disjoint hash repartition (stages/shuffle.py) co-locates them
    with their payload row and a vectorized run scan scatters the
    payload onto the role rows; ONE second hash repartition on (a, b)
    reunites the two roles into the joined row with payload columns
    suffixed ``_a`` / ``_b``.  The payload rides each exchange exactly
    once, every key run is complete inside its block (no fallback
    pass), and the whole join STREAMS — no materialization.

    Inner-join semantics: pairs missing either endpoint's payload row
    are dropped; the right side must be unique per key."""
    from nxsearch_ray.stages.shuffle import hash_partitioned

    pair_names = [f.name for f in pair_schema]
    payload_fields = [f for f in right_schema if f.name != right_key]
    payload_names = [f.name for f in payload_fields]
    out_schema = pa.schema(
        list(pair_schema)
        + [pa.field(f.name + s, f.type)
           for s in ("_a", "_b") for f in payload_fields])

    # phase-1 row layout: key + role (0=a-side, 1=b-side, 2=payload) +
    # pair cols (null on payload rows) + payload cols (null on roles)
    p1_schema = pa.schema(
        [pa.field("__key", pa.int64()), pa.field("__role", pa.int8())]
        + [pa.field(n, pair_schema.field(n).type) for n in pair_names]
        + payload_fields)

    def pair_to_roles(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols_a, cols_b = [], []
        for f in p1_schema:
            if f.name == "__key":
                cols_a.append(t.column(a_col).cast(pa.int64()))
                cols_b.append(t.column(b_col).cast(pa.int64()))
            elif f.name == "__role":
                cols_a.append(pa.array(np.zeros(n, np.int8)))
                cols_b.append(pa.array(np.ones(n, np.int8)))
            elif f.name in pair_names:
                cols_a.append(t.column(f.name).cast(f.type))
                cols_b.append(t.column(f.name).cast(f.type))
            else:
                cols_a.append(pa.nulls(n, type=f.type))
                cols_b.append(pa.nulls(n, type=f.type))
        return pa.concat_tables(
            [pa.Table.from_arrays(cols_a, schema=p1_schema),
             pa.Table.from_arrays(cols_b, schema=p1_schema)])

    def right_to_rows(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = []
        for f in p1_schema:
            if f.name == "__key":
                cols.append(t.column(right_key).cast(pa.int64()))
            elif f.name == "__role":
                cols.append(pa.array(np.full(n, 2, np.int8)))
            elif f.name in pair_names:
                cols.append(pa.nulls(n, type=f.type))
            else:
                cols.append(t.column(f.name).cast(f.type))
        return pa.Table.from_arrays(cols, schema=p1_schema)

    roles = pairs_ds.map_batches(pair_to_roles, batch_format="pyarrow")
    payload = right_ds.map_batches(right_to_rows,
                                   batch_format="pyarrow")

    parts1 = hash_partitioned(roles.union(payload), ["__key"],
                              num_partitions)

    def scatter_block(t: pa.Table) -> pa.Table:
        """Local sort by (key, role); within each key run the payload
        row (role 2) sorts last — gather it onto the role rows."""
        n = t.num_rows
        if n == 0:
            return p1_schema.empty_table()
        keys = t.column("__key").to_numpy()
        role = t.column("__role").to_numpy()
        order = np.lexsort((role, keys))
        keys = keys[order]
        role = role[order]
        t = t.take(pa.array(order, type=pa.int64()))
        change = np.nonzero(keys[1:] != keys[:-1])[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((starts[1:], [n]))
        run_id = np.cumsum(np.concatenate(
            ([0], (keys[1:] != keys[:-1]).astype(np.int64))))
        last = ends - 1
        has_payload = role[last] == 2
        sel = np.nonzero((role < 2) & has_payload[run_id])[0]
        psel = last[run_id[sel]]
        lt = t.take(pa.array(sel, type=pa.int64()))
        rt = t.take(pa.array(psel, type=pa.int64()))
        cols = [lt.column("__key"), lt.column("__role")]
        cols += [lt.column(nm) for nm in pair_names]
        cols += [rt.column(nm) for nm in payload_names]
        return pa.Table.from_arrays(cols, schema=p1_schema)

    attached = parts1.map_batches(scatter_block, batch_format="pyarrow",
                                  batch_size=None)

    # ---- phase 2: reunite the two roles of each pair -----------------
    parts2 = hash_partitioned(attached, [a_col, b_col], num_partitions)

    def reunite_block(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return out_schema.empty_table()
        a = t.column(a_col).to_numpy()
        b = t.column(b_col).to_numpy()
        role = t.column("__role").to_numpy()
        order = np.lexsort((role, b, a))
        a, b, role = a[order], b[order], role[order]
        t = t.take(pa.array(order, type=pa.int64()))
        change = np.nonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1]))[0] + 1
        starts = np.concatenate(([0], change))
        counts = np.diff(np.concatenate((starts, [n])))
        s2 = starts[counts == 2]
        ok = s2[(role[s2] == 0) & (role[s2 + 1] == 1)] \
            if len(s2) else s2
        at = t.take(pa.array(ok, type=pa.int64()))
        bt = t.take(pa.array(ok + 1, type=pa.int64()))
        cols = [at.column(nm) for nm in pair_names]
        cols += [at.column(nm) for nm in payload_names]
        cols += [bt.column(nm) for nm in payload_names]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return parts2.map_batches(reunite_block, batch_format="pyarrow",
                              batch_size=None)


def hash_join(left_ds, right_ds, *, left_key: str, right_key: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              num_partitions: int | None = None,
              right_suffix: str = "_r", how: str = "inner"):
    """Join ``left[left_key] == right[right_key]``.  Schemas are
    passed explicitly — Ray schemas are lazy, and passing them avoids
    triggering execution just to inspect.

    One key-disjoint hash exchange (stages/shuffle.py) co-locates both
    sides' rows per key; a local sort by (key, side) inside each block
    then gathers the key's single right row onto its left rows.  Every
    key run is complete inside its block, so there is no boundary
    fallback, no global sort and no barrier — the join streams.

    ``how='left'`` keeps unmatched left rows with null payload columns
    (same exchange; only the per-block gather differs)."""
    if how not in ("inner", "left"):
        raise ValueError(f"hash_join: unsupported how={how!r}")
    from nxsearch_ray.stages.shuffle import hash_partitioned

    left_names = [f.name for f in left_schema]
    payload_fields = [pa.field(f.name + right_suffix, f.type)
                      for f in right_schema if f.name != right_key]
    payload_names = [f.name for f in payload_fields]
    out_schema = pa.schema(list(left_schema) + payload_fields)

    union_schema = pa.schema(
        [pa.field("__side", pa.int8()), pa.field("__key", pa.int64())]
        + list(left_schema) + payload_fields)

    def prepare(side: int, key: str, rename: dict[str, str]):
        def fn(t: pa.Table) -> pa.Table:
            k = t.column(key).to_numpy().astype(np.int64)
            cols = {rename.get(c, c): t.column(c) for c in t.column_names}
            out = []
            for f in union_schema:
                if f.name == "__side":
                    out.append(pa.array(
                        np.full(t.num_rows, side, dtype=np.int8)))
                elif f.name == "__key":
                    out.append(pa.array(k, type=pa.int64()))
                elif f.name in cols:
                    out.append(cols[f.name].cast(f.type))
                else:
                    out.append(pa.nulls(t.num_rows, type=f.type))
            return pa.Table.from_arrays(out, schema=union_schema)
        return fn

    left_t = left_ds.map_batches(prepare(0, left_key, {}),
                                 batch_format="pyarrow")
    right_t = right_ds.map_batches(
        prepare(1, right_key,
                {f.name: f.name + right_suffix
                 for f in right_schema if f.name != right_key}),
        batch_format="pyarrow")

    parts = hash_partitioned(left_t.union(right_t), ["__key"],
                             num_partitions)

    def block_join(t: pa.Table) -> pa.Table:
        """Per-block (key-complete) run scan: gather each key's single
        right-side row (sorts last within its run) onto its left rows."""
        n = t.num_rows
        if n == 0:
            return out_schema.empty_table()
        keys = t.column("__key").to_numpy()
        side = t.column("__side").to_numpy()
        order = np.lexsort((side, keys))
        keys, side = keys[order], side[order]
        t = t.take(pa.array(order, type=pa.int64()))
        run_id = np.cumsum(np.concatenate(
            ([0], (keys[1:] != keys[:-1]).astype(np.int64))))
        nruns = run_id[-1] + 1 if n else 0
        right_rows = np.nonzero(side == 1)[0]
        right_of_run = np.full(nruns, -1, dtype=np.int64)
        right_of_run[run_id[right_rows]] = right_rows
        left_rows = np.nonzero(side == 0)[0]
        rpos = right_of_run[run_id[left_rows]]
        matched = rpos >= 0
        if how == "left":
            lt = t.take(pa.array(left_rows, type=pa.int64()))
            # null take-indices yield null payload rows for the
            # unmatched left rows
            rt = t.take(pa.array(rpos, mask=~matched, type=pa.int64()))
        else:
            lt = t.take(pa.array(left_rows[matched], type=pa.int64()))
            rt = t.take(pa.array(rpos[matched], type=pa.int64()))
        cols = [lt.column(nm) for nm in left_names]
        cols += [rt.column(nm) for nm in payload_names]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return parts.map_batches(block_join, batch_format="pyarrow",
                             batch_size=None)
