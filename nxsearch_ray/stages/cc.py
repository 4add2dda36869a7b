"""Connected components over the verified pair stream → cluster ids.

Cluster id = min page_id of the component (deterministic, independent
of edge order / parallelism — SURVEY.md §7 "determinism").

Every plan starts from the same leaf: each pair block collapsed to
star edges (node → block-local component min) by the vectorized
min-hooking kernel (state/unionfind.py).  Two plans, one semantic:

  * **tree-reduce union-find** (``cc_tree_unionfind``; the flagship's
    choice while the star edges fit one task): star-edge blocks are
    re-collapsed through ``shuffle.tree_fold``'s 8-ary task tree until
    one block remains.  No shuffle and no driver-side collect.
  * **distributed min-label propagation** (``cc_label_propagation``;
    the scale path): the classic hash-hash iteration — each round
    sends every changed node label to its neighbours' partitions and
    folds per-node minima, stopping only at the fixed point (no label
    changed).  That takes O(diameter) rounds: near-dup clusters are
    shallow and a chain inside one block is star-collapsed there
    first, but a chain whose edges the pair union's exchange spread
    over blocks costs one round per hop.  Shortening such chains and
    label skew for giant components are the BTS (ICDE 2024) concern;
    min-label with per-round rehashing avoids a single hot reducer
    because the partition key is the node id, not the label.
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import ray

from nxsearch_ray.stages.join import map_blocks, sorted_lookup
from nxsearch_ray.stages.shuffle import (Blocks, concat, exchange,
                                         key_hash, refs, tree_fold,
                                         with_meta)

CLUSTER_SCHEMA = pa.schema([("page_id", pa.int64()),
                            ("cluster_id", pa.int64())])
STAR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])


def _star_edges(t: pa.Table) -> pa.Table:
    """Collapse one block's edges to star edges (node → component-min
    label seen inside this block), dropping self rows.  Associative:
    re-running over a union of star-edge blocks merges components, so
    this is the leaf step and the combine step of the tree reduction,
    and label propagation's per-block combiner."""
    from nxsearch_ray.state.unionfind import min_label_components

    nodes, labs = min_label_components(t.column("a").to_numpy(),
                                       t.column("b").to_numpy())
    keep = nodes != labs
    return pa.Table.from_arrays(
        [pa.array(nodes[keep]), pa.array(labs[keep])],
        schema=STAR_SCHEMA)


def star_edges(pairs_ds):
    """The shared leaf: every pair block collapsed to star edges, one
    task per block (``join.map_blocks``), so ``count()`` is
    metadata."""
    return map_blocks(pairs_ds, _star_edges, STAR_SCHEMA)


def cc_tree_unionfind(pairs_ds):
    """Distributed connected components by tree-reduce union-find.  No
    driver-side collect and no per-row Python:

      1. leaf: ``star_edges`` — output rows ≤ distinct nodes in the
         block, so dup-heavy blocks shrink massively;
      2. reduce: ``shuffle.tree_fold`` re-collapses the concatenated
         star-edge blocks eight at a time, log_8(B) task levels;
      3. root: the single surviving block holds one star edge per
         non-min dup node; a final pass emits (page_id, cluster_id)
         with the min nodes' self rows restored.

    Memory bound: the root task holds O(distinct dup nodes) rows
    (16 B/row).  ``run_dedup(cc_mode='auto')`` sizes the star edges
    after the leaf pass and switches to label propagation when they
    exceed the per-task byte budget — the 10^12-doc escape hatch.
    Returns the ``shuffle.Blocks`` of CLUSTER_SCHEMA."""
    return _cc_tree_reduce(star_edges(pairs_ds))


@ray.remote
def _merge_star(*blocks):
    """Star edges of the union of ``blocks`` (one tree_fold merge)."""
    full = [b for b in blocks if b.num_rows]
    return _star_edges(pa.concat_tables(full)) if full \
        else STAR_SCHEMA.empty_table()


@ray.remote(num_returns=2)
def _finish(t: pa.Table):
    """The root's star edges → (page_id, cluster_id), with the min
    nodes (labels) restored as members of their own cluster
    (``with_meta``)."""
    if t.num_rows == 0:
        return with_meta(CLUSTER_SCHEMA.empty_table())
    node = t.column("a").to_numpy()
    lab = t.column("b").to_numpy()
    mins = np.unique(lab)
    nodes = np.concatenate([node, mins])
    labs = np.concatenate([lab, mins])
    order = np.argsort(nodes, kind="stable")
    return with_meta(pa.Table.from_arrays(
        [pa.array(nodes[order]), pa.array(labs[order])],
        schema=CLUSTER_SCHEMA))


def _cc_tree_reduce(star_ds):
    """Reduce a star-edge input to the clusters table: its block refs
    (``shuffle.refs``, pending) fold through ``tree_fold``
    (``_star_edges`` over each group's concatenation), then ``_finish``
    runs on the root."""
    parts = refs(star_ds)
    root = tree_fold(parts, _merge_star) if parts \
        else ray.put(STAR_SCHEMA.empty_table())
    return Blocks.submit([_finish.remote(root)])


def _to_edges(t: pa.Table) -> pa.Table:
    """Per-block union-find combiner: collapse every component that
    lives inside this block to a star around its min node BEFORE the
    global iteration, so a chain whose edges share a block costs O(1)
    global rounds instead of O(chain length), and emit each star edge
    in both directions as (node, dst).  Vectorized (min-hooking
    kernel) — no per-edge Python."""
    star = _star_edges(t)
    node = star.column("a").to_numpy()
    root = star.column("b").to_numpy()
    return pa.Table.from_arrays(
        [pa.array(np.concatenate([node, root]), type=pa.int64()),
         pa.array(np.concatenate([root, node]), type=pa.int64())],
        names=["node", "dst"])


@ray.remote(num_returns=2)
def _prep(*pieces):
    """One partition's pieces → its state: node-sorted edge arrays,
    the sorted unique node ids, and initial labels = min(node, local
    min neighbor).  Returns (state, labels0)."""
    block = concat(pieces)
    if block.num_rows == 0:
        return None, np.empty(0, np.int64)
    node = block.column("node").to_numpy()
    dst = block.column("dst").to_numpy()
    order = np.argsort(node, kind="stable")
    node, dst = node[order], dst[order]
    nodes, starts = np.unique(node, return_index=True)
    local_min = np.minimum.reduceat(dst, starts)
    labels = np.minimum(nodes, local_min)
    eidx = np.searchsorted(nodes, node)   # edge row → node slot
    return {"nodes": nodes, "eidx": eidx, "dst": dst}, labels


@ray.remote
def _round(state, labels, first, nblocks, *inbox):
    """One BSP superstep: fold inbox minima into labels, emit the
    changed labels along local out-edges grouped by destination block.
    Returns (labels, changed_count, msg_0, ..., msg_B-1); each msg is a
    2×k int64 array (dst ids, labels)."""
    empty = np.empty((2, 0), dtype=np.int64)
    if state is None:
        return (labels, 0) + (empty,) * nblocks
    nodes = state["nodes"]
    lab = labels.copy()
    for m in inbox:
        if m is None or m.shape[1] == 0:
            continue
        # routing guarantees targets exist here; the mask is cheap
        # insurance against a foreign id
        pos, ok = sorted_lookup(nodes, m[0])
        np.minimum.at(lab, pos[ok], m[1][ok])
    changed_mask = lab != labels
    changed = int(changed_mask.sum())
    emit_mask = changed_mask if not first else \
        np.ones(len(nodes), dtype=bool)
    if not emit_mask.any():
        return (lab, changed) + (empty,) * nblocks
    eidx = state["eidx"]
    sel = emit_mask[eidx]
    dsel = state["dst"][sel]
    lsel = lab[eidx[sel]]
    dblk = (key_hash(pa.table({"node": dsel}), ["node"])
            % np.uint64(nblocks)).astype(np.int64)
    order = np.argsort(dblk, kind="stable")
    dblk, dsel, lsel = dblk[order], dsel[order], lsel[order]
    bounds = np.searchsorted(dblk, np.arange(nblocks + 1))
    out = tuple(
        np.stack([dsel[bounds[q]:bounds[q + 1]],
                  lsel[bounds[q]:bounds[q + 1]]])
        if bounds[q + 1] > bounds[q] else empty
        for q in range(nblocks))
    return (lab, changed) + out


@ray.remote(num_returns=2)
def _to_table(state, labels):
    """A partition's final labels → its clusters block
    (``with_meta``)."""
    if state is None:
        return with_meta(CLUSTER_SCHEMA.empty_table())
    return with_meta(pa.Table.from_arrays(
        [pa.array(state["nodes"]), pa.array(labels)],
        schema=CLUSTER_SCHEMA))


def cc_label_propagation(pairs_ds):
    """Distributed min-label propagation as a BSP loop over raw Ray
    tasks (the Pregel pattern); returns the ``shuffle.Blocks`` of
    CLUSTER_SCHEMA.

    Why raw tasks and not Dataset ops: an iterative algorithm run as
    per-round Dataset stages pays a plan compile and an executor
    start-up every round, fixed cost that dwarfs rounds over data
    measured in kilobytes.  Here the edge set is partitioned ONCE
    (star-collapsed per block by the vectorized union-find combiner and
    exploded to both directions inside the split of one
    ``shuffle.exchange`` on ``node``, whose pieces each ``_prep`` task
    concatenates into its partition's state), and each round is P
    plain tasks passing P×P small message arrays through the object
    store.  Messages are routed by the exchange's own ``key_hash``, so
    a destination id's partition is recomputed anywhere without a
    lookup table.  Delta propagation: a round's traffic is proportional
    to the labels that actually changed.  The loop stops only at the fixed point (no change
    anywhere): labels only decrease, so it ends, after O(diameter)
    rounds over star-collapsed edges — a chain whose edges sit in
    different blocks keeps its full length.

    Partitioning assumptions, stated: P is the exchange's data-sized
    width (``shuffle.partition_width``); P² message objects per round
    are tiny but their count grows quadratically — at very large P,
    batch messages per destination WORKER rather than per partition.
    Determinism: labels evolve by min() folds only, so the fixed point
    is independent of scheduling order."""
    parts = exchange([(pairs_ds, ["node"], _to_edges)])[0]
    preps = [_prep.remote(*p) for p in parts]
    state_refs = [p[0] for p in preps]
    B = len(parts)

    # round 0 bootstraps: every node announces its initial label
    # (labels0 from _prep); later rounds emit only changed labels
    label_refs: list = [preps[bi][1] for bi in range(B)]
    msg_refs = [[None] * B for _ in range(B)]   # [src][dst]
    for rnd in itertools.count():
        outs = {}
        for bi in range(B):
            inbox = [msg_refs[q][bi] for q in range(B)
                     if msg_refs[q][bi] is not None]
            outs[bi] = _round.options(num_returns=2 + B).remote(
                state_refs[bi], label_refs[bi], rnd == 0, B, *inbox)
        changed_refs = []
        for bi in range(B):
            r = outs[bi]
            label_refs[bi] = r[0]
            changed_refs.append(r[1])
            for q in range(B):
                msg_refs[bi][q] = r[2 + q]
        total_changed = sum(ray.get(changed_refs))
        if rnd > 0 and total_changed == 0:
            # a full fold round saw no change anywhere, and delta
            # emission means its outboxes are empty → fixed point
            break

    return Blocks.submit(_to_table.remote(state_refs[bi], label_refs[bi])
                         for bi in range(B))
