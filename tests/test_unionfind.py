"""Union-find reducer units."""

from __future__ import annotations

import random

from nxsearch_ray.state.unionfind import UnionFind


def test_basic_components():
    uf = UnionFind()
    uf.union(1, 2)
    uf.union(3, 4)
    uf.union(2, 3)
    uf.union(10, 11)
    labels = uf.labels_min()
    assert labels[1] == labels[2] == labels[3] == labels[4] == 1
    assert labels[10] == labels[11] == 10


def test_label_is_min_member_regardless_of_order():
    edges = [(5, 9), (9, 2), (2, 7), (100, 50)]
    for perm in range(10):
        rng = random.Random(perm)
        shuffled = edges[:]
        rng.shuffle(shuffled)
        uf = UnionFind()
        for a, b in shuffled:
            if rng.random() < 0.5:
                a, b = b, a
            uf.union(a, b)
        labels = uf.labels_min()
        assert labels[5] == labels[9] == labels[2] == labels[7] == 2
        assert labels[100] == labels[50] == 50


def test_large_random_graph_matches_naive():
    rng = random.Random(11)
    edges = [(rng.randrange(500), rng.randrange(500)) for _ in range(400)]
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    labels = uf.labels_min()

    # naive BFS components
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen: dict[int, int] = {}
    for start in adj:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in comp:
                    comp.add(y)
                    stack.append(y)
        m = min(comp)
        for x in comp:
            seen[x] = m
    assert labels == seen


def _pair_blocks(n_blocks: int, seed: int):
    """``n_blocks`` pair blocks of a random sparse graph whose
    components span blocks."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd

    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n_blocks):
        a = rng.integers(0, 600, 6)
        b = rng.integers(0, 600, 6)
        blocks.append(ray.put(pa.table({"a": pa.array(a, pa.int64()),
                                        "b": pa.array(b, pa.int64())})))
    return rd.from_arrow_refs(blocks)


def _clusters(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs())) \
        .sort_by("page_id")


def test_cc_tree_fold_three_levels_equals_labelprop(ray_session):
    """70 star-edge blocks fold through three levels of the 8-ary
    tree; the clusters equal label propagation's and the oracle's."""
    from nxsearch_ray.stages.cc import (_cc_tree_reduce,
                                        cc_label_propagation,
                                        star_edges)

    pairs = _pair_blocks(70, seed=3)
    star = star_edges(pairs)
    assert star.num_blocks() >= 65
    tree = _clusters(_cc_tree_reduce(star))
    lp = _clusters(cc_label_propagation(pairs))
    assert tree.num_rows > 0 and tree.equals(lp)
    uf = UnionFind()
    for r in pairs.take_all():
        uf.union(r["a"], r["b"])
    labels = uf.labels_min()
    sizes: dict = {}
    for lab in labels.values():
        sizes[lab] = sizes.get(lab, 0) + 1
    # singletons (self-pairs only) are no cluster members
    want = {n: lab for n, lab in labels.items() if sizes[lab] > 1}
    assert dict(zip(tree.column("page_id").to_pylist(),
                    tree.column("cluster_id").to_pylist())) == want


def test_cc_tree_empty_input(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from nxsearch_ray.stages.cc import CLUSTER_SCHEMA, cc_tree_unionfind

    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
    out = _clusters(cc_tree_unionfind(empty))
    assert out.num_rows == 0 and out.schema == CLUSTER_SCHEMA


def test_labelprop_long_path_across_blocks(ray_session, monkeypatch):
    """A 121-node path whose 120 edges sit in 120 single-row blocks:
    no block-local star collapse shortens it, so label propagation
    needs one round per hop and must run to its fixed point.  Its
    clusters equal the tree plan's."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from nxsearch_ray.stages import shuffle
    from nxsearch_ray.stages.cc import cc_label_propagation, cc_tree_unionfind

    monkeypatch.setattr(shuffle, "partition_width", lambda n, b: 2)
    pairs = rd.from_arrow_refs([
        ray.put(pa.table({"a": pa.array([i], pa.int64()),
                          "b": pa.array([i + 1], pa.int64())}))
        for i in range(120)])
    lp = _clusters(cc_label_propagation(pairs))
    assert lp.equals(_clusters(cc_tree_unionfind(pairs)))
    assert lp.num_rows == 121
    assert set(lp.column("cluster_id").to_pylist()) == {0}
