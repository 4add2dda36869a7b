"""Connected-components kernels: vectorized min-hooking and union-find.

Two kernels: ``min_label_components``, the vectorized min-hooking
kernel every connected-components plan runs inside its tasks (the
star-edge leaf and each tree-reduce step of stages/cc.py), and
``UnionFind``, the dict-based structure the Python oracle
(oracle.py) uses as ground truth for both distributed plans.  Load
balancing concerns for the distributed variant follow BTS (ICDE 2024,
PAPERS.md) — see stages/cc.py.
"""

from __future__ import annotations

import numpy as np


def min_label_components(a: np.ndarray, b: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized connected components over edge arrays: returns
    ``(nodes, labels)`` where nodes is the sorted array of every node
    id appearing in an edge and labels[i] is the MIN node id of
    nodes[i]'s component.

    Shiloach-Vishkin-style min-hooking: map ids to dense indices
    (np.unique — index order == id order, so min index == min id),
    then alternate full pointer-jump compression with a vectorized
    min-hook (``np.minimum.at``) until no edge spans two roots.
    O(E · α)-ish work in O(log n) numpy passes — no per-edge Python,
    unlike the dict-based UnionFind below (the oracle's)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if len(a) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    nodes, idx = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea = idx[:len(a)]
    eb = idx[len(a):]
    parent = np.arange(len(nodes), dtype=np.int64)
    while True:
        # full path compression: parent <- parent[parent] to fixpoint
        while True:
            pp = parent[parent]
            if np.array_equal(pp, parent):
                break
            parent = pp
        ra = parent[ea]
        rb = parent[eb]
        lo = np.minimum(ra, rb)
        hi = np.maximum(ra, rb)
        live = lo != hi
        if not live.any():
            break
        np.minimum.at(parent, hi[live], lo[live])
    return nodes, nodes[parent]


class UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.size: dict[int, int] = {}

    def find(self, x: int) -> int:
        p = self.parent
        if x not in p:
            p[x] = x
            self.size[x] = 1
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]

    def labels_min(self) -> dict[int, int]:
        """node → min node id of its component (deterministic cluster id
        regardless of union order)."""
        root_min: dict[int, int] = {}
        for x in self.parent:
            r = self.find(x)
            m = root_min.get(r)
            if m is None or x < m:
                root_min[r] = x
        return {x: root_min[self.find(x)] for x in self.parent}
