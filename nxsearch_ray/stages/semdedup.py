"""SemDeDup — semantic deduplication over an embedding column.

The dedup rule (Abbas et al., "SemDeDup: Data-efficient learning at
web-scale through semantic deduplication", arXiv:2303.09540, public):
keep one representative per epsilon-ball of embedding-cosine space.
We make the paper's "keep a random example" deterministic by keeping
the LOWEST id: a document x is dropped iff some document y with
``y < x`` has ``cos(x, y) >= eps``; its ``dup_of`` is the smallest
such y.  This matches the paper's within-cluster construction — zero
the lower triangle of the similarity matrix, drop rows whose max
remaining similarity exceeds eps — with id order as the tie-break.

Reference parity note: the reference engine (rmind/nxsearch) has no
embedding operators; this stage extends the near-dedup tier family
(pipelines/dedup.py MinHash tier, stages/setsim.py ngram tier) with
the semantic tier a training-data pipeline needs.

Two plans, same output schema ``(id, dup_of, keep)``:

* **exact** — global all-pairs via the blocked block-pair plan
  (stages/ann.py:embedding_dup_pairs_blocked): B·(B+1)/2 tasks each
  hold two O(block_rows·dim) blocks, so memory is flat in corpus
  size; the O(n²) work is inherent to exactness.  ``dup_of`` is one
  grouped min over the pair stream (``dup_map``); keep flags reach the
  full corpus through the partition-wise left hash join
  (stages/join.py:hash_join how='left') — no driver materialization,
  no broadcast of an O(n) side.  This is the verification /
  small-corpus plan and the SQL-oracle twin.

* **clustered** — SemDeDup proper, the 100-TB plan: a deterministic
  spherical k-means coarse quantizer (stages/ann.py:
  train_ivf_centroids_ref, trained on a sample in one remote task)
  assigns every vector to its nearest centroid in a streaming
  map_batches; one grouped scan co-locates each cluster; the within-
  cluster rule runs as a row-blocked matmul (memory
  O(block·cluster_size), never O(cluster_size²)).  Work drops to
  O(Σ n_c²) ≈ O(n²/nlist).  Approximate in exactly the paper's way —
  cross-cluster near-duplicates are missed — so its drop set is a
  SOUND SUBSET of the exact rule's (a within-cluster eps-neighbor is
  a global eps-neighbor); gated in tests: subset on the sandbox
  table, equality at nlist=1, and planted-duplicate recall (identical
  vectors always share a cluster, so exact copies can never escape).

Partitioning assumption (clustered plan): cluster sizes are within a
few × of balanced.  k-means on real embedding corpora yields this
(the paper uses 11k clusters for 100M+ docs), but Lloyd can and does
leave hot clusters (the sandbox bench corpus converges with one
cluster at 6.4× the mean, which then holds ~40% of the quadratic
work as a single serial straggler task).  The plan therefore
mechanizes its own remedy: a cluster-size census (``nlist`` rows —
tiny), then a second-level spherical k-means INSIDE any cluster
larger than ``hot_cap_factor ×`` the mean, reassigning its rows to
sub-clusters before the grouped scan.  Identical vectors still always
share a (sub-)cluster — guaranteed by ``_det_argmax``, not by GEMM
alone (see its docstring for why BLAS breaks this) — so
planted-duplicate recall is untouched, and drops remain a sound
subset of the exact rule's; near-boundary pairs split across
sub-clusters are missed, the same approximation raising ``nlist``
would make.  One split level only: a corpus whose sub-clusters are
still degenerate (all-identical directions) is quadratic by nature.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from nxsearch_ray.stages.ann import (_embedding_matrix, _normalize,
                                     embedding_dup_pairs_blocked,
                                     train_ivf_centroids_ref)
from nxsearch_ray.stages.shuffle import grouped

OUT_SCHEMA = pa.schema([("id", pa.int64()), ("dup_of", pa.int64()),
                        ("keep", pa.bool_())])
DUP_SCHEMA = pa.schema([("b", pa.int64()), ("dup_of", pa.int64())])


def _det_argmax(mat32: np.ndarray, cent32: np.ndarray) -> np.ndarray:
    """Nearest-centroid argmax that depends only on each row's bytes,
    never on which batch the row arrived in.

    A plain ``(mat @ cent.T).argmax(1)`` does NOT have that property:
    BLAS picks its GEMM micro-kernel (and thus the FMA reduction
    order) from the matrix SHAPES, so the same vector in two batches
    of different sizes can score a near-tied centroid pair both ways
    — observed on the bench corpus, where one of 40k byte-identical
    vectors landed in a different sub-cluster than its twins and
    escaped the dedup rule.  Rows whose top-2 margin is wider than
    float32 GEMM rounding are shape-stable already; the rest are
    recomputed with a fixed-order float64 broadcast-multiply
    reduction (numpy pairwise sum over the last axis — order fixed by
    ``dim`` alone), which identical bytes can never disagree on."""
    s = mat32 @ cent32.T
    k = s.shape[1]
    out = s.argmax(axis=1).astype(np.int64)
    if k == 1:
        return out
    top2 = np.partition(s, k - 2, axis=1)[:, -2:]
    # float32 GEMM worst-case reduction error grows ~dim·u for unit
    # vectors, so a fixed margin under-covers at dim ≳ 2000; scale it
    tie = (top2[:, 1] - top2[:, 0]) < max(1e-4, 8e-8 * mat32.shape[1])
    if tie.any():
        c64 = cent32.astype(np.float64)
        s64 = (mat32[tie, None, :].astype(np.float64)
               * c64[None]).sum(axis=2)
        out[tie] = s64.argmax(axis=1)
    return out


def _finalize(ids: np.ndarray, dup_of: np.ndarray) -> pa.Table:
    """(id, dup_of, keep) with the kept-row sentinel dup_of = -1."""
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.int64()),
         pa.array(dup_of, type=pa.int64()),
         pa.array(dup_of < 0)], schema=OUT_SCHEMA)


def dup_map(pairs_ds):
    """``(b, dup_of)`` per victim ``b`` of an ``(a, b, …)`` dup-pair
    stream, ``dup_of`` its smallest ``a``: the rule's lowest-id
    earlier neighbor, one grouped scan (stages/shuffle.grouped)."""
    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return pa.table([
            t.column("b").to_numpy()[starts],
            np.minimum.reduceat(t.column("a").to_numpy(), starts)],
            schema=DUP_SCHEMA)

    return grouped(pairs_ds.select_columns(["a", "b"]), ["b"], fn,
                   DUP_SCHEMA)


def semantic_dedup_exact(emb_ds, *, eps: float = 0.4,
                         id_col: str = "vec_id",
                         emb_col: str = "embedding",
                         block_rows: int = 8192):
    """Exact plan: global pairs -> per-victim min -> partition-wise
    left join of keep flags onto the corpus ids."""
    from nxsearch_ray.stages.join import hash_join

    pairs = embedding_dup_pairs_blocked(
        emb_ds, threshold=eps, id_col=id_col, emb_col=emb_col,
        block_rows=block_rows)
    # the dup map is pinned (grouped runs when called): two int64s per
    # DROPPED doc, object-store resident — never on the driver
    joined = hash_join(
        emb_ds.select_columns([id_col]), dup_map(pairs),
        left_key=id_col, right_key="b",
        left_schema=pa.schema([(id_col, pa.int64())]),
        right_schema=DUP_SCHEMA, how="left")

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or t.num_columns == 0:
            return OUT_SCHEMA.empty_table()
        ids = t.column(id_col).to_numpy()
        dup = np.asarray(t.column("dup_of_r").fill_null(-1).to_numpy(
            zero_copy_only=False), dtype=np.int64)
        return _finalize(ids, dup)

    return joined.map_batches(finish, batch_format="pyarrow")


def _cluster_rule(eps: float, id_col: str, emb_col: str,
                  row_block: int = 4096, band: float = 1e-5):
    """Within-cluster SemDeDup rule as a per-cluster fn: sort by id,
    then for each row the smallest EARLIER row with cos >= eps.  The
    similarity matrix is computed in row blocks so memory stays
    O(row_block · cluster_size) whatever the cluster size.

    Computed in float32 — the embeddings' storage dtype — so the GEMM
    does half the flops and half the memory traffic of a float64
    kernel (profiled 3.6× end-to-end on the 400k-vector bench corpus).
    The exact plan keeps float64 for DuckDB-oracle parity; to keep the
    clustered plan's drops a subset of the exact rule's even for pairs
    near the threshold, any similarity within ``band`` of eps is
    RECOMPUTED in float64 (normalized in float64 from the raw column,
    fixed-order einsum) before the >= decision — the float32 fast path
    decides only pairs with a margin wider than GEMM rounding.  Near-
    threshold entries are rare, so the float64 matrix is built lazily
    and the recompute touches O(near) elements, not O(n²).

    The eligible-row split below avoids materializing an (e, e-s)
    triangle mask per block: rows [0, s) are earlier than every column
    by construction, so only the small (block × block) diagonal needs
    masking — and only for columns the cheap top pass left unmatched
    (with a match above, the top hit is already the global min id)."""

    def fn(g: pa.Table) -> pa.Table:
        ids = g.column(id_col).to_numpy()
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        mat = _normalize(
            _embedding_matrix(g, emb_col, dtype=np.float32))[order]
        n = len(ids)
        if n == 0 or mat.shape[1] == 0:
            return _finalize(ids, np.full(n, -1, dtype=np.int64))

        m64_cache: list[np.ndarray] = []

        def mat64() -> np.ndarray:
            if not m64_cache:
                m64_cache.append(_normalize(_embedding_matrix(
                    g, emb_col, dtype=np.float64))[order])
            return m64_cache[0]

        def ge_eps(s32: np.ndarray, rows_a: np.ndarray,
                   rows_b: np.ndarray) -> np.ndarray:
            """Elementwise ``cos >= eps`` with float64 recompute of
            near-threshold entries.  rows_a / rows_b are the global
            (sorted-order) row indices of s32's rows / columns."""
            out = s32 >= eps
            near = np.abs(s32 - np.float32(eps)) < band
            if near.any():
                m64 = mat64()
                ii, jj = np.nonzero(near)
                s64 = np.einsum("ij,ij->i", m64[rows_a[ii]],
                                m64[rows_b[jj]])
                out[ii, jj] = s64 >= eps
            return out

        # similarity entries >= this float32 bound MAY be matches
        # (everything below is decided "no" without the bool matrix)
        cut = np.float32(eps) - np.float32(band)

        def rule(rows: np.ndarray) -> np.ndarray:
            """dup_of over the sub-matrix mat[rows] (rows sorted).

            Post-GEMM work runs only on columns whose MAX similarity
            clears ``eps - band``: at real thresholds almost every
            column has no match, and the dense bool-matrix passes
            (>=, any, argmax — all memory-bound) were measured to
            dominate the GEMM itself on the 1.6M-vector bench.  One
            column-max pass decides "no match" per column; the full
            machinery touches only the few candidate columns."""
            rids = ids[rows]
            rmat = mat[rows]
            k = len(rows)
            dup = np.full(k, -1, dtype=np.int64)
            for s in range(0, k, row_block):
                e = min(s + row_block, k)
                blk = rmat[s:e]
                m = e - s
                any_top = np.zeros(m, dtype=bool)
                if s:
                    s32 = rmat[:s] @ blk.T                # (s, m)
                    cand = np.nonzero(s32.max(axis=0) >= cut)[0]
                    if len(cand):
                        hit = ge_eps(s32[:, cand], rows[:s],
                                     rows[s:e][cand])
                        any_c = hit.any(axis=0)
                        first = hit.argmax(axis=0)  # first True = min
                        any_top[cand[any_c]] = True
                        dup[s + cand[any_c]] = rids[first[any_c]]
                need = np.nonzero(~any_top)[0]    # block offsets
                if len(need):
                    d32 = blk @ blk[need].T               # (m, |need|)
                    # row i eligible for column j iff i < need[j]
                    elig = np.arange(m)[:, None] < need[None, :]
                    d32 = np.where(elig, d32, np.float32(-2.0))
                    candd = np.nonzero(d32.max(axis=0) >= cut)[0]
                    if len(candd):
                        dd = ge_eps(d32[:, candd], rows[s:e],
                                    rows[s:e][need[candd]])
                        any_d = dd.any(axis=0)
                        firstd = dd.argmax(axis=0)
                        dup[s + need[candd[any_d]]] = \
                            rids[s + firstd[any_d]]
            return dup

        # Collapse byte-identical rows before the quadratic rule —
        # web corpora carry giant exact-duplicate groups (boilerplate
        # pages), and the GEMM over such a group is pure waste.  For a
        # non-minimal member x of an identical group with minimal
        # member r: cos(x, ·) == cos(r, ·) and x's eligible set is
        # r's plus rows in [r, x) — all >= r — so
        # dup_of[x] = dup_of[r] when that exists (it is < r), else r
        # itself (cos(x, r) = 1 >= eps).  The rule among
        # representatives alone is exact: any neighbor reachable via
        # a group member is reachable via its (smaller-id) rep.
        # Two guards on the cos(x, r) = 1 justification: it needs
        # eps <= 1, and it fails for ZERO-NORM rows (_normalize maps
        # them to zero vectors — byte-identical, yet cos = 0), so each
        # zero row stays its own representative and flows through the
        # rule like any other row.
        key = np.ascontiguousarray(mat).view(np.dtype(
            (np.void, mat.dtype.itemsize * mat.shape[1]))).ravel()
        _, first, inv = np.unique(key, return_index=True,
                                  return_inverse=True)
        r = first[inv]                        # each row's rep row
        zr = np.nonzero(~mat.any(axis=1))[0]
        r[zr] = zr
        rep_mask = np.zeros(n, dtype=bool)
        rep_mask[r] = True
        reps = np.nonzero(rep_mask)[0]        # rep rows in id order
        if len(reps) < n and eps <= 1.0 - band:
            sub = rule(reps)
            rep_dup = np.full(n, -1, dtype=np.int64)
            rep_dup[reps] = sub
            dup = rep_dup[r].copy()
            member = (np.arange(n) != r) & (dup < 0)
            dup[member] = ids[r[member]]
        else:
            dup = rule(np.arange(n))
        return _finalize(ids, dup)

    return fn


def _cluster_census(assigned) -> dict[int, int]:
    """{cluster: rows} from per-block ``value_counts`` partials — a
    grouped count would exchange the whole table, embeddings included
    (the label column is 1/70th of the bytes).  Each fetched
    partial is bounded by the live cluster count, so the driver
    combines at most ``n_blocks × n_clusters`` tiny rows."""
    import pyarrow.compute as pc
    import ray

    def partial(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t.column("cluster"))
        return pa.table({"cluster": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    tabs = [t for t in ray.get(
        assigned.map_batches(partial, batch_format="pyarrow")
        .to_arrow_refs()) if t.num_rows]
    out: dict[int, int] = {}
    for t in tabs:
        for c, n in zip(t.column("cluster").to_pylist(),
                        t.column("n").to_pylist()):
            out[c] = out.get(c, 0) + n
    return out


def semantic_dedup_clustered(emb_ds, *, eps: float = 0.4,
                             nlist: int = 64, seed: int = 42,
                             id_col: str = "vec_id",
                             emb_col: str = "embedding",
                             sample_cap: int = 65536,
                             centroids_ref=None,
                             hot_cap_factor: float = 3.0,
                             sub_sample_cap: int = 16384):
    """Clustered plan (SemDeDup proper).  One sample-trained k-means,
    one streaming assignment pass, a cluster-size census with second-
    level k-means inside hot clusters (> ``hot_cap_factor`` × mean;
    see module docstring), one grouped scan, blocked in-cluster
    matmuls.
    Drops are a sound subset of the exact rule's.

    The assignment pass is recomputed by the census / sub-train /
    final passes rather than materialized: recompute here is a cheap
    column-pruned read + one small matmul, while pinning an
    (id, embedding, cluster) copy of the corpus in the object store
    at 100 TB would be all spill traffic."""
    import ray

    if centroids_ref is None:
        centroids_ref = train_ivf_centroids_ref(
            emb_ds, nlist, emb_col=emb_col, seed=seed,
            sample_cap=sample_cap)
    cent = ray.get(centroids_ref)                # (nlist, dim) — tiny
    if cent.size == 0:
        return emb_ds.limit(0).map_batches(
            lambda t: OUT_SCHEMA.empty_table(), batch_format="pyarrow")
    cent = np.ascontiguousarray(cent, dtype=np.float32)

    def assign(batch: pa.Table) -> pa.Table:
        mat = _normalize(
            _embedding_matrix(batch, emb_col, dtype=np.float32))
        cl = _det_argmax(mat, cent)
        return batch.select([id_col, emb_col]).append_column(
            "cluster", pa.array(cl))

    assigned = emb_ds.map_batches(assign, batch_format="pyarrow")

    if hot_cap_factor:
        # RECURSIVE re-split: one sub-k-means round can leave a still-
        # hot subgroup (a bad local optimum before the farthest-point
        # init fix, or simply a very large cone), so census -> split
        # repeats until no hot group remains, the round made no
        # progress (a point mass of identical vectors, which k-means
        # cannot split and the identical-row collapse in _cluster_rule
        # handles for free), or the round cap is hit.  Each census /
        # resplit is a streaming corpus pass — rounds beyond the first
        # only happen when the previous one actually shrank the max.
        prev_max = None
        for _round in range(3):
            sizes = _cluster_census(assigned)
            mean = sum(sizes.values()) / max(len(sizes), 1)
            hot = {c: s for c, s in sizes.items()
                   if s > hot_cap_factor * mean and s > 1}
            if not hot:
                break
            cur_max = max(hot.values())
            # require MEANINGFUL progress: a point mass of identical
            # vectors sheds only its few genuine cone-mates per round
            # (165617 -> 160022 profiled) — k-means can never split
            # it, and the identical-row collapse scores it in O(n)
            if prev_max is not None and cur_max >= 0.9 * prev_max:
                break
            prev_max = cur_max
            # one corpus pass pins ONLY the hot clusters' rows (the
            # hot fraction of the corpus, object-store resident); the
            # per-cluster training filters then scan that subset
            # instead of re-running read+assign once per hot cluster
            hot_keys = pa.array(np.array(sorted(hot), dtype=np.int64))

            def only_hot(t: pa.Table, keys=hot_keys) -> pa.Table:
                import pyarrow.compute as pc

                return t.filter(pc.is_in(t.column("cluster"),
                                         value_set=keys))

            hot_ds = assigned.map_batches(
                only_hot, batch_format="pyarrow").materialize()
            sub_refs = {
                c: train_ivf_centroids_ref(
                    hot_ds.filter(expr=f"cluster == {c}"),
                    int(np.ceil(s / mean)), emb_col=emb_col,
                    seed=seed + 1000003 * (c + 1) + 7919 * _round,
                    sample_cap=sub_sample_cap)
                for c, s in hot.items()}
            subc = {c: np.ascontiguousarray(ray.get(r),
                                            dtype=np.float32)
                    for c, r in sub_refs.items()}
            # disjoint relabel: cluster -> cluster*stride + sub_idx
            # (sub_idx 0 for cold clusters), stride fixed by the census
            stride = 1 + max(len(m) for m in subc.values())

            def resplit(batch: pa.Table, subc=subc,
                        stride=stride) -> pa.Table:
                cl = batch.column("cluster").to_numpy() * stride
                mat = None
                for c, cm in subc.items():
                    rows = np.nonzero(
                        batch.column("cluster").to_numpy() == c)[0]
                    if not len(rows):
                        continue
                    if mat is None:
                        mat = _normalize(_embedding_matrix(
                            batch, emb_col, dtype=np.float32))
                    cl[rows] += _det_argmax(mat[rows], cm)
                return batch.drop_columns(["cluster"]).append_column(
                    "cluster", pa.array(cl))

            assigned = assigned.map_batches(resplit,
                                            batch_format="pyarrow")

    rule = _cluster_rule(eps, id_col, emb_col)

    def per_cluster(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ends = np.append(starts[1:], t.num_rows)
        return pa.concat_tables([rule(t.slice(i, j - i))
                                 for i, j in zip(starts, ends)])

    return grouped(assigned, ["cluster"], per_cluster, OUT_SCHEMA)


def run_semdedup(emb_ds, *, eps: float = 0.4, nlist: int = 64,
                 seed: int = 42, id_col: str = "vec_id",
                 emb_col: str = "embedding", sample_cap: int = 65536,
                 hot_cap_factor: float = 3.0,
                 sub_sample_cap: int = 16384,
                 out_dir: str | None = None,
                 fingerprint: str | None = None):
    """Checkpoint-resumable semantic tier (the flagship's lineage
    discipline, state/lineage.py): with ``out_dir`` set, the decision
    table ``(id, dup_of, keep)`` is materialized to
    ``{out_dir}/semdedup_decisions/`` as partitioned Parquet with a
    lineage manifest keyed by the parameter hash and ``fingerprint``
    (the caller's input fingerprint); a re-run under the same
    parameters and fingerprint loads the checkpoint instead of redoing
    the quadratic work, and a change to either invalidates it.
    Returns ``(dataset, stats)`` with the resumed flag and stage
    wall."""
    import time

    from nxsearch_ray.state.lineage import StageParams, checkpoint

    params = StageParams(
        eps=eps, nlist=nlist, seed=seed, id_col=id_col,
        emb_col=emb_col, sample_cap=sample_cap,
        hot_cap_factor=hot_cap_factor,
        sub_sample_cap=sub_sample_cap, stage_version=1)
    stats: dict = {}
    t0 = time.monotonic()
    ds, skipped = checkpoint(
        lambda: semantic_dedup_clustered(
            emb_ds, eps=eps, nlist=nlist, seed=seed, id_col=id_col,
            emb_col=emb_col, sample_cap=sample_cap,
            hot_cap_factor=hot_cap_factor,
            sub_sample_cap=sub_sample_cap),
        out_dir, "semdedup_decisions", params, fingerprint)
    stats["semdedup_decisions_resumed"] = skipped
    stats["wall_semdedup"] = round(time.monotonic() - t0, 2)
    return ds, stats
