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
embedding operators; this stage extends the near-dedup tiers
(pipelines/dedup.py: exact, MinHash, SimHash and suffix) with the
semantic tier a training-data pipeline needs.

Two plans, same output schema ``(id, dup_of, keep)``:

* **exact** — global all-pairs via the blocked block-pair plan
  (``embedding_dup_pairs_blocked``): B·(B+1)/2 tasks each
  hold two sides of at most block_rows rows, sliced from the input's
  block refs, so memory is flat in corpus size; the O(n²) work is
  inherent to exactness.  ``dup_of`` is one
  grouped min over the pair stream (``dup_map``); keep flags reach the
  full corpus through the partition-wise left hash join
  (stages/join.py:hash_join how='left') — no driver materialization,
  no broadcast of an O(n) side.  This is the verification /
  small-corpus plan and the SQL-oracle twin.

* **clustered** — SemDeDup proper, the 100-TB plan: a deterministic
  spherical k-means coarse quantizer (``train_ivf_centroids_ref``,
  trained on a sample in one remote task)
  assigns every vector to its nearest centroid inside each pass's
  per-block task; one grouped scan co-locates each cluster; the within-
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
larger than ``HOT_CAP_FACTOR ×`` the mean, reassigning its rows to
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

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from nxsearch_ray.functions.hashing import splitmix64
from nxsearch_ray.stages.join import _wave_plan, hash_join, map_blocks
from nxsearch_ray.stages.shuffle import (Blocks, as_arrow, blocks, concat,
                                         grouped, refs, with_meta)
from nxsearch_ray.stages.signatures import list_column_numpy

OUT_SCHEMA = pa.schema([("id", pa.int64()), ("dup_of", pa.int64()),
                        ("keep", pa.bool_())])
DUP_SCHEMA = pa.schema([("b", pa.int64()), ("dup_of", pa.int64())])
CENSUS_SCHEMA = pa.schema([("cluster", pa.int64()), ("n", pa.int64())])
COSINE_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                           ("cosine", pa.float64())])

# the clustered plan's constants (a change to any of them changes the
# decisions, so run_corpus's semdedup_decisions stage_version moves
# with them): k-means training sample and Lloyd iterations, the
# hot-cluster threshold as a multiple of the mean cluster size, and
# the training sample of a hot cluster's second-level k-means
SAMPLE_CAP = 65536
KMEANS_ITERS = 10
HOT_CAP_FACTOR = 3.0
SUB_SAMPLE_CAP = 16384


def _embedding_matrix(batch: pa.Table, col: str,
                      dtype=np.float64) -> np.ndarray:
    flat, off = list_column_numpy(batch.column(col), dtype=dtype)
    dim = off[1] - off[0] if len(off) > 1 else 0
    return flat.reshape(-1, int(dim))


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _first_of_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct (a, b) pair.

    lexsort-based so arbitrary int64 ids work (no 2^32 packing
    assumption)."""
    order = np.lexsort((b, a))
    sa, sb = a[order], b[order]
    new = np.concatenate(
        ([True], (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])))
    return order[new]


@ray.remote
def _train(emb_col: str, nlist: int, seed: int, sample_cap: int,
           cluster, *parts) -> np.ndarray:
    """``train_ivf_centroids_ref``'s k-means over the first
    ``sample_cap`` rows of ``parts`` in order (only the rows of
    ``cluster``, when it is not None: a hot cluster's sub-sample)."""
    # per-block extraction, not one concatenated table: blocks can
    # disagree on Arrow metadata (Parquet round trips rename the list
    # child item->element)
    mats, n = [], 0
    for t in map(as_arrow, parts):
        if cluster is not None and t.num_rows:
            t = t.filter(pc.equal(t.column("cluster"), cluster))
        t = t.slice(0, sample_cap - n)
        if t.num_rows:
            mats.append(_embedding_matrix(t, emb_col))
            n += t.num_rows
        if n == sample_cap:
            break
    if not mats:
        return np.zeros((0, 0), dtype=np.float64)
    mat = _normalize(np.vstack(mats))
    n = len(mat)
    k = min(nlist, n)
    rank = np.argsort(splitmix64(
        np.arange(n, dtype=np.uint64) ^ np.uint64(seed)))
    # greedy farthest-point init, O(n·k·dim) via a running
    # max-cos array; ties broken by sample order (deterministic)
    idx = np.empty(k, dtype=np.int64)
    idx[0] = rank[0]
    best = mat @ mat[idx[0]]
    for j in range(1, k):
        idx[j] = int(best.argmin())
        np.maximum(best, mat @ mat[idx[j]], out=best)
    cent = mat[idx].copy()
    for _ in range(KMEANS_ITERS):
        sim = mat @ cent.T
        assign = sim.argmax(axis=1)
        sums = np.zeros_like(cent)
        np.add.at(sums, assign, mat)
        norms = np.linalg.norm(sums, axis=1, keepdims=True)
        moved = norms[:, 0] > 0
        cent[moved] = sums[moved] / norms[moved]
        if not moved.all():
            # reseed each empty cluster to the row currently
            # farthest from its own best centroid (deterministic)
            far = np.argsort(sim.max(axis=1), kind="stable")
            dead = np.nonzero(~moved)[0]
            cent[dead] = mat[far[:len(dead)]]
    return cent


def train_ivf_centroids_ref(emb_ds, nlist: int, *,
                            emb_col: str = "embedding",
                            seed: int = 42,
                            sample_cap: int = SAMPLE_CAP):
    """Deterministic spherical k-means over a corpus sample, trained
    in ONE remote task (the driver never holds the sample).  Returns
    an ObjectRef to the (nlist, dim) L2-normalized centroid matrix.

    Init is deterministic FARTHEST-POINT (greedy k-means++: first
    center by splitmix64 rank, each next center the sample row with
    the smallest max-cosine to the chosen set) — random-row init
    measurably degenerates on corpora of many tight cones (one
    centroid captures the directions no init row covered and Lloyd
    cannot escape the local optimum; profiled as a 165k-row mega-
    cluster, 10% of the corpus, on the semantic-dedup bench).  Lloyd
    iterations assign by max cosine and re-normalize the mean; a
    cluster that comes back EMPTY is reseeded to the row farthest
    from the current centroid set instead of keeping a dead centroid.
    Scale note: the sample is the first ``sample_cap`` rows in block
    order, and the blocks' row counts pick the blocks that hold it,
    so the task reads only those."""
    listed = [(p, m.num_rows) for p, m in blocks(emb_ds) if m.num_rows]
    before = np.cumsum([0] + [n for _, n in listed])
    return _train.remote(emb_col, nlist, seed, sample_cap, None, *[
        p for (p, _), b in zip(listed, before) if b < sample_cap])


@ray.remote(num_returns=2)
def _block_pair(threshold: float, id_col: str, emb_col: str, ranges_i,
                ranges_j, *parts):
    """One block pair's ``(a, b, cosine)`` rows, ``a < b``, cosine at
    least ``threshold`` (``with_meta``).  A side is its row ranges
    ``(start, length)`` of its parts (side i's parts first); side j is
    side i when ``ranges_j`` is empty."""
    def side(ranges, ps):
        return concat([as_arrow(p, s, n)
                       for p, (s, n) in zip(ps, ranges)])

    bi = side(ranges_i, parts[:len(ranges_i)])
    same = not ranges_j
    bj = bi if same else side(ranges_j, parts[len(ranges_i):])
    ids_i = bi.column(id_col).to_numpy()
    ids_j = bj.column(id_col).to_numpy()
    mi = _normalize(_embedding_matrix(bi, emb_col))
    mj = _normalize(_embedding_matrix(bj, emb_col))
    sims = mi @ mj.T
    ii, jj = np.nonzero(sims >= threshold)
    a, b = ids_i[ii], ids_j[jj]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo < hi                       # drops self-pairs on same-block
    lo, hi, cos = lo[keep], hi[keep], sims[ii, jj][keep]
    if same and len(lo):
        # same-block sims is symmetric: each pair surfaced twice
        first = _first_of_pairs(lo, hi)
        lo, hi, cos = lo[first], hi[first], cos[first]
    return with_meta(pa.Table.from_arrays(
        [pa.array(lo, type=pa.int64()), pa.array(hi, type=pa.int64()),
         pa.array(cos, type=pa.float64())], schema=COSINE_SCHEMA))


def embedding_dup_pairs_blocked(emb_ds, *, threshold: float = 0.9,
                                id_col: str = "vec_id",
                                emb_col: str = "embedding",
                                block_rows: int = 8192):
    """Exact all-pairs cosine ≥ threshold — the distributed block-pair
    plan: the corpus's rows are cut into B sides of at most
    ``block_rows`` rows each, as row ranges of its block refs (read from
    the blocks' row counts; nothing is copied), and B·(B+1)/2 remote
    tasks each slice two sides from their blocks and emit their pair
    fragment.  The O(n²) work is inherent to exactness, but no process
    ever holds more than two sides, so memory per task is
    O(block_rows·dim) at any corpus size and the quadratic work spreads
    evenly across the cluster."""
    listed = blocks(emb_ds)
    sides = _wave_plan([m.num_rows for _, m in listed], block_rows, 1)
    if not sides:
        return Blocks.of(COSINE_SCHEMA.empty_table())
    parts = [[listed[i][0] for i, _, _ in sd] for sd in sides]
    ranges = [[(s, n) for _, s, n in sd] for sd in sides]
    return Blocks.submit(
        _block_pair.remote(threshold, id_col, emb_col, ranges[i],
                           [] if i == j else ranges[j], *parts[i],
                           *([] if i == j else parts[j]))
        for i in range(len(sides)) for j in range(i, len(sides)))


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

    return grouped(pairs_ds, ["b"], fn, DUP_SCHEMA,
                   split_map=lambda t: t.select(["a", "b"]))


def semantic_dedup_exact(emb_ds, *, eps: float = 0.4,
                         id_col: str = "vec_id",
                         emb_col: str = "embedding",
                         block_rows: int = 8192):
    """Exact plan: global pairs -> per-victim min -> partition-wise
    left join of keep flags onto the corpus ids."""
    pairs = embedding_dup_pairs_blocked(
        emb_ds, threshold=eps, id_col=id_col, emb_col=emb_col,
        block_rows=block_rows)
    # the dup map is pinned (grouped runs when called): two int64s per
    # DROPPED doc, object-store resident — never on the driver; the
    # corpus crosses the join as its ids alone (projected in its split)
    joined = hash_join(
        emb_ds, dup_map(pairs), left_key=id_col, right_key="b",
        left_schema=pa.schema([(id_col, pa.int64())]),
        right_schema=DUP_SCHEMA, how="left")

    def finish(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        dup = np.asarray(t.column("dup_of_r").fill_null(-1).to_numpy(
            zero_copy_only=False), dtype=np.int64)
        return _finalize(ids, dup)

    return map_blocks(joined, finish, OUT_SCHEMA)


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


def _assign(id_col: str, emb_col: str, cent: np.ndarray, splits,
            t: pa.Table) -> pa.Table:
    """A block's ``(id, embedding, cluster)`` rows: each row's nearest
    centroid of ``cent``, then, per resplit round ``(subc, stride)``,
    a row of a split cluster c goes to ``c·stride`` plus its nearest
    of c's sub-centroids ``subc[c]`` (every other row to
    ``cluster·stride``) — recomputed by each pass that needs it."""
    mat = _normalize(_embedding_matrix(t, emb_col, dtype=np.float32))
    cl = _det_argmax(mat, cent)
    for subc, stride in splits:
        prev, cl = cl, cl * stride
        for c, cm in subc.items():
            rows = np.nonzero(prev == c)[0]
            if len(rows):
                cl[rows] += _det_argmax(mat[rows], cm)
    return t.select([id_col, emb_col]).append_column(
        "cluster", pa.array(cl))


def _census_part(assign, t: pa.Table) -> pa.Table:
    vc = pc.value_counts(assign(t).column("cluster"))
    return pa.table([vc.field("values"), vc.field("counts").cast(pa.int64())],
                    schema=CENSUS_SCHEMA)


def _only_hot(assign, emb_col: str, hot: pa.Array, t: pa.Table) -> pa.Table:
    t = assign(t)
    return t.select([emb_col, "cluster"]).filter(
        pc.is_in(t.column("cluster"), value_set=hot))


def semantic_dedup_clustered(emb_ds, *, eps: float = 0.4,
                             nlist: int = 64, seed: int = 42,
                             id_col: str = "vec_id",
                             emb_col: str = "embedding"):
    """Clustered plan (SemDeDup proper).  One sample-trained k-means,
    a cluster-size census with second-level k-means inside hot
    clusters (> ``HOT_CAP_FACTOR`` × mean; see module docstring), one
    grouped scan, blocked in-cluster matmuls.  Drops are a sound
    subset of the exact rule's.

    Every pass is a task wave over the input's blocks: the census
    (``map_blocks``), the pin of the hot clusters' rows (``map_blocks``)
    and the grouped scan, whose split assigns each block's rows
    (``_assign``).  The assignment is recomputed by each pass rather
    than pinned: recompute here is one small matmul per block, while
    pinning an (id, embedding, cluster) copy of the corpus in the
    object store at 100 TB would be all spill traffic."""
    cent = ray.get(train_ivf_centroids_ref(
        emb_ds, nlist, emb_col=emb_col, seed=seed))  # (nlist, dim) — tiny
    if cent.size == 0:
        return Blocks.of(OUT_SCHEMA.empty_table())
    cent = np.ascontiguousarray(cent, dtype=np.float32)

    # RECURSIVE re-split: one sub-k-means round can leave a still-
    # hot subgroup (a bad local optimum before the farthest-point
    # init fix, or simply a very large cone), so census -> split
    # repeats until no hot group remains, the round made no
    # progress (a point mass of identical vectors, which k-means
    # cannot split and the identical-row collapse in _cluster_rule
    # handles for free), or the round cap is hit.  Each census /
    # resplit is a corpus pass — rounds beyond the first only happen
    # when the previous one actually shrank the max.
    splits: list = []
    prev_max = None
    for _round in range(3):
        assign = functools.partial(_assign, id_col, emb_col, cent,
                                   tuple(splits))
        # the census sums per-block value counts (a grouped count would
        # exchange the embeddings too): n_blocks × n_clusters tiny rows
        census = pa.concat_tables(ray.get(refs(map_blocks(
            emb_ds, functools.partial(_census_part, assign),
            CENSUS_SCHEMA)))).group_by("cluster").aggregate([("n", "sum")])
        sizes = dict(zip(census["cluster"].to_pylist(),
                         census["n_sum"].to_pylist()))
        mean = sum(sizes.values()) / max(len(sizes), 1)
        hot = {c: s for c, s in sizes.items()
               if s > HOT_CAP_FACTOR * mean and s > 1}
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
        # one corpus pass pins ONLY the hot clusters' rows (the hot
        # fraction of the corpus, object-store resident); each hot
        # cluster's train task filters its sub-sample from them
        hot_rows = refs(map_blocks(emb_ds, functools.partial(
            _only_hot, assign, emb_col,
            pa.array(sorted(hot), pa.int64())), pa.schema([
                (emb_col, pa.list_(pa.float32())),
                ("cluster", pa.int64())])))
        sub_refs = {
            c: _train.remote(emb_col, int(np.ceil(s / mean)),
                             seed + 1000003 * (c + 1) + 7919 * _round,
                             SUB_SAMPLE_CAP, c, *hot_rows)
            for c, s in hot.items()}
        subc = {c: np.ascontiguousarray(ray.get(r), dtype=np.float32)
                for c, r in sub_refs.items()}
        # disjoint relabel: cluster -> cluster*stride + sub_idx
        # (sub_idx 0 for cold clusters), stride fixed by the census
        splits.append((subc, 1 + max(len(m) for m in subc.values())))

    rule = _cluster_rule(eps, id_col, emb_col)

    def per_cluster(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ends = np.append(starts[1:], t.num_rows)
        return pa.concat_tables([rule(t.slice(i, j - i))
                                 for i, j in zip(starts, ends)])

    return grouped(emb_ds, ["cluster"], per_cluster, OUT_SCHEMA,
                   split_map=functools.partial(_assign, id_col, emb_col,
                                               cent, tuple(splits)))
