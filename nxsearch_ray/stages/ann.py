"""Similarity search over an embedding column (`list<float>`).

Three plans:

  * **Brute-force cosine top-k** (baseline, exact): the query matrix is
    broadcast once (`ray.put`); every batch does one float64 matmul
    against it and emits its local top-k per query (partial top-k
    combiner); a final small grouped scan keeps the global top-k.  No
    full-corpus materialization — the big side streams.
  * **LSH-bucketed** (scale path): random-hyperplane sign bits bucket
    the corpus; queries probe only their bucket (+ optional
    multiprobe by flipping low-confidence bits).  Approximate; recall
    measured against brute force in tests.
  * **IVF-flat** (scale path): deterministic spherical k-means coarse
    quantizer trained on a sample; queries probe their ``nprobe``
    nearest lists and brute-force rerank only those lists'
    members.  Approximate; recall measured against brute force in
    tests.

Also: embedding-cosine near-duplicate pairs (all pairs with cosine ≥
threshold) via the same hyperplane bucketing.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.hashing import splitmix64
from nxsearch_ray.stages.pairs import pairs_within
from nxsearch_ray.stages.signatures import list_column_numpy

TOPK_SCHEMA = pa.schema([("qid", pa.int64()), ("vec_id", pa.int64()),
                         ("score", pa.float64())])


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


class BruteForceTopK:
    """Per-worker kernel over the fetched queries ``q`` (``qids``,
    ``vectors``): per-batch matmul + local top-k per query."""

    def __init__(self, q: dict, k: int, id_col: str = "vec_id",
                 emb_col: str = "embedding"):
        self.qids = np.asarray(q["qids"], dtype=np.int64)
        self.qmat = _normalize(np.asarray(q["vectors"], dtype=np.float64))
        self.k = k
        self.id_col = id_col
        self.emb_col = emb_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy()
        mat = _normalize(_embedding_matrix(batch, self.emb_col))
        sims = mat @ self.qmat.T                     # (n, nq)
        k = min(self.k, sims.shape[0])
        out_q, out_v, out_s = [], [], []
        for j in range(sims.shape[1]):
            col = sims[:, j]
            if k < len(col):
                # exact batch-local top-k under the SAME total order as
                # the final merge (score desc, vec_id asc): keep every
                # element tied with the k-th score, then lexsort the
                # candidates — a tie at the boundary can otherwise drop
                # the lower vec_id batch-locally
                cut = np.partition(-col, k - 1)[k - 1]
                cand = np.nonzero(-col <= cut)[0]
                top = cand[np.lexsort((ids[cand], -col[cand]))][:k]
            else:
                top = np.arange(len(col))
            out_q.append(np.full(len(top), self.qids[j], dtype=np.int64))
            out_v.append(ids[top])
            out_s.append(col[top])
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(out_q)),
             pa.array(np.concatenate(out_v)),
             pa.array(np.concatenate(out_s), type=pa.float64())],
            schema=TOPK_SCHEMA)


def brute_force_topk(emb_ds, queries_ref, k: int, *,
                     id_col: str = "vec_id", emb_col: str = "embedding"):
    """Global exact top-k per query: per-batch partial top-k, then one
    per-query reduce (tiny: nq × k × batches rows)."""
    from nxsearch_ray.stages.join import broadcast_map
    from nxsearch_ray.stages.shuffle import grouped

    partial = broadcast_map(emb_ds, queries_ref, functools.partial(
        BruteForceTopK, k=k, id_col=id_col, emb_col=emb_col),
        batch_size=4096)

    def final_topk(t: pa.Table, starts: np.ndarray) -> pa.Table:
        s = t.column("score").to_numpy()
        v = t.column("vec_id").to_numpy()
        ends = np.append(starts[1:], t.num_rows)
        # per query: score desc, vec_id asc
        return t.take(np.concatenate([
            i + np.lexsort((v[i:j], -s[i:j]))[:k]
            for i, j in zip(starts, ends)]))

    return grouped(partial, ["qid"], final_topk, TOPK_SCHEMA)


def hyperplane_signs(mat: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n,) uint64 sign-bit signature of each row against ≤64 planes."""
    bits = (mat @ planes.T) >= 0.0          # (n, nbits)
    out = np.zeros(len(mat), dtype=np.uint64)
    for j in range(planes.shape[0]):
        out |= bits[:, j].astype(np.uint64) << np.uint64(j)
    return out


def make_planes(dim: int, nbits: int, seed: int) -> np.ndarray:
    """Deterministic Gaussian hyperplanes from the config seed (Box-
    Muller over splitmix64 streams — no np.random state involved)."""
    n = nbits * dim
    u = (splitmix64(np.arange(2 * n, dtype=np.uint64)
                    ^ np.uint64(seed)).astype(np.float64) + 1.0) \
        / (2.0 ** 64 + 2)
    g = np.sqrt(-2.0 * np.log(u[:n])) * np.cos(2 * np.pi * u[n:])
    return g.reshape(nbits, dim)


def lsh_topk(emb_ds, queries_ref, k: int, *, nbits: int = 12,
             seed: int = 42, id_col: str = "vec_id",
             emb_col: str = "embedding", nprobes: int | None = None):
    """Approximate top-k: corpus rows keep only buckets matching some
    query signature OR one of its multiprobe variants (all single-bit
    flips by default — queries are few, so expanding the query-side
    signature set costs nq·(1+nbits) uint64s and buys the recall that
    an exact-bucket match loses), then brute-force the survivors."""
    import ray

    q = ray.get(queries_ref)
    qmat = _normalize(np.asarray(q["vectors"], dtype=np.float64))
    planes = make_planes(qmat.shape[1], nbits, seed)
    base = hyperplane_signs(qmat, planes)
    nprobes = nbits if nprobes is None else min(nprobes, nbits)
    sigs = [base]
    for j in range(nprobes):
        sigs.append(base ^ (np.uint64(1) << np.uint64(j)))
    # tiny: captured by the closure, shipped once with the serialized
    # fn — no per-batch ray.get
    q_sigs = np.unique(np.concatenate(sigs))

    def bucket_filter(batch: pa.Table) -> pa.Table:
        sigs = hyperplane_signs(
            _normalize(_embedding_matrix(batch, emb_col)), planes)
        mask = np.isin(sigs, q_sigs)
        return batch.filter(pa.array(mask))

    survivors = emb_ds.map_batches(bucket_filter, batch_format="pyarrow")
    return brute_force_topk(survivors, queries_ref, k, id_col=id_col,
                            emb_col=emb_col)


def train_ivf_centroids_ref(emb_ds, nlist: int, *,
                            emb_col: str = "embedding",
                            seed: int = 42, sample_cap: int = 65536,
                            iters: int = 10):
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
    Scale note: ``limit(sample_cap)`` streams only the blocks needed
    for the sample — the full corpus is never materialized here."""
    import ray

    refs = emb_ds.select_columns([emb_col]).limit(sample_cap) \
        .to_arrow_refs()

    @ray.remote
    def _train(*blocks):
        # per-block extraction, not concat_tables: blocks can disagree
        # on Arrow metadata (parquet round-trips rename the list child
        # item->element, and filter(expr)+select_columns+limit lineages
        # have been observed to emit the odd unprojected block)
        mats = [_embedding_matrix(b, emb_col)
                for b in blocks if b.num_rows]
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
        for _ in range(iters):
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

    return _train.remote(*refs)


def ivf_topk(emb_ds, queries_ref, k: int, *, nlist: int = 64,
             nprobe: int = 8, seed: int = 42, id_col: str = "vec_id",
             emb_col: str = "embedding", centroids_ref=None,
             sample_cap: int = 65536):
    """Approximate top-k, IVF-flat plan (the coarse-quantizer scale
    path next to ``lsh_topk``): corpus rows are assigned to their
    nearest spherical-k-means centroid per batch; only rows whose
    centroid is among some query's ``nprobe`` nearest lists survive
    to the exact brute-force rerank.  Scanned fraction ≈
    nprobe/nlist; recall vs brute force is gated in tests.

    At extreme scale the assignment would be precomputed once and the
    corpus written partitioned by list id so probes touch only their
    partitions; here assignment streams per batch (same math)."""
    import ray

    if centroids_ref is None:
        centroids_ref = train_ivf_centroids_ref(
            emb_ds, nlist, emb_col=emb_col, seed=seed,
            sample_cap=sample_cap)
    cent = ray.get(centroids_ref)      # (nlist, dim) — tiny
    q = ray.get(queries_ref)
    qmat = _normalize(np.asarray(q["vectors"], dtype=np.float64))
    if cent.size == 0 or len(qmat) == 0:
        return emb_ds.limit(0).map_batches(
            lambda t: TOPK_SCHEMA.empty_table(), batch_format="pyarrow")
    sims = qmat @ cent.T
    npb = min(nprobe, cent.shape[0])
    if npb < cent.shape[0]:
        probed = np.unique(
            np.argpartition(-sims, npb - 1, axis=1)[:, :npb])
    else:
        probed = np.arange(cent.shape[0])

    def assign_filter(batch: pa.Table) -> pa.Table:
        mat = _normalize(_embedding_matrix(batch, emb_col))
        assign = (mat @ cent.T).argmax(axis=1)
        return batch.filter(pa.array(np.isin(assign, probed)))

    survivors = emb_ds.map_batches(assign_filter, batch_format="pyarrow")
    return brute_force_topk(survivors, queries_ref, k, id_col=id_col,
                            emb_col=emb_col)


class EmbeddingDupExact:
    """Exact near-dup pairs: the full (normalized) corpus matrix is
    built once per worker from the fetched corpus ``c``; each batch
    emits its pairs against the whole corpus with a<b on vec_id.
    Exact — and O(n²) work overall — so this is the small-corpus /
    verification plan; the LSH-bucketed variant below is the scale
    path."""

    def __init__(self, c: dict, threshold: float):
        self.ids = np.asarray(c["ids"], dtype=np.int64)
        self.mat = _normalize(np.asarray(c["vectors"], dtype=np.float64))
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        mat = _normalize(_embedding_matrix(batch, "embedding"))
        sims = mat @ self.mat.T                      # (nb, N)
        bi, cj = np.nonzero(sims >= self.threshold)
        a = ids[bi]
        b = self.ids[cj]
        keep = a < b
        return pa.Table.from_arrays(
            [pa.array(a[keep], type=pa.int64()),
             pa.array(b[keep], type=pa.int64()),
             pa.array(sims[bi, cj][keep], type=pa.float64())],
            names=["a", "b", "cosine"])


def embedding_dup_pairs_exact(emb_ds, corpus_ref, *,
                              threshold: float = 0.9):
    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(emb_ds, corpus_ref, functools.partial(
        EmbeddingDupExact, threshold=threshold), batch_size=2048)


def embedding_dup_pairs_blocked(emb_ds, *, threshold: float = 0.9,
                                id_col: str = "vec_id",
                                emb_col: str = "embedding",
                                block_rows: int = 8192):
    """Exact all-pairs cosine ≥ threshold — the distributed block-pair
    plan: the corpus becomes B blocks pinned in the object store (one
    repartition; the driver holds only refs), and B·(B+1)/2 remote
    tasks each pull two blocks zero-copy and emit their pair fragment.
    The O(n²) work is inherent to exactness; what this plan removes is
    the broadcast-the-whole-matrix pattern of ``EmbeddingDupExact`` —
    no process ever holds more than two blocks, so memory per task is
    O(block_rows·dim) at any corpus size and the quadratic work spreads
    evenly across the cluster."""
    import ray
    import ray.data as rd

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("cosine", pa.float64())])

    n = emb_ds.count()
    nblocks = max(1, -(-n // block_rows))
    mat_refs = [r for r in emb_ds.select_columns([id_col, emb_col])
                .repartition(nblocks).to_arrow_refs()]

    @ray.remote
    def block_pair(bi: pa.Table, bj: pa.Table, same: bool) -> pa.Table:
        if bi.num_columns == 0 or bj.num_columns == 0 \
                or bi.num_rows == 0 or bj.num_rows == 0:
            return out_schema.empty_table()
        ids_i = bi.column(id_col).to_numpy()
        ids_j = bj.column(id_col).to_numpy()
        mi = _normalize(_embedding_matrix(bi, emb_col))
        mj = _normalize(_embedding_matrix(bj, emb_col))
        sims = mi @ mj.T
        ii, jj = np.nonzero(sims >= threshold)
        a, b = ids_i[ii], ids_j[jj]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keep = lo < hi                   # drops self-pairs on same-block
        lo, hi, cos = lo[keep], hi[keep], sims[ii, jj][keep]
        if same and len(lo):
            # same-block sims is symmetric: each pair surfaced twice
            first = _first_of_pairs(lo, hi)
            lo, hi, cos = lo[first], hi[first], cos[first]
        return pa.Table.from_arrays(
            [pa.array(lo, type=pa.int64()),
             pa.array(hi, type=pa.int64()),
             pa.array(cos, type=pa.float64())], schema=out_schema)

    result_refs = [block_pair.remote(mat_refs[i], mat_refs[j], i == j)
                   for i in range(len(mat_refs))
                   for j in range(i, len(mat_refs))]
    return rd.from_arrow_refs(result_refs)


def embedding_dup_pairs(emb_ds, *, threshold: float = 0.98,
                        nbits: int = 8, ntables: int = 6,
                        nprobes: int = 2, seed: int = 42,
                        id_col: str = "vec_id",
                        emb_col: str = "embedding",
                        bucket_cap: int = 4096):
    """Near-duplicate pairs by embedding cosine — LSH-bucketed scale
    path with multi-table banding AND margin-guided multiprobe:

      * ``ntables`` independent hyperplane tables (different seeds);
        a pair is found if it collides in ANY table — recall
        1-(1-r)^L for per-table recall r;
      * per table each vector ALSO probes ``nprobes`` extra buckets,
        flipping the single lowest-|margin| bits (the bits a true
        near-neighbor most likely disagrees on — Lv et al.'s
        multiprobe heuristic);
      * candidates within a shared bucket get the exact cosine;
        duplicates across tables/probes are folded by one (a, b)
        exchange that keeps each pair's first sighting.

    Recall vs the exact plan is gated in tests.  Scale note: bucket
    rows carry the embedding (duplication L·(1+nprobes)) to avoid a
    second join; at extreme scale emit ids only and fetch vectors via
    the bucketed hash join (stages/join.py) instead."""
    from nxsearch_ray.functions.hashing import splitmix64 as _smix

    holder: dict = {}
    nprobes = min(nprobes, nbits)

    def explode(batch: pa.Table) -> pa.Table:
        mat = _normalize(_embedding_matrix(batch, emb_col))
        if "p" not in holder:
            holder["p"] = [make_planes(mat.shape[1], nbits,
                                       seed + 7919 * t)
                           for t in range(ntables)]
        n = len(mat)
        keys_out: list[np.ndarray] = []
        rows_out: list[np.ndarray] = []
        rows = np.arange(n, dtype=np.int64)
        for t, planes in enumerate(holder["p"]):
            proj = mat @ planes.T                       # (n, nbits)
            sig = np.zeros(n, dtype=np.uint64)
            for j in range(nbits):
                sig |= (proj[:, j] >= 0.0).astype(np.uint64) \
                    << np.uint64(j)
            salt = _smix(np.full(n, t + 1, dtype=np.uint64)
                         * np.uint64(0x9E3779B97F4A7C15))
            keys_out.append(_smix(sig ^ salt))
            rows_out.append(rows)
            if nprobes:
                order = np.argsort(np.abs(proj), axis=1)
                for p in range(nprobes):
                    flip = order[:, p].astype(np.uint64)
                    keys_out.append(_smix(
                        (sig ^ (np.uint64(1) << flip)) ^ salt))
                    rows_out.append(rows)
        idx = pa.array(np.concatenate(rows_out), type=pa.int64())
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(keys_out), type=pa.uint64()),
             batch.column(id_col).take(idx),
             batch.column(emb_col).take(idx)],
            names=["bucket_key", "vec_id", "embedding"])

    keyed = emb_ds.map_batches(explode, batch_format="pyarrow")

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("cosine", pa.float64())])

    from nxsearch_ray.stages.shuffle import grouped

    def emit_block(t: pa.Table, starts: np.ndarray) -> pa.Table:
        """Per-partition bucket-run scan (runs sorted by vec_id): pairs
        within every bucket run, one einsum for ALL pairs of the
        partition, then a partition-local dedup (the same pair
        surfaces via several tables/probes with the identical exact
        cosine)."""
        ids = t.column("vec_id").to_numpy()
        counts = np.diff(starts, append=t.num_rows)
        ai, bi = [], []
        for r in np.nonzero(counts >= 2)[0]:
            s, c = starts[r], counts[r]
            a, b = pairs_within(ids[s:s + c], bucket_cap)
            if len(a):
                # map pair ids back to row positions within the run
                # (ids slice is sorted; duplicates resolve to first)
                ai.append(s + np.searchsorted(ids[s:s + c], a))
                bi.append(s + np.searchsorted(ids[s:s + c], b))
        if not ai:
            return out_schema.empty_table()
        ia = np.concatenate(ai)
        ib = np.concatenate(bi)
        mat = _normalize(_embedding_matrix(t, "embedding"))
        cos = np.einsum("ij,ij->i", mat[ia], mat[ib])
        keep = cos >= threshold
        if not keep.any():
            return out_schema.empty_table()
        a, b, cos = ids[ia[keep]], ids[ib[keep]], cos[keep]
        first = _first_of_pairs(a, b)
        return pa.Table.from_arrays(
            [pa.array(a[first]), pa.array(b[first]),
             pa.array(cos[first], type=pa.float64())],
            schema=out_schema)

    pairs = grouped(keyed, ["bucket_key"], emit_block, out_schema,
                    then_by=["vec_id"])
    # fold duplicates found via several tables/probes (cosine is the
    # same exact value for every sighting, so first == the value)
    return grouped(pairs, ["a", "b"], lambda t, starts: t.take(starts),
                   out_schema)
