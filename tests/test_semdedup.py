"""SemDeDup gates: exact plan vs a python oracle, clustered-plan
soundness (drops ⊆ exact drops), nlist=1 plan equivalence, and
planted-duplicate recall (identical vectors can never escape the
clustered plan — they always share a cluster)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

EPS = 0.4
DIM = 16


def _synthetic_embeddings(n: int = 240, seed: int = 7) -> pa.Table:
    """Deterministic clustered corpus with planted duplicates: 4 well-
    separated anchor directions, unit noise around them, and every
    5th vector an EXACT copy of the one 5 before it."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(4, DIM))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    base = anchors[np.arange(n) % 4] * 4.0 + rng.normal(size=(n, DIM))
    for i in range(5, n, 5):
        base[i] = base[i - 5]
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(
            [row.astype(np.float32) for row in base],
            type=pa.list_(pa.float32()))})


def _oracle(t: pa.Table, eps: float) -> dict[int, int]:
    """Python restatement of the rule: dup_of[x] = min y < x with
    cos >= eps, else -1."""
    ids = t.column("vec_id").to_numpy()
    mat = np.array([np.asarray(v) for v in t.column("embedding")
                    .to_pylist()], dtype=np.float64)
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    order = np.argsort(ids)
    ids, mat = ids[order], mat[order]
    sims = mat @ mat.T
    out = {}
    for j in range(len(ids)):
        hits = np.nonzero(sims[:j, j] >= eps)[0]
        out[int(ids[j])] = int(ids[hits[0]]) if len(hits) else -1
    return out


def _collect(ds) -> pa.Table:
    import ray
    tbs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tbs)


def _as_map(ds) -> dict[int, int]:
    tb = _collect(ds)
    return dict(zip(tb.column("id").to_pylist(),
                    tb.column("dup_of").to_pylist()))


@pytest.fixture(scope="module")
def synth_ds(ray_session):
    import ray.data as rd
    return rd.from_arrow(_synthetic_embeddings()).repartition(6)


def test_exact_matches_python_oracle(ray_session, synth_ds):
    from nxsearch_ray.stages.semdedup import semantic_dedup_exact

    got = _as_map(semantic_dedup_exact(synth_ds, eps=EPS,
                                       block_rows=64))
    want = _oracle(_synthetic_embeddings(), EPS)
    assert got == want
    # the planting guarantees real drops
    assert sum(v >= 0 for v in want.values()) >= 40


def test_exact_keep_flag_consistent(ray_session, synth_ds):
    from nxsearch_ray.stages.semdedup import semantic_dedup_exact

    tb = _collect(semantic_dedup_exact(synth_ds, eps=EPS,
                                       block_rows=64))
    dup = np.asarray(tb.column("dup_of").to_numpy())
    keep = np.asarray(tb.column("keep").to_numpy(zero_copy_only=False))
    assert ((dup < 0) == keep).all()
    # every dup_of points at a smaller id
    ids = tb.column("id").to_numpy()
    assert (dup[dup >= 0] < ids[dup >= 0]).all()


def test_clustered_nlist1_equals_exact(ray_session, synth_ds):
    from nxsearch_ray.stages.semdedup import (semantic_dedup_clustered,
                                              semantic_dedup_exact)

    exact = _as_map(semantic_dedup_exact(synth_ds, eps=EPS,
                                         block_rows=64))
    one = _as_map(semantic_dedup_clustered(synth_ds, eps=EPS, nlist=1))
    assert one == exact


def test_clustered_drops_subset_of_exact(ray_session, synth_ds):
    from nxsearch_ray.stages.semdedup import (semantic_dedup_clustered,
                                              semantic_dedup_exact)

    exact = _as_map(semantic_dedup_exact(synth_ds, eps=EPS,
                                         block_rows=64))
    clus = _as_map(semantic_dedup_clustered(synth_ds, eps=EPS,
                                            nlist=4, seed=42))
    assert set(clus) == set(exact)          # every id decided once
    for i, d in clus.items():
        if d >= 0:
            # a within-cluster eps-neighbor is a global one: the doc
            # must also be dropped by the exact rule (possibly with a
            # smaller global dup_of)
            assert exact[i] >= 0
            assert exact[i] <= d


def test_clustered_planted_exact_copies_always_drop(ray_session,
                                                    synth_ds):
    from nxsearch_ray.stages.semdedup import semantic_dedup_clustered

    clus = _as_map(semantic_dedup_clustered(synth_ds, eps=EPS,
                                            nlist=4, seed=42))
    n = len(clus)
    for i in range(5, n, 5):
        # identical vectors share a centroid by construction
        assert clus[i] >= 0, f"planted copy {i} escaped"


def test_clustered_recall_on_separated_clusters(ray_session, synth_ds):
    """With well-separated anchors, k-means at nlist=4 recovers the
    plant and the clustered plan should agree with exact almost
    everywhere (cross-cluster misses only at boundaries)."""
    from nxsearch_ray.stages.semdedup import (semantic_dedup_clustered,
                                              semantic_dedup_exact)

    exact = _as_map(semantic_dedup_exact(synth_ds, eps=EPS,
                                         block_rows=64))
    clus = _as_map(semantic_dedup_clustered(synth_ds, eps=EPS,
                                            nlist=4, seed=42))
    dropped_exact = {i for i, d in exact.items() if d >= 0}
    dropped_clus = {i for i, d in clus.items() if d >= 0}
    recall = len(dropped_clus & dropped_exact) / max(1,
                                                     len(dropped_exact))
    assert recall >= 0.9, recall


def test_left_hash_join_null_payload(ray_session):
    """hash_join how='left' keeps unmatched left rows with null
    payload (the semdedup finalize relies on it)."""
    import ray.data as rd

    from nxsearch_ray.stages.join import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4],
                                                 type=pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 4], type=pa.int64()),
        "v": pa.array([20, 40], type=pa.int64())}))
    out = hash_join(left, right, left_key="k", right_key="k",
                    left_schema=pa.schema([("k", pa.int64())]),
                    right_schema=pa.schema([("k", pa.int64()),
                                            ("v", pa.int64())]),
                    how="left")
    tb = _collect(out)
    got = dict(zip(tb.column("k").to_pylist(),
                   tb.column("v_r").to_pylist()))
    assert got == {1: None, 2: 20, 3: None, 4: 40}


def test_det_argmax_batch_shape_independent():
    """_det_argmax must give the same centroid for the same row bytes
    whatever batch it arrives in: BLAS GEMM picks its reduction order
    from the matrix shapes, so near-tied centroids can flip between
    batch sizes (observed escaping a planted duplicate on the bench
    corpus).  Degenerate near-equal centroids force the tie path."""
    from nxsearch_ray.stages.semdedup import _det_argmax

    rng = np.random.default_rng(3)
    v = rng.normal(size=16).astype(np.float32)
    v /= np.linalg.norm(v)
    cent = np.stack([v, v + 1e-7, rng.normal(size=16).astype(
        np.float32)]).astype(np.float32)
    cent /= np.linalg.norm(cent, axis=1, keepdims=True)
    solo = _det_argmax(v[None, :], cent)[0]
    for n in (2, 7, 64, 1000):
        batch = np.repeat(v[None, :], n, axis=0)
        got = _det_argmax(batch, cent)
        assert (got == solo).all(), (n, solo, got[:5])


def test_hot_cluster_identical_group_never_escapes(ray_session,
                                                  monkeypatch):
    """A giant byte-identical group (web boilerplate) lands in one hot
    cluster; the census/resplit path must still drop every non-minimal
    member — this regression-tests both the identical-row collapse in
    the kernel and the deterministic sub-assignment (id 12480 escaped
    via a GEMM rounding flip before _det_argmax)."""
    import ray.data as rd

    import nxsearch_ray.stages.semdedup as S

    monkeypatch.setattr(S, "HOT_CAP_FACTOR", 1.5)
    monkeypatch.setattr(S, "SUB_SAMPLE_CAP", 512)
    rng = np.random.default_rng(11)
    n = 2000
    anchors = rng.normal(size=(4, DIM))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    base = anchors[np.arange(n) % 4] * 4.0 + rng.normal(size=(n, DIM))
    base[::2] = base[0]                    # 1000 identical rows
    t = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r.astype(np.float32) for r in base],
                              type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(7)
    got = _as_map(S.semantic_dedup_clustered(ds, eps=0.95, nlist=4,
                                             seed=42))
    for i in range(2, n, 2):
        assert got[i] >= 0, f"identical member {i} escaped"
    # the minimal member of the identical group must itself be kept
    assert got[0] == -1, f"group-minimal id 0 wrongly dropped: {got[0]}"
    assert len(got) == n


def test_zero_norm_rows_survive_collapse(ray_session):
    """Two+ all-zero embeddings are byte-identical after _normalize
    yet have cos = 0 < eps: the identical-row collapse must NOT drop
    them (each zero row is its own representative), keeping the
    clustered plan's drops a subset of the exact rule's."""
    import ray.data as rd

    from nxsearch_ray.stages.semdedup import (semantic_dedup_clustered,
                                              semantic_dedup_exact)

    rng = np.random.default_rng(3)
    base = rng.normal(size=(40, DIM))
    base[5] = 0.0
    base[17] = 0.0
    base[23] = 0.0
    base[30] = base[10]                     # one real identical pair
    t = pa.table({
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "embedding": pa.array([r.astype(np.float32) for r in base],
                              type=pa.list_(pa.float32()))})
    ds = rd.from_arrow(t).repartition(3)
    got = _as_map(semantic_dedup_clustered(ds, eps=EPS, nlist=1,
                                           seed=42))
    for z in (5, 17, 23):
        assert got[z] == -1, f"zero-norm row {z} wrongly dropped"
    assert got[30] == 10
    exact = _as_map(semantic_dedup_exact(ds, eps=EPS))
    assert got == exact


def test_semdedup_stage_checkpoint_resume(ray_session, synth_ds,
                                          tmp_path):
    """The semantic decisions as a lineage stage (run_corpus's
    ``semdedup_decisions``): a second run under the same parameters
    must load the checkpoint (resumed record) and return the identical
    decision table; a changed eps must invalidate and recompute."""
    from nxsearch_ray.stages.semdedup import semantic_dedup_clustered
    from nxsearch_ray.state.lineage import StageParams, stage

    out = str(tmp_path / "ckpt")

    def run(eps):
        stats: dict = {}
        ds = stage(stats, "semdedup_decisions",
                   lambda: semantic_dedup_clustered(synth_ds, eps=eps,
                                                    nlist=4, seed=42),
                   out, StageParams(eps=eps, nlist=4, seed=42))
        [rec] = stats["stages"]
        return _collect(ds).sort_by("id"), rec["resumed"]

    t1, resumed = run(EPS)
    assert resumed is False
    t2, resumed = run(EPS)
    assert resumed is True
    assert t2.equals(t1)
    t3, resumed = run(0.99)
    assert resumed is False
    assert not t3.equals(t1)
