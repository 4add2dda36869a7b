"""The candidate bucket scan (stages/pairs.multi_candidate_pairs) against
its scalar statement: ``pairs_within`` per (bucket_key, src) bucket,
the SimHash Hamming rule and each page's first-occurrence aux."""

from collections import defaultdict

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions.hashing import hamming64, seg_triu
from nxsearch_ray.stages import pairs as P
from nxsearch_ray.stages import shuffle

SIM, ANCHOR = P.SRC_NAMES.index("simhash"), P.SRC_NAMES.index("suffix")


def test_seg_triu_is_triu_indices_per_segment():
    counts = np.array([0, 1, 2, 5, 3, 0, 4])
    starts = np.cumsum(counts) - counts + 7
    want = [np.concatenate(x) for x in zip(*(
        (s + np.triu_indices(c, k=1)[0], s + np.triu_indices(c, k=1)[1])
        for s, c in zip(starts, counts)))]
    got = seg_triu(starts, counts)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert all(len(x) == 0 and x.dtype == np.int64
               for x in seg_triu(*np.empty((2, 0), np.int64)))


def _runs_table(rng, cfg, n_runs):
    """Seeded (bucket_key, page_id, src, aux) rows: runs of 1 to
    ``hot_bucket_cap`` + 5 rows drawn from a small page pool, so pages
    repeat inside a run with a different aux; SimHash runs hold
    fingerprints 0-3 bits off the run's base, so pairs fall on both
    sides of the Hamming bound.  Rows are shuffled across runs."""
    rows = []
    for key in rng.choice(1 << 62, n_runs, replace=False):
        src = int(rng.integers(0, 4))
        base = rng.integers(0, 1 << 64, dtype=np.uint64)
        for page in rng.integers(0, 40, rng.integers(1, cfg.hot_bucket_cap
                                                     + 6)):
            if src == SIM:
                bits = rng.choice(64, rng.integers(0, 4), replace=False)
                aux = (base ^ np.bitwise_or.reduce(
                    np.uint64(1) << bits.astype(np.uint64),
                    initial=np.uint64(0))).view(np.int64)
            else:
                aux = rng.integers(1, 10)
            rows.append((int(key), int(page), src, int(aux)))
    order = rng.permutation(len(rows))
    cols = list(zip(*[rows[i] for i in order]))
    return pa.table({"bucket_key": pa.array(cols[0], pa.uint64()),
                     "page_id": pa.array(cols[1], pa.int64()),
                     "src": pa.array(cols[2], pa.int8()),
                     "aux": pa.array(cols[3], pa.int64())})


def _rows(t: pa.Table) -> list[tuple]:
    return list(zip(*(t.column(c).to_pylist() for c in t.column_names)))


def _reference(t: pa.Table, cfg) -> list[tuple]:
    """Bucket by bucket: ``pairs_within``, then the Hamming rule on
    SimHash buckets and the min of the pages' first-occurrence aux on
    the others."""
    buckets = defaultdict(dict)       # (key, src) → page → first aux
    for k, p, s, x in _rows(t):
        buckets[k, s].setdefault(p, x)
    out = []
    for (_, src), first in buckets.items():
        a, b = P.pairs_within(np.array(list(first)), cfg.hot_bucket_cap,
                              cfg.anchor_bucket_max if src == ANCHOR
                              else None)
        for x, y in zip(a.tolist(), b.tolist()):
            if src != SIM:
                out.append((x, y, src, min(first[x], first[y])))
            elif hamming64(np.array([first[x]]).view(np.uint64),
                           np.array([first[y]]).view(np.uint64))[0] \
                    <= cfg.simhash_hamming:
                out.append((x, y, src, 0))
    return sorted(out)


def _scan(t: pa.Table, cfg, monkeypatch) -> list[tuple]:
    """The stage's bucket scan over pre-exploded rows: explode_all is
    swapped for the identity, and the exchange forced to 3 partitions
    of three input blocks."""
    import ray
    import ray.data as rd

    monkeypatch.setattr(P, "explode_all", lambda cfg_json: lambda b: b)
    monkeypatch.setattr(shuffle, "partition_width", lambda n, b: 3)
    third = -(-t.num_rows // 3)
    ds = rd.from_arrow_refs([ray.put(t.slice(i * third, third))
                             for i in range(3)])
    out = pa.concat_tables(ray.get(
        P.multi_candidate_pairs(ds, cfg).to_arrow_refs()))
    assert out.schema.names == ["a", "b", "src", "aux"]
    return sorted(_rows(out))


@pytest.mark.parametrize("cap,skip_over", [(2, 4), (3, 1), (3, 4)])
def test_bucket_scan_matches_scalar_policy(ray_session, monkeypatch, cap,
                                           skip_over):
    cfg = PipelineConfig(hot_bucket_cap=cap, anchor_bucket_max=skip_over)
    t = _runs_table(np.random.default_rng(cap * 10 + skip_over), cfg, 300)
    want = _reference(t, cfg)
    # the seeded table reaches every branch of the policy
    members, auxs = defaultdict(set), defaultdict(set)
    for k, p, s, x in _rows(t):
        members[k, s].add(p)
        auxs[k, s, p].add(x)
    sizes = {(s, len(m)) for (_, s), m in members.items()}
    assert {(ANCHOR, skip_over), (ANCHOR, skip_over + 1)} <= sizes
    assert any(n > cap for s, n in sizes if s != ANCHOR)
    assert any(len(xs) > 1 for xs in auxs.values())
    sim_kept = sum(1 for _, _, s, _ in want if s == SIM)
    sim_all = sum(len(P.pairs_within(np.array(list(m)), cap)[0])
                  for (_, s), m in members.items() if s == SIM)
    assert 0 < sim_kept < sim_all
    assert _scan(t, cfg, monkeypatch) == want


def test_bucket_scan_of_singletons_only(ray_session, monkeypatch):
    cfg = PipelineConfig()
    rng = np.random.default_rng(2)
    n = 50
    t = pa.table({
        "bucket_key": pa.array(rng.choice(1 << 62, n, replace=False),
                               pa.uint64()),
        "page_id": pa.array(rng.integers(0, 10, n), pa.int64()),
        "src": pa.array(rng.integers(0, 4, n), pa.int8()),
        "aux": pa.array(rng.integers(1, 10, n), pa.int64())})
    assert _reference(t, cfg) == [] == _scan(t, cfg, monkeypatch)
