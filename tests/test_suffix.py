"""Suffix automaton / LCS / containment units."""

from __future__ import annotations

import pytest

from nxsearch_ray.functions.suffix import (
    SuffixAutomaton,
    containment_ratio,
    lcs_tokens,
)


def test_lcs_basic():
    assert lcs_tokens([1, 2, 3, 4], [9, 2, 3, 8]) == 2
    assert lcs_tokens([1, 2, 3], [1, 2, 3]) == 3
    assert lcs_tokens([1, 2, 3], [4, 5, 6]) == 0
    assert lcs_tokens([], [1]) == 0


def test_lcs_substring_containment():
    base = list(range(100))
    slice_ = base[20:70]
    assert lcs_tokens(base, slice_) == 50
    assert containment_ratio(base, slice_) == 1.0


def test_lcs_symmetric():
    a = [1, 2, 3, 4, 5, 1, 2]
    b = [3, 4, 5, 9, 9, 1, 2, 3]
    assert lcs_tokens(a, b) == lcs_tokens(b, a) == 3


def test_automaton_recognizes_all_substrings():
    seq = [1, 2, 1, 3, 1, 2]
    sa = SuffixAutomaton(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq) + 1):
            sub = seq[i:j]
            assert sa.longest_common_substring(sub) == len(sub)


def test_automaton_rejects_missing():
    sa = SuffixAutomaton([1, 2, 3])
    assert sa.longest_common_substring([4, 5]) == 0
    assert sa.longest_common_substring([3, 1]) == 1  # '3' matches, '31' not


def test_containment_partial():
    base = list(range(50))
    # half-overlapping window: longest shared run is 25
    other = list(range(25, 75))
    assert lcs_tokens(base, other) == 25
    assert containment_ratio(base, other) == 0.5


def _pairs_table(ids):
    import pyarrow as pa

    return pa.table({"a": pa.array([a for a, _ in ids], pa.int64()),
                     "b": pa.array([b for _, b in ids], pa.int64()),
                     "source": ["suffix"] * len(ids)})


def _emitted(ids, docs, cfg):
    """The broadcast gather's rows for the pairs ``ids`` over the token
    sequences ``docs`` (page_id → uint64 array), checked equal to the
    bucketed gather's over only the pages the pairs name, delivered in
    reverse order."""
    import pyarrow as pa

    from nxsearch_ray.stages.suffix import (TokenIndex,
                                            adjudicate_delivered,
                                            exact_containment_table)

    def tokens(pids):
        return pa.table({
            "page_id": pa.array(pids, pa.int64()),
            "token_ids": pa.array([docs[p].tolist() for p in pids],
                                  pa.list_(pa.uint64()))})

    pairs = _pairs_table(ids)
    out = exact_containment_table(pairs, TokenIndex.from_table(
        tokens(sorted(docs))), cfg)
    named = sorted({p for pair in ids for p in pair}, reverse=True)
    assert adjudicate_delivered(cfg, pairs, tokens(named)).equals(out)
    return out.to_pylist()


def _scalar(ids, docs, cfg):
    """The rows the scalar oracle ``exact_adjudicate`` keeps."""
    from nxsearch_ray.stages.suffix import exact_adjudicate

    rows = []
    for a, b in ids:
        lcs, con, jac = exact_adjudicate(docs[a], docs[b], cfg)
        if con >= cfg.containment_threshold or \
                jac >= cfg.jaccard_threshold:
            rows.append({"a": a, "b": b, "source": "suffix",
                         "lcs_len": lcs, "containment": con,
                         "exact_jaccard": jac})
    return rows


def test_batch_adjudicate_matches_scalar():
    """adjudicate_docs emits exactly the rows the scalar
    exact_adjudicate keeps, with its values — short docs (<
    shingle_k), empty docs, exact copies, containment, borderline
    near-misses and disjoint pairs.  A rejected row is not emitted, so
    its LCS is never computed and not compared."""
    import numpy as np

    from nxsearch_ray.config import PipelineConfig

    cfg = PipelineConfig()
    rng = np.random.default_rng(7)
    base = rng.integers(1, 50, size=200).astype(np.uint64)
    mut = base.copy()
    mut[::7] = rng.integers(100, 200, size=len(mut[::7])).astype(np.uint64)
    seqs = [
        (base, base.copy()),                              # exact copy
        (base, base[30:170]),                             # containment
        (base, mut),                                      # borderline
        (base, rng.integers(500, 900, 150).astype(np.uint64)),
        (base[:3], base[:2]),                             # < shingle_k
        (np.empty(0, np.uint64), base[:10]),              # empty side
        (np.empty(0, np.uint64), np.empty(0, np.uint64)),
    ]
    for _ in range(20):                                   # fuzz
        la, lb = rng.integers(0, 60, size=2)
        seqs.append((rng.integers(1, 30, la).astype(np.uint64),
                     rng.integers(1, 30, lb).astype(np.uint64)))
    docs = {}
    ids = []
    for i, (ta, tb) in enumerate(seqs):
        docs[2 * i], docs[2 * i + 1] = ta, tb
        ids.append((2 * i, 2 * i + 1))
    kept = _scalar(ids, docs, cfg)
    assert {r["lcs_len"] for r in kept} - {-1}, "no containment-kept row"
    assert _emitted(ids, docs, cfg) == kept


def _need(m, thr):
    """The smallest LCS with LCS / m >= thr, by counting."""
    return next(n for n in range(m + 2) if n / max(m, 1) >= thr)


def _random_batch(rng, cfg):
    """Pages and pairs for one batch: random, periodic and repeated
    sequences over 2-, 3-symbol or wide alphabets, pages shorter than
    shingle_k and empty pages, slices planted around the containment
    threshold's minimum run, a page paired with itself, and pages in
    many pairs."""
    import numpy as np

    sigma = int(rng.choice([2, 3, 6, 1 << 40]))

    def noise(n):
        return rng.integers(1, sigma + 1, n).astype(np.uint64)

    def fresh(n):
        return rng.integers(1 << 41, 1 << 42, n).astype(np.uint64)

    docs = {}
    for pid in range(int(rng.integers(2, 9))):
        kind = rng.integers(5)
        n = int(rng.integers(0, 80))
        if kind == 0:
            docs[pid] = noise(n)
        elif kind == 1:                                   # periodic
            docs[pid] = np.resize(noise(int(rng.integers(1, 5))), n)
        elif kind == 2:                                   # short / empty
            docs[pid] = noise(int(rng.integers(0, cfg.shingle_k + 1)))
        else:                              # a slice of another page
            src = docs[int(rng.integers(len(docs)))] if docs else noise(n)
            m = len(src)
            need = _need(m, cfg.containment_threshold)
            ln = min(m, max(0, need + int(rng.integers(-1, 2))))
            i = int(rng.integers(0, m - ln + 1))
            pad = fresh if kind == 3 else noise
            docs[pid] = np.concatenate([pad(int(rng.integers(0, 60))),
                                        src[i:i + ln],
                                        pad(int(rng.integers(0, 60)))])
    pids = list(docs)
    ids = [(int(rng.choice(pids)), int(rng.choice(pids)))
           for _ in range(int(rng.integers(1, 25)))]
    ids.append((pids[0], pids[0]))
    return ids, docs


def _planted(rng, m, run, pre, total):
    """A page of ``m`` wide-alphabet tokens and a page of ``total``
    holding ``run`` of them from a random offset after ``pre`` tokens,
    every other token fresh: their LCS is exactly ``run``."""
    import numpy as np

    a = rng.integers(1, 1 << 40, m).astype(np.uint64)
    i = int(rng.integers(0, m - run + 1))
    b = np.concatenate([
        rng.integers(1 << 41, 1 << 42, pre).astype(np.uint64),
        a[i:i + run],
        rng.integers(1 << 41, 1 << 42, total - pre - run).astype(np.uint64)])
    return a, b


@pytest.mark.parametrize("weak_hash", [False, True])
def test_adjudicate_pairs_property(monkeypatch, weak_hash):
    """Seeded property test: on every batch, adjudicate_docs through
    both gathers emits exactly the scalar oracle's kept rows, all
    six columns.  Besides random batches it covers runs of exactly the
    minimum length at every offset against the probe's stride, and
    thresholds where ceil(thr·m) overshoots in float (0.55 at m = 100,
    180, 200).  ``weak_hash`` keeps 2 bits of the window hash, so most
    window probes are collisions that only verification rejects, and
    their extensions run in many small chunks."""
    from dataclasses import replace

    import numpy as np

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages import suffix as S

    if weak_hash:
        strong = S.window_hash
        monkeypatch.setattr(S, "window_hash",
                            lambda *a: strong(*a) & np.uint64(3))
        monkeypatch.setattr(S, "_SPAN_CHUNK", 4096)
    rng = np.random.default_rng(20240917)
    n_contained = 0
    for trial in range(300):
        cfg = replace(
            PipelineConfig(),
            shingle_k=int(rng.choice([1, 3, 5])),
            containment_threshold=float(rng.choice(
                [0.8, 0.55, 0.3, 0.95, 1.0])),
            jaccard_threshold=float(rng.choice([0.5, 0.9])))
        ids, docs = _random_batch(rng, cfg)
        kept = _scalar(ids, docs, cfg)
        n_contained += sum(r["lcs_len"] >= 0 for r in kept)
        assert _emitted(ids, docs, cfg) == kept, (trial, cfg)

    for m, thr, need in ((100, 0.55, 55), (180, 0.55, 99), (200, 0.55, 110),
                         (20, 0.8, 16)):
        cfg = replace(PipelineConfig(), containment_threshold=thr)
        assert _need(m, thr) == need
        docs, ids = {}, []
        for pre in range(need // 2 + 3):       # every stride offset
            for run in (need - 1, need):
                k = len(docs)
                docs[k], docs[k + 1] = _planted(rng, m, run, pre, 3 * m)
                ids.append((k, k + 1))
        kept = _scalar(ids, docs, cfg)
        assert len(kept) == len(ids) // 2
        assert {r["lcs_len"] for r in kept} == {need}
        assert _emitted(ids, docs, cfg) == kept
    assert n_contained > 50


def test_count_bound_rules_out_only_short_runs(monkeypatch):
    """Seeded property test of the shingle-count bound
    (``suffix.run_ruled_out``): every pair it rules out has a scalar LCS
    below the containment minimum ``need``, and both gathers emit the
    rows of the unpruned kernel (the bound forced off).  The batches
    are ``test_adjudicate_pairs_property``'s: repeats, pages shorter
    than shingle_k, empty pages and runs around ``need``, with shingle_k
    above ``need`` too."""
    from dataclasses import replace

    import numpy as np

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages import suffix as S

    bound, calls = S.run_ruled_out, []

    def recording(ia, ib, lens, inter, cnt, need, k):
        out = bound(ia, ib, lens, inter, cnt, need, k)
        calls.append((ia, ib, need, out))
        return out

    rng = np.random.default_rng(20261020)
    n_pruned = n_pairs = 0
    for trial in range(300):
        cfg = replace(
            PipelineConfig(),
            shingle_k=int(rng.choice([1, 3, 5])),
            containment_threshold=float(rng.choice(
                [0.8, 0.55, 0.3, 0.95, 1.0])),
            jaccard_threshold=float(rng.choice([0.5, 0.9])))
        ids, docs = _random_batch(rng, cfg)
        monkeypatch.setattr(S, "run_ruled_out",
                            lambda ia, *_: np.zeros(len(ia), dtype=bool))
        unpruned = _emitted(ids, docs, cfg)
        monkeypatch.setattr(S, "run_ruled_out", recording)
        calls.clear()
        assert _emitted(ids, docs, cfg) == unpruned, (trial, cfg)
        uniq = np.unique([p for pair in ids for p in pair])
        for ia, ib, need, out in calls:
            n_pairs += len(out)
            for i in np.flatnonzero(out):
                ta, tb = docs[uniq[ia[i]]], docs[uniq[ib[i]]]
                assert lcs_tokens(ta.tolist(), tb.tolist()) < need[i]
                n_pruned += 1
    assert 0.2 * n_pairs < n_pruned < n_pairs
