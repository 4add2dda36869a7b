"""Plan equivalence at the kernel level, in-process (no Ray): each
verify tier has one decision kernel, and its two gathers — a lookup in
the broadcast index of every page, and the bucketed plan's lookup in a
local index of only the pages delivered to a pair block — must feed it
identical inputs, so their outputs are equal tables."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.sources.synth import synth_pages, truth_pairs
from nxsearch_ray.stages.signatures import CanonSigActor

SOURCES = ["minhash", "exact,minhash", "simhash", "suffix",
           "minhash,suffix"]


@pytest.fixture(scope="module")
def sigs_and_pairs():
    cfg = PipelineConfig()
    pages = synth_pages(40, seed=5)
    sigs = CanonSigActor(cfg.to_json())(
        pages.select(["page_id", "url", "warc_ts", "html", "lang"]))
    ids = np.sort(sigs.column("page_id").to_numpy())
    rng = np.random.default_rng(5)
    pairs = set(truth_pairs(pages))
    for a, b in rng.choice(ids, size=(60, 2)):
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    pairs = sorted(pairs)
    t = pa.table({
        "a": pa.array([p[0] for p in pairs], pa.int64()),
        "b": pa.array([p[1] for p in pairs], pa.int64()),
        "source": pa.array([SOURCES[i % len(SOURCES)]
                            for i in range(len(pairs))])})
    return cfg, sigs, t


def _delivered(pairs: pa.Table, payload: pa.Table) -> pa.Table:
    """What ``join.endpoint_map`` hands a pair block's kernel: the
    payload rows of the block's distinct endpoints only, each once, in
    no particular order (here shuffled) and in two chunks (one per
    answering partition)."""
    ids = payload.column("page_id").to_numpy()
    want = np.unique(np.concatenate([pairs.column("a").to_numpy(),
                                     pairs.column("b").to_numpy()]))
    rows = np.flatnonzero(np.isin(ids, want))
    np.random.default_rng(9).shuffle(rows)
    assert len(rows) == len(want) < payload.num_rows
    half = len(rows) // 2
    return pa.concat_tables([payload.take(rows[:half]),
                             payload.take(rows[half:])])


def test_verify_gathers_feed_one_kernel(sigs_and_pairs):
    from nxsearch_ray.stages.verify import (
        SignatureIndex,
        score_delivered,
        score_pairs_table,
    )

    cfg, sigs, pairs = sigs_and_pairs
    block = pairs.slice(0, pairs.num_rows // 2)
    slim = sigs.select(["page_id", "mh_res", "simhash", "bottomk"])
    broadcast = score_pairs_table(
        block, SignatureIndex.from_table(slim, cfg.num_perms), cfg)
    pages = _delivered(block, slim)
    local = SignatureIndex.from_table(pages, cfg.num_perms)
    assert sorted(local.page_ids) == sorted(
        pages.column("page_id").to_pylist())
    assert broadcast.equals(score_delivered(cfg, block, pages))
    # the pairs exercise the decision, not just an empty table
    assert 0 < broadcast.num_rows < block.num_rows
    screen = broadcast.column("keep_exact_screen").to_numpy()
    assert screen.any() and not screen.all()


def test_suffix_gathers_feed_one_kernel(sigs_and_pairs):
    from nxsearch_ray.stages.suffix import (
        TokenIndex,
        adjudicate_delivered,
        exact_containment_table,
    )

    cfg, sigs, pairs = sigs_and_pairs
    tokens = sigs.select(["page_id", "token_ids"])
    block = pairs.slice(pairs.num_rows // 3)
    broadcast = exact_containment_table(block, TokenIndex.from_table(tokens),
                                        cfg)
    pages = _delivered(block, tokens)
    local = TokenIndex.from_table(pages)
    assert sorted(local.page_ids) == sorted(
        pages.column("page_id").to_pylist())
    assert broadcast.equals(adjudicate_delivered(cfg, block, pages))
    assert 0 < broadcast.num_rows < block.num_rows
