"""Plan equivalence at the kernel level, in-process (no Ray): each
verify tier has one decision kernel, and its two gathers — the
broadcast index lookup and the bucketed join's payload columns — must
feed it identical inputs, so their outputs are equal tables."""

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


def _joined(pairs: pa.Table, payload: pa.Table) -> pa.Table:
    """What pair_join hands the bucketed kernel: the pairs with each
    endpoint's payload columns attached as ``{col}_a``, then as
    ``{col}_b``, split into two chunks."""
    pos = {pid: i for i, pid in
           enumerate(payload.column("page_id").to_pylist())}
    out = pairs
    for side in ("a", "b"):
        rows = [pos[p] for p in pairs.column(side).to_pylist()]
        for col in payload.column_names[1:]:
            out = out.append_column(f"{col}_{side}",
                                    payload.column(col).take(rows))
    half = out.num_rows // 2
    return pa.concat_tables([out.slice(0, half), out.slice(half)])


def test_verify_gathers_feed_one_kernel(sigs_and_pairs):
    from nxsearch_ray.stages.verify import (
        SignatureIndex,
        score_joined_table,
        score_pairs_table,
    )

    cfg, sigs, pairs = sigs_and_pairs
    P = cfg.num_perms
    slim = sigs.select(["page_id", "mh_res", "simhash", "bottomk"])
    broadcast = score_pairs_table(pairs, SignatureIndex.from_table(slim, P),
                                  cfg)
    bucketed = score_joined_table(_joined(pairs, slim), cfg)
    assert broadcast.equals(bucketed)
    # the pairs exercise the decision, not just an empty table
    assert 0 < broadcast.num_rows < pairs.num_rows
    screen = broadcast.column("keep_exact_screen").to_numpy()
    assert screen.any() and not screen.all()


def test_suffix_gathers_feed_one_kernel(sigs_and_pairs):
    from nxsearch_ray.stages.suffix import (
        TokenIndex,
        adjudicate_joined_table,
        exact_containment_table,
    )

    cfg, sigs, pairs = sigs_and_pairs
    tokens = sigs.select(["page_id", "token_ids"])
    broadcast = exact_containment_table(pairs, TokenIndex.from_table(tokens),
                                        cfg)
    bucketed = adjudicate_joined_table(_joined(pairs, tokens), cfg)
    assert broadcast.equals(bucketed)
    assert 0 < broadcast.num_rows < pairs.num_rows
