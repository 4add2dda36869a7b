"""Per-worker state of the broadcast stages (stages/join.broadcast_map):
the cache rule in-process, per-call freshness of config-derived state,
and the retired actor-pool config key."""

from __future__ import annotations

import functools
import json

import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.stages import join


_CALLS: list = []


def _record(tag: str, value):
    _CALLS.append((tag, value))
    return (tag, value)


def test_same_ref_builds_once_new_ref_rebuilds(ray_session):
    import ray

    _CALLS.clear()
    build = functools.partial(_record, "k")
    site = join._site(build)
    r1, r2 = ray.put(1), ray.put(2)
    assert join._worker_state(site, r1, build) == ("k", 1)
    assert join._worker_state(site, r1, build) == ("k", 1)
    assert _CALLS == [("k", 1)]
    assert join._worker_state(site, r2, build) == ("k", 2)
    assert _CALLS == [("k", 1), ("k", 2)]


def test_call_sites_do_not_evict_each_other(ray_session):
    import ray

    _CALLS.clear()
    verify = functools.partial(_record, "verify")
    suffix = functools.partial(_record, "suffix")
    assert join._site(verify) != join._site(suffix)
    assert join._site(verify) == join._site(
        functools.partial(_record, "verify"))
    rv, rs = ray.put("sig-index"), ray.put("token-index")
    for _ in range(3):
        assert join._worker_state(join._site(verify), rv, verify) == \
            ("verify", "sig-index")
        assert join._worker_state(join._site(suffix), rs, suffix) == \
            ("suffix", "token-index")
    assert _CALLS == [("verify", "sig-index"), ("suffix", "token-index")]


def _blocks(t: pa.Table, n: int):
    import ray.data as rd

    step = -(-t.num_rows // n)
    return rd.from_arrow([t.slice(i, step)
                          for i in range(0, t.num_rows, step)])


def test_canonsig_state_is_fresh_per_call(ray_session):
    """Config A, then config B with another filter chain, in one
    session: each output equals a fresh kernel of its own config (a
    worker reusing A's pipelines or memo under B would not)."""
    from nxsearch_ray.sources.synth import synth_pages
    from nxsearch_ray.stages.signatures import CanonSigActor, canonsig_stage

    pages = synth_pages(60, seed=5)
    ds = _blocks(pages, 8)
    outs = []
    for cfg in (PipelineConfig(), PipelineConfig(filters=("normalizer",))):
        got = pa.concat_tables(
            canonsig_stage(ds, cfg).iter_batches(batch_format="pyarrow"))
        want = CanonSigActor(cfg.to_json())(pages)
        assert got.sort_by("page_id").combine_chunks().equals(
            want.sort_by("page_id").combine_chunks())
        outs.append(want)
    assert not outs[0].column("token_ids").equals(
        outs[1].column("token_ids"))


def test_from_json_drops_retired_concurrency_key():
    d = json.loads(PipelineConfig(shingle_k=7).to_json())
    d["canonicalize_concurrency"] = 4
    assert PipelineConfig.from_json(json.dumps(d)) == \
        PipelineConfig(shingle_k=7)
