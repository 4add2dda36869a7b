"""In-process kernel sheet and the Ray identity-map floor.

Kernel rates are rows per core-second (``time.process_time``) over a
fixed seeded batch of the workload's own pages, measured in the
benchmark's main process through each layer's public functions.
They are the layers' true processing rates; the traced replay's stage
walls are the rates observed in the pipeline (DS2, OSDI 2018).
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

BATCH_ROWS = 512
MIN_CPU_S = 0.2        # repeat a kernel until it has used this much CPU
FLOOR_FORMATS = ("pyarrow", "numpy", "pandas")
FLOOR_BATCH_SIZES = (256, 4096)


def _rate(fn, rows: int) -> float:
    """rows / core-second of ``fn()``, repeated until ``MIN_CPU_S``."""
    reps, t0 = 0, time.process_time()
    while True:
        fn()
        reps += 1
        used = time.process_time() - t0
        if used >= MIN_CPU_S:
            return rows * reps / used


def _once(fn, rows: int):
    """(rows / core-second, result) of a single call — for cold runs."""
    t0 = time.process_time()
    out = fn()
    return rows / max(time.process_time() - t0, 1e-9), out


def kernel_sheet(pages: pa.Table, tokens: pa.Table, pairs: pa.Table,
                 edges: pa.Table, cfg, seed: int) -> dict:
    """``pages``: page rows with html and text; ``tokens``: page_id +
    token_ids of every page; ``pairs``: (a, b, source) pairs to
    adjudicate; ``edges``: (a, b) for the union-find kernel."""
    from nxsearch_ray.functions import hashing as H
    from nxsearch_ray.stages.canonicalize import CanonicalizeActor
    from nxsearch_ray.stages.html_extract import extract_text
    from nxsearch_ray.stages.signatures import (CanonSigActor,
                                                SignatureActor,
                                                list_column_numpy)
    from nxsearch_ray.stages.suffix import (TokenIndex,
                                            exact_containment_table)
    from nxsearch_ray.state.unionfind import min_label_components

    rng = np.random.default_rng([seed, 3])
    n = min(BATCH_ROWS, pages.num_rows)
    rows = np.sort(rng.choice(pages.num_rows, size=n, replace=False))
    batch = pages.take(pa.array(rows))
    text_batch = batch.drop_columns(["html"])
    out: dict[str, float] = {}

    out["html_extract.rows_per_core_s"] = _rate(
        lambda: extract_text(batch), n)

    canon_actor = CanonicalizeActor(cfg)
    out["canonicalize.rows_per_core_s_cold"], canon = _once(
        lambda: canon_actor(text_batch), n)
    out["canonicalize.rows_per_core_s_warm"] = _rate(
        lambda: canon_actor(text_batch), n)
    # the per-language token memo the actor filled on this batch
    out["canonicalize.memo_entries"] = float(sum(
        len(m) for m in getattr(canon_actor, "_memo", {}).values()))

    tok_flat, tok_off = list_column_numpy(canon.column("token_ids"))
    k, P = cfg.shingle_k, cfg.num_perms
    out["hashing.shingle_rows_per_s"] = _rate(
        lambda: H.shingle_hashes(tok_flat, tok_off, k), n)
    sh_flat, sh_off = H.shingle_hashes(tok_flat, tok_off, k)
    out["hashing.unique_rows_per_s"] = _rate(
        lambda: H.unique_per_doc(sh_flat, sh_off), n)
    uflat, uoff = H.unique_per_doc(sh_flat, sh_off)
    out["hashing.minhash_rows_per_s"] = _rate(
        lambda: H.minhash_signatures(uflat, uoff, P, cfg.seed), n)
    out["hashing.simhash_rows_per_s"] = _rate(
        lambda: H.simhash_signatures(uflat, uoff, cfg.simhash_bits), n)
    out["hashing.bottomk_rows_per_s"] = _rate(
        lambda: H.bottomk_sketch(uflat, uoff, cfg.bottomk), n)
    sig_actor = SignatureActor(cfg)
    out["signatures.rows_per_core_s"] = _rate(lambda: sig_actor(canon), n)
    # the pipeline's fused actor, cold as every new pool actor starts
    out["canonsig.rows_per_core_s_cold"], _ = _once(
        lambda: CanonSigActor(cfg.to_json())(batch), n)

    idx = TokenIndex.from_table(tokens)
    if pairs.num_rows:
        out["suffix.adjudications_per_core_s"] = _rate(
            lambda: exact_containment_table(pairs, idx, cfg),
            pairs.num_rows)
    else:
        out["suffix.adjudications_per_core_s"] = 0.0
    a = edges.column("a").to_numpy()
    b = edges.column("b").to_numpy()
    out["unionfind.edges_per_core_s"] = _rate(
        lambda: min_label_components(a, b), max(len(a), 1))
    return out


def _identity(batch):
    return batch


def identity_floor(ds) -> dict:
    """Wall seconds of an identity ``map_batches`` over the
    materialized dataset ``ds``, per batch format and size — the
    framework's floor under every stage."""
    out = {}
    for fmt in FLOOR_FORMATS:
        for size in FLOOR_BATCH_SIZES:
            t0 = time.perf_counter()
            ds.map_batches(_identity, batch_format=fmt,
                           batch_size=size).materialize()
            out[f"ray_floor.identity_map_s.{fmt}.{size}"] = \
                time.perf_counter() - t0
    return out
