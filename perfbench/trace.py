"""The traced run: spans around each layer call, per-layer metrics.

The replay follows ``run_dedup``'s dataflow through the same public
functions and the same plans the untraced job chose, but materializes
at every layer boundary, so each span holds exactly one layer's work
and the Ray Data ``stats()`` of that execution (tasks, CPU time, wall)
can be attached to it.  Its clusters must equal the untraced job's.

Layers the workload's plan does not use are measured by a probe on the
same data after the replay (outside the ``job`` span), so every
per-layer metric exists on every workload; ``probe`` spans say which.

Spans are kept in memory and written to the notes file at the end.
"""

from __future__ import annotations

import shutil
import time
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

class Tracer:
    """Spans (id, name, parent, start, end, attrs) of one traced run;
    every span shares the run's trace id."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def dur(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> dict[int, float]:
        """Span id → duration minus the time its children cover."""
        out = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def export(self) -> dict:
        self_t = self.self_times()
        return {"trace_id": self.trace_id, "spans": [
            {**s, "dur": s["end"] - s["start"], "self": self_t[s["id"]]}
            for s in self.spans]}


def pin(ds, rec: dict):
    """Materialize ``ds`` inside the current span, attach its Ray Data
    stats and size, and return a lineage-free handle on its blocks."""
    import ray.data as rd

    mat = ds.materialize()
    rec["ray_data_stats"] = mat.stats()
    rec["rows"] = mat.count()
    rec["bytes"] = mat.size_bytes()
    return rd.from_arrow_refs(mat.to_arrow_refs())


def to_table(ds) -> pa.Table:
    import ray

    blocks = [b for b in ray.get(ds.to_arrow_refs()) if b.num_rows]
    return pa.concat_tables(blocks) if blocks else None


def _split_direct(t: pa.Table) -> pa.Table:
    return t.filter(t.column("keep_minsim")).select(["a", "b", "source"])


def _split_exact(t: pa.Table) -> pa.Table:
    m = pc.and_(pc.invert(t.column("keep_minsim")),
                t.column("keep_exact_screen"))
    return t.filter(m).select(["a", "b", "source"])


def _wait(ref) -> None:
    import ray

    ray.wait([ref], fetch_local=False)


def replay(tr: Tracer, job, plans: dict, out: dict) -> tuple:
    """Run the job layer by layer under ``tr``; fills ``out`` with the
    on-path per-layer metrics and returns (clusters table, handles for
    the probes and the kernel sheet)."""
    from nxsearch_ray.pipelines.dedup import DedupResult, clusters_as_table
    from nxsearch_ray.stages.cc import (cc_label_propagation,
                                        cc_tree_unionfind)
    from nxsearch_ray.stages.pairs import (multi_candidate_pairs,
                                           union_pair_sources)
    from nxsearch_ray.stages.shuffle import adopt_hash_context
    from nxsearch_ray.stages.signatures import canonsig_stage
    from nxsearch_ray.stages.suffix import (build_token_index_ref,
                                            suffix_verify_broadcast,
                                            suffix_verify_bucketed)
    from nxsearch_ray.stages.verify import (build_signature_index_ref,
                                            verify_pairs_broadcast,
                                            verify_pairs_bucketed)

    cfg = job.cfg
    h: dict = {}
    with tr.span("job"):
        with tr.span("sources") as s:
            pages = pin(job.pages(), s)
        h["pages"] = pages
        with tr.span("signatures") as s:
            sigs = pin(canonsig_stage(pages, cfg), s)
        sig_rows, sig_bytes = s["rows"], s["bytes"]
        h["sigs"] = sigs
        out["signatures.stage_s"] = tr.dur("signatures")
        out["signatures.bytes"] = float(sig_bytes)
        h["stage_pages"] = sig_rows

        with tr.span("pairs") as s:
            cands = pin(union_pair_sources(
                multi_candidate_pairs(sigs, cfg),
                min_suffix_hits=cfg.min_anchor_hits), s)
        h["cands"] = cands
        n_pages = h["pages"].count()
        out["pairs.stage_s"] = tr.dur("pairs")
        out["pairs.candidates"] = float(s["rows"])
        out["pairs.candidates_per_page"] = s["rows"] / max(n_pages, 1)

        verify_mode = h["verify_mode"] = plans["verify_mode"]
        with tr.span("verify", plan=verify_mode):
            if verify_mode == "broadcast":
                with tr.span("verify.index"):
                    idx_ref = build_signature_index_ref(sigs, cfg)
                    _wait(idx_ref)
                with tr.span("verify.score") as s:
                    scored = pin(verify_pairs_broadcast(cands, idx_ref,
                                                        cfg), s)
            else:
                with tr.span("verify.score") as s:
                    scored = pin(verify_pairs_bucketed(cands, sigs, cfg), s)
            with tr.span("verify.split") as s:
                direct = pin(scored.map_batches(
                    _split_direct, batch_format="pyarrow"), s)
                n_direct = s["rows"]
            with tr.span("verify.split") as s:
                need_exact = pin(scored.map_batches(
                    _split_exact, batch_format="pyarrow"), s)
                n_exact = s["rows"]
        out["verify.stage_s"] = tr.dur("verify")
        out["verify.pairs_in"] = float(out["pairs.candidates"])
        out["verify.kept_ratio"] = n_direct / max(out["pairs.candidates"], 1)
        out["verify.exact_screen"] = float(n_exact)
        h["need_exact"] = need_exact

        with tr.span("suffix", plan=verify_mode):
            if verify_mode == "broadcast":
                with tr.span("suffix.index"):
                    tok_ref = build_token_index_ref(sigs)
                    _wait(tok_ref)
                with tr.span("suffix.adjudicate") as s:
                    exact = pin(suffix_verify_broadcast(need_exact, tok_ref,
                                                        cfg), s)
            else:
                with tr.span("suffix.adjudicate") as s:
                    exact = pin(suffix_verify_bucketed(need_exact, sigs,
                                                       cfg), s)
        out["suffix.stage_s"] = tr.dur("suffix")
        out["suffix.pairs_in"] = float(n_exact)
        out["suffix.kept_ratio"] = s["rows"] / n_exact if n_exact else 0.0

        with tr.span("union.pairs") as s:
            all_pairs = pin(adopt_hash_context(direct.union(
                exact.select_columns(["a", "b", "source"]))), s)
        h["all_pairs"] = all_pairs

        cc_mode = plans["cc_mode"]
        with tr.span("cc", plan=cc_mode) as s:
            clusters = pin(cc_label_propagation(all_pairs)
                           if cc_mode == "labelprop"
                           else cc_tree_unionfind(all_pairs), s)
        out["cc.stage_s"] = tr.dur("cc")
        out["cc.edges_in"] = float(all_pairs.count())
        with tr.span("collect"):
            ct = clusters_as_table(DedupResult(clusters=clusters,
                                               verified_pairs=None))
    out["cc.clusters"] = float(len(np.unique(
        ct.column("cluster_id").to_numpy())))
    return ct, h


def _manifest_bytes(out_dir: str, stage: str) -> int:
    import json

    from nxsearch_ray.state.lineage import manifest_path

    with open(manifest_path(out_dir, stage)) as f:
        return sum(p["bytes"] for p in json.load(f)["partitions"])


def probes(tr: Tracer, job, h: dict, out: dict, probe_dir: str,
           seed: int) -> None:
    """Off-path layers, measured on the replay's data."""
    import ray

    from nxsearch_ray.stages.join import anti_join, pair_join
    from nxsearch_ray.stages.suffix import build_token_index_ref
    from nxsearch_ray.stages.verify import build_signature_index_ref
    from nxsearch_ray.state.lineage import load_stage, write_stage

    cfg, sigs = job.cfg, h["sigs"]
    if h["verify_mode"] != "broadcast":
        with tr.span("verify.index", probe=True):
            _wait(build_signature_index_ref(sigs, cfg))
        with tr.span("suffix.index", probe=True):
            _wait(build_token_index_ref(sigs))
    out["verify.index_s"] = tr.dur("verify.index")
    out["suffix.index_s"] = tr.dur("suffix.index")

    # the bucketed verify's join with a same-width payload (mh_res is
    # the bulk of the packed signature blob)
    payload = sigs.select_columns(["page_id", "mh_res"])
    with tr.span("join.pair_join", probe=True) as s:
        pin(pair_join(h["cands"], payload, right_key="page_id",
                      pair_schema=pa.schema([("a", pa.int64()),
                                             ("b", pa.int64()),
                                             ("source", pa.string())]),
                      right_schema=pa.schema([
                          ("page_id", pa.int64()),
                          ("mh_res", pa.list_(pa.uint8(),
                                              cfg.num_perms))])), s)
    out["join.pair_join_s"] = s["end"] - s["start"]

    # layers only run_dedup_incremental's path uses: anti_join against a
    # seeded 90% of the ids as known, and a lineage write and re-read of
    # the signatures
    ids = to_table(h["pages"].select_columns(["page_id"])) \
        .column("page_id").to_numpy()
    rng = np.random.default_rng([seed, 4])
    known = np.unique(ids[rng.random(len(ids)) >= 0.1])
    with tr.span("join.anti_join", probe=True) as s:
        pin(anti_join(h["pages"], "page_id", ray.put(known)), s)
    out["join.anti_join_s"] = s["end"] - s["start"]
    out["join.rows_out"] = float(s["rows"])
    shutil.rmtree(probe_dir, ignore_errors=True)
    with tr.span("lineage.write", probe=True):
        write_stage(sigs, probe_dir, "signatures", cfg)
    out["lineage.bytes_written"] = float(
        _manifest_bytes(probe_dir, "signatures"))
    with tr.span("lineage.read", probe=True) as s:
        pin(load_stage(probe_dir, "signatures"), s)
    out["lineage.write_s"] = tr.dur("lineage.write")
    out["lineage.read_s"] = tr.dur("lineage.read")


def traced_run(job, a, run, ref: dict, notes: dict, me: int,
               probe_dir: str) -> dict:
    """``--trace 1``: one untraced job, the traced replay, probes,
    the kernel sheet and the Ray floor; returns the per-layer
    metrics."""
    from perfbench import kernels
    from perfbench.session import (check_rep, digest, labels, log,
                                   timed_rep)

    cfg = job.cfg
    run.attempted += 1
    untraced = timed_rep(job, me)
    if not check_rep(run, ref, untraced, None):
        run.failed += 1
    notes["run_dedup_stats"] = untraced["stats"]
    notes["untraced_job_s"] = untraced["job_s"]
    # the plans the job ran, as run_dedup recorded its auto choices
    stats = untraced["stats"]
    plans = {"verify_mode": stats.get("verify_plan",
                                      job.plans.get("verify_mode")),
             "cc_mode": stats.get("cc_plan", job.plans.get("cc_mode"))}

    tr = Tracer(f"{a.workload}-s{a.seed}-{me}")
    out: dict[str, float] = {}
    run.attempted += 1
    ct, h = replay(tr, job, plans, out)
    d = digest(labels(ct))
    if not run.check("traced_replay_equals_job", d == untraced["digest"],
                     {"replay": d, "job": untraced["digest"]}):
        run.failed += 1
    out["sources.read_s"] = tr.dur("sources")
    src = next(s for s in tr.spans if s["name"] == "sources")
    out["sources.bytes"] = float(src["bytes"])
    job_span = next(s for s in tr.spans if s["name"] == "job")
    out["trace.overhead_s"] = (job_span["end"] - job_span["start"]
                               - untraced["job_s"])
    out["trace.job_self_s"] = tr.self_times()[job_span["id"]]

    probes(tr, job, h, out, probe_dir, a.seed)

    with tr.span("kernels"):
        pages_tbl = to_table(h["pages"])
        tok_tbl = to_table(h["sigs"].select_columns(
            ["page_id", "token_ids"]))
        pairs = to_table(h["need_exact"]) or to_table(h["cands"])
        sheet = kernels.kernel_sheet(
            pages_tbl.append_column(
                "text", _extracted_text(pages_tbl)),
            tok_tbl, pairs.slice(0, 2000), to_table(h["all_pairs"]),
            cfg, a.seed)
    core_s = h["stage_pages"] / sheet.pop("canonsig.rows_per_core_s_cold")
    out["signatures.efficiency"] = core_s / (
        out["signatures.stage_s"] * notes["host"]["session_cpus"])
    out.update(sheet)
    with tr.span("ray_floor"):
        out.update(kernels.identity_floor(h["pages"]))

    notes["trace"] = tr.export()
    notes["kernel_core_s_signatures"] = core_s
    for sp in notes["trace"]["spans"]:
        if sp["parent"] == job_span["id"] or sp.get("probe"):
            log(f"span {sp['name']:18s} {sp['dur']:7.3f} s  self "
                f"{sp['self']:7.3f} s{'  (probe)' if sp.get('probe') else ''}")
    return {name: {"value": float(v), "unit": UNITS[name]}
            for name, v in sorted(out.items())}


def _extracted_text(pages: pa.Table) -> pa.Array:
    from nxsearch_ray.stages.html_extract import extract_text

    return extract_text(pages.select(["page_id", "html"])).column("text")


UNITS = {
    "sources.read_s": "s", "sources.bytes": "bytes",
    "html_extract.rows_per_core_s": "rows/s",
    "canonicalize.rows_per_core_s_cold": "rows/s",
    "canonicalize.rows_per_core_s_warm": "rows/s",
    "canonicalize.memo_entries": "count",
    "hashing.shingle_rows_per_s": "rows/s",
    "hashing.unique_rows_per_s": "rows/s",
    "hashing.minhash_rows_per_s": "rows/s",
    "hashing.simhash_rows_per_s": "rows/s",
    "hashing.bottomk_rows_per_s": "rows/s",
    "signatures.rows_per_core_s": "rows/s", "signatures.stage_s": "s",
    "signatures.bytes": "bytes", "signatures.efficiency": "ratio",
    "pairs.stage_s": "s", "pairs.candidates": "count",
    "pairs.candidates_per_page": "ratio",
    "verify.index_s": "s", "verify.stage_s": "s",
    "verify.pairs_in": "count", "verify.kept_ratio": "ratio",
    "verify.exact_screen": "count",
    "join.pair_join_s": "s", "join.anti_join_s": "s",
    "join.rows_out": "count",
    "suffix.index_s": "s", "suffix.stage_s": "s",
    "suffix.pairs_in": "count", "suffix.kept_ratio": "ratio",
    "suffix.adjudications_per_core_s": "1/s",
    "cc.stage_s": "s", "cc.edges_in": "count", "cc.clusters": "count",
    "lineage.write_s": "s", "lineage.read_s": "s",
    "lineage.bytes_written": "bytes",
    "unionfind.edges_per_core_s": "1/s",
    "trace.overhead_s": "s", "trace.job_self_s": "s",
    **{f"ray_floor.identity_map_s.{f}.{b}": "s"
       for f in ("pyarrow", "numpy", "pandas") for b in (256, 4096)},
}
