"""The flagship pipeline: near-duplicate detection + clustering.

End-to-end dataflow (physical plan in SURVEY.md §4):

  pages (url, warc_ts, html, text, lang)
    → extract + canonicalize + signatures
                              [one task-wave stage with per-worker
                               state: tokenizer + filter chain
                               → shingles → MinHash/SimHash/bottom-k/
                               anchors; the table keeps token_ids]
    → 4 candidate passes in ONE exchange
                              [explode keys → hash repartition → pairs]:
        exact: sequence hash    minhash: LSH bands
        simhash: Hamming chunks suffix: anchor shingles
    → union + exact pair dedup (source sets)  [hash repartition (a,b)]
    → verification            [broadcast signature index, or each
                               pair block sent its endpoints' pages
                               once, looked up in a local index;
                               one kernel]
    → exact adjudication of screen-only survivors (shingle Jaccard,
      then a window-hash probe for the longest common token run)
                              [same plan as verification; one kernel]
    → connected components    [star-edge leaf, then tree-reduce
                               union-find or label propagation]
    → clusters (page_id, cluster_id)

Each 'auto' plan choice is made by size against one per-task byte
budget (``TASK_BYTES_BUDGET``), and ``stats`` records the bytes that
decided it.

Stage boundaries: every boundary goes through ``state.lineage.stage``,
which pins it (with ``out_dir`` also written as a Parquet checkpoint,
resumable, whose lineage manifest records the config and input
fingerprint) and appends one record
``{stage, wall_s, rows, bytes, resumed}`` to ``stats["stages"]``.  The
boundaries are ``signatures`` (read by several downstream passes),
``pairs`` (the candidates), ``verify`` (the scored pairs, read by both
tiers), ``verified_pairs`` and ``clusters``; the first and the last two
are checkpointed.  ``verified_pairs`` runs ``pairs`` and ``verify``
inside its factory, so a valid checkpoint of it skips them both.  The
three entry points are one run (``_run``) over another ``signatures``
factory: a full run canonicalizes the pages, an incremental ingest
extends the prior checkpoint with the new pages' rows, a removal
anti-joins the removed ids out of it.  Every checkpoint of a run
carries that run's input fingerprint, so a checkpoint of another input
is never resumed; and ``signatures`` runs or resumes first in every
run, so the checkpoint the next ingest or removal starts from holds
the input of the stages after it.  No step runs on Ray Data's
executor: over an engine Parquet read (``sources.io.read_parquet_clean``,
listed from the files' footers), the signature wave's own tasks read
and map its row groups (``shuffle.blocks`` lists them as ``ReadPart``s),
and every later step is a wave of plain Ray tasks over block refs — a
keyed exchange (stages/shuffle.py), a broadcast lookup or a per-block
map (stages/join.broadcast_map / map_blocks) — that runs when it is
called and hands on a ``shuffle.Blocks`` handle (its block refs and
the ``(rows, bytes)`` its tasks returned beside them), not a Ray
Dataset; so is a checkpoint write, over the pinned blocks that
downstream takes, and so is a resume, one plain task per part file.  A
run builds no Ray Dataset, and the driver waits on a wave only where
it needs a count.  All hashing is seeded from the config; output
is invariant to parallelism and retries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
import ray

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.stages.cc import (
    _cc_tree_reduce,
    cc_label_propagation,
    cc_tree_unionfind,
    star_edges,
)
from nxsearch_ray.stages.join import PAIR_SCHEMA, map_blocks
from nxsearch_ray.stages.pairs import (
    multi_candidate_pairs,
    union_pair_sources,
)
from nxsearch_ray.stages.shuffle import concat, refs, union
from nxsearch_ray.stages.signatures import canonsig_stage
from nxsearch_ray.stages.suffix import (
    build_token_index_ref,
    suffix_verify_broadcast,
    suffix_verify_bucketed,
)
from nxsearch_ray.stages.verify import (
    build_signature_index_ref,
    verify_pairs_broadcast,
    verify_pairs_bucketed,
)
from nxsearch_ray.state.lineage import (
    FINGERPRINT,
    input_fingerprint,
    is_complete,
    id_hash,
    read_manifest,
    read_stage,
    stage,
)

# the bytes one task may hold: the broadcast indices (verify and
# suffix) and the tree-reduce CC root are each built in one task
TASK_BYTES_BUDGET = 1 << 30
# a star edge is two int64 page ids
STAR_EDGE_BYTES = 16


@dataclass
class DedupResult:
    # shuffle.Blocks handles, computed or resumed
    clusters: "object"            # page_id, cluster_id
    verified_pairs: "object"      # a, b, source
    stats: dict = field(default_factory=dict)


def _pair_columns(t: pa.Table) -> pa.Table:
    return t.select(PAIR_SCHEMA.names)


def _split_direct(t: pa.Table) -> pa.Table:
    """Scored pairs confirmed outright."""
    return _pair_columns(t.filter(t.column("keep_minsim")))


def _split_exact(t: pa.Table) -> pa.Table:
    """Scored pairs the screen routes to exact adjudication."""
    import pyarrow.compute as pc

    m = pc.and_(pc.invert(t.column("keep_minsim")),
                t.column("keep_exact_screen"))
    return _pair_columns(t.filter(m))


def run_dedup(pages_ds, cfg: PipelineConfig | None = None, *,
              out_dir: str | None = None,
              verify_mode: str = "auto",
              cc_mode: str = "auto") -> DedupResult:
    """Run the full near-dup pipeline over a pages Dataset.

    ``out_dir`` — checkpoint every stage there (lineage manifests,
    resumable).  A checkpoint is reused only for the same config and
    the same input (``state.lineage.input_fingerprint``).

    ``verify_mode`` — how candidate pairs meet their signatures:
      * 'auto' (default): broadcast while the pinned signature table
        fits one task's byte budget (``TASK_BYTES_BUDGET``, 1 GiB; the
        bytes come from block metadata, or from the manifest when
        checkpointed), else bucketed — the same size-based join
        selection Spark applies with autoBroadcastJoinThreshold.
        Neither plan touches the driver.
      * 'bucketed' (the 10^12-doc plan): each pair block is sent its
        endpoints' signature rows, each page once, and scores its pairs
        against a local index of them (stages/join.endpoint_map); the
        pairs never move and nothing is ever collected to one
        process.
      * 'broadcast': a signature index built in ONE remote task and
        read zero-copy by every verify task — the small-side-broadcast
        plan; valid while the signature table fits one node.
    The exact-adjudication (suffix) tier follows the same plan.

    ``cc_mode`` — connected components over the verified pairs:
      * 'auto' (default): collapse each pair block to star edges
        (vectorized per-block union-find), then tree-reduce while the
        star edges (16 B each) fit the same byte budget, else
        distributed min-label propagation over those star edges.
        Fully distributed either way; no driver-side collect.
      * 'tree' / 'labelprop': force one plan.

    ``stats`` records each auto choice (``verify_plan``, ``cc_plan``)
    next to the byte figure that decided it and the budget, and
    ``stats["stages"]`` one record per stage boundary that ran or
    resumed (``state.lineage.stage``)."""
    cfg = cfg or PipelineConfig()
    # fused extract→canonicalize→signature: the signatures table
    # carries token_ids, so no separate canonical materialization
    return _run(lambda: canonsig_stage(pages_ds, cfg), cfg, out_dir,
                None if out_dir is None else input_fingerprint(pages_ds),
                verify_mode, cc_mode)


def _run(sig_factory, cfg, out_dir, fp, verify_mode="auto",
         cc_mode="auto") -> DedupResult:
    """The run behind every entry point: ``sig_factory`` makes the
    ``signatures`` stage, ``fp`` is the input fingerprint every
    checkpoint of the run must match (None without ``out_dir``).

    ``signatures`` runs or resumes before anything downstream may
    resume: a run that crashed after writing it under another
    fingerprint leaves ``verified_pairs`` and ``clusters`` of an older
    input behind, and the next ingest or removal starts from the
    ``signatures`` checkpoint, so it must hold the input they hold."""
    stats: dict = {"task_bytes_budget": TASK_BYTES_BUDGET, "stages": []}
    signatures = stage(stats, "signatures", sig_factory, out_dir, cfg, fp)
    # no pass over the data: the record's bytes — in memory the table
    # bounds both broadcast indices (each is a column subset)
    sig_bytes = stats["stages"][-1]["bytes"]
    all_pairs = stage(
        stats, "verified_pairs",
        lambda: _verified_pairs(signatures, sig_bytes, cfg, verify_mode,
                                stats),
        out_dir, cfg, fp)
    clusters = stage(stats, "clusters",
                     lambda: _components(all_pairs, cc_mode, stats),
                     out_dir, cfg, fp)
    return DedupResult(clusters=clusters, verified_pairs=all_pairs,
                       stats=stats)


def _verified_pairs(signatures, sig_bytes, cfg, verify_mode, stats):
    """signatures → candidates → verify → exact adjudication: the
    verified (a, b, source) pairs, for the ``verified_pairs`` stage to
    pin."""
    candidates = stage(
        stats, "pairs",
        lambda: union_pair_sources(multi_candidate_pairs(signatures, cfg),
                                   min_suffix_hits=cfg.min_anchor_hits),
        None, cfg)

    if verify_mode == "auto":
        stats["verify_sig_bytes"] = sig_bytes
        verify_mode = ("broadcast" if sig_bytes <= TASK_BYTES_BUDGET
                       else "bucketed")
    stats["verify_plan"] = verify_mode
    if verify_mode == "broadcast":
        scored = stage(stats, "verify", lambda: verify_pairs_broadcast(
            candidates, build_signature_index_ref(signatures, cfg), cfg),
            None, cfg)
    elif verify_mode == "bucketed":
        scored = stage(stats, "verify", lambda: verify_pairs_bucketed(
            candidates, signatures, cfg), None, cfg)
    else:
        raise ValueError(f"unknown verify_mode {verify_mode!r}")
    direct = map_blocks(scored, _split_direct, PAIR_SCHEMA)
    need_exact = map_blocks(scored, _split_exact, PAIR_SCHEMA)

    if verify_mode == "bucketed":
        exact = suffix_verify_bucketed(need_exact, signatures, cfg)
    else:
        exact = suffix_verify_broadcast(
            need_exact, build_token_index_ref(signatures), cfg)
    exact = map_blocks(exact, _pair_columns, PAIR_SCHEMA)
    return union(direct, exact)


def _components(all_pairs, cc_mode, stats):
    """Connected components over the verified pairs (see run_dedup's
    ``cc_mode``)."""
    if cc_mode == "tree":
        stats["cc_plan"] = "tree"
        return cc_tree_unionfind(all_pairs)
    if cc_mode == "labelprop":
        stats["cc_plan"] = "labelprop"
        return cc_label_propagation(all_pairs)
    if cc_mode != "auto":
        raise ValueError(f"unknown cc_mode {cc_mode!r}")
    star = star_edges(all_pairs)
    n_star = star.count()
    stats["cc_star_edges"] = n_star
    stats["cc_star_bytes"] = n_star * STAR_EDGE_BYTES
    if n_star * STAR_EDGE_BYTES <= TASK_BYTES_BUDGET:
        stats["cc_plan"] = "tree"
        return _cc_tree_reduce(star)
    # star edges keep every component and its min id, so label
    # propagation over them gives the same clusters as over all pairs
    stats["cc_plan"] = "labelprop"
    return cc_label_propagation(star)


def run_dedup_incremental(pages_ds, cfg: PipelineConfig | None = None,
                          *, out_dir: str, **run_kw) -> DedupResult:
    """Append-only ingest — the batch analogue of the reference's
    offset-replay sync (src/index/terms.c:320-344): ``run_dedup`` whose
    ``signatures`` factory extends the prior checkpoint.  Pages already
    in it are skipped via a broadcast anti-join on page_id, only NEW
    pages run the extract→canonicalize→signature stage (the dominant
    per-document compute), and the pair/verify/CC stages re-run over
    the combined signature table.

    Exactly equal to a full recompute: candidate generation, scoring
    and clustering are pure functions of the signature SET, and the
    signature rows for old pages are byte-identical to what a full run
    would recompute.  (Re-running the shuffle stages is the price of
    exactness — reusing prior pairs is unsound under the hot-bucket
    chain policy, where a new member changes which pairs a bucket
    emits.)

    Every checkpoint of the run takes ``pages_ds``' input fingerprint:
    the prior run's ``verified_pairs`` and ``clusters`` carry another
    one and are recomputed, and a repeat over the same pages resumes.
    ``stats`` counts the prior checkpoint's rows
    (``incremental_known_pages``) and the rows the run added
    (``incremental_new_pages``) from its manifest.  The known-id set is
    built in one remote task and broadcast via the object store
    (8 B/doc; the driver never holds it); beyond single-node memory
    the anti-join needs a partitioned form: both id sets exchanged on
    page_id, as stages/join.hash_join does."""
    from nxsearch_ray.stages.join import anti_join, id_set_ref

    cfg = cfg or PipelineConfig()
    if not is_complete(out_dir, "signatures", cfg):
        # nothing to resume from — plain full run
        return run_dedup(pages_ds, cfg, out_dir=out_dir, **run_kw)

    def sig_factory():
        # held in the object store: writing the checkpoint clears the
        # directory the prior rows are read from
        prior = read_stage(out_dir, "signatures")
        new = canonsig_stage(anti_join(pages_ds, "page_id",
                                       id_set_ref(prior, ["page_id"])), cfg)
        return union(prior, new)

    n_known = read_manifest(out_dir, "signatures")["rows"]
    result = _run(sig_factory, cfg, out_dir, input_fingerprint(pages_ds),
                  **run_kw)
    result.stats["incremental_known_pages"] = n_known
    result.stats["incremental_new_pages"] = read_manifest(
        out_dir, "signatures")["rows"] - n_known
    return result


def run_dedup_remove(removed_page_ids, cfg: PipelineConfig | None = None,
                     *, out_dir: str, **run_kw) -> DedupResult:
    """Document deletion — the batch analogue of the reference's
    tombstone replay (reference src/index/dtmap.c:28-38 zero-in-place
    doc_id + appended ``(doc_id, 0)`` tombstone, replayed by
    ``idx_dtmap_remove`` at 546-655): a run whose ``signatures``
    factory anti-joins the removed pages out of the prior checkpoint
    (their canonicalization is never redone — nothing else about them
    persists), then re-runs the shuffle stages over the survivors.

    Exactly equal to a full recompute without the removed pages.
    Re-running the shuffles rather than filtering prior pairs is
    required for exactness: under the hot-bucket chain policy a
    member's removal changes which pairs its bucket emits (a chain
    through a removed doc must be re-stitched), and cluster ids are
    min-page_ids that may themselves be removed.  The run's
    fingerprint derives from the prior checkpoint's and the removed id
    set, so no checkpoint of the prior run resumes.  ``removed_found``
    is the drop in the checkpoint's rows.

    ``removed_page_ids`` — iterable of int64 page ids, or an
    ``ObjectRef`` to a sorted unique int64 array built off-driver."""
    import hashlib

    import numpy as np

    from nxsearch_ray.stages.join import anti_join

    cfg = cfg or PipelineConfig()
    if not is_complete(out_dir, "signatures", cfg):
        raise FileNotFoundError(
            f"no valid signatures checkpoint under {out_dir!r} for "
            "this config — deletion needs a prior run to delete from")

    removed_ref = removed_page_ids
    if not isinstance(removed_ref, ray.ObjectRef):
        removed_ref = ray.put(np.unique(np.asarray(
            list(removed_page_ids), dtype=np.int64)))
    n_requested, removed_hash = ray.get(_count_and_hash.remote(removed_ref))

    def sig_factory():
        surviving = anti_join(read_stage(out_dir, "signatures"), "page_id",
                              removed_ref)
        if surviving.count() == 0:
            # refuse loudly, and before stage writes anything: the
            # prior checkpoint stays as it was
            raise ValueError(
                "deletion would remove every page — clear the output "
                "directory and re-ingest instead")
        return surviving

    prior = read_manifest(out_dir, "signatures")
    digest = hashlib.sha256(
        f"{prior.get(FINGERPRINT)}|{n_requested}:{removed_hash:016x}"
        .encode()).hexdigest()
    result = _run(sig_factory, cfg, out_dir, "removed:" + digest[:32],
                  **run_kw)
    result.stats["removed_requested"] = int(n_requested)
    result.stats["removed_found"] = prior["rows"] - read_manifest(
        out_dir, "signatures")["rows"]
    return result


@ray.remote
def _count_and_hash(ids) -> tuple[int, int]:
    return len(ids), id_hash(ids)


def clusters_as_table(result: DedupResult) -> pa.Table:
    """The clusters, sorted by page_id, from the handle's refs."""
    return concat(ray.get(refs(result.clusters))).sort_by("page_id")
