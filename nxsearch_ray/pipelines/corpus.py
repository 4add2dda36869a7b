"""End-to-end training-corpus pipeline: clean → near-dup → semantic.

The composed dataflow a Common-Crawl-scale training-data run actually
executes, wired as ONE resumable job (reference ships only the
indexing harness, src/utils/benchmark.c:72-109 — the cleaning/dedup
composition is the Ray-native extension surface; each tier is the
same code its standalone query uses):

  1. ``clean_pages`` — domain blocklist (stages/urlfilter.py), Gopher
     quality gate (stages/textstats.py, Rae et al. 2021 A1), PII
     scrub (stages/pii.py).  Map-only: no shuffle, streams.
  2. ``neardup``    — the flagship MinHash-LSH / SimHash / suffix
     near-dup pipeline (pipelines/dedup.run_dedup) over the cleaned
     pages; cluster ids are component minima, so every non-minimal
     member is a tier-2 drop with ``dup_of = cluster_id``.
  3. ``semantic``   — SemDeDup (stages/semdedup.semantic_dedup_clustered)
     over the embeddings of tier-2 SURVIVORS only, the cleaned pages
     the near-dup tier kept (embeddings keyed by ``vec_id ==
     page_id``; the tier is skipped when no embedding table is
     supplied).
  4. ``final``      — one decision row per cleaned page:
     ``(page_id, drop_tier, dup_of)`` with tier 0 = kept,
     2 = near-dup, 3 = semantic (tier 1, the quality gate, removes
     rows before decisions exist — reported in stats as
     ``n_quality_dropped``).

Every stage boundary goes through ``state.lineage.stage``: pinned,
and a lineage-manifest checkpoint too when ``out_dir`` is set.  A
re-run over the same pages (``input_fingerprint``; the semantic and
final stages also key on the embeddings', the near-dup tier on
``clean_pages``' lineage) resumes from the last completed stage.  The
per-block maps are ``join.map_blocks`` waves.  Each boundary —
``clean_pages``, the near-dup tier's own (``run_dedup``),
``semantic_survivors``, ``semdedup_decisions`` and ``corpus_final`` —
appends one ``{stage, wall_s, rows, bytes, resumed}`` record to
``CorpusResult.stats["stages"]``, so a bench can attribute cost.

Scale notes: stages 1 and 4 are map-only / partition-wise hash joins;
stage 2/3 scale notes live with their own pipelines.  The tier-2 and
tier-3 decision tables are a few int64s per DUPLICATE (not per page),
so the fold joins ship far less than the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import ray

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.stages.shuffle import concat, refs
from nxsearch_ray.state.lineage import (StageParams, input_fingerprint,
                                        stage)

DECISION_SCHEMA = pa.schema([("page_id", pa.int64()),
                             ("drop_tier", pa.int8()),
                             ("dup_of", pa.int64())])
_CLEAN_SCHEMA = pa.schema([("page_id", pa.int64()),
                           ("url", pa.string()),
                           ("text", pa.string())])


@dataclass
class CorpusResult:
    # shuffle.Blocks handles, computed or resumed
    decisions: "object"        # page_id, drop_tier, dup_of
    clusters: "object"         # near-dup clusters: page_id, cluster_id
    stats: dict = field(default_factory=dict)


def run_corpus(pages_ds, cfg: PipelineConfig | None = None, *,
               out_dir: str | None = None,
               embeddings_ds=None,
               blocklist: tuple[str, ...] = (),
               min_words: int = 20,
               min_required_stopwords: int = 1,
               scrub: bool = True,
               semdedup_eps: float = 0.93,
               semdedup_nlist: int = 64,
               seed: int = 42,
               verify_mode: str = "auto",
               cc_mode: str = "auto") -> CorpusResult:
    """Run the composed corpus pipeline over a pages Dataset
    (columns ``page_id, url, text`` at minimum).  ``embeddings_ds``
    is an optional ``(vec_id, embedding: list<float>)`` Dataset keyed
    by page id; without it the semantic tier is skipped."""
    import os

    from nxsearch_ray.pipelines.dedup import run_dedup
    from nxsearch_ray.stages.join import (anti_join, hash_join, id_set_ref,
                                          map_blocks)
    from nxsearch_ray.stages.pii import scrub_pii
    from nxsearch_ray.stages.textstats import gopher_filter
    from nxsearch_ray.stages.urlfilter import filter_blocklist

    cfg = cfg or PipelineConfig()
    stats: dict = {"stages": []}
    # every corpus checkpoint is reused only for the same pages; the
    # semantic tier and the final fold also read the embeddings
    fp = sem_fp = input_fingerprint(pages_ds) if out_dir is not None \
        else None
    if fp is not None and embeddings_ds is not None:
        sem_fp = f"{fp}+{input_fingerprint(embeddings_ds)}"

    # ---------------- stage 1: clean (map-only) ----------------
    clean_params = StageParams(
        stage="clean_pages", blocklist=sorted(blocklist),
        min_words=min_words,
        min_required_stopwords=min_required_stopwords,
        scrub=scrub, cfg=cfg.config_hash(), version=1)

    def clean_factory():
        ds = pages_ds
        if blocklist:
            ds = filter_blocklist(ds, blocklist)

        def clean_batch(t: pa.Table) -> pa.Table:
            t = gopher_filter(t, min_words=min_words,
                              min_required_stopwords=(
                                  min_required_stopwords))
            t = t.filter(t.column("keep"))
            text = t.column("text")
            if scrub and t.num_rows:
                text = scrub_pii(t).column("clean_text")
            return pa.table({"page_id": t.column("page_id"),
                             "url": t.column("url"),
                             "text": text}, schema=_CLEAN_SCHEMA)

        return map_blocks(ds, clean_batch, _CLEAN_SCHEMA)

    clean = stage(stats, "clean_pages", clean_factory, out_dir,
                  clean_params, fp)
    stats["n_clean_pages"] = stats["stages"][-1]["rows"]

    # ---------------- stage 2: near-dup (the flagship) ----------
    ndir = os.path.join(out_dir, "neardup") if out_dir else None
    nd = run_dedup(clean, cfg, out_dir=ndir, verify_mode=verify_mode,
                   cc_mode=cc_mode)
    clusters_ds = nd.clusters       # page_id, cluster_id (= comp min)
    stats["stages"] += nd.stats.pop("stages")
    stats.update(nd.stats)

    def t2_decide(t: pa.Table) -> pa.Table:
        ids = t.column("page_id").to_numpy()
        rep = t.column("cluster_id").to_numpy()
        keep = ids == rep           # min member stays
        return pa.table({
            "page_id": pa.array(ids[~keep], type=pa.int64()),
            "dup2": pa.array(rep[~keep], type=pa.int64())})

    # the tier-2 drops, mapped in the factories that need them, so a
    # resumed stage maps nothing
    t2_schema = pa.schema([("page_id", pa.int64()),
                           ("dup2", pa.int64())])

    # ---------------- stage 3: semantic (survivors only) --------
    dec = None
    t3_schema = pa.schema([("page_id", pa.int64()),
                           ("dup3", pa.int64())])
    if embeddings_ds is not None:
        from nxsearch_ray.stages.semdedup import semantic_dedup_clustered

        emb_schema = pa.schema([
            ("vec_id", pa.int64()),
            ("embedding", pa.list_(pa.float32()))])

        def surv_factory():
            # the cleaned pages' embeddings by one inner join (the pages
            # cross it as their ids alone, projected in its split),
            # minus the tier-2 drops (an anti-join on the broadcast drop
            # ids, a few int64s per duplicate).  A page the clean tier
            # removed is never a semantic representative.
            t2 = map_blocks(clusters_ds, t2_decide, t2_schema)
            clean_emb = hash_join(
                embeddings_ds, clean, left_key="vec_id",
                right_key="page_id", left_schema=emb_schema,
                right_schema=pa.schema([("page_id", pa.int64())]))
            return anti_join(clean_emb, "vec_id",
                             id_set_ref(t2, ["page_id"]))

        # the survivor embeddings are pinned BEFORE the semantic tier:
        # semdedup re-reads its input once per pass (census /
        # sub-train / final) — unpinned, each pass would re-run the
        # join's per-block scans; pinned, each pass is a cheap re-read.
        surv_params = StageParams(
            stage="semantic_survivors",
            clean=clean_params.config_hash(),
            cfg=cfg.config_hash(), version=2)
        surv = stage(stats, "semantic_survivors", surv_factory, out_dir,
                     surv_params, sem_fp)
        # stage_version moves with the clustered plan's own constants
        # (stages/semdedup.py), which the parameters do not name
        dec = stage(
            stats, "semdedup_decisions",
            lambda: semantic_dedup_clustered(
                surv, eps=semdedup_eps, nlist=semdedup_nlist, seed=seed),
            out_dir,
            StageParams(eps=semdedup_eps, nlist=semdedup_nlist,
                        seed=seed, stage_version=2),
            # the survivors depend on the clean and near-dup settings too
            sem_fp and f"{sem_fp}+{surv_params.config_hash()}")

        def t3_decide(t: pa.Table) -> pa.Table:
            ids = t.column("id").to_numpy()
            dup = t.column("dup_of").to_numpy()
            drop = dup >= 0
            return pa.table({
                "page_id": pa.array(ids[drop], type=pa.int64()),
                "dup3": pa.array(dup[drop], type=pa.int64())})

    # ---------------- stage 4: fold decisions -------------------
    final_params = StageParams(
        stage="corpus_final", clean=clean_params.config_hash(),
        cfg=cfg.config_hash(), eps=semdedup_eps,
        nlist=semdedup_nlist, seed=seed,
        semantic=embeddings_ds is not None, version=2)

    def final_factory():
        t2 = map_blocks(clusters_ds, t2_decide, t2_schema)
        f = hash_join(clean, t2, left_key="page_id",
                      right_key="page_id",
                      left_schema=pa.schema([("page_id", pa.int64())]),
                      right_schema=t2_schema, right_suffix="",
                      how="left")
        if dec is not None:     # f is page_id plus t2's dup2
            t3 = map_blocks(dec, t3_decide, t3_schema)
            f = hash_join(f, t3, left_key="page_id",
                          right_key="page_id", left_schema=t2_schema,
                          right_schema=t3_schema,
                          right_suffix="", how="left")

        def fold(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            n = t.num_rows
            dup2 = pc.fill_null(t.column("dup2"), -1) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            dup3 = (pc.fill_null(t.column("dup3"), -1)
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                    if "dup3" in t.schema.names
                    else np.full(n, -1, dtype=np.int64))
            tier = np.zeros(n, dtype=np.int8)
            dup = np.full(n, -1, dtype=np.int64)
            m2 = dup2 >= 0
            m3 = ~m2 & (dup3 >= 0)
            tier[m2] = 2
            tier[m3] = 3
            dup[m2] = dup2[m2]
            dup[m3] = dup3[m3]
            return pa.table({
                "page_id": t.column("page_id"),
                "drop_tier": pa.array(tier),
                "dup_of": pa.array(dup)}, schema=DECISION_SCHEMA)

        return map_blocks(f, fold, DECISION_SCHEMA)

    decisions = stage(stats, "corpus_final", final_factory, out_dir,
                      final_params, sem_fp)
    return CorpusResult(decisions=decisions, clusters=nd.clusters,
                        stats=stats)


def decisions_as_table(result: CorpusResult) -> pa.Table:
    """Collect the (small) decision table, sorted by page_id."""
    return concat(ray.get(refs(result.decisions))).sort_by("page_id")
