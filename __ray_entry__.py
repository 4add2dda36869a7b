"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in the library) may call ``ray.init``/``ray.shutdown``.

``queries()`` exposes one entry per implemented operator/pipeline from
SURVEY.md §2 plus the training-data operators (dedup variants, the
composed corpus job, semantic dedup, text stats).  Where the semantics
are expressible in ANSI SQL, ``oracle_sql()`` carries the
DuckDB-equivalent query over the same parquet tables; the `pages`
table (north-rule input shape) is derived from `documents` by a
deterministic, SQL-reproducible CTE (see nxsearch_ray/sources/pages.py)
so both sides compute over identical inputs.  Pipelines whose output
SQL cannot predict (MinHash/LSH clustering, the corpus job's semantic
tier) are graded through invariants whose twin states the expected
answer; the one rows-only entry (the approximate clustered SemDeDup
plan) is backed by an oracle in tests/.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import Any

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.sources.io import read_parquet_clean as _read_parquet
from nxsearch_ray.stages.shuffle import grouped

# ------------------------------------------------------------------
# shared pages derivation (SQL mirror of sources/pages.py)

PAGES_CTE = """
pages AS (
  SELECT doc_id*4 AS page_id,
         'https://' || source || '.example.org/doc/' || doc_id AS url,
         TIMESTAMP '2024-01-01 00:00:00'
           + to_seconds(doc_id % 86400) AS warc_ts,
         text, lang, 'orig' AS variant
  FROM documents
  UNION ALL
  SELECT doc_id*4+1,
         'https://' || source || '.example.org/doc/' || doc_id || '/copy',
         TIMESTAMP '2024-01-01 00:00:00'
           + to_seconds(doc_id % 86400 + 3600),
         text, lang, 'copy'
  FROM documents WHERE doc_id % 7 = 0
  UNION ALL
  SELECT doc_id*4+2,
         'https://' || source || '.example.org/doc/' || doc_id || '/tail',
         TIMESTAMP '2024-01-01 00:00:00'
           + to_seconds(doc_id % 86400 + 7200),
         regexp_replace(text, '^(\\S+ ){5}', ''), lang, 'tail'
  FROM documents WHERE doc_id % 11 = 0
)
"""

_CFG = PipelineConfig()
# the graded dedup runs besides ``auto`` (see _dedup)
_DEDUP_VARIANTS = ("scale", "incremental", "removed", "onefile",
                   "resumed", "readded")
# the hot-bucket variants: each runs its base variant at _HOT_CFG
_HOT_VARIANTS = {"hotingest": "incremental", "hotremoved": "removed"}
_HOT_CFG = _CFG.with_(hot_bucket_cap=3)
# the invariants graded over each dedup variant; a hot variant's chain
# may drop a planted pair's direct edge while the pair stays in one
# cluster, so it is graded on equality with a full recompute instead
_INVARIANTS = ("dedup_pairs", "dedup_exact_verify", "cluster_sizes")
_HOT_INVARIANTS = ("dedup_exact_verify", "cluster_sizes",
                   "cluster_matches_full")
# (sf_dir, variant) -> (DedupResult, its TemporaryDirectory or None)
_DEDUP_CACHE: dict[tuple[str, str], tuple] = {}


def _pages(sf_dir: str, include_html: bool = True):
    from nxsearch_ray.sources.pages import pages_dataset

    return pages_dataset(sf_dir, include_html=include_html)


def _removed(page_id: np.ndarray) -> np.ndarray:
    """The pages the ``removed`` dedup run deletes: whole planted
    groups (``page_id // 4``), SQL ``(page_id // 4) % 10 = 3``."""
    return (page_id >> 2) % 10 == 3


def _where(pages, keep: Callable[[np.ndarray], np.ndarray]):
    """The pages whose ``page_id`` passes ``keep``."""
    def fn(t: pa.Table) -> pa.Table:
        return t.filter(pa.array(keep(t.column("page_id").to_numpy())))

    return pages.map_batches(fn, batch_format="pyarrow")


def _dedup(sf_dir: str, variant: str = "auto"):
    """Memoized dedup run (several queries grade its outputs), one per
    variant:
      * ``auto`` — ``run_dedup`` on its size-chosen plans;
      * ``scale`` — the 10^12-doc plans: bucketed verify and suffix,
        label-propagation CC;
      * ``incremental`` — a run over the even page ids, then
        ``run_dedup_incremental`` over every page;
      * ``removed`` — a full run, then ``run_dedup_remove`` of every
        ``_removed`` page;
      * ``onefile`` — ``run_dedup`` over the pages written as ONE
        Parquet file of at least 8 row groups: the read's parts are
        row groups, so the waves plan it as they plan 8 files
        (``join._wave_plan``);
      * ``resumed`` — a full run, then a rerun into the same
        ``out_dir`` after deleting the ``verified_pairs`` and
        ``clusters`` manifests, as if the run had died after
        ``verified_pairs`` wrote its parts;
      * ``readded`` — the ``removed`` run, then
        ``run_dedup_incremental`` over every page, which re-ingests
        exactly the removed ones (its stats carry the removal's
        ``removed_found``);
      * ``hotingest`` / ``hotremoved`` — the ``incremental`` and
        ``removed`` runs at ``hot_bucket_cap`` 3 (``_HOT_CFG``), where
        the delta pushes candidate buckets past the cap, so they run
        the spanning-chain policy.  At the default cap (64) no sf
        bucket has more than 5 members (4 at sf0.01), so these two are
        the only graded runs of the chain.
    A variant that writes files owns its own temporary directory, so no
    later run rewrites a file an earlier result still reads."""
    key = (sf_dir, variant)
    if key not in _DEDUP_CACHE:
        import os
        import tempfile

        from nxsearch_ray.pipelines.dedup import (run_dedup,
                                                  run_dedup_incremental,
                                                  run_dedup_remove)

        pages, tmp, cfg = _pages(sf_dir), None, _cfg(variant)
        kind = _HOT_VARIANTS.get(variant, variant)
        if kind == "auto":
            res = run_dedup(pages, cfg)
        elif kind == "scale":
            res = run_dedup(pages, cfg, verify_mode="bucketed",
                            cc_mode="labelprop")
        else:
            tmp = tempfile.TemporaryDirectory(prefix=f"dedup_{variant}_")
            if kind == "onefile":
                import pyarrow.parquet as pq

                from nxsearch_ray.sources.pages import pages_table

                t = pages_table(sf_dir)
                pq.write_table(t, os.path.join(tmp.name, "pages.parquet"),
                               row_group_size=max(1, t.num_rows // 8))
                res = run_dedup(_read_parquet(tmp.name), cfg)
            elif kind == "incremental":
                run_dedup(_where(pages, lambda p: p % 2 == 0), cfg,
                          out_dir=tmp.name)
                res = run_dedup_incremental(pages, cfg, out_dir=tmp.name)
            elif kind == "resumed":
                from nxsearch_ray.state.lineage import manifest_path

                run_dedup(pages, cfg, out_dir=tmp.name)
                for name in ("verified_pairs", "clusters"):
                    os.remove(manifest_path(tmp.name, name))
                res = run_dedup(pages, cfg, out_dir=tmp.name)
            else:
                run_dedup(pages, cfg, out_dir=tmp.name)
                ids = _pages(sf_dir, include_html=False).select_columns(
                    ["page_id"]).to_pandas()["page_id"].to_numpy()
                res = run_dedup_remove(ids[_removed(ids)], cfg,
                                       out_dir=tmp.name)
                if kind == "readded":
                    found = res.stats["removed_found"]
                    res = run_dedup_incremental(pages, cfg,
                                                out_dir=tmp.name)
                    res.stats["removed_found"] = found
        _DEDUP_CACHE[key] = (res, tmp)
    return _DEDUP_CACHE[key][0]


def _cfg(variant: str) -> PipelineConfig:
    """The config a dedup variant runs at."""
    return _HOT_CFG if variant in _HOT_VARIANTS else _CFG


def _graded_pages(sf_dir: str, variant: str, include_html: bool = False):
    """The pages a dedup variant's result covers."""
    pages = _pages(sf_dir, include_html=include_html)
    if _HOT_VARIANTS.get(variant, variant) == "removed":
        pages = _where(pages, lambda p: ~_removed(p))
    return pages


# ------------------------------------------------------------------
# query implementations (each: sf_dir -> Dataset | pa.Table | DataFrame)

def q_pages_build(sf_dir: str):
    import pyarrow.compute as pc

    def project(t: pa.Table) -> pa.Table:
        html_len = pc.binary_length(t.column("html")).cast(pa.int64())
        return t.drop_columns(["html"]).append_column(
            pa.field("html_len", pa.int64()), html_len)

    return _pages(sf_dir).map_batches(project, batch_format="pyarrow")


def q_extract_text(sf_dir: str):
    from nxsearch_ray.stages.html_extract import extract_stage

    # drop the source text first: extraction must reproduce it from
    # html alone (the byte-identical invariant)
    ds = _pages(sf_dir).drop_columns(["text", "variant"])
    return extract_stage(ds).select_columns(["page_id", "url", "text"])


def q_exact_dedup(sf_dir: str):
    """Exact-duplicate groups by content hash: one row per distinct
    text with ≥2 pages; canonical page = min page_id.  The engine
    groups by a vectorized 128-bit full-content hash straight off the
    Arrow string buffers (functions/hashing.content_hash128 — no
    per-row Python, no string materialization), then one grouped
    count+min scan (``_content_groups``).  The SQL twin groups by
    ``text`` itself, so the comparable output carries no hash column:
    each group is identified by its unique ``canonical_page_id``."""
    keyed = _pages(sf_dir, include_html=False).map_batches(
        _text_key, batch_format="pyarrow")

    return _content_groups(keyed, "n_dups").filter(expr="n_dups >= 2")


_TEXT_KEY_SCHEMA = pa.schema([("page_id", pa.int64()), ("h1", pa.int64()),
                              ("h2", pa.int64())])


def _text_key(t: pa.Table) -> pa.Table:
    """``(page_id, h1, h2)``: each page's 128-bit full-text hash."""
    from nxsearch_ray.functions.hashing import (content_hash128,
                                                string_buffers)

    offs, data = string_buffers(t.column("text"))
    h1, h2 = content_hash128(offs, data)
    return pa.table([t.column("page_id"), h1, h2],
                    schema=_TEXT_KEY_SCHEMA)


def _content_groups(keyed, n_col: str, sum_cols: tuple = ()):
    """One row per ``(h1, h2)`` content-hash group of ``keyed``: its
    min page_id (``canonical_page_id``), its size ``n_col`` and the sum
    of each ``sum_cols`` column — one grouped scan."""
    schema = pa.schema([("canonical_page_id", pa.int64()),
                        (n_col, pa.int64())]
                       + [(c, pa.int64()) for c in sum_cols])

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return pa.table(
            [np.minimum.reduceat(t.column("page_id").to_numpy(), starts),
             np.diff(starts, append=t.num_rows)]
            + [np.add.reduceat(t.column(c).to_numpy(), starts)
               for c in sum_cols], schema=schema)

    return grouped(keyed, ["h1", "h2"], fn, schema)


def q_doc_stats(sf_dir: str):
    from nxsearch_ray.stages.textstats import doc_stats

    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(doc_stats, batch_format="pyarrow") \
        .drop_columns(["text"])


def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition fractions per document
    (stages/textstats.py repetition_stats; SQL twin alongside)."""
    from nxsearch_ray.stages.textstats import repetition_stats

    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(repetition_stats, batch_format="pyarrow")


_BLOCKLIST = ("src1.example.org", "src4.example.org",
              "src13.example.org", "nonexistent.example.net")


def q_url_blocklist(sf_dir: str):
    """Domain-blocklist pass over pages (stages/urlfilter.py):
    broadcast sorted blocklist + one RE2 domain extract + one
    ``join.sorted_lookup`` membership probe per batch; audit form
    (flag, keep all rows) so the oracle sees every decision."""
    from nxsearch_ray.stages.urlfilter import filter_blocklist

    ds = _pages(sf_dir, include_html=False) \
        .select_columns(["page_id", "url"])
    return filter_blocklist(ds, _BLOCKLIST, keep_blocked=True) \
        .select_columns(["page_id", "domain", "blocked"])


def q_web_clean(sf_dir: str):
    """The composed cleaning pipeline a training-data run actually
    executes, as ONE dataflow: domain blocklist (drop) → Gopher
    quality gate → PII injection+scrub → exact dedup by scrubbed
    text (canonical = min page_id).  Every stage is the same code
    the standalone queries use; the single SQL twin composes their
    fragments, so this row breaks if any stage OR the composition
    order drifts."""
    from nxsearch_ray.functions.hashing import (content_hash128,
                                                string_buffers)
    from nxsearch_ray.stages.pii import inject_pii, scrub_pii
    from nxsearch_ray.stages.textstats import gopher_filter
    from nxsearch_ray.stages.urlfilter import filter_blocklist

    ds = _pages(sf_dir, include_html=False) \
        .select_columns(["page_id", "url", "text"])
    ds = filter_blocklist(ds, _BLOCKLIST)

    def quality_and_scrub(t: pa.Table) -> pa.Table:
        t = gopher_filter(t, min_words=20, min_required_stopwords=1)
        t = t.filter(t.column("keep"))
        t = scrub_pii(inject_pii(t.select(["page_id", "text"])))
        offs, data = string_buffers(t.column("clean_text"))
        h1, h2 = content_hash128(offs, data)
        return pa.table({
            "page_id": t.column("page_id"),
            "h1": pa.array(h1, type=pa.int64()),
            "h2": pa.array(h2, type=pa.int64()),
            "n_email": t.column("n_email")})

    keyed = ds.map_batches(quality_and_scrub, batch_format="pyarrow")
    return _content_groups(keyed, "n_pages", ("n_email",))


def q_gopher_quality(sf_dir: str):
    """Gopher-rules document filter (Rae et al. 2021 A1) over
    documents: rule columns + keep decision, all vectorized RE2
    kernels (stages/textstats.py gopher_filter; SQL twin generated
    from the same constants)."""
    from nxsearch_ray.stages.textstats import gopher_filter

    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                       columns=["doc_id", "text"])
    return ds.map_batches(
        lambda t: gopher_filter(t, min_words=20,
                                min_required_stopwords=1),
        batch_format="pyarrow").drop_columns(["text"])


def q_pii_scrub(sf_dir: str):
    """PII detection + redaction over the pages table
    (stages/pii.py): deterministic page_id-derived PII is injected
    first (the sandbox corpus is clean word soup), then counted and
    scrubbed with vectorized RE2 kernels — the SQL twin runs the same
    injection, the same patterns, the same replacement order."""
    from nxsearch_ray.stages.pii import inject_pii, scrub_pii

    def fn(t: pa.Table) -> pa.Table:
        out = scrub_pii(inject_pii(t))
        return out.select(["page_id", "n_email", "n_phone", "n_ip",
                           "n_ssn", "n_ccn", "n_iban", "clean_text"])

    return _pages(sf_dir, include_html=False).map_batches(
        fn, batch_format="pyarrow")


def q_lang_counts(sf_dir: str):
    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["lang"])
    schema = pa.schema([("lang", pa.string()), ("n_docs", pa.int64())])
    return grouped(ds, ["lang"], lambda t, starts: pa.table(
        [t.column("lang").take(starts),
         np.diff(starts, append=t.num_rows)], schema=schema), schema)


def q_fingerprint(sf_dir: str):
    from nxsearch_ray.stages.textstats import fingerprint

    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(fingerprint, batch_format="pyarrow") \
        .select_columns(["doc_id", "md5"])


# sandbox embeddings are near-random (max pairwise cos ≈ 0.51 at
# sf0.01): the dup threshold is set low so the parity check is non-empty
_EMB_DUP_THR = 0.45


def q_dedup_clusters(sf_dir: str):
    from nxsearch_ray.pipelines.dedup import clusters_as_table

    return clusters_as_table(_dedup(sf_dir))


def q_dedup_pairs(sf_dir: str, variant: str = "auto"):
    """Planted-pair recall invariant over a dedup run's
    ``verified_pairs`` (the raw pair table is not SQL-expressible —
    genuine extra near-dup pairs between similar synthetic docs are
    legitimate output): PAGES_CTE plants a ``copy`` variant
    (doc_id%7==0, byte-identical — the exact pass must pair it with
    its original) and a ``tail`` variant (doc_id%11==0, first 5 words
    dropped — the containment/suffix path must pair it).  One row per
    planted pair with ``found``; the SQL twin enumerates the same
    pairs with TRUE, so any recall regression breaks the value hash.

    Plan: pair keys are packed per block and sorted in ONE remote task
    (``join.id_set_ref``; verified pairs are a small fraction of the
    corpus) and broadcast; planted pairs stream out of pages in
    ``map_batches`` with a vectorized ``join.sorted_lookup`` probe.
    At 10^12 docs (page ids past 2^31) the broadcast probe becomes a
    bucketed hash join on (a, b) — the verify_pairs_bucketed shape."""
    import ray

    from nxsearch_ray.stages.join import id_set_ref, sorted_lookup

    def pack(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column("a").to_numpy()
                         * (np.int64(1) << 32) + t.column("b").to_numpy()})

    bcast = id_set_ref(_dedup(sf_dir, variant).verified_pairs
                       .map_batches(pack, batch_format="pyarrow"), ["k"])
    out_schema = pa.schema([("page_a", pa.int64()),
                            ("page_b", pa.int64()),
                            ("variant", pa.string()),
                            ("found", pa.bool_())])

    def probe(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.is_in(t.column("variant"),
                     value_set=pa.array(["copy", "tail"]))
        t = t.filter(m)
        if t.num_rows == 0:
            return out_schema.empty_table()
        keys = ray.get(bcast)
        b = t.column("page_id").to_numpy()
        a = b - (b & 3)
        # a < b always: a = b&~3
        _, found = sorted_lookup(keys, a * (np.int64(1) << 32) + b)
        return pa.table({
            "page_a": pa.array(a, type=pa.int64()),
            "page_b": pa.array(b, type=pa.int64()),
            "variant": t.column("variant"),
            "found": pa.array(found)})

    return _graded_pages(sf_dir, variant) \
        .select_columns(["page_id", "variant"]) \
        .map_batches(probe, batch_format="pyarrow")


def _group_check(sf_dir: str, variant: str,
                 add_keys: Callable[[pa.Table], pa.Table],
                 keys: list[str], flag: str):
    """One group check of a dedup run's clusters: pages grouped by
    ``keys`` (``add_keys`` maps a page block to ``page_id`` plus the
    key columns), one row per group of >= 2 pages with its min page
    id, its size, the number of clusters it spans (a page missing
    from the clusters counts as its own) and one per-group ``flag``:
      * ``cluster_size_ok`` — the group's smallest cluster holds at
        least as many pages as the group;
      * ``cluster_is_component_min`` — every member's cluster id is
        that cluster's min page id.

    Plan: clusters table → broadcast (page_id → cluster_id) map plus
    per-cluster size and min-id flag (clusters hold only duplicate
    pages, a small fraction of the corpus); ONE grouped scan of the
    pages on ``keys``, reduceat over its runs — no per-group Python,
    no driver collect (a 10^12-doc run would
    hash-join on page_id instead of broadcasting)."""
    import ray

    from nxsearch_ray.pipelines.dedup import clusters_as_table
    from nxsearch_ray.stages.join import sorted_lookup

    ct = clusters_as_table(_dedup(sf_dir, variant))   # page_id order
    pid = ct.column("page_id").to_numpy()
    cid = ct.column("cluster_id").to_numpy()
    o = np.argsort(cid, kind="stable")
    cs = cid[o]
    starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]]) \
        if len(cs) else np.zeros(0, np.int64)
    bcast = ray.put({
        "pids": pid, "cids": cid, "uc": cs[starts],
        "usz": np.diff(np.r_[starts, len(cs)]),
        "umin_ok": (np.minimum.reduceat(pid[o], starts) == cs[starts])
        if len(cs) else np.zeros(0, bool)})
    out_schema = pa.schema([
        ("group_min_page_id", pa.int64()), ("n_pages", pa.int64()),
        ("n_clusters", pa.int64()), (flag, pa.bool_())])

    def check(t: pa.Table, starts: np.ndarray) -> pa.Table:
        b = ray.get(bcast)
        pid = t.column("page_id").to_numpy()
        gsize = np.diff(starts, append=len(pid))
        dup = gsize >= 2
        if not dup.any():
            return out_schema.empty_table()
        # cluster id, its size and min-id flag per page; unclustered
        # pages get unique negative sentinels, so a missing member
        # makes n_clusters > 1 (a failure)
        cl = -pid - 1
        size = np.zeros(len(pid), np.int64)
        min_ok = np.zeros(len(pid), bool)
        j, hit = sorted_lookup(b["pids"], pid)
        if hit.any():
            cl[hit] = b["cids"][j[hit]]
            k = np.searchsorted(b["uc"], cl[hit])
            size[hit] = b["usz"][k]
            min_ok[hit] = b["umin_ok"][k]
        # every per-group stat is a reduceat over the key runs; the
        # cluster count sorts each run by cluster id first
        cls = cl[np.lexsort((cl, np.repeat(np.arange(len(starts)),
                                           gsize)))]
        runs = np.r_[True, cls[1:] != cls[:-1]]
        runs[starts] = True
        ok = (np.minimum.reduceat(size, starts) >= gsize
              if flag == "cluster_size_ok"
              else np.logical_and.reduceat(min_ok, starts))
        return pa.table([
            np.minimum.reduceat(pid, starts)[dup], gsize[dup],
            np.add.reduceat(runs.astype(np.int64), starts)[dup],
            ok[dup]], schema=out_schema)

    keyed = _graded_pages(sf_dir, variant) \
        .map_batches(add_keys, batch_format="pyarrow")
    return grouped(keyed, keys, check, out_schema)


def q_cluster_sizes(sf_dir: str, variant: str = "auto"):
    """Planted-group cluster-size invariant (the successor of the
    rows-only top-20 listing, which any user gets from one
    ``value_counts`` over ``dedup_clusters``): every planted variant
    group {orig, copy?, tail?} — pages sharing ``page_id // 4``, the
    SQL-derivable duplicate groups INCLUDING near-dup tails, stronger
    than ``dedup_exact_verify``'s exact-only groups — must sit in ONE
    cluster (``n_clusters`` = 1) whose total size is at least the
    group size (``cluster_size_ok``: the cluster may legitimately be
    bigger via genuine cross-doc near-dups, never smaller)."""
    def add_grp(t: pa.Table) -> pa.Table:
        pid = t.column("page_id").to_numpy()
        return pa.table({"page_id": t.column("page_id"),
                         "grp": pa.array(pid >> 2, type=pa.int64())})

    return _group_check(sf_dir, variant, add_grp, ["grp"],
                        "cluster_size_ok")


def q_dedup_exact_verify(sf_dir: str, variant: str = "auto"):
    """DuckDB-checkable invariant over a dedup run's clusters output
    (the two most important tables are otherwise non-SQL-expressible):
    every content-identical page group — the planted ``copy``
    variants, derivable in SQL from PAGES_CTE — must be co-clustered
    (``n_clusters`` = 1), and the pipeline's cluster ids are
    component-minimum page ids (``cluster_is_component_min``).  A
    clustering regression breaks the value hash.  Groups are keyed by
    the vectorized 128-bit content hash (content_hash128) and
    identified in the output by their min page id, so the SQL twin
    groups by ``text`` itself — no hash parity needed and no per-row
    Python anywhere."""
    from nxsearch_ray.functions.hashing import (content_hash128,
                                                string_buffers)

    def add_key(t: pa.Table) -> pa.Table:
        offs, data = string_buffers(t.column("text"))
        h1, h2 = content_hash128(offs, data)
        return pa.table({
            "page_id": t.column("page_id"),
            "h1": pa.array(h1, type=pa.int64()),
            "h2": pa.array(h2, type=pa.int64())})

    return _group_check(sf_dir, variant, add_key, ["h1", "h2"],
                        "cluster_is_component_min")


def q_cluster_matches_full(sf_dir: str, variant: str):
    """Full-recompute invariant over a dedup variant's clusters: one
    ``(page_id, matches_full)`` row per graded page, true iff the
    page's cluster id equals the one a fresh ``run_dedup`` at the
    variant's config gives over the same pages (a page in no cluster
    matches only a page in no cluster).  ``run_dedup_incremental`` and
    ``run_dedup_remove`` claim exactly that equality, so the twin says
    all true.

    Plan: both clusters tables (duplicate pages only) broadcast as
    sorted (page_id, cluster_id) arrays; one probe map over the graded
    pages."""
    import ray

    from nxsearch_ray.pipelines.dedup import clusters_as_table, run_dedup
    from nxsearch_ray.stages.join import sorted_lookup

    def ids(res) -> tuple[np.ndarray, np.ndarray]:
        ct = clusters_as_table(res)                     # page_id order
        return (ct.column("page_id").to_numpy(),
                ct.column("cluster_id").to_numpy())

    full = run_dedup(_graded_pages(sf_dir, variant, include_html=True),
                     _cfg(variant))
    bcast = ray.put((ids(_dedup(sf_dir, variant)), ids(full)))

    def probe(t: pa.Table) -> pa.Table:
        pid = t.column("page_id").to_numpy()
        cl = []
        for pids, cids in ray.get(bcast):
            j, hit = sorted_lookup(pids, pid)
            c = np.full(len(pid), -1, np.int64)
            c[hit] = cids[j[hit]]
            cl.append(c)
        return pa.table({"page_id": pid, "matches_full": cl[0] == cl[1]})

    return _graded_pages(sf_dir, variant).select_columns(["page_id"]) \
        .map_batches(probe, batch_format="pyarrow")


def q_signatures_plain(sf_dir: str):
    """Signature stage with ``filters=()`` over documents — the
    SQL-mirrorable slice: ``num_shingles`` is the per-doc count of
    DISTINCT k-token shingles (k = cfg.shingle_k = 5; docs shorter
    than k tokens get exactly one whole-sequence shingle, empty docs
    zero — functions/hashing.shingle_hashes), reproduced in DuckDB
    with the same RE2-safe token regex used by canonicalize_plain."""
    from nxsearch_ray.stages.signatures import signature_stage

    sigs = signature_stage(_canonical_docs(sf_dir), _SEARCH_CFG,
                           keep_columns=("doc_id",))

    def project(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column("doc_id"),
            "num_shingles": t.column("num_shingles").cast(pa.int64())})

    return sigs.map_batches(project, batch_format="pyarrow")


def q_canonicalize_plain(sf_dir: str):
    """Tokenizer-only canonicalization (filters=()) over documents —
    the SQL-mirrorable slice of the canonical stage: per-doc token
    count and distinct-token count."""
    return _canonical_docs(sf_dir).select_columns(
        ["doc_id", "doc_len", "n_unique"]).map_batches(
        lambda t: pa.Table.from_arrays(
            [t.column("doc_id"),
             t.column("doc_len").cast(pa.int64()),
             t.column("n_unique").cast(pa.int64())],
            names=["doc_id", "doc_len", "n_unique"]),
        batch_format="pyarrow")


def q_langid(sf_dir: str):
    from nxsearch_ray.stages.textstats import LangIdActor

    ds = _read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "text"])
    return ds.map_batches(LangIdActor(), batch_format="pyarrow") \
        .drop_columns(["text"])


def q_embedding_dups(sf_dir: str):
    """Exact embedding near-dup pairs via the BLOCKED all-pairs plan
    (block-pair tasks, no full-matrix broadcast — the scale-safe exact
    plan); small block_rows so several blocks are exercised even at
    sandbox scale."""
    from nxsearch_ray.stages.semdedup import embedding_dup_pairs_blocked

    ds = _read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return embedding_dup_pairs_blocked(ds, threshold=_EMB_DUP_THR,
                                       block_rows=1024)


_SEMDEDUP_EPS = 0.4     # sandbox embeddings are near-random (max
                        # pairwise cos ≈ 0.51); 0.4 drops ~10% so the
                        # keep/drop logic is genuinely exercised


def q_semantic_dedup(sf_dir: str):
    """SemDeDup keep/drop decisions (arXiv:2303.09540, min-id
    representative) — EXACT plan: blocked all-pairs -> grouped min
    (semdedup.dup_map) -> partition-wise left join of flags onto the
    corpus.  The clustered scale plan is `semantic_dedup_clustered` below; its
    drops are gated as a sound subset of this plan's in tests."""
    from nxsearch_ray.stages.semdedup import semantic_dedup_exact

    ds = _read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semantic_dedup_exact(ds, eps=_SEMDEDUP_EPS, block_rows=1024)


def q_semantic_dedup_clustered(sf_dir: str):
    """SemDeDup proper (the 100-TB plan): sample-trained spherical
    k-means -> streaming cluster assignment -> per-cluster blocked
    rule.  Approximate exactly the paper's way (cross-cluster dups
    missed), so no SQL twin; tests gate subset-of-exact on this very
    table, equality at nlist=1, and planted-duplicate recall."""
    from nxsearch_ray.stages.semdedup import semantic_dedup_clustered

    ds = _read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return semantic_dedup_clustered(ds, eps=_SEMDEDUP_EPS, nlist=8,
                                    seed=42)


_EMB_SCHEMA = pa.schema([("vec_id", pa.int64()),
                         ("embedding", pa.list_(pa.float32()))])


def _drop_justified(ds, schema: pa.Schema, emb, id_col: str):
    """``ds`` (rows with ``id_col`` and ``dup_of``, ``schema``) plus
    ``justified``: true for a kept row (``dup_of < 0``), else iff
    ``dup_of < id`` and the cosine of the two rows' ``emb`` vectors is
    at least eps (minus the float32 kernel's rounding, 1e-5).  Two
    partition-wise hash joins fetch each row's own and dup embeddings;
    a row with either embedding missing is not justified."""
    import pyarrow.compute as pc

    from nxsearch_ray.stages.join import hash_join
    from nxsearch_ray.stages.semdedup import _embedding_matrix, _normalize

    j1 = hash_join(ds, emb, left_key=id_col, right_key="vec_id",
                   left_schema=schema, right_schema=_EMB_SCHEMA,
                   how="left")
    j2 = hash_join(
        j1, emb, left_key="dup_of", right_key="vec_id",
        left_schema=pa.schema(list(schema) + [
            ("embedding_r", pa.list_(pa.float32()))]),
        right_schema=_EMB_SCHEMA, right_suffix="_dup", how="left")

    def check(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy()
        dup = t.column("dup_of").to_numpy()
        ok = dup < 0                          # kept rows: nothing owed
        have = (~ok & pc.is_valid(t.column("embedding_r"))
                .to_numpy(zero_copy_only=False)
                & pc.is_valid(t.column("embedding_dup"))
                .to_numpy(zero_copy_only=False))
        if have.any():
            s = t.filter(pa.array(have))
            a = _normalize(_embedding_matrix(s, "embedding_r"))
            b = _normalize(_embedding_matrix(s, "embedding_dup"))
            ok[have] = ((a * b).sum(axis=1) >= _SEMDEDUP_EPS - 1e-5) \
                & (dup[have] < ids[have])
        return t.drop_columns(["embedding_r", "embedding_dup"]) \
            .append_column("justified", pa.array(ok))

    return j2.map_batches(check, batch_format="pyarrow")


def q_semdedup_clustered_verify(sf_dir: str):
    """Invariant oracle for the clustered plan (the dedup_exact_verify
    discipline): completeness is approximate by design — cross-cluster
    pairs are missed, so full output equality is not SQL-expressible —
    but every DROP must be justified (``_drop_justified``): dup_of < id
    and cos(id, dup_of) >= eps.  The emitted (id, dup_valid) must be
    all-true, which is exactly the SQL twin — any unjustified drop,
    dangling dup_of, or dup_of >= id hash-mismatches."""
    from nxsearch_ray.stages.semdedup import (OUT_SCHEMA,
                                              semantic_dedup_clustered)

    emb = _read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    out = semantic_dedup_clustered(emb, eps=_SEMDEDUP_EPS, nlist=8,
                                   seed=42)
    return _drop_justified(out, OUT_SCHEMA, emb, "id").map_batches(
        lambda t: pa.table({"id": t.column("id"),
                            "dup_valid": t.column("justified")}),
        batch_format="pyarrow")


# ------------------------------------------------------------------
# the composed corpus job: clean -> near-dup -> semantic
# (pipelines/corpus.run_corpus), graded through five invariants

# sf_dir -> CorpusResult
_CORPUS_CACHE: dict[str, Any] = {}


def _page_embeddings(sf_dir: str):
    """One embedding per page: ``vec_id = page_id`` carries the vector
    of its document ``page_id >> 2``, so a planted copy shares its
    original's vector (SQL: ``pages JOIN embeddings ON
    embeddings.vec_id = page_id // 4``)."""
    from nxsearch_ray.stages.join import hash_join

    def doc_key(t: pa.Table) -> pa.Table:
        ids = t.column("page_id").to_numpy()
        return pa.table({"page_id": ids, "doc_id": ids >> 2})

    keyed = _pages(sf_dir, include_html=False).map_batches(
        doc_key, batch_format="pyarrow")
    emb = _read_parquet(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    joined = hash_join(keyed, emb, left_key="doc_id", right_key="vec_id",
                       left_schema=pa.schema([("page_id", pa.int64()),
                                              ("doc_id", pa.int64())]),
                       right_schema=_EMB_SCHEMA)
    return joined.map_batches(
        lambda t: pa.table({"vec_id": t.column("page_id"),
                            "embedding": t.column("embedding_r")}),
        batch_format="pyarrow")


def _corpus(sf_dir: str):
    """Memoized ``run_corpus`` over the pages, with ``url_blocklist``'s
    blocklist and ``_page_embeddings`` (several queries grade its
    decision rows).  It runs at the semantic queries' eps: at
    ``run_corpus``'s default 0.93 the near-random sandbox vectors drop
    no page semantically, and the semantic invariant would test
    nothing."""
    if sf_dir not in _CORPUS_CACHE:
        from nxsearch_ray.pipelines.corpus import run_corpus

        _CORPUS_CACHE[sf_dir] = run_corpus(
            _pages(sf_dir, include_html=False), _CFG,
            embeddings_ds=_page_embeddings(sf_dir), blocklist=_BLOCKLIST,
            semdedup_eps=_SEMDEDUP_EPS, semdedup_nlist=8, seed=42)
    return _CORPUS_CACHE[sf_dir]


def q_corpus_decisions(sf_dir: str):
    """The page ids of the corpus job's decision rows.  The twin lists
    the clean tier's survivors (off the blocklist, Gopher ``keep``):
    a missing or doubled decision row, or a drift in the clean tier,
    breaks the hash."""
    return _corpus(sf_dir).decisions.select_columns(["page_id"])


def q_corpus_exact_groups(sf_dir: str):
    """One row per group of ≥ 2 clean pages with identical text:
    ``(group_min_page_id, n_kept_non_min)``, the second counting the
    members other than the group's min that the near-dup tier kept
    (``drop_tier`` ≠ 2).  Identical pages share a cluster whose id is
    at most the group's min, so the twin says 0 everywhere; a surviving
    non-min member breaks the hash."""
    from nxsearch_ray.pipelines.corpus import DECISION_SCHEMA
    from nxsearch_ray.stages.join import hash_join

    schema = pa.schema([("group_min_page_id", pa.int64()),
                        ("n_kept_non_min", pa.int64())])

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ids = t.column("page_id").to_numpy()
        n = np.diff(starts, append=len(ids))
        lo = np.minimum.reduceat(ids, starts)
        kept = (t.column("drop_tier").to_numpy() != 2) \
            & (ids != np.repeat(lo, n))
        big = n >= 2
        return pa.table([lo[big], np.add.reduceat(
            kept.astype(np.int64), starts)[big]], schema=schema)

    keyed = _pages(sf_dir, include_html=False).map_batches(
        _text_key, batch_format="pyarrow")
    joined = hash_join(keyed, _corpus(sf_dir).decisions,
                       left_key="page_id", right_key="page_id",
                       left_schema=_TEXT_KEY_SCHEMA,
                       right_schema=DECISION_SCHEMA, right_suffix="")
    return grouped(joined, ["h1", "h2"], fn, schema)


def _corpus_dup_tiers(sf_dir: str):
    """The decision rows, each with its ``dup_of``'s own drop tier
    (``drop_tier_dup``, null when ``dup_of`` is no decision row)."""
    from nxsearch_ray.pipelines.corpus import DECISION_SCHEMA
    from nxsearch_ray.stages.join import hash_join

    dec = _corpus(sf_dir).decisions
    return hash_join(dec, dec.select_columns(["page_id", "drop_tier"]),
                     left_key="dup_of", right_key="page_id",
                     left_schema=DECISION_SCHEMA,
                     right_schema=DECISION_SCHEMA.remove(2),
                     right_suffix="_dup", how="left")


def _survivor(dup_tier: pa.ChunkedArray) -> np.ndarray:
    """Whether each ``drop_tier_dup`` names a near-dup survivor (a
    decision row of tier 0 or 3)."""
    tier = dup_tier.fill_null(2).to_numpy(zero_copy_only=False)
    return (tier == 0) | (tier == 3)


def q_corpus_neardup_valid(sf_dir: str):
    """``(page_id, valid)`` per decision row.  A near-dup drop (tier 2)
    is valid iff its ``dup_of`` is a smaller page the near-dup tier
    kept, a kept row (tier 0) iff it has no ``dup_of``; a semantic drop
    is graded by ``corpus_semantic_valid`` and any other tier is
    invalid.  The twin says all true."""
    def check(t: pa.Table) -> pa.Table:
        ids = t.column("page_id").to_numpy()
        tier = t.column("drop_tier").to_numpy()
        dup = t.column("dup_of").to_numpy()
        valid = np.where(
            tier == 2, (dup < ids) & _survivor(t.column("drop_tier_dup")),
            ((tier == 0) & (dup < 0)) | (tier == 3))
        return pa.table({"page_id": ids, "valid": valid})

    return _corpus_dup_tiers(sf_dir).map_batches(check,
                                                 batch_format="pyarrow")


def q_corpus_semantic_valid(sf_dir: str):
    """``(page_id, valid)`` per decision row.  A semantic drop (tier 3)
    is valid iff its ``dup_of`` survived the near-dup tier and the drop
    is justified by the page embeddings (``_drop_justified``: a smaller
    ``dup_of`` at cosine ≥ eps, as ``semdedup_clustered_verify``
    checks).  The twin says all true."""
    from nxsearch_ray.pipelines.corpus import DECISION_SCHEMA

    def check(t: pa.Table) -> pa.Table:
        tier = t.column("drop_tier").to_numpy()
        ok = t.column("justified").to_numpy(zero_copy_only=False) \
            & _survivor(t.column("drop_tier_dup"))
        return pa.table({"page_id": t.column("page_id"),
                         "valid": (tier != 3) | ok})

    schema = pa.schema(list(DECISION_SCHEMA)
                       + [("drop_tier_dup", pa.int8())])
    return _drop_justified(_corpus_dup_tiers(sf_dir), schema,
                           _page_embeddings(sf_dir), "page_id") \
        .map_batches(check, batch_format="pyarrow")


def q_corpus_planted_copies(sf_dir: str):
    """``(page_id, found)`` per planted ``copy`` page (``page_id % 4 =
    1``) whose original also has a decision row; ``found`` iff the copy
    was dropped at the near-dup tier.  One grouped scan over the
    decision rows keyed by their document ``page_id >> 2``.  The twin
    says all found."""
    schema = pa.schema([("page_id", pa.int64()), ("found", pa.bool_())])

    def doc_key(t: pa.Table) -> pa.Table:
        return t.append_column("doc_id", pa.array(
            t.column("page_id").to_numpy() >> 2))

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        ids = t.column("page_id").to_numpy()
        run = np.repeat(np.arange(len(starts)),
                        np.diff(starts, append=len(ids)))
        has_orig = np.zeros(len(starts), dtype=bool)
        has_orig[run[ids % 4 == 0]] = True
        copy = (ids % 4 == 1) & has_orig[run]
        return pa.table(
            [ids[copy], t.column("drop_tier").to_numpy()[copy] == 2],
            schema=schema)

    keyed = _corpus(sf_dir).decisions.map_batches(doc_key,
                                                  batch_format="pyarrow")
    return grouped(keyed, ["doc_id"], fn, schema)


def q_bucket_census(sf_dir: str):
    """Candidate-bucket-size census (the skew-policy pre-pass, SURVEY
    §2.5 A2) over the SQL-mirrorable slice: ``filters=()`` signatures
    of the plain ``documents`` table, three deterministic sources —
    the raw per-band census is NOT SQL-predictable (real LSH band
    collisions between unequal shingle sets, ~p^4 per band at Jaccard
    p: 554 size-2 buckets at sf0.001; it stays available as the
    ungraded skew diagnostic ``diagnostics.bucket_census``):

    - ``exact``: bucket = full token sequence (seq_hash) — the exact
      pass's group-size histogram;
    - ``shingle_set``: bucket = the doc's distinct-5-shingle SET via
      an order-invariant XOR fold over its unique shingle hashes
      (equal sets ⇔ equal fold; a signature-EQUALITY census would NOT
      be deterministic here: planted near-dup sets differing by one
      shingle out of ~85 agree on all 128 MinHash slots with prob
      J^128 ≈ 0.22, observed 4× at sf0.001).  The twin groups docs by
      the sorted distinct shingle list.  Breaks on shingling /
      per-doc-dedup regressions;
    - ``band_fanout``: bucket = the emitting doc, one member per band
      key — every doc MUST emit exactly ``lsh_bands`` (=32) keys, so
      the histogram is a single (32, n_docs) row.  Breaks on wrong
      band count or dropped docs.

    Key-disjoint census plan: diagnostics.census_over_keys."""
    from nxsearch_ray.functions import hashing as H
    from nxsearch_ray.stages.diagnostics import census_over_keys
    from nxsearch_ray.stages.signatures import (list_column_numpy,
                                                signature_stage)

    cfg = _SEARCH_CFG
    U = np.uint64

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        seq = t.column("seq_hash").to_numpy().astype(U)
        tok_flat, tok_off = list_column_numpy(t.column("token_ids"))
        sh_flat, sh_off = H.shingle_hashes(tok_flat, tok_off,
                                           cfg.shingle_k)
        uflat, uoff = H.unique_per_doc(sh_flat, sh_off)
        seg = uoff[1:] - uoff[:-1]
        # order-invariant set fold: XOR of (already uniform) shingle
        # hashes, salted with the set size; reduceat returns
        # x[start] for zero-length segments, so mask empties
        xors = np.zeros(n, dtype=U)
        nz = seg > 0
        if nz.any():
            red = np.bitwise_xor.reduceat(uflat, uoff[:-1][nz])
            xors[nz] = red
        fold = H.splitmix64(xors ^ H.splitmix64(seg.astype(U) ^ U(0x51)))
        doc = t.column("doc_id").to_numpy().astype(U)
        fan = np.repeat(H.splitmix64(doc ^ U(0xBF)), cfg.lsh_bands)
        keys = np.concatenate([H.splitmix64(seq ^ U(0xE0)), fold, fan])
        src = np.concatenate([
            np.zeros(n, np.int8), np.ones(n, np.int8),
            np.full(n * cfg.lsh_bands, 2, np.int8)])
        return pa.table({"bucket_key": pa.array(keys.view(np.int64)),
                         "src": pa.array(src)})

    keyed = signature_stage(_canonical_docs(sf_dir), _SEARCH_CFG,
                            keep_columns=("doc_id", "token_ids")) \
        .map_batches(explode, batch_format="pyarrow")
    return census_over_keys(keyed,
                            ("exact", "shingle_set", "band_fanout"))


# the canonicalization and signature twins run with filters=() so the
# DuckDB oracle can mirror tokenization exactly (no stemmer/stopwords
# in ANSI SQL); the filter chain itself is pinned by tests/test_filters.py
_SEARCH_CFG = PipelineConfig(filters=())
# RE2-safe equivalent of functions/tokenizer._TOKEN_RE (lookaheads
# rewritten as consuming alternatives)
_SQL_TOKEN_RE = (r"[\pL\pN\pM\p{Pc}]+"
                 r"(?:[''’.:·]\pL[\pL\pN\pM\p{Pc}]*"
                 r"|[.,;''’]\pN[\pL\pN\pM\p{Pc}]*)*")  # '' = SQL-escaped '

# CJK second pass (functions/tokenizer.PASS2_PATTERN): RE2-safe, applied
# to every coarse token via a list lambda — identity on non-CJK tokens,
# so engine (conditional) and oracle (unconditional) agree exactly.
from nxsearch_ray.functions.tokenizer import PASS2_PATTERN as _PASS2

_SQL_PASS2_RE = _PASS2.replace("'", "''")  # '' = SQL-escaped '


def _sql_tokens(col: str) -> str:
    """Tokenizer twin: two-pass segmentation as a DuckDB expression,
    in lockstep with functions/tokenizer.segment_words."""
    return (f"flatten(list_transform(regexp_extract_all({col}, "
            f"'{_SQL_TOKEN_RE}'), x -> regexp_extract_all(x, "
            f"'{_SQL_PASS2_RE}')))")


_CANON_DOCS_CACHE: dict[str, Any] = {}


def _canonical_docs(sf_dir: str):
    from nxsearch_ray.stages.canonicalize import canonicalize_stage

    if sf_dir not in _CANON_DOCS_CACHE:
        ds = _read_parquet(f"{sf_dir}/documents.parquet",
                                   columns=["doc_id", "text", "lang"])
        _CANON_DOCS_CACHE[sf_dir] = canonicalize_stage(
            ds, _SEARCH_CFG).materialize()
    return _CANON_DOCS_CACHE[sf_dir]


# ------------------------------------------------------------------

def entry() -> Any:
    """Flagship: full near-dup pipeline at sf0.001 → clusters table."""
    return q_dedup_clusters("/root/testdata/sf0.001").to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    """Registry order is load-bearing: the driver grades the FIRST 50
    entries, so every SQL-twinned (hash-comparable) query precedes
    every ``no_oracle`` (rows-only) one, and the SQL-twinned block is
    exactly those 50 — no twinned query sits past the grading cap.
    The no_oracle tail is consolidated (round-4 verdict): ``signatures`` /
    ``canonicalize`` duplicated their ``_plain`` twins' machinery and
    ``dedup_clusters`` duplicated ``dedup_exact_verify`` +
    ``cluster_sizes`` (it still backs ``entry()``); the remaining tail
    entries are each pytest- or invariant-gated."""
    invariant = {"dedup_pairs": q_dedup_pairs,
                 "dedup_exact_verify": q_dedup_exact_verify,
                 "cluster_sizes": q_cluster_sizes,
                 "cluster_matches_full": q_cluster_matches_full}
    return {
        # ---- SQL-twinned (hash-graded) queries, one per operator ----
        "pages_build": q_pages_build,
        "extract_text": q_extract_text,
        "exact_dedup": q_exact_dedup,
        "dedup_pairs": q_dedup_pairs,
        "dedup_exact_verify": q_dedup_exact_verify,
        "cluster_sizes": q_cluster_sizes,
        # the same invariants over every other dedup variant
        **{f"{name}_{variant}": partial(invariant[name], variant=variant)
           for variant, name in _graded_variants()},
        "signatures_plain": q_signatures_plain,
        "doc_stats": q_doc_stats,
        "repetition_stats": q_repetition_stats,
        "pii_scrub": q_pii_scrub,
        "gopher_quality": q_gopher_quality,
        "url_blocklist": q_url_blocklist,
        "web_clean": q_web_clean,
        "lang_counts": q_lang_counts,
        "fingerprint": q_fingerprint,
        "langid": q_langid,
        "embedding_dups": q_embedding_dups,
        "semantic_dedup": q_semantic_dedup,
        "semdedup_clustered_verify": q_semdedup_clustered_verify,
        # the composed corpus job's five invariants (see _corpus)
        "corpus_decisions": q_corpus_decisions,
        "corpus_exact_groups": q_corpus_exact_groups,
        "corpus_neardup_valid": q_corpus_neardup_valid,
        "corpus_semantic_valid": q_corpus_semantic_valid,
        "corpus_planted_copies": q_corpus_planted_copies,
        "canonicalize_plain": q_canonicalize_plain,
        "bucket_census": q_bucket_census,
        # ---- rows-only (no_oracle) queries, pytest/invariant-gated --
        "semantic_dedup_clustered": q_semantic_dedup_clustered,
    }


def _graded_variants() -> list[tuple[str, str]]:
    """``(variant, invariant)`` of every graded dedup run besides
    ``auto``'s three, in registry order."""
    return [(v, name) for v in _DEDUP_VARIANTS for name in _INVARIANTS] \
        + [(v, name) for v in _HOT_VARIANTS for name in _HOT_INVARIANTS]


def dedup_oracles() -> dict[str, str]:
    """Twins of the dedup invariants over every dedup variant (see
    ``_dedup``).  Every variant but a removal covers all the pages and
    gives the auto run's answers, so it shares its SQL; a removal's
    twin runs it over the pages that survive the removal."""
    removed = "(SELECT * FROM pages WHERE (page_id // 4) % 10 <> 3) kept"
    out = {}
    for variant, name in ([("auto", n) for n in _INVARIANTS]
                          + _graded_variants()):
        suffix = "" if variant == "auto" else f"_{variant}"
        pages = (removed if _HOT_VARIANTS.get(variant, variant)
                 == "removed" else "pages")
        out[f"{name}{suffix}"] = f"WITH {PAGES_CTE}" + {
            # every md5-identical page group must land in exactly one
            # cluster whose id is the component-min page id — the SQL
            # side predicts the invariant (n_clusters=1, flag=true);
            # the Ray side measures it against the actual clustering
            "dedup_exact_verify": f"""
SELECT min(page_id) AS group_min_page_id, count(*) AS n_pages,
       CAST(1 AS BIGINT) AS n_clusters,
       TRUE AS cluster_is_component_min
FROM {pages} GROUP BY text HAVING count(*) >= 2
""",
            # planted-pair recall: every (orig, copy) exact pair and
            # (orig, tail) containment pair must be a verified pair
            "dedup_pairs": f"""
SELECT page_id - (page_id % 4) AS page_a, page_id AS page_b,
       variant, TRUE AS found
FROM {pages} WHERE variant IN ('copy', 'tail')
""",
            # planted-group clustering: each page_id//4 variant group
            # with >= 2 pages (copy AND tail variants — near-dup
            # containment included, stronger than dedup_exact_verify's
            # exact groups) sits in one cluster at least as large as
            # the group
            "cluster_sizes": f"""
SELECT min(page_id) AS group_min_page_id,
       count(*) AS n_pages,
       CAST(1 AS BIGINT) AS n_clusters,
       TRUE AS cluster_size_ok
FROM {pages} GROUP BY page_id // 4 HAVING count(*) >= 2
""",
            # every graded page keeps the cluster a full recompute
            # over the same pages gives it
            "cluster_matches_full": f"""
SELECT page_id, TRUE AS matches_full FROM {pages}
"""}[name]
    return out


def _clean_sql() -> str:
    """``PAGES_CTE`` plus ``clean(page_id, text)``: the pages that pass
    ``url_blocklist``'s domain rule and ``gopher_quality``'s ``keep``
    (the clean tier of ``web_clean`` and the corpus job)."""
    from nxsearch_ray.stages.textstats import gopher_filter_sql
    from nxsearch_ray.stages.urlfilter import DOMAIN_RE

    keep = gopher_filter_sql("text", min_words=20,
                             min_required_stopwords=1)["keep"]
    quoted = ", ".join(f"'{d}'" for d in sorted(set(_BLOCKLIST)))
    return f"""{PAGES_CTE},
flt AS (SELECT page_id, text FROM pages
        WHERE lower(coalesce(regexp_extract(url, '{DOMAIN_RE}', 1),
                             '')) NOT IN ({quoted})),
clean AS (SELECT page_id, text FROM flt WHERE {keep})"""


def corpus_oracles() -> dict[str, str]:
    """Twins of the five corpus-job invariants (see ``_corpus``)."""
    return {
        "corpus_decisions": f"""
WITH {_clean_sql()}
SELECT page_id FROM clean
""",
        "corpus_exact_groups": f"""
WITH {_clean_sql()}
SELECT min(page_id) AS group_min_page_id,
       CAST(0 AS BIGINT) AS n_kept_non_min
FROM clean GROUP BY text HAVING count(*) >= 2
""",
        "corpus_neardup_valid": f"""
WITH {_clean_sql()}
SELECT page_id, true AS valid FROM clean
""",
        "corpus_semantic_valid": f"""
WITH {_clean_sql()}
SELECT page_id, true AS valid FROM clean
""",
        "corpus_planted_copies": f"""
WITH {_clean_sql()}
SELECT page_id, true AS found FROM clean
WHERE page_id % 4 = 1 AND page_id - 1 IN (SELECT page_id FROM clean)
"""}


def web_clean_oracle() -> str:
    from nxsearch_ray.stages.pii import (pii_inject_sql,
                                         pii_scrub_sql_ctes)

    ctes, out = pii_scrub_sql_ctes("inj")
    return f"""
WITH {_clean_sql()},
inj AS (SELECT page_id,
               {pii_inject_sql('text', 'page_id')} AS text
        FROM clean),
{ctes}
SELECT min(page_id) AS canonical_page_id,
       count(*) AS n_pages,
       sum(n_email)::BIGINT AS n_email
FROM {out} GROUP BY clean_text
"""


def pii_scrub_oracle() -> str:
    from nxsearch_ray.stages.pii import (pii_inject_sql,
                                         pii_scrub_sql_ctes)

    ctes, out = pii_scrub_sql_ctes("inj")
    return f"""
WITH {PAGES_CTE},
inj AS (SELECT page_id,
               {pii_inject_sql('text', 'page_id')} AS text
        FROM pages),
{ctes}
SELECT page_id, n_email, n_phone, n_ip, n_ssn, n_ccn, n_iban,
       clean_text
FROM {out}
"""


def oracle_sql() -> dict[str, str]:
    from nxsearch_ray.stages.urlfilter import blocklist_sql
    from nxsearch_ray.stages.textstats import (_LANG_MARKERS, doc_stats_sql,
                                               gopher_filter_sql,
                                               repetition_stats_sql)

    markers_values = ", ".join(
        f"('{w}', '{lang}')"
        for lang, ws in _LANG_MARKERS.items() for w in ws)
    stats = doc_stats_sql("text")
    stats_select = ", ".join(f"{expr} AS {name}"
                             for name, expr in stats.items())
    return {
        "pages_build": f"""
WITH {PAGES_CTE}
SELECT page_id, url, warc_ts, text, lang, variant,
       strlen(url) + strlen(text) + 61 AS html_len
FROM pages
""",
        "extract_text": f"""
WITH {PAGES_CTE}
SELECT page_id, url, text FROM pages
""",
        "exact_dedup": f"""
WITH {PAGES_CTE}
SELECT min(page_id) AS canonical_page_id, count(*) AS n_dups
FROM pages GROUP BY text HAVING count(*) >= 2
""",
        **dedup_oracles(),
        **corpus_oracles(),
        # census structure over plain-doc signatures (filters=()):
        # exact buckets = full-token-sequence groups; shingle_set
        # buckets = distinct-5-shingle-SET groups (order-invariant
        # set fold, deterministic — unlike signature equality);
        # band_fanout = every doc emits exactly 32 band keys
        "bucket_census": f"""
WITH tok AS (SELECT doc_id,
                    {_sql_tokens('text')} AS ts
             FROM documents),
sh AS (SELECT doc_id,
              array_to_string(ts, ' ') AS seq,
              CASE WHEN len(ts) = 0 THEN CAST([] AS VARCHAR[])
                   WHEN len(ts) < 5 THEN [array_to_string(ts, ' ')]
                   ELSE list_sort(list_distinct(list_transform(
                          generate_series(1, len(ts) - 4),
                          i -> ts[i] || ' ' || ts[i+1] || ' ' ||
                               ts[i+2] || ' ' || ts[i+3] || ' ' ||
                               ts[i+4])))
              END AS shingles
       FROM tok),
ex AS (SELECT count(*) AS sz FROM sh GROUP BY seq),
mh AS (SELECT count(*) AS sz FROM sh GROUP BY shingles)
SELECT source, bucket_size, n_buckets FROM (
  SELECT 'exact' AS source, sz AS bucket_size,
         count(*)::BIGINT AS n_buckets
  FROM ex GROUP BY sz
  UNION ALL
  SELECT 'shingle_set', sz, count(*)::BIGINT
  FROM mh GROUP BY sz
  UNION ALL
  SELECT 'band_fanout', 32::BIGINT, count(*)::BIGINT FROM sh
)
""",
        "signatures_plain": f"""
WITH tok AS (SELECT doc_id,
                    {_sql_tokens('text')} AS ts
             FROM documents)
SELECT doc_id,
       CASE WHEN len(ts) = 0 THEN 0
            WHEN len(ts) < 5 THEN 1
            ELSE len(list_distinct(list_transform(
                   generate_series(1, len(ts) - 4),
                   i -> ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]
                        || ' ' || ts[i+3] || ' ' || ts[i+4])))
       END::BIGINT AS num_shingles
FROM tok
""",
        "doc_stats": f"SELECT doc_id, {stats_select} FROM documents",
        "repetition_stats": repetition_stats_sql(),
        "pii_scrub": pii_scrub_oracle(),
        "url_blocklist": blocklist_sql(_BLOCKLIST, PAGES_CTE),
        "web_clean": web_clean_oracle(),
        "gopher_quality": (
            "SELECT doc_id, "
            + ", ".join(f"{expr} AS {name}" for name, expr in
                        gopher_filter_sql(
                            "text", min_words=20,
                            min_required_stopwords=1).items())
            + " FROM documents"),
        "lang_counts": ("SELECT lang, count(*) AS n_docs FROM documents "
                        "GROUP BY lang"),
        "fingerprint": "SELECT doc_id, md5(text) AS md5 FROM documents",
        "langid": f"""
WITH t AS (SELECT doc_id, coalesce(text, '') AS text FROM documents),
words AS (SELECT doc_id,
                 unnest(string_split_regex(lower(text), '\\s+')) AS w
          FROM t),
markers(w, lang) AS (VALUES {markers_values}),
votes AS (SELECT doc_id, lang, count(*) AS c
          FROM words JOIN markers USING (w) GROUP BY doc_id, lang),
best AS (SELECT doc_id, lang,
                row_number() OVER (PARTITION BY doc_id
                                   ORDER BY c DESC, lang DESC) AS rn
         FROM votes)
SELECT t.doc_id,
       CASE WHEN regexp_matches(t.text,
                 '[\\p{{Han}}\\p{{Hiragana}}\\p{{Katakana}}]')
            THEN 'zh'
            WHEN b.lang IS NOT NULL THEN b.lang
            ELSE 'und' END AS lang_pred
FROM t LEFT JOIN (SELECT doc_id, lang FROM best WHERE rn = 1) b
USING (doc_id)
""",
        "canonicalize_plain": f"""
SELECT doc_id,
       len({_sql_tokens('text')}) AS doc_len,
       len(list_distinct(
           {_sql_tokens('text')})) AS n_unique
FROM documents
""",
        "embedding_dups": """
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings)
SELECT a.vec_id AS a, b.vec_id AS b,
       list_cosine_similarity(a.v, b.v) AS cosine
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.v, b.v) >= 0.45
""",
        "semantic_dedup": f"""
WITH e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
d AS (SELECT b.vec_id AS id, min(a.vec_id) AS dup_of
      FROM e a JOIN e b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.v, b.v) >= {_SEMDEDUP_EPS}
      GROUP BY b.vec_id)
SELECT e.vec_id AS id,
       coalesce(d.dup_of, -1)::BIGINT AS dup_of,
       d.dup_of IS NULL AS keep
FROM e LEFT JOIN d ON e.vec_id = d.id
""",
        # all-true by construction: the Ray side recomputes each drop's
        # justification (dup_of < id, cos >= eps) from the embeddings;
        # any violation emits false and hash-mismatches
        "semdedup_clustered_verify": """
SELECT vec_id AS id, true AS dup_valid FROM embeddings
""",
    }
