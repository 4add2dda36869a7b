"""Job entry point for the flagship dedup pipeline.

The reference ships a CLI harness that indexes a file or directory
(reference src/utils/benchmark.c:72-109, 168-223); the cluster-native
equivalent is a module runnable under ``ray job submit``:

    ray job submit --working-dir . -- \
        python -m nxsearch_ray.run --input /data/pages --output /out/run1

    # local / single node:
    python -m nxsearch_ray.run --input pages/ --output out/ --num-cpus 8

Input: a Parquet directory of Common-Crawl-style pages
``(url, warc_ts, html|text, lang[, page_id])`` — the north-rule input
shape.  A missing ``page_id`` is derived from ``url``: the first 8
bytes of its md5 digest, big-endian, shifted right by 1 so the id is a
non-negative int64 (``add_page_id``; the reference's caller-assigned
doc id, made deterministic).  A ``.warc``/``.warc.gz`` file, or a
directory of them, is first ingested into Parquet under
``<output>/ingest_warc/``, one task per archive, resumable per archive
(``sources.warc.ingest_warc_resumable``), and that Parquet is the input.
Both plans are the auto plans: verify by the bytes of the pinned
signatures, connected components by the bytes of the star edges.

Output layout under ``--output`` (all resumable, manifest-gated):
    ingest_warc/                              WARC input only
    signatures/  verified_pairs/  clusters/   stage checkpoints
    metrics.json                              run stats + stage records
A re-run with the same config resumes from the completed stages;
``--incremental`` appends only new pages; ``--remove-ids FILE``
deletes page ids (one per line) via the tombstone-replay path.

Ray session ownership: when launched under ``ray job submit`` (or any
already-initialised driver) the existing session is used; otherwise a
local one is created and shut down on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


PAGE_COLUMNS = ("page_id", "url", "warc_ts", "html", "text", "lang")


def add_page_id(t):
    """``t`` with ``page_id``: the full ``url``'s md5 prefix (8 bytes,
    big-endian) shifted right by 1, in SQL ``(('0x' ||
    substr(md5(url), 1, 16))::UBIGINT >> 1)::BIGINT`` — NOT
    ``hash_strings``, whose prefix cap collides on long-common-prefix
    URLs."""
    import hashlib

    import pyarrow as pa

    ids = [int.from_bytes(hashlib.md5((u or "").encode()).digest()[:8],
                          "big") >> 1 for u in t.column("url").to_pylist()]
    return t.append_column(pa.field("page_id", pa.int64()),
                           pa.array(ids, type=pa.int64()))


def _load_pages(input_dir: str, out_dir: str | None = None):
    from nxsearch_ray.sources.io import read_parquet_clean

    # WARC segments (file or dir of .warc/.warc.gz) ingest directly
    if input_dir.endswith((".warc", ".warc.gz")) or (
            os.path.isdir(input_dir) and any(
                f.endswith((".warc", ".warc.gz"))
                for f in os.listdir(input_dir))):
        from nxsearch_ray.sources.warc import ingest_warc_resumable

        if out_dir is None:
            raise ValueError("a WARC input is ingested under out_dir, "
                             "and none was given")
        paths = [input_dir] if os.path.isfile(input_dir) else [
            os.path.join(input_dir, f)
            for f in sorted(os.listdir(input_dir))
            if f.endswith((".warc", ".warc.gz"))]
        # file-granular resumable ingest: a run killed mid-ingest
        # skips archives whose completion sidecar already landed
        ingest_dir = os.path.join(out_dir, "ingest_warc")
        stats = ingest_warc_resumable(paths, ingest_dir)
        print(json.dumps({"warc_ingest": stats}))
        return read_parquet_clean(ingest_dir, file_extensions=["parquet"])

    # one listing: the column names and the pruned read both come from it
    read = read_parquet_clean(input_dir, file_extensions=["parquet"])
    present = [c for c in PAGE_COLUMNS if c in read.schema().names]
    if "url" not in present and "page_id" not in present:
        raise SystemExit("input needs a `url` or `page_id` column")
    if "html" not in present and "text" not in present:
        raise SystemExit("input needs an `html` or `text` column")
    # prune at the read: only the needed columns leave storage, and the
    # ids are added in the tasks that read the pages
    read = read.select_columns(present)
    if "page_id" not in present:
        read = read.map_batches(add_page_id, batch_format="pyarrow")
    return read


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m nxsearch_ray.run", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--input", required=True,
                   help="Parquet directory of pages, or WARC "
                        "archive(s)")
    p.add_argument("--output", required=True,
                   help="output/checkpoint directory")
    p.add_argument("--config",
                   help="PipelineConfig JSON file (default config "
                        "otherwise); stored next to the checkpoints")
    p.add_argument("--pipeline", default="dedup",
                   choices=["dedup", "corpus"],
                   help="'dedup' = flagship near-dup only; 'corpus' = "
                        "composed clean -> near-dup -> semantic run "
                        "(pipelines/corpus.py)")
    p.add_argument("--embeddings", metavar="DIR",
                   help="corpus pipeline: parquet of (vec_id, "
                        "embedding) keyed by page id — enables the "
                        "semantic tier")
    p.add_argument("--blocklist", metavar="FILE",
                   help="corpus pipeline: domain blocklist, one "
                        "domain per line")
    p.add_argument("--min-words", type=int, default=20,
                   help="corpus pipeline: Gopher quality gate minimum")
    p.add_argument("--min-stopwords", type=int, default=1,
                   help="corpus pipeline: Gopher required-stopword "
                        "minimum (0 disables)")
    p.add_argument("--semdedup-eps", type=float, default=0.93,
                   help="corpus pipeline: SemDeDup cosine threshold")
    p.add_argument("--incremental", action="store_true",
                   help="append-only ingest against existing checkpoints")
    p.add_argument("--remove-ids", metavar="FILE",
                   help="delete these page ids (one per line) from an "
                        "existing run instead of ingesting")
    p.add_argument("--check-ids", action="store_true",
                   help="fail fast when page ids are not unique (the "
                        "reference rejects duplicate doc ids; hashed "
                        "ids can also collide)")
    p.add_argument("--num-cpus", type=int, default=0,
                   help="create a LOCAL Ray session with this many "
                        "CPUs (ignored when a session already exists)")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:
        kw: dict = dict(include_dashboard=False)
        if args.num_cpus:
            kw.update(address="local", num_cpus=args.num_cpus)
        ray.init(**kw)

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.pipelines.dedup import (
        clusters_as_table,
        run_dedup,
        run_dedup_incremental,
        run_dedup_remove,
    )

    if args.config:
        with open(args.config) as f:
            cfg = PipelineConfig.from_json(f.read())
    else:
        cfg = PipelineConfig()

    t0 = time.monotonic()
    if args.pipeline == "corpus":
        from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                                   run_corpus)

        emb = None
        if args.embeddings:
            from nxsearch_ray.sources.io import read_parquet_clean

            emb = read_parquet_clean(args.embeddings,
                                     columns=["vec_id", "embedding"],
                                     file_extensions=["parquet"])
        blocklist: tuple = ()
        if args.blocklist:
            with open(args.blocklist) as f:
                blocklist = tuple(line.strip() for line in f
                                  if line.strip())
        pages = _load_pages(args.input, out_dir=args.output)
        result = run_corpus(pages, cfg, embeddings_ds=emb,
                            blocklist=blocklist,
                            min_words=args.min_words,
                            min_required_stopwords=args.min_stopwords,
                            semdedup_eps=args.semdedup_eps,
                            out_dir=args.output)
        tiers = decisions_as_table(result).column("drop_tier").to_numpy()
        counts = {"n_decisions": len(tiers),
                  "n_kept": int((tiers == 0).sum()),
                  "n_drop_neardup": int((tiers == 2).sum()),
                  "n_drop_semantic": int((tiers == 3).sum())}
    else:
        if args.remove_ids:
            with open(args.remove_ids) as f:
                ids = [int(line) for line in f if line.strip()]
            result = run_dedup_remove(ids, cfg, out_dir=args.output)
        else:
            pages = _load_pages(args.input, out_dir=args.output)
            if args.check_ids:
                from nxsearch_ray.stages.diagnostics import (
                    duplicate_page_ids)

                dups = duplicate_page_ids(pages)
                if dups.num_rows:
                    raise SystemExit(
                        f"{dups.num_rows} duplicate page ids in input "
                        f"(first: {dups.column('page_id')[0].as_py()}) — "
                        "duplicate doc ids are rejected, like the "
                        "reference's nxs_index_add guard")
            if args.incremental:
                result = run_dedup_incremental(pages, cfg,
                                               out_dir=args.output)
            else:
                result = run_dedup(pages, cfg, out_dir=args.output)
        counts = {"n_cluster_rows": clusters_as_table(result).num_rows}
    wall = round(time.monotonic() - t0, 3)

    os.makedirs(args.output, exist_ok=True)
    with open(os.path.join(args.output, "config.json"), "w") as f:
        f.write(cfg.to_json())
    # stats["stages"]: one {stage, wall_s, rows, bytes, resumed} record
    # per stage boundary the run crossed (state.lineage.stage)
    metrics = {"wall_s": wall, **counts,
               "config_hash": cfg.config_hash(), "stats": result.stats}
    with open(os.path.join(args.output, "metrics.json"), "w") as f:
        json.dump(metrics, f, indent=1)
    print(json.dumps({"metric": f"nxsearch_ray.run {args.pipeline}",
                      "unit": "sec", "value": wall, **counts,
                      "output": args.output}))

    if owns_session:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
