"""Per-stage checkpointing, lineage manifests, resume and stage records.

The reference's durability story is append-only files + consumed
offsets (reference src/index/terms.c:320-344): a crashed writer loses
only its in-flight doc.  The batch-pipeline analogue (north rule:
"checkpoint-resumable stage boundaries with per-partition lineage"):

  * every stage can write its pinned blocks to ``{out_dir}/{stage}/``
    as Parquet part files, one per block, each by its own plain task,
  * a ``manifest.json`` is written LAST (atomic rename) from the tasks'
    returns, recording the config hash, row count, per-file lineage
    (path, rows, stored and uncompressed bytes) and wall time — its
    presence is the ``_SUCCESS`` marker,
  * a stage may also record the fingerprint of the input it was
    computed from (``input_fingerprint``), so a checkpoint is never
    resumed against a different input,
  * on re-run, a stage whose manifest exists *and* matches the current
    config hash (and input fingerprint, when the caller gives one) is
    read back into the object store (``read_stage``, one plain task
    per part file) instead of recomputed; everything downstream
    re-derives from it.

Stage output directories are independent, so a run that died between
stage k and k+1 resumes at k+1 — the batch equivalent of replaying
from a consumed offset.

``stage`` is the one stage boundary the pipelines use: it resumes a
stage (the only read of a checkpoint) or computes and pins it (and
writes it, with ``out_dir``), and appends one record ``{stage, wall_s,
rows, bytes, resumed}`` to the run's ``stats["stages"]``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import sys
import time
import weakref

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray import cloudpickle

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions.hashing import content_hash128, splitmix64
from nxsearch_ray.stages.join import map_blocks
from nxsearch_ray.stages.shuffle import (Blocks, Read, ReadPart, as_arrow,
                                         blocks, concat, read_part, refs)

MANIFEST = "manifest.json"
FINGERPRINT = "input_fingerprint"
# the page columns the signature stage reads: html (extracted, falling
# back to text), text, and the per-row language; an embeddings table's
# content is its vectors
CONTENT_COLUMNS = ("html", "text", "lang", "embedding")
_ROWS_PART = pa.schema([("n", pa.int64()), ("h", pa.uint64())])
# a staged output → its lineage fingerprint (``stage``)
_LINEAGE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class StageParams:
    """The parameter set of a stage that is not a PipelineConfig
    (the corpus stages, the semantic tier): ``stage`` duck-types
    on ``config_hash()``, the md5 of the sorted-key JSON of ``kw``."""

    def __init__(self, **kw):
        self.kw = kw

    def config_hash(self) -> str:
        return hashlib.md5(json.dumps(
            self.kw, sort_keys=True).encode()).hexdigest()[:16]


def stage_dir(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, stage)


def manifest_path(out_dir: str, stage: str) -> str:
    return os.path.join(stage_dir(out_dir, stage), MANIFEST)


def read_manifest(out_dir: str, stage: str) -> dict | None:
    try:
        with open(manifest_path(out_dir, stage)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def is_complete(out_dir: str, stage: str, cfg: PipelineConfig,
                fingerprint: str | None = None) -> bool:
    """A valid checkpoint exists for ``cfg`` — and, when
    ``fingerprint`` is given, for that input."""
    m = read_manifest(out_dir, stage)
    return (m is not None and m.get("config_hash") == cfg.config_hash()
            and (fingerprint is None
                 or m.get(FINGERPRINT) == fingerprint))


def id_hash(ids) -> int:
    """Order-free 64-bit hash of an int64 id multiset (wrapping sum of
    splitmix64), so partial hashes of blocks add up."""
    h = splitmix64(np.asarray(ids, dtype=np.int64).astype(np.uint64))
    return int(h.sum(dtype=np.uint64))


def input_fingerprint(ds) -> str:
    """What a stage is computed from (a pages or an embeddings
    dataset).  A fingerprinted ``stage``'s output: its lineage, whether
    it ran or resumed.  An engine read (``sources.io.read_parquet_clean``):
    its sorted files with their sizes and mtimes, its columns and its
    maps' pickles (a module-level function by name) and their modules'
    sources, so an edit to a map or a helper in its module (an id
    scheme) changes it; code a map imports from other modules does
    not.  Anything else (in-memory, derived, ``limit``-ed, Ray Data's
    own read, ...): its row count plus ``rows_hash`` of its rows."""
    if ds in _LINEAGE:
        return _LINEAGE[ds]
    if isinstance(ds, Read):
        h = hashlib.sha256()
        for path in sorted(ds.input_files()):
            st = os.stat(path)
            h.update(f"{path}\t{st.st_size}\t{st.st_mtime_ns}\n".encode())
        h.update(cloudpickle.dumps((ds.read_schema.names, ds.maps)))
        for fn in (getattr(f, "func", f) for f in ds.maps):
            src = getattr(sys.modules.get(fn.__module__), "__file__", "")
            if os.path.isfile(src or ""):
                h.update(pathlib.Path(src).read_bytes())
        return "files:" + h.hexdigest()[:32]

    def part(t: pa.Table) -> pa.Table:
        return pa.table({"n": [t.num_rows], "h": [rows_hash(t)]}, _ROWS_PART)

    parts = pa.concat_tables(ray.get(refs(map_blocks(ds, part,
                                                     _ROWS_PART))))
    n = int(parts.column("n").to_numpy().sum())
    digest = int(parts.column("h").to_numpy().sum(dtype=np.uint64))
    return f"rows:{n}:{digest:016x}"


def rows_hash(t) -> int:
    """Order-free 64-bit hash of a page or embeddings table's rows (a
    wrapping sum, so partial hashes of blocks add up): each row's id
    (``page_id``, else ``vec_id``) folded with the full content of
    every ``CONTENT_COLUMNS`` column the table has
    (``shuffle.key_hash``; a vector column by its raw value bytes), so
    changed content under the same ids changes it."""
    from nxsearch_ray.stages.shuffle import key_hash
    from nxsearch_ray.stages.signatures import list_column_numpy

    if t.num_rows == 0:
        return 0
    key = "page_id" if "page_id" in t.column_names else "vec_id"
    cols = [c for c in CONTENT_COLUMNS if c in t.column_names]
    for c in cols:
        typ = t.column(c).type
        if pa.types.is_list(typ) or pa.types.is_fixed_size_list(typ):
            vals, off = list_column_numpy(
                t.column(c), dtype=typ.value_type.to_pandas_dtype())
            h1, _ = content_hash128(off * vals.itemsize,
                                    vals.view(np.uint8))
            t = t.set_column(t.column_names.index(c), c, pa.array(h1))
    return int(key_hash(t, [key, *cols]).sum(dtype=np.uint64))


def read_stage(out_dir: str, stage: str) -> Blocks:
    """A checkpoint held in the object store: one task per part file of
    its manifest (``shuffle.read_part``), read while the directory still
    holds it (a rewrite of the same stage clears it), and no Ray
    Dataset."""
    sdir = stage_dir(out_dir, stage)
    return Blocks.submit(
        read_part.remote(ReadPart(os.path.join(sdir, p["file"])))
        for p in read_manifest(out_dir, stage)["partitions"])


# the checkpoint read's former name, which perfbench's traced replay
# still imports
load_stage = read_stage


@ray.remote
def _write_part(path: str, *parts) -> dict:
    """Blocks → one Parquet part (``concat``: blocks of no rows give
    the widest empty one) → its manifest entry."""
    t, footer = concat([as_arrow(p) for p in parts]), []
    pq.write_table(t, path, metadata_collector=footer)
    return {"file": os.path.basename(path), "rows": t.num_rows,
            "bytes": os.path.getsize(path), "uncompressed_bytes": sum(
                footer[0].row_group(i).total_byte_size
                for i in range(footer[0].num_row_groups))}


def write_stage(ds, out_dir: str, stage: str, cfg: PipelineConfig,
                extra: dict | None = None) -> dict:
    """Write the blocks of a handle (or a Dataset) to the stage
    directory as one wave of tasks, a part per block
    (``part-{i:05d}.parquet``; no rows: one empty part of the widest
    block's schema, a wave's declared one), then the manifest from
    their returns; returns the manifest."""
    sdir = stage_dir(out_dir, stage)
    t0 = time.monotonic()
    # Clear any previous attempt first: a crash mid-write or a config
    # change leaves stale part files (and possibly a stale manifest)
    # that a later read would otherwise mix with this run's output.  The
    # manifest is written LAST, so after this rmtree the stage is
    # unambiguously "incomplete" until the new manifest lands.
    if os.path.isdir(sdir):
        shutil.rmtree(sdir)
    os.makedirs(sdir, exist_ok=True)
    listed = blocks(ds)
    groups = ([[p] for p, m in listed if m.num_rows]
              or [[p for p, _ in listed]])
    files = ray.get([
        _write_part.remote(os.path.join(sdir, f"part-{i:05d}.parquet"), *g)
        for i, g in enumerate(groups)])
    manifest = {"stage": stage, "config_hash": cfg.config_hash(),
                "rows": sum(f["rows"] for f in files),
                "wall_s": round(time.monotonic() - t0, 3),
                "partitions": files, **(extra or {})}
    tmp = manifest_path(out_dir, stage) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path(out_dir, stage))
    return manifest


def stage(stats: dict, name: str, factory, out_dir: str | None,
          params, fingerprint: str | None = None):
    """One stage boundary: resume-or-compute the stage ``name``, pinned
    either way, and append its record ``{stage, wall_s, rows, bytes,
    resumed}`` to ``stats["stages"]``; returns the pinned output.

    A computed stage is the ``shuffle.Blocks`` handle ``factory()``
    returns, pinned by the refs it holds, with or without ``out_dir``;
    the record waits for its tasks' metadata.  With ``out_dir`` it is a
    checkpoint: ``factory`` is only called when it is absent/stale
    (another ``params.config_hash()``, or another ``fingerprint`` when
    one is given — it is then recorded in the manifest), the pinned
    blocks are written, and a valid one is resumed by ``read_stage``,
    whose tasks the stage waits for, so the resumed blocks are in the
    object store before the directory can be rewritten.  A resumed
    stage never calls ``factory``, so nothing it would have run
    upstream leaves a record.  With a ``fingerprint``, the output's
    ``input_fingerprint`` is the stage's lineage.

    No pass over the data: a checkpointed stage's rows and bytes come
    from its manifest (bytes are the Parquet row groups' uncompressed
    ``total_byte_size`` — the quantity an in-memory ``size_bytes()``
    measures, not the smaller stored one; a manifest written before
    that figure was recorded holds only the stored bytes), a pinned
    stage's from the ``(rows, bytes)`` its tasks returned.  ``wall_s``
    is the stage's own time: a stage that ``factory`` runs inside it
    appends its own record first, and that time is not counted twice,
    so a run's records add up to its staged wall."""
    records = stats.setdefault("stages", [])
    n_before = len(records)
    t0 = time.monotonic()
    resumed = out_dir is not None and is_complete(out_dir, name, params,
                                                  fingerprint)
    if resumed:
        ds, m = read_stage(out_dir, name), read_manifest(out_dir, name)
        ray.get(ds.meta)
    else:
        ds = factory()
        m = out_dir and write_stage(ds, out_dir, name, params, fingerprint
                                    and {FINGERPRINT: fingerprint})
    if not m:
        rows, nbytes = ds.count(), ds.size_bytes()
    else:
        rows = m["rows"]
        nbytes = sum(p.get("uncompressed_bytes", p["bytes"])
                     for p in m["partitions"])
    if fingerprint is not None:
        key = f"{name}|{params.config_hash()}|{fingerprint}"
        _LINEAGE[ds] = "stage:" + hashlib.sha256(key.encode()).hexdigest()[:32]
    nested = sum(r["wall_s"] for r in records[n_before:])
    records.append({"stage": name,
                    "wall_s": round(time.monotonic() - t0 - nested, 3),
                    "rows": rows, "bytes": nbytes, "resumed": resumed})
    return ds
