"""Signature stage: k-shingles → MinHash / SimHash / bottom-k sketches.

New Ray-native functionality (the reference has no sketches, SURVEY.md
§2.5 A7): one wave of plain Ray tasks (``join.broadcast_map``, at
least one task per CPU, at most ``batch_size`` rows each) whose
per-worker state (the canonicalization pipelines and token memo, plus
the config's MinHash seeds — the only cross-worker state the signature
path needs, SURVEY.md §2.3 ST5) is built once per call; each batch is
done with numpy:

  token_ids list column → flat uint64 + offsets (zero-copy from Arrow)
  → rolling k-shingle hashes → per-doc sorted-unique → 128-perm MinHash
  (segment-min), 64-bit SimHash (per-bit majority), bottom-k sketch,
  anchor sample (shingles with ``h % anchor_mod == 0``, for the
  suffix/containment pass).

Columns out:
  page_id, minhash fixed_size_list<uint64, P>, simhash uint64,
  bottomk list<uint64> (sorted), anchors list<uint64>,
  num_shingles uint32, doc_len uint32
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions import hashing as H


def list_column_numpy(col: pa.ChunkedArray | pa.ListArray,
                      dtype=np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """(flat_values, offsets) from an Arrow list column, zero-copy."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.FixedSizeListArray):
        w = col.type.list_size
        values = col.flatten().to_numpy(zero_copy_only=False).astype(
            dtype, copy=False)
        offsets = np.arange(len(col) + 1, dtype=np.int64) * w
        return values, offsets
    offsets = col.offsets.to_numpy().astype(np.int64)
    values = col.values.to_numpy(zero_copy_only=False).astype(dtype,
                                                             copy=False)
    # offsets may not start at 0 after slicing; rebase
    if offsets[0] != 0:
        values = values[offsets[0]:offsets[-1]]
        offsets = offsets - offsets[0]
    else:
        values = values[:offsets[-1]]
    return values, offsets


def signature_fields(cfg: PipelineConfig) -> list[pa.Field]:
    """The columns a signature kernel adds after its kept ones."""
    return [
        pa.field("minhash", pa.list_(pa.uint64(), cfg.num_perms)),
        pa.field("mh_res", pa.list_(pa.uint8(), cfg.num_perms)),
        pa.field("simhash", pa.uint64()),
        pa.field("bottomk", pa.list_(pa.uint32())),
        pa.field("anchors", pa.list_(pa.uint64())),
        pa.field("num_shingles", pa.uint32()),
        pa.field("seq_hash", pa.uint64()),
    ]


class SignatureActor:
    def __init__(self, cfg: PipelineConfig | str | None = None,
                 keep_columns: tuple[str, ...] = ("page_id",)):
        if cfg is None:
            cfg = PipelineConfig()
        elif isinstance(cfg, str):
            cfg = PipelineConfig.from_json(cfg)
        self.cfg = cfg
        self.keep_columns = keep_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        tok_flat, tok_off = list_column_numpy(batch.column("token_ids"))
        sh_flat, sh_off = H.shingle_hashes(tok_flat, tok_off, cfg.shingle_k)
        uflat, uoff = H.unique_per_doc(sh_flat, sh_off)

        sig = H.minhash_signatures(uflat, uoff, cfg.num_perms, cfg.seed)
        sim = H.simhash_signatures(uflat, uoff, cfg.simhash_bits)
        bk_flat, bk_off = H.bottomk_sketch(uflat, uoff, cfg.bottomk)

        # anchor sample for the containment/suffix pass; small docs
        # (≤ anchor_full_max shingles) emit ALL shingles so a short
        # page contained in a long one shares a bucket whenever any of
        # its shingles is mod-sampled by the long side (miss prob for
        # a B-shingle contained doc: (1-1/anchor_mod)^B)
        ndocs = len(uoff) - 1
        seg = uoff[1:] - uoff[:-1]
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), seg)
        amask = (uflat % np.uint64(cfg.anchor_mod)) == 0
        amask |= np.repeat(seg <= cfg.anchor_full_max, seg)
        a_vals = uflat[amask]
        a_docs = doc_idx[amask]
        a_counts = np.bincount(a_docs, minlength=ndocs)
        a_off = np.zeros(ndocs + 1, dtype=np.int64)
        np.cumsum(a_counts, out=a_off[1:])

        num_shingles = seg.astype(np.uint32)
        seq_hash = H.sequence_hashes(tok_flat, tok_off)

        cols, fields = [], []
        for name in self.keep_columns:
            if name in batch.column_names:
                fields.append(batch.schema.field(name))
                cols.append(batch.column(name))
        # verification-side compact representations (consistent across
        # every physical plan AND the oracle): 8-bit MinHash residues
        # (false-match prob 1/256 per perm ⇒ est_j inflated by
        # ≤ (1-J)/256 — far below decision noise) and high-32-bit
        # bottom-k prefixes (order-preserving truncation).  Banding
        # still uses the full 64-bit signature.
        mh_res = (sig & np.uint64(0xFF)).astype(np.uint8)
        bk32 = (bk_flat >> np.uint64(32)).astype(np.uint32)

        fields += signature_fields(cfg)
        cols += [
            pa.FixedSizeListArray.from_arrays(
                pa.array(sig.reshape(-1), type=pa.uint64()), cfg.num_perms),
            pa.FixedSizeListArray.from_arrays(
                pa.array(mh_res.reshape(-1), type=pa.uint8()),
                cfg.num_perms),
            pa.array(sim, type=pa.uint64()),
            pa.ListArray.from_arrays(pa.array(bk_off, type=pa.int32()),
                                     pa.array(bk32, type=pa.uint32())),
            pa.ListArray.from_arrays(pa.array(a_off, type=pa.int32()),
                                     pa.array(a_vals, type=pa.uint64())),
            pa.array(num_shingles),
            pa.array(seq_hash, type=pa.uint64()),
        ]
        return pa.Table.from_arrays(cols, schema=pa.schema(fields))


class CanonSigActor:
    """Fused extract → canonicalize → signature kernel: one stage,
    one pass over the wide input rows, one output table (signatures
    + the canonical token_ids column) — two fewer materialization
    barriers than chaining the stages, and the html/text columns never
    enter the object store at all."""

    def __init__(self, cfg_json: str):
        from nxsearch_ray.stages.canonicalize import CanonicalizeActor

        self.canon = CanonicalizeActor(cfg_json)
        self.sig = SignatureActor(cfg_json,
                                  keep_columns=("page_id", "token_ids"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from nxsearch_ray.stages.html_extract import extract_text

        if "html" in batch.column_names:
            batch = extract_text(batch)
        return self.sig(self.canon(batch))


def canonsig_stage(ds, cfg: PipelineConfig):
    """The fused stage as one task wave of at most ``cfg.batch_size``
    rows per kernel call, one ``CanonSigActor`` per worker and call (a
    fresh token memo each call).  Runs when called; a bare page read
    is read inside the wave's tasks (``shuffle.blocks``), and a
    zero-row input gives one empty block of ``canonsig_schema``."""
    return _wave(ds, cfg, CanonSigActor, canonsig_schema(cfg))


def canonsig_schema(cfg: PipelineConfig) -> pa.Schema:
    """The fused stage's output: page_id, token_ids, the signature
    columns."""
    return pa.schema([pa.field("page_id", pa.int64()),
                      pa.field("token_ids", pa.list_(pa.uint64())),
                      *signature_fields(cfg)])


def signature_stage(ds, cfg: PipelineConfig, *,
                    keep_columns: tuple[str, ...] = ("page_id",)):
    """Signatures of already-canonical rows (a ``token_ids`` column), as
    the same kind of wave; the only state is the parsed config."""
    return _wave(ds, cfg, functools.partial(SignatureActor,
                                            keep_columns=keep_columns))


def _wave(ds, cfg: PipelineConfig, build, schema=None):
    import ray

    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(ds, ray.put(cfg.to_json()), build,
                         batch_size=cfg.batch_size, schema=schema)
