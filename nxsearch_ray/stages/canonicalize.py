"""Canonicalization stage: tokenizer + filter pipeline as plain Ray tasks.

This is the repurposed nxsearch text-processing core (reference
src/core/tokenizer.c:234-302 `tokenize` + src/core/filters.c:199-219
`filter_pipeline_run`) run as a task-pool `map_batches` stage with
per-worker state (stages/join.broadcast_map):

  * per-worker state built once per call in ``__init__`` (SURVEY.md
    §2.3 ST1-ST3): one FilterPipeline per language (ICU-equivalent
    normalizer, stopword set, Snowball-family stemmer), plus a
    token→hash memo cache — the Zipfian vocabulary means the hot loop
    is almost entirely dict hits;
  * per-batch work in ``__call__``: segment each text (UAX#29-subset
    regex), push each word through the cached filter chain, emit the
    canonical token *hash* sequence.

Output drops token strings (they would dominate block size at 10^12
docs); downstream signature stages only need the uint64 hash stream.
``include_tokens=True`` keeps the strings for fixture tests.

Columns out (append to input minus `html`):
  token_ids: list<uint64>   canonical token hash sequence, in doc order
  doc_len:   uint32         tokens incl. repeats (reference tokenset
                            ``seen``, src/index/storage.h:86-88)
  n_unique:  uint32         unique tokens (reference tokenset ``count``)
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions.filters import build_pipeline
from nxsearch_ray.functions.hashing import hash_strings
from nxsearch_ray.functions.tokenizer import segment_words

_CACHE_CAP = 2_000_000  # per-lang memo entries; reset when exceeded


class CanonicalizeActor:
    """The per-worker canonicalization kernel: ``__call__`` maps one
    batch."""

    def __init__(self, cfg: PipelineConfig | str | None = None,
                 include_tokens: bool = False):
        if cfg is None:
            cfg = PipelineConfig()
        elif isinstance(cfg, str):
            cfg = PipelineConfig.from_json(cfg)
        self.cfg = cfg
        if cfg.plugin_files:
            # per-worker plugin registration, like the reference's
            # per-nginx-worker Lua filter init
            from nxsearch_ray.functions.plugins import ensure_plugins

            ensure_plugins(cfg.plugin_files)
        self.include_tokens = include_tokens
        self._pipelines: dict[str, object] = {}
        # lang -> {word -> (canonical_token | None)}
        self._memo: dict[str, dict[str, str | None]] = {}

    def _pipeline(self, lang: str):
        p = self._pipelines.get(lang)
        if p is None:
            p = build_pipeline(self.cfg.filters, lang)
            self._pipelines[lang] = p
            self._memo[lang] = {}
        return p

    def canonical_tokens(self, text: str, lang: str) -> list[str]:
        """The byte-identical canonical token sequence for one text —
        shared by the distributed stage, unit fixtures and oracles."""
        pipe = self._pipeline(lang)
        memo = self._memo[lang]
        if len(memo) > _CACHE_CAP:
            memo.clear()
        out: list[str] = []
        for word in segment_words(text):
            if word in memo:
                tok = memo[word]
            else:
                tok = pipe.run(word)
                memo[word] = tok
            if tok is not None:
                out.append(tok)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        lang_default = self.cfg.lang
        lang_col = (batch.column(self.cfg.lang_column).to_pylist()
                    if self.cfg.lang_column and
                    self.cfg.lang_column in batch.column_names
                    else None)
        texts = batch.column("text").to_pylist()

        all_tokens: list[str] = []
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        uniq = np.zeros(len(texts), dtype=np.uint32)
        for i, text in enumerate(texts):
            lang = lang_col[i] if lang_col is not None else lang_default
            toks = self.canonical_tokens(text or "", lang or lang_default)
            all_tokens.extend(toks)
            offsets[i + 1] = len(all_tokens)
            uniq[i] = len(set(toks))

        token_hashes = hash_strings(all_tokens, seed=self.cfg.seed)
        token_ids = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(token_hashes, type=pa.uint64()))
        doc_len = pa.array((offsets[1:] - offsets[:-1]).astype(np.uint32))

        out = batch
        if "html" in out.column_names:
            out = out.drop_columns(["html"])
        out = out.append_column(
            pa.field("token_ids", pa.list_(pa.uint64())), token_ids)
        out = out.append_column(pa.field("doc_len", pa.uint32()), doc_len)
        out = out.append_column(pa.field("n_unique", pa.uint32()),
                                pa.array(uniq))
        if self.include_tokens:
            tok_arr = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()),
                pa.array(all_tokens, type=pa.string()))
            out = out.append_column(
                pa.field("tokens", pa.list_(pa.string())), tok_arr)
        return out


def canonicalize_stage(ds, cfg: PipelineConfig, *,
                       include_tokens: bool = False):
    """Canonicalize a pages Dataset as plain tasks, one
    ``CanonicalizeActor`` per worker and call (a fresh memo each
    call)."""
    import ray

    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(
        ds, ray.put(cfg.to_json()),
        functools.partial(CanonicalizeActor,
                          include_tokens=include_tokens),
        batch_size=cfg.batch_size)
