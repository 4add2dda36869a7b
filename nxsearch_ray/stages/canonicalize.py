"""Canonicalization stage: tokenizer + filter pipeline as plain Ray tasks.

This is the repurposed nxsearch text-processing core (reference
src/core/tokenizer.c:234-302 `tokenize` + src/core/filters.c:199-219
`filter_pipeline_run`) run as one wave of plain Ray tasks with
per-worker state (stages/join.broadcast_map):

  * per-worker state built once per call in ``__init__`` (SURVEY.md
    §2.3 ST1-ST3): one FilterPipeline per language (ICU-equivalent
    normalizer, stopword set, Snowball-family stemmer), plus a
    word → code memo into a per-language table of canonical tokens
    and their hashes — the Zipfian vocabulary means the hot loop is
    almost entirely dict hits, the filter chain runs once per new word
    and ``hash_strings`` once per new canonical token;
  * per-batch work in ``__call__``: segment each text (UAX#29-subset
    regex), map each word to its code, gather the codes' hashes into
    the canonical token *hash* sequence.  ``n_unique`` counts distinct
    codes, i.e. distinct canonical tokens: the hash reads a 32-byte
    prefix and the length, so two long tokens can share one.

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


class _Vocab:
    """One language's canonical tokens in first-seen order: token →
    code, code → token, and code → token hash, hashed once per token."""

    def __init__(self):
        self.codes: dict[str, int] = {}
        self.tokens: list[str] = []
        self.hashes = np.empty(0, dtype=np.uint64)

    def code(self, tok: str) -> int:
        c = self.codes.get(tok)
        if c is None:
            c = self.codes[tok] = len(self.tokens)
            self.tokens.append(tok)
        return c

    def hashed(self, seed: int) -> np.ndarray:
        """Every code's token hash; ``hash_strings`` runs on the tokens
        added since the last call only (a token's hash does not depend
        on the other strings hashed with it)."""
        if len(self.hashes) < len(self.tokens):
            self.hashes = np.concatenate([self.hashes, hash_strings(
                self.tokens[len(self.hashes):], seed=seed)])
        return self.hashes


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
        # lang -> {word -> code in self._vocab[lang], or None: discarded}
        self._memo: dict[str, dict[str, int | None]] = {}
        self._vocab: dict[str, _Vocab] = {}

    def _pipeline(self, lang: str):
        p = self._pipelines.get(lang)
        if p is None:
            p = self._pipelines[lang] = build_pipeline(self.cfg.filters,
                                                       lang)
            self._reset(lang)
        return p

    def _reset(self, lang: str) -> None:
        self._memo[lang], self._vocab[lang] = {}, _Vocab()

    def _trim(self) -> None:
        """Reset each language whose memo passed ``_CACHE_CAP``; only
        between texts, never while codes of the old table are in use."""
        for lang in [k for k, m in self._memo.items()
                     if len(m) > _CACHE_CAP]:
            self._reset(lang)

    def canonical_codes(self, text: str, lang: str) -> list[int]:
        """The canonical token sequence of one text as codes of
        ``self._vocab[lang]``: the filter chain runs once per new word,
        every other word is one memo hit."""
        pipe = self._pipeline(lang)
        memo, vocab = self._memo[lang], self._vocab[lang]
        out: list[int] = []
        for word in segment_words(text):
            try:
                c = memo[word]
            except KeyError:
                tok = pipe.run(word)
                c = memo[word] = None if tok is None else vocab.code(tok)
            if c is not None:
                out.append(c)
        return out

    def canonical_tokens(self, text: str, lang: str) -> list[str]:
        """The byte-identical canonical token sequence for one text —
        shared by unit fixtures and oracles."""
        self._trim()
        codes = self.canonical_codes(text, lang)
        tokens = self._vocab[lang].tokens
        return [tokens[c] for c in codes]

    def __call__(self, batch: pa.Table) -> pa.Table:
        self._trim()
        lang_default = self.cfg.lang
        lang_col = (batch.column("lang").to_pylist()
                    if "lang" in batch.column_names else None)
        texts = batch.column("text").to_pylist()

        codes: list[int] = []
        offsets = np.zeros(len(texts) + 1, dtype=np.int64)
        uniq = np.zeros(len(texts), dtype=np.uint32)
        langs: dict[str, int] = {}
        doc_lang = np.zeros(len(texts), dtype=np.int64)
        for i, text in enumerate(texts):
            lang = (lang_col[i] if lang_col is not None else None) \
                or lang_default
            doc_codes = self.canonical_codes(text or "", lang)
            codes.extend(doc_codes)
            offsets[i + 1] = len(codes)
            # codes are 1:1 with canonical tokens; token hashes are not
            uniq[i] = len(set(doc_codes))
            doc_lang[i] = langs.setdefault(lang, len(langs))

        flat = np.array(codes, dtype=np.int64)
        tok_lang = np.repeat(doc_lang, np.diff(offsets))
        token_hashes = np.empty(len(flat), dtype=np.uint64)
        for lang, j in langs.items():
            sel = tok_lang == j
            token_hashes[sel] = self._vocab[lang].hashed(
                self.cfg.seed)[flat[sel]]
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
            tables = [self._vocab[lang].tokens for lang in langs]
            tok_arr = pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()),
                pa.array([tables[j][c] for j, c in zip(tok_lang.tolist(),
                                                       codes)],
                         type=pa.string()))
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
