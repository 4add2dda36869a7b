"""Language-model quality scoring (CCNet-style): unigram MLE and
interpolated Kneser-Ney perplexity of any order n >= 2.

CCNet (Wenzek et al., "CCNet: Extracting high quality monolingual
datasets from web crawl data", arXiv:1911.00359, public) ranks web
documents by LM perplexity and keeps the low-perplexity head.  The
full pipeline uses a 5-gram KenLM; KenLM is a native library this
project does not depend on, so this stage implements the family
exactly: the corpus's own maximum-likelihood UNIGRAM model, and one order-n
interpolated KNESER-NEY model (Kneser & Ney 1995; Chen & Goodman 1998
— CCNet's operative filter shape; order 5 is CCNet's).  Both are
SQL-twinnable (the oracle twins orders 2, 3 and 4) and run the
identical Ray dataflow a KenLM scorer needs (census/model build ->
broadcast -> streaming lookup); a real KenLM swap replaces only the
per-batch lookup kernel.

Tokenization matches the repo's WORD_RE census convention
(stages/textstats.py WORD_RE = \\S+ over lowercased text), i.e.
DuckDB ``regexp_extract_all(lower(text), '\\S+')``.

Scale plan (100 TB):
  1. census — map_batches pre-aggregates per-batch gram counts (the
     combiner) so the exchange moves VOCABULARY rows, not token
     rows; one grouped scan sums them (stages/shuffle.grouped).
  2. model — ONE remote task folds the census blocks into sorted
     lookup tables; an optional cap keeps the top rows by (count
     desc, key asc) — deterministic — and misses fall back to a
     floor (unigram) or the backoff term (KN).  The model is
     broadcast via ray.put.
  3. score — one task wave, the model fetched once per worker
     (stages/join.broadcast_map): per batch, vectorized sorted
     lookups (stages/join.sorted_lookup) + segmented mean.  No shuffle.

log p(w) is computed as ``ln(n_w / N)`` (divide THEN log, matching
the SQL twin bit-for-bit); per-doc logloss = mean over grams of
``-ln p``; perplexity = ``exp(logloss)``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _tokens(batch: pa.Table, text_col: str):
    """(parent_row_index, token) for WORD_RE = \\S+ over lower(text),
    fully vectorized: split on \\s+ and drop the boundary empties."""
    low = pc.utf8_lower(batch.column(text_col))
    lists = pc.split_pattern_regex(low, pattern=r"\s+")
    flat = pc.list_flatten(lists)
    parents = pc.list_parent_indices(lists)
    nonempty = pc.not_equal(flat, "")
    return (pc.filter(parents, nonempty).to_numpy(),
            pc.filter(flat, nonempty))


def _grams(batch: pa.Table, text_col: str, n: int):
    """(doc_row, [w1..wn]) for every within-doc window of n adjacent
    tokens.  Token order inside a doc is the split order, so the
    windows are exactly the doc's n-gram sequence."""
    parents, toks = _tokens(batch, text_col)
    tok = np.asarray(toks.to_pylist(), dtype=np.str_)
    k = max(len(tok) - n + 1, 0)
    same = np.ones(k, dtype=bool)
    for i in range(1, n):
        same &= parents[i:i + k] == parents[i - 1:i - 1 + k]
    return (parents[n - 1:n - 1 + k][same],
            [tok[i:i + k][same] for i in range(n)])


def _ngram_key(*ws: np.ndarray) -> np.ndarray:
    """Collision-free combined key ``"{len(w1)}:...:{len(w_{n-1})}:
    {w1...wn}"``: a \\S+ token can contain ANY non-whitespace byte
    (separator chars included), so a separator-joined key could merge
    distinct grams; the length prefix disambiguates unconditionally.
    The key of a single word is the word itself.

    Built with Arrow kernels — an ``np.char.add`` chain costs ~1 s
    per 260k strings (per-element PyUnicode concat) vs ~0.1 s for
    ``binary_join_element_wise``; ``utf8_length`` counts codepoints,
    matching Python ``len`` on the numpy unicode tokens."""
    if len(ws) == 1 or not len(ws[0]):
        return ws[0]
    arrs = [pa.array(w) for w in ws]
    parts: list = []
    for a in arrs[:-1]:
        parts += [pc.cast(pc.utf8_length(a), pa.string()), ":"]
    key = pc.binary_join_element_wise(*parts, *arrs, "")
    return np.asarray(key.to_pylist(), dtype=np.str_)


def _lookup(sorted_keys: np.ndarray, probe: np.ndarray, *vals,
            default: float = 0.0) -> list:
    """Vectorized exact-match lookup of every ``vals`` array on a
    sorted string array.  The probe keeps its own itemsize (casting
    to the model's would TRUNCATE longer unseen strings into false
    hits)."""
    from nxsearch_ray.stages.join import sorted_lookup

    if not len(sorted_keys):
        return [np.full(len(probe), default) for _ in vals]
    pos, hit = sorted_lookup(sorted_keys, probe)
    return [np.where(hit, v[pos], default) for v in vals]


def _per_doc(batch: pa.Table, id_col: str, doc: np.ndarray,
             neglog: np.ndarray, count_col: str) -> pa.Table:
    """Segmented mean of ``neglog`` per doc row; docs with no grams
    are omitted (no defined perplexity), matching the SQL twins'
    inner joins."""
    ids = batch.column(id_col).to_numpy()
    n = np.bincount(doc, minlength=batch.num_rows).astype(np.int64)
    # float even when the batch has no gram (bincount of nothing is int)
    sums = np.bincount(doc, weights=neglog,
                       minlength=batch.num_rows).astype(np.float64)
    has = n > 0
    logloss = np.divide(sums, n, out=np.zeros_like(sums), where=has)
    return pa.Table.from_arrays(
        [pa.array(ids[has], type=pa.int64()), pa.array(n[has]),
         pa.array(logloss[has], type=pa.float64()),
         pa.array(np.exp(logloss[has]), type=pa.float64())],
        names=["doc_id", count_col, "logloss", "perplexity"])


def _summed(partials, cols: list):
    """The census: one ``(cols…, n)`` row per distinct ``cols`` tuple
    of the per-batch partials, ``n`` summed (stages/shuffle.grouped)."""
    from nxsearch_ray.stages.shuffle import grouped

    schema = pa.schema([(c, pa.string()) for c in cols]
                       + [("n", pa.int64())])

    def fn(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return t.select(cols).take(starts).append_column(
            "n", pa.array(np.add.reduceat(t.column("n").to_numpy(),
                                          starts)))

    return grouped(partials, cols, fn, schema)


def unigram_census(docs_ds, *, text_col: str = "text"):
    """(word, n) corpus census with a per-batch combiner."""

    def partial(batch: pa.Table) -> pa.Table:
        _, toks = _tokens(batch, text_col)
        vc = pc.value_counts(toks)      # StructArray (values, counts)
        return pa.table({"word": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    return _summed(docs_ds.map_batches(partial, batch_format="pyarrow"),
                   ["word"])


def unigram_model_ref(census_ds, *, vocab_cap: int | None = None):
    """Fold the census into ONE object-store model: sorted word array
    + aligned ``ln(n/N)`` array + the OOV floor ``ln(1/(N+V))``.
    Built in a remote task — the driver never holds the vocabulary."""
    import ray

    @ray.remote
    def _build(*blocks):
        t = pa.concat_tables(blocks)
        words = np.asarray(t.column("word").to_pylist(), dtype=object)
        n = t.column("n").to_numpy().astype(np.float64)
        total = n.sum()
        vsize = len(words)
        if vocab_cap is not None and vsize > vocab_cap:
            keep = np.lexsort((words, -n))[:vocab_cap]
            words, n = words[keep], n[keep]
        order = np.argsort(words)
        words, n = words[order], n[order]
        logp = np.log(n / total) if total else n
        floor = float(np.log(1.0 / (total + vsize))) if total else 0.0
        return {"words": words.astype(np.str_), "logp": logp,
                "floor": floor}

    return _build.remote(*census_ds.to_arrow_refs())


def ngram_census(docs_ds, order: int, *, text_col: str = "text"):
    """(w1..wn, n) corpus n-gram census with a per-batch combiner —
    the grouped scan's exchange moves N-GRAM-VOCABULARY rows, not token
    rows."""
    cols = [f"w{i}" for i in range(1, order + 1)]

    def partial(batch: pa.Table) -> pa.Table:
        _, ws = _grams(batch, text_col, order)
        _, idx, counts = np.unique(_ngram_key(*ws), return_index=True,
                                   return_counts=True)
        return pa.table({**{c: pa.array(w[idx]) for c, w in zip(cols, ws)},
                         "n": pa.array(counts.astype(np.int64))})

    return _summed(docs_ds.map_batches(partial, batch_format="pyarrow"),
                   cols)


def kn_model_ref(census_ds, order: int, *, discount: float = 0.75,
                 cap: int | None = None):
    """Fold the order-n census into ONE object-store interpolated
    Kneser-Ney model (Chen & Goodman 1998, public).  Every lower order
    is a continuation-count model derived from the TYPES of the order
    above, so the whole model comes out of the order-n census alone:

      p_n(wn|w1..w(n-1)) = max(c(w1..wn)-d,0)/c(w1..w(n-1)·)
                           + d·N1+(w1..w(n-1)·)/c(w1..w(n-1)·) · p_(n-1)
      p_m(wn|ctx)        = max(N1+(·ctx wn)-d,0)/N1+(·ctx·)
                           + d·N1+(ctx·)/N1+(·ctx·) · p_(m-1)
      p_1(wn)            = N1+(·wn) / B,   B = |T_2|

    where T_n is the census and T_m (m = n-1 .. 2) is the set of
    distinct last-m suffixes of T_(m+1): N1+(·ctx wn) counts T_(m+1)
    rows per suffix, N1+(·ctx·) T_(m+1) rows per middle key and
    N1+(ctx·) T_m rows per prefix.  Only the top count table is
    subject to ``cap`` (top-K by count desc, key asc — a missed lookup
    falls back to the pure backoff term, the standard capped-LM
    behaviour); the derived tables are vocabulary-sized and kept
    whole.  Built in one remote task; the driver never holds the
    census."""
    import ray

    if order < 2:
        raise ValueError("Kneser-Ney needs order >= 2")
    cols = [f"w{i}" for i in range(1, order + 1)]

    @ray.remote
    def _build(*blocks):
        t = pa.concat_tables(blocks)
        ws = [np.asarray(t.column(c).to_pylist(), dtype=np.str_)
              for c in cols]
        c = t.column("n").to_numpy().astype(np.float64)
        # top level: context totals + fan-out over w1..w(n-1)
        ctx, inv = np.unique(_ngram_key(*ws[:-1]), return_inverse=True)
        top_ctx = (ctx, np.bincount(inv, weights=c, minlength=len(ctx)),
                   np.bincount(inv, minlength=len(ctx)).astype(np.float64))
        # one level per order m = 2..n, bottom-up: (gram keys,
        # numerator, context keys, denominator, fan-out), keys sorted
        levels = []
        tm = ws                                   # rows of T_(m+1)
        for m in range(order - 1, 1, -1):
            suf, first, inv = np.unique(_ngram_key(*tm[-m:]),
                                        return_index=True,
                                        return_inverse=True)
            num = np.bincount(inv, minlength=len(suf)).astype(np.float64)
            mid, inv = np.unique(_ngram_key(*tm[-m:-1]),
                                 return_inverse=True)
            den = np.bincount(inv, minlength=len(mid)).astype(np.float64)
            tm = [w[first] for w in tm[-m:]]      # T_m
            fan = np.bincount(np.searchsorted(mid, _ngram_key(*tm[:-1])),
                              minlength=len(mid)).astype(np.float64)
            levels.insert(0, (suf, num, mid, den, fan))
        cont_w, cont_n = np.unique(tm[-1], return_counts=True)
        key = _ngram_key(*ws)
        if cap is not None and len(key) > cap:
            keep = np.lexsort((key, -c))[:cap]
            key, c = key[keep], c[keep]
        o = np.argsort(key)
        levels.append((key[o], c[o], *top_ctx))
        return {"levels": levels, "cont_w": cont_w,
                "cont_n": cont_n.astype(np.float64),
                "B": float(len(tm[0])), "d": float(discount)}

    return _build.remote(*census_ds.to_arrow_refs())


class _Scorer:
    """Scorer kernel base over the fetched ``model`` — the per-worker
    state of a task wave (stages/join.broadcast_map; plasma,
    zero-copy for the float arrays)."""

    def __init__(self, model: dict, id_col: str = "doc_id",
                 text_col: str = "text"):
        self.m = model
        self.id_col = id_col
        self.text_col = text_col


class UnigramScorer(_Scorer):
    """Vectorized vocabulary lookup + segmented mean per batch."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.m
        doc, (tok,) = _grams(batch, self.text_col, 1)
        lp, = _lookup(m["words"], tok, m["logp"], default=m["floor"])
        return _per_doc(batch, self.id_col, doc, -lp, "n_tokens")


class KNScorer(_Scorer):
    """Order-n KN scorer (the order is the model's): applies the
    levels bottom-up with the SQL twins' exact operation order, so
    results are float-identical to them."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = self.m
        levels, B, d = m["levels"], m["B"], m["d"]
        doc, ws = _grams(batch, self.text_col, len(levels) + 1)
        n1p, = _lookup(m["cont_w"], ws[-1], m["cont_n"])
        p = n1p / B if B else np.zeros_like(n1p)
        for k, (keys, nums, ctx, dens, fans) in enumerate(levels, start=2):
            num, = _lookup(keys, _ngram_key(*ws[-k:]), nums)
            den, fan = _lookup(ctx, _ngram_key(*ws[-k:-1]), dens, fans)
            den_ = np.where(den > 0, den, 1.0)
            p = np.where(den > 0, np.maximum(num - d, 0.0) / den_
                         + d * fan / den_ * p, p)
        # self-trained uncapped models never hit this floor; a capped
        # or foreign model can (unseen gram after an unseen context) —
        # add-one-style smallest mass
        p = np.where(p > 0, p, 1.0 / (B + len(m["cont_w"]) + 1.0))
        return _per_doc(batch, self.id_col, doc, -np.log(p),
                        "n_transitions")


def _score(docs_ds, scorer, model_ref, id_col, text_col):
    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(docs_ds, model_ref, functools.partial(
        scorer, id_col=id_col, text_col=text_col), batch_size=1024)


def lm_perplexity_kn(docs_ds, *, order: int = 2, id_col: str = "doc_id",
                     text_col: str = "text", discount: float = 0.75,
                     cap: int | None = None, model_ref=None):
    """Per-document interpolated Kneser-Ney ORDER-n perplexity against
    the corpus's own n-gram statistics (or a prebuilt ``model_ref``,
    which carries its own order) — census combiner -> one-task model
    fold -> broadcast -> task-wave scorer.  Documents with fewer than
    n tokens have no n-gram windows and are omitted, matching the SQL
    twins' joins."""
    if model_ref is None:
        model_ref = kn_model_ref(
            ngram_census(docs_ds, order, text_col=text_col), order,
            discount=discount, cap=cap)
    return _score(docs_ds, KNScorer, model_ref, id_col, text_col)


def lm_perplexity(docs_ds, *, id_col: str = "doc_id",
                  text_col: str = "text",
                  vocab_cap: int | None = None, model_ref=None):
    """Per-document unigram perplexity against the corpus's own MLE
    unigram model (or a prebuilt ``model_ref``).  Documents with zero
    tokens are omitted (no defined perplexity), matching the SQL
    twin's inner join."""
    if model_ref is None:
        model_ref = unigram_model_ref(
            unigram_census(docs_ds, text_col=text_col),
            vocab_cap=vocab_cap)
    return _score(docs_ds, UnigramScorer, model_ref, id_col, text_col)
