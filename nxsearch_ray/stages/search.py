"""Term search (boolean set algebra) + TF-IDF / BM25 ranking.

The reference's headline feature re-expressed Ray-Data-first:

  * **query language** — free-form terms with `AND`/`&`, `OR`/`|`,
    `AND NOT`, parentheses and quoted strings; adjacent terms OR
    together (reference src/query/scan.re:64-66 token set and
    src/query/grammar.y:71-141 rules: expr_list juxtaposition = OR,
    %left OR < AND, `expr AND NOT expr` = and-not).  Implemented as a
    tiny precedence-climbing parser over the same token set.
  * **set algebra** — the reference intersects/unions per-term roaring
    doc bitmaps (src/query/search.c:114-174 get_expr_bitmap).  Here
    every document's matched-query-term set is ONE map-only pass over
    the canonical token table (no shuffle of the corpus: the tiny
    query-term id array rides inside the task closure), and the
    boolean expression is evaluated vectorized over per-doc presence
    masks.
  * **ranking** — TF-IDF and BM25 exactly as src/algo/ranking.c:41-176:
        tf        = ln(term_freq + 1)
        tfidf     = tf * (ln(N / df) + 1)
        tf_bm25   = tf / (tf + k*(1 - b + b*dl/adl)),  k=1.2, b=0.75
        idf_bm25  = ln((N - df + 0.5)/(df + 0.5) + 1)
        bm25      = tf_bm25 * idf_bm25
    with ``adl = token_total // doc_count`` (integer division, as the
    reference's unsigned division at ranking.c:167), and a document's
    score = Σ over query terms present in it (search.c:239-266).
    Goldens from src/tests/t_scoring.c:21-158 are pinned in
    tests/test_search.py to 1e-4 (helpers.c tolerance).
  * **top-k** — score desc, doc id asc, default limit 1000
    (NXS_DEFAULT_RESULTS_LIMIT, src/core/nxs_impl.h:39); the capped
    min-heap of src/algo/heap.c becomes a per-block partial top-k +
    small final merge.
"""

from __future__ import annotations

import re as _re
from collections import OrderedDict

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions.hashing import hash_strings
from nxsearch_ray.stages.signatures import list_column_numpy

DEFAULT_LIMIT = 1000     # reference src/core/nxs_impl.h:39
BM25_K = 1.2             # reference src/algo/ranking.c:141
BM25_B = 0.75            # reference src/algo/ranking.c:142


# ------------------------------------------------------------------ parser

_LEX_RE = _re.compile(
    r"""\s*(?:(?P<op>AND|OR|NOT|[&|()])|"(?P<q>[^"]*)"|"""
    r"""(?P<w>[^\s()&|"]+))""")


def lex_query(query: str) -> list[tuple[str, str]]:
    """(kind, value) tokens; kind ∈ {op, term}.  `&`→AND, `|`→OR, like
    the reference lexer (src/query/scan.re:64-66, 96-98)."""
    out: list[tuple[str, str]] = []
    pos = 0
    while pos < len(query):
        m = _LEX_RE.match(query, pos)
        if not m or m.end() == pos:
            break
        pos = m.end()
        if m.group("op") is not None:
            op = {"&": "AND", "|": "OR"}.get(m.group("op"),
                                             m.group("op"))
            out.append(("op", op))
        elif m.group("q") is not None:
            out.append(("term", m.group("q")))
        else:
            out.append(("term", m.group("w")))
    return out


class QuerySyntaxError(ValueError):
    pass


def parse_query(query: str):
    """AST: ('term', str) | (op, left, right), op ∈ and/or/andnot.
    Precedence (grammar.y): OR and juxtaposition bind loosest, AND and
    AND NOT tighter; parentheses group."""
    toks = lex_query(query)
    i = 0

    def peek():
        return toks[i] if i < len(toks) else (None, None)

    def parse_atom():
        nonlocal i
        kind, val = peek()
        if kind == "op" and val == "(":
            i += 1
            node = parse_or()
            k2, v2 = peek()
            if not (k2 == "op" and v2 == ")"):
                raise QuerySyntaxError("expected ')'")
            i += 1
            return node
        if kind == "term":
            i += 1
            return ("term", val)
        raise QuerySyntaxError(f"unexpected token {val!r}")

    def parse_and():
        nonlocal i
        node = parse_atom()
        while True:
            kind, val = peek()
            if kind == "op" and val == "AND":
                i += 1
                k2, v2 = peek()
                if k2 == "op" and v2 == "NOT":
                    i += 1
                    node = ("andnot", node, parse_atom())
                else:
                    node = ("and", node, parse_atom())
            else:
                return node

    def parse_or():
        nonlocal i
        node = parse_and()
        while True:
            kind, val = peek()
            if kind == "op" and val == "OR":
                i += 1
                node = ("or", node, parse_and())
            elif (kind == "term") or (kind == "op" and val == "("):
                # juxtaposition = OR (grammar.y expr_list rule)
                node = ("or", node, parse_and())
            else:
                return node

    node = parse_or()
    if i != len(toks):
        raise QuerySyntaxError("trailing tokens")
    return node


def ast_terms(node) -> list[str]:
    """Unique raw terms in first-appearance order."""
    out: list[str] = []

    def walk(n):
        if n[0] == "term":
            if n[1] not in out:
                out.append(n[1])
        else:
            walk(n[1])
            walk(n[2])

    walk(node)
    return out


def canonical_query_terms(raw_terms: list[str],
                          cfg: PipelineConfig) -> dict[str, str | None]:
    """raw term → canonical token (or None when the filter chain
    discards it, e.g. a stopword — its doc set is then empty, like a
    NULL idxterm in the reference, search.c:131-139)."""
    from nxsearch_ray.functions.filters import build_pipeline
    from nxsearch_ray.functions.tokenizer import segment_words

    pipe = build_pipeline(cfg.filters, cfg.lang)
    out: dict[str, str | None] = {}
    for raw in raw_terms:
        words = segment_words(raw)
        if len(words) != 1:
            out[raw] = None
            continue
        out[raw] = pipe.run(words[0])
    return out


# ------------------------------------------------------- matched-row pass

def _match_fn(qids_sorted: np.ndarray, id_col: str):
    """Map-only pass: per (doc, query-term) term frequencies."""
    from nxsearch_ray.stages.join import sorted_lookup

    nterms = len(qids_sorted)
    out_schema = pa.schema([
        (id_col, pa.int64()), ("term_idx", pa.int32()),
        ("tf", pa.int64()), ("dl", pa.int64())])

    def fn(batch: pa.Table) -> pa.Table:
        ndocs = batch.num_rows
        if ndocs == 0 or nterms == 0:
            return out_schema.empty_table()
        flat, off = list_column_numpy(batch.column("token_ids"))
        pos, hit = sorted_lookup(qids_sorted, flat)
        sel = np.nonzero(hit)[0]
        if len(sel) == 0:
            return out_schema.empty_table()
        counts_per_doc = off[1:] - off[:-1]
        doc_of = np.repeat(np.arange(ndocs, dtype=np.int64),
                           counts_per_doc)
        packed = doc_of[sel] * nterms + pos[sel]
        upacked, tf = np.unique(packed, return_counts=True)
        udoc = upacked // nterms
        uterm = (upacked % nterms).astype(np.int32)
        ids = batch.column(id_col).to_numpy()
        dl = batch.column("doc_len").to_numpy().astype(np.int64)
        return pa.Table.from_arrays(
            [pa.array(ids[udoc]), pa.array(uterm),
             pa.array(tf.astype(np.int64)), pa.array(dl[udoc])],
            schema=out_schema)

    return fn


def _eval_ast(node, present: np.ndarray, term_pos: dict[str, int],
              canon: dict[str, str | None]) -> np.ndarray:
    """Boolean vector over candidate docs; ``present`` is the
    (ndocs, nterms) presence matrix."""
    n = present.shape[0]
    if node[0] == "term":
        tok = canon.get(node[1])
        if tok is None or tok not in term_pos:
            return np.zeros(n, dtype=bool)
        return present[:, term_pos[tok]]
    left = _eval_ast(node[1], present, term_pos, canon)
    right = _eval_ast(node[2], present, term_pos, canon)
    if node[0] == "and":
        return left & right
    if node[0] == "or":
        return left | right
    if node[0] == "andnot":
        return left & ~right
    raise ValueError(node[0])


def term_scores(tf: np.ndarray, dl: np.ndarray, df: np.ndarray,
                doc_count: int, token_total: int,
                algo: str) -> np.ndarray:
    """Vectorized reference scoring (ranking.c:41-176); inputs aligned
    per (doc, term) row."""
    tf_log = np.log(tf.astype(np.float64) + 1.0)
    if algo == "tfidf":
        idf = np.log(doc_count / df.astype(np.float64)) + 1.0
        return tf_log * idf
    if algo != "bm25":
        raise ValueError(f"unknown ranking algo {algo!r}")
    adl = float(token_total // doc_count) if doc_count else 0.0
    if adl < 1.0:
        return np.full(len(tf), -1.0)     # reference skip marker
    tf_bm25 = tf_log / (tf_log + BM25_K * (
        1.0 - BM25_B + BM25_B * dl.astype(np.float64) / adl))
    idf = np.log((doc_count - df.astype(np.float64) + 0.5)
                 / (df.astype(np.float64) + 0.5) + 1.0)
    return tf_bm25 * idf


def corpus_stats(canonical_ds) -> tuple[int, int]:
    """(doc_count, token_total) — one small aggregate execution."""
    t = canonical_ds.select_columns(["doc_len"]) \
        .map_batches(
            lambda b: pa.table({
                "n": [b.num_rows],
                "tok": [int(np.sum(b.column("doc_len").to_numpy(),
                                   dtype=np.int64))]}),
            batch_format="pyarrow")
    n = 0
    tok = 0
    for batch in t.iter_batches(batch_size=1 << 20,
                                batch_format="pyarrow"):
        n += int(np.sum(batch.column("n").to_numpy()))
        tok += int(np.sum(batch.column("tok").to_numpy()))
    return n, tok


# driver-side BK-tree resolvers for query-term fuzzy match, one per
# vocabulary ref, least recently used first out — bounded by the
# service's index cache, since an index evicted there never reaches
# its old vocabulary ref again
_FUZZY_RESOLVERS: OrderedDict = OrderedDict()


def _fuzzy_resolver(vocab_ref):
    import ray

    from nxsearch_ray.stages.fuzzy import FuzzyLookupActor
    from nxsearch_ray.svc import IndexStore

    key = vocab_ref.hex()
    if key not in _FUZZY_RESOLVERS:
        _FUZZY_RESOLVERS[key] = FuzzyLookupActor(ray.get(vocab_ref))
    _FUZZY_RESOLVERS.move_to_end(key)
    while len(_FUZZY_RESOLVERS) > IndexStore.CACHE_SLOTS:
        _FUZZY_RESOLVERS.popitem(last=False)
    return _FUZZY_RESOLVERS[key]


def term_search(canonical_ds, query: str, cfg: PipelineConfig, *,
                algo: str = "bm25", limit: int = DEFAULT_LIMIT,
                id_col: str = "page_id",
                stats: tuple[int, int] | None = None,
                fuzzy_vocab_ref=None) -> pa.Table:
    """Search the canonical token table; returns (id_col, score)
    sorted by score desc, id asc, capped at ``limit``.

    Dataflow: one map-only matched-row pass over the corpus (query ids
    broadcast in the closure — no corpus shuffle), per-term df partial
    counts folded on the driver (nterms integers, not a table
    collect), then one grouped scan on the doc id over the matched
    rows (≪ corpus; stages/shuffle.grouped): each doc's run is
    evaluated and scored vectorized, with a per-partition top-k; the
    driver only merges the partitions' top-k lists."""
    import ray

    from nxsearch_ray.stages.shuffle import grouped

    ast = parse_query(query)
    raw_terms = ast_terms(ast)
    canon = canonical_query_terms(raw_terms, cfg)
    if fuzzy_vocab_ref is not None:
        # reference TOKENSET_FUZZYMATCH semantics (search.c:86,
        # query_prepare): a query token with no exact vocabulary match
        # resolves to its most frequent ≤2-edit neighbor
        resolver = _fuzzy_resolver(fuzzy_vocab_ref)
        for raw, tok in list(canon.items()):
            if tok is not None and tok not in resolver._pos:
                m, _d = resolver.resolve(tok)
                if m is not None:
                    canon[raw] = m
    toks = sorted({t for t in canon.values() if t is not None})
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("score", pa.float64())])
    empty = out_schema.empty_table()
    if not toks:
        return empty
    qids = hash_strings(toks, seed=cfg.seed)
    order = np.argsort(qids, kind="stable")
    qids_sorted = qids[order]
    # canonical token -> column index in the presence matrix
    term_pos = {toks[int(j)]: int(i) for i, j in enumerate(order)}
    nterms = len(qids_sorted)

    matched = canonical_ds.map_batches(
        _match_fn(qids_sorted, id_col),
        batch_format="pyarrow").materialize()

    # global per-term document frequencies: nterms integers per block
    def partial_df(t: pa.Table) -> pa.Table:
        c = np.bincount(t.column("term_idx").to_numpy(),
                        minlength=nterms).astype(np.int64)
        return pa.table({"term_idx": np.arange(nterms, dtype=np.int64),
                         "cnt": c})

    df = np.zeros(nterms, dtype=np.int64)
    for b in matched.map_batches(
            partial_df, batch_format="pyarrow").iter_batches(
                batch_size=1 << 20, batch_format="pyarrow"):
        np.add.at(df, b.column("term_idx").to_numpy(),
                  b.column("cnt").to_numpy())
    doc_count, token_total = (stats if stats is not None
                              else corpus_stats(canonical_ds))
    if doc_count == 0 or int(df.sum()) == 0:
        return empty

    def score_docs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        tidx = t.column("term_idx").to_numpy()
        tf = t.column("tf").to_numpy()
        dl = t.column("dl").to_numpy()
        # one run per doc: its id and each row's run
        udocs = t.column(id_col).to_numpy()[starts]
        dinv = np.repeat(np.arange(len(starts)),
                         np.diff(starts, append=t.num_rows))
        present = np.zeros((len(udocs), nterms), dtype=bool)
        present[dinv, tidx] = True
        keep_doc = _eval_ast(ast, present, term_pos, canon)
        row_keep = keep_doc[dinv]
        sc = term_scores(tf[row_keep], dl[row_keep],
                         df[tidx[row_keep]], doc_count, token_total,
                         algo)
        valid = sc >= 0
        doc_rows = dinv[row_keep][valid]
        per_doc = np.zeros(len(udocs), dtype=np.float64)
        np.add.at(per_doc, doc_rows, sc[valid])
        have = np.zeros(len(udocs), dtype=bool)
        have[doc_rows] = True
        sel = np.nonzero(have)[0]
        out_ids = udocs[sel]
        out_scores = per_doc[sel]
        # partition-local top-k under the final total order
        order2 = np.lexsort((out_ids, -out_scores))[:limit]
        return pa.Table.from_arrays(
            [pa.array(out_ids[order2], type=pa.int64()),
             pa.array(out_scores[order2], type=pa.float64())],
            schema=out_schema)

    merged = pa.concat_tables(ray.get(grouped(
        matched, [id_col], score_docs, out_schema).to_arrow_refs()))
    if merged.num_rows == 0:
        return empty
    out_ids = merged.column(id_col).to_numpy()
    out_scores = merged.column("score").to_numpy()
    order3 = np.lexsort((out_ids, -out_scores))[:limit]
    return pa.Table.from_arrays(
        [pa.array(out_ids[order3], type=pa.int64()),
         pa.array(out_scores[order3], type=pa.float64())],
        schema=out_schema)


def term_search_docs(canonical_ds, query: str, cfg: PipelineConfig,
                     **kw) -> pa.Table:
    """Doc-set only variant (t_querylogic.c semantics): every matching
    doc id, unranked."""
    t = term_search(canonical_ds, query, cfg, limit=1 << 62, **kw)
    return t.select([t.column_names[0]])


def response_json(results: pa.Table) -> str:
    """Serialize a (id, score) result table to the reference's wire
    format: ``{"results": [{"doc_id": N, "score": S}, ...],
    "count": N}`` — nxs_resp_tojson (reference src/core/results.c:
    21-42, 118-122), scores rounded like the service's JSON output.
    The input order (score desc, id asc) is preserved."""
    import json

    ids = results.column(results.column_names[0]).to_pylist()
    scores = (results.column("score").to_pylist()
              if "score" in results.column_names else [0.0] * len(ids))
    return json.dumps(
        {"results": [{"doc_id": int(i), "score": round(float(s), 6)}
                     for i, s in zip(ids, scores)],
         "count": len(ids)},
        separators=(",", ":"))
