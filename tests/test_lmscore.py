"""Unigram LM scoring gates: python-oracle equality, OOV floor via a
prebuilt capped model, empty-doc omission, and cross-corpus scoring
(the real CCNet shape: score new docs against a reference model)."""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pytest

DOCS = [
    (0, "the cat sat on the mat"),
    (1, "the dog sat"),
    (2, "a cat and a dog"),
    (3, ""),                     # zero tokens -> omitted
    (4, "THE The the"),          # casefolds into 'the'
]


def _ds():
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in DOCS], type=pa.int64()),
        "text": pa.array([t for _, t in DOCS])})).repartition(3)


def _counts():
    toks = [w for _, t in DOCS for w in t.lower().split()]
    from collections import Counter
    return Counter(toks), len(toks)


def _score(ds):
    import ray
    from nxsearch_ray.stages.lmscore import lm_perplexity
    tbs = [t for t in ray.get(lm_perplexity(ds).to_arrow_refs())
           if t.num_columns]
    tb = pa.concat_tables(tbs)
    return {r["doc_id"]: r for r in tb.to_pylist()}


def test_matches_python_oracle(ray_session):
    got = _score(_ds())
    cnt, total = _counts()
    assert sorted(got) == [0, 1, 2, 4]       # doc 3 omitted
    for doc_id, text in DOCS:
        toks = text.lower().split()
        if not toks:
            continue
        ll = -sum(math.log(cnt[w] / total) for w in toks) / len(toks)
        assert got[doc_id]["n_tokens"] == len(toks)
        assert got[doc_id]["logloss"] == pytest.approx(ll, rel=1e-12)
        assert got[doc_id]["perplexity"] == pytest.approx(
            math.exp(ll), rel=1e-12)


def test_repeated_word_cheaper_than_rare(ray_session):
    got = _score(_ds())
    # doc 4 is all 'the' (most frequent) -> lowest perplexity
    assert got[4]["perplexity"] < got[0]["perplexity"]
    assert got[4]["perplexity"] < got[2]["perplexity"]


def test_vocab_cap_oov_floor(ray_session):
    """Capped model: evicted words score the add-one floor, and the
    cap keeps the (count desc, word asc) head deterministically."""
    import ray
    from nxsearch_ray.stages.lmscore import (UnigramScorer,
                                             unigram_census,
                                             unigram_model_ref)

    ds = _ds()
    model = ray.get(unigram_model_ref(unigram_census(ds), vocab_cap=2))
    cnt, total = _counts()
    want = sorted(sorted(cnt), key=lambda w: (-cnt[w], w))[:2]
    assert sorted(model["words"].tolist()) == sorted(want)
    assert model["floor"] == pytest.approx(
        math.log(1.0 / (total + len(cnt))))

    scorer = UnigramScorer(model)
    out = scorer(pa.table({"doc_id": pa.array([9], type=pa.int64()),
                           "text": pa.array(["zzz-unseen-token"])}))
    assert out.num_rows == 1
    assert out.column("logloss")[0].as_py() == pytest.approx(
        -model["floor"])


def test_long_oov_token_does_not_truncate_into_vocab(ray_session):
    """An OOV token longer than every vocab word must NOT be clipped
    to the model's unicode itemsize (that would alias it onto a
    vocabulary entry)."""
    import ray
    from nxsearch_ray.stages.lmscore import (UnigramScorer,
                                             unigram_census,
                                             unigram_model_ref)

    ds = _ds()
    model = ray.get(unigram_model_ref(unigram_census(ds)))
    scorer = UnigramScorer(model)
    out = scorer(pa.table({
        "doc_id": pa.array([9], type=pa.int64()),
        "text": pa.array(["theeeeeeeeeeeeeeeeeeee"])}))
    assert out.column("logloss")[0].as_py() == pytest.approx(
        -model["floor"])


def test_cross_corpus_model_reuse(ray_session):
    """Score a new dataset against a prebuilt reference model (the
    CCNet deployment shape)."""
    import ray
    import ray.data as rd
    from nxsearch_ray.stages.lmscore import (lm_perplexity,
                                             unigram_census,
                                             unigram_model_ref)

    ref_model = unigram_model_ref(unigram_census(_ds()))
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], type=pa.int64()),
        "text": pa.array(["the the the", "qqq www eee"])}))
    tbs = [t for t in ray.get(lm_perplexity(
        new, model_ref=ref_model).to_arrow_refs()) if t.num_columns]
    got = {r["doc_id"]: r for r in pa.concat_tables(tbs).to_pylist()}
    cnt, total = _counts()
    assert got[100]["logloss"] == pytest.approx(
        -math.log(cnt["the"] / total))
    # all-OOV doc scores exactly the floor
    m = ray.get(ref_model)
    assert got[101]["logloss"] == pytest.approx(-m["floor"])


# ---------------- Kneser-Ney bigram tier ----------------------------

def _re2_tokens(text):
    """RE2-faithful \\S+ tokenization: RE2 (pyarrow + DuckDB) treats
    only [\\t\\n\\f\\r ] as \\s, while Python's str.split()/re \\s also
    split on \\x1c-\\x1f and unicode spaces — the engine follows RE2."""
    import re
    return [t for t in re.split("[\t\n\f\r ]+", text.lower()) if t]


def _kn_oracle(docs, d=0.75):
    """Python restatement of interpolated KN over the corpus's own
    bigram census: p = max(c12-d,0)/c1 + d*N1+(w1.)/c1 * N1+(.w2)/B."""
    from collections import Counter
    trans = []
    for doc_id, text in docs:
        toks = _re2_tokens(text)
        trans += [(doc_id, a, b) for a, b in zip(toks, toks[1:])]
    big = Counter((a, b) for _, a, b in trans)
    c1 = Counter()
    fan = Counter()
    cont = Counter()
    for (a, b), c in big.items():
        c1[a] += c
        fan[a] += 1
        cont[b] += 1
    B = len(big)
    out = {}
    for doc_id, a, b in trans:
        p = (max(big[(a, b)] - d, 0.0) / c1[a]
             + d * fan[a] / c1[a] * (cont[b] / B))
        out.setdefault(doc_id, []).append(-math.log(p))
    return {k: sum(v) / len(v) for k, v in out.items()}


def _score_kn(ds, **kw):
    import ray
    from nxsearch_ray.stages.lmscore import lm_perplexity_kn
    tbs = [t for t in ray.get(lm_perplexity_kn(ds, order=2, **kw)
                              .to_arrow_refs()) if t.num_columns]
    tb = pa.concat_tables(tbs)
    return dict(zip(tb.column("doc_id").to_pylist(),
                    tb.column("logloss").to_pylist()))


def test_kn_matches_python_oracle(ray_session):
    got = _score_kn(_ds())
    want = _kn_oracle(DOCS)
    assert set(got) == set(want)          # docs 3 (empty) omitted
    assert 3 not in got
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_kn_single_token_doc_omitted(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["lonely", "two words two words"])}))
    got = _score_kn(ds)
    assert set(got) == {1}


def test_kn_bigram_cap_backoff(ray_session):
    """A capped bigram table must route missed lookups through the
    pure-backoff term (c12 = 0), never crash or emit p <= 0."""
    got = _score_kn(_ds(), cap=3)
    full = _score_kn(_ds())
    assert set(got) == set(full)
    # capped probabilities can only shrink -> logloss only grows
    for k in got:
        assert got[k] >= full[k] - 1e-12


def test_kn_separator_byte_in_token(ray_session):
    """\\x1f is non-whitespace, so tokens may CONTAIN it; the
    length-prefixed pair key must not merge ('a\\x1fb','c') with
    ('a','b\\x1fc')."""
    import ray.data as rd
    docs = [(0, "a\x1fb c"), (1, "a b\x1fc x a b\x1fc")]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs])}))
    got = _score_kn(ds)
    want = _kn_oracle(docs)
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


# ---------------- Kneser-Ney trigram tier ---------------------------

def _kn3_oracle(docs, d=0.75):
    """Python restatement of interpolated KN trigram with
    Chen-Goodman continuation counts, all derived from the trigram
    census: p = max(c123-d,0)/c12 + d*fan12/c12 * pmid,
    pmid = max(N1+(.w2w3)-d,0)/N1+(.w2.) + d*N1+(w2.)/N1+(.w2.)
           * (N1+(.w3)/B)."""
    from collections import Counter
    trans = []
    for doc_id, text in docs:
        toks = _re2_tokens(text)
        trans += [(doc_id, a, b, c)
                  for a, b, c in zip(toks, toks[1:], toks[2:])]
    tri = Counter((a, b, c) for _, a, b, c in trans)
    c12, fan12 = Counter(), Counter()
    t2 = set()
    n1p23, n1pmid = Counter(), Counter()
    for (a, b, c), n in tri.items():
        c12[(a, b)] += n
        fan12[(a, b)] += 1
        t2.add((b, c))
        n1p23[(b, c)] += 1
        n1pmid[b] += 1
    fanmid, n1p3 = Counter(), Counter()
    for (b, c) in t2:
        fanmid[b] += 1
        n1p3[c] += 1
    B = len(t2)
    out = {}
    for doc_id, a, b, c in trans:
        pcont = n1p3[c] / B
        pmid = (max(n1p23[(b, c)] - d, 0.0) / n1pmid[b]
                + d * fanmid[b] / n1pmid[b] * pcont)
        p = (max(tri[(a, b, c)] - d, 0.0) / c12[(a, b)]
             + d * fan12[(a, b)] / c12[(a, b)] * pmid)
        out.setdefault(doc_id, []).append(-math.log(p))
    return {k: sum(v) / len(v) for k, v in out.items()}


def _score_kn3(ds, **kw):
    import ray
    from nxsearch_ray.stages.lmscore import lm_perplexity_kn
    tbs = [t for t in ray.get(lm_perplexity_kn(ds, order=3, **kw)
                              .to_arrow_refs()) if t.num_columns]
    tb = pa.concat_tables(tbs)
    return dict(zip(tb.column("doc_id").to_pylist(),
                    tb.column("logloss").to_pylist()))


def test_kn3_matches_python_oracle(ray_session):
    got = _score_kn3(_ds())
    want = _kn3_oracle(DOCS)
    assert set(got) == set(want)
    assert 3 not in got                   # empty doc omitted
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_kn3_short_docs_omitted(ray_session):
    """Docs with < 3 tokens have no trigram transitions."""
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "text": pa.array(["one", "two words", "now three words"])}))
    got = _score_kn3(ds)
    assert set(got) == {2}


def test_kn3_trigram_cap_backoff(ray_session):
    """A capped trigram table routes missed lookups through the
    pure-backoff term (c123 = 0) — never crashes, never emits
    p <= 0, and probabilities can only shrink."""
    got = _score_kn3(_ds(), cap=2)
    full = _score_kn3(_ds())
    assert set(got) == set(full)
    for k in got:
        assert got[k] >= full[k] - 1e-12
        assert math.isfinite(got[k])


def test_kn3_separator_byte_in_token(ray_session):
    """Length-prefixed trigram keys must not merge distinct triples
    whose concatenations collide."""
    import ray.data as rd
    docs = [(0, "ab c d x a bc d"), (1, "a\x1fb c d a b\x1fc d")]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs])}))
    got = _score_kn3(ds)
    want = _kn3_oracle(docs)
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_kn3_cross_corpus_model_reuse(ray_session):
    """Score new docs against a prebuilt trigram model (the CCNet
    deployment shape) — unseen contexts back off, p stays > 0."""
    import ray
    import ray.data as rd
    from nxsearch_ray.stages.lmscore import kn_model_ref, ngram_census
    model = kn_model_ref(ngram_census(_ds(), 3), 3)
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([100, 101], type=pa.int64()),
        "text": pa.array(["the cat sat on the mat",
                          "qqq www eee rrr"])}))
    got = {}
    for t in ray.get(__import__(
            "nxsearch_ray.stages.lmscore",
            fromlist=["lm_perplexity_kn"]).lm_perplexity_kn(
                new, order=3, model_ref=model).to_arrow_refs()):
        if t.num_columns:
            got.update(zip(t.column("doc_id").to_pylist(),
                           t.column("logloss").to_pylist()))
    want = _kn3_oracle(DOCS)
    assert got[100] == pytest.approx(want[0], rel=1e-12)
    assert math.isfinite(got[101]) and got[101] > 0


# ---------------- Kneser-Ney 4-gram tier ----------------------------

def _kn4_oracle(docs, d=0.75):
    """Python restatement of interpolated KN 4-gram with every lower
    order's continuation counts derived from the next order's types."""
    from collections import Counter
    trans = []
    for doc_id, text in docs:
        toks = _re2_tokens(text)
        trans += [(doc_id, a, b, c, e)
                  for a, b, c, e in zip(toks, toks[1:], toks[2:],
                                        toks[3:])]
    quad = Counter((a, b, c, e) for _, a, b, c, e in trans)
    c123, fan123 = Counter(), Counter()
    t3 = set()
    n1p234, n1pm23 = Counter(), Counter()
    for (a, b, c, e), n in quad.items():
        c123[(a, b, c)] += n
        fan123[(a, b, c)] += 1
        t3.add((b, c, e))
        n1p234[(b, c, e)] += 1
        n1pm23[(b, c)] += 1
    fanm23 = Counter()
    t2 = set()
    n1p34, n1pm3 = Counter(), Counter()
    for (b, c, e) in t3:
        fanm23[(b, c)] += 1
        t2.add((c, e))
        n1p34[(c, e)] += 1
        n1pm3[c] += 1
    fanm3, n1p4 = Counter(), Counter()
    for (c, e) in t2:
        fanm3[c] += 1
        n1p4[e] += 1
    B = len(t2)
    out = {}
    for doc_id, a, b, c, e in trans:
        pcont = n1p4[e] / B
        p2 = (max(n1p34[(c, e)] - d, 0.0) / n1pm3[c]
              + d * fanm3[c] / n1pm3[c] * pcont)
        p3 = (max(n1p234[(b, c, e)] - d, 0.0) / n1pm23[(b, c)]
              + d * fanm23[(b, c)] / n1pm23[(b, c)] * p2)
        p = (max(quad[(a, b, c, e)] - d, 0.0) / c123[(a, b, c)]
             + d * fan123[(a, b, c)] / c123[(a, b, c)] * p3)
        out.setdefault(doc_id, []).append(-math.log(p))
    return {k: sum(v) / len(v) for k, v in out.items()}


def _score_kn4(ds, **kw):
    import ray
    from nxsearch_ray.stages.lmscore import lm_perplexity_kn
    tbs = [t for t in ray.get(lm_perplexity_kn(ds, order=4, **kw)
                              .to_arrow_refs()) if t.num_columns]
    tb = pa.concat_tables(tbs)
    return dict(zip(tb.column("doc_id").to_pylist(),
                    tb.column("logloss").to_pylist()))


def test_kn4_matches_python_oracle(ray_session):
    got = _score_kn4(_ds())
    want = _kn4_oracle(DOCS)
    assert set(got) == set(want)
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_kn4_short_docs_omitted(ray_session):
    import ray.data as rd
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "text": pa.array(["just three words", "now exactly four words"])}))
    got = _score_kn4(ds)
    assert set(got) == {1}


def test_kn4_cap_backoff(ray_session):
    got = _score_kn4(_ds(), cap=2)
    full = _score_kn4(_ds())
    assert set(got) == set(full)
    for k in got:
        assert got[k] >= full[k] - 1e-12
        assert math.isfinite(got[k])


def test_kn4_cross_corpus_unseen_backs_off(ray_session):
    import ray
    import ray.data as rd
    from nxsearch_ray.stages.lmscore import (kn_model_ref,
                                             lm_perplexity_kn,
                                             ngram_census)
    model = kn_model_ref(ngram_census(_ds(), 4), 4)
    new = rd.from_arrow(pa.table({
        "doc_id": pa.array([9], type=pa.int64()),
        "text": pa.array(["zz yy xx ww vv"])}))
    got = {}
    for t in ray.get(lm_perplexity_kn(
            new, order=4, model_ref=model).to_arrow_refs()):
        if t.num_columns:
            got.update(zip(t.column("doc_id").to_pylist(),
                           t.column("logloss").to_pylist()))
    assert math.isfinite(got[9]) and got[9] > 0


# ---------------- Kneser-Ney 5-gram tier (CCNet's order) ------------

# repeated phrases under different left contexts, so every level's
# denominator N1+(.ctx.) and fan-out N1+(ctx.) differ somewhere
DOCS5 = DOCS + [(5, "the cat sat on the mat and the cat sat"),
                (6, "a dog sat on the mat and a cat sat on the mat")]


def _knn_oracle(docs, n, d=0.75):
    """Order-n restatement of interpolated KN, written independently
    of the engine: T_n is the n-gram census, T_m the distinct last-m
    suffixes of T_(m+1); level m scores with
    max(N1+(.suffix)-d,0)/N1+(.ctx.) + d*N1+(ctx.)/N1+(.ctx.) * p_(m-1)
    (raw counts at the top level) over a continuation unigram
    N1+(.w)/|T_2|."""
    from collections import Counter
    grams = []
    for doc_id, text in docs:
        toks = _re2_tokens(text)
        grams += [(doc_id, tuple(toks[i:i + n]))
                  for i in range(len(toks) - n + 1)]
    counts = {n: Counter(g for _, g in grams)}
    for m in range(n - 1, 1, -1):
        counts[m] = Counter(g[1:] for g in counts[m + 1])
    cont = Counter(g[-1] for g in counts[2])
    B = len(counts[2])
    ctx_tot, ctx_fan = {}, {}
    for m in range(2, n + 1):
        tot, fan = Counter(), Counter()
        for g, c in counts[m].items():
            fan[g[:-1]] += 1
            if m == n:                    # raw context totals on top
                tot[g[:-1]] += c
        for g in counts.get(m + 1, ()):   # N1+(.ctx.) below
            tot[g[1:-1]] += 1
        ctx_tot[m], ctx_fan[m] = tot, fan
    out = {}
    for doc_id, g in grams:
        p = cont[g[-1]] / B
        for m in range(2, n + 1):
            s = g[-m:]
            den = ctx_tot[m][s[:-1]]
            p = (max(counts[m][s] - d, 0.0) / den
                 + d * ctx_fan[m][s[:-1]] / den * p)
        out.setdefault(doc_id, []).append(-math.log(p))
    return {k: sum(v) / len(v) for k, v in out.items()}


def _rd_from(docs):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
        "text": pa.array([t for _, t in docs])})).repartition(3)


def _score_kn5(ds, **kw):
    import ray
    from nxsearch_ray.stages.lmscore import lm_perplexity_kn
    tbs = [t for t in ray.get(lm_perplexity_kn(ds, order=5, **kw)
                              .to_arrow_refs()) if t.num_columns]
    tb = pa.concat_tables(tbs)
    return dict(zip(tb.column("doc_id").to_pylist(),
                    tb.column("logloss").to_pylist()))


def test_knn_oracle_agrees_with_hand_written_orders():
    """The order-n oracle restates the hand-written bigram, trigram
    and 4-gram references before it stands in for order 5."""
    for n, ref in ((2, _kn_oracle), (3, _kn3_oracle), (4, _kn4_oracle)):
        got, want = _knn_oracle(DOCS5, n), ref(DOCS5)
        assert set(got) == set(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=1e-12), (n, k)


def test_kn5_matches_python_oracle(ray_session):
    got = _score_kn5(_rd_from(DOCS5))
    want = _knn_oracle(DOCS5, 5)
    assert set(got) == set(want) == {0, 2, 5, 6}
    for k in want:
        assert got[k] == pytest.approx(want[k], rel=1e-12), k


def test_kn5_short_docs_omitted(ray_session):
    ds = _rd_from([(0, "only four words here"),
                   (1, "now there are five words")])
    got = _score_kn5(ds)
    assert set(got) == {1}


def test_kn5_cap_backoff(ray_session):
    got = _score_kn5(_rd_from(DOCS5), cap=2)
    full = _score_kn5(_rd_from(DOCS5))
    assert set(got) == set(full)
    for k in got:
        assert got[k] >= full[k] - 1e-12
        assert math.isfinite(got[k])



def test_per_doc_batch_without_grams_is_empty():
    """A batch whose docs have no gram (a wave task can hold only
    one-token docs) scores no doc, rather than failing on the integer
    dtype of an empty weighted bincount."""
    from nxsearch_ray.stages.lmscore import _per_doc

    out = _per_doc(pa.table({"doc_id": [7, 8]}), "doc_id",
                   np.zeros(0, np.int64), np.zeros(0), "n_transitions")
    assert out.num_rows == 0
    assert out.schema.field("logloss").type == pa.float64()
