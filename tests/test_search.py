"""Term search + ranking: fixtures re-expressed from the reference's
own unit tests — scoring goldens from src/tests/t_scoring.c:21-158
(tolerance 1e-4, as helpers.c:215) and boolean doc-sets from
src/tests/t_querylogic.c:16-56."""

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.stages.search import (
    ast_terms,
    parse_query,
    term_search,
)

# The reference's own test harness creates its index in a bare tmpdir
# with no filters/stopwords/en data file (helpers.c get_tmpdir +
# tools/fetch_ext_data.sh is never run), so its stopword filter is a
# no-op there — the t_scoring goldens assume stopword-INCLUSIVE doc
# lengths.  Reproduce that environment: normalizer + stemmer only.
CFG = PipelineConfig(filters=("normalizer", "stemmer"))


def _canonical(docs, ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.canonicalize import canonicalize_stage

    t = pa.table({
        "page_id": pa.array([d[0] for d in docs], type=pa.int64()),
        "text": pa.array([d[1] for d in docs], type=pa.string()),
        "lang": pa.array(["en"] * len(docs), type=pa.string()),
    })
    return canonicalize_stage(rd.from_arrow(t), CFG).materialize()


def _scores(canonical, query, algo):
    t = term_search(canonical, query, CFG, algo=algo)
    return dict(zip(t.column("page_id").to_pylist(),
                    t.column("score").to_pylist()))


def _assert_scores(canonical, query, expected, algo):
    got = _scores(canonical, query, algo)
    assert set(got) == set(expected), (query, algo, got)
    for doc, want in expected.items():
        assert got[doc] == pytest.approx(want, abs=1e-4), \
            (query, algo, doc, got[doc], want)


DOCS_1 = [(1, "The quick brown fox jumped over the lazy dog"),
          (2, "Once upon a time there were three little foxes")]

DOG_TFIDF, FOX_TFIDF = 1.1736, 0.693147
DOG_BM25, FOX_BM25 = 0.253785, 0.066754


def test_scoring_basic_and_idf(ray_session):
    c = _canonical(DOCS_1, ray_session)
    _assert_scores(c, "dog", {1: DOG_TFIDF}, "tfidf")
    _assert_scores(c, "dog", {1: DOG_BM25}, "bm25")
    _assert_scores(c, "fox", {1: FOX_TFIDF, 2: FOX_TFIDF}, "tfidf")
    _assert_scores(c, "fox", {1: FOX_BM25, 2: FOX_BM25}, "bm25")
    # scores of multiple terms are summed (t_scoring test_case_3)
    _assert_scores(c, "fox dog",
                   {1: DOG_TFIDF + FOX_TFIDF, 2: FOX_TFIDF}, "tfidf")
    _assert_scores(c, "fox dog",
                   {1: DOG_BM25 + FOX_BM25, 2: FOX_BM25}, "bm25")


def test_scoring_tf(ray_session):
    c = _canonical([(1, "cat dog rat"), (2, "cat cat dog")],
                   ray_session)
    _assert_scores(c, "cat", {1: 0.693147, 2: 1.098612}, "tfidf")
    _assert_scores(c, "cat", {1: 0.066754, 2: 0.087140}, "bm25")


def test_scoring_term_variety(ray_session):
    c = _canonical([(1, "cat cat dog dog"), (2, "dog dog cat cat"),
                    (3, "cat dog rat cow"), (4, "cat dog rat bat")],
                   ray_session)
    _assert_scores(c, "cat dog rat cow",
                   {1: 2.197225, 2: 2.197225, 3: 4.213948,
                    4: 2.559895}, "tfidf")
    _assert_scores(c, "cat dog rat cow",
                   {1: 0.100713, 2: 0.100713, 3: 0.771754,
                    4: 0.330938}, "bm25")


def test_scoring_tf_saturation(ray_session):
    c = _canonical(
        [(1, " ".join(["aa"] * 20)),
         (2, " ".join(["aa"] * 10 + ["bb"] * 10)),
         (3, " ".join(["aa"] + ["bb"] * 19))], ray_session)
    _assert_scores(c, "aa", {1: 3.044523, 2: 2.397895, 3: 0.693147},
                   "tfidf")
    _assert_scores(c, "aa", {1: 0.095780, 2: 0.088995, 3: 0.048890},
                   "bm25")


def test_scoring_doc_length(ray_session):
    c = _canonical(
        [(1, "This is a very long document about the cats "
             "All kind of cats including the tabby and other cats"),
         (2, "cats cats cats"),
         (3, "cats cats dogs")], ray_session)
    _assert_scores(c, "cats", {1: 1.386294, 2: 1.386294, 3: 1.098612},
                   "tfidf")
    _assert_scores(c, "cats", {1: 0.048411, 2: 0.091469, 3: 0.084499},
                   "bm25")


# ------------------------------------------------------- boolean logic

QL_DOCS = [
    (1, "Textbook about Erlang in Linux environment"),
    (2, "Unix Shell scripting textbook"),
    (3, "Erlang and Python examples"),
    (4, "Textbook about Python using Linux and Windows"),
    (5, "All but NOT: Textbook Erlang Python Shell Linux Unix Java"),
    (6, "All keywords: Textbook Erlang Python Shell Linux Unix"),
]


def _doc_set(canonical, query):
    return set(_scores(canonical, query, "bm25"))


def test_querylogic_doc_sets(ray_session):
    c = _canonical(QL_DOCS, ray_session)
    assert _doc_set(c, "non-existant-term") == set()
    assert _doc_set(c, "unix") == {2, 5, 6}
    assert _doc_set(
        c, "textbook AND (Erlang OR Python OR Shell) AND "
           "(Linux OR Unix) AND NOT (Windows OR Java)") == {1, 2, 6}


def test_parser_shapes():
    assert parse_query("a b") == ("or", ("term", "a"), ("term", "b"))
    assert parse_query("a AND b OR c") == \
        ("or", ("and", ("term", "a"), ("term", "b")), ("term", "c"))
    assert parse_query("a & b | c") == \
        ("or", ("and", ("term", "a"), ("term", "b")), ("term", "c"))
    assert parse_query("a AND NOT b") == \
        ("andnot", ("term", "a"), ("term", "b"))
    assert parse_query('"quoted term" x')[0] == "or"
    assert ast_terms(parse_query("a AND (b OR a)")) == ["a", "b"]


def test_limit_and_order(ray_session):
    docs = [(i, "zebra " * (i + 1)) for i in range(10)]
    c = _canonical(docs, ray_session)
    t = term_search(c, "zebra", CFG, algo="bm25", limit=3)
    assert t.num_rows == 3
    s = t.column("score").to_numpy()
    assert np.all(np.diff(s) <= 1e-12)


def test_response_json_format():
    """nxs_resp_tojson wire format (results.c:21-42): results array of
    {doc_id, score} plus count, input order preserved."""
    import json

    import pyarrow as pa

    from nxsearch_ray.stages.search import response_json

    t = pa.table({"doc_id": pa.array([3, 1], pa.int64()),
                  "score": pa.array([0.0668, 0.0610], pa.float64())})
    out = json.loads(response_json(t))
    assert out["count"] == 2
    assert out["results"] == [{"doc_id": 3, "score": 0.0668},
                              {"doc_id": 1, "score": 0.061}]
    empty = json.loads(response_json(t.slice(0, 0)))
    assert empty == {"results": [], "count": 0}


def test_fuzzy_resolver_cache_is_bounded_lru(ray_session):
    """Driver-side BK-tree resolvers: at most the service's CACHE_SLOTS
    vocabularies stay cached, and alternating two vocabularies reuses
    both trees."""
    import ray

    from nxsearch_ray.stages import search
    from nxsearch_ray.svc import IndexStore

    search._FUZZY_RESOLVERS.clear()
    refs = [ray.put({"terms": ["alpha", f"term{i}"],
                     "totals": np.array([1, i], dtype=np.int64)})
            for i in range(IndexStore.CACHE_SLOTS + 2)]
    for r in refs:
        search._fuzzy_resolver(r)
    assert len(search._FUZZY_RESOLVERS) <= IndexStore.CACHE_SLOTS
    a, b = search._fuzzy_resolver(refs[0]), search._fuzzy_resolver(refs[1])
    for _ in range(3):
        assert search._fuzzy_resolver(refs[0]) is a
        assert search._fuzzy_resolver(refs[1]) is b
    assert search._fuzzy_resolver(refs[-1]).terms == ["alpha", "term17"]
