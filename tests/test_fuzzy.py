"""Fuzzy term lookup: BK-tree correctness and the reference's pick
rules (idxterm_fuzzysearch, src/index/idxterm.c:210-249 — tolerance 2,
most frequent candidate; exact match resolves without fuzzing)."""

import pyarrow as pa

from nxsearch_ray.functions.bktree import BKTree
from nxsearch_ray.functions.levdist import levenshtein
from nxsearch_ray.stages.fuzzy import pick_candidate

VOCAB = ["linux", "linus", "line", "lines", "unix", "lining",
         "python", "pythons", "textbook", "shell", "windows"]


def test_bktree_matches_bruteforce():
    tree = BKTree(sorted(VOCAB))
    for probe in ("linix", "pyton", "shel", "windo", "zzz",
                  "linux", "lin", "textbok"):
        for tol in (0, 1, 2, 3):
            got = {t for t, _ in tree.search(probe, tol)}
            want = {v for v in VOCAB
                    if levenshtein(probe, v) <= tol}
            assert got == want, (probe, tol, got, want)
    # reported distances are the true distances
    for t, d in BKTree(sorted(VOCAB)).search("linix", 2):
        assert d == levenshtein("linix", t)


def test_pick_rules():
    totals = {"linux": 50, "linus": 80, "line": 10, "lines": 80}
    tf = lambda t: totals[t]
    # most frequent candidate wins
    assert pick_candidate([("linux", 1), ("linus", 1), ("line", 2)],
                          tf) == "linus"
    # tie on total -> smallest term
    assert pick_candidate([("linus", 1), ("lines", 2)], tf) == "lines"
    # exact hit short-circuits even against a more frequent candidate
    assert pick_candidate([("linus", 1), ("linux", 0)], tf) == "linux"
    assert pick_candidate([], tf) is None


def _tiny_canonical(ray_session):
    import ray.data as rd

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.stages.canonicalize import canonicalize_stage

    cfg = PipelineConfig(filters=("normalizer",))
    docs = [
        (1, "linux linux linux shell"),
        (2, "unix shell scripting"),
        (3, "python on linux"),
    ]
    t = pa.table({
        "page_id": pa.array([d[0] for d in docs], type=pa.int64()),
        "text": pa.array([d[1] for d in docs], type=pa.string()),
        "lang": pa.array(["en"] * len(docs), type=pa.string()),
    })
    canonical = canonicalize_stage(rd.from_arrow(t), cfg,
                                   include_tokens=True).materialize()
    return canonical, cfg


def test_vocabulary_and_bulk_lookup(ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.fuzzy import (
        build_vocab_index_ref,
        fuzzy_lookup,
        vocabulary,
    )

    canonical, _cfg = _tiny_canonical(ray_session)
    vocab = vocabulary(canonical)
    rows = {r["term"]: r["total"] for r in vocab.take_all()}
    assert rows["linux"] == 4 and rows["shell"] == 2

    vref = build_vocab_index_ref(vocab)
    probes = rd.from_arrow(pa.table(
        {"word": ["linix", "shel", "pithon", "zzzzzz"]}))
    out = {r["word"]: (r["matched_term"], r["distance"])
           for r in fuzzy_lookup(probes, vref).take_all()}
    assert out["linix"] == ("linux", 1)
    assert out["shel"] == ("shell", 1)
    assert out["pithon"] == ("python", 1)
    assert out["zzzzzz"][0] is None


def test_term_search_fuzzymatch(ray_session):
    from nxsearch_ray.stages.fuzzy import (
        build_vocab_index_ref,
        vocabulary,
    )
    from nxsearch_ray.stages.search import term_search

    canonical, cfg = _tiny_canonical(ray_session)
    vref = build_vocab_index_ref(vocabulary(canonical))
    # misspelled query resolves to 'linux' docs
    t = term_search(canonical, "linix", cfg, fuzzy_vocab_ref=vref)
    assert set(t.column("page_id").to_pylist()) == {1, 3}
    # without fuzzymatch the same query finds nothing
    t2 = term_search(canonical, "linix", cfg)
    assert t2.num_rows == 0
