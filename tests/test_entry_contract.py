"""Driver-contract checks for __ray_entry__.

The driver calls ray.init() itself, imports this module and runs
entry()/queries()/oracle_sql(); the correctness gate compares each
queries() result against its oracle_sql() by sorted-column value
hash.  These tests pin the contract shape so a refactor can't break
the graded surface silently.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import __ray_entry__ as entry_mod  # noqa: E402


def test_oracle_keys_subset_of_queries():
    q = entry_mod.queries()
    o = entry_mod.oracle_sql()
    missing = set(o) - set(q)
    assert not missing, f"oracle_sql keys without queries(): {missing}"
    # every callable takes one positional sf_dir argument
    for name, fn in q.items():
        assert callable(fn), name


def test_expected_query_inventory():
    """The graded operator inventory — adding is fine, silently losing
    an entry is not."""
    q = set(entry_mod.queries())
    # signatures/canonicalize/dedup_clusters were consolidated in r5
    # (duplicates of their _plain twins / verify+sizes pair — round-4
    # verdict task 2); their machinery is still covered by the
    # remaining entries and entry().
    expected = {
        "pages_build", "extract_text", "exact_dedup",
        "lang_counts", "dedup_pairs",
        "cluster_sizes", "embedding_dups", "bucket_census",
        "dedup_exact_verify", "signatures_plain", "canonicalize_plain",
        "pii_scrub", "gopher_quality", "url_blocklist", "web_clean",
        "semantic_dedup", "semantic_dedup_clustered",
        "semdedup_clustered_verify",
        *(f"{name}_{variant}"
          for variant in ("scale", "incremental", "removed", "onefile",
                          "resumed", "readded")
          for name in ("dedup_pairs", "dedup_exact_verify",
                       "cluster_sizes")),
        *(f"{name}_{variant}"
          for variant in ("hotingest", "hotremoved")
          for name in ("dedup_exact_verify", "cluster_sizes",
                       "cluster_matches_full")),
        *(f"{name}_cli" for name in ("dedup_pairs", "dedup_exact_verify",
                                     "cluster_sizes",
                                     "cluster_matches_full")),
        "corpus_decisions", "corpus_exact_groups", "corpus_neardup_valid",
        "corpus_semantic_valid", "corpus_planted_copies",
    }
    missing = expected - q
    assert not missing, f"queries() lost entries: {missing}"
    # the graded 50 are these, and only the rows-only tail lies past it
    assert set(list(entry_mod.queries())[:50]) \
        == expected - {"semantic_dedup_clustered"}


def test_sql_twinned_queries_precede_no_oracle():
    """The driver grades only the first 50 queries() entries; a
    hash-graded (SQL-twinned) query displaced past the cap by a
    rows-only entry silently loses its correctness gate (round-4
    verdict task 2).  Enforce: every entry in the graded head is
    oracled, and the oracled block is contiguous at the front —
    oracled entries BEYOND the cap are allowed by design (they keep
    their twin and are graded by tools/compare_oracle.py instead;
    registering them later would displace a previously-green query)."""
    names = list(entry_mod.queries())
    oracled = set(entry_mod.oracle_sql())
    head = names[:min(50, len(names))]
    assert set(head) <= oracled, (
        f"non-oracled entries inside the graded head: "
        f"{set(head) - oracled}")
    seen_rows_only = False
    for n in names:
        if n in oracled:
            assert not seen_rows_only, (
                f"oracled query {n!r} registered after a rows-only "
                "entry")
        else:
            seen_rows_only = True


def test_every_oracled_query_is_graded():
    """Every SQL-twinned query sits inside the driver's 50-entry graded
    window: a twin past the cap is never checked by the driver."""
    head = set(list(entry_mod.queries())[:50])
    beyond = set(entry_mod.oracle_sql()) - head
    assert not beyond, f"oracled queries past the graded 50: {beyond}"


def test_no_unused_ray_imports():
    """No function of the entry module imports ``ray`` (or a
    submodule, which binds the name ``ray``) without using it."""
    import ast

    tree = ast.parse(Path(entry_mod.__file__).read_text())
    unused = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        imports = any(
            isinstance(n, ast.Import) and any(
                a.asname is None and a.name.split(".")[0] == "ray"
                for a in n.names)
            for n in ast.walk(fn))
        used = any(isinstance(n, ast.Name) and n.id == "ray"
                   for n in ast.walk(fn))
        if imports and not used:
            unused.append(fn.name)
    assert not unused, f"functions importing ray unused: {unused}"


def test_entry_smoke(ray_session):
    """entry() must run on an externally-initialised Ray session and
    yield >= 0 rows with a stable schema (the driver's smoke check)."""
    out = entry_mod.entry()
    if hasattr(out, "schema"):          # ray.data.Dataset
        n = out.count()
        assert out.schema() is not None
    else:                               # pandas.DataFrame
        n = len(out)
    assert n >= 0


def test_dedup_exact_verify_invariants(ray_session):
    """The flagship-output oracles on the auto run (sf0.001): every
    planted copy/tail pair is a verified pair, every planted variant
    group lands in ONE cluster at least as large as the group, and
    every md5-identical page group is co-clustered under its component
    minimum."""
    _assert_dedup_invariants("/root/testdata/sf0.001", "auto")


def test_dedup_variants_reach_their_plans(ray_session):
    """Each graded dedup variant runs the path it grades — so an
    ``auto`` fallback cannot silently grade the broadcast plan — and
    its graded invariants hold on its result (sf0.001)."""
    import pyarrow.parquet as pq

    sf = "/root/testdata/sf0.001"
    plain = ("scale", "incremental", "removed", "onefile", "resumed",
             "readded", "cli")
    hot = ("hotingest", "hotremoved")
    stats = {v: entry_mod._dedup(sf, v).stats for v in plain + hot}
    assert stats["scale"]["verify_plan"] == "bucketed"
    assert stats["scale"]["cc_plan"] == "labelprop"
    for ingest, removal in (("incremental", "removed"),
                            ("hotingest", "hotremoved")):
        assert stats[ingest]["incremental_new_pages"] > 0
        assert stats[removal]["removed_found"] > 0
    assert _hot_crossings(sf) > 0
    # one file of >= 8 row groups, read as the run's only input; the
    # CLI's has the paper's schema, and its run's ids are url md5s
    for v in ("onefile", "cli"):
        files = list(Path(entry_mod._DEDUP_CACHE[(sf, v)][1].name)
                     .iterdir())
        assert len(files) == 1
        f = pq.ParquetFile(files[0])
        assert f.metadata.num_row_groups >= 8
        assert ("page_id" in f.schema_arrow.names) == (v == "onefile")
    cli_ids = _as_table(entry_mod.q_cluster_matches_full(sf, "cli")) \
        .column("page_id").to_numpy()
    assert cli_ids.max() >= 1 << 32
    # signatures resumes; the stages whose manifests were lost rerun
    resumed = {r["stage"]: r["resumed"]
               for r in stats["resumed"]["stages"]}
    assert resumed["signatures"] is True
    assert resumed["verified_pairs"] is False
    assert resumed["clusters"] is False
    # the re-ingest adds back exactly the pages the removal took out
    assert stats["readded"]["removed_found"] \
        == stats["readded"]["incremental_new_pages"] > 0
    for v in plain:
        _assert_dedup_invariants(sf, v)
    for v in hot:
        _assert_group_checks(sf, v)
    for v in hot + ("cli",):
        _assert_matches_full(sf, v)


def test_pair_probe_takes_whole_ids():
    """The planted-pair probe of ``dedup_pairs`` compares whole ids: a
    verified pair ``(1, 2^32 + 100)`` does not find ``(2, 100)``, which
    a key packed as ``a·2^32 + b`` would alias; order within a pair
    does not matter."""
    import numpy as np
    import pyarrow as pa

    big = (1 << 32) + 100
    keys = entry_mod._pair_keys(pa.table({"a": [1, 5], "b": [big, 3]}))
    found = entry_mod._pairs_found(keys, np.array([2, 1, 3, 1]),
                                   np.array([100, big, 5, 100]))
    assert found.tolist() == [False, True, True, False]


def _hot_crossings(sf: str) -> int:
    """The candidate buckets the hot ingest pushes past
    ``hot_bucket_cap``: more than the cap distinct members over every
    page, at most the cap over the even pages its first run took (an
    anchor bucket past ``anchor_bucket_max`` emits nothing and does not
    count)."""
    import pyarrow as pa

    from nxsearch_ray.oracle import candidate_buckets, oracle_signatures
    from nxsearch_ray.sources.pages import pages_table

    cfg = entry_mod._HOT_CFG
    _, sigs = oracle_signatures(pages_table(sf), cfg)
    even = sigs.filter(pa.array(sigs.column("page_id").to_numpy() % 2 == 0))
    half = candidate_buckets(even, cfg)
    return sum(
        1 for src, buckets in candidate_buckets(sigs, cfg).items()
        for key, members in buckets.items()
        if cfg.hot_bucket_cap < len(set(members))
        and (src != "suffix" or len(set(members)) <= cfg.anchor_bucket_max)
        and len(set(half[src].get(key, ()))) <= cfg.hot_bucket_cap)


def _assert_matches_full(sf: str, variant: str):
    """Every graded page's cluster equals a full recompute's."""
    full = _as_table(entry_mod.q_cluster_matches_full(sf, variant))
    assert full.num_rows == _as_table(
        entry_mod._graded_pages(sf, variant)).num_rows, variant
    assert set(full.column("matches_full").to_pylist()) == {True}, variant


def _as_table(x):
    import pyarrow as pa

    if isinstance(x, pa.Table):
        return x
    return pa.concat_tables(
        b for b in x.iter_batches(batch_format="pyarrow",
                                  batch_size=1 << 20))


def _assert_dedup_invariants(sf: str, variant: str):
    """The three dedup invariants on one variant's run: every planted
    copy/tail pair is a verified pair, and both group checks hold."""
    pairs = _as_table(entry_mod.q_dedup_pairs(sf, variant))
    assert pairs.num_rows > 0, variant
    assert set(pairs.column("found").to_pylist()) == {True}, variant
    assert set(pairs.column("variant").to_pylist()) == {"copy", "tail"}, \
        variant
    _assert_group_checks(sf, variant)


def _assert_group_checks(sf: str, variant: str):
    """Both group checks (planted variant groups, md5-identical page
    groups) find each group in ONE cluster that passes the check's
    flag."""
    for fn, flag in ((entry_mod.q_cluster_sizes, "cluster_size_ok"),
                     (entry_mod.q_dedup_exact_verify,
                      "cluster_is_component_min")):
        groups = _as_table(fn(sf, variant))
        assert groups.num_rows > 0, (variant, flag)
        assert set(groups.column("n_clusters").to_pylist()) == {1}, \
            (variant, flag)
        assert set(groups.column(flag).to_pylist()) == {True}, \
            (variant, flag)


# ------------------------------------------------- the corpus job

_CORPUS_SF = "/root/testdata/sf0.001"
_CORPUS_QUERIES = ("corpus_decisions", "corpus_exact_groups",
                   "corpus_neardup_valid", "corpus_semantic_valid",
                   "corpus_planted_copies")


def _rows(x) -> list[tuple]:
    """The sorted rows of a query result, columns in name order."""
    t = _as_table(x)
    names = sorted(t.column_names)
    return sorted(zip(*(t.column(n).to_pylist() for n in names)))


@pytest.fixture(scope="module")
def corpus_twins() -> dict[str, list[tuple]]:
    """The five corpus twins' rows, run by DuckDB over the same
    parquet tables."""
    import duckdb

    con = duckdb.connect()
    for t in ("documents", "embeddings"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{_CORPUS_SF}/{t}.parquet')")
    oracles = entry_mod.oracle_sql()
    return {n: _rows(con.execute(oracles[n]).arrow())
            for n in _CORPUS_QUERIES}


def test_corpus_queries_match_twins(ray_session, corpus_twins):
    """The five corpus queries equal their twins, and the run drops
    pages at both dedup tiers, so every invariant has rows to judge."""
    from nxsearch_ray.pipelines.corpus import decisions_as_table

    queries = entry_mod.queries()
    for name in _CORPUS_QUERIES:
        assert _rows(queries[name](_CORPUS_SF)) == corpus_twins[name], \
            name
    tiers = decisions_as_table(entry_mod._corpus(_CORPUS_SF)) \
        .column("drop_tier").to_pylist()
    assert {0, 2, 3} <= set(tiers)


def _set_row(dec, page_id: int, tier: int, dup_of: int):
    """``dec`` with ``page_id``'s decision replaced."""
    import pyarrow as pa

    ids = dec.column("page_id").to_pylist()
    i = ids.index(page_id)
    tiers = dec.column("drop_tier").to_pylist()
    dups = dec.column("dup_of").to_pylist()
    tiers[i], dups[i] = tier, dup_of
    return pa.table({"page_id": ids, "drop_tier": pa.array(tiers, pa.int8()),
                     "dup_of": dups}, schema=dec.schema)


def _copies(dec) -> list[int]:
    """The planted copies whose original has a decision row."""
    ids = set(dec.column("page_id").to_pylist())
    return sorted(p for p in ids if p % 4 == 1 and p - 1 in ids)


def _low_cosine_dup(dec) -> tuple[int, int]:
    """A semantic drop and a smaller near-dup survivor whose page
    vectors (their documents' embeddings) are below eps apart."""
    import numpy as np
    import pyarrow.parquet as pq

    emb = pq.read_table(f"{_CORPUS_SF}/embeddings.parquet")
    vec = dict(zip(emb.column("vec_id").to_pylist(),
                   (np.asarray(v) / np.linalg.norm(v)
                    for v in emb.column("embedding").to_pylist())))
    rows = dec.to_pylist()
    kept = sorted(r["page_id"] for r in rows if r["drop_tier"] == 0)
    for r in rows:
        if r["drop_tier"] != 3:
            continue
        p = r["page_id"]
        for q in kept:
            if q < p and vec[p >> 2] @ vec[q >> 2] < \
                    entry_mod._SEMDEDUP_EPS - 0.05:
                return p, q
    raise AssertionError("no low-cosine candidate")


def _mutant(dec, kind: str):
    """One corrupted decision table per corpus invariant."""
    import pyarrow as pa

    if kind == "duplicate_row":
        return pa.concat_tables([dec, dec.slice(0, 1)])
    if kind == "keep_second_copy":
        return _set_row(dec, _copies(dec)[0], 0, -1)
    if kind == "dup_of_dropped":
        near = sorted(r["page_id"] for r in dec.to_pylist()
                      if r["drop_tier"] == 2)
        return _set_row(dec, near[1], 2, near[0])
    if kind == "low_cosine_dup_of":
        p, q = _low_cosine_dup(dec)
        return _set_row(dec, p, 3, q)
    assert kind == "undrop_copy"
    return _set_row(dec, _copies(dec)[-1], 0, -1)


@pytest.mark.parametrize("kind,query", [
    ("duplicate_row", "corpus_decisions"),
    ("keep_second_copy", "corpus_exact_groups"),
    ("dup_of_dropped", "corpus_neardup_valid"),
    ("low_cosine_dup_of", "corpus_semantic_valid"),
    ("undrop_copy", "corpus_planted_copies"),
])
def test_corpus_invariant_catches_mutant(ray_session, corpus_twins,
                                         monkeypatch, kind, query):
    """Each corpus invariant stops matching its twin once the decision
    table carries the fault it guards against."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (CorpusResult,
                                               decisions_as_table)

    dec = decisions_as_table(entry_mod._corpus(_CORPUS_SF))
    monkeypatch.setitem(
        entry_mod._CORPUS_CACHE, _CORPUS_SF,
        CorpusResult(decisions=rd.from_arrow(_mutant(dec, kind)),
                     clusters=None))
    got = _rows(entry_mod.queries()[query](_CORPUS_SF))
    assert got != corpus_twins[query], kind
