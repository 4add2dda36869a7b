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
        "pages_build", "extract_text", "exact_dedup", "doc_stats",
        "lang_counts", "ngram_jaccard", "fingerprint", "ann_topk",
        "ann_topk_lsh", "ann_topk_ivf", "dedup_pairs",
        "cluster_sizes", "langid",
        "embedding_dups", "embedding_dups_lsh",
        "query_probe", "bucket_census",
        "dedup_exact_verify", "signatures_plain", "canonicalize_plain",
        "ann_lsh_recall", "ann_ivf_recall", "ann_recall_report",
        "pii_scrub", "decontaminate", "gopher_quality", "url_blocklist",
        "web_clean", "url_seen_guard", "url_cardinality",
        "lm_perplexity", "lm_perplexity_ngram", "lm_perplexity_trigram",
        "lm_perplexity_quadgram", "lm_perplexity_kn5", "semantic_dedup",
        "semdedup_clustered_verify", "dedup_cascade",
        "dedup_pairs_scale", "dedup_exact_verify_scale",
        "cluster_sizes_scale", "dedup_pairs_incremental",
        "dedup_exact_verify_incremental", "cluster_sizes_incremental",
        "dedup_pairs_removed", "dedup_exact_verify_removed",
        "cluster_sizes_removed",
    }
    missing = expected - q
    assert not missing, f"queries() lost entries: {missing}"


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
    """The flagship-output oracle: every md5-identical page group is
    co-clustered and cluster ids are component minima (sf0.001)."""
    _assert_dedup_invariants("/root/testdata/sf0.001", "auto")


def test_ann_exhaustive_probe_losslessness(ray_session):
    """Exhaustive-probe LSH (nbits=1) and IVF (nprobe=nlist) must
    reproduce exact brute-force top-k — recall 1.0 per query."""
    for fn in (entry_mod.q_ann_lsh_recall, entry_mod.q_ann_ivf_recall):
        t = fn("/root/testdata/sf0.001")
        assert t.column("n_common").to_pylist() \
            == t.column("k").to_pylist()


def test_dedup_planted_pair_recall_invariants(ray_session):
    """Round-4 oracles: every planted copy/tail pair is a verified
    pair (`found` all-True) and every planted variant group lands in
    ONE cluster at least as large as the group (sf0.001)."""
    _assert_dedup_invariants("/root/testdata/sf0.001", "auto")


def test_dedup_variants_reach_their_plans(ray_session):
    """Each graded dedup variant runs the path it grades — so an
    ``auto`` fallback cannot silently grade the broadcast plan — and
    all three dedup invariants hold on its result (sf0.001)."""
    sf = "/root/testdata/sf0.001"
    variants = ("scale", "incremental", "removed")
    stats = {v: entry_mod._dedup(sf, v).stats for v in variants}
    assert stats["scale"]["verify_plan"] == "bucketed"
    assert stats["scale"]["cc_plan"] == "labelprop"
    assert stats["incremental"]["incremental_new_pages"] > 0
    assert stats["removed"]["removed_found"] > 0
    for v in variants:
        _assert_dedup_invariants(sf, v)


def _as_table(x):
    import pyarrow as pa

    if isinstance(x, pa.Table):
        return x
    return pa.concat_tables(
        b for b in x.iter_batches(batch_format="pyarrow",
                                  batch_size=1 << 20))


def _assert_dedup_invariants(sf: str, variant: str):
    """The three dedup invariants on one variant's run: every planted
    copy/tail pair is a verified pair, and both group checks (planted
    variant groups, md5-identical page groups) find each group in ONE
    cluster that passes the check's flag."""
    pairs = _as_table(entry_mod.q_dedup_pairs(sf, variant))
    assert pairs.num_rows > 0, variant
    assert set(pairs.column("found").to_pylist()) == {True}, variant
    assert set(pairs.column("variant").to_pylist()) == {"copy", "tail"}, \
        variant
    for fn, flag in ((entry_mod.q_cluster_sizes, "cluster_size_ok"),
                     (entry_mod.q_dedup_exact_verify,
                      "cluster_is_component_min")):
        groups = _as_table(fn(sf, variant))
        assert groups.num_rows > 0, (variant, flag)
        assert set(groups.column("n_clusters").to_pylist()) == {1}, \
            (variant, flag)
        assert set(groups.column(flag).to_pylist()) == {True}, \
            (variant, flag)
