"""End-to-end pipeline gates (SURVEY.md §5):

  * distributed pipeline == pure-python oracle, exactly
  * dup-pair recall ≥ 0.99 vs planted truth
  * parallelism invariance (different block counts → identical output)
  * checkpoint-resume → identical output, stages skipped
  * physical-plan equivalence (bucketed verify / labelprop CC)
"""

from __future__ import annotations

import shutil

import pyarrow as pa
import pytest

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.oracle import oracle_clusters
from nxsearch_ray.pipelines.dedup import clusters_as_table, run_dedup
from nxsearch_ray.sources.synth import synth_pages, truth_pairs
from nxsearch_ray.state.lineage import read_manifest

N_BASE = 600
SEED = 21
# run_dedup's stage records, in the order they are appended
STAGES = ("signatures", "pairs", "verify", "verified_pairs", "clusters")
RECORD_FIELDS = {"stage", "wall_s", "rows", "bytes", "resumed"}


@pytest.fixture(scope="module")
def corpus():
    return synth_pages(N_BASE, seed=SEED)


@pytest.fixture(scope="module")
def oracle(corpus):
    return oracle_clusters(corpus, PipelineConfig())


@pytest.fixture(scope="module")
def corpus_dir(corpus, tmp_path_factory):
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("synth")
    n = corpus.num_rows
    per = (n + 7) // 8
    for i in range(0, n, per):
        pq.write_table(corpus.slice(i, per), d / f"part-{i:06d}.parquet")
    return str(d)


def _pages_ds(corpus_dir):
    import ray.data as rd

    return rd.read_parquet(
        corpus_dir, columns=["page_id", "url", "warc_ts", "html", "lang"])


def _pages_of(rows):
    """A pages Dataset of ``(page_id, url, text)`` rows, each text
    wrapped in a minimal html page."""
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "page_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "url": pa.array([r[1] for r in rows]),
        "warc_ts": pa.array([0] * len(rows), type=pa.timestamp("us")),
        "html": pa.array([f"<html><head><title>x</title></head>"
                          f"<body><p>{r[2]}</p></body></html>".encode()
                          for r in rows], type=pa.binary()),
        "lang": pa.array(["en"] * len(rows))}))


def _cluster_dict(res) -> dict[int, int]:
    t = clusters_as_table(res)
    return dict(zip(t.column("page_id").to_pylist(),
                    t.column("cluster_id").to_pylist()))


def _resumed(res) -> dict[str, bool]:
    """Stage name → its record's ``resumed`` flag, for the stages the
    run recorded (state.lineage.stage)."""
    return {r["stage"]: r["resumed"] for r in res.stats["stages"]}


def _signature_records(res) -> list[tuple[bool, int]]:
    """``(resumed, rows)`` of each ``signatures`` record of the run."""
    return [(r["resumed"], r["rows"]) for r in res.stats["stages"]
            if r["stage"] == "signatures"]


def _pair_set(res) -> set[tuple[int, int]]:
    batches = list(res.verified_pairs.iter_batches(
        batch_size=100000, batch_format="pyarrow"))
    if not batches:
        return set()
    t = pa.concat_tables(batches)
    return set(zip(t.column("a").to_pylist(), t.column("b").to_pylist()))


def test_pipeline_matches_oracle_exactly(ray_session, corpus_dir, oracle):
    labels, opairs = oracle
    res = run_dedup(_pages_ds(corpus_dir), PipelineConfig())
    assert _cluster_dict(res) == labels
    assert _pair_set(res) == opairs


def test_recall_gate(oracle, corpus):
    labels, _ = oracle
    truth = truth_pairs(corpus)
    hit = sum(1 for (a, b) in truth
              if labels.get(a) is not None
              and labels.get(a) == labels.get(b))
    assert hit / len(truth) >= 0.99, f"recall {hit}/{len(truth)}"


def test_parallelism_invariance(ray_session, corpus_dir, oracle):
    labels, _ = oracle
    ds = _pages_ds(corpus_dir).repartition(17)
    res = run_dedup(ds, PipelineConfig())
    assert _cluster_dict(res) == labels


def test_physical_plan_equivalence(ray_session, corpus_dir, oracle):
    labels, opairs = oracle
    res = run_dedup(_pages_ds(corpus_dir), PipelineConfig(),
                    verify_mode="bucketed", cc_mode="labelprop")
    assert _cluster_dict(res) == labels
    assert _pair_set(res) == opairs


def test_tiny_doc_tail_containment(ray_session):
    """A 5-word tail of a 10-word doc has exactly ONE 5-shingle, so it
    can share at most one anchor bucket — the suffix co-occurrence
    threshold must cap at the achievable-hit bound (min of the sides'
    anchor counts) or the pair is structurally unreachable (regression:
    planted tail of doc 275 at sf0.01 was missed under a flat
    min_anchor_hits=2)."""
    text = "alpha row beta window merge hash window group order join"
    tail = " ".join(text.split()[5:])
    # decoy singletons so the corpus isn't degenerate
    decoys = [f"decoy{u} " * 12 for u in range(6)]
    rows = [(0, "https://a.example.org/0", text),
            (2, "https://a.example.org/0/tail", tail)] + [
        (10 + 4 * u, f"https://d.example.org/{u}", d)
        for u, d in enumerate(decoys)]
    res = run_dedup(_pages_of(rows), PipelineConfig())
    assert (0, 2) in _pair_set(res)
    labels = _cluster_dict(res)
    assert labels[0] == labels[2]


@pytest.mark.parametrize("anchor_bucket_max", [0, 1, 4])
def test_anchor_bucket_max_matches_oracle(ray_session, anchor_bucket_max):
    """``anchor_bucket_max`` bounds every anchor bucket, two-page ones
    too: at 0 or 1 no anchor bucket emits a pair.  Regression: the
    bucket scan once emitted every two-row bucket's pair, so at 0 or 1
    the run verified 73 pairs on these pages and the oracle 70."""
    import ray.data as rd

    cols = ["page_id", "url", "warc_ts", "html", "lang"]
    corpus = synth_pages(300, seed=7)
    cfg = PipelineConfig(anchor_bucket_max=anchor_bucket_max)
    res = run_dedup(rd.from_arrow(corpus.select(cols)), cfg)
    labels, opairs = oracle_clusters(corpus, cfg)
    assert _pair_set(res) == opairs
    assert _cluster_dict(res) == labels


def test_hot_bucket_chain_is_the_only_link(ray_session):
    """Six byte-identical pages among unrelated ones at
    ``hot_bucket_cap`` 3: every bucket the six share has more than 3
    members, so the spanning chain over their sorted ids is their only
    link.  They form one cluster, as in the oracle, and
    ``verified_pairs`` holds exactly the chain's 5 consecutive-id
    pairs."""
    import numpy as np
    import ray.data as rd

    rng = np.random.default_rng(11)

    def text():
        return " ".join(f"w{v}" for v in rng.integers(0, 10**6, 60))

    dup, dup_ids, n = text(), [3, 7, 8, 20, 31, 40], 44
    pages = pa.table({
        "page_id": pa.array(range(n), pa.int64()),
        "url": [f"https://h.example.org/{i}" for i in range(n)],
        "text": [dup if i in dup_ids else text() for i in range(n)],
        "lang": ["en"] * n})
    cfg = PipelineConfig(hot_bucket_cap=3)
    res = run_dedup(rd.from_arrow(pages), cfg)
    labels, opairs = oracle_clusters(pages, cfg)
    chain = set(zip(dup_ids, dup_ids[1:]))
    assert _cluster_dict(res) == labels == {i: dup_ids[0] for i in dup_ids}
    assert _pair_set(res) == opairs == chain


def test_bucketed_plan_with_nothing_to_adjudicate(ray_session):
    """Exact copies of random pages and nothing borderline: no pair
    needs exact adjudication, so the bucketed suffix gather semi-joins
    on an empty key set.  Its clusters must equal the auto plan's."""
    import numpy as np

    rng = np.random.default_rng(5)
    texts = [" ".join(f"w{v}" for v in rng.integers(0, 10**6, 40))
             for _ in range(6)]
    rows = [(4 * u, f"https://e.example.org/{u}", x)
            for u, x in enumerate(texts)] + [
        (4 * u + 1, f"https://e.example.org/{u}/copy", texts[u])
        for u in (0, 3)]
    auto = _cluster_dict(run_dedup(_pages_of(rows), PipelineConfig()))
    assert auto[0] == auto[1] and auto[12] == auto[13]
    bucketed = run_dedup(_pages_of(rows), PipelineConfig(),
                         verify_mode="bucketed")
    assert bucketed.stats["verify_plan"] == "bucketed"
    assert _cluster_dict(bucketed) == auto


@pytest.mark.parametrize("plans", [
    {},
    {"verify_mode": "bucketed", "cc_mode": "labelprop"},
])
def test_empty_stages_keep_their_schema(ray_session, tmp_path, plans):
    """Random pages with no candidate pair, and the same pages plus
    exact copies (nothing for the exact tier): ``verified_pairs`` is
    (a, b, source) in every block and ``clusters`` is CLUSTER_SCHEMA,
    pinned and checkpointed.  A read of zero-row page files writes one
    empty part of each checkpointed stage's declared schema, and a
    rerun resumes all three."""
    import glob

    import numpy as np
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from nxsearch_ray.stages.cc import CLUSTER_SCHEMA
    from nxsearch_ray.stages.join import PAIR_SCHEMA
    from nxsearch_ray.stages.signatures import canonsig_schema

    rng = np.random.default_rng(9)
    texts = [" ".join(f"w{v}" for v in rng.integers(0, 10**6, 40))
             for _ in range(5)]
    rows = [(4 * u, f"https://r.example.org/{u}", x)
            for u, x in enumerate(texts)]
    copies = rows + [(1, "https://r.example.org/0/copy", texts[0])]
    for pages, n_pairs in ((rows, 0), (copies, 1)):
        for out_dir in (None, str(tmp_path / f"out{n_pairs}")):
            res = run_dedup(_pages_of(pages), PipelineConfig(),
                            out_dir=out_dir, **plans)
            for ds, schema in ((res.verified_pairs, PAIR_SCHEMA),
                               (res.clusters, CLUSTER_SCHEMA)):
                assert ds.schema() is not None
                assert ds.schema().base_schema.equals(schema)
            assert res.verified_pairs.count() == n_pairs
            if out_dir is None:
                assert {t.schema for t in ray.get(
                    res.verified_pairs.to_arrow_refs())} == {PAIR_SCHEMA}

    empty = tmp_path / "empty"
    empty.mkdir()
    zero = ray.get(_pages_of(rows[:1]).to_arrow_refs())[0].slice(0, 0)
    for i in range(4):
        pq.write_table(zero, empty / f"part-{i}.parquet")
    out = str(tmp_path / "out_empty")
    for resumed in (False, True):
        res = run_dedup(rd.read_parquet(str(empty)), PipelineConfig(),
                        out_dir=out, **plans)
        assert clusters_as_table(res).num_rows == 0
        assert {r["stage"]: r["resumed"] for r in res.stats["stages"]
                if r["stage"] in ("signatures", "verified_pairs",
                                  "clusters")} == dict.fromkeys(
            ("signatures", "verified_pairs", "clusters"), resumed)
    for name, schema in (("signatures", canonsig_schema(PipelineConfig())),
                         ("verified_pairs", PAIR_SCHEMA),
                         ("clusters", CLUSTER_SCHEMA)):
        parts = glob.glob(f"{out}/{name}/*.parquet")
        assert len(parts) == 1 and read_manifest(out, name)["rows"] == 0
        assert pq.read_schema(parts[0]).remove_metadata().equals(schema)


def test_checkpoint_resume(ray_session, corpus_dir, oracle, tmp_path):
    labels, _ = oracle
    out = str(tmp_path / "ckpt")
    cfg = PipelineConfig()
    r1 = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _cluster_dict(r1) == labels
    assert _resumed(r1) == dict.fromkeys(STAGES, False)

    # a resumed verified_pairs never calls its factory: pairs and
    # verify never run, so they leave no record
    r2 = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _cluster_dict(r2) == labels
    assert _resumed(r2) == dict.fromkeys(
        ["signatures", "verified_pairs", "clusters"], True)

    # a checkpointed stage's record carries its manifest's figures
    recs = {r["stage"]: r for r in r1.stats["stages"]}
    for name in ("signatures", "verified_pairs", "clusters"):
        m = read_manifest(out, name)
        assert recs[name]["rows"] == m["rows"]
        assert recs[name]["bytes"] == sum(p["uncompressed_bytes"]
                                          for p in m["partitions"])
    assert recs["clusters"]["rows"] == len(labels)

    # stale config invalidates every checkpoint
    r3 = run_dedup(_pages_ds(corpus_dir),
                   cfg.with_(jaccard_threshold=0.6), out_dir=out)
    assert _resumed(r3) == dict.fromkeys(STAGES, False)
    shutil.rmtree(out, ignore_errors=True)


def test_stage_records_of_a_pinned_run(ray_session, corpus_dir, oracle):
    """Without ``out_dir`` every stage is pinned to the object store
    and recorded once, in order, with exactly the five fields; rows and
    bytes are the pinned blocks' own."""
    labels, opairs = oracle
    res = run_dedup(_pages_ds(corpus_dir), PipelineConfig())
    recs = res.stats["stages"]
    assert [r["stage"] for r in recs] == list(STAGES)
    assert all(set(r) == RECORD_FIELDS and r["resumed"] is False
               and r["wall_s"] >= 0 and r["bytes"] > 0 for r in recs)
    by = {r["stage"]: r for r in recs}
    assert by["clusters"]["rows"] == len(labels)
    assert by["clusters"]["bytes"] == res.clusters.size_bytes()
    assert by["verified_pairs"]["rows"] == len(_pair_set(res)) \
        == len(opairs)
    assert by["signatures"]["bytes"] == res.stats["verify_sig_bytes"]
    assert by["pairs"]["rows"] >= by["verified_pairs"]["rows"]


def test_stage_boundaries_only_through_lineage_stage():
    """Every pipeline stage boundary is a ``lineage.stage`` call: no
    pipeline module (nor the semantic tier) checkpoints, writes or
    clears a stage directory, times itself or writes a ``wall_`` stats
    key on its own."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "nxsearch_ray"
    pat = re.compile(r"\bcheckpoint\(|time\.monotonic\(|[\"']wall_"
                     r"|\bwrite_stage\(|\bstage_dir\(|\brmtree\(")
    files = [*sorted((root / "pipelines").glob("*.py")),
             root / "stages" / "semdedup.py"]
    hits = [f"{p.name}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if pat.search(line)]
    assert len(files) >= 4 and not hits, hits


def test_partial_resume_from_mid_stage(ray_session, corpus_dir, oracle,
                                       tmp_path):
    """Kill-after-stage-k simulation: run with checkpoints, delete the
    later stage dirs, re-run — early stages load, later recompute,
    output identical (the north rule's resumable-boundaries gate)."""
    labels, _ = oracle
    out = str(tmp_path / "ckpt2")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    shutil.rmtree(f"{out}/verified_pairs")
    shutil.rmtree(f"{out}/clusters")
    r = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _resumed(r) == {**dict.fromkeys(STAGES, False),
                           "signatures": True}
    assert _cluster_dict(r) == labels
    shutil.rmtree(out, ignore_errors=True)

def test_crash_mid_write_discards_stale_parts(ray_session, corpus_dir,
                                              oracle, tmp_path):
    """ADVICE r01 #1 scenario: a crash mid-write leaves stale parquet
    parts with no (or stale) manifest; the re-run must recompute the
    stage and NOT mix the stale parts into the checkpoint."""
    import glob
    import os

    labels, _ = oracle
    out = str(tmp_path / "crash")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)

    sigdir = f"{out}/signatures"
    parts = sorted(glob.glob(f"{sigdir}/*.parquet"))
    # simulate the crash: duplicate a part (stale leftover rows) and
    # drop the manifest (the write never completed)
    shutil.copy(parts[0], f"{sigdir}/zz-stale-partial.parquet")
    os.remove(f"{sigdir}/manifest.json")
    shutil.rmtree(f"{out}/verified_pairs")
    shutil.rmtree(f"{out}/clusters")

    r = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _resumed(r)["signatures"] is False
    assert _cluster_dict(r) == labels
    assert not os.path.exists(f"{sigdir}/zz-stale-partial.parquet")
    shutil.rmtree(out, ignore_errors=True)


def test_incremental_ingest(ray_session, corpus, corpus_dir, oracle,
                            tmp_path):
    """Append-only ingest (reference offset-replay analogue): run on a
    subset, append the rest via run_dedup_incremental, output must be
    IDENTICAL to the full recompute — and only the appended pages may
    go through the signature stage."""
    import ray.data as rd

    from nxsearch_ray.pipelines.dedup import run_dedup_incremental

    labels, opairs = oracle
    out = str(tmp_path / "inc")
    cfg = PipelineConfig()

    # prior run over ~70% of the pages (prefix by page_id order)
    n = corpus.num_rows
    cut = int(n * 0.7)
    ids = sorted(corpus.column("page_id").to_pylist())
    subset_ids = set(ids[:cut])
    sub = corpus.filter(pa.array(
        [pid in subset_ids
         for pid in corpus.column("page_id").to_pylist()]))
    run_dedup(rd.from_arrow(sub).map_batches(
        lambda t: t.select(["page_id", "url", "warc_ts", "html",
                            "lang"]), batch_format="pyarrow"),
        cfg, out_dir=out)

    # incremental over the FULL corpus: the ingest is the signatures
    # stage's own work, recorded once with the combined row count
    res = run_dedup_incremental(_pages_ds(corpus_dir), cfg,
                                out_dir=out)
    assert res.stats["incremental_known_pages"] == cut
    assert res.stats["incremental_new_pages"] == n - cut
    assert _signature_records(res) == [(False, n)]
    assert _cluster_dict(res) == labels
    assert _pair_set(res) == opairs
    shutil.rmtree(out, ignore_errors=True)


def test_incremental_repeat_resumes(ray_session, corpus, corpus_dir,
                                    oracle, tmp_path):
    """A second incremental ingest of the same pages has nothing to
    add: its checkpoints carry that input's fingerprint, so it resumes
    every checkpoint and gives the same clusters."""
    import ray.data as rd

    from nxsearch_ray.pipelines.dedup import run_dedup_incremental

    labels, _ = oracle
    out = str(tmp_path / "inc2")
    cfg = PipelineConfig()
    run_dedup(rd.from_arrow(corpus.slice(0, corpus.num_rows // 2)
                            .select(["page_id", "url", "warc_ts", "html",
                                     "lang"])), cfg, out_dir=out)
    first = run_dedup_incremental(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert first.stats["incremental_new_pages"] > 0
    again = run_dedup_incremental(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _resumed(again) == dict.fromkeys(
        ["signatures", "verified_pairs", "clusters"], True)
    assert again.stats["incremental_known_pages"] == corpus.num_rows
    assert again.stats["incremental_new_pages"] == 0
    assert _cluster_dict(again) == _cluster_dict(first) == labels
    shutil.rmtree(out, ignore_errors=True)


def test_remove_docs(ray_session, corpus, corpus_dir, oracle, tmp_path,
                     monkeypatch):
    """Document deletion (reference tombstone-replay analogue,
    dtmap.c:546-655): delete pages from a checkpointed run — including
    a cluster's min-id representative, so cluster ids must re-derive —
    and the output must be IDENTICAL to a full recompute without them.
    The removal is the signatures stage's own work (recorded, not
    resumed); canonicalization is never redone."""
    import nxsearch_ray.pipelines.dedup as D
    from nxsearch_ray.pipelines.dedup import run_dedup_remove

    labels, _ = oracle
    out = str(tmp_path / "rm")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)

    # removed set: the min-id member of the largest cluster (forces a
    # cluster-id change), one full small cluster, plus every 37th page
    by_cluster: dict[int, list[int]] = {}
    for pid, cid in labels.items():
        by_cluster.setdefault(cid, []).append(pid)
    sized = sorted(by_cluster.values(), key=len)
    removed = {min(sized[-1])}                      # biggest cluster's rep
    multi = [m for m in sized if len(m) > 1]
    removed.update(multi[0])                        # a whole small cluster
    all_ids = sorted(labels)
    removed.update(all_ids[::37])
    removed_ids = sorted(removed)

    def no_canonicalization(*a, **kw):
        raise AssertionError("a removal re-canonicalized pages")

    monkeypatch.setattr(D, "canonsig_stage", no_canonicalization)
    n_prior = read_manifest(out, "signatures")["rows"]
    res = run_dedup_remove(removed_ids, cfg, out_dir=out)
    assert res.stats["removed_found"] == len(removed_ids)
    assert _signature_records(res) == [(False,
                                        n_prior - len(removed_ids))]

    keep = pa.array([pid not in removed
                     for pid in corpus.column("page_id").to_pylist()])
    exp_labels, exp_pairs = oracle_clusters(corpus.filter(keep),
                                            PipelineConfig())
    assert _cluster_dict(res) == exp_labels
    assert _pair_set(res) == exp_pairs

    # deleting EVERYTHING must refuse before mutating any checkpoint
    before = read_manifest(out, "signatures")
    with pytest.raises(ValueError, match="every page"):
        run_dedup_remove(sorted(corpus.column("page_id").to_pylist()),
                         cfg, out_dir=out)
    assert read_manifest(out, "signatures") == before
    shutil.rmtree(out, ignore_errors=True)


def test_remove_after_a_crashed_removal(ray_session, corpus, corpus_dir,
                                        tmp_path, monkeypatch):
    """A removal that crashes after its ``signatures`` write leaves the
    older ``verified_pairs`` and ``clusters`` behind it.  A full run
    over the same pages must bring ``signatures`` back to that input
    before it resumes them, so a later removal starts from every page
    and equals a full recompute without only its own ids."""
    import nxsearch_ray.pipelines.dedup as D
    from nxsearch_ray.pipelines.dedup import run_dedup_remove

    out = str(tmp_path / "crashrm")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    ids = corpus.column("page_id").to_pylist()

    def crash(*a, **kw):
        raise RuntimeError("crash in the pairs stage")

    with monkeypatch.context() as m:
        m.setattr(D, "union_pair_sources", crash)
        with pytest.raises(RuntimeError, match="crash"):
            run_dedup_remove(ids[::5], cfg, out_dir=out)
    assert read_manifest(out, "signatures")["rows"] < len(ids)

    r = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _resumed(r) == {"signatures": False, "verified_pairs": True,
                           "clusters": True}
    assert read_manifest(out, "signatures")["rows"] == len(ids)

    removed = set(ids[1::7])
    res = run_dedup_remove(sorted(removed), cfg, out_dir=out)
    assert res.stats["removed_found"] == len(removed)
    keep = pa.array([pid not in removed for pid in ids])
    exp_labels, exp_pairs = oracle_clusters(corpus.filter(keep), cfg)
    assert _cluster_dict(res) == exp_labels
    assert _pair_set(res) == exp_pairs
    shutil.rmtree(out, ignore_errors=True)

def test_byte_budget_forces_scale_plans(ray_session, corpus_dir, oracle,
                                        monkeypatch):
    """With a per-task byte budget of 1 KiB, one auto run must pick
    the bucketed verify and label-propagation CC plans, record the
    bytes that decided each, and still equal the oracle."""
    import nxsearch_ray.pipelines.dedup as D

    labels, opairs = oracle
    monkeypatch.setattr(D, "TASK_BYTES_BUDGET", 1024)
    res = run_dedup(_pages_ds(corpus_dir), PipelineConfig())
    st = res.stats
    assert st["verify_plan"] == "bucketed"
    assert st["cc_plan"] == "labelprop"
    assert st["task_bytes_budget"] == 1024
    assert st["verify_sig_bytes"] > 1024
    assert st["cc_star_bytes"] == 16 * st["cc_star_edges"] > 1024
    assert _cluster_dict(res) == labels
    assert _pair_set(res) == opairs


def test_resume_rejects_changed_input(ray_session, corpus, corpus_dir,
                                      tmp_path):
    """Same config and out_dir, but a ``limit``-ed input: nothing may
    resume, and the clusters are those of the limited pages."""
    import json

    import ray

    from nxsearch_ray.state.lineage import read_stage

    out = str(tmp_path / "fp")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    r = run_dedup(_pages_ds(corpus_dir).limit(100), cfg, out_dir=out)
    assert _resumed(r) == dict.fromkeys(STAGES, False)
    # every stage records the input it was derived from
    fps = {json.load(open(f"{out}/{s}/manifest.json"))["input_fingerprint"]
           for s in ("signatures", "verified_pairs", "clusters")}
    assert len(fps) == 1 and fps.pop().startswith("rows:100:")

    ids = {pid for t in ray.get(read_stage(out, "signatures").parts)
           for pid in t.column("page_id").to_pylist()}
    assert len(ids) == 100
    keep = pa.array([pid in ids
                     for pid in corpus.column("page_id").to_pylist()])
    exp_labels, _ = oracle_clusters(corpus.filter(keep), cfg)
    assert _cluster_dict(r) == exp_labels
    shutil.rmtree(out, ignore_errors=True)


def test_resume_rejects_another_column_selection(ray_session, tmp_path):
    """Two reads of the same files that select other columns are other
    inputs: a run over ``(page_id, html)``, then one over ``(page_id,
    html, lang)`` into the same ``out_dir``, resumes nothing and gives
    a fresh run's clusters (every other page is ``fr``, which changes
    how it canonicalizes); and so is a read mapped through another
    function."""
    import pyarrow.parquet as pq

    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.state.lineage import input_fingerprint

    t = synth_pages(150, seed=5)
    t = t.set_column(t.schema.get_field_index("lang"), "lang", pa.array(
        ["fr" if i % 2 else "en" for i in range(t.num_rows)]))
    (tmp_path / "pages").mkdir()
    per = -(-t.num_rows // 4)
    for i in range(4):
        pq.write_table(t.slice(i * per, per),
                       tmp_path / "pages" / f"part-{i}.parquet")

    def read(*columns):
        return read_parquet_clean(str(tmp_path / "pages"),
                                  columns=["page_id", "html", *columns])

    out = str(tmp_path / "out")
    cfg = PipelineConfig()
    run_dedup(read(), cfg, out_dir=out)
    r = run_dedup(read("lang"), cfg, out_dir=out)
    assert _resumed(r) == dict.fromkeys(STAGES, False)
    assert _cluster_dict(r) == _cluster_dict(run_dedup(read("lang"), cfg))
    assert len({input_fingerprint(read().map_batches(
        fn, batch_format="pyarrow")) for fn in (_first_row, _no_row)}
        | {input_fingerprint(read())}) == 3
    shutil.rmtree(out, ignore_errors=True)


def _first_row(t: pa.Table) -> pa.Table:
    return t.slice(0, 1)


def _no_row(t: pa.Table) -> pa.Table:
    return t.slice(0, 0)


def test_fingerprint_follows_a_map_code(tmp_path, monkeypatch):
    """A read mapped through a module-level function pickles it by
    name, so its fingerprint also folds in the function's code and
    its module's source: an edit to either (an id scheme) changes it,
    and an unchanged module gives it again."""
    import importlib
    import sys

    import pyarrow.parquet as pq

    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.state.lineage import input_fingerprint

    pq.write_table(pa.table({"k": [1, 2, 3]}), tmp_path / "t.parquet")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    src = tmp_path / "page_ids.py"

    def fingerprint(body: str, helper: str = "") -> str:
        src.write_text(f"def ids(t):\n    return {body}\n{helper}")
        importlib.invalidate_caches()
        mod = importlib.reload(sys.modules["page_ids"]) if (
            "page_ids" in sys.modules) else importlib.import_module(
                "page_ids")
        return input_fingerprint(read_parquet_clean(
            str(tmp_path / "t.parquet")).map_batches(
                mod.ids, batch_format="pyarrow"))

    try:
        first = fingerprint("t.slice(0, 1)")
        assert fingerprint("t.slice(0, 1)") == first
        edits = {fingerprint("t.slice(0, 2)"),
                 fingerprint("t.slice(0, 1)", "\ndef helper():\n    pass\n")}
        assert first not in edits and len(edits) == 2
    finally:
        sys.modules.pop("page_ids", None)


def _in_memory_pages(seed: int):
    import ray.data as rd

    return rd.from_arrow(synth_pages(150, seed=seed).select(
        ["page_id", "url", "warc_ts", "html", "lang"]))


def test_resumed_clusters_outlive_a_rewrite(ray_session, tmp_path):
    """A run that resumed every stage holds its clusters in the object
    store: another input's run into the same ``out_dir`` rewrites the
    checkpoints, and the resumed result still gives the first input's
    clusters."""
    out = str(tmp_path / "rewrite")
    cfg = PipelineConfig()
    want = clusters_as_table(run_dedup(_in_memory_pages(11), cfg,
                                       out_dir=out))
    r2 = run_dedup(_in_memory_pages(11), cfg, out_dir=out)
    assert _resumed(r2) == {"signatures": True, "verified_pairs": True,
                            "clusters": True}
    r3 = run_dedup(_in_memory_pages(12), cfg, out_dir=out)
    assert not any(_resumed(r3).values())
    assert clusters_as_table(r2).equals(want)


def test_resumed_decisions_outlive_a_rewrite(ray_session, tmp_path):
    """The same for ``run_corpus``: its resumed decisions, semantic
    tier included, are those of its own pages after another input's
    run rewrites the ``out_dir``."""
    import numpy as np
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    def run(seed):
        pages = synth_pages(150, seed=seed)
        mat = np.random.default_rng(seed).normal(
            size=(pages.num_rows, 8)).astype(np.float32)
        mat[1::5] = mat[::5][:len(mat[1::5])]     # planted copies
        emb = pa.table({"vec_id": pages.column("page_id"),
                        "embedding": pa.array(
                            list(mat), type=pa.list_(pa.float32()))})
        return run_corpus(rd.from_arrow(pages.select(
            ["page_id", "url", "text"])), embeddings_ds=rd.from_arrow(emb),
            out_dir=str(tmp_path / "corpus"), semdedup_nlist=4,
            min_words=10, min_required_stopwords=0)

    want = decisions_as_table(run(11))
    assert 3 in want.column("drop_tier").to_pylist()
    r2 = run(11)
    assert all(r["resumed"] for r in r2.stats["stages"])
    run(12)
    assert decisions_as_table(r2).equals(want)


def test_resume_rejects_changed_text_under_same_ids(ray_session,
                                                   tmp_path):
    """An in-memory input whose ids are unchanged but one page's html
    is another page's: nothing may resume, and the clusters are those
    of a fresh run over the changed pages."""
    import ray.data as rd

    cols = ["page_id", "url", "warc_ts", "html", "lang"]
    a = synth_pages(60, seed=4).select(cols)
    html = a.column("html").to_pylist()
    html[7] = html[3]
    b = a.set_column(cols.index("html"), "html", pa.array(html))
    out = str(tmp_path / "text")
    cfg = PipelineConfig()
    ca = _cluster_dict(run_dedup(rd.from_arrow(a), cfg, out_dir=out))
    rb = run_dedup(rd.from_arrow(b), cfg, out_dir=out)
    assert _resumed(rb)["signatures"] is False
    fresh = _cluster_dict(run_dedup(rd.from_arrow(b), cfg))
    assert _cluster_dict(rb) == fresh != ca
    pid = a.column("page_id").to_pylist()
    assert fresh[pid[7]] == fresh[pid[3]]
    shutil.rmtree(out, ignore_errors=True)


def test_resume_sizes_verify_plan_like_memory(ray_session, corpus_dir,
                                              tmp_path, monkeypatch):
    """The verify auto-plan reads uncompressed bytes on resume: a run
    resumed from a signatures checkpoint sizes the plan by the
    checkpoint's uncompressed bytes, never its stored ones, and with
    the budget one byte under them it picks the plan an in-memory run
    picks.  Which of stored and uncompressed is larger is not fixed
    (the random MinHash columns barely compress, so per-file overhead
    can win); when stored is smaller, that budget also makes a run
    reading the stored bytes pick the other plan."""
    import glob
    import os

    import pyarrow.parquet as pq

    import nxsearch_ray.pipelines.dedup as D
    from nxsearch_ray.state.lineage import stage_dir

    out = str(tmp_path / "ck")
    cfg = PipelineConfig()
    run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    files = glob.glob(os.path.join(stage_dir(out, "signatures"),
                                   "*.parquet"))
    stored = sum(os.path.getsize(f) for f in files)
    raw = sum(md.row_group(i).total_byte_size
              for md in (pq.ParquetFile(f).metadata for f in files)
              for i in range(md.num_row_groups))
    assert stored != raw
    monkeypatch.setattr(D, "TASK_BYTES_BUDGET", raw - 1)
    fresh = run_dedup(_pages_ds(corpus_dir), cfg)
    # keep the signatures checkpoint, recompute everything after it
    for stage in ("verified_pairs", "clusters"):
        shutil.rmtree(stage_dir(out, stage))
    resumed = run_dedup(_pages_ds(corpus_dir), cfg, out_dir=out)
    assert _resumed(resumed)["signatures"] is True
    assert resumed.stats["verify_sig_bytes"] == raw
    assert resumed.stats["verify_plan"] == fresh.stats["verify_plan"] \
        == "bucketed"
    assert _cluster_dict(resumed) == _cluster_dict(fresh)
    shutil.rmtree(out, ignore_errors=True)


_ONE_CPU_RUN = r"""
import json, sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data as rd
from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.pipelines.dedup import clusters_as_table, run_dedup
ds = rd.read_parquet(sys.argv[1], columns=["page_id", "url", "warc_ts",
                                           "html", "lang"])
res = run_dedup(ds, PipelineConfig(), **json.loads(sys.argv[2]))
t = clusters_as_table(res)
print(json.dumps({"plans": [res.stats["verify_plan"],
                            res.stats["cc_plan"]],
                  "clusters": [t.column("page_id").to_pylist(),
                               t.column("cluster_id").to_pylist()]}))
ray.shutdown()
"""


@pytest.mark.parametrize("plans", [
    {},
    {"verify_mode": "bucketed", "cc_mode": "labelprop"},
])
def test_one_cpu_session_completes(tmp_path, plans):
    """A 1-CPU Ray session must finish ``run_dedup`` on both plan sets:
    long-lived actors (signature pool, hash-shuffle aggregators) may
    not hold the fractional CPU that every 1-CPU task then waits for."""
    import json
    import os
    import subprocess
    import sys

    import pyarrow.parquet as pq

    corpus = synth_pages(200, seed=SEED)
    pq.write_table(corpus, tmp_path / "part-0.parquet")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-c", _ONE_CPU_RUN, str(tmp_path),
         json.dumps(plans)],
        capture_output=True, text=True, timeout=240, cwd=repo)
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    if plans:
        assert out["plans"] == ["bucketed", "labelprop"]
    labels, _ = oracle_clusters(corpus, PipelineConfig())
    assert dict(zip(*out["clusters"])) == labels
