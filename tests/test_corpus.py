"""End-to-end corpus pipeline (pipelines/corpus.py): clean -> near-dup
-> semantic tiers composed as one resumable dataflow, plus the
`--pipeline corpus` CLI route (VERDICT r04 next #8)."""

import json
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from nxsearch_ray.sources.synth import synth_pages

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run_corpus's stage records with embeddings: its own and run_dedup's
STAGES = {"clean_pages", "signatures", "pairs", "verify",
          "verified_pairs", "clusters", "semantic_survivors",
          "semdedup_decisions", "corpus_final"}


def _resumed(stats: dict) -> dict[str, bool]:
    """Stage name → its record's ``resumed`` flag."""
    return {r["stage"]: r["resumed"] for r in stats["stages"]}


def _embeddings_for(pages: pa.Table, *, dim: int = 32, seed: int = 7,
                    n_sem_dups: int = 6) -> pa.Table:
    """(vec_id, embedding) keyed by page_id; the LAST ``n_sem_dups``
    non-duplicated ORIGINAL pages get byte-identical embeddings to the
    FIRST ones (cross-base semantic dups the near-dup tier can't see)."""
    ids = np.asarray(pages.column("page_id").to_pylist(), dtype=np.int64)
    clusters = np.asarray(pages.column("truth_cluster").to_pylist())
    variants = np.asarray(pages.column("variant").to_pylist())
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(16, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    mat = anchors[np.arange(len(ids)) % 16] * 12.0 \
        + rng.normal(size=(len(ids), dim))
    # semantic dups between singleton originals (truth_cluster == -1)
    singles = np.nonzero((clusters == -1) & (variants == "orig"))[0]
    pairs = []
    for k in range(min(n_sem_dups, len(singles) // 2)):
        a, b = singles[k], singles[-(k + 1)]
        mat[b] = mat[a]
        lo, hi = sorted((int(ids[a]), int(ids[b])))
        pairs.append((lo, hi))
    return pa.table({
        "vec_id": pa.array(ids),
        "embedding": pa.array(list(mat.astype(np.float32)),
                              type=pa.list_(pa.float32()))}), pairs


@pytest.fixture(scope="module")
def corpus_tables():
    pages = synth_pages(150, seed=11)
    emb, sem_pairs = _embeddings_for(pages)
    return pages, emb, sem_pairs


def test_run_corpus_streaming(ray_session, corpus_tables):
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, sem_pairs = corpus_tables
    res = run_corpus(rd.from_arrow(pages),
                     embeddings_ds=rd.from_arrow(emb),
                     semdedup_nlist=4, min_words=10,
                     min_required_stopwords=0)
    dec = decisions_as_table(res)
    assert dec.schema.names == ["page_id", "drop_tier", "dup_of"]
    assert dec.num_rows == res.stats["n_clean_pages"]
    tiers = dec.column("drop_tier").to_numpy()
    ids = dec.column("page_id").to_numpy()
    dup = dec.column("dup_of").to_numpy()
    # tier-2: near-dup members drop onto their component minimum
    assert (tiers == 2).sum() > 0
    assert (dup[tiers == 2] < ids[tiers == 2]).all()
    # kept rows owe nothing
    assert (dup[tiers == 0] == -1).all()
    # tier-3: the planted cross-base semantic dups are found (higher
    # id drops onto lower), and never double-dropped by tier 2
    by_id = dict(zip(ids.tolist(), zip(tiers.tolist(), dup.tolist())))
    found = 0
    for lo, hi in sem_pairs:
        t, d = by_id[hi]
        if t == 3 and d == lo:
            found += 1
    assert found == len(sem_pairs), (found, sem_pairs)
    assert (dup[tiers == 3] < ids[tiers == 3]).all()


def test_run_corpus_quality_gate(ray_session, corpus_tables):
    """Short pages are removed by the Gopher gate before any dedup."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import run_corpus

    pages, _, _ = corpus_tables
    short = pa.table({
        "page_id": pa.array([10_000_001, 10_000_002], type=pa.int64()),
        "url": pa.array(["https://x.org/a", "https://x.org/b"]),
        "text": pa.array(["too short", "tiny page"])})
    both = pa.concat_tables([
        pages.select(["page_id", "url", "text"]), short])
    res = run_corpus(rd.from_arrow(both), min_words=10,
                     min_required_stopwords=0)
    assert res.stats["n_clean_pages"] == pages.num_rows  # shorts gone


def test_semantic_tier_sees_only_clean_pages(ray_session, corpus_tables):
    """A page the clean tier removes is never a semantic ``dup_of``:
    the lowest page id fails the Gopher gate, and a later singleton
    original carries its exact embedding, so it must stay kept."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, _ = corpus_tables
    ids = pages.column("page_id").to_pylist()
    gone = ids.index(min(ids))
    singles = [i for i, (c, v) in enumerate(zip(
        pages.column("truth_cluster").to_pylist(),
        pages.column("variant").to_pylist())) if c == -1 and v == "orig"]
    twin = singles[len(singles) // 2]       # no planted semantic dup
    assert ids[twin] > ids[gone]
    text = pages.column("text").to_pylist()
    text[gone] = "too short"
    vecs = emb.column("embedding").to_pylist()
    vecs[twin] = vecs[gone]
    res = run_corpus(
        rd.from_arrow(pages.select(["page_id", "url"]).append_column(
            "text", pa.array(text))),
        embeddings_ds=rd.from_arrow(emb.set_column(1, "embedding", pa.array(
            vecs, type=pa.list_(pa.float32())))),
        semdedup_nlist=4, min_words=10, min_required_stopwords=0)
    dec = decisions_as_table(res).to_pylist()
    by_id = {r["page_id"]: (r["drop_tier"], r["dup_of"]) for r in dec}
    assert ids[gone] not in by_id
    assert by_id[ids[twin]] == (0, -1)
    assert {r["dup_of"] for r in dec if r["drop_tier"] == 3} <= set(by_id)


def test_run_corpus_resume(ray_session, corpus_tables, tmp_path):
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, _ = corpus_tables
    out = str(tmp_path / "run")
    kw = dict(embeddings_ds=rd.from_arrow(emb), semdedup_nlist=4,
              min_words=10, min_required_stopwords=0, out_dir=out)
    r1 = run_corpus(rd.from_arrow(pages), **kw)
    d1 = decisions_as_table(r1)
    assert _resumed(r1.stats) == dict.fromkeys(STAGES, False)
    r2 = run_corpus(rd.from_arrow(pages), **kw)
    d2 = decisions_as_table(r2)
    # every checkpoint resumes; the near-dup tier's unpinned stages
    # never run behind its resumed verified_pairs
    assert _resumed(r2.stats) == dict.fromkeys(
        STAGES - {"pairs", "verify"}, True)
    assert d1.equals(d2)
    # per-stage walls recorded for bench attribution
    assert all(r["wall_s"] >= 0 for r in r2.stats["stages"])


def test_semantic_decision_map_keeps_its_schema(ray_session, corpus_tables,
                                                monkeypatch):
    """The tier-3 map over a decisions input holding a zero-column empty
    block (as a union with an empty side gives) yields only its declared
    ``(page_id, dup3)`` blocks to the fold's join, and the semantic tier
    still drops pages."""
    import ray
    import ray.data as rd

    import nxsearch_ray.stages.join as J
    import nxsearch_ray.stages.semdedup as S
    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)
    from nxsearch_ray.stages.shuffle import refs

    semantic, hash_join = S.semantic_dedup_clustered, J.hash_join

    def with_empty_block(*a, **kw):
        return rd.from_arrow_refs(refs(semantic(*a, **kw))
                                  + [ray.put(pa.table({}))])

    right_schemas = []

    def recorded(left, right, **kw):
        right_schemas.append({t.schema for t in ray.get(refs(right))})
        return hash_join(left, right, **kw)

    monkeypatch.setattr(S, "semantic_dedup_clustered", with_empty_block)
    monkeypatch.setattr(J, "hash_join", recorded)
    pages, emb, _ = corpus_tables
    dec = decisions_as_table(run_corpus(
        rd.from_arrow(pages), embeddings_ds=rd.from_arrow(emb),
        semdedup_nlist=4, min_words=10, min_required_stopwords=0))
    t3_schema = pa.schema([("page_id", pa.int64()), ("dup3", pa.int64())])
    assert {t3_schema} in right_schemas, right_schemas
    assert 3 in dec.column("drop_tier").to_pylist()


def test_run_corpus_resumes_empty_clean_tier(ray_session, corpus_tables,
                                             tmp_path):
    """A blocklist that drops every page leaves zero-row checkpoints;
    the run completes into a fresh ``out_dir``, and a second run
    resumes them and gives the same (empty) decisions."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, _ = corpus_tables
    kw = dict(embeddings_ds=rd.from_arrow(emb), semdedup_nlist=4,
              min_words=10, min_required_stopwords=0,
              blocklist=("synth.example.org",), out_dir=str(tmp_path))
    r1 = run_corpus(rd.from_arrow(pages), **kw)
    d1 = decisions_as_table(r1)
    assert r1.stats["n_clean_pages"] == 0 and d1.num_rows == 0
    r2 = run_corpus(rd.from_arrow(pages), **kw)
    assert _resumed(r2.stats)["clean_pages"] is True
    assert _resumed(r2.stats)["corpus_final"] is True
    assert decisions_as_table(r2).equals(d1)


def test_run_corpus_rejects_changed_input(ray_session, corpus_tables,
                                          tmp_path):
    """Pages A, then pages B (one page's text replaced by another's)
    into the same ``out_dir``: the decisions are those of a fresh run
    on B, not resumed from A."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, _, _ = corpus_tables
    a = pages.select(["page_id", "url", "text"])
    text = a.column("text").to_pylist()
    text[9] = text[2]
    b = a.set_column(2, "text", pa.array(text))
    kw = dict(min_words=10, min_required_stopwords=0)
    out = str(tmp_path / "run")
    da = decisions_as_table(run_corpus(rd.from_arrow(a), out_dir=out, **kw))
    rb = run_corpus(rd.from_arrow(b), out_dir=out, **kw)
    assert _resumed(rb.stats)["clean_pages"] is False
    assert _resumed(rb.stats)["corpus_final"] is False
    fresh = decisions_as_table(run_corpus(rd.from_arrow(b), **kw))
    assert decisions_as_table(rb).equals(fresh)
    assert not fresh.equals(da)


def test_semantic_decisions_reject_changed_pages(ray_session,
                                                corpus_tables, tmp_path):
    """Pages A (a planted semantic duplicate's text replaced by another
    page's, so the near-dup tier drops it first), then the original
    pages B, into one ``out_dir``: the semantic tier recomputes, and the
    duplicate is a tier-3 drop of its twin, as in a fresh run on B."""
    import pyarrow.compute as pc
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, sem_pairs = corpus_tables
    lo, hi = sem_pairs[0]
    b = pages.select(["page_id", "url", "text"])
    text = b.column("text").to_pylist()
    text[b.column("page_id").to_pylist().index(hi)] = text[2]
    a = b.set_column(2, "text", pa.array(text))
    kw = dict(embeddings_ds=rd.from_arrow(emb), semdedup_nlist=4,
              min_words=10, min_required_stopwords=0)
    out = str(tmp_path / "run")
    run_corpus(rd.from_arrow(a), out_dir=out, **kw)
    rb = run_corpus(rd.from_arrow(b), out_dir=out, **kw)
    assert _resumed(rb.stats)["semdedup_decisions"] is False
    fresh = decisions_as_table(run_corpus(rd.from_arrow(b), **kw))
    db = decisions_as_table(rb)
    assert db.equals(fresh)
    row = db.filter(pc.equal(db.column("page_id"), hi)).to_pylist()
    assert row == [{"page_id": hi, "drop_tier": 3, "dup_of": lo}]


def test_semantic_decisions_reject_changed_settings(ray_session,
                                                   corpus_tables, tmp_path):
    """The same pages and embeddings into one ``out_dir``, first at
    ``min_words=3``, then at 10, which removes the short twin of a
    planted semantic duplicate: the semantic tier's input changed, so
    it recomputes, and the decisions equal a fresh run at 10."""
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, sem_pairs = corpus_tables
    lo, hi = sem_pairs[0]
    b = pages.select(["page_id", "url", "text"])
    text = b.column("text").to_pylist()
    text[b.column("page_id").to_pylist().index(lo)] = \
        "alpha beta gamma delta"
    p = rd.from_arrow(b.set_column(2, "text", pa.array(text)))
    kw = dict(embeddings_ds=rd.from_arrow(emb), semdedup_nlist=4,
              min_required_stopwords=0)
    out = str(tmp_path / "run")
    da = decisions_as_table(run_corpus(p, out_dir=out, min_words=3, **kw))
    assert {"page_id": hi, "drop_tier": 3, "dup_of": lo} in da.to_pylist()
    rb = run_corpus(p, out_dir=out, min_words=10, **kw)
    assert _resumed(rb.stats)["semdedup_decisions"] is False
    db = decisions_as_table(rb)
    assert db.equals(decisions_as_table(run_corpus(p, min_words=10,
                                                   **kw)))
    assert {"page_id": hi, "drop_tier": 0, "dup_of": -1} in db.to_pylist()


def test_semantic_decisions_reject_changed_embeddings(ray_session,
                                                      corpus_tables,
                                                      tmp_path):
    """The same pages with embeddings A, then B (one page's vector
    replaced by another page's, a new semantic duplicate), into one
    ``out_dir``: the pages stages resume, the semantic tier recomputes,
    and the decisions equal a fresh run on B."""
    import pyarrow.compute as pc
    import ray.data as rd

    from nxsearch_ray.pipelines.corpus import (decisions_as_table,
                                               run_corpus)

    pages, emb, sem_pairs = corpus_tables
    planted = {i for pair in sem_pairs for i in pair}
    free = sorted(
        pid for pid, c, v in zip(pages.column("page_id").to_pylist(),
                                 pages.column("truth_cluster").to_pylist(),
                                 pages.column("variant").to_pylist())
        if c == -1 and v == "orig" and pid not in planted)
    lo, hi = free[0], free[1]
    vec_ids = emb.column("vec_id").to_pylist()
    vecs = emb.column("embedding").to_pylist()
    vecs[vec_ids.index(hi)] = vecs[vec_ids.index(lo)]
    emb_b = emb.set_column(1, "embedding",
                           pa.array(vecs, type=pa.list_(pa.float32())))
    p = rd.from_arrow(pages.select(["page_id", "url", "text"]))
    kw = dict(semdedup_nlist=4, min_words=10, min_required_stopwords=0)
    out = str(tmp_path / "run")
    da = decisions_as_table(run_corpus(
        p, out_dir=out, embeddings_ds=rd.from_arrow(emb), **kw))
    rb = run_corpus(p, out_dir=out, embeddings_ds=rd.from_arrow(emb_b),
                    **kw)
    assert _resumed(rb.stats)["clean_pages"] is True
    assert _resumed(rb.stats)["semdedup_decisions"] is False
    fresh = decisions_as_table(run_corpus(
        p, embeddings_ds=rd.from_arrow(emb_b), **kw))
    db = decisions_as_table(rb)
    assert db.equals(fresh)
    assert not db.equals(da)
    row = db.filter(pc.equal(db.column("page_id"), hi)).to_pylist()
    assert row == [{"page_id": hi, "drop_tier": 3, "dup_of": lo}]


def test_cli_corpus(tmp_path):
    pages = synth_pages(120, seed=13)
    emb, _ = _embeddings_for(pages, n_sem_dups=4)
    inp = tmp_path / "pages"
    edir = tmp_path / "emb"
    out = tmp_path / "out"
    inp.mkdir()
    edir.mkdir()
    pq.write_table(pages, inp / "part-0.parquet")
    pq.write_table(emb, edir / "part-0.parquet")

    args = ["--pipeline", "corpus", "--input", str(inp),
            "--embeddings", str(edir), "--output", str(out),
            "--min-words", "10", "--min-stopwords", "0",
            "--num-cpus", "4"]
    r = subprocess.run([sys.executable, "-m", "nxsearch_ray.run",
                        *args], capture_output=True, text=True,
                       timeout=300, cwd=REPO)
    assert r.returncode == 0, r.stderr[-2000:]
    line = json.loads(r.stdout.strip().splitlines()[-1])
    assert line["metric"] == "nxsearch_ray.run corpus"
    assert line["n_decisions"] > 0
    assert line["n_drop_neardup"] > 0
    assert line["n_kept"] + line["n_drop_neardup"] \
        + line["n_drop_semantic"] == line["n_decisions"]
    metrics = json.loads((out / "metrics.json").read_text())
    # one record per stage, exactly the five fields
    recs = metrics["stats"]["stages"]
    assert sorted(r["stage"] for r in recs) == sorted(STAGES)
    assert all(set(r) == {"stage", "wall_s", "rows", "bytes", "resumed"}
               and r["resumed"] is False for r in recs)
    final = next(r for r in recs if r["stage"] == "corpus_final")
    assert final["rows"] == line["n_decisions"]
    assert (out / "corpus_final" / "manifest.json").exists()

    # second run resumes every stage and reproduces the decisions
    r2 = subprocess.run([sys.executable, "-m", "nxsearch_ray.run",
                         *args], capture_output=True, text=True,
                        timeout=300, cwd=REPO)
    assert r2.returncode == 0, r2.stderr[-2000:]
    line2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert line2["n_decisions"] == line["n_decisions"]
    metrics2 = json.loads((out / "metrics.json").read_text())
    assert _resumed(metrics2["stats"]) == dict.fromkeys(
        STAGES - {"pairs", "verify"}, True)
