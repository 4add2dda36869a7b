"""`python -m nxsearch_ray.run` job entry (the reference CLI harness
analogue, benchmark.c:72-109, cluster-native via ray job submit)."""

import json
import os
import subprocess
import sys

import glob

import pyarrow.parquet as pq

from nxsearch_ray.sources.synth import synth_pages

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_FIELDS = {"stage", "wall_s", "rows", "bytes", "resumed"}


def _run(args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "nxsearch_ray.run", *args],
        capture_output=True, text=True, timeout=timeout, cwd=REPO)


def _read_stage(path):
    import pyarrow as pa

    return pa.concat_tables(
        [pq.read_table(f)
         for f in sorted(glob.glob(os.path.join(path, "*.parquet")))])


def test_cli_run_and_remove(tmp_path):
    # pages parquet WITHOUT page_id — the CLI must derive it from url
    t = synth_pages(300, seed=9).drop_columns(["page_id"])
    inp = tmp_path / "pages"
    out = tmp_path / "out"
    inp.mkdir()
    pq.write_table(t, inp / "part-0.parquet")

    r = _run(["--input", str(inp), "--output", str(out),
              "--num-cpus", "4"])
    assert r.returncode == 0, r.stderr[-2000:]
    line = json.loads(r.stdout.strip().splitlines()[-1])
    assert line["n_cluster_rows"] > 0
    assert (out / "clusters" / "manifest.json").exists()
    assert (out / "metrics.json").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["n_cluster_rows"] == line["n_cluster_rows"]
    # one record per stage, exactly the five fields
    recs = metrics["stats"]["stages"]
    assert [r["stage"] for r in recs] == [
        "signatures", "pairs", "verify", "verified_pairs", "clusters"]
    assert all(set(r) == RECORD_FIELDS and r["resumed"] is False
               for r in recs)
    assert recs[-1]["rows"] == line["n_cluster_rows"]

    # delete two clustered pages via the tombstone path
    ct = _read_stage(str(out / "clusters"))
    victims = sorted(ct.column("page_id").to_pylist())[:2]
    ids_file = tmp_path / "rm.txt"
    ids_file.write_text("".join(f"{i}\n" for i in victims))
    r2 = _run(["--input", str(inp), "--output", str(out),
               "--remove-ids", str(ids_file), "--num-cpus", "4"])
    assert r2.returncode == 0, r2.stderr[-2000:]
    line2 = json.loads(r2.stdout.strip().splitlines()[-1])
    metrics2 = json.loads((out / "metrics.json").read_text())
    assert metrics2["stats"]["removed_found"] == 2
    # the removal is the signatures stage's work, recorded once
    sig = {r["stage"]: r for r in recs}["signatures"]
    assert [(r["resumed"], r["rows"]) for r in metrics2["stats"]["stages"]
            if r["stage"] == "signatures"] == [(False, sig["rows"] - 2)]
    ct2 = _read_stage(str(out / "clusters"))
    assert not (set(ct2.column("page_id").to_pylist()) & set(victims))
    assert line2["n_cluster_rows"] == ct2.num_rows


def test_cli_check_ids_rejects_duplicates(tmp_path):
    """--check-ids fails fast on duplicate page ids (the reference
    rejects duplicate doc ids at ingest, nxs.c:505-511)."""
    import pyarrow as pa

    t = synth_pages(40, seed=11)
    ids = t.column("page_id").to_pylist()
    ids[1] = ids[0]                                   # plant a dup
    t = t.set_column(t.schema.get_field_index("page_id"), "page_id",
                     pa.array(ids, type=pa.int64()))
    inp = tmp_path / "pages"
    inp.mkdir()
    pq.write_table(t, inp / "part-0.parquet")
    r = _run(["--input", str(inp), "--output", str(tmp_path / "out"),
              "--check-ids", "--num-cpus", "4"])
    assert r.returncode != 0
    assert "duplicate page ids" in r.stderr


def test_cli_loader_adds_url_md5_ids(ray_session, tmp_path, monkeypatch):
    """The CLI's loader over files with no ``page_id`` lists them once,
    reads each footer once, and adds the md5-of-url ids in the tasks
    that read the pages: the clusters equal the oracle's over the same
    pages with those ids."""
    import hashlib

    import pyarrow as pa

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.oracle import oracle_clusters
    from nxsearch_ray.pipelines.dedup import clusters_as_table, run_dedup
    from nxsearch_ray.run import _load_pages
    from nxsearch_ray.sources import io

    t = synth_pages(200, seed=9).drop_columns(["page_id"])
    inp = tmp_path / "pages"
    inp.mkdir()
    per = -(-t.num_rows // 4)
    for i in range(4):
        pq.write_table(t.slice(i * per, per), inp / f"part-{i}.parquet")
    calls = {"listings": 0, "footers": 0}

    def counted(key, fn):
        def wrapped(*args, **kw):
            calls[key] += 1
            return fn(*args, **kw)
        return wrapped

    monkeypatch.setattr(io, "_listed_files",
                        counted("listings", io._listed_files))
    monkeypatch.setattr(pq, "read_metadata",
                        counted("footers", pq.read_metadata))
    cfg = PipelineConfig()
    pages = _load_pages(str(inp), cfg)
    assert calls == {"listings": 1, "footers": 4}

    ids = [int.from_bytes(hashlib.md5(u.encode()).digest()[:8], "big") >> 1
           for u in t.column("url").to_pylist()]
    want, _ = oracle_clusters(
        t.append_column("page_id", pa.array(ids, pa.int64())), cfg)
    got = clusters_as_table(run_dedup(pages, cfg))
    assert got.num_rows > 0
    assert dict(zip(got.column("page_id").to_pylist(),
                    got.column("cluster_id").to_pylist())) == want
