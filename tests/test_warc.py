"""WARC source: spec-shaped parse, gzip member layout, Ray ingest,
and flow into the extraction + dedup stages."""

from __future__ import annotations

import gzip

import pyarrow as pa
import pytest

from nxsearch_ray.sources.warc import (
    parse_warc,
    record_bytes,
    response_record,
    warc_bytes_to_pages,
    warc_gz_bytes,
)


def _sample_records() -> list[bytes]:
    return [
        record_bytes({"WARC-Type": "warcinfo"}, b"software: test\r\n"),
        response_record("https://a.example.org/x",
                        "2024-03-01T12:00:00Z",
                        b"<html><body><p>alpha beta</p></body></html>"),
        record_bytes({"WARC-Type": "request",
                      "WARC-Target-URI": "https://a.example.org/y"},
                     b"GET /y HTTP/1.1\r\n"),
        response_record("https://b.example.org/y",
                        "2024-03-02T00:30:00Z",
                        b"<html><body><p>gamma delta</p></body></html>"),
    ]


def test_parse_roundtrip_plain_and_gz():
    recs = _sample_records()
    plain = b"".join(recs)
    parsed = parse_warc(plain)
    assert [r["headers"]["warc-type"] for r in parsed] == \
        ["warcinfo", "response", "request", "response"]
    # single-member gzip AND member-per-record gzip both decode
    for buf in (gzip.compress(plain), warc_gz_bytes(recs)):
        t = warc_bytes_to_pages(buf)
        assert t.num_rows == 2     # responses only
        assert t.column("url").to_pylist() == \
            ["https://a.example.org/x", "https://b.example.org/y"]
        assert b"alpha beta" in t.column("html").to_pylist()[0]
        # HTTP head stripped
        assert not t.column("html").to_pylist()[0].startswith(b"HTTP/")
        ts = t.column("warc_ts").to_pylist()
        assert ts[0].isoformat().startswith("2024-03-01T12:00:00")


def test_parse_rejects_malformed():
    with pytest.raises(ValueError, match="version line"):
        parse_warc(b"NOTAWARC/1.0\r\n\r\n")
    ok = response_record("https://x", "2024-01-01T00:00:00Z", b"hi")
    with pytest.raises(ValueError, match="truncated WARC record"):
        parse_warc(ok[:-6])


def test_warc_ingest_read(ray_session, tmp_path):
    """The CLI's WARC input: ingested under ``out_dir`` and read back
    as an engine read of the ingested Parquet; there is no other
    path."""
    from nxsearch_ray.run import _load_pages
    from nxsearch_ray.stages.html_extract import extract_text

    p = tmp_path / "seg-00000.warc.gz"
    p.write_bytes(warc_gz_bytes(_sample_records()))
    read = _load_pages(str(p), out_dir=str(tmp_path / "out"))
    t = pa.concat_tables([part() for part in read.parts])
    assert t.num_rows == 2
    assert set(t.column("variant").to_pylist()) == {"warc"}
    ids = t.column("page_id").to_pylist()
    assert len(set(ids)) == 2 and all(i >= 0 for i in ids)

    # the extraction consumes the html payload downstream
    text = extract_text(t).column("text").to_pylist()
    assert sorted(text) == ["alpha beta", "gamma delta"]

    # with no out_dir to ingest into, a WARC input is an error
    with pytest.raises(ValueError, match="out_dir"):
        _load_pages(str(tmp_path))


def test_warc_page_id_stable_across_recrawl():
    body = b"<html><body><p>same</p></body></html>"
    a1 = warc_bytes_to_pages(response_record(
        "https://a/x", "2024-01-01T00:00:00Z", body))
    a2 = warc_bytes_to_pages(response_record(
        "https://a/x", "2024-01-02T00:00:00Z", body))
    same = warc_bytes_to_pages(response_record(
        "https://a/x", "2024-01-01T00:00:00Z", body))
    assert a1.column("page_id").to_pylist() == \
        same.column("page_id").to_pylist()      # deterministic
    assert a1.column("page_id").to_pylist() != \
        a2.column("page_id").to_pylist()        # recrawl = new row


def test_cli_ingests_warc_dir(tmp_path):
    """`python -m nxsearch_ray.run --input <dir of .warc.gz>` drives
    the flagship over archive segments end-to-end."""
    import json
    import os
    import subprocess
    import sys

    repo = __import__("pathlib").Path(__file__).resolve().parents[1]
    seg = tmp_path / "segs"
    seg.mkdir()
    body = b"<html><body><p>%s</p></body></html>"
    recs = []
    for i in range(30):
        text = (f"shared prose sentence number {i % 10} with plenty "
                f"of overlapping words").encode()
        recs.append(response_record(
            f"https://site{i % 7}.example.org/p/{i}",
            f"2024-04-0{i % 9 + 1}T00:00:00Z", body % text))
    half = len(recs) // 2
    (seg / "seg-0.warc.gz").write_bytes(warc_gz_bytes(recs[:half]))
    (seg / "seg-1.warc.gz").write_bytes(warc_gz_bytes(recs[half:]))

    out = tmp_path / "out"
    r = subprocess.run(
        [sys.executable, "-m", "nxsearch_ray.run",
         "--input", str(seg), "--output", str(out),
         "--num-cpus", "4"],
        capture_output=True, text=True, timeout=240, cwd=repo)
    assert r.returncode == 0, r.stderr[-2000:]
    line = json.loads(r.stdout.strip().splitlines()[-1])
    # 30 responses share 10 distinct texts → every page clusters
    # with its textual duplicates: 30 cluster rows in 10 clusters
    assert line["n_cluster_rows"] == 30
    import pyarrow.parquet as pq
    import glob
    ct = pa.concat_tables(
        [pq.read_table(f) for f in
         glob.glob(str(out / "clusters" / "*.parquet"))])
    assert len(set(ct.column("cluster_id").to_pylist())) == 10


def test_warc_ingest_file_granular_resume(ray_session, tmp_path):
    """A run killed mid-ingest resumes WITHOUT re-reading completed
    archives: completion sidecars are per-file, written after the
    atomic parquet rename, and a replaced archive (size/mtime change)
    re-ingests."""
    import json
    import os

    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.sources.warc import ingest_warc_resumable

    seg = tmp_path / "segs"
    seg.mkdir()
    body = b"<html><body><p>%s</p></body></html>"
    paths = []
    for f in range(3):
        recs = [response_record(
            f"https://s{f}.example.org/p/{i}",
            "2024-04-01T00:00:00Z", body % f"file {f} rec {i}".encode())
            for i in range(5)]
        p = seg / f"seg-{f}.warc.gz"
        p.write_bytes(warc_gz_bytes(recs))
        paths.append(str(p))

    idir = str(tmp_path / "ingest")
    s1 = ingest_warc_resumable(paths, idir)
    assert s1 == {"parsed": 3, "skipped": 0}
    ds = read_parquet_clean(idir, file_extensions=["parquet"])
    assert ds.count() == 15

    # simulate "killed mid-ingest": drop one file's sidecar (its
    # parquet may or may not have landed — drop it too)
    stems = sorted(f[:-5] for f in os.listdir(idir)
                   if f.endswith(".json"))
    victim = stems[1]
    os.remove(os.path.join(idir, victim + ".json"))
    os.remove(os.path.join(idir, victim + ".parquet"))
    before = {f: os.path.getmtime(os.path.join(idir, f))
              for f in os.listdir(idir) if f.endswith(".parquet")}

    s2 = ingest_warc_resumable(paths, idir)
    assert s2 == {"parsed": 1, "skipped": 2}
    after = {f: os.path.getmtime(os.path.join(idir, f))
             for f in before}
    assert after == before          # completed outputs untouched
    assert read_parquet_clean(
        idir, file_extensions=["parquet"]).count() == 15

    # a replaced archive re-ingests (size/mtime recorded in sidecar)
    p0 = seg / "seg-0.warc.gz"
    p0.write_bytes(warc_gz_bytes([response_record(
        "https://s0.example.org/p/0", "2024-04-02T00:00:00Z",
        body % b"replaced")]))
    s3 = ingest_warc_resumable(paths, idir)
    assert s3["parsed"] == 1 and s3["skipped"] == 2
    assert read_parquet_clean(
        idir, file_extensions=["parquet"]).count() == 11


def test_ingest_of_a_hidden_named_archive_is_read(ray_session, tmp_path):
    """An archive named ``_x`` or ``.x`` ingests under a stem the engine
    read does not skip, so its pages are read back."""
    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.sources.warc import ingest_warc_resumable

    body = b"<html><body><p>%s</p></body></html>"
    paths = []
    for name in ["_under.warc.gz", ".dot.warc"]:
        p = tmp_path / name
        recs = [response_record(f"https://{name[1:4]}.example.org/{i}",
                                "2024-04-01T00:00:00Z", body % b"x")
                for i in range(2)]
        p.write_bytes(warc_gz_bytes(recs) if name.endswith(".gz")
                      else gzip.decompress(warc_gz_bytes(recs)))
        paths.append(str(p))
    idir = str(tmp_path / "ingest")
    assert ingest_warc_resumable(paths, idir)["parsed"] == 2
    assert read_parquet_clean(idir, file_extensions=["parquet"]).count() == 4
