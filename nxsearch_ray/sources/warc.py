"""WARC ingest — the web-archive format CommonCrawl-scale corpora
arrive in (ISO 28500; implemented from the public spec, stdlib gzip
only).

A WARC file is a sequence of records::

    WARC/1.0\\r\\n
    <header-name>: <value>\\r\\n ...        (incl. Content-Length)
    \\r\\n
    <Content-Length content bytes>
    \\r\\n\\r\\n

``.warc.gz`` files hold one gzip *member per record* (the CommonCrawl
convention) — Python's gzip handles concatenated members
transparently, so both layouts decode with one code path.

Scale shape: one WARC file (CommonCrawl segments are ~1 GB) is the
distribution unit — ``ingest_warc_resumable`` runs one plain Ray task
per archive, which parses its records into pages rows and writes them
as one Parquet file, and the pipeline reads that Parquet back as an
engine read (``sources.io.read_parquet_clean``).  Record parsing is
inherently sequential per file (records are length-prefixed), which is
exactly the granularity web-archive pipelines shard at; finer sharding
would require a gzip-member index sidecar (documented, not needed
here).

Only ``WARC-Type: response`` records become pages (requests/metadata
are skipped, like every WARC consumer); the HTTP response head is
split off at the first blank line and the body becomes the ``html``
payload, feeding the extraction stage.
"""

from __future__ import annotations

import gzip
import json
import os

import numpy as np
import pyarrow as pa

from nxsearch_ray.sources.pages import PAGES_SCHEMA

_CRLF2 = b"\r\n\r\n"


def parse_warc(buf: bytes) -> list[dict]:
    """All records of one (decompressed) WARC stream:
    ``{headers: dict, content: bytes}``, headers lower-cased."""
    records: list[dict] = []
    pos = 0
    n = len(buf)
    while pos < n:
        # skip inter-record blank lines
        while pos < n and buf[pos:pos + 2] == b"\r\n":
            pos += 2
        if pos >= n:
            break
        if not buf.startswith(b"WARC/", pos):
            raise ValueError(
                f"malformed WARC: no version line at offset {pos}")
        head_end = buf.find(_CRLF2, pos)
        if head_end < 0:
            raise ValueError("truncated WARC header block")
        head_lines = buf[pos:head_end].decode(
            "utf-8", errors="replace").split("\r\n")
        headers: dict[str, str] = {}
        for line in head_lines[1:]:
            k, sep, v = line.partition(":")
            if sep:
                headers[k.strip().lower()] = v.strip()
        try:
            clen = int(headers["content-length"])
        except (KeyError, ValueError) as exc:
            raise ValueError(
                "WARC record missing Content-Length") from exc
        body_start = head_end + 4
        content = buf[body_start:body_start + clen]
        if len(content) < clen:
            raise ValueError("truncated WARC record content")
        records.append({"headers": headers, "content": content})
        pos = body_start + clen
    return records


def _http_body(payload: bytes) -> bytes:
    """Strip the HTTP response head (through the first blank line);
    a payload without one is returned whole."""
    i = payload.find(_CRLF2)
    return payload[i + 4:] if i >= 0 else payload


def _warc_ts_us(date: str) -> int:
    """WARC-Date (ISO 8601 Zulu, e.g. 2024-01-01T00:00:00Z) → µs since
    epoch; malformed dates map to 0 rather than poisoning the batch."""
    from datetime import datetime, timezone

    try:
        dt = datetime.strptime(date, "%Y-%m-%dT%H:%M:%SZ") \
            .replace(tzinfo=timezone.utc)
        return int(dt.timestamp() * 1_000_000)
    except ValueError:
        return 0


def warc_bytes_to_pages(buf: bytes, *, lang: str = "") -> pa.Table:
    """One WARC stream (plain or gzip) → pages-schema Arrow table.
    page_id is a stable 63-bit hash of (target URI, date) so re-crawls
    of the same URL stay distinct rows for latest-crawl-wins dedup."""
    import hashlib

    if buf[:2] == b"\x1f\x8b":
        buf = gzip.decompress(buf)
    ids, urls, tss, htmls = [], [], [], []
    for rec in parse_warc(buf):
        h = rec["headers"]
        if h.get("warc-type") != "response":
            continue
        uri = h.get("warc-target-uri", "")
        date = h.get("warc-date", "")
        ids.append(int.from_bytes(
            hashlib.md5(f"{uri}\n{date}".encode()).digest()[:8],
            "big") >> 1)
        urls.append(uri)
        tss.append(_warc_ts_us(date))
        htmls.append(_http_body(rec["content"]))
    n = len(ids)
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.int64()),
         pa.array(urls, type=pa.string()),
         pa.array(np.asarray(tss, dtype=np.int64)).cast(
             pa.timestamp("us")),
         pa.array(htmls, type=pa.binary()),
         pa.array([""] * n, type=pa.string()),
         pa.array([lang] * n, type=pa.string()),
         pa.array(["warc"] * n, type=pa.string())],
        schema=PAGES_SCHEMA)


def _ingest_name(path: str) -> str:
    """Stable output stem for one archive: basename + short path hash
    (stems can repeat across directories).  A leading ``.`` or ``_`` is
    dropped: the engine read skips such names under a directory."""
    import hashlib

    h = hashlib.md5(os.path.abspath(path).encode()).hexdigest()[:10]
    base = os.path.basename(path)
    for suf in (".warc.gz", ".warc"):
        if base.endswith(suf):
            base = base[:-len(suf)]
            break
    return f"{base.lstrip('._')}-{h}"


def _ingest_done(ingest_dir: str, path: str) -> bool:
    """An archive is done when its sidecar manifest exists and matches
    the source file's current (size, mtime) — a re-crawled/replaced
    archive re-ingests."""
    side = os.path.join(ingest_dir, _ingest_name(path) + ".json")
    if not os.path.exists(side):
        return False
    try:
        with open(side) as f:
            m = json.load(f)
        st = os.stat(path)
    except (OSError, json.JSONDecodeError):
        return False
    return (m.get("size") == st.st_size
            and m.get("mtime_ns") == st.st_mtime_ns)


def ingest_warc_resumable(paths: list[str], ingest_dir: str, *,
                          lang: str = "") -> dict:
    """File-granular resumable WARC ingest — the 100-TB ingest unit is
    the archive file (one CommonCrawl segment ≈ 1 GB), so resume must
    be file-granular too, not stage-granular: a run killed mid-ingest
    re-parses only the archives whose completion sidecar is missing.

    One Ray task per pending archive parses it and writes
    ``<ingest_dir>/<stem>.parquet`` via tmp + atomic rename, then the
    sidecar ``<stem>.json`` (written LAST — its presence is the
    completion marker, recording the source's size/mtime so a changed
    archive re-ingests).  Completed archives are never re-read.

    Returns ``{"parsed": n, "skipped": n}``; read the pages back with
    ``read_parquet_clean(ingest_dir, file_extensions=["parquet"])``."""
    import ray

    os.makedirs(ingest_dir, exist_ok=True)
    pending = [p for p in paths if not _ingest_done(ingest_dir, p)]

    @ray.remote
    def _one(path: str) -> int:
        import pyarrow.parquet as pq

        with open(path, "rb") as f:
            t = warc_bytes_to_pages(f.read(), lang=lang)
        stem = _ingest_name(path)
        out = os.path.join(ingest_dir, stem + ".parquet")
        tmp = out + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, out)
        st = os.stat(path)
        side_tmp = os.path.join(ingest_dir, stem + ".json.tmp")
        with open(side_tmp, "w") as f:
            json.dump({"source": os.path.abspath(path),
                       "size": st.st_size,
                       "mtime_ns": st.st_mtime_ns,
                       "rows": t.num_rows}, f)
        os.replace(side_tmp, os.path.join(ingest_dir, stem + ".json"))
        return t.num_rows

    ray.get([_one.remote(p) for p in pending])
    return {"parsed": len(pending), "skipped": len(paths) - len(pending)}


# ------------------------------------------------------------------
# writer (tests + exporting derived corpora back to archive form)

def record_bytes(headers: dict[str, str], content: bytes) -> bytes:
    lines = ["WARC/1.0"] + [f"{k}: {v}" for k, v in headers.items()]
    lines.append(f"Content-Length: {len(content)}")
    return "\r\n".join(lines).encode() + _CRLF2 + content + _CRLF2


def response_record(uri: str, date: str, body: bytes,
                    http_status: str = "200 OK") -> bytes:
    payload = (f"HTTP/1.1 {http_status}\r\n"
               f"Content-Type: text/html\r\n\r\n").encode() + body
    return record_bytes(
        {"WARC-Type": "response", "WARC-Target-URI": uri,
         "WARC-Date": date}, payload)


def warc_gz_bytes(records: list[bytes]) -> bytes:
    """Concatenated gzip members, one per record (the CommonCrawl
    layout)."""
    return b"".join(
        gzip.compress(r, compresslevel=1, mtime=0) for r in records)
