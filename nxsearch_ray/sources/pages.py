"""The `pages` input table — Common-Crawl-style web pages.

The north rule's input shape is ``(url: string, warc_ts: timestamp,
html: binary, text: string, lang: string)``.  The sandbox test tables
only ship a ``documents`` table ``(doc_id, text, lang, source,
n_chars)``, so this module derives the pages table *deterministically*
from it — every derivation below is also expressible in ANSI SQL so the
DuckDB oracle can rebuild the identical table (see
``__ray_entry__.oracle_sql``).

Duplicate planting (so the dedup pipelines have work to do, with known
ground truth):

  * every doc          → one ``orig``  row, ``page_id = doc_id*4``
  * ``doc_id % 7 == 0``  → one ``copy``  row (exact duplicate, new url,
    +1h crawl ts), ``page_id = doc_id*4+1``
  * ``doc_id % 11 == 0`` → one ``tail``  row (near duplicate: first five
    whitespace words removed), ``page_id = doc_id*4+2``

``page_id`` is the compact int64 doc id used everywhere downstream
(the analogue of the reference's caller-assigned ``nxs_doc_id_t``,
reference src/core/nxs.h:21 — there the caller picks the id; here the
derivation picks it).

HTML wrapping is a fixed template; the extraction stage
(`stages/html_extract.py`) must recover ``text`` byte-identically —
that is the per-row invariant the correctness gate checks.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

PAGES_SCHEMA = pa.schema([
    ("page_id", pa.int64()),
    ("url", pa.string()),
    ("warc_ts", pa.timestamp("us")),
    ("html", pa.binary()),
    ("text", pa.string()),
    ("lang", pa.string()),
    ("variant", pa.string()),
])

# SQL-equivalent: regexp_replace(text, '^(\S+ ){5}', '')
_TAIL_RE = re.compile(r"^(\S+ ){5}")
_EPOCH_US = 1704067200_000_000  # TIMESTAMP '2024-01-01 00:00:00' in µs


def _wrap_html(url: pa.Array, text: pa.Array) -> pa.Array:
    """'<html><head><title>'||url||'</title></head><body><p>'||text||
    '</p></body></html>' as binary — same expression the SQL oracle uses."""
    s = pc.binary_join_element_wise(
        "<html><head><title>", url, "</title></head><body><p>",
        text, "</p></body></html>", "")
    return s.cast(pa.binary())


def _variant_table(doc_id: np.ndarray, text: pa.Array, lang: pa.Array,
                   source: pa.Array, *, offset: int, suffix: str,
                   ts_shift_s: int, variant: str) -> pa.Table:
    page_id = pa.array(doc_id * 4 + offset, type=pa.int64())
    url = pc.binary_join_element_wise(
        "https://", source, ".example.org/doc/",
        pa.array(doc_id.astype("U"), type=pa.string()), suffix, "")
    ts = pa.array(
        _EPOCH_US + (doc_id % 86400) * 1_000_000 + ts_shift_s * 1_000_000,
        type=pa.int64()).cast(pa.timestamp("us"))
    html = _wrap_html(url, text)
    var = pa.array([variant] * len(doc_id), type=pa.string())
    return pa.Table.from_arrays(
        [page_id, url, ts, html, text.combine_chunks()
         if isinstance(text, pa.ChunkedArray) else text, lang, var],
        schema=PAGES_SCHEMA)


def pages_from_documents(batch: pa.Table) -> pa.Table:
    """Vectorized pages derivation over one `documents` batch."""
    doc_id = batch.column("doc_id").to_numpy()
    text = batch.column("text")
    lang = batch.column("lang")
    source = batch.column("source")

    parts = [_variant_table(doc_id, text, lang, source, offset=0,
                            suffix="", ts_shift_s=0, variant="orig")]

    copy_mask = doc_id % 7 == 0
    if copy_mask.any():
        sub = batch.filter(pa.array(copy_mask))
        parts.append(_variant_table(
            doc_id[copy_mask], sub.column("text"), sub.column("lang"),
            sub.column("source"), offset=1, suffix="/copy",
            ts_shift_s=3600, variant="copy"))

    tail_mask = doc_id % 11 == 0
    if tail_mask.any():
        sub = batch.filter(pa.array(tail_mask))
        tail_text = pa.array(
            [_TAIL_RE.sub("", t, count=1) for t in
             sub.column("text").to_pylist()], type=pa.string())
        parts.append(_variant_table(
            doc_id[tail_mask], tail_text, sub.column("lang"),
            sub.column("source"), offset=2, suffix="/tail",
            ts_shift_s=7200, variant="tail"))

    return pa.concat_tables(parts)


def pages_dataset(sf_dir: str, *, include_html: bool = True):
    """The pages derived from {sf_dir}/documents.parquet: an engine read
    whose consuming tasks map their rows through ``pages_from_documents``
    (``sources.io.read_parquet_clean``), pruned at the read;
    ``include_html=False`` drops the html column after the derivation."""
    from nxsearch_ray.sources.io import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"]).map_batches(
            pages_from_documents, batch_format="pyarrow")
    if not include_html:
        ds = ds.select_columns([n for n in PAGES_SCHEMA.names
                                if n != "html"])
    return ds


def pages_from_text_files(paths, *, lang: str = "en"):
    """Ingest raw text/HTML files as a pages Dataset — the analogue of
    the reference's file/dir ingest CLI (reference
    src/utils/benchmark.c:72-109 `index_file`/`index_dir`, doc_id =
    running counter; here page_id = stable hash of the path).

    Files are read distributed (`read_binary_files`); `.html` payloads
    go through the extraction stage downstream, plain text is used
    as-is.
    """
    import hashlib

    import ray.data

    ds = ray.data.read_binary_files(paths, include_paths=True)

    def to_pages(t: pa.Table) -> pa.Table:
        paths_col = t.column("path").to_pylist()
        payloads = t.column("bytes").to_pylist()
        page_ids, urls, htmls, texts = [], [], [], []
        for p, raw in zip(paths_col, payloads):
            page_ids.append(int.from_bytes(
                hashlib.md5(p.encode()).digest()[:8], "big") >> 1)
            urls.append("file://" + p)
            if p.endswith((".html", ".htm")):
                htmls.append(raw)
                texts.append("")
            else:
                htmls.append(b"")
                texts.append(raw.decode("utf-8", errors="replace"))
        n = len(paths_col)
        ts = pa.array(np.zeros(n, dtype=np.int64)).cast(
            pa.timestamp("us"))
        return pa.Table.from_arrays(
            [pa.array(page_ids, type=pa.int64()),
             pa.array(urls, type=pa.string()), ts,
             pa.array(htmls, type=pa.binary()),
             pa.array(texts, type=pa.string()),
             pa.array([lang] * n, type=pa.string()),
             pa.array(["file"] * n, type=pa.string())],
            schema=PAGES_SCHEMA)

    return ds.map_batches(to_pages, batch_format="pyarrow")


def pages_table(sf_dir: str) -> pa.Table:
    """Driver-side pyarrow variant (tests / oracles only — not the
    distributed path)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text", "lang", "source"])
    return pages_from_documents(t)
