"""HTML → text extraction stage.

The reference never stores raw documents in the index (the service
stores them out-of-band, svc-src/nxsearch_storage.lua:91-117); our
pipeline receives ``html: binary`` and must recover the page text
**byte-identically** (the north rule's per-row invariant).  Pages are
wrapped with the fixed template from ``sources/pages.py``, so
extraction is a single vectorized RE2 rewrite over the whole batch —
no per-row Python.

The stage also *drops the html column* immediately (SURVEY.md §7
"wide rows": the binary payload dominates block size; projecting it
away here keeps every downstream block small).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

_EXTRACT_PATTERN = r"(?s)^.*?<body><p>(.*)</p></body></html>$"


def extract_text(batch: pa.Table) -> pa.Table:
    """Vectorized extraction: html → extracted_text; html column dropped.

    Rows whose html does not match the template keep their existing
    ``text`` (pass-through) — extraction must never invent bytes.
    """
    html_str = batch.column("html").cast(pa.string())
    extracted = pc.replace_substring_regex(
        html_str, pattern=_EXTRACT_PATTERN, replacement=r"\1")
    # Non-matching rows come back unchanged (full html) — detect and
    # fall back to the text column.
    matched = pc.match_substring_regex(html_str, _EXTRACT_PATTERN)
    if "text" in batch.column_names:
        extracted = pc.if_else(matched, extracted, batch.column("text"))
        batch = batch.drop_columns(["text"])
    out = batch.drop_columns(["html"]).append_column(
        pa.field("text", pa.string()), extracted)
    return out

