"""URL canonicalization — the standard web-corpus recrawl-dedup
preprocessing (strip fragments, lowercase scheme+host, drop default
ports and ``www.``, sort query parameters) so that trivially-different
URLs of the same resource collapse to one key before any
latest-crawl-wins or per-URL dedup step.

Every rule is a deterministic string rewrite expressible both as Arrow
kernels (extract/replace regex + one list-scoped sort for the query
params) and as DuckDB SQL (`url_canonicalize_sql`), so the driver
oracle checks the operator bit-for-bit.  No Python per row: the only
non-kernel step is one ``np.lexsort`` over the exploded query-param
strings.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PREFIX_RE = r"^[a-zA-Z][a-zA-Z0-9+.\-]*://[^/?#]*"


def _sort_query_params(q: pa.Array) -> pa.Array:
    """'b=2&a=1&' → 'a=1&b=2' per row (empty params dropped, '' stays
    '').  One split + one lexsort + one join."""
    parts = pc.split_pattern(q, "&")
    offsets = parts.offsets.to_numpy().astype(np.int64)
    vals = parts.values
    counts = np.diff(offsets)
    parents = np.repeat(np.arange(len(q), dtype=np.int64), counts)
    keep = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
    vals_np = np.asarray(vals.to_pylist(), dtype=object)
    parents, vals_np = parents[keep], vals_np[keep]
    order = np.lexsort((vals_np, parents))
    parents, vals_np = parents[order], vals_np[order]
    kept_per_row = np.bincount(parents, minlength=len(q))
    new_offsets = np.zeros(len(q) + 1, dtype=np.int64)
    np.cumsum(kept_per_row, out=new_offsets[1:])
    lst = pa.ListArray.from_arrays(
        pa.array(new_offsets, type=pa.int32()),
        pa.array(vals_np, type=pa.string()))
    return pc.binary_join(lst, "&")


def url_canonicalize(batch: pa.Table, *, url_col: str = "url",
                     out_col: str = "url_canon") -> pa.Table:
    """Append the canonical URL column.  Rules (SQL twin in
    `url_canonicalize_sql`):

      1. drop the ``#fragment``;
      2. lowercase scheme+host; strip ``:80``/``:443`` default ports;
         strip a leading ``www.``;
      3. sort query parameters byte-wise, dropping empty ones; drop an
         empty ``?``.
    """
    url = batch.column(url_col)
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    no_frag = pc.replace_substring_regex(url, pattern="#.*$",
                                         replacement="")
    prefix = pc.struct_field(
        pc.extract_regex(no_frag, f"(?P<p>{_PREFIX_RE})"), "p")
    prefix = pc.utf8_lower(prefix)
    prefix = pc.replace_substring_regex(prefix, pattern=":(80|443)$",
                                        replacement="")
    prefix = pc.replace_substring_regex(prefix, pattern="://www\\.",
                                        replacement="://")
    rest = pc.replace_substring_regex(no_frag, pattern=_PREFIX_RE,
                                      replacement="")
    path = pc.replace_substring_regex(rest, pattern=r"\?.*$",
                                      replacement="")
    q = pc.struct_field(pc.extract_regex(rest, r"\?(?P<q>.*)"), "q")
    q = _sort_query_params(pc.fill_null(q, ""))
    qmark = pc.if_else(pc.equal(q, ""), "", "?")
    canon = pc.binary_join_element_wise(
        pc.fill_null(prefix, ""), path, qmark, q, "")
    return batch.append_column(out_col, canon)


def url_canonicalize_sql(url_expr: str = "url") -> str:
    """DuckDB expression producing the same canonical URL."""
    u = url_expr
    nofrag = f"regexp_replace({u}, '#.*$', '')"
    raw_prefix = f"regexp_extract({nofrag}, '{_PREFIX_RE}')"
    prefix = (f"regexp_replace(regexp_replace(lower({raw_prefix}), "
              f"':(80|443)$', ''), '://www\\.', '://')")
    rest = f"regexp_replace({nofrag}, '{_PREFIX_RE}', '')"
    path = f"regexp_replace({rest}, '\\?.*$', '')"
    q = f"regexp_extract({rest}, '\\?(.*)', 1)"
    # coalesce: array_to_string of an empty list is NULL in DuckDB
    qsorted = (f"coalesce(array_to_string(list_sort(list_filter("
               f"string_split({q}, '&'), x -> x <> '')), '&'), '')")
    return (f"{prefix} || {path} || "
            f"CASE WHEN {qsorted} = '' THEN '' "
            f"ELSE '?' || {qsorted} END")
