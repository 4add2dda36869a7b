"""Domain blocklist filtering — the robots/spam/NSFW-list pass every
web-corpus pipeline runs before anything expensive touches the text
(CCNet, RefinedWeb, Dolma all filter on curated domain lists first).

Shape: the blocklist is a curated, fixed-size artifact (UT1/Dolma
blocklists are a few million lines — MBs against a 100 TB corpus), so
it broadcasts once via ``ray.put`` as a SORTED string array; every
task extracts the registrable domain with one RE2 kernel and runs one
``join.sorted_lookup`` membership probe.  Map-only, zero shuffles, and
the cheapest possible stage to run FIRST so blocked pages never reach
extraction/canonicalization.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# host = everything between the scheme and the first /, :, ?, or #
# (named group: pc.extract_regex requires one; DuckDB numbers it 1)
DOMAIN_RE = r"^[a-z][a-z0-9+.\-]*://(?P<host>[^/:?#]+)"


def extract_domain(urls) -> pa.Array:
    """Lower-cased host per URL ('' for unparseable)."""
    got = pc.extract_regex(urls, DOMAIN_RE)
    host = pc.struct_field(got, "host")
    return pc.utf8_lower(pc.fill_null(host, ""))


def mark_blocklisted(batch: pa.Table, blocked: np.ndarray, *,
                     url_col: str = "url") -> pa.Table:
    """Append (domain, blocked) columns; ``blocked`` is the SORTED
    numpy array of blocklisted domain strings (ray.get of the
    broadcast ref)."""
    from nxsearch_ray.stages.join import sorted_lookup

    dom = extract_domain(batch.column(url_col))
    if isinstance(dom, pa.ChunkedArray):
        dom = dom.combine_chunks()
    _, hit = sorted_lookup(blocked, np.asarray(dom.to_pylist(),
                                               dtype=object))
    return batch.append_column(
        pa.field("domain", pa.string()), dom) \
        .append_column(pa.field("blocked", pa.bool_()),
                       pa.array(hit, type=pa.bool_()))


def filter_blocklist(ds, blocklist, *, url_col: str = "url",
                     keep_blocked: bool = False):
    """Pages Dataset → (page rows + domain/blocked columns), rows
    whose domain is blocklisted dropped (or kept flagged with
    ``keep_blocked=True`` for audit output)."""
    import ray

    blocked_ref = ray.put(np.asarray(sorted(set(blocklist)),
                                     dtype=object))

    def fn(t: pa.Table) -> pa.Table:
        import ray as _ray

        out = mark_blocklisted(t, _ray.get(blocked_ref),
                               url_col=url_col)
        if not keep_blocked:
            out = out.filter(pc.invert(out.column("blocked")))
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def blocklist_sql(blocklist, pages_cte: str, *,
                  url_col: str = "url") -> str:
    """DuckDB twin: same domain regex, IN-list membership, flag
    output (keep_blocked=True form — the auditable one)."""
    quoted = ", ".join(
        "'" + d.replace("'", "''") + "'" for d in sorted(set(blocklist)))
    return f"""
WITH {pages_cte}
SELECT page_id,
       lower(coalesce(regexp_extract({url_col},
         '{DOMAIN_RE}', 1), '')) AS domain,
       lower(coalesce(regexp_extract({url_col},
         '{DOMAIN_RE}', 1), '')) IN ({quoted}) AS blocked
FROM pages
"""
