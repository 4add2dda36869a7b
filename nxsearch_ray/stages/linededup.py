"""Corpus-level line deduplication — the CCNet-style boilerplate pass.

Large web corpora repeat whole lines across pages (navigation, cookie
banners, footers); CCNet (Wenzek et al. 2019) removes every line whose
hash occurs in more than one document before any further dedup.  The
reference engine has no direct analogue (its inverted index would
surface such lines as high-doc-freq terms); this stage is part of the
training-data operator set layered on top.

Shape of the computation (all vectorized, two grouped scans):

1. ``reflow_lines`` — explode each page into lines.  The sandbox corpus
   is single-line word soup, so "lines" are deterministic fixed-width
   word windows (``words_per_line``), the same reflow the SQL oracle
   applies; on real multi-line text pass ``words_per_line=None`` to
   split on newlines instead.
2. Census: distinct ``(line_key, page_id)`` pairs (deduped inside the
   explode batch — a page's lines never span batches), then one
   grouped scan on ``line_key`` (``stages.shuffle.grouped``): each
   key's run length is its documents-per-line.
3. Keys with ``count >= min_docs`` form the boilerplate set — tiny
   relative to the corpus (it IS the repeated content), built into one
   sorted array off-driver (``stages.join.id_set_ref``) and broadcast
   by ObjectRef; every worker filters lines against it with
   ``stages.join.sorted_lookup``.  This is the standard
   CCNet plan; if the dup set ever outgrew memory the same census
   output feeds the `stages.join.anti_join` path instead.
4. Reassembly: one grouped scan on ``page_id``
   (``stages.shuffle.grouped``, each page's lines in ``line_no``
   order); its task fetches the boilerplate set, and one
   ``pc.binary_join`` per partition glues the surviving lines back
   into ``clean_text``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from nxsearch_ray.functions.hashing import hash_strings, string_buffers
from nxsearch_ray.stages.join import id_set_ref, sorted_lookup
from nxsearch_ray.stages.shuffle import grouped


def reflow_lines(batch: pa.Table, *, text_col: str = "text",
                 id_col: str = "page_id",
                 words_per_line: int | None = 10) -> pa.Table:
    """Explode pages into (page_id, line_no, line, line_key) rows.

    With ``words_per_line=N`` the text is split on single spaces and
    reflowed into N-word lines (matching the SQL oracle's
    ``(pos-1)//N`` grouping); with ``None`` it splits on newlines.
    ``line_key`` is a 64-bit content hash used for the census and the
    boilerplate filter."""
    text = batch.column(text_col)
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    ids = batch.column(id_col)

    if words_per_line is None:
        lines_list = pc.split_pattern(text, "\n")
        line = lines_list.values
        offsets = lines_list.offsets.to_numpy().astype(np.int64)
        counts = np.diff(offsets)
        line_doc = np.repeat(np.arange(len(batch)), counts)
        line_no = np.arange(len(line), dtype=np.int64) - \
            np.repeat(offsets[:-1], counts)
    else:
        w = int(words_per_line)
        parts = pc.split_pattern(text, " ")
        offsets = parts.offsets.to_numpy().astype(np.int64)
        counts = np.diff(offsets)                 # words per page, >= 1
        n_lines = (counts + w - 1) // w
        line_doc = np.repeat(np.arange(len(batch)), n_lines)
        total = int(n_lines.sum())
        starts = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(n_lines, out=starts[1:])
        line_no = np.arange(total, dtype=np.int64) - \
            np.repeat(starts[:-1], n_lines)
        word_start = offsets[:-1][line_doc] + line_no * w
        line_offsets = np.empty(total + 1, dtype=np.int64)
        line_offsets[:-1] = word_start
        line_offsets[-1] = offsets[-1]
        if offsets[-1] <= np.iinfo(np.int32).max:
            lines_list = pa.ListArray.from_arrays(
                pa.array(line_offsets, type=pa.int32()), parts.values)
        else:                                     # huge batch fallback
            lines_list = pa.LargeListArray.from_arrays(
                pa.array(line_offsets, type=pa.int64()), parts.values)
        line = pc.binary_join(lines_list, " ")

    offs, data = string_buffers(line)
    # int64 bit-view of the 64-bit hash: the boilerplate key set and
    # its probe in line_dedup compare signed keys
    keys = hash_strings(offsets=offs, data=data).view(np.int64)
    return pa.table({
        id_col: ids.take(pa.array(line_doc, type=pa.int64())),
        "line_no": pa.array(line_no, type=pa.int64()),
        "line": line,
        "line_key": pa.array(keys, type=pa.int64()),
    })


def _distinct_pairs(batch: pa.Table, id_col: str) -> pa.Table:
    """Distinct (line_key, page_id) pairs within one explode batch.
    Pages never span batches, so local distinct ⇒ global distinct."""
    k = batch.column("line_key").to_numpy()
    p = batch.column(id_col).to_numpy()
    # one lexsort-free pass: pack is unsafe for arbitrary ids, so sort
    # the pair columns together
    order = np.lexsort((p, k))
    ks, ps = k[order], p[order]
    first = np.empty(len(ks), dtype=bool)
    first[:1] = True
    first[1:] = (ks[1:] != ks[:-1]) | (ps[1:] != ps[:-1])
    return pa.table({"line_key": pa.array(ks[first], type=pa.int64()),
                     id_col: pa.array(ps[first])})


def boilerplate_keys(lines_ds, *, id_col: str = "page_id",
                     min_docs: int = 2):
    """ObjectRef to the sorted line_keys occurring in >= min_docs
    documents, built off-driver (stages/join.id_set_ref)."""
    pairs = lines_ds.select_columns(["line_key", id_col]).map_batches(
        lambda b: _distinct_pairs(b, id_col), batch_format="pyarrow")
    schema = pa.schema([("line_key", pa.int64())])

    def over(t: pa.Table, starts: np.ndarray) -> pa.Table:
        n_docs = np.diff(starts, append=t.num_rows)
        return t.select(["line_key"]).take(starts[n_docs >= min_docs])

    return id_set_ref(grouped(pairs, ["line_key"], over, schema),
                      ["line_key"])


def line_dedup(pages_ds, *, text_col: str = "text",
               id_col: str = "page_id", words_per_line: int | None = 10,
               min_docs: int = 2, line_sep: str = "\n"):
    """Remove every line occurring in >= min_docs documents and rebuild
    each document's text — returns a Dataset of
    ``(page_id, n_lines, n_lines_kept, clean_text)``.

    One census exchange (a grouped scan on line_key) + one grouped scan
    on page_id for reassembly; the boilerplate key set is built
    off-driver and travels once by ObjectRef.  SQL twin:
    `line_dedup_sql`."""
    import ray

    lines = pages_ds.map_batches(
        lambda b: reflow_lines(b, text_col=text_col, id_col=id_col,
                               words_per_line=words_per_line),
        batch_format="pyarrow")
    dup_ref = boilerplate_keys(lines, id_col=id_col, min_docs=min_docs)
    schema = pa.schema([(id_col, pa.int64()), ("n_lines", pa.int64()),
                        ("n_lines_kept", pa.int64()),
                        ("clean_text", pa.string())])

    def rebuild(t: pa.Table, starts: np.ndarray) -> pa.Table:
        """One row per page run (lines in ``line_no`` order): the
        lines not in the boilerplate set, joined."""
        _, is_dup = sorted_lookup(ray.get(dup_ref),
                                  t.column("line_key").to_numpy())
        keep = ~is_dup
        n_kept = np.add.reduceat(keep.astype(np.int64), starts)
        # each page's kept lines: cumulative kept counts in page order
        offs = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(n_kept, out=offs[1:])
        lines = t.filter(pa.array(keep)).column("line").combine_chunks()
        return pa.Table.from_arrays(
            [t.column(id_col).take(starts),
             np.diff(starts, append=t.num_rows), n_kept,
             pc.binary_join(pa.ListArray.from_arrays(
                 pa.array(offs, type=pa.int32()), lines), line_sep)],
            schema=schema)

    return grouped(lines, [id_col], rebuild, schema, then_by=["line_no"])


def line_dedup_sql(pages_cte: str, *, words_per_line: int = 10,
                   min_docs: int = 2) -> str:
    """DuckDB query mirroring `line_dedup` over the pages CTE."""
    return f"""
WITH {pages_cte},
w AS (SELECT page_id,
             unnest(string_split(text, ' ')) AS w,
             unnest(range(1, len(string_split(text, ' ')) + 1)) AS pos
      FROM pages),
l AS (SELECT page_id, (pos - 1) // {words_per_line} AS line_no,
             string_agg(w, ' ' ORDER BY pos) AS line
      FROM w GROUP BY 1, 2),
census AS (SELECT line, count(DISTINCT page_id) AS nd
           FROM l GROUP BY 1),
k AS (SELECT l.page_id, l.line_no, l.line, c.nd >= {min_docs} AS is_dup
      FROM l JOIN census c USING (line))
SELECT page_id,
       count(*) AS n_lines,
       coalesce(sum(CASE WHEN is_dup THEN 0 ELSE 1 END), 0)::BIGINT
         AS n_lines_kept,
       coalesce(string_agg(CASE WHEN is_dup THEN NULL ELSE line END,
                           chr(10) ORDER BY line_no), '') AS clean_text
FROM k GROUP BY page_id
"""
