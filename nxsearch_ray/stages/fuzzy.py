"""Fuzzy term lookup over the corpus vocabulary.

The analogue of the reference's ``idxterm_fuzzysearch``
(src/index/idxterm.c:210-249): an unresolved token is matched against
the term vocabulary with a BK-tree at Levenshtein tolerance 2
(LEVDIST_TOLERANCE, src/index/index.h:26) and resolved to the MOST
FREQUENT candidate (``idxterm_get_total`` — total occurrences across
the corpus).  Pick rule here: exact hit (distance 0) wins outright,
else highest total, ties broken by smallest term (the reference's
selection loop *intends* max-total — its comparison variable is never
updated, an upstream quirk we do not replicate; the deterministic
tie-break is ours, the reference has none).

Dataflow:

  * **vocabulary** — one grouped scan over the canonical token table
    (stages/shuffle.grouped): explode one row per token occurrence,
    group by term, each term's run length is its total.  Term strings
    are required, so the canonicalization stage must run with
    ``include_tokens=True``.
  * **vocabulary index** — built in one remote task (sorted term array
    + totals), broadcast by ObjectRef.
  * **bulk lookup** — a task wave with per-worker state
    (stages/join.broadcast_map): each worker builds the BK-tree ONCE
    per vocabulary ref from the broadcast index (sorted-order inserts
    → identical tree on every worker), then resolves its batches;
    per-probe BK-tree search is the reference's own algorithm and
    cost shape.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from nxsearch_ray.functions.bktree import BKTree

TOLERANCE = 2   # reference src/index/index.h:26 LEVDIST_TOLERANCE


VOCAB_SCHEMA = pa.schema([("term", pa.string()), ("total", pa.int64())])


def vocabulary(canonical_tokens_ds):
    """(term, total) Dataset from a canonicalized Dataset carrying the
    ``tokens`` list<string> column."""
    from nxsearch_ray.stages.shuffle import grouped

    def explode(t: pa.Table) -> pa.Table:
        col = t.column("tokens")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({"term": col.flatten()})

    keyed = canonical_tokens_ds.select_columns(["tokens"]) \
        .map_batches(explode, batch_format="pyarrow")

    def totals(t: pa.Table, starts: np.ndarray) -> pa.Table:
        return pa.Table.from_arrays(
            [t.column("term").take(starts),
             np.diff(starts, append=t.num_rows)], schema=VOCAB_SCHEMA)

    return grouped(keyed, ["term"], totals, VOCAB_SCHEMA)


def _vocab_index(t: pa.Table) -> dict:
    terms = np.asarray(t.column("term").to_pylist(), dtype=object)
    order = np.argsort(terms, kind="stable")
    return {"terms": terms[order].tolist(),
            "totals": t.column("total").to_numpy()[order].astype(np.int64)}


def build_vocab_index_ref(vocab_ds):
    """Sorted (terms, totals) arrays in one remote task
    (stages/join.index_ref) → ObjectRef."""
    from nxsearch_ray.stages.join import index_ref

    return index_ref(vocab_ds, VOCAB_SCHEMA, _vocab_index)


def pick_candidate(cands: list[tuple[str, int]],
                   totals_of) -> str | None:
    """Selection rule shared by the lookup kernel and tests: exact hit
    wins; else max total, tie → smallest term."""
    if not cands:
        return None
    for term, d in cands:
        if d == 0:
            return term
    best = None
    best_key = None
    for term, _d in cands:
        key = (-int(totals_of(term)), term)
        if best_key is None or key < best_key:
            best_key = key
            best = term
    return best


class FuzzyLookupActor:
    """BK-tree over the fetched vocabulary ``v`` (``terms``,
    ``totals``); resolves a ``word`` column to (matched_term, distance,
    total)."""

    def __init__(self, v: dict, tolerance: int = TOLERANCE,
                 word_col: str = "word"):
        self.terms = v["terms"]
        self.totals = v["totals"]
        self.tree = BKTree(self.terms)       # sorted-order inserts
        self.tolerance = tolerance
        self.word_col = word_col
        self._pos = {t: i for i, t in enumerate(self.terms)}

    def resolve(self, word: str) -> tuple[str | None, int]:
        cands = self.tree.search(word, self.tolerance)
        pick = pick_candidate(
            cands, lambda t: self.totals[self._pos[t]])
        if pick is None:
            return None, -1
        d = next(d for t, d in cands if t == pick)
        return pick, d

    def __call__(self, batch: pa.Table) -> pa.Table:
        words = batch.column(self.word_col).to_pylist()
        matched: list[str | None] = []
        dist = np.full(len(words), -1, dtype=np.int32)
        tot = np.zeros(len(words), dtype=np.int64)
        for i, w in enumerate(words):
            m, d = self.resolve(w or "")
            matched.append(m)
            if m is not None:
                dist[i] = d
                tot[i] = self.totals[self._pos[m]]
        return batch.append_column(
            "matched_term", pa.array(matched, type=pa.string())) \
            .append_column("distance", pa.array(dist)) \
            .append_column("term_total", pa.array(tot))


def fuzzy_lookup(words_ds, vocab_ref, *, tolerance: int = TOLERANCE,
                 word_col: str = "word"):
    from nxsearch_ray.stages.join import broadcast_map

    return broadcast_map(words_ds, vocab_ref, functools.partial(
        FuzzyLookupActor, tolerance=tolerance, word_col=word_col),
        batch_size=4096)
