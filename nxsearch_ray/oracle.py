"""Pure-python oracle for the dedup pipeline (≤ ~10k docs).

Implements EXACTLY the same semantics as the distributed pipeline —
same hashes, same candidate passes, same skew policy, same decision
rules, same clustering — with plain dicts and loops.  Used by tests to
pin the distributed implementation (SURVEY.md §5 item 3: "pipeline
output must match oracle clusters exactly at same config").
"""

from __future__ import annotations

import collections

import numpy as np
import pyarrow as pa

from nxsearch_ray.config import PipelineConfig
from nxsearch_ray.functions import hashing as H
from nxsearch_ray.functions.suffix import lcs_tokens
from nxsearch_ray.stages.canonicalize import CanonicalizeActor
from nxsearch_ray.stages.pairs import pairs_within
from nxsearch_ray.stages.signatures import SignatureActor, list_column_numpy
from nxsearch_ray.state.unionfind import UnionFind


def oracle_signatures(pages: pa.Table, cfg: PipelineConfig
                      ) -> tuple[pa.Table, pa.Table]:
    """(canonical rows, signature rows) of a pages table (must already
    have `text`; html not needed)."""
    canon = CanonicalizeActor(cfg)(pages if "html" not in
                                   pages.column_names
                                   else pages.drop_columns(["html"]))
    return canon, SignatureActor(cfg)(canon)


def candidate_buckets(sigs: pa.Table, cfg: PipelineConfig
                      ) -> dict[str, dict[int, list[int]]]:
    """Every candidate bucket's member page ids, by source (exact,
    minhash, simhash, suffix) and bucket key, before the skew policy."""
    pids = sigs.column("page_id").to_numpy()
    mh_flat, _ = list_column_numpy(sigs.column("minhash"))
    mh = mh_flat.reshape(len(pids), cfg.num_perms)
    sim = sigs.column("simhash").to_numpy().astype(np.uint64)
    an_flat, an_off = list_column_numpy(sigs.column("anchors"))
    seqh = sigs.column("seq_hash").to_numpy().astype(np.uint64)

    buckets: dict[str, dict[int, list[int]]] = {
        "exact": collections.defaultdict(list),
        "minhash": collections.defaultdict(list),
        "simhash": collections.defaultdict(list),
        "suffix": collections.defaultdict(list),
    }
    for i, p in enumerate(pids):
        buckets["exact"][int(seqh[i])].append(int(p))

    bk = H.band_keys(mh, cfg.lsh_bands, cfg.lsh_rows, cfg.seed)
    for b in range(cfg.lsh_bands):
        for i, p in enumerate(pids):
            buckets["minhash"][int(bk[i, b])].append(int(p))

    nchunks = cfg.simhash_hamming + 1
    width = cfg.simhash_bits // nchunks
    mask = np.uint64((1 << width) - 1)
    for c in range(nchunks):
        chunk = (sim >> np.uint64(c * width)) & mask
        keys = H.splitmix64(chunk ^ H.splitmix64(
            np.array(c + 0x5151, dtype=np.uint64)))
        for i, p in enumerate(pids):
            buckets["simhash"][int(keys[i])].append(int(p))

    for i, p in enumerate(pids):
        for a in an_flat[an_off[i]:an_off[i + 1]]:
            buckets["suffix"][int(a)].append(int(p))
    return buckets


def oracle_clusters(pages: pa.Table, cfg: PipelineConfig
                    ) -> tuple[dict[int, int], set[tuple[int, int]]]:
    """(page_id → cluster_id, verified pair set) for a pages table
    (must already have `text`; html not needed)."""
    canon, sigs = oracle_signatures(pages, cfg)

    pids = sigs.column("page_id").to_numpy()
    n = len(pids)
    res_flat, _ = list_column_numpy(sigs.column("mh_res"), dtype=np.uint8)
    mh_res = res_flat.reshape(n, cfg.num_perms)
    sim = sigs.column("simhash").to_numpy().astype(np.uint64)
    bk_flat, bk_off = list_column_numpy(sigs.column("bottomk"),
                                        dtype=np.uint32)
    an_off = list_column_numpy(sigs.column("anchors"))[1]
    tok_flat, tok_off = list_column_numpy(canon.column("token_ids"))
    row = {int(p): i for i, p in enumerate(pids)}

    pair_counts: dict[tuple[int, int], collections.Counter] = \
        collections.defaultdict(collections.Counter)
    for source, bs in candidate_buckets(sigs, cfg).items():
        skip = cfg.anchor_bucket_max if source == "suffix" else None
        for members in bs.values():
            a_arr, b_arr = pairs_within(
                np.asarray(members, dtype=np.int64), cfg.hot_bucket_cap,
                skip)
            if source == "simhash" and len(a_arr):
                # in-bucket Hamming filter (pairs.multi_candidate_pairs
                # applies the same rule): a w-bit chunk collides by
                # chance between unrelated docs; only true Hamming-
                # close pairs leave the bucket
                ia = np.array([row[int(a)] for a in a_arr])
                ib = np.array([row[int(b)] for b in b_arr])
                keep = H.hamming64(sim[ia], sim[ib]) \
                    <= cfg.simhash_hamming
                a_arr, b_arr = a_arr[keep], b_arr[keep]
            for a, b in zip(a_arr.tolist(), b_arr.tolist()):
                pair_counts[(a, b)][source] += 1

    # suffix co-occurrence filter (union_pair_sources), capped at the
    # achievable-hit bound: min over the pair of the sides' anchor
    # counts (a fully-contained 1-shingle doc can share only 1 bucket)
    n_anchors = an_off[1:] - an_off[:-1]
    pair_sources: dict[tuple[int, int], set[str]] = {}
    for key, cnt in pair_counts.items():
        srcs = {s for s in cnt if s != "suffix"}
        bound = min(int(n_anchors[row[key[0]]]),
                    int(n_anchors[row[key[1]]]))
        required = max(1, min(cfg.min_anchor_hits, bound))
        if cnt.get("suffix", 0) >= required:
            srcs.add("suffix")
        if srcs:
            pair_sources[key] = srcs

    from nxsearch_ray.stages.suffix import exact_shingle_jaccard

    verified: set[tuple[int, int]] = set()
    for (a, b), srcs in pair_sources.items():
        ia, ib = row[a], row[b]
        est_j = float((mh_res[ia] == mh_res[ib]).mean())
        ham = int(H.hamming64(sim[ia:ia + 1], sim[ib:ib + 1])[0])
        keep = ("exact" in srcs) or est_j >= cfg.jaccard_threshold \
            or ham <= cfg.simhash_hamming
        if not keep:
            # borderline screen → exact adjudication (same rules as
            # stages/verify.apply_rules + stages/suffix)
            from nxsearch_ray.stages.verify import bottomk_pair_scores

            _, con_arr = bottomk_pair_scores(
                bk_flat, bk_off, np.array([ia]), np.array([ib]),
                cfg.bottomk)
            con_bk = float(con_arr[0])
            screened = con_bk >= 0.5 * cfg.containment_threshold or \
                (cfg.jaccard_borderline <= est_j < cfg.jaccard_threshold)
            if screened:
                ta = tok_flat[tok_off[ia]:tok_off[ia + 1]]
                tb = tok_flat[tok_off[ib]:tok_off[ib + 1]]
                m = min(len(ta), len(tb))
                if m:
                    con = lcs_tokens(ta.tolist(), tb.tolist()) / m
                    jac = exact_shingle_jaccard(ta, tb, cfg.shingle_k)
                    keep = con >= cfg.containment_threshold or \
                        jac >= cfg.jaccard_threshold
        if keep:
            verified.add((a, b))

    uf = UnionFind()
    for a, b in verified:
        uf.union(a, b)
    return uf.labels_min(), verified
