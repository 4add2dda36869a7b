"""Unit tests for the vectorized hashing core, against slow pure-Python
oracles (FIXTURES.md §5 'pure-python oracle' strategy)."""

import numpy as np
import pytest

from nxsearch_ray.functions import hashing as H


def _py_splitmix64(x: int) -> int:
    M = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & M
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M
    return z ^ (z >> 31)


def test_splitmix_matches_scalar():
    xs = np.array([0, 1, 42, 2**63, 2**64 - 1], dtype=np.uint64)
    out = H.splitmix64(xs)
    for x, o in zip(xs.tolist(), out.tolist()):
        assert o == _py_splitmix64(int(x))
    # the edge values as scalars too: the wrap past 2^64 - 1 in the
    # first add, and 0
    for x in (0, 2**64 - 1):
        assert int(H.splitmix64(x)) == _py_splitmix64(x)
        assert np.ndim(H.splitmix64(x)) == 0


def test_hash_strings_deterministic_and_distinct():
    vals = ["cat", "dog", "cat", "", "Ünïcode", "x" * 100]
    h1 = H.hash_strings(vals)
    h2 = H.hash_strings(vals)
    assert (h1 == h2).all()
    assert h1[0] == h1[2]
    assert h1[0] != h1[1]
    assert h1[3] != h1[0]  # empty string hashes too
    h3 = H.hash_strings(vals, seed=7)
    assert (h1 != h3).any()


def test_hash_strings_arrow_buffer_path():
    import pyarrow as pa

    vals = ["alpha", "beta", "gamma", "", "delta"]
    arr = pa.array(vals, type=pa.string())
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32)[: len(arr) + 1]
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    h_buf = H.hash_strings(offsets=offsets, data=data)
    h_list = H.hash_strings(vals)
    assert (h_buf == h_list).all()


def test_shingles_match_per_doc_oracle():
    rng = np.random.default_rng(0)
    k = 3
    docs = [list(rng.integers(0, 50, size=n)) for n in [0, 1, 2, 3, 5, 10]]
    th = [H.hash_strings([str(t) for t in d]) for d in docs]
    flat = np.concatenate([t for t in th if len(t)]) if any(len(t) for t in th) \
        else np.empty(0, dtype=np.uint64)
    offs = np.zeros(len(docs) + 1, dtype=np.int64)
    np.cumsum([len(t) for t in th], out=offs[1:])

    sh, soffs = H.shingle_hashes(flat, offs, k)

    M = (1 << 64) - 1
    C = 0x9E3779B97F4A7C15
    for d, t in enumerate(th):
        got = sh[soffs[d]:soffs[d + 1]].tolist()
        if len(t) == 0:
            assert got == []
            continue
        exp = []
        if len(t) >= k:
            for i in range(len(t) - k + 1):
                h = 0
                for j in range(k):
                    h = ((h * C) ^ int(t[i + j])) & M
                exp.append(h)
        else:
            h = 0
            for x in t:
                h = ((h * C) ^ int(x)) & M
            exp = [h]
        assert got == exp


def test_unique_per_doc():
    flat = np.array([5, 3, 5, 1, 9, 9, 9], dtype=np.uint64)
    offs = np.array([0, 3, 3, 7], dtype=np.int64)
    u, uo = H.unique_per_doc(flat, offs)
    assert uo.tolist() == [0, 2, 2, 4]
    assert u[0:2].tolist() == [3, 5]
    assert u[2:4].tolist() == [1, 9]


@pytest.mark.parametrize("lens,vmax", [
    ([0, 0, 0], 10),                          # every doc empty
    ([0, 5, 0, 0, 3, 0], 4),                  # empty docs among others
    ([50], 1000),                             # a single doc
    ([7] * 40, 6),                            # values shared across docs
    ([1, 0, 2, 3] * (1 << 13) + [5], 50),     # >= 2^15 docs: int64 ids
])
def test_unique_per_doc_equals_lexsort(lens, vmax):
    """The value sort then stable doc sort equals a two-key lexsort."""
    rng = np.random.default_rng(len(lens))
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    flat = rng.integers(0, vmax, offs[-1]).astype(np.uint64)
    docs = np.repeat(np.arange(len(lens)), lens)
    order = np.lexsort((flat, docs))
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = ((flat[order][1:] != flat[order][:-1])
                | (docs[order][1:] != docs[order][:-1]))
    want_off = np.concatenate([[0], np.cumsum(np.bincount(
        docs[order][keep], minlength=len(lens)))])
    u, uo = H.unique_per_doc(flat, offs)
    assert u.dtype == np.uint64
    assert np.array_equal(u, flat[order][keep])
    assert np.array_equal(uo, want_off)


def test_minhash_matches_oracle_and_estimates_jaccard():
    rng = np.random.default_rng(1)
    a = set(map(int, rng.integers(0, 2**63, 300)))
    b = set(list(a)[:200]) | set(map(int, rng.integers(0, 2**63, 100)))
    true_j = len(a & b) / len(a | b)

    def sig_of(s):
        flat = np.array(sorted(s), dtype=np.uint64)
        offs = np.array([0, len(flat)], dtype=np.int64)
        return H.minhash_signatures(flat, offs, 128, seed=42)[0]

    sa, sb = sig_of(a), sig_of(b)
    est = (sa == sb).mean()
    assert abs(est - true_j) < 0.15

    # per-doc min oracle for one permutation; the edge shingle values
    # 0 and 2^64 - 1 are in the doc
    a |= {0, 2**64 - 1}
    flat = np.array(sorted(a), dtype=np.uint64)
    offs = np.array([0, len(flat)], dtype=np.int64)
    sig = H.minhash_signatures(flat, offs, 4, seed=7)
    seeds = H.splitmix64(np.arange(4, dtype=np.uint64) ^ np.uint64(7))
    for p in range(4):
        exp = min(_py_splitmix64(int(x) ^ int(seeds[p])) for x in a)
        assert int(sig[0, p]) == exp


def test_minhash_empty_doc_sentinel():
    sig = H.minhash_signatures(np.empty(0, dtype=np.uint64),
                               np.array([0, 0], dtype=np.int64), 8, seed=1)
    assert (sig == np.uint64(2**64 - 1)).all()


def test_simhash_identical_and_perturbed():
    rng = np.random.default_rng(2)
    base = rng.integers(0, 2**63, 500).astype(np.uint64)
    pert = base.copy()
    pert[:10] = rng.integers(0, 2**63, 10).astype(np.uint64)
    flat = np.concatenate([base, base, pert])
    offs = np.array([0, 500, 1000, 1500], dtype=np.int64)
    sh = H.simhash_signatures(flat, offs)
    assert sh[0] == sh[1]
    d = H.hamming64(sh[0], sh[2])
    assert 0 <= int(d) <= 10


def test_band_keys_equal_iff_band_equal():
    sig = np.arange(256, dtype=np.uint64).reshape(2, 128)
    sig2 = sig.copy()
    bk1 = H.band_keys(sig, 32, 4, seed=3)
    bk2 = H.band_keys(sig2, 32, 4, seed=3)
    assert (bk1 == bk2).all()
    sig2[1, 0] += np.uint64(1)  # perturb band 0 of doc 1
    bk3 = H.band_keys(sig2, 32, 4, seed=3)
    assert bk3[1, 0] != bk1[1, 0]
    assert (bk3[1, 1:] == bk1[1, 1:]).all()


def test_bottomk():
    flat = np.array([1, 2, 3, 4, 10, 20], dtype=np.uint64)
    offs = np.array([0, 4, 6], dtype=np.int64)
    sk, sko = H.bottomk_sketch(flat, offs, 3)
    assert sko.tolist() == [0, 3, 5]
    assert sk.tolist() == [1, 2, 3, 10, 20]


def test_hamming64():
    a = np.array([0b1010, 0], dtype=np.uint64)
    b = np.array([0b0101, 2**64 - 1], dtype=np.uint64)
    assert H.hamming64(a, b).tolist() == [4, 64]


def test_md5_matches_duckdb():
    """The CLI's url ids (``run.add_page_id``) equal the DuckDB
    expression the oracles derive them with, on ASCII and non-ASCII
    urls, including digests whose top bit the shift clears."""
    import hashlib

    import duckdb
    import pyarrow as pa

    from nxsearch_ray.run import add_page_id

    urls = [f"https://src{i}.example.org/doc/{i}/copy" for i in range(32)] \
        + ["https://ex.org/wörld", "https://例え.jp/ページ?q=ü", ""]
    assert any(hashlib.md5(u.encode()).digest()[0] >= 0x80 for u in urls)
    got = add_page_id(pa.table({"url": urls})).column("page_id").to_pylist()
    want = [duckdb.sql(
        "SELECT (('0x' || substr(md5(url), 1, 16))::UBIGINT >> 1)"
        "::BIGINT FROM (SELECT ?::VARCHAR AS url)",
        params=[u]).fetchone()[0] for u in urls]
    assert got == want


def test_content_hash128_full_content_and_slices():
    """content_hash128: every byte contributes (unlike the 32-byte
    prefix hash_strings), hashes are batch-composition-independent,
    slice/chunk layouts agree, empties and nulls hash alike."""
    import pyarrow as pa

    from nxsearch_ray.functions.hashing import (content_hash128,
                                                string_buffers)

    vals = ["hello", "", "hello", "world", "hellp", None,
            "a" * 100_000, "a" * 99_999 + "b", ""]
    arr = pa.array(vals, type=pa.string())
    h1, h2 = content_hash128(*string_buffers(arr))
    assert h1.dtype == np.int64 and h2.dtype == np.int64
    assert h1[0] == h1[2] and h2[0] == h2[2]      # equal strings agree
    assert (h1[0], h2[0]) != (h1[3], h2[3])
    assert (h1[0], h2[0]) != (h1[4], h2[4])       # 1-char diff
    # deep difference far past any prefix window
    assert (h1[6], h2[6]) != (h1[7], h2[7])
    assert h1[1] == h1[8] == h1[5]                # empty == null
    # sliced array (non-zero arrow offset)
    s1, s2 = content_hash128(*string_buffers(arr.slice(2, 3)))
    assert np.array_equal(s1, h1[2:5]) and np.array_equal(s2, h2[2:5])
    # chunked layout
    ch = pa.chunked_array([arr[:4], arr[4:]])
    c1, c2 = content_hash128(*string_buffers(ch))
    assert np.array_equal(c1, h1) and np.array_equal(c2, h2)
    # batch-composition independence
    b1, b2 = content_hash128(*string_buffers(pa.array(["world"])))
    assert b1[0] == h1[3] and b2[0] == h2[3]
    # all-empty batch and zero-row batch
    e1, e2 = content_hash128(*string_buffers(pa.array(["", ""])))
    assert e1[0] == e1[1] == h1[1]
    z1, z2 = content_hash128(*string_buffers(pa.array([], pa.string())))
    assert len(z1) == 0 and len(z2) == 0
    # the two halves are independent: ~no correlation on a spray
    import numpy as _np
    many = pa.array([f"doc {i} body" for i in range(1000)])
    m1, m2 = content_hash128(*string_buffers(many))
    assert len(_np.unique(m1)) == 1000 and len(_np.unique(m2)) == 1000
    assert not _np.array_equal(m1, m2)


def test_content_hash128_large_string_type():
    import pyarrow as pa

    from nxsearch_ray.functions.hashing import (content_hash128,
                                                string_buffers)

    vals = ["x", "yy", "zzz"]
    small = content_hash128(*string_buffers(pa.array(vals, pa.string())))
    large = content_hash128(*string_buffers(
        pa.array(vals, pa.large_string())))
    assert np.array_equal(small[0], large[0])
    assert np.array_equal(small[1], large[1])
