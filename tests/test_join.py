"""The partition-wise hash join's contract (stages/join.hash_join and
pair_join): every output block carries the join's schema, inner and
left joins match a row-by-row reference, and empty or zero-column
partitions on either side are harmless.  Also the broadcast key-set
joins (semi_join / anti_join) and their one probe, sorted_lookup."""

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.stages.join import (anti_join, hash_join, id_set_ref,
                                      pair_join, semi_join, sorted_lookup)

LIST = pa.list_(pa.uint64())
FIXED = pa.list_(pa.uint8(), 4)
RIGHT_SCHEMA = pa.schema([("id", pa.int64()), ("v", LIST), ("f", FIXED)])


def _dataset(tables):
    import ray
    import ray.data as rd

    return rd.from_arrow_refs([ray.put(t) for t in tables])


def _right(ids):
    ids = list(ids)
    return pa.table({
        "id": pa.array(ids, pa.int64()),
        "v": pa.array([[i, i + 1][:i % 3] for i in ids], LIST),
        "f": pa.array([[i % 256] * 4 for i in ids], FIXED)})


def _left(keys):
    return pa.table({"k": pa.array(keys, pa.int64()),
                     "x": pa.array(range(len(keys)), pa.int64())})


@pytest.fixture
def width(monkeypatch):
    """Force the exchange width P (``width(P)``)."""
    from nxsearch_ray.stages import shuffle

    return lambda P: monkeypatch.setattr(shuffle, "partition_width",
                                         lambda n, b: P)


def _join(left_tables, right_tables, how, P=None):
    """Every output block (schema checked), concatenated."""
    import ray

    out = hash_join(_dataset(left_tables), _dataset(right_tables),
                    left_key="k", right_key="id",
                    left_schema=_left([]).schema, right_schema=RIGHT_SCHEMA,
                    how=how)
    blocks = ray.get(out.to_arrow_refs())
    if P:
        assert len(blocks) == P
    schema = pa.schema([("k", pa.int64()), ("x", pa.int64()),
                        ("v_r", LIST), ("f_r", FIXED)])
    for b in blocks:
        assert b.schema.equals(schema), b.schema
    return pa.concat_tables(blocks)


def _rows(t):
    return sorted((r["k"], r["x"], r["v_r"], r["f_r"]) for r in t.to_pylist())


def _expected(left_tables, right_tables, how):
    right = {r["id"]: r for t in right_tables if t.num_columns
             for r in t.to_pylist()}
    rows = []
    for t in left_tables:
        if not t.num_columns:
            continue
        for r in t.to_pylist():
            hit = right.get(r["k"])
            if hit is not None or how == "left":
                rows.append((r["k"], r["x"],
                             hit["v"] if hit else None,
                             hit["f"] if hit else None))
    return sorted(rows)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_more_partitions_than_rows(ray_session, width, how):
    """P far above either side's row count: most partitions are empty,
    and the zero-column input blocks make some zero-column."""
    width(16)
    left = [_left([3, 1, 3, 7]), pa.table({}), _left([])]
    right = [pa.table({}), _right([1, 3]), _right([])]
    got = _join(left, right, how, P=16)
    assert _rows(got) == _expected(left, right, how)


@pytest.mark.parametrize("how", ["inner", "left"])
def test_empty_right_side(ray_session, width, how):
    width(3)
    left = [_left([5, 6, 5]), _left([8])]
    for right in ([_right([])], [pa.table({})]):
        got = _join(left, right, how, P=3)
        assert _rows(got) == _expected(left, right, how)
        assert got.num_rows == (4 if how == "left" else 0)


def test_left_join_partition_without_right_rows(ray_session, width):
    from nxsearch_ray.stages.shuffle import key_hash

    P = 4
    width(P)
    keys = list(range(20))
    left, right = [_left(keys)], [_right([0, 9])]
    home = key_hash(right[0], ["id"]) % np.uint64(P)
    lonely = set((key_hash(left[0], ["k"]) % np.uint64(P)).tolist()) \
        - set(home.tolist())
    assert lonely, "the case needs a partition with left rows only"
    got = _join(left, right, "left", P=P)
    assert _rows(got) == _expected(left, right, "left")
    assert got.column("v_r").null_count == 18


@pytest.mark.parametrize("how", ["inner", "left"])
def test_list_payloads_and_duplicate_left_keys(ray_session, how):
    """List and fixed-size-list payloads gather intact onto every left
    row of a repeated key; the exchange width comes from the data."""
    left = [_left([2, 4, 2, 9, 2]), _left([4, 11, 2])]
    right = [_right([2, 4]), _right([9, 10, 12])]
    got = _join(left, right, how)
    assert _rows(got) == _expected(left, right, how)
    assert sum(r[0] == 2 for r in _rows(got)) == 4


def test_pair_join_drops_pair_missing_an_endpoint(ray_session):
    import ray

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("source", pa.string())])
    pairs = pa.table({"a": [1, 1, 2, 3], "b": [2, 3, 3, 4],
                      "source": ["minhash", "exact", "simhash", "suffix"]},
                     schema=pair_schema)
    right = _right([1, 2, 3])              # page 4 has no payload row
    out = pair_join(_dataset([pairs.slice(0, 2), pairs.slice(2)]),
                    _dataset([right.slice(0, 1), right.slice(1)]),
                    right_key="id", pair_schema=pair_schema,
                    right_schema=RIGHT_SCHEMA)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    assert got.schema.names == ["a", "b", "source", "v_a", "f_a",
                                "v_b", "f_b"]
    rows = {(r["a"], r["b"]): r for r in got.to_pylist()}
    assert sorted(rows) == [(1, 2), (1, 3), (2, 3)]
    payload = {r["id"]: r for r in right.to_pylist()}
    for (a, b), r in rows.items():
        assert (r["v_a"], r["f_a"]) == (payload[a]["v"], payload[a]["f"])
        assert (r["v_b"], r["f_b"]) == (payload[b]["v"], payload[b]["f"])


def test_sorted_lookup_edges():
    """Empty keys, values past either end, and string values wider
    than the keys' dtype (a width cast would truncate 'abc' to 'ab'
    and report a false hit)."""
    pos, hit = sorted_lookup(np.empty(0, np.int64), np.array([1, 2]))
    assert pos.tolist() == [0, 0] and not hit.any()

    keys = np.array([3, 5, 9], np.int64)
    pos, hit = sorted_lookup(keys, np.array([9, 10, 1, 5, 4], np.int64))
    assert hit.tolist() == [True, False, False, True, False]
    assert (pos < len(keys)).all()
    assert (keys[pos[hit]] == [9, 5]).all()

    words = np.array(["ab", "zz"])
    pos, hit = sorted_lookup(words, np.array(["abc", "ab", "zzz", "a"]))
    assert hit.tolist() == [False, True, False, False]
    assert pos[1] == 0


@pytest.mark.parametrize("as_ref", [False, True])
def test_key_filters_against_empty_key_set(ray_session, as_ref):
    """An empty key set (e.g. no pair needs exact adjudication): the
    semi-join keeps no row, the anti-join keeps every row."""
    ds = _dataset([_left([4, 1, 7]), _left([2])])
    keys = (id_set_ref(_dataset([_left([])]), ["k"]) if as_ref
            else [])
    assert semi_join(ds, "k", keys).count() == 0
    assert sorted(r["k"] for r in anti_join(ds, "k", keys).take_all()) \
        == [1, 2, 4, 7]
