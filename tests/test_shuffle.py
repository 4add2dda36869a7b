"""The keyed exchange's contract (stages/shuffle.hash_partitioned):
every key value lands in exactly one output block, and the output rows
are the input rows."""

from collections import Counter

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.stages.shuffle import hash_partitioned


def _dataset(tables):
    import ray
    import ray.data as rd

    return rd.from_arrow_refs([ray.put(t) for t in tables])


def _blocks(ds, keys, num_partitions=None):
    import ray

    return ray.get(hash_partitioned(ds, keys, num_partitions)
                   .to_arrow_refs())


def _rows(tables):
    return Counter(tuple(r.values()) for t in tables if t.num_columns
                   for r in t.to_pylist())


def _check(tables, keys, num_partitions=None):
    blocks = _blocks(_dataset(tables), keys, num_partitions)
    if num_partitions:
        assert len(blocks) == num_partitions
    home: dict = {}
    for i, b in enumerate(blocks):
        if b.num_rows == 0:
            continue
        for k in zip(*(b.column(c).to_pylist() for c in keys)):
            assert home.setdefault(k, i) == i, f"key {k} in two blocks"
    assert _rows(blocks) == _rows(tables)
    return blocks


def _three_blocks(col: pa.Array) -> list[pa.Table]:
    """``col`` as the key of three blocks, each key value in every
    block, with a row id payload."""
    n = len(col)
    t = pa.table({"k": col, "row": pa.array(np.arange(n), pa.int64())})
    return [t.slice(0, n // 3), t.slice(n // 3, n // 3),
            t.slice(2 * (n // 3))]


KEYS = {
    "int64": pa.array(np.arange(300) % 37 - 18, pa.int64()),
    "uint64_high_bit": pa.array(
        (np.arange(300, dtype=np.uint64) % np.uint64(41))
        | np.uint64(1 << 63), pa.uint64()),
    "int8": pa.array(np.arange(300) % 23 - 11, pa.int8()),
    "string": pa.array([f"https://example.org/section/page/{i % 29}"
                        for i in range(300)]),
}


@pytest.mark.parametrize("kind", sorted(KEYS))
def test_each_key_in_one_block(ray_session, kind):
    _check(_three_blocks(KEYS[kind]), ["k"], 4)


def test_two_column_key(ray_session):
    i = np.arange(400)
    t = pa.table({"a": pa.array(i % 7, pa.int64()),
                  "b": pa.array(i % 11, pa.int64()),
                  "row": pa.array(i, pa.int64())})
    blocks = _check([t.slice(0, 150), t.slice(150)], ["a", "b"], 5)
    # the pair is the key, not either column alone: some value of a
    # spans several blocks
    assert any(sum(v in b.column("a").to_pylist() for b in blocks) > 1
               for v in range(7))


def test_empty_and_zero_column_blocks(ray_session):
    """A union with an empty side yields zero-row and zero-column
    blocks; they pass through without losing or inventing rows."""
    t = _three_blocks(KEYS["int64"])
    _check([t[0], pa.table({}), t[1].slice(0, 0), t[2]], ["k"], 3)
    # nothing but empties: P empty blocks
    blocks = _blocks(_dataset([pa.table({}), t[0].slice(0, 0)]), ["k"], 3)
    assert len(blocks) == 3 and sum(b.num_rows for b in blocks) == 0


def test_one_partition(ray_session):
    blocks = _check(_three_blocks(KEYS["string"]), ["k"], 1)
    assert blocks[0].num_rows == 300


def test_more_partitions_than_rows(ray_session):
    t = pa.table({"k": pa.array([5, 5, 9], pa.int64()),
                  "row": pa.array([0, 1, 2], pa.int64())})
    blocks = _check([t.slice(0, 2), t.slice(2)], ["k"], 16)
    assert sum(b.num_rows > 0 for b in blocks) <= 2


def test_default_width_from_block_metadata(ray_session):
    import ray

    from nxsearch_ray.stages.shuffle import partition_width

    blocks = _check(_three_blocks(KEYS["int64"]), ["k"])
    cpus = int(ray.cluster_resources()["CPU"])
    assert len(blocks) == partition_width(300, 0) == min(cpus, 300)
    assert partition_width(0, 0) == 1
    assert partition_width(10, 10 << 30) == 80
