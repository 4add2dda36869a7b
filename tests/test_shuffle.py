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


# ---------------------------------------------------------------- grouped
# stages/shuffle.grouped: every run of equal keys reaches the kernel
# whole and exactly once, empty partitions never reach it, and every
# output block carries the kernel's schema.

RUNS = pa.schema([("s", pa.string()), ("i", pa.int64()),
                  ("n", pa.int64()), ("row_sum", pa.int64())])


def _grouped_blocks(tables):
    import ray

    from nxsearch_ray.stages.shuffle import grouped

    def runs(t: pa.Table, starts: np.ndarray) -> pa.Table:
        """One row per run: its key, its length and the sum of its row
        ids (a run split in two would show as two rows of one key)."""
        assert t.num_rows > 0 and len(starts) and starts[0] == 0
        return pa.table(
            [t.column("s").take(starts), t.column("i").take(starts),
             np.diff(starts, append=t.num_rows),
             np.add.reduceat(t.column("row").to_numpy(), starts)],
            schema=RUNS)

    blocks = ray.get(grouped(_dataset(tables), ["s", "i"], runs, RUNS)
                     .to_arrow_refs())
    assert all(b.schema == RUNS for b in blocks)
    return blocks


def _expected_runs(tables):
    n, row_sum = Counter(), Counter()
    for t in tables:
        for r in t.to_pylist():
            n[r["s"], r["i"]] += 1
            row_sum[r["s"], r["i"]] += r["row"]
    return {k: (n[k], row_sum[k]) for k in n}


def _check_runs(tables):
    blocks = _grouped_blocks(tables)
    got = [r for b in blocks for r in b.to_pylist()]
    keys = [(r["s"], r["i"]) for r in got]
    assert len(keys) == len(set(keys)), "a run reached the kernel twice"
    assert {(r["s"], r["i"]): (r["n"], r["row_sum"]) for r in got} \
        == _expected_runs(tables)
    return blocks


def _string_int_blocks(n=600):
    """A (string, int64) key whose runs span all three input blocks;
    the string alone and the int alone each repeat across keys, and
    null strings form one run per int."""
    i = np.arange(n)
    t = pa.table({"s": pa.array([f"site-{k % 7}" if k % 7 else None
                                 for k in i]),
                  "i": pa.array(i % 5, pa.int64()),
                  "row": pa.array(i, pa.int64())})
    return [t.slice(0, n // 3), t.slice(n // 3, n // 3),
            t.slice(2 * (n // 3))]


def test_grouped_two_column_key_runs_whole(ray_session):
    tables = _string_int_blocks()
    blocks = _check_runs(tables)
    assert sum(b.num_rows for b in blocks) == 35


def test_grouped_empty_dataset(ray_session):
    def never(t, starts):
        raise AssertionError("kernel saw an empty partition")

    import ray

    from nxsearch_ray.stages.shuffle import grouped

    empty = _string_int_blocks()[0].slice(0, 0)
    blocks = ray.get(grouped(_dataset([empty]), ["s", "i"], never, RUNS)
                     .to_arrow_refs())
    assert blocks and all(b.schema == RUNS and b.num_rows == 0
                          for b in blocks)


def test_grouped_zero_column_blocks(ray_session):
    t = _string_int_blocks()
    _check_runs([t[0], pa.table({}), t[1].slice(0, 0), t[2]])
    # nothing but empties: every block is the empty schema
    blocks = _grouped_blocks([pa.table({}), t[0].slice(0, 0)])
    assert sum(b.num_rows for b in blocks) == 0


def test_grouped_more_partitions_than_rows(ray_session, monkeypatch):
    from nxsearch_ray.stages import shuffle

    monkeypatch.setattr(shuffle, "partition_width", lambda n, b: 16)
    t = pa.table({"s": pa.array(["x", "x", "y"]),
                  "i": pa.array([1, 1, 2], pa.int64()),
                  "row": pa.array([0, 1, 2], pa.int64())})
    blocks = _check_runs([t.slice(0, 2), t.slice(2)])
    assert len(blocks) == 16
    assert sum(b.num_rows > 0 for b in blocks) <= 2


def test_grouped_censuses_match_counter(ray_session):
    """The censuses on ``grouped`` equal a plain-Python Counter on a
    seeded table: the unigram and trigram LM censuses and the
    boilerplate line census."""
    import ray
    import ray.data as rd

    from nxsearch_ray.stages.linededup import boilerplate_keys, reflow_lines
    from nxsearch_ray.stages.lmscore import ngram_census, unigram_census

    rng = np.random.default_rng(7)
    vocab = [f"w{k}" for k in range(40)] + ["Nav", "nav", "x:y"]
    texts = [" ".join(rng.choice(vocab, size=int(rng.integers(1, 40))))
             for _ in range(120)]
    t = pa.table({"page_id": pa.array(np.arange(120) * 4, pa.int64()),
                  "text": pa.array(texts)})
    ds = rd.from_arrow(t).repartition(5)
    toks = [s.lower().split() for s in texts]

    def census(out, cols):
        return {tuple(r[c] for c in cols): r["n"]
                for r in out.take_all()}

    assert census(unigram_census(ds), ["word"]) \
        == Counter((w,) for ws in toks for w in ws)
    assert census(ngram_census(ds, 3), ["w1", "w2", "w3"]) \
        == Counter(tuple(ws[i:i + 3]) for ws in toks
                   for i in range(len(ws) - 2))

    lines = reflow_lines(t, words_per_line=3)
    docs: dict = {}
    for k, p in zip(lines.column("line_key").to_pylist(),
                    lines.column("page_id").to_pylist()):
        docs.setdefault(k, set()).add(p)
    want = sorted(k for k, ps in docs.items() if len(ps) >= 2)
    got = ray.get(boilerplate_keys(rd.from_arrow(lines).repartition(4)))
    assert want and got.tolist() == want


def test_no_sort_shuffle_call_sites():
    """Every grouped operator runs on ``grouped``: no engine module
    calls Ray Data's sort-shuffle ``groupby`` / ``map_groups`` or
    imports its aggregates."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    pat = re.compile(r"\.groupby\(|\.map_groups\(|import aggregate")
    files = [*sorted((root / "nxsearch_ray").rglob("*.py")),
             root / "__ray_entry__.py"]
    hits = [f"{p.relative_to(root)}:{i}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), 1)
            if pat.search(line)]
    assert len(files) > 40 and not hits, hits
