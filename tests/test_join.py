"""The partition-wise hash join's contract (stages/join.hash_join):
every output block carries the join's schema, inner and left joins
match a row-by-row reference, and empty or zero-column partitions on
either side are harmless.  The endpoint delivery (endpoint_map, and
pair_join on it) hands each pair block exactly its distinct
endpoints' rows, each once.  Also the broadcast key-set joins
(semi_join / anti_join) and their one probe, sorted_lookup."""

import numpy as np
import pyarrow as pa
import pytest

from nxsearch_ray.stages.join import (anti_join, endpoint_map, hash_join,
                                      id_set_ref, pair_join, semi_join,
                                      sorted_lookup)

LIST = pa.list_(pa.uint64())
FIXED = pa.list_(pa.uint8(), 4)
RIGHT_SCHEMA = pa.schema([("id", pa.int64()), ("v", LIST), ("f", FIXED)])
PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                         ("source", pa.string())])


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


def _pairs(ab):
    return pa.table({"a": [a for a, _ in ab], "b": [b for _, b in ab],
                     "source": ["minhash"] * len(ab)}, schema=PAIR_SCHEMA)


RECORD = pa.schema([("a0", pa.int64()), ("b0", pa.int64()),
                    ("pages", pa.list_(pa.int64())),
                    ("names", pa.list_(pa.string()))])


def _delivered(pairs_ds, right_ds):
    """``endpoint_map`` with a recording kernel: per output block, the
    pair block's first pair, the page ids delivered to it in arrival
    order and the pages' column names."""
    import ray

    def record(pairs, pages):
        return pa.table({"a0": [pairs.column("a")[0].as_py()],
                         "b0": [pairs.column("b")[0].as_py()],
                         "pages": [pages.column("id").to_pylist()],
                         "names": [pages.column_names]}, schema=RECORD)

    out = endpoint_map(pairs_ds, right_ds, RIGHT_SCHEMA, record, RECORD)
    blocks = ray.get(out.to_arrow_refs())
    for b in blocks:
        assert b.schema.equals(RECORD), b.schema
    return blocks


def _wanted(pair_tables, right_tables):
    """Per non-empty pair block: its first pair and the sorted distinct
    endpoints that have a right row."""
    ids = {i for t in right_tables if t.num_columns
           for i in t.column("id").to_pylist()}
    return [((t.column("a")[0].as_py(), t.column("b")[0].as_py()),
             sorted(ids & set(t.column("a").to_pylist()
                              + t.column("b").to_pylist())))
            for t in pair_tables if t.num_rows]


def _check_delivery(pair_tables, right_tables, right_ds=None):
    blocks = _delivered(_dataset(pair_tables),
                        right_ds or _dataset(right_tables))
    got = [r for b in blocks for r in b.to_pylist()]
    assert len(got) == len(blocks)         # one kernel call per block
    for r in got:
        assert len(r["pages"]) == len(set(r["pages"]))   # each page once
        assert r["names"] == RIGHT_SCHEMA.names
    assert [((r["a0"], r["b0"]), sorted(r["pages"])) for r in got] \
        == _wanted(pair_tables, right_tables)
    return got


PAIR_BLOCKS = [_pairs([(1, 2), (1, 3), (2, 3), (1, 2)]), _pairs([]),
               pa.table({}), _pairs([(3, 4), (5, 1), (3, 5), (4, 9)])]
RIGHT_BLOCKS = [_right([1, 2]), pa.table({}), _right([]),
                _right([3, 5, 9, 11])]          # page 4 has no row


@pytest.mark.parametrize("P", [None, 1, 3])
def test_endpoint_map_delivers_each_blocks_endpoints_once(ray_session,
                                                          width, P):
    """Each non-empty pair block's kernel call gets exactly the right
    rows its distinct endpoints name, each once (a page named by
    several pairs of the block, or by a repeated pair, still arrives
    once), in pair-block order; zero-row and zero-column pair blocks
    get no call."""
    if P:
        width(P)
    got = _check_delivery(PAIR_BLOCKS, RIGHT_BLOCKS)
    assert [sorted(r["pages"]) for r in got] == [[1, 2, 3], [1, 3, 5, 9]]


def test_endpoint_map_more_partitions_than_right_rows(ray_session, width):
    width(16)
    _check_delivery(PAIR_BLOCKS, [_right([2, 9]), _right([5])])


@pytest.mark.parametrize("P", [None, 1])
def test_endpoint_map_single_pair_block(ray_session, width, P):
    """J = 1: each respond task returns one answer, not a tuple (and at
    P = 1 the splits return one piece)."""
    if P:
        width(P)
    got = _check_delivery([_pairs([(2, 3), (3, 11)])], RIGHT_BLOCKS)
    assert sorted(got[0]["pages"]) == [2, 3, 11]


@pytest.mark.parametrize("right", [[_right([])], [pa.table({})]],
                         ids=["zero-row", "zero-column"])
def test_endpoint_map_empty_right_side(ray_session, right):
    """No right row: every pair block's kernel still runs, over zero
    pages of ``right_schema``."""
    got = _check_delivery(PAIR_BLOCKS, right)
    assert [r["pages"] for r in got] == [[], []]


def test_endpoint_map_all_empty_pair_side(ray_session):
    """No pair row: one empty block of the kernel's schema, and the
    kernel is never called."""
    import ray

    def never(pairs, pages):
        raise AssertionError("called on no pairs")

    out = endpoint_map(_dataset([_pairs([]), pa.table({})]),
                       _dataset(RIGHT_BLOCKS), RIGHT_SCHEMA, never, RECORD)
    blocks = ray.get(out.to_arrow_refs())
    assert len(blocks) == 1 and blocks[0].equals(RECORD.empty_table())


def test_endpoint_map_over_a_bare_parquet_read(ray_session, tmp_path):
    """A right side that is an engine Parquet read: its files are
    read in the split tasks, and pair_join over it gathers the same
    payloads."""
    import pyarrow.parquet as pq

    from nxsearch_ray.sources.io import read_parquet_clean
    from nxsearch_ray.stages.shuffle import ReadPart, blocks

    ids = [1, 2, 3, 5, 9, 11, 12, 14]
    for i in range(4):
        pq.write_table(_right(ids[2 * i:2 * i + 2]),
                       tmp_path / f"part-{i}.parquet")
    read = read_parquet_clean(str(tmp_path))
    assert all(isinstance(p, ReadPart) for p, _ in blocks(read))
    _check_delivery(PAIR_BLOCKS, [_right(ids)], right_ds=read)
    _check_pair_join(read)


def _check_pair_join(right_ds):
    import ray

    pairs = pa.table({"a": [1, 1, 2, 3], "b": [2, 3, 3, 4],
                      "source": ["minhash", "exact", "simhash", "suffix"]},
                     schema=PAIR_SCHEMA)
    # page 4 has no payload row; the right schema's key comes last
    out = pair_join(_dataset([pairs.slice(0, 2), pairs.slice(2)]), right_ds,
                    right_key="id", pair_schema=PAIR_SCHEMA,
                    right_schema=pa.schema([RIGHT_SCHEMA.field("v"),
                                            RIGHT_SCHEMA.field("f"),
                                            RIGHT_SCHEMA.field("id")]))
    schema = pa.schema(list(PAIR_SCHEMA) + [
        ("v_a", LIST), ("f_a", FIXED), ("v_b", LIST), ("f_b", FIXED)])
    blocks = ray.get(out.to_arrow_refs())
    for b in blocks:
        assert b.schema.equals(schema), b.schema
    got = pa.concat_tables(blocks)
    rows = {(r["a"], r["b"]): r for r in got.to_pylist()}
    assert sorted(rows) == [(1, 2), (1, 3), (2, 3)]
    payload = {r["id"]: r for r in _right([1, 2, 3]).to_pylist()}
    for (a, b), r in rows.items():
        assert (r["v_a"], r["f_a"]) == (payload[a]["v"], payload[a]["f"])
        assert (r["v_b"], r["f_b"]) == (payload[b]["v"], payload[b]["f"])


def test_pair_join_drops_pair_missing_an_endpoint(ray_session):
    right = _right([1, 2, 3])
    _check_pair_join(_dataset([right.slice(0, 1), right.slice(1)]))


def test_delivered_pages_bounded_by_distinct_endpoints(ray_session):
    """The traffic guard, on a seeded synthetic corpus with high-degree
    pages (a few hubs paired with most pages, in every pair block):
    the page rows delivered are the sum over pair blocks of their
    distinct endpoints, far below the two rows per pair a per-pair
    join ships, and so are the token ids they carry."""
    import ray

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.sources.synth import synth_pages
    from nxsearch_ray.stages.signatures import CanonSigActor
    from nxsearch_ray.stages.suffix import TOKEN_SCHEMA

    cfg = PipelineConfig()
    pages = synth_pages(60, seed=11)
    tokens = CanonSigActor(cfg.to_json())(
        pages.select(["page_id", "url", "warc_ts", "html", "lang"])
    ).select(TOKEN_SCHEMA.names)
    n_tokens = dict(zip(tokens.column("page_id").to_pylist(),
                        [len(t) for t in tokens.column("token_ids")
                         .to_pylist()]))
    ids = np.array(sorted(n_tokens))
    rng = np.random.default_rng(11)
    hubs = rng.choice(ids, 3, replace=False)
    pair_blocks = []
    for _ in range(3):
        ab = {(int(h), int(p)) for h in hubs
              for p in rng.choice(ids, 30, replace=False) if h != p}
        ab |= {(int(a), int(b)) for a, b in rng.choice(ids, (20, 2))
               if a != b}
        pair_blocks.append(_pairs(sorted(ab)))
    size = pa.schema([("rows", pa.int64()), ("tokens", pa.int64())])

    def sizes(pairs, pages):
        return pa.table({"rows": [pages.num_rows],
                         "tokens": [sum(len(t) for t in pages.column(
                             "token_ids").to_pylist())]}, schema=size)

    out = endpoint_map(_dataset(pair_blocks),
                       _dataset([tokens.slice(0, 25), tokens.slice(25)]),
                       TOKEN_SCHEMA, sizes, size)
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    distinct = [set(t.column("a").to_pylist() + t.column("b").to_pylist())
                for t in pair_blocks]
    rows = sum(got.column("rows").to_pylist())
    assert rows == sum(len(d) for d in distinct)
    assert sum(got.column("tokens").to_pylist()) == sum(
        n_tokens[p] for d in distinct for p in d)
    per_pair = sum(2 * t.num_rows for t in pair_blocks)
    assert rows < per_pair / 2


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
