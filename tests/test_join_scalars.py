"""Anti join + scalar function library tests."""

from __future__ import annotations

import pyarrow as pa


def test_anti_join(ray_session):
    import ray.data as rd

    from nxsearch_ray.stages.join import anti_join

    t = pa.table({"k": [1, 2, 3, 4, 5], "v": list("abcde")})
    ds = rd.from_arrow(t).repartition(3)
    anti = pa.concat_tables(anti_join(ds, "k", [2, 4, 9]).iter_batches(
        batch_size=100, batch_format="pyarrow"))
    assert sorted(anti.column("k").to_pylist()) == [1, 3, 5]
