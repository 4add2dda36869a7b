"""Driver-style correctness harness: run every `queries()` entry and
compare row-count / schema / order-insensitive value-hash against its
`oracle_sql()` DuckDB result over the same parquet tables.

Usage: python tools/compare_oracle.py [sf_dir]
(owns its Ray session — do not run from inside another Ray app)
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

import duckdb
import pandas as pd
import pyarrow as pa

# the tables the twins read
TABLES = ("documents", "embeddings")


def to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if col.dtype == object and len(col) and isinstance(
                col.dropna().iloc[0] if len(col.dropna()) else "", bytes):
            df[c] = col.map(lambda b: b.hex() if isinstance(b, bytes)
                            else b)
        elif str(col.dtype).startswith("datetime"):
            df[c] = col.astype("int64")
        elif col.dtype == "float64" or col.dtype == "float32":
            df[c] = col.round(9)
    rows = df.astype(str).agg("|".join, axis=1).sort_values()
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = sys.argv[2:] or None

    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.monotonic()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        wall = time.monotonic() - t0
        if name not in oracles:
            print(f"ROWS  {name}: {len(got)} rows "
                  f"({len(got.columns)} cols) {wall:.1f}s [no oracle]")
            continue
        try:
            want = con.execute(oracles[name]).fetchdf()
        except Exception as e:
            print(f"FAIL  {name}: oracle raised {e}")
            failures += 1
            continue
        ok_rows = len(got) == len(want)
        ok_cols = sorted(got.columns) == sorted(want.columns)
        ok_hash = ok_rows and ok_cols and \
            value_hash(got) == value_hash(want)
        status = "OK  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {name}: rows {len(got)}/{len(want)} "
              f"cols_match={ok_cols} hash_match={ok_hash} {wall:.1f}s")
        if not ok_cols:
            print(f"      got  {sorted(got.columns)}")
            print(f"      want {sorted(want.columns)}")
        if ok_rows and ok_cols and not ok_hash and len(got) < 50000:
            g = got[sorted(got.columns)].sort_values(
                sorted(got.columns)).reset_index(drop=True)
            w = want[sorted(want.columns)].sort_values(
                sorted(want.columns)).reset_index(drop=True)
            diff = (g.astype(str) != w.astype(str)).any(axis=1)
            if diff.any():
                i = diff.idxmax()
                print(f"      first diff row {i}:")
                print(f"      got  {g.iloc[i].to_dict()}")
                print(f"      want {w.iloc[i].to_dict()}")
    ray.shutdown()
    return failures


if __name__ == "__main__":
    sys.exit(1 if main() else 0)
