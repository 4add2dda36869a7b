"""The engine's Parquet read.

``read_parquet_clean`` lists the input files and reads each footer once
on the driver: the result is a ``stages/shuffle.Read``, one
``ReadPart`` per file with its row count and bytes, and no task, no
Ray Dataset and so no Ray Data stats actor or fragment sampling.  The
tasks that consume it read their files themselves, one row group at a
time.  Its schema is the first file's, of the selected ``columns``,
without schema metadata: Parquet files written through pandas carry a
``b'pandas'`` metadata blob, and pyarrow schemas with metadata are
unhashable, which makes Ray Data's block-schema deduplication log a
warning per worker ("Failed to hash the schemas").

A caller that uses the Dataset API on the read gets
``ray.data.read_parquet`` of the listed files and that schema, built on
first use, so both read the one listing.  A directory is walked
recursively and its files sorted; files and directories whose names
start with ``.`` or ``_`` are skipped (pyarrow's dataset discovery),
with or without ``file_extensions``, which then keeps the files of a
listed extension.  A file named in ``paths`` is read whatever its name.
Hive ``k=v`` directories raise: their partition columns are not in the
files.
"""

from __future__ import annotations

import functools
import os


def _listed_files(paths, file_extensions=None) -> list[str]:
    """The files a read of ``paths`` reads, in read order."""
    files = []
    for path in [paths] if isinstance(paths, (str, os.PathLike)) else paths:
        path = os.path.abspath(path)
        if not os.path.isdir(path):
            files.append(path)
            continue
        found = []
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs if not d.startswith((".", "_"))]
            found += [os.path.join(root, name) for name in names
                      if not name.startswith((".", "_"))]
        files += sorted(found)
    if file_extensions is not None:
        ext = tuple(f".{e.lower()}" for e in file_extensions)
        files = [f for f in files if f.lower().endswith(ext)]
    if not files:
        raise FileNotFoundError(f"no Parquet files under {paths}")
    return files


def read_parquet_clean(paths, *, columns=None, file_extensions=None):
    """The engine read of ``paths`` (a ``shuffle.Read``): per file its
    footer's rows and the selected ``columns``' uncompressed bytes,
    with a metadata-free schema of those columns.  ``file_extensions``
    filters the listing."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from nxsearch_ray.stages.shuffle import Read, ReadPart

    files = _listed_files(paths, file_extensions)
    hive = [f for f in files
            if any("=" in c for c in os.path.dirname(f).split(os.sep))]
    if hive:
        raise ValueError(f"{hive[0]}: a k=v partition directory, whose "
                         "partition columns the files do not hold")
    full = pq.read_schema(files[0]).remove_metadata()
    schema = pa.schema([full.field(c) for c in columns]) if columns else full
    columns = list(columns) if columns else None

    def selected_bytes(md) -> int:
        return sum(rg.column(j).total_uncompressed_size
                   for rg in map(md.row_group, range(md.num_row_groups))
                   for j in range(rg.num_columns)
                   if rg.column(j).path_in_schema.split(".")[0]
                   in schema.names)

    footers = map(pq.read_metadata, files)
    return Read([ReadPart(f, columns, schema) for f in files],
                [(md.num_rows, selected_bytes(md)) for md in footers],
                schema, functools.partial(ray.data.read_parquet, files,
                                          schema=schema, columns=columns))
