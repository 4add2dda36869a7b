"""Quick per-plan profiling of the flagship (not part of the bench
contract): python tools/profile_dedup.py [n_pages] [verify_mode]
[cc_mode] [num_cpus], with verify_mode one of auto|broadcast|bucketed
(default bucketed) and cc_mode one of auto|tree|labelprop (default
auto)."""
import os
import sys
import time

os.environ.setdefault("RAY_DATA_PUSH_BASED_SHUFFLE", "1")
import ray  # noqa: E402

n = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
verify_mode = sys.argv[2] if len(sys.argv) > 2 else "bucketed"
cc_mode = sys.argv[3] if len(sys.argv) > 3 else "auto"
cpus = int(sys.argv[4]) if len(sys.argv) > 4 else 32

ray.init(address="local", num_cpus=cpus, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext  # noqa: E402

DataContext.get_current().enable_progress_bars = False

import ray.data as rd  # noqa: E402

from nxsearch_ray.config import PipelineConfig  # noqa: E402
from nxsearch_ray.pipelines.dedup import (  # noqa: E402
    clusters_as_table,
    run_dedup,
)
from nxsearch_ray.sources.synth import synth_parquet  # noqa: E402

cfg = PipelineConfig()
corpus = synth_parquet(n, seed=1234, sf_dir="/root/testdata/sf0.1")

COLS = ["page_id", "url", "warc_ts", "html", "lang"]
NBLK = 4 * cpus
# warm-up
run_dedup(rd.read_parquet(synth_parquet(3000, seed=77,
                                        sf_dir="/root/testdata/sf0.1"),
                          columns=COLS), cfg,
          verify_mode=verify_mode, cc_mode=cc_mode)

walls = []
for _ in range(2):
    t0 = time.monotonic()
    res = run_dedup(rd.read_parquet(corpus, columns=COLS,
                                    override_num_blocks=NBLK), cfg,
                    verify_mode=verify_mode, cc_mode=cc_mode)
    tbl = clusters_as_table(res)
    walls.append(round(time.monotonic() - t0, 2))
print({"wall": min(walls), "walls": walls, "clusters_rows": tbl.num_rows,
       "verify_mode": verify_mode, "cc_mode": cc_mode,
       "cpus": cpus, **res.stats})
ray.shutdown()
