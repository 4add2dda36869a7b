"""One benchmark run in its own process; ``run.py`` starts it.

    python3 perfbench/session.py --workload W --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE

Steps: generate the seeded inputs (cached, untimed); compute the
oracle's clusters (untimed); set up (start the Ray session, then one
warm-up pass); run the job a fixed number of times (``job_count``);
check every output; write the result object to ``--result``.  With
``--trace 1`` the timed loop is replaced by one untraced job plus a
traced layer-by-layer replay (see ``trace.py``).

Ray session size: ``SESSION_CPUS`` logical CPUs whatever the host has,
because ``run_dedup`` stalls in a 1-CPU session (NOTES.md).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import procstat  # noqa: E402
from perfbench import workloads as W  # noqa: E402

SESSION_CPUS = 2
OBJECT_STORE_BYTES = 512 * 2**20
RECALL_GATE = 0.99
SLICE_FRACTION = 0.2
# Ray's socket paths must stay under the 107-byte Unix limit, and the
# session directory adds up to 64 bytes to the temp dir; a checkout at a
# longer path leaves the session in Ray's default temp dir
MAX_RAY_TMP_LEN = 42

KNOWN_DEFECTS = [
    "run_dedup stalls in a 1-CPU Ray session: the ReadParquet task waits "
    "for 1 CPU while the 0.5-CPU CanonSigActor holds the session; the "
    "benchmark runs its session at SESSION_CPUS=2",
    "run_dedup's stats wall_candidates/wall_verify split is not an "
    "attribution source: the candidate exchange is lazy, so its cost "
    "lands in wall_verify; use the traced run's spans",
]

PLANS = {
    "webmix": {},
    "templated": {"verify_mode": "bucketed", "cc_mode": "labelprop"},
}
# a job's wall time on the 4-vCPU reference VM (NOTES.md); the number
# of timed jobs is derived from --seconds and this figure alone, never
# from how fast the jobs of this run are, so a parent and a change take
# their medians over the same job positions of a session
NOMINAL_JOB_S = {"webmix": 8.0, "templated": 28.0}


def job_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_JOB_S[workload]))


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def start_ray(work_dir: str) -> None:
    import ray

    kw = {}
    tmp = os.path.join(work_dir, "r")
    if len(tmp) <= MAX_RAY_TMP_LEN:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    else:
        log(f"{tmp} is too long for Ray's socket paths; "
            "using Ray's default temp dir")
    ray.init(address="local", num_cpus=SESSION_CPUS,
             object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR", **kw)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def labels(ct) -> dict[int, int]:
    return dict(zip(ct.column("page_id").to_pylist(),
                    ct.column("cluster_id").to_pylist()))


def digest(lab: dict[int, int]) -> str:
    """Digest of a page_id → cluster_id map, independent of order."""
    import numpy as np

    ids = np.array(sorted(lab), dtype=np.int64)
    cl = np.array([lab[i] for i in ids.tolist()], dtype=np.int64)
    return hashlib.sha256(ids.tobytes() + cl.tobytes()).hexdigest()[:16]


def recall(lab: dict[int, int], truth: set[tuple[int, int]]) -> float:
    hit = sum(1 for a, b in truth
              if a in lab and lab[a] == lab.get(b))
    return hit / len(truth) if truth else 1.0


class Job:
    """The timed unit: the pipeline call that turns the workload's page
    files into the clusters table in this process."""

    def __init__(self, workload: str, inputs: W.Inputs, cfg):
        self.workload = workload
        self.inputs = inputs
        self.cfg = cfg
        self.plans = PLANS[workload]

    def pages(self, path: str | None = None):
        from nxsearch_ray.sources.io import read_parquet_clean

        return read_parquet_clean(path or self.inputs.pages,
                                  columns=W.READ_COLUMNS)

    def warm_up(self, slice_dir: str):
        """The set-up pass: the auto plans on a seeded slice of the
        pages (checked against the oracle afterwards).  It starts and
        warms the session's workers; the templated job's scale-path
        plans start their own actors in every job, so warming them
        would only repeat the job's own cost."""
        from nxsearch_ray.pipelines.dedup import (clusters_as_table,
                                                  run_dedup)

        return clusters_as_table(run_dedup(self.pages(slice_dir), self.cfg))

    def run(self):
        from nxsearch_ray.pipelines.dedup import (clusters_as_table,
                                                  run_dedup)

        res = run_dedup(self.pages(), self.cfg, **self.plans)
        return clusters_as_table(res), res.stats


def write_slice(inputs: W.Inputs, seed: int, out_dir: str):
    """A seeded ``SLICE_FRACTION`` of the pages as its own Parquet
    input; returns the slice table (with text) for the oracle."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(inputs.pages)
    rng = np.random.default_rng([seed, 2])
    t = t.filter(pa.array(rng.random(t.num_rows) < SLICE_FRACTION))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    half = -(-t.num_rows // 2)
    for i in range(0, t.num_rows, half):
        pq.write_table(t.slice(i, half),
                       os.path.join(out_dir, f"part-{i:08d}.parquet"))
    return t


def host_record() -> dict:
    import pyarrow
    import ray

    # `nproc` also honours OMP_NUM_THREADS, so record what it reads
    return {"cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "session_cpus": SESSION_CPUS,
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "python": platform.python_version()}


class Run:
    """Counts attempted and failed runs and collects check notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail) -> bool:
        self.checks.append({"check": name, "ok": bool(ok),
                            "detail": detail})
        if not ok:
            log(f"CHECK FAILED {name}: {detail}")
        return ok


def timed_rep(job: Job, me: int) -> dict:
    procstat.reset_peaks(procstat.tree(me))
    cpu0 = procstat.cpu_snapshot()
    t0 = time.perf_counter()
    ct, stats = job.run()
    wall = time.perf_counter() - t0
    cpu1 = procstat.cpu_snapshot()
    return {"job_s": wall,
            "cpu_s": procstat.session_cpu_s(me, cpu0, cpu1),
            "peak_mem_mb": procstat.peak_rss_mb(procstat.tree(me)),
            "labels": labels(ct), "stats": stats}


def check_rep(run: Run, ref: dict, rep: dict, first: str | None) -> bool:
    """The output checks of one timed job; ``first`` is the digest of
    the run's first rep (None for the first rep itself)."""
    lab = rep["labels"]
    d = rep["digest"] = digest(lab)
    ok = run.check("clusters_equal_oracle", d == ref["oracle"],
                   {"digest": d, "oracle": ref["oracle"]})
    if first is not None:
        return run.check("same_digest_every_rep", d == first,
                         {"digest": d, "first": first}) and ok
    rec = rep["recall"] = recall(lab, ref["truth"])
    return run.check("recall", rec >= RECALL_GATE,
                     {"recall": rec, "gate": RECALL_GATE,
                      "truth_pairs": len(ref["truth"])}) and ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    a = ap.parse_args(argv)

    import ray

    from nxsearch_ray.config import PipelineConfig
    from nxsearch_ray.oracle import oracle_clusters

    me = os.getpid()
    cfg = PipelineConfig()
    run_dir = os.path.join(a.work, f"run-{me}")
    os.makedirs(run_dir, exist_ok=True)
    inputs = W.generate(a.workload, a.seed, os.path.join(a.work, "inputs"))
    table = inputs.table()
    # the oracle runs on every run, so a change to the code it shares
    # with the pipeline is checked against that same code
    ref = {"truth": W.truth_pairs(table, a.workload),
           "oracle": digest(oracle_clusters(table, cfg)[0])}
    pages = table.num_rows
    slice_tbl = write_slice(inputs, a.seed, os.path.join(run_dir, "slice"))
    job = Job(a.workload, inputs, cfg)
    run = Run()
    notes: dict = {"workload": a.workload, "why": W.WHY[a.workload],
                   "seed": a.seed, "plans": PLANS[a.workload] or "auto",
                   "pages": pages, "known_defects": KNOWN_DEFECTS}

    # ---- set-up: session start + warm-up pass
    t0 = time.perf_counter()
    start_ray(a.work)
    init_s = time.perf_counter() - t0
    notes["host"] = host_record()
    t1 = time.perf_counter()
    run.attempted += 1
    try:
        warm_ct = job.warm_up(os.path.join(run_dir, "slice"))
    except Exception:
        log(traceback.format_exc())
        warm_ct = None
    warm_s = time.perf_counter() - t1
    setup_s = init_s + warm_s
    notes["setup"] = {"ray_init_s": init_s, "warm_up_s": warm_s}
    log(f"set-up {setup_s:.2f} s (ray.init {init_s:.2f} s, "
        f"warm-up {warm_s:.2f} s)")
    warm_ok = warm_ct is not None
    if warm_ok:
        ora, _ = oracle_clusters(slice_tbl.drop_columns(["html"]), cfg)
        warm_ok = run.check("slice_equals_oracle",
                            labels(warm_ct) == ora,
                            {"slice_pages": slice_tbl.num_rows,
                             "clustered": len(ora)})
    if not warm_ok:
        run.failed += 1

    if a.trace:
        from perfbench import trace

        metrics = trace.traced_run(job, a, run, ref, notes, me,
                                   os.path.join(run_dir, "probe"))
    else:
        metrics = measure(job, a, run, ref, notes, me, pages, setup_s)

    ray.shutdown()
    notes["checks"] = run.checks
    notes["attempted"], notes["failed"] = run.attempted, run.failed
    out_dir = os.path.join(a.work, "notes")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{a.workload}-s{a.seed}-t{a.trace}"
                           ".json"), "w") as f:
        json.dump(notes, f, indent=1, default=str)
    shutil.rmtree(run_dir, ignore_errors=True)
    result = {"correct": run.failed == 0 and all(
                  c["ok"] for c in run.checks),
              "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    with open(a.result, "w") as f:
        json.dump(result, f)
    return 0


def measure(job: Job, a, run: Run, ref: dict, notes: dict, me: int,
            pages: int, setup_s: float) -> dict:
    """The timed loop and its checks; returns the end-to-end metrics.
    It runs ``job_count`` jobs back to back, whatever they take."""
    reps: list[dict] = []
    n_jobs = notes["timed_jobs"] = job_count(a.workload, a.seconds)
    for _ in range(n_jobs):
        run.attempted += 1
        try:
            rep = timed_rep(job, me)
        except Exception:
            log(traceback.format_exc())
            run.failed += 1
            break
        if not check_rep(run, ref, rep,
                         reps[0]["digest"] if reps else None):
            run.failed += 1
        del rep["labels"]
        reps.append(rep)
        log(f"rep {len(reps)}: job {rep['job_s']:.2f} s, "
            f"cpu {rep['cpu_s']:.2f} s, mem {rep['peak_mem_mb']:.0f} MB,"
            f" digest {rep['digest']}")
    notes["reps"] = reps
    if not reps:
        raise SystemExit("no timed job completed")
    job_s = statistics.median(r["job_s"] for r in reps)
    return {
        "job_s": {"value": job_s, "unit": "s"},
        "pages_per_s": {"value": pages / job_s, "unit": "pages/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_mem_mb": {"value": statistics.median(
            r["peak_mem_mb"] for r in reps), "unit": "MB"},
        "cpu_s": {"value": statistics.median(r["cpu_s"] for r in reps),
                  "unit": "CPU-s"},
        "dup_pair_recall": {"value": reps[0]["recall"], "unit": "ratio"},
        "runs_ok": {"value": (run.attempted - run.failed) / run.attempted,
                    "unit": "ratio"},
    }


if __name__ == "__main__":
    sys.exit(main())
