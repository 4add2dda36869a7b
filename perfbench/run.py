"""Dedup benchmark entry point.

    python3 perfbench/run.py --workload webmix|templated \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Generates the workload's inputs from
the seed, sets up a Ray session, runs the dedup job through the public
pipeline API a fixed number of times that fits ``--seconds`` on the
4-vCPU reference VM of NOTES.md (``session.job_count``), checks the outputs and
prints one line per metric, then, as the last line of standard output,
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced replay.

The run itself happens in a child process in its own session
(``session.py``), so that a hung job cannot outlive the time limit:
the child and every process of its Ray session are stopped and waited
for before this program exits.  Everything is written under
``perfbench/_work``.  Exits non-zero, printing no result, when the
program under test is missing or the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
# the child's limit; stopping its processes can take 15 s more
TIME_LIMIT_S = 160.0


def main() -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("webmix", "templated"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "nxsearch_ray",
                                       "__init__.py")):
        print("perfbench: nxsearch_ray not found beside perfbench/; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    sys.path.insert(0, ROOT)
    from perfbench.procstat import stop_session

    os.makedirs(WORK, exist_ok=True)
    result_path = os.path.join(WORK, f"result-{os.getpid()}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    env.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    env.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    cmd = [sys.executable, os.path.join(HERE, "session.py"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work", WORK, "--result", result_path]
    # the child's stdout carries Ray's chatter: keep ours for results
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stdout=sys.stderr, start_new_session=True)
    timed_out = False
    try:
        child.wait(timeout=max(1.0, TIME_LIMIT_S
                               - (time.monotonic() - t_start)))
    except subprocess.TimeoutExpired:
        timed_out = True
        print(f"perfbench: run exceeded {TIME_LIMIT_S:.0f} s; stopping it",
              file=sys.stderr)
    finally:
        left = stop_session(child.pid)
        child.wait()
        if left:
            print(f"perfbench: processes still alive: {left}",
                  file=sys.stderr)

    if timed_out or child.returncode != 0 or not os.path.exists(
            result_path):
        print(f"perfbench: run failed (exit {child.returncode})",
              file=sys.stderr)
        return 1
    with open(result_path) as f:
        result = json.load(f)
    os.remove(result_path)
    with open(os.path.join(WORK, "notes", f"{a.workload}-s{a.seed}"
                           f"-t{a.trace}.json")) as f:
        n_jobs = len(json.load(f).get("reps", ()))
    for name, m in result["metrics"].items():
        line = f"{a.workload}\t{name}\t{m['value']:.6g}\t{m['unit']}"
        if name == "job_s":
            line += f"\tmedian of {n_jobs} timed jobs"
        print(line)
    print(f"{a.workload}\tcorrect={result['correct']}\t"
          f"attempted={result['attempted']}\tfailed={result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
