"""CPU time and peak memory of a process tree, read from ``/proc``.

The dedup job runs in the benchmark's main process and the Ray
session it starts (GCS, raylet, workers): all of them descend from
that process.  Accounting is by snapshot, with no sampling thread:

* CPU: the machine's busy time (user + nice + system in
  ``/proc/stat``) over the job, minus the time every process outside
  the tree used meanwhile (its own utime + stime; the CPU of children
  it reaps is left out, since it may have been spent long before the
  job).  Summing the tree's own processes instead would miss the job's
  short-lived workers: Ray starts actor processes for a dataset
  execution and they exit, unreaped into any counted parent, before
  the job returns.  An outside process that exits during the job is
  not in the second snapshot, so its CPU in the job counts as the
  session's.
* Memory: ``clear_refs`` value 5 resets each process's peak resident
  set (``VmHWM``) before the job; after it, the peaks are summed.
  Processes started during the job have peaks from their own start.
  Pages a process shares with others (the object store's mapping)
  count in every process that touched them.
"""

from __future__ import annotations

import os
import signal
import time

_CLK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return raw[raw.rindex(")") + 2:].split()


def _all_pids() -> list[int]:
    return [int(d) for d in os.listdir("/proc") if d.isdigit()]


def tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for pid in _all_pids():
        f = _stat_fields(pid)
        if f is not None:
            children.setdefault(int(f[1]), []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def _busy_ticks() -> int:
    with open("/proc/stat") as f:
        user, nice, system = f.readline().split()[1:4]
    return int(user) + int(nice) + int(system)


def cpu_snapshot() -> tuple[int, dict[int, int]]:
    """(machine busy ticks, per-process utime + stime ticks)."""
    ticks = {}
    for pid in _all_pids():
        f = _stat_fields(pid)
        if f is not None:
            ticks[pid] = int(f[11]) + int(f[12])
    return _busy_ticks(), ticks


def session_cpu_s(root: int, before, after) -> float:
    """CPU seconds the tree of ``root`` used between two snapshots."""
    busy0, t0 = before
    busy1, t1 = after
    inside = set(tree(root))
    outside = sum(t - t0.get(pid, 0) for pid, t in t1.items()
                  if pid not in inside)
    return (busy1 - busy0 - outside) / _CLK


def reset_peaks(pids: list[int]) -> None:
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
                        break
        except OSError:
            pass
    return kb / 1024.0


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    out = []
    for pid in _all_pids():
        f = _stat_fields(pid)
        if f is not None and f[0] != "Z" and int(f[3]) == sid:
            out.append(pid)
    return out


def stop_session(sid: int, grace_s: float = 5.0,
                 wait_s: float = 10.0) -> list[int]:
    """SIGTERM every process of session ``sid``, SIGKILL what is left
    after ``grace_s``, and wait until none is alive.  Returns the pids
    still alive when ``wait_s`` ran out (empty on success)."""
    for sig, limit in ((signal.SIGTERM, grace_s),
                       (signal.SIGKILL, wait_s)):
        pids = session_members(sid)
        if not pids:
            return []
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        end = time.monotonic() + limit
        while time.monotonic() < end:
            if not session_members(sid):
                return []
            time.sleep(0.1)
    return session_members(sid)
