"""Process hygiene for the benchmark (Linux ``/proc``).

The benchmark process makes itself a child subreaper, so a process whose
parent dies -- a service worker whose daemon was SIGKILLed -- is
reparented to the benchmark instead of to PID 1, and can be reaped and
accounted for here.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import Dict, Iterable, List, Set

_PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _stat(pid: int):
    """``(state, ppid)`` of ``pid``, or None when it no longer exists."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def _parents() -> Dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None and st[0] != "Z":
                out[int(name)] = st[1]
    return out


def alive(pid: int) -> bool:
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def children(pid: int) -> List[int]:
    return [p for p, ppid in _parents().items() if ppid == pid]


def descendants(root: int) -> List[int]:
    parents = _parents()
    found: List[int] = []
    frontier = [root]
    while frontier:
        cur = frontier.pop()
        kids = [p for p, ppid in parents.items() if ppid == cur]
        found.extend(kids)
        frontier.extend(kids)
    return found


def live_tree(root: int) -> List[int]:
    """``root`` and its descendants, found through each thread's
    ``children`` file: cheap enough to poll, unlike a scan of ``/proc``."""
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        found.append(pid)
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/children") as fh:
                    frontier.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return found


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Largest ``VmHWM`` (peak resident set) among ``pids``, in MB."""
    peak = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
        except OSError:
            continue
    return peak / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def kill_tree(root: int) -> List[int]:
    """SIGKILL ``root`` and every descendant; return the descendants.

    ``root`` is stopped first so it cannot start a replacement worker
    between the scan and the kill."""
    try:
        os.kill(root, signal.SIGSTOP)
    except ProcessLookupError:
        return []
    tree = descendants(root)
    for pid in tree + [root]:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return tree


def reap(pids: Iterable[int], timeout_s: float = 10.0) -> List[int]:
    """Wait until every pid is gone (reaping the ones reparented to this
    process); return those still alive at the deadline."""
    pending: Set[int] = set(pids)
    deadline = time.monotonic() + timeout_s
    while pending and time.monotonic() < deadline:
        for pid in list(pending):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid if not alive(pid) else 0
            if done:
                pending.discard(pid)
        if pending:
            time.sleep(0.01)
    return sorted(pending)
