"""Process-tree helpers for tests that start real daemons (Linux
``/proc``; elsewhere a tree is just its root)."""

import os
import signal
import time


def _stat(pid):
    """``(state, ppid)`` of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            text = fh.read()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2:].split()
    return fields[0], int(fields[1])


def alive(pid):
    """True while ``pid`` exists and is not a zombie."""
    st = _stat(pid)
    return st is not None and st[0] != "Z"


def descendants(root):
    """Every live process below ``root``."""
    if not os.path.isdir("/proc"):
        return []
    parents = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None and st[0] != "Z":
                parents[int(name)] = st[1]
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, ppid in parents.items() if ppid == pid]
        found.extend(kids)
        frontier.extend(kids)
    return found


def wait_gone(pids, timeout_s=10.0):
    """Wait until none of ``pids`` is alive; returns the survivors."""
    deadline = time.monotonic() + timeout_s
    while True:
        left = [p for p in pids if alive(p)]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)


def kill_tree(proc, timeout_s=10.0):
    """SIGKILL a daemon ``Popen`` and everything below it, and reap it."""
    tree = descendants(proc.pid)
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=timeout_s)
    for pid in tree:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    wait_gone(tree, timeout_s)
