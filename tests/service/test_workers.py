"""Worker-pool unit tests: the collector's reaping logic and hang
detection.

The end-to-end pool behavior (recycling, death recovery) is exercised in
``test_service_e2e.py``; here we pin down the *race* between a retiring
worker's final DONE message and the reaper observing its process dead --
the completed job's real payload must win over the death diagnosis --
and the heartbeat watchdog on real worker processes.
"""

import collections
import itertools
import queue
import threading
import time
from concurrent.futures import Future

import pytest

from repro.robustness.faults import ENV_VAR
from repro.service.workers import service_job
from repro.supervisor import CONTEXT, Supervisor

SAFE_PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""


class _DeadProc:
    """Stands in for a worker process that has already exited."""

    exitcode = 0

    def is_alive(self):
        return False

    def join(self, timeout=None):
        pass


def _bare_pool() -> Supervisor:
    """A Supervisor shell with no real processes or collector thread --
    just the state ``_reap_dead`` / ``_handle_message`` operate on."""
    pool = Supervisor.__new__(Supervisor)
    pool._lock = threading.Lock()
    pool._futures = {}
    pool._submitted_at = {}
    pool._queue_wait = {}
    pool._assigned = {}
    pool._procs = {}
    pool._conns = {}
    pool._readers = {}
    pool._beats = {}
    pool._idle = []
    pool._backlog = collections.deque()
    pool._result_q = queue.Queue()
    pool._wids = itertools.count(100)
    pool.recycles = 0
    pool.jobs_done = 0
    pool._closed = False
    pool._spawn_worker = lambda: None  # no real replacements in this test
    return pool


class TestReapDead:
    def test_queued_done_message_wins_over_death_diagnosis(self):
        """A retiring worker exits right after queueing its DONE; if the
        reaper runs before the collector read that message, the job must
        still resolve with its real result, not 'worker died mid-job'."""
        pool = _bare_pool()
        fut = Future()
        pool._futures[7] = fut
        pool._assigned[7] = 1
        pool._procs[1] = _DeadProc()
        payload = {"result": {"verdict": "safe"}, "retire": "jobs"}
        pool._result_q.put((7, 1, "done", payload, 0.0))

        pool._reap_dead()

        assert fut.done()
        assert fut.result()["result"]["verdict"] == "safe"
        assert "error" not in fut.result()
        # The retirement was honored exactly once (via the DONE message,
        # not a second time via the death path).
        assert pool.recycles == 1
        assert pool._futures == {} and pool._assigned == {}

    def test_truly_dead_worker_still_fails_its_job(self):
        """With nothing queued, a dead worker's in-flight job resolves to
        the died-mid-job error as before."""
        pool = _bare_pool()
        fut = Future()
        pool._futures[9] = fut
        pool._assigned[9] = 2
        pool._procs[2] = _DeadProc()

        pool._reap_dead()

        assert fut.done()
        assert "worker died mid-job" in fut.result()["error"]
        assert pool.recycles == 1


@pytest.mark.skipif(
    CONTEXT.get_start_method() != "fork",
    reason="fault env propagation requires fork",
)
@pytest.mark.timeout(120)
class TestHangDetection:
    def test_frozen_worker_is_killed_and_replaced(self, monkeypatch):
        """A SIGSTOPped worker stops heartbeating: the pool kills it,
        fails its job as hung, and a fresh worker serves the next job."""
        monkeypatch.setenv(ENV_VAR, "sigstop@service_worker")
        pool = Supervisor(1, hang_timeout_s=1.0, heartbeat_s=0.1)
        try:
            monkeypatch.delenv(ENV_VAR)  # the replacement forks clean
            _, fut, _ = pool.submit(service_job, SAFE_PROGRAM, None, None)
            start = time.monotonic()
            envelope = fut.result(timeout=60)
            assert "hung" in envelope["error"]
            assert time.monotonic() - start < 30
            assert pool.recycles == 1
            _, fut, _ = pool.submit(service_job, SAFE_PROGRAM, None, None)
            assert fut.result(timeout=60)["result"]["verdict"] == "safe"
        finally:
            pool.shutdown()

    def test_long_job_keeps_heartbeating(self):
        """A job busy far beyond the hang timeout is not a hang."""
        pool = Supervisor(1, hang_timeout_s=0.5, heartbeat_s=0.05)
        try:
            _, fut, _ = pool.submit(time.sleep, 1.5)
            envelope = fut.result(timeout=60)
            assert "error" not in envelope and envelope["result"] is None
            assert pool.recycles == 0
        finally:
            pool.shutdown()
