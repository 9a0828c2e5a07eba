"""The one supervised pool of worker processes.

The portfolio race, batch grids and the verification service all run
their workers on :class:`Supervisor`.  A job is ``fn(*args)`` with a
picklable module-level ``fn``; its future resolves to ``{"result":
value}``, or to ``{"error": message}`` when ``fn`` raised or its worker
died or hung, plus ``queue_wait_s``.  The pool never looks at a result.

Each worker has its own pipe and the parent hands every job to one idle
worker, so the parent knows which job a worker holds, and a worker
SIGKILLed anywhere breaks only its own pipe (a queue shared by all
workers is guarded by cross-process locks a killed worker never
releases).  Warm start, recycling, reaping, hang detection, shutdown and
parent-death exit are described in ``docs/ROBUSTNESS.md``.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import pickle
import queue as queue_mod
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "CONTEXT",
    "HEARTBEAT_S",
    "TERM_GRACE_S",
    "Supervisor",
    "retire_worker",
]

#: Start-method context for workers and for any queue a caller hands them
#: through ``initializer`` (queues must come from the same context).
CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)

#: Interval between worker heartbeats.
HEARTBEAT_S = 0.2

#: Seconds a SIGTERM'd worker gets to exit before SIGKILL.
TERM_GRACE_S = 5.0

#: Message kinds a worker sends.
_START = "start"
_DONE = "done"

# Worker side: set by retire_worker() while a job runs.
_retire_requested = False


def retire_worker() -> None:
    """Ask the pool to replace this worker once the current job is done
    (e.g. the job bloated its heap).  A no-op outside a pool worker."""
    global _retire_requested
    _retire_requested = True


def _heartbeat(parent: int, beat, heartbeat_s: float) -> None:
    """Worker thread: stamp ``beat`` until the parent is gone, then exit
    the whole worker -- nobody is left to collect its work."""
    while os.getppid() == parent:
        beat.value = time.monotonic()
        time.sleep(heartbeat_s)
    os._exit(1)


def _worker_main(
    wid: int,
    parent: int,
    conn,
    beat,
    recycle_after: Optional[int],
    heartbeat_s: float,
    initializer: Optional[Callable[[], None]],
) -> None:
    """Worker entry point: initialise, then run jobs until retired.

    Sends ``(job_id, wid, kind, payload, wall_ts)``: a ``start`` when a
    job arrives (the parent measures queue wait from it), then a ``done``
    with the envelope and whether the worker retires after it.
    """
    global _retire_requested
    threading.Thread(
        target=_heartbeat, args=(parent, beat, heartbeat_s),
        name="worker-heartbeat", daemon=True,
    ).start()
    if initializer is not None:
        initializer()
    jobs_done = 0
    while True:
        job_id, fn, args = conn.recv()
        conn.send((job_id, wid, _START, None, time.time()))
        _retire_requested = False
        try:
            payload: Dict[str, Any] = {"result": fn(*args)}
        except BaseException as exc:  # noqa: BLE001 - report, then retire
            payload = {"error": f"{type(exc).__name__}: {exc}"}
        jobs_done += 1
        payload["retire"] = (
            "error" in payload
            or _retire_requested
            or (recycle_after is not None and jobs_done >= recycle_after)
        ) or None
        conn.send((job_id, wid, _DONE, payload, time.time()))
        if payload["retire"]:
            return


class Supervisor:
    """A fixed-size pool of supervised worker processes (see module
    docstring).

    Args:
        size: worker processes kept alive.
        recycle_after: jobs a worker runs before it is replaced (``None``:
            no quota).
        initializer: called once in every worker before its first job.
        hang_timeout_s: a worker silent this long is killed as hung
            (``None`` disables hang detection).
        heartbeat_s: worker heartbeat interval; the pool also checks for
            dead and hung workers this often.
    """

    def __init__(
        self,
        size: int,
        recycle_after: Optional[int] = None,
        initializer: Optional[Callable[[], None]] = None,
        hang_timeout_s: Optional[float] = 30.0,
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if recycle_after is not None and recycle_after < 1:
            raise ValueError(f"recycle_after must be >= 1, got {recycle_after}")
        self.size = size
        self.recycle_after = recycle_after
        self.hang_timeout_s = hang_timeout_s
        self.heartbeat_s = heartbeat_s
        self._initializer = initializer
        # Every worker's messages, forwarded by one reader thread per pipe.
        self._result_q: "queue_mod.Queue" = queue_mod.Queue()
        self._lock = threading.Lock()
        self._futures: Dict[int, Future] = {}
        self._submitted_at: Dict[int, float] = {}
        self._queue_wait: Dict[int, float] = {}
        self._assigned: Dict[int, int] = {}  # job_id -> wid
        self._backlog: Deque[Tuple[int, bytes]] = collections.deque()
        self._idle: List[int] = []
        self._procs: Dict[int, Any] = {}
        self._conns: Dict[int, Any] = {}  # wid -> parent end of its pipe
        self._readers: Dict[int, threading.Thread] = {}
        self._beats: Dict[int, Any] = {}  # wid -> shared last heartbeat
        self._job_ids = itertools.count(1)
        self._wids = itertools.count(1)
        #: Workers replaced so far (quota, request, error, death or hang).
        self.recycles = 0
        self.jobs_done = 0
        self._closed = False
        for _ in range(size):
            self._spawn_worker()
        self._collector = threading.Thread(
            target=self._collect, name="supervisor-collector", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------
    # Parent-side API
    # ------------------------------------------------------------------

    def submit(self, fn: Callable, *args) -> Tuple[int, Future, float]:
        """Queue ``fn(*args)``; returns ``(job_id, future, submitted_at)``.

        Jobs start in submission order.  The future is marked running
        when a worker picks the job up and resolves to its envelope.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        fut: Future = Future()
        submitted = time.time()
        with self._lock:
            job_id = next(self._job_ids)
            job = pickle.dumps((job_id, fn, args), pickle.HIGHEST_PROTOCOL)
            self._futures[job_id] = fut
            self._submitted_at[job_id] = submitted
            self._backlog.append((job_id, job))
            self._dispatch()
        return job_id, fut, submitted

    def alive(self) -> int:
        """Workers currently alive (health/readiness probes)."""
        return sum(1 for p in list(self._procs.values()) if p.is_alive())

    def pending(self) -> int:
        """Jobs submitted but not yet resolved (queued + in flight)."""
        with self._lock:
            return len(self._futures)

    def shutdown(self, grace_s: float = TERM_GRACE_S) -> None:
        """Stop the pool: SIGTERM every worker, SIGKILL those still alive
        after ``grace_s``, fail every unresolved job.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if threading.current_thread() is not self._collector:
            self._collector.join()
        procs = list(self._procs.values())
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + grace_s
        for proc in procs:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=1.0)
        with self._lock:
            futures = list(self._futures.values())
            self._futures.clear()
        for fut in futures:
            if not fut.done():
                fut.set_exception(RuntimeError("worker pool shut down"))

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _spawn_worker(self) -> None:
        wid = next(self._wids)
        conn, child_conn = CONTEXT.Pipe()
        beat = CONTEXT.Value("d", time.monotonic(), lock=False)
        proc = CONTEXT.Process(
            target=_worker_main,
            args=(
                wid, os.getpid(), child_conn, beat, self.recycle_after,
                self.heartbeat_s, self._initializer,
            ),
            daemon=True,
            name=f"pool-worker-{wid}",
        )
        proc.start()
        child_conn.close()  # the pipe reads EOF once the worker is gone
        reader = threading.Thread(
            target=self._read, args=(conn,), name=f"pool-reader-{wid}",
            daemon=True,
        )
        reader.start()
        with self._lock:
            self._procs[wid] = proc
            self._conns[wid] = conn
            self._readers[wid] = reader
            self._beats[wid] = beat
            self._idle.append(wid)
            self._dispatch()

    def _read(self, conn) -> None:
        """Reader thread: forward one worker's messages until its pipe
        closes (the worker is gone)."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return
            self._result_q.put(message)

    def _dispatch(self) -> None:
        """Hand backlog jobs to idle workers, oldest first (caller holds
        ``_lock``)."""
        while self._backlog and self._idle:
            wid = self._idle.pop()
            job_id, job = self._backlog.popleft()
            try:
                self._conns[wid].send_bytes(job)
            except OSError:
                # The worker just died: the job waits for the next one.
                self._backlog.appendleft((job_id, job))
                continue
            self._assigned[job_id] = wid

    def _collect(self) -> None:
        """Collector thread: resolve futures, recycle retired workers,
        reap the dead and kill the hung, checking once per heartbeat."""
        next_check = 0.0
        while not self._closed:
            try:
                message = self._result_q.get(timeout=self.heartbeat_s)
                self._handle_message(*message)
            except queue_mod.Empty:
                pass
            now = time.monotonic()
            if now >= next_check:
                next_check = now + self.heartbeat_s
                self._reap_dead()
                self._kill_hung(now)

    def _handle_message(self, job_id, wid, kind, payload, wall_ts) -> None:
        """Process one worker message (a job START or DONE)."""
        if kind == _START:
            with self._lock:
                fut = self._futures.get(job_id)
                submitted = self._submitted_at.pop(job_id, None)
                if submitted is not None:
                    # Wall-clock queue wait, measured across processes.
                    self._queue_wait[job_id] = max(0.0, wall_ts - submitted)
            if fut is not None and not fut.done():
                fut.set_running_or_notify_cancel()
            return
        with self._lock:
            fut = self._futures.pop(job_id, None)
            wait = self._queue_wait.pop(job_id, 0.0)
            self._submitted_at.pop(job_id, None)
            self._assigned.pop(job_id, None)
        retire = payload.pop("retire", None)
        if fut is not None and not fut.done():
            payload["queue_wait_s"] = round(wait, 6)
            self.jobs_done += 1
            fut.set_result(payload)
        if retire is not None:
            self._replace(wid)
            return
        with self._lock:
            if wid in self._procs:
                self._idle.append(wid)
                self._dispatch()

    def _reap_dead(self) -> None:
        """Detect workers that died without retiring; fail their jobs."""
        dead = [w for w, p in list(self._procs.items()) if not p.is_alive()]
        if not dead:
            return
        # A retiring worker exits right after sending its DONE message,
        # so "process dead" can be observed before the message is read.
        # Let the dead workers' readers forward everything they sent,
        # then drain: a completed job's real payload must win over (and
        # its retirement replace) the died-mid-job diagnosis below.
        for wid in dead:
            reader = self._readers.get(wid)
            if reader is not None:
                reader.join(timeout=1.0)
        while True:
            try:
                message = self._result_q.get_nowait()
            except queue_mod.Empty:
                break
            self._handle_message(*message)
        for wid in dead:
            proc = self._procs.get(wid)
            if proc is None:
                continue  # retired cleanly via its drained DONE message
            proc.join(timeout=0.5)
            self._replace(
                wid,
                "worker died mid-job without reporting a result "
                f"(exitcode {proc.exitcode})",
            )

    def _kill_hung(self, now: float) -> None:
        """SIGKILL every worker whose heartbeat is older than the hang
        timeout; fail its job."""
        if self.hang_timeout_s is None:
            return
        for wid, beat in list(self._beats.items()):
            silent = now - beat.value
            if silent > self.hang_timeout_s:
                self._procs[wid].kill()
                self._replace(
                    wid, f"worker hung: no heartbeat for {silent:.1f}s"
                )

    def _replace(self, wid: int, error: str = "worker replaced") -> None:
        """Forget worker ``wid`` (retired, dead or killed), fail the job it
        still holds with ``error``, and spawn its replacement."""
        proc = self._procs.pop(wid, None)
        if proc is None:
            return  # already replaced
        proc.join(timeout=TERM_GRACE_S)
        if proc.is_alive():
            proc.kill()
        with self._lock:
            self._conns.pop(wid, None)
            self._readers.pop(wid, None)
            self._beats.pop(wid, None)
            if wid in self._idle:
                self._idle.remove(wid)
            lost = [j for j, w in self._assigned.items() if w == wid]
            futures = [self._futures.pop(j, None) for j in lost]
            for job_id in lost:
                self._submitted_at.pop(job_id, None)
                self._queue_wait.pop(job_id, None)
                self._assigned.pop(job_id, None)
        for fut in futures:
            if fut is not None and not fut.done():
                fut.set_result({"error": error})
        self.recycles += 1
        if not self._closed:
            self._spawn_worker()
