"""The ``serve`` workload: a private ``repro serve --tcp`` daemon (default
settings, one worker) on a loopback port, driven closed-loop by one
client thread with one request in flight.  Daemon, worker and client
already share two cores: with two requests in flight, hits queued for
CPU behind misses and latency_p50_ms spread over 25% of its median from
run to run.

The stream (:func:`build_stream`) is the litmus programs in seeded
order.  Each program first arrives as a miss, followed by two repeats of
programs whose first request came earlier, so the seed alone fixes the
hit/miss split.  154 misses make the worker reach its default recycle
quota (64 jobs) twice per pass.

Every request has a timeout.  On the first one the stream stops: that
request and every one not yet answered count as failed, and the daemon
and its workers are SIGKILLed.  After each pass the benchmark checks that
no process of the daemon's tree survives.
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

import procs
from inproc import PassResult, check_verdict, counts_of, layer_metrics

#: Per-request timeout: far above the slowest litmus miss (~0.1 s on a
#: 2-core box) and a fresh worker's warm-up, so only a stuck request hits it.
REQUEST_TIMEOUT_S = 10.0
REPEATS_PER_PROGRAM = 2
#: How often a pass samples the peak RSS of the daemon tree.  A retired
#: worker's peak is gone once it exits, so it is read while it runs.
RSS_POLL_S = 0.02
#: Bound on daemon start-up (spawn until the ``ready`` probe answers).
SPAWN_TIMEOUT_S = 30.0
#: Layer metrics only this workload measures (0 on the in-process ones).
SERVICE_KEYS = (
    "service.queue_wait_ms_p50", "service.worker_ms_p50",
    "service.transport_ms_p50", "service.hit_p50_ms", "service.miss_p50_ms",
    "service.hit_frac", "service.jobs_coalesced", "service.jobs_shed",
    "service.worker_recycles", "service.timeouts",
)


class DaemonError(RuntimeError):
    pass


def build_stream(tasks, rng) -> List[Tuple[int, bool]]:
    """``(task index, is_first_request)`` pairs of one pass.

    The litmus tasks are ``family x k x safe/unsafe``.  First requests
    come in blocks of one task per ``k``, with families and safety
    rotated so that the blocks partition the tasks and each holds about
    the same mix; the seed orders the blocks and the tasks inside each.
    The two repeats after a first request are the tasks one and two
    blocks back (a random earlier task while there is none), so the hits
    have the same size mix as the misses.  Whatever prefix of the stream
    gets answered, its cost then barely depends on the seed.
    """
    index: Dict[Tuple[str, int, bool], int] = {}
    for i, task in enumerate(tasks):
        family, k, verdict = task.name.split("/", 1)[1].rsplit("-", 2)
        index[family, int(k), verdict == "safe"] = i
    families = sorted({f for f, _, _ in index})
    sizes = sorted({k for _, k, _ in index})
    nf = len(families)
    blocks = [
        [index[families[(b + j) % nf], k, (b // nf + j) % 2 == 0]
         for j, k in enumerate(sizes)]
        for b in range(2 * nf)
    ]
    if sorted(i for block in blocks for i in block) != list(range(len(tasks))):
        raise ValueError("litmus tasks do not form a family x k x verdict grid")
    rng.shuffle(blocks)
    order: List[int] = []
    for block in blocks:
        rng.shuffle(block)
        order.extend(block)
    period = len(sizes)
    stream: List[Tuple[int, bool]] = []
    for i, prog in enumerate(order):
        stream.append((prog, True))
        if i:
            for back in range(1, REPEATS_PER_PROGRAM + 1):
                j = i - back * period
                stream.append((order[j if j >= 0 else rng.randrange(i)], False))
    return stream


class Daemon:
    """A private TCP daemon on a loopback port, a client connection to it,
    and the pids of its process tree seen at kill time."""

    def __init__(self) -> None:
        from repro.service.client import RetryPolicy, ServiceClient, ServiceError

        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--tcp", "127.0.0.1:0", "--workers", "1"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.PIPE, text=True)
        self.pid = self.proc.pid
        self.seen: set = {self.pid}
        self.client = None
        self.rss_peak_mb = 0.0
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], SPAWN_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            marker = "repro-serve: listening on "
            if not line.startswith(marker):
                raise DaemonError(f"daemon did not start listening: {line!r}")
            # One attempt per request: a timed-out request is a failure to
            # report, not one to retry behind the caller's back.
            self.client = ServiceClient.connect(
                line[len(marker):].strip(), timeout=SPAWN_TIMEOUT_S,
                request_timeout_s=REQUEST_TIMEOUT_S, retry=RetryPolicy(attempts=1),
            )
            if self.client.ready() is not True:
                raise DaemonError("daemon not ready")
        except (DaemonError, ServiceError) as exc:
            self.kill()
            raise DaemonError(str(exc)) from None

    def sample_rss(self) -> float:
        """Largest peak RSS seen so far among the daemon and its workers."""
        now = procs.peak_rss_mb(procs.live_tree(self.pid))
        self.rss_peak_mb = max(self.rss_peak_mb, now)
        return self.rss_peak_mb

    def kill(self) -> None:
        """SIGKILL the whole tree, reap everything and verify nothing
        survived."""
        self.seen.update(procs.kill_tree(self.pid))
        if self.client is not None:
            self.client.close()
        try:
            self.proc.wait(10.0)
        except subprocess.TimeoutExpired:
            pass
        self.proc.stdout.close()
        left = procs.reap(self.seen - {self.pid})
        if procs.alive(self.pid):
            left.append(self.pid)
        if left:
            raise DaemonError(f"daemon cleanup failed: live pids {left}")


def run_pass(tasks, configs, stream, recorder=None, label: str = "") -> PassResult:
    """One pass of ``stream`` against a fresh daemon."""
    from repro.service.client import ServiceError, ServiceTimeout

    out = PassResult()
    out.attempted = len(stream)
    daemon = Daemon()
    first_verdict: Dict[int, str] = {}
    outcome: Dict[int, tuple] = {}  # pos -> (latency_ms, result or None)
    stats = None
    try:
        start = next_sample = time.perf_counter()
        for pos, (prog, first) in enumerate(stream):
            if time.perf_counter() >= next_sample:
                daemon.sample_rss()
                next_sample = time.perf_counter() + RSS_POLL_S
            task = tasks[prog]
            t0 = time.perf_counter_ns()
            try:
                result = daemon.client.verify(task.source, configs[task.unwind])
            except ServiceTimeout:
                out.timeouts = 1
                break
            except ServiceError:
                result = None
            t1 = time.perf_counter_ns()
            outcome[pos] = ((t1 - t0) / 1e6, result)
            if first and result is not None:
                first_verdict[prog] = result.verdict
            if recorder is not None:
                recorder.add("service.request", t0, t1, f"{label}:{pos}")
        out.wall_s = time.perf_counter() - start
        out.peak_rss_mb = daemon.sample_rss()
        if not out.timeouts and recorder is not None:
            try:
                stats = daemon.client.stats()
            except ServiceError:
                pass
    finally:
        daemon.kill()

    _score(out, tasks, stream, outcome, first_verdict, stats, recorder)
    return out


def _median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _score(out, tasks, stream, outcome, first_verdict, stats, recorder) -> None:
    """Check every answered verdict and fill the pass metrics."""
    hits: List[float] = []
    misses: List[float] = []
    queue_ms: List[float] = []
    worker_ms: List[float] = []
    transport_ms: List[float] = []
    shed = coalesced = recycles = 0
    for pos, (prog, first) in enumerate(stream):
        if pos not in outcome or outcome[pos][1] is None:
            out.failed += 1
            continue
        latency_ms, result = outcome[pos]
        task = tasks[prog]
        recycles = max(recycles, int(result.stats.get("worker_recycles", 0)))
        if result.stats.get("reason") in ("overloaded", "draining"):
            shed += 1
        ok = check_verdict(task, result.verdict)
        if ok is None:
            out.failed += 1
            continue
        if not ok:
            out.wrong.append(f"{task.name}: served {result.verdict}")
            continue
        prior = first_verdict.get(prog)
        if not first and check_verdict(task, prior) and result.verdict != prior:
            out.wrong.append(
                f"{task.name}: repeat served {result.verdict}, first "
                f"answer was {prior}"
            )
            continue
        out.latencies_ms.append(latency_ms)
        hit = bool(result.stats.get("cache_hit"))
        if hit:
            hits.append(latency_ms)
            coalesced += first
        else:
            misses.append(latency_ms)
            queue = float(result.stats.get("queue_wait_s", 0.0)) * 1e3
            worker = result.wall_time_s * 1e3
            queue_ms.append(queue)
            worker_ms.append(worker)
            transport_ms.append(latency_ms - queue - worker)
            out.counts[task.name] = counts_of(result.stats)
            out.fresh_stats.append(result.stats)
    if recorder is None:
        return
    out.layers = layer_metrics(None, out.fresh_stats)
    if stats is not None:  # the daemon answered the stats op
        shed = stats.get("jobs_shed", shed)
        coalesced = stats.get("jobs_coalesced", coalesced)
        recycles = stats.get("worker_recycles", recycles)
    answered = len(hits) + len(misses)
    out.layers.update({
        "service.queue_wait_ms_p50": _median(queue_ms),
        "service.worker_ms_p50": _median(worker_ms),
        "service.transport_ms_p50": _median(transport_ms),
        "service.hit_p50_ms": _median(hits),
        "service.miss_p50_ms": _median(misses),
        "service.hit_frac": len(hits) / answered if answered else 0.0,
        "service.jobs_coalesced": coalesced,
        "service.jobs_shed": shed,
        "service.worker_recycles": recycles,
        "service.timeouts": out.timeouts,
    })
