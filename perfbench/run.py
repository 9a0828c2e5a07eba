#!/usr/bin/env python3
"""The repository benchmark.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload {svcomp,litmus,serve} --seed N \\
        --seconds S --trace {0,1}

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
checkout root; ``perfbench/README.md`` explains them and maps each layer
metric to the end-to-end metric it should move.

``--trace 0`` repeats untraced passes for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
(layer entry points wrapped, see ``spans.py``) and prints the per-layer
metrics plus ``trace.overhead_frac``; its spans are written to
``perfbench/out/``.  Every verdict is checked against ground truth, and
the counters of every fresh verdict must repeat exactly across passes
and processes.  The last line of stdout is one JSON object; the exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inproc
import procs
import serve
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("svcomp", "litmus", "serve")
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 30.0


class BenchError(Exception):
    """A check failed: the run reports ``correct: false`` and exits 1."""


def bootstrap() -> dict:
    """Point imports at ``src/``, clear every ``REPRO_*`` knob, make this
    process a subreaper.  Returns the knobs that were cleared."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    cleared = {k: os.environ.pop(k) for k in list(os.environ) if k.startswith("REPRO_")}
    os.environ["PYTHONPATH"] = str(SRC)  # inherited by spawned daemons
    sys.path.insert(0, str(SRC))
    import repro
    from repro.verify.config import ENV_VARS

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    still_set = [k for k in ENV_VARS if k in os.environ]
    if still_set:
        sys.exit(f"perfbench: environment knobs {still_set} are not cleared")
    procs.become_subreaper()
    return cleared


def setup(workload: str, seed: int) -> dict:
    """Generate the workload's inputs from ``seed``."""
    tasks = inproc.build_suite(workload)
    rng = random.Random(seed)
    ctx = {"tasks": tasks, "configs": inproc.configs_for(tasks)}
    if workload == "serve":
        ctx["stream"] = serve.build_stream(tasks, rng)
    else:
        ctx["ordered"] = list(tasks)
        ctx["rng"] = rng  # reshuffles the order before every pass
    ctx["warmup"] = next(t for t in tasks if t.name == inproc.WARMUP_TASK)
    return ctx


def warmup(workload: str, ctx: dict):
    """One warm-up verdict, through a private daemon for ``serve``.

    Returns its counters and the daemon (None in-process), which the
    caller kills once set-up time is taken."""
    task = ctx["warmup"]
    cfg = ctx["configs"][task.unwind]
    daemon = None
    if workload == "serve":
        daemon = serve.Daemon()
        try:
            result = daemon.client.verify(task.source, cfg)
        except BaseException:
            daemon.kill()
            raise
    else:
        from repro.api import verify

        result = verify(task.source, cfg)
    if not inproc.check_verdict(task, result.verdict):
        raise BenchError(f"warm-up {task.name}: got {result.verdict}")
    return list(inproc.counts_of(result.stats)), daemon


def setup_probe(workload: str, seed: int) -> None:
    """Body of one ``--setup-probe`` process: set up, report, clean up."""
    bootstrap()
    counts, daemon = warmup(workload, setup(workload, seed))
    print(json.dumps({"ready": True, "counts": counts}), flush=True)
    if daemon is not None:
        daemon.kill()


def run_probes(workload: str, seed: int):
    """Time ``SETUP_PROBES`` fresh processes from spawn to their ready
    line; returns (seconds list, warm-up counters of each)."""
    times, counts = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            times.append(time.perf_counter() - t0)
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            line = ""
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith("{"):
            raise BenchError(f"setup probe failed (exit {proc.returncode})")
        counts.append(json.loads(line)["counts"])
    return times, counts


def run_passes(workload: str, ctx: dict, seconds: float, trace: bool):
    """Untraced passes (alternating with traced ones when ``trace``)
    until ``seconds`` have elapsed; at least one of each kind."""
    def one(recorder, label):
        gc.collect()
        if workload == "serve":
            return serve.run_pass(ctx["tasks"], ctx["configs"], ctx["stream"],
                                  recorder, label)
        ctx["rng"].shuffle(ctx["ordered"])
        return inproc.run_pass(ctx["ordered"], ctx["configs"], recorder, label)

    plain, traced, recorders = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(one(None, f"u{len(plain)}"))
        if trace:
            recorders.append(SpanRecorder())
            traced.append(one(recorders[-1], f"t{len(traced)}"))
        if time.perf_counter() >= deadline:
            return plain, traced, recorders


def check_counts(passes, probe_counts, main_counts) -> None:
    """Fresh-verdict counters must repeat exactly across passes (and, for
    the warm-up task, across processes)."""
    ref = passes[0].counts
    for p in passes[1:]:
        for task, counts in p.counts.items():
            if task in ref and ref[task] != counts:
                raise BenchError(f"counters of {task} differ between passes")
    seen = probe_counts + ([main_counts] if main_counts is not None else [])
    if any(c != seen[0] for c in seen[1:]):
        raise BenchError("warm-up counters differ between processes")


def p90(xs):
    return statistics.quantiles(xs, n=10)[8]


def end_to_end(plain, setup_times) -> dict:
    lat = [x for p in plain for x in p.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "throughput_per_s": statistics.median(p.throughput_per_s for p in plain),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90(lat),
        "answered_frac": statistics.median(len(p.latencies_ms) / p.attempted for p in plain),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
    }


def per_layer(plain, traced) -> dict:
    """Median over traced passes of each layer metric, plus the tracing
    overhead and the failed share of every pass of the run."""
    out = dict.fromkeys(serve.SERVICE_KEYS, 0)
    for key in traced[0].layers:
        out[key] = statistics.median(p.layers[key] for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in plain)
    traced_wall = statistics.median(p.wall_s for p in traced)
    out["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    runs = plain + traced
    out["failed_frac"] = sum(p.failed for p in runs) / sum(p.attempted for p in runs)
    return out


def write_spans(workload, seed, recorders) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, rec in enumerate(recorders):
            rec.write_jsonl(fh, f"t{i}")
    return path


def declared_metrics(trace: bool) -> dict:
    """``name -> unit`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    cleared = bootstrap()
    print(f"perfbench: cleared env knobs {json.dumps(cleared)}")
    trace = bool(args.trace)
    units = declared_metrics(trace)
    report = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        setup_times, probe_counts = ([], []) if trace else run_probes(args.workload, args.seed)
        ctx = setup(args.workload, args.seed)
        main_counts = None
        if args.workload != "serve":
            main_counts, _ = warmup(args.workload, ctx)
        plain, traced, recorders = run_passes(args.workload, ctx, args.seconds, trace)
        runs = plain + traced
        report["attempted"] = sum(p.attempted for p in runs)
        report["failed"] = sum(p.failed for p in runs)
        wrong = [w for p in runs for w in p.wrong]
        if wrong:
            shown = sorted(set(wrong))
            raise BenchError(
                f"{len(wrong)} wrong verdicts, e.g. " + "; ".join(shown[:5])
            )
        check_counts(runs, probe_counts, main_counts)
        if trace:
            counted = [dict(r.counts) for r in recorders]
            if any(c != counted[0] for c in counted[1:]):
                raise BenchError("span counters differ between traced passes")
            metrics = per_layer(plain, traced)
            print(f"perfbench: spans written to {write_spans(args.workload, args.seed, recorders)}")
        else:
            metrics = end_to_end(plain, setup_times)
        if set(metrics) != set(units):
            raise BenchError(
                f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json"
            )
        print(f"perfbench: {args.workload} passes={len(plain)}+{len(traced)} "
              f"attempted={report['attempted']} failed={report['failed']} "
              f"failed_frac={report['failed'] / report['attempted']:.4f}")
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        report["correct"] = True
    except (BenchError, serve.DaemonError) as exc:
        print(f"perfbench: FAILED: {exc}")
    finally:
        leftover = procs.children(os.getpid())
        if leftover:
            for pid in leftover:
                procs.kill_tree(pid)
            procs.reap(leftover)
            print(f"perfbench: FAILED: processes left behind: {leftover}")
            report["correct"] = False
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
