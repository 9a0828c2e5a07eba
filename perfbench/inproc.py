"""Task suites, the in-process pass and the per-layer metric table."""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import procs
from spans import layer_spans

#: Small task in both suites: the warm-up verdict of every set-up.
WARMUP_TASK = "wmm/iriw-3-safe"

SAT_KEYS = (
    "conflicts", "decisions", "propagations", "watcher_visits",
    "heap_ops", "restarts", "learned",
)
ORDERING_KEYS = (
    "theory_conflicts", "theory_propagations", "theory_conflict_clauses",
    "theory_fr_derived", "theory_icd_reorders", "theory_icd_fast_path",
    "theory_edges_activated",
)
ENCODING_KEYS = (
    "sat_vars", "rf_vars", "ws_vars",
    "analysis_pairs_total", "analysis_pairs_pruned",
)
#: Counters that must repeat exactly from pass to pass and process to
#: process (result ``stats`` keys).
COUNT_KEYS = SAT_KEYS + ORDERING_KEYS + ENCODING_KEYS


def build_suite(workload: str):
    """The workload's tasks in generation order (seeding happens later)."""
    from repro.bench.svcomp import svcomp_suite

    if workload == "svcomp":
        return svcomp_suite(scale=1)
    return [t for t in svcomp_suite(scale=5) if t.category == "wmm"]


def configs_for(tasks) -> Dict[int, object]:
    """Zord preset per distinct unwind bound (configs are immutable)."""
    from repro.verify import VerifierConfig

    return {u: VerifierConfig.zord(unwind=u) for u in {t.unwind for t in tasks}}


def counts_of(stats) -> Tuple[int, ...]:
    return tuple(int(stats.get(k, 0)) for k in COUNT_KEYS)


def check_verdict(task, verdict: str) -> Optional[bool]:
    """True = correct, False = wrong conclusive verdict, None = inconclusive."""
    from repro.verify.result import Verdict

    if verdict not in (Verdict.SAFE, Verdict.UNSAFE):
        return None
    return (verdict == Verdict.SAFE) == task.expected_safe


@dataclass
class PassResult:
    """One timed pass over a workload's inputs."""

    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: Latency of each request answered with a correct conclusive verdict.
    latencies_ms: List[float] = field(default_factory=list)
    #: Wrong conclusive verdicts, as ``"task: message"`` lines.
    wrong: List[str] = field(default_factory=list)
    #: ``task -> COUNT_KEYS tuple`` of every fresh (non-cached) verdict.
    counts: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Normalized ``stats`` of every fresh verdict, for the layer table.
    fresh_stats: List[dict] = field(default_factory=list)
    #: Per-layer metrics (filled for traced passes).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS during the pass: of this process, or for ``serve`` the
    #: largest in the daemon tree.
    peak_rss_mb: float = 0.0
    #: Serve workload only: requests that hit the per-request timeout.
    timeouts: int = 0

    @property
    def throughput_per_s(self) -> float:
        return len(self.latencies_ms) / self.wall_s


def run_pass(tasks: Sequence, configs, recorder=None, label: str = "") -> PassResult:
    """Verify every task serially through :func:`repro.api.verify`.

    With a ``recorder`` the layer entry points are wrapped for the pass
    and a root span ``verify.api`` is opened around every verdict."""
    from repro.api import verify

    out = PassResult()
    ctx = layer_spans(recorder) if recorder is not None else contextlib.nullcontext()
    procs.reset_peak_rss()
    with ctx:
        start = time.perf_counter()
        for task in tasks:
            cfg = configs[task.unwind]
            out.attempted += 1
            if recorder is not None:
                recorder.task = f"{label}:{task.name}"
                idx = recorder.begin("verify.api")
                t0 = time.perf_counter()
                try:
                    result = verify(task.source, cfg)
                finally:
                    recorder.end(idx)
            else:
                t0 = time.perf_counter()
                result = verify(task.source, cfg)
            elapsed_ms = (time.perf_counter() - t0) * 1e3
            ok = check_verdict(task, result.verdict)
            if ok is None:
                out.failed += 1
            elif not ok:
                out.wrong.append(f"{task.name}: got {result.verdict}")
            else:
                out.latencies_ms.append(elapsed_ms)
            out.counts[task.name] = counts_of(result.stats)
            out.fresh_stats.append(result.stats)
        out.wall_s = time.perf_counter() - start
    out.peak_rss_mb = procs.peak_rss_mb([os.getpid()])
    if recorder is not None:
        out.layers = layer_metrics(recorder, out.fresh_stats)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(recorder, fresh_stats: Sequence[dict]) -> Dict[str, float]:
    """The per-layer table of one pass: span self times from
    ``recorder`` (None when the layers ran in another process) and
    counters summed from the fresh verdicts' ``stats``."""
    total = {k: 0 for k in COUNT_KEYS}
    for stats in fresh_stats:
        for k in COUNT_KEYS:
            total[k] += int(stats.get(k, 0))
    own: Dict[str, float] = {}
    tallies: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    if recorder is not None:
        own = recorder.self_seconds()
        tallies = recorder.tallies()
        counts = recorder.counts
    assign = tallies.get("ordering.assign", [0, 0.0])
    backjump = tallies.get("ordering.backjump", [0, 0.0])
    return {
        "lang.parse_s": own.get("lang.parse", 0.0),
        "lang.sema_s": own.get("lang.sema", 0.0),
        "frontend.ssa_s": own.get("frontend.ssa", 0.0),
        "frontend.events": counts.get("frontend.events", 0),
        "analysis.prune_s": own.get("analysis.prune", 0.0),
        "analysis.pruned_frac": _ratio(
            total["analysis_pairs_pruned"], total["analysis_pairs_total"]
        ),
        "encoding.self_s": own.get("encoding.encode", 0.0),
        "encoding.sat_vars": total["sat_vars"],
        "encoding.clauses": counts.get("encoding.clauses", 0),
        "encoding.rf_vars": total["rf_vars"],
        "encoding.ws_vars": total["ws_vars"],
        "sat.self_s": own.get("sat.solve", 0.0),
        "sat.conflicts": total["conflicts"],
        "sat.decisions": total["decisions"],
        "sat.propagations": total["propagations"],
        "sat.watcher_visits": total["watcher_visits"],
        "sat.heap_ops": total["heap_ops"],
        "sat.restarts": total["restarts"],
        "sat.learned": total["learned"],
        "ordering.assign_s": assign[1],
        "ordering.backjump_s": backjump[1],
        "ordering.assign_calls": assign[0],
        "ordering.theory_conflicts": total["theory_conflicts"],
        "ordering.theory_propagations": total["theory_propagations"],
        "ordering.conflict_clauses": total["theory_conflict_clauses"],
        "ordering.fr_derived": total["theory_fr_derived"],
        "ordering.icd_reorders": total["theory_icd_reorders"],
        "ordering.fast_path_frac": _ratio(
            total["theory_icd_fast_path"], total["theory_edges_activated"]
        ),
        "ordering.theory_conflict_frac": _ratio(
            total["theory_conflicts"], total["conflicts"]
        ),
        "verify.witness_s": own.get("verify.witness", 0.0),
        "verify.glue_s": own.get("verify.api", 0.0),
    }
