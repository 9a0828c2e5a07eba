"""In-memory span recorder for the traced benchmark run.

The program under test is not edited: :func:`layer_spans` swaps public
entry points of each layer for thin timing wrappers and puts the
originals back on exit.  Each wrapped call becomes a span
``(name, start, end, parent, task)`` held in memory; a layer's self time
is its span minus the time its child spans cover.

The two theory hooks the SAT search calls per assigned ordering literal
(``OrderingTheory.assign`` / ``.backjump``) run up to ~10^5 times per
task.  They are *tallied* into the enclosing span -- call count and
summed time, counted as child time of that span -- instead of getting
one span per call, so a traced pass stays small in memory.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Dict, Iterator, List, Optional

_now = time.perf_counter_ns

# Span record layout (a list, not an object: the wrappers are on the hot
# path of a traced run).
_NAME, _START, _END, _PARENT, _TASK, _CHILD, _TALLY = range(7)

#: ``(module, attribute, span name)``: functions wrapped where the
#: pipeline looks them up.  ``repro.verify.verifier`` imports ``parse``,
#: ``build_symbolic_program`` and ``extract_trace`` by name, so those are
#: patched in its namespace; the others are imported at call time.
FUNCTION_SPANS = (
    ("repro.verify.verifier", "parse", "lang.parse"),
    ("repro.lang.sema", "check_program", "lang.sema"),
    ("repro.verify.verifier", "build_symbolic_program", "frontend.ssa"),
    ("repro.analysis.prune", "build_prune_plan", "analysis.prune"),
    ("repro.encoding.encoder", "encode_program", "encoding.encode"),
    ("repro.verify.verifier", "extract_trace", "verify.witness"),
)


class SpanRecorder:
    """Spans of one traced pass, plus the counts read at span boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        #: Task id stamped on every span opened from now on.
        self.task: Optional[str] = None
        self._stack: List[int] = []
        #: Tallies made while no span is open.
        self._loose: Dict[str, List[int]] = {}

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0, parent, self.task, 0, None])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[_END] = _now()
        self._stack.pop()
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_CHILD] += rec[_END] - rec[_START]

    def add(self, name: str, start_ns: int, end_ns: int, task: str) -> None:
        """Record a finished top-level span (thread-safe: one append)."""
        self.spans.append([name, start_ns, end_ns, -1, task, 0, None])

    def tally(self, name: str, ns: int) -> None:
        if self._stack:
            rec = self.spans[self._stack[-1]]
            rec[_CHILD] += ns
            if rec[_TALLY] is None:
                rec[_TALLY] = {}
            slot = rec[_TALLY].setdefault(name, [0, 0])
        else:
            slot = self._loose.setdefault(name, [0, 0])
        slot[0] += 1
        slot[1] += ns

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Summed self time per span name."""
        out: Dict[str, float] = {}
        for rec in self.spans:
            own = rec[_END] - rec[_START] - rec[_CHILD]
            out[rec[_NAME]] = out.get(rec[_NAME], 0.0) + own / 1e9
        return out

    def tallies(self) -> Dict[str, List[float]]:
        """``name -> [calls, seconds]`` over every tallied hook."""
        out: Dict[str, List[float]] = {}
        sources = [rec[_TALLY] for rec in self.spans if rec[_TALLY]]
        sources.append(self._loose)
        for tally in sources:
            for name, (calls, ns) in tally.items():
                slot = out.setdefault(name, [0, 0.0])
                slot[0] += calls
                slot[1] += ns / 1e9
        return out

    def write_jsonl(self, fh, pass_label: str) -> None:
        for idx, rec in enumerate(self.spans):
            row = {
                "pass": pass_label,
                "id": idx,
                "name": rec[_NAME],
                "start_ns": rec[_START],
                "end_ns": rec[_END],
                "parent": rec[_PARENT],
                "task": rec[_TASK],
                "self_ns": rec[_END] - rec[_START] - rec[_CHILD],
            }
            if rec[_TALLY]:
                row["tallies"] = rec[_TALLY]
            fh.write(json.dumps(row) + "\n")


class _ClauseSink:
    """Minimal solver telemetry sink: reads ``clauses`` off the
    ``solve_start`` event of each encoding's first solve."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def emit(self, event: str, **fields) -> None:
        if event == "solve_start" and fields.get("call") == 1:
            self._recorder.count("encoding.clauses", fields["clauses"])


def _wrap_function(rec: SpanRecorder, fn, name: str):
    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if name == "frontend.ssa":
            rec.count("frontend.events", len(result.events))
        elif name == "encoding.encode":
            result.solver.telemetry = _ClauseSink(rec)
        return result

    return traced


def _wrap_hook(rec: SpanRecorder, hook, name: str):
    tally = rec.tally

    def traced(self, *args):
        t0 = _now()
        try:
            return hook(self, *args)
        finally:
            tally(name, _now() - t0)

    return traced


@contextlib.contextmanager
def layer_spans(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route every layer entry point through ``rec`` for the duration."""
    from repro.ordering.solver import OrderingTheory
    from repro.sat.solver import Solver

    patches = []
    for module_name, attr, name in FUNCTION_SPANS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        patches.append((module, attr, original, _wrap_function(rec, original, name)))
    patches.append((Solver, "solve", Solver.solve, _wrap_function(rec, Solver.solve, "sat.solve")))
    for attr in ("assign", "backjump"):
        original = getattr(OrderingTheory, attr)
        patches.append(
            (OrderingTheory, attr, original, _wrap_hook(rec, original, f"ordering.{attr}"))
        )
    for owner, attr, _original, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield rec
    finally:
        for owner, attr, original, _wrapper in patches:
            setattr(owner, attr, original)
