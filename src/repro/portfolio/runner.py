"""The multiprocess portfolio runner: first conclusive verdict wins.

Each configuration runs :func:`repro.verify.verify` in its own fresh
worker process of a :class:`~repro.supervisor.Supervisor` pool (engines
are CPU-bound pure Python, so processes -- not threads -- are the only
way to use more than one core).  Members are submitted in portfolio
order; as soon as one reports SAFE or UNSAFE the pool is shut down,
cancelling the rest with SIGTERM.  Ties between members that finished in
the same drain are broken in favour of the earliest configuration.  With
``jobs=1`` the portfolio degrades gracefully to serial execution in
portfolio order, stopping at the first conclusive verdict -- same winner
rule, no processes.

The supervisor kills a worker silent for ``hang_timeout_s``, reaps one
that dies without reporting (both end as ``status="error"``), and
escalates cancellation from SIGTERM to SIGKILL after ``term_grace_s``.

With ``share_clauses=True`` the members whose configs produce the
identical CNF encoding (grouped by
:func:`repro.portfolio.sharing.encoding_signature`) exchange short learned
clauses while they race: every worker receives all members' import queues
when it is spawned, puts each exported batch straight into its group
siblings' queues, and pulls its own in at its next restart boundary.
Sharing never changes a verdict -- only which engine reaches it first --
because shared clauses are consequences of the common formula.
"""

from __future__ import annotations

import functools
import os
import queue as queue_mod
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.lang import ast
from repro.portfolio.sharing import share_groups
from repro.robustness.faults import fault_point
from repro.sat import sharing as sat_sharing
from repro.supervisor import CONTEXT, HEARTBEAT_S, TERM_GRACE_S, Supervisor
from repro.verify import Verdict, VerificationResult, VerifierConfig, verify
from repro.verify.config import PRESETS

__all__ = ["EngineRun", "PortfolioResult", "verify_portfolio"]

_CONCLUSIVE = (Verdict.SAFE, Verdict.UNSAFE)


@dataclass
class EngineRun:
    """Outcome of one portfolio member.

    ``status`` is one of:

    * ``"conclusive"`` -- returned SAFE or UNSAFE;
    * ``"unknown"`` -- ran to completion but exhausted its budget;
    * ``"cancelled"`` -- lost the race and was terminated (or never
      started because a winner emerged first);
    * ``"error"`` -- the engine raised or the worker died.
    """

    config_name: str
    status: str
    verdict: Optional[str] = None
    wall_time_s: float = 0.0
    result: Optional[VerificationResult] = None
    error: Optional[str] = None


@dataclass
class PortfolioResult:
    """Aggregate outcome of :func:`verify_portfolio`.

    ``verdict`` is the winner's verdict, or UNKNOWN when no member was
    conclusive.  ``runs`` is aligned with the input configuration list.
    """

    verdict: str
    winner: Optional[str]
    result: Optional[VerificationResult]
    runs: List[EngineRun] = field(default_factory=list)
    wall_time_s: float = 0.0
    #: Learned clauses that crossed the sharing medium (0 unless the
    #: portfolio ran with ``share_clauses=True``).
    shared_clauses: int = 0

    @property
    def is_safe(self) -> bool:
        return self.verdict == Verdict.SAFE

    @property
    def is_unsafe(self) -> bool:
        return self.verdict == Verdict.UNSAFE

    def __str__(self) -> str:
        head = f"[portfolio] {self.verdict.upper()} in {self.wall_time_s:.3f}s"
        if self.winner is not None:
            head += f" (winner: {self.winner})"
        if self.shared_clauses:
            head += f" [{self.shared_clauses} clauses shared]"
        lines = [head]
        for run in self.runs:
            verdict = run.verdict or "-"
            lines.append(
                f"  {run.config_name:<14} {run.status:<11} {verdict:<8}"
                f" {run.wall_time_s:.3f}s"
            )
        return "\n".join(lines)


def _coerce_config(item: Union[str, VerifierConfig]) -> VerifierConfig:
    if isinstance(item, VerifierConfig):
        return item
    if isinstance(item, str):
        try:
            return PRESETS[item]()
        except KeyError:
            raise ValueError(
                f"unknown preset {item!r}; available presets: "
                f"{', '.join(sorted(PRESETS))}"
            ) from None
    raise TypeError(
        f"portfolio entries must be VerifierConfig or preset names, "
        f"got {type(item).__name__}"
    )


def _source_of(program: Union[str, ast.Program]) -> str:
    """Normalize to source text (cheap to pickle, workers re-parse)."""
    if isinstance(program, str):
        return program
    from repro.lang.unparse import unparse

    return unparse(program)


def verify_portfolio(
    program: Union[str, ast.Program],
    configs: Sequence[Union[str, VerifierConfig]],
    jobs: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    wall_budget_s: Optional[float] = None,
    hang_timeout_s: Optional[float] = 30.0,
    term_grace_s: float = TERM_GRACE_S,
    heartbeat_s: float = HEARTBEAT_S,
    share_clauses: bool = False,
) -> PortfolioResult:
    """Race a portfolio of engine configurations on one program.

    Args:
        program: source text or a parsed AST.
        configs: :class:`VerifierConfig` instances or preset names
            (``"zord"``, ``"cbmc"``, ...); earlier entries win ties.
        jobs: worker processes (default: ``min(len(configs), cpu_count)``);
            ``1`` falls back to serial execution in portfolio order.
        time_limit_s: per-engine budget applied to every config that does
            not already carry its own ``time_limit_s``.
        wall_budget_s: optional overall wall-clock budget for the parallel
            race; on expiry all workers are cancelled and the verdict is
            UNKNOWN.
        hang_timeout_s: a live worker that posts no heartbeat for this
            long is declared hung and killed (``None`` disables).
        term_grace_s: seconds a SIGTERM'd worker gets before SIGKILL.
        heartbeat_s: worker heartbeat interval.
        share_clauses: exchange short learned clauses between members whose
            configs produce the identical CNF encoding (see
            :mod:`repro.portfolio.sharing`).  Verdict-preserving; serial
            runs share forward from earlier to later members.

    Returns:
        A :class:`PortfolioResult`; ``result`` is the winning engine's full
        :class:`VerificationResult` (witness included) when conclusive.
    """
    cfgs = [_coerce_config(c) for c in configs]
    if not cfgs:
        raise ValueError("verify_portfolio needs at least one configuration")
    if time_limit_s is not None:
        cfgs = [
            c if c.time_limit_s is not None else c.with_(time_limit_s=time_limit_s)
            for c in cfgs
        ]
    if jobs is None:
        jobs = min(len(cfgs), os.cpu_count() or 1)
    start = time.monotonic()
    if jobs <= 1 or len(cfgs) == 1:
        return _run_serial(program, cfgs, start, share_clauses)
    return _run_parallel(
        program, cfgs, jobs, start, wall_budget_s,
        hang_timeout_s, term_grace_s, heartbeat_s, share_clauses,
    )


# ----------------------------------------------------------------------
# Serial fallback (jobs=1)
# ----------------------------------------------------------------------

def _run_serial(
    program,
    cfgs: List[VerifierConfig],
    start: float,
    share_clauses: bool = False,
) -> PortfolioResult:
    # Serial sharing is one-directional: members run in portfolio order, so
    # clauses learned by earlier members seed the later ones of the same
    # encoding group (via a SerialBroker mailbox per group).
    channels: Dict[int, sat_sharing.ShareChannel] = {}
    if share_clauses:
        for sig, idxs in share_groups(cfgs).items():
            broker = sat_sharing.SerialBroker(signature=sig)
            for i in idxs:
                channels[i] = broker.join()
    runs = [EngineRun(c.name, "cancelled") for c in cfgs]
    winner_idx: Optional[int] = None
    for i, cfg in enumerate(cfgs):
        t0 = time.monotonic()
        sat_sharing.attach(channels.get(i))
        try:
            outcome = {"result": verify(program, cfg)}
        except Exception as exc:
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            sat_sharing.detach()
        runs[i] = _run_from(cfg.name, outcome, time.monotonic() - t0)
        if runs[i].status == "conclusive":
            winner_idx = i
            break
    shared = sum(ch.exported for ch in channels.values())
    return _finish(runs, winner_idx, start, shared)


def _run_from(name: str, outcome: Dict, elapsed: float) -> EngineRun:
    """Classify one member's outcome -- ``{"result": VerificationResult}``
    or ``{"error": message}`` -- into an :class:`EngineRun`.

    A contained engine crash (``verdict == "error"``) counts as a worker
    error, not an unknown: the diagnostic is surfaced in ``error``.
    """
    if "error" in outcome:
        return EngineRun(
            name, "error", wall_time_s=elapsed, error=outcome["error"]
        )
    result: VerificationResult = outcome["result"]
    if result.verdict in _CONCLUSIVE:
        status = "conclusive"
    elif result.verdict == Verdict.ERROR:
        status = "error"
    else:
        status = "unknown"
    return EngineRun(
        name, status, result.verdict, result.wall_time_s, result,
        error=result.diagnostic if status == "error" else None,
    )


# ----------------------------------------------------------------------
# Parallel race
# ----------------------------------------------------------------------

#: Worker-side clause-sharing wiring, installed by :func:`_init_sharing`:
#: ``({member: (signature, inbox, sibling inboxes)}, export counter)``.
_wiring = None


def _init_sharing(members, exported) -> None:
    """Pool initializer for ``share_clauses=True`` races."""
    global _wiring
    _wiring = (members, exported)
    for _, inbox, _ in members.values():
        # Never block worker exit on batches a finished sibling will
        # not drain.
        inbox.cancel_join_thread()


def _share_channel(index: int) -> Optional[sat_sharing.ShareChannel]:
    """Member ``index``'s channel: exports go straight into its group
    siblings' inboxes, imports come from its own."""
    if _wiring is None or index not in _wiring[0]:
        return None
    members, exported = _wiring
    signature, inbox, siblings = members[index]

    def send(clauses) -> None:
        for sibling in siblings:
            sibling.put(clauses)
        with exported.get_lock():
            exported.value += len(clauses)

    def recv():
        items = []
        while True:
            try:
                items.extend(inbox.get_nowait())
            except (queue_mod.Empty, OSError):
                return items

    return sat_sharing.ShareChannel(send, recv, signature=signature)


def _member(source: str, config: VerifierConfig, index: int):
    """Pool job: one portfolio member, in a fresh worker process."""
    sat_sharing.attach(_share_channel(index))
    fault_point("portfolio_worker")
    return verify(source, config)


def _run_parallel(
    program,
    cfgs: List[VerifierConfig],
    jobs: int,
    start: float,
    wall_budget_s: Optional[float],
    hang_timeout_s: Optional[float],
    term_grace_s: float,
    heartbeat_s: float,
    share_clauses: bool = False,
) -> PortfolioResult:
    source = _source_of(program)
    # Fail fast in the parent on malformed input instead of collecting
    # one identical parse error per worker.
    from repro.lang import parse

    parse(source)

    initializer = exported = None
    inboxes: Dict[int, object] = {}
    if share_clauses:
        groups = share_groups(cfgs)
        inboxes = {i: CONTEXT.Queue() for idxs in groups.values() for i in idxs}
        wiring = {
            i: (sig, inboxes[i], [inboxes[j] for j in idxs if j != i])
            for sig, idxs in groups.items()
            for i in idxs
        }
        exported = CONTEXT.Value("q", 0)
        initializer = functools.partial(_init_sharing, wiring, exported)
    runs = [EngineRun(c.name, "cancelled") for c in cfgs]
    winner_idx: Optional[int] = None
    # A fresh process per member: process-global state (the sharing
    # channel, budgets, fault specs) never leaks from one to the next.
    pool = Supervisor(
        min(jobs, len(cfgs)), recycle_after=1, initializer=initializer,
        hang_timeout_s=hang_timeout_s, heartbeat_s=heartbeat_s,
    )
    try:
        members = {
            pool.submit(_member, source, cfg, i)[1]: i
            for i, cfg in enumerate(cfgs)
        }
        pending = set(members)
        deadline = None if wall_budget_s is None else start + wall_budget_s
        while pending and winner_idx is None:
            timeout = (
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                break  # wall budget spent: cancel everything
            for fut in done:
                i = members[fut]
                runs[i] = _run_from(
                    cfgs[i].name, fut.result(), time.monotonic() - start
                )
            # Deterministic tie-break: of everything that finished in
            # this drain, the earliest config wins.
            conclusive = [
                members[f] for f in done
                if runs[members[f]].status == "conclusive"
            ]
            if conclusive:
                winner_idx = min(conclusive)
        for fut in pending:
            if fut.running():
                runs[members[fut]].wall_time_s = time.monotonic() - start
    finally:
        pool.shutdown(grace_s=term_grace_s)
        for inbox in inboxes.values():
            inbox.close()
            inbox.cancel_join_thread()
    shared = exported.value if exported is not None else 0
    return _finish(runs, winner_idx, start, shared)


def _finish(
    runs: List[EngineRun],
    winner_idx: Optional[int],
    start: float,
    shared: int = 0,
) -> PortfolioResult:
    elapsed = time.monotonic() - start
    if winner_idx is None:
        return PortfolioResult(Verdict.UNKNOWN, None, None, runs, elapsed, shared)
    win = runs[winner_idx]
    return PortfolioResult(
        win.verdict, win.config_name, win.result, runs, elapsed, shared
    )
