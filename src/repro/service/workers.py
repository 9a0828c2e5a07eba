"""The warm worker pool behind the verification service.

Verification is CPU-bound pure Python, so concurrency comes from worker
processes on the shared :class:`~repro.supervisor.Supervisor`.  This
module adds the service's policy: every worker pre-imports the whole
solver stack before its first job, and is recycled after
``recycle_after`` jobs or right after a job that exhausted its *memory*
budget -- CPython rarely returns freed heap to the OS, so a worker that
built a pathological encoding would otherwise stay bloated forever.

:meth:`WorkerPool.submit` queues ``(source, config_dict, ckpt_token)``
and returns ``(job_id, future, submitted_at)``.  The future resolves to
``{"result": result_dict}``, ``{"result": {"input_error": ...}}`` on bad
input, or ``{"error": ...}`` when the job crashed or its worker died or
hung.  With a ``checkpoint_dir``, jobs that carry a token get durable
per-bound checkpoint/resume (see :mod:`repro.service.checkpoints`).
"""

from __future__ import annotations

import functools
import os
from typing import Dict, Optional

from repro.supervisor import Supervisor, retire_worker

__all__ = ["WorkerPool"]

#: Fallback pool size: half the machine for solving, capped -- the server
#: process itself needs headroom for parsing/canonicalization.
_DEFAULT_SIZE = max(1, min(4, (os.cpu_count() or 2) // 2))

#: This worker's checkpoint store (set by :func:`_init_worker`).
_store = None


def _warm_imports() -> None:
    """Import every module a verification job touches.

    Ordered roughly by import cost; the point is that the *first* job on
    a fresh worker is as fast as the hundredth.
    """
    import repro.lang.parser  # noqa: F401
    import repro.lang.sema  # noqa: F401
    import repro.frontend.ssa  # noqa: F401
    import repro.analysis.prune  # noqa: F401
    import repro.encoding.encoder  # noqa: F401
    import repro.encoding.bitblast  # noqa: F401
    import repro.sat.solver  # noqa: F401
    import repro.ordering.solver  # noqa: F401
    import repro.ordering.icd  # noqa: F401
    import repro.ordering.tarjan  # noqa: F401
    import repro.baselines.closure  # noqa: F401
    import repro.baselines.explicit  # noqa: F401
    import repro.baselines.lazyseq  # noqa: F401
    import repro.baselines.idl  # noqa: F401
    import repro.smc.rfsc  # noqa: F401
    import repro.smc.genmc  # noqa: F401
    import repro.verify.verifier  # noqa: F401
    import repro.verify.engines  # noqa: F401


def _init_worker(checkpoint_dir: Optional[str]) -> None:
    """Pool initializer: warm up and open this worker's checkpoint store."""
    global _store
    _warm_imports()
    from repro.service.checkpoints import CheckpointStore

    _store = CheckpointStore(checkpoint_dir) if checkpoint_dir else None


def service_job(
    source: str, config_dict: Optional[Dict], ckpt_token: Optional[str]
) -> Dict:
    """Verify one request in a pool worker; returns the result dict.

    With a checkpoint store, jobs carrying a checkpoint token get durable
    per-bound progress: an iterative-deepening run saves a checkpoint
    after every completed bound, a re-dispatched job resumes its schedule
    past the last completed bound (stamping ``resumed_from_bound`` /
    ``bounds_skipped`` into the result stats), and a conclusive verdict
    discards the checkpoint -- the verdict cache takes over as the
    durable record.
    """
    from repro.lang.lexer import LexError
    from repro.lang.parser import ParseError
    from repro.lang.sema import SemanticError
    from repro.robustness.faults import fault_point
    from repro.verify.checkpoint import Checkpoint, checkpoint_sink
    from repro.verify.config import VerifierConfig
    from repro.verify.verifier import verify_one

    # Chaos hook: kill@service_worker dies here, mid-job from the
    # parent's point of view (START reported, no DONE coming).
    fault_point("service_worker")
    try:
        config = (
            VerifierConfig.from_dict(config_dict)
            if config_dict
            else VerifierConfig()
        )
        config, sink, resumed_from, skipped = _prepare_resume(
            _store, ckpt_token, config, Checkpoint
        )
        with checkpoint_sink(sink):
            result = verify_one(source, config)
    except (LexError, ParseError, SemanticError, ValueError) as exc:
        # Input errors: bad program text or a bad config dict.
        return {"input_error": f"{type(exc).__name__}: {exc}"}
    if resumed_from is not None:
        result.stats["resumed_from_bound"] = resumed_from
        result.stats["bounds_skipped"] = skipped
    if _store is not None and ckpt_token and result.verdict in (
        "safe",
        "unsafe",
    ):
        _store.discard(ckpt_token)
    if result.verdict == "unknown" and (
        result.stats.get("budget_limit") == "memory"
    ):
        # The worker's heap is now bloated with an encoding CPython will
        # not return to the OS.
        retire_worker()
    return result.to_dict()


def _prepare_resume(store, token, config, checkpoint_cls):
    """Resume plumbing for one job: ``(config, sink, resumed_from,
    bounds_skipped)``.

    With a prior checkpoint, the returned config's ``unwind_schedule`` is
    trimmed to the bounds past the last completed one and ``resumed_from``
    is that bound (else ``None``).  The returned sink persists every
    checkpoint the engine emits -- rewritten against the job's *original*
    schedule, with the prior run's completed bounds and solver effort
    merged in, so a twice-interrupted job validates and resumes correctly
    on its third dispatch (the engine only ever sees trimmed schedules).
    """
    schedule = config.unwind_schedule
    if store is None or not token or not schedule:
        return config, None, None, 0
    prior = store.load(token, schedule)
    resumed_from = None
    skipped = 0
    if prior is not None:
        config = config.with_(unwind_schedule=prior.remaining())
        resumed_from = prior.completed[-1]
        skipped = len(prior.completed)
    prior_completed = prior.completed if prior is not None else ()
    prior_conflicts = prior.conflicts if prior is not None else 0
    prior_elapsed = prior.elapsed_s if prior is not None else 0.0

    def sink(cp) -> None:
        store.save(
            token,
            checkpoint_cls(
                schedule=tuple(schedule),
                completed=tuple(prior_completed) + tuple(cp.completed),
                conflicts=prior_conflicts + cp.conflicts,
                clauses_retained=cp.clauses_retained,
                elapsed_s=round(prior_elapsed + cp.elapsed_s, 6),
            ),
        )

    return config, sink, resumed_from, skipped


class WorkerPool(Supervisor):
    """The service's pool: :func:`service_job` on warm, recycled workers."""

    def __init__(
        self,
        size: Optional[int] = None,
        recycle_after: int = 64,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        super().__init__(
            size or _DEFAULT_SIZE,
            recycle_after,
            initializer=functools.partial(_init_worker, checkpoint_dir),
        )

    def submit(  # type: ignore[override]
        self, source: str, config_dict: Optional[Dict], ckpt_token=None
    ):
        """Queue one :func:`service_job`; ``ckpt_token`` is the job's
        cache-key token."""
        return super().submit(service_job, source, config_dict, ckpt_token)
