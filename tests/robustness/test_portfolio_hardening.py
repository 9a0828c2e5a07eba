"""Portfolio hardening tests: workers that die, hang, or ignore SIGTERM
must degrade to ``status="error"`` without stalling the race.

Faults are injected through the ``REPRO_FAULTS`` environment variable,
which propagates into the forked worker processes."""

import os
import signal

import pytest

from repro.bench import Task
from repro.bench.svcomp import svcomp_suite
from repro.robustness.faults import ENV_VAR
from repro.verify import Verdict, VerifierConfig, registry
from repro.portfolio import verify_batch, verify_portfolio
from tests.verify.programs import PAPER_FIG2

pytestmark = pytest.mark.timeout(120)


@pytest.fixture()
def worker_fault(monkeypatch):
    """Install a fault spec in the environment so forked workers see it."""

    def install(spec):
        monkeypatch.setenv(ENV_VAR, spec)

    yield install
    monkeypatch.delenv(ENV_VAR, raising=False)


def _fork_available():
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fault env propagation requires fork"
)


@needs_fork
@pytest.mark.slow
class TestWorkerDeath:
    def test_sigkilled_worker_reports_error_not_hang(self, worker_fault):
        """A worker OOM-killed (here: SIGKILL fault) before reporting must
        come back as status='error', and the race must still finish."""
        worker_fault("kill@portfolio_worker")
        outcome = verify_portfolio(
            PAPER_FIG2, ["zord", "dartagnan"], jobs=2, hang_timeout_s=5.0
        )
        assert outcome.verdict == Verdict.UNKNOWN
        assert [r.status for r in outcome.runs] == ["error", "error"]
        for run in outcome.runs:
            assert "without reporting" in run.error

    def test_crash_in_worker_is_error_with_diagnostic(self, worker_fault):
        # Fault fires inside verify() in the worker; the crash guard turns
        # it into an ERROR verdict, which the parent maps to status=error.
        worker_fault("crash@encode")
        outcome = verify_portfolio(
            PAPER_FIG2, ["zord", "zord-tarjan"], jobs=2, hang_timeout_s=30.0
        )
        assert outcome.verdict == Verdict.UNKNOWN
        for run in outcome.runs:
            assert run.status == "error"
            assert "injected fault" in run.error


@needs_fork
@pytest.mark.slow
class TestHangDetection:
    def test_sigstopped_worker_detected_as_hung(self, worker_fault):
        """A SIGSTOP'd worker stays alive but stops heartbeating; the
        parent must declare it hung and kill it instead of waiting.
        (Killing a stopped process also exercises the SIGTERM -> SIGKILL
        escalation: SIGTERM stays pending on a stopped process.)"""
        worker_fault("sigstop@portfolio_worker")
        outcome = verify_portfolio(
            PAPER_FIG2,
            ["zord", "dartagnan"],
            jobs=2,
            hang_timeout_s=1.5,
            term_grace_s=1.0,
            heartbeat_s=0.1,
        )
        assert outcome.verdict == Verdict.UNKNOWN
        for run in outcome.runs:
            assert run.status == "error"
            assert "hung" in run.error

    def test_sigkill_escalation_for_term_ignoring_worker(self, worker_fault):
        """A worker that ignores SIGTERM and sleeps for a minute must be
        SIGKILLed after the grace period when the wall budget expires --
        without escalation this call would block for the full sleep."""
        import time

        worker_fault("ignoreterm@portfolio_worker,hang@portfolio_worker:60")
        t0 = time.monotonic()
        outcome = verify_portfolio(
            PAPER_FIG2,
            ["zord", "dartagnan"],
            jobs=2,
            wall_budget_s=1.0,
            term_grace_s=0.5,
            heartbeat_s=0.1,
            hang_timeout_s=None,
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 20.0  # far below the 60s worker sleep
        assert outcome.verdict == Verdict.UNKNOWN
        for run in outcome.runs:
            assert run.status == "cancelled"


@needs_fork
class TestHealthyRaceUnaffected:
    def test_clean_race_with_hardening_enabled(self):
        outcome = verify_portfolio(
            PAPER_FIG2,
            ["zord", "dartagnan"],
            jobs=2,
            hang_timeout_s=30.0,
            heartbeat_s=0.1,
        )
        assert outcome.verdict == Verdict.SAFE
        assert outcome.winner is not None

    def test_serial_path_maps_error_verdicts(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "crash@encode")
        outcome = verify_portfolio(PAPER_FIG2, ["zord", "cpa-seq"], jobs=1)
        assert outcome.runs[0].status == "error"
        assert "injected fault" in outcome.runs[0].error
        # The interpreter engine never visits 'encode': it wins.
        assert outcome.runs[1].status == "conclusive"
        assert outcome.verdict == Verdict.SAFE


def _doomed_loader():
    """An engine that SIGKILLs its own process on any program declaring a
    global named ``doomed`` and runs zord on everything else."""
    smt = registry.resolve_engine("smt")

    def run(program, config, telemetry=None):
        if "doomed" in program.global_names():
            os.kill(os.getpid(), signal.SIGKILL)
        return smt(program, VerifierConfig.zord(unwind=config.unwind), telemetry)

    return run


@pytest.fixture()
def doomed_engine():
    registry.register_engine("doomed", _doomed_loader)
    yield VerifierConfig(name="doomed", engine="doomed")
    registry.unregister_engine("doomed")


@needs_fork
class TestBatchWorkerDeath:
    @pytest.mark.timeout(120)
    def test_killed_cell_is_an_error_and_the_grid_completes(
        self, doomed_engine
    ):
        """One cell's worker is SIGKILLed: the grid still returns, that
        cell is an ERROR, every other cell keeps its correct verdict."""
        doomed = Task(
            "doomed", "chaos",
            "int doomed = 0;\nmain { doomed = 1; assert(doomed == 1); }\n",
            expected_safe=True, unwind=2,
        )
        tasks = svcomp_suite(1)[:4] + [doomed]
        grid = verify_batch(tasks, [doomed_engine], jobs=2)
        rows = grid["doomed"]
        assert rows[-1].task == "doomed"
        assert rows[-1].verdict == Verdict.ERROR
        for task, row in zip(tasks[:-1], rows):
            assert row.task == task.name
            expected = Verdict.SAFE if task.expected_safe else Verdict.UNSAFE
            assert row.verdict == expected
