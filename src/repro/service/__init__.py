"""The verification service: a long-lived daemon in front of the verifier.

The paper's pipeline is a one-shot CLI; this package turns it into
infrastructure that can absorb sustained traffic:

* :mod:`repro.service.server` -- an asyncio daemon (``repro serve``)
  accepting verification jobs over stdin JSONL (``--stdio``) or a TCP
  socket (``--tcp HOST:PORT``), with admission control (queue-depth
  shedding to a structured UNKNOWN with ``reason=overloaded``) and
  per-request deadlines riding the :mod:`repro.robustness` budget
  machinery;
* :mod:`repro.service.workers` -- **warm** worker processes on
  :class:`~repro.supervisor.Supervisor`: solver modules are pre-imported,
  workers are recycled after a job quota or after a memory-budget
  UNKNOWN (so one pathological program cannot bloat a worker forever);
* :mod:`repro.service.cache` -- a content-addressed **verdict cache**
  keyed on the canonical parse->unparse normal form of the program times
  the config's encoding signature
  (:func:`repro.portfolio.sharing.encoding_signature`): formula-shaping
  knobs split entries, search-only knobs share them, and inconclusive
  verdicts (UNKNOWN/ERROR) are never cached;
* :mod:`repro.service.persist` + :mod:`repro.service.checkpoints` --
  opt-in durability (``--cache-dir`` / ``REPRO_CACHE_DIR``): a crash-safe
  append-only journal makes cached verdicts survive restarts, and
  per-bound job checkpoints let interrupted iterative-deepening runs
  resume past their last completed bound;
* :mod:`repro.service.protocol` -- the versioned JSON-lines wire format
  (requests, responses, error shapes, the request-size cap);
* :mod:`repro.service.client` -- typed sync (:class:`ServiceClient`) and
  async (:class:`AsyncServiceClient`) clients with connect/request
  timeouts, idempotent retries across reconnects (:class:`RetryPolicy`)
  and optional tail-latency hedging.  ``REPRO_SERVER=HOST:PORT`` makes
  :func:`repro.api.verify` -- and through it the benchmark harness and
  the fuzz oracle -- route jobs here.

See ``docs/SERVICE.md`` for the protocol specification, cache semantics,
worker lifecycle, durability and drain behavior.
"""

from repro.service.cache import (
    VerdictCache,
    cache_key,
    canonical_source,
    key_token,
)
from repro.service.checkpoints import CheckpointStore
from repro.service.client import (
    AsyncServiceClient,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceTimeout,
    ServiceUnavailable,
)
from repro.service.server import DRAIN_EXIT_CODE, ServiceServer
from repro.service.workers import WorkerPool

__all__ = [
    "ServiceServer",
    "DRAIN_EXIT_CODE",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceError",
    "ServiceTimeout",
    "ServiceUnavailable",
    "RetryPolicy",
    "WorkerPool",
    "VerdictCache",
    "CheckpointStore",
    "cache_key",
    "canonical_source",
    "key_token",
]
