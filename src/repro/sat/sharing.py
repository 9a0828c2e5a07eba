"""Learned-clause sharing between cooperating solvers.

A :class:`ShareChannel` connects one solver to a clause-exchange medium.
The solver *offers* short learned clauses as it records them (length-capped
so only high-value clauses travel) and *exchanges* at restart boundaries:
buffered exports are flushed out and foreign clauses are pulled in, both
deduplicated by literal set so a clause never crosses the channel twice in
either direction.

Two media are provided:

* :class:`SerialBroker` -- an in-process mailbox for solvers that run in the
  same interpreter (the serial portfolio path and the tests);
* arbitrary ``send``/``recv`` callables -- the parallel portfolio wires these
  to ``multiprocessing`` queues (worker -> sibling workers).

Sharing is sound only between solvers working on the *identical* CNF
(same variable numbering); grouping by encoding signature is the caller's
job (:mod:`repro.portfolio.sharing`).

The module also keeps a per-process *active channel* slot so a worker can
attach a channel before running the verification pipeline without threading
it through every config object (configs stay picklable and hashable).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "ShareChannel",
    "SerialBroker",
    "attach",
    "detach",
    "active_channel",
]

#: Default cap on exported clause length (literals).  Short clauses prune
#: the most search per byte; MiniSat-family portfolios use similar caps.
DEFAULT_MAX_LEN = 8

#: Default cap on clauses imported per exchange, so a slow solver is never
#: buried under a fast sibling's output.
DEFAULT_MAX_IMPORT = 256

Clause = Tuple[int, ...]


class ShareChannel:
    """One solver's endpoint on a clause-exchange medium.

    ``send`` is called with a list of clause tuples to publish; ``recv``
    returns whatever foreign clauses have arrived since the last call
    (non-blocking).  Both directions are deduplicated by frozen literal set.
    """

    def __init__(
        self,
        send: Callable[[List[Clause]], None],
        recv: Callable[[], Iterable[Sequence[int]]],
        max_len: int = DEFAULT_MAX_LEN,
        max_import: int = DEFAULT_MAX_IMPORT,
        signature: Optional[Tuple] = None,
    ) -> None:
        self._send = send
        self._recv = recv
        self.max_len = max_len
        self.max_import = max_import
        #: Encoding signature the channel's clauses are valid for.  The
        #: verifier refuses to use an attached channel whose signature does
        #: not match its own config (a fallback preset may re-encode the
        #: program differently mid-process).  ``None`` means "caller
        #: guarantees compatibility" and is attached unconditionally.
        self.signature = signature
        self.exported = 0
        self.imported = 0
        self._seen = set()
        self._out: List[Clause] = []

    def offer(self, lits: Sequence[int]) -> bool:
        """Buffer a learned clause for export.  Returns True if accepted
        (short enough and not already seen on this channel)."""
        if not lits or len(lits) > self.max_len:
            return False
        key = frozenset(lits)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._out.append(tuple(lits))
        return True

    def flush(self) -> None:
        """Publish buffered exports without importing.

        Safe at any decision level (exporting never touches solver state);
        called when a solve finishes so short runs that never restarted
        still seed their siblings.
        """
        if self._out:
            out, self._out = self._out, []
            self._send(out)
            self.exported += len(out)

    def exchange(self) -> List[Clause]:
        """Flush buffered exports and return newly arrived foreign clauses.

        Call only at a restart boundary (decision level 0) so imports can be
        added as ordinary problem clauses.
        """
        self.flush()
        fresh: List[Clause] = []
        for lits in self._recv():
            if len(fresh) >= self.max_import:
                break
            key = frozenset(lits)
            if key in self._seen:
                continue
            self._seen.add(key)
            fresh.append(tuple(lits))
        self.imported += len(fresh)
        return fresh


class SerialBroker:
    """In-process clause mailbox for solvers sharing one interpreter.

    Each member gets a :class:`ShareChannel`; a clause published by one
    member is delivered to every *other* member's inbox.
    """

    def __init__(
        self,
        max_len: int = DEFAULT_MAX_LEN,
        signature: Optional[Tuple] = None,
    ) -> None:
        self._inboxes: List[List[Clause]] = []
        self._max_len = max_len
        self._signature = signature

    def join(self) -> ShareChannel:
        index = len(self._inboxes)
        self._inboxes.append([])

        def send(clauses: List[Clause], _index: int = index) -> None:
            for i, box in enumerate(self._inboxes):
                if i != _index:
                    box.extend(clauses)

        def recv(_index: int = index) -> List[Clause]:
            box = self._inboxes[_index]
            if not box:
                return []
            self._inboxes[_index] = []
            return box

        return ShareChannel(
            send, recv, max_len=self._max_len, signature=self._signature
        )


#: Per-process active channel; see module docstring.
_active: Optional[ShareChannel] = None


def attach(channel: Optional[ShareChannel]) -> None:
    """Make ``channel`` the process-wide channel new solver runs pick up."""
    global _active
    _active = channel


def detach() -> None:
    attach(None)


def active_channel() -> Optional[ShareChannel]:
    return _active
