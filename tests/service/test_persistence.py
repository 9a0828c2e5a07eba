"""Crash-safe verdict-cache persistence (repro.service.persist).

Three layers: frame-level tests of the journal format (torn and
corrupted records are refused, never misread), CacheStore/VerdictCache
recovery semantics (version guards, compaction, LRU interaction), and a
full daemon SIGKILL-restart cycle proving cached verdicts survive an
unclean death.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.portfolio.sharing import SIGNATURE_VERSION
from repro.service.cache import VerdictCache, cache_key
from repro.service.persist import (
    CACHE_SCHEMA_VERSION,
    CacheStore,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    key_from_wire,
    key_to_wire,
    key_token,
    _frame,
    _unframe,
)
from repro.verify.config import VerifierConfig
from repro.verify.result import SCHEMA_VERSION as RESULT_SCHEMA_VERSION
from tests.service import proctree

pytestmark = pytest.mark.timeout(120)

SAFE_PROGRAM = """
int x = 0;
thread t { x = x + 1; }
main { start t; join t; assert(x == 1); }
"""


def _key(n=0):
    return cache_key(SAFE_PROGRAM, VerifierConfig(unwind=2 + n))


def _result(verdict="safe"):
    return {
        "schema_version": RESULT_SCHEMA_VERSION,
        "verdict": verdict,
        "config": "test",
        "wall_time_s": 0.01,
        "stats": {},
    }


class TestFraming:
    def test_roundtrip(self):
        rec = {"kind": "entry", "key": [["a", 1]], "result": {"x": 2}}
        assert _unframe(_frame(rec).rstrip(b"\n")) == rec

    def test_torn_prefix_refused(self):
        frame = _frame({"kind": "entry", "key": [], "result": {}})
        for cut in (1, len(frame) // 2, len(frame) - 2):
            assert _unframe(frame[:cut]) is None

    def test_bitflip_refused(self):
        frame = bytearray(_frame({"kind": "entry", "result": {"v": "safe"}}))
        # Flip one byte inside the record payload, keeping valid JSON
        # shape likely broken; either parse fails or the hash mismatches.
        frame[-10] ^= 0x01
        assert _unframe(bytes(frame).rstrip(b"\n")) is None

    def test_key_wire_roundtrip(self):
        key = ("digest", ("sig", 1, ("nested", 2), "sc"))
        assert key_from_wire(key_to_wire(key)) == key

    def test_key_token_stable_and_distinct(self):
        assert key_token(_key(0)) == key_token(_key(0))
        assert key_token(_key(0)) != key_token(_key(1))
        assert len(key_token(_key(0))) == 32


class TestCacheStore:
    def test_append_recover_roundtrip(self, tmp_path):
        store = CacheStore(str(tmp_path))
        assert store.append(_key(0), _result())
        assert store.append(_key(1), _result("unsafe"))
        store.close()

        fresh = CacheStore(str(tmp_path))
        entries = dict(fresh.recover())
        assert entries[_key(0)]["verdict"] == "safe"
        assert entries[_key(1)]["verdict"] == "unsafe"
        assert fresh.recovered_entries == 2

    def test_torn_tail_discarded_earlier_entries_survive(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.append(_key(0), _result())
        store.close()
        frame = _frame({"kind": "entry"})
        with open(tmp_path / JOURNAL_NAME, "ab") as f:
            f.write(frame[: len(frame) // 2])  # simulated mid-write crash

        fresh = CacheStore(str(tmp_path))
        entries = fresh.recover()
        assert len(entries) == 1 and entries[0][0] == _key(0)
        assert fresh.discarded_records == 1

    def test_torn_middle_does_not_poison_rest(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.append(_key(0), _result())
        store.close()
        with open(tmp_path / JOURNAL_NAME, "ab") as f:
            f.write(b'{"len": 3, "sha": "nope", "rec": {}}\n')
        store = CacheStore(str(tmp_path))
        store.append(_key(1), _result())
        store.close()

        fresh = CacheStore(str(tmp_path))
        entries = fresh.recover()
        assert [k for k, _ in entries] == [_key(0), _key(1)]
        assert fresh.discarded_records == 1

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda rec: rec.update(v=CACHE_SCHEMA_VERSION + 1),
            lambda rec: rec.update(sigv=SIGNATURE_VERSION + 1),
            lambda rec: rec["result"].update(
                schema_version=RESULT_SCHEMA_VERSION + 1
            ),
        ],
        ids=["cache-schema", "signature-version", "result-schema"],
    )
    def test_version_mismatch_refused_as_stale(self, tmp_path, mutate):
        rec = {
            "kind": "entry",
            "v": CACHE_SCHEMA_VERSION,
            "sigv": SIGNATURE_VERSION,
            "key": key_to_wire(_key(0)),
            "result": _result(),
        }
        mutate(rec)
        with open(tmp_path / JOURNAL_NAME, "wb") as f:
            f.write(_frame(rec))

        fresh = CacheStore(str(tmp_path))
        assert fresh.recover() == []
        assert fresh.stale_records == 1
        assert fresh.discarded_records == 0

    def test_compaction_rotates_journal(self, tmp_path):
        store = CacheStore(str(tmp_path))
        entries = [(_key(n), _result()) for n in range(3)]
        for key, result in entries:
            store.append(key, result)
        assert store.compact(entries)
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == 0
        store.close()

        fresh = CacheStore(str(tmp_path))
        assert len(fresh.recover()) == 3

    def test_journal_overrides_snapshot(self, tmp_path):
        """Entries appended after the snapshot win on key collision."""
        store = CacheStore(str(tmp_path))
        store.compact([(_key(0), _result("safe"))])
        store.append(_key(0), _result("unsafe"))
        store.close()

        fresh = CacheStore(str(tmp_path))
        entries = fresh.recover()
        assert entries[-1][1]["verdict"] == "unsafe"

    def test_stale_snapshot_refused(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.compact([(_key(0), _result())])
        store.close()
        with open(tmp_path / SNAPSHOT_NAME) as f:
            obj = json.load(f)
        obj["sigv"] = SIGNATURE_VERSION + 1
        with open(tmp_path / SNAPSHOT_NAME, "w") as f:
            json.dump(obj, f)

        fresh = CacheStore(str(tmp_path))
        assert fresh.recover() == []
        assert fresh.stale_records == 1


class TestVerdictCachePersistence:
    def test_put_survives_reconstruction(self, tmp_path):
        cache = VerdictCache(cache_dir=str(tmp_path))
        key = _key(0)
        assert cache.put(key, _result())
        cache.close()

        fresh = VerdictCache(cache_dir=str(tmp_path))
        hit = fresh.get(key)
        assert hit is not None and hit["verdict"] == "safe"
        assert fresh.snapshot()["cache_persistent"] == 1
        assert fresh.snapshot()["persist_recovered"] == 1
        fresh.close()

    def test_inconclusive_never_journaled(self, tmp_path):
        cache = VerdictCache(cache_dir=str(tmp_path))
        assert not cache.put(_key(0), _result("unknown"))
        cache.close()
        # The journal is created lazily; a refused put must not create
        # (or grow) it.
        assert not os.path.exists(tmp_path / JOURNAL_NAME) or (
            os.path.getsize(tmp_path / JOURNAL_NAME) == 0
        )

    def test_recovery_respects_lru_cap(self, tmp_path):
        cache = VerdictCache(max_entries=8, cache_dir=str(tmp_path))
        for n in range(6):
            cache.put(_key(n), _result())
        cache.close()

        fresh = VerdictCache(max_entries=2, cache_dir=str(tmp_path))
        assert len(fresh) == 2
        assert fresh.get(_key(5)) is not None  # newest survive
        fresh.close()

    def test_auto_compaction_threshold(self, tmp_path):
        cache = VerdictCache(cache_dir=str(tmp_path), compact_every=3)
        for n in range(3):
            cache.put(_key(n), _result())
        assert cache.store.compactions == 1
        assert os.path.getsize(tmp_path / JOURNAL_NAME) == 0
        cache.close()

        fresh = VerdictCache(cache_dir=str(tmp_path))
        assert len(fresh) == 3
        fresh.close()


@pytest.mark.slow
class TestDaemonRestartRecovery:
    def test_sigkill_then_restart_keeps_verdicts(self, tmp_path):
        """SIGKILL (no drain, no flush) must not lose acknowledged
        verdicts: every put was fsynced before its response."""
        cache_dir = str(tmp_path / "cache")
        cmd = [
            sys.executable, "-m", "repro.cli", "serve", "--stdio",
            "--workers", "1", "--cache-dir", cache_dir,
        ]
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, cwd=os.path.join(
                os.path.dirname(__file__), "..", ".."
            ), env=env,
        )
        try:
            req = {"id": 1, "op": "verify", "source": SAFE_PROGRAM}
            proc.stdin.write(json.dumps(req) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["result"]["verdict"] == "safe"
            assert not response["cache_hit"]
        finally:
            proctree.kill_tree(proc)

        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, cwd=os.path.join(
                os.path.dirname(__file__), "..", ".."
            ), env=env,
        )
        try:
            req = {"id": 1, "op": "verify", "source": SAFE_PROGRAM}
            proc.stdin.write(json.dumps(req) + "\n")
            proc.stdin.flush()
            response = json.loads(proc.stdout.readline())
            assert response["result"]["verdict"] == "safe"
            assert response["cache_hit"], (
                "verdict should have been recovered from the journal"
            )
        finally:
            proc.stdin.close()
            proc.wait(timeout=15)
