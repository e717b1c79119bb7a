"""Cross-process shared state: SQLite claim table + indexed run cache.

The stale-claim satellite lives here: a claim owned by a process that
was SIGKILLed must be reclaimable by a peer — via owner-pid liveness
immediately, via TTL expiry as the backstop.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.runner.engine import RunCache, RunSpec, execute_spec
from repro.runner.experiment import default_machine_factory
from repro.service.shared import (
    DEFAULT_CLAIM_TTL,
    IndexedRunCache,
    RunCacheIndex,
    SqliteClaimTable,
    owner_alive,
)
from repro.workloads import make_workload

from .conftest import Tally, age_claim


def _spec() -> RunSpec:
    return RunSpec.compile(
        make_workload("synthetic"),
        size_bytes=4096,
        n_processors=2,
        machine=default_machine_factory()(2),
    )


class TestSqliteClaimTable:
    def test_claim_partitions_across_instances(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, tally=Tally())
        b = SqliteClaimTable(db, tally=Tally())
        got_a, wait_a = a.claim(["k1", "k2"])
        got_b, wait_b = b.claim(["k1", "k3"])
        assert got_a == ["k1", "k2"] and not wait_a
        assert got_b == ["k3"] and set(wait_b) == {"k1"}
        assert len(a) == 3

    def test_release_wakes_waiters(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, tally=Tally())
        b = SqliteClaimTable(db, tally=Tally())
        a.claim(["k"])
        _, waiting = b.claim(["k"])
        assert not waiting["k"].wait(timeout=0.05)  # still held
        a.release(["k"])
        assert waiting["k"].wait(timeout=2.0)

    def test_ttl_expiry_reclaims_unheartbeated_claim(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        tally = Tally()
        a = SqliteClaimTable(db, ttl=DEFAULT_CLAIM_TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=DEFAULT_CLAIM_TTL, tally=tally)
        a.claim(["k"])
        age_claim(db, "k", 2 * DEFAULT_CLAIM_TTL)
        got, waiting = b.claim(["k"])  # expired: b takes it over
        assert got == ["k"] and not waiting
        assert tally == {"service.claims.expired": 1}

    def test_heartbeat_keeps_claim_alive(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, ttl=DEFAULT_CLAIM_TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=DEFAULT_CLAIM_TTL, tally=Tally())
        a.claim(["k"])
        age_claim(db, "k", 2 * DEFAULT_CLAIM_TTL)
        a.heartbeat(["k"])
        got, waiting = b.claim(["k"])  # the heartbeat kept it fresh
        assert not got and set(waiting) == {"k"}

    def test_killed_claimant_is_reclaimed(self, tmp_path):
        """The satellite: SIGKILL the claiming process, assert reclaim.

        The TTL is generous (the default 60 s) — reclaim must come from
        owner-pid liveness, not from waiting out the clock.
        """
        db = tmp_path / "claims.sqlite"
        script = (
            "import sys, time\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.service.shared import SqliteClaimTable\n"
            "t = SqliteClaimTable(sys.argv[1], tally=lambda name, value: None)\n"
            "got, _ = t.claim(['doomed'])\n"
            "assert got == ['doomed']\n"
            "print('claimed', flush=True)\n"
            "time.sleep(60)\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(db), src],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "claimed"
            survivor = SqliteClaimTable(db, ttl=DEFAULT_CLAIM_TTL, tally=Tally())
            got, waiting = survivor.claim(["doomed"])
            assert not got and set(waiting) == {"doomed"}  # held by live owner
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            got, waiting = survivor.claim(["doomed"])
            assert got == ["doomed"] and not waiting  # dead owner: reclaimed
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
            proc.stdout.close()

    def test_owner_alive_semantics(self):
        assert owner_alive(f"{os.getpid()}:abc")
        assert not owner_alive("999999999:abc")
        assert not owner_alive("garbage")


class TestRunCacheIndex:
    def test_generation_bumps_on_rewrite(self, tmp_path):
        idx = RunCacheIndex(tmp_path / "idx.sqlite")
        assert idx.generation("k") is None
        assert idx.add("k") == 1
        assert idx.add("k") == 2
        assert idx.generation("k") == 2
        idx.discard("k")
        assert idx.generation("k") is None

    def test_visible_across_instances(self, tmp_path):
        a = RunCacheIndex(tmp_path / "idx.sqlite")
        b = RunCacheIndex(tmp_path / "idx.sqlite")
        a.add("k")
        assert b.generation("k") == 1
        assert len(b) == 1


class TestIndexedRunCache:
    def _record(self):
        return execute_spec(_spec())

    def test_roundtrip_and_memo(self, tmp_path):
        tally = Tally()
        cache = IndexedRunCache(
            tmp_path / "runs", RunCacheIndex(tmp_path / "idx.sqlite"), tally=tally
        )
        spec = _spec()
        assert not cache.contains(spec)
        record = self._record()
        cache.put(spec, record)
        assert cache.contains(spec)
        first = cache.get(spec)
        second = cache.get(spec)
        assert first is second  # memo: same parsed object back
        assert first.to_json() == record.to_json()
        assert tally == {"service.runcache.memo_hits": 2}

    def test_adopts_entries_written_by_bare_runcache(self, tmp_path):
        """CLI (bare RunCache) and service (indexed) share the directory."""
        bare = RunCache(tmp_path / "runs")
        spec = _spec()
        bare.put(spec, self._record())
        indexed = IndexedRunCache(
            tmp_path / "runs", RunCacheIndex(tmp_path / "idx.sqlite"), tally=Tally()
        )
        assert indexed.contains(spec)  # adopted via stat fallback
        assert indexed.get(spec) is not None

    def test_cross_process_rewrite_invalidates_memo(self, tmp_path):
        idx_path = tmp_path / "idx.sqlite"
        a = IndexedRunCache(tmp_path / "runs", RunCacheIndex(idx_path), tally=Tally())
        b = IndexedRunCache(tmp_path / "runs", RunCacheIndex(idx_path), tally=Tally())
        spec = _spec()
        record = self._record()
        a.put(spec, record)
        cached = a.get(spec)
        # "Another process" (b) rewrites the entry: a's memo must refresh.
        b.put(spec, record)
        refreshed = a.get(spec)
        assert refreshed is not cached
        assert refreshed.to_json() == cached.to_json()

    def test_index_row_without_payload_self_heals(self, tmp_path):
        writer = IndexedRunCache(
            tmp_path / "runs", RunCacheIndex(tmp_path / "idx.sqlite"), tally=Tally()
        )
        spec = _spec()
        writer.put(spec, self._record())
        writer.path(spec).unlink()  # payload vanishes behind the index's back
        # A fresh process (no memo) sees the divergence and heals the index.
        reader = IndexedRunCache(
            tmp_path / "runs", RunCacheIndex(tmp_path / "idx.sqlite"), tally=Tally()
        )
        assert reader.get(spec) is None
        assert reader.index.generation(spec.key()) is None  # row dropped
