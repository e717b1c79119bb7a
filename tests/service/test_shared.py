"""The claim table shared across processes.

Two :class:`SqliteClaimTable` instances on one file stand in for two
processes on one cache root.  A claim owned by a process that was
SIGKILLed must be reclaimable by a peer — via owner-pid liveness
immediately, via TTL expiry as the backstop.  Claim ages are set by
rewriting a claim's ``heartbeat`` row, never by sleeping past a TTL.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.service.planner import SqliteClaimTable, owner_alive

from .conftest import Tally, age_claim

#: Long enough that no claim in these tests expires by the clock.
TTL = 60.0


class TestSqliteClaimTable:
    def test_claim_partitions_across_instances(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        assert a.claim(["k1", "k2"]) == (["k1", "k2"], [])
        assert b.claim(["k1", "k3"]) == (["k3"], ["k1"])
        assert len(a) == 3

    def test_release_wakes_waiters(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        a.claim(["k"])
        assert b.claim(["k"]) == ([], ["k"])
        assert b.is_claimed("k")  # still held
        a.release(["k"])
        assert not b.is_claimed("k")
        assert len(b) == 0

    def test_ttl_expiry_reclaims_unheartbeated_claim(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        tally = Tally()
        a = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=TTL, tally=tally)
        a.claim(["k"])
        age_claim(db, "k", 2 * TTL)
        assert b.claim(["k"]) == (["k"], [])  # expired: b takes it over
        assert tally == {"service.claims.expired": 1}

    def test_heartbeat_keeps_claim_alive(self, tmp_path):
        db = tmp_path / "claims.sqlite"
        a = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        b = SqliteClaimTable(db, ttl=TTL, tally=Tally())
        a.claim(["k"])
        age_claim(db, "k", 2 * TTL)
        a.heartbeat(["k"])
        # the heartbeat kept it fresh
        assert b.claim(["k"]) == ([], ["k"])

    def test_killed_claimant_is_reclaimed(self, tmp_path):
        """SIGKILL the claiming process; a peer reclaims at once.

        The TTL is generous — reclaim must come from owner-pid liveness,
        not from waiting out the clock.
        """
        db = tmp_path / "claims.sqlite"
        script = (
            "import sys, time\n"
            "sys.path.insert(0, sys.argv[2])\n"
            "from repro.service.planner import SqliteClaimTable\n"
            "t = SqliteClaimTable(sys.argv[1], ttl=60.0, tally=lambda name, value: None)\n"
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
            survivor = SqliteClaimTable(db, ttl=TTL, tally=Tally())
            # held by a live owner
            assert survivor.claim(["doomed"]) == ([], ["doomed"])
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            # dead owner: reclaimed
            assert survivor.claim(["doomed"]) == (["doomed"], [])
            survivor.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)
            proc.stdout.close()

    def test_owner_alive_semantics(self):
        assert owner_alive(f"{os.getpid()}:abc")
        assert not owner_alive("999999999:abc")
        assert not owner_alive("garbage")
