"""Planner: cache-hit dropping, atomic claims, waiter semantics.

Every service plans through the one SQLite claim table, so these run on
:class:`SqliteClaimTable` under ``tmp_path``.  Claim ages are set by
rewriting a claim's ``heartbeat`` row, never by sleeping past a TTL, so
no check depends on machine load.
"""

import threading

import pytest

from repro.runner.engine import RunCache
from repro.service.planner import RequestPlanner
from repro.service.requests import compile_request
from repro.service.shared import SqliteClaimTable

from .conftest import Tally, age_claim

PAYLOAD = {"workload": "synthetic", "s0": 163840, "counts": [1, 2]}

#: Long enough that no claim in these tests expires by the clock.
TTL = 60.0


@pytest.fixture
def table(tmp_path):
    return SqliteClaimTable(tmp_path / "claims.sqlite", ttl=TTL, tally=Tally())


class TestInFlightTable:
    """The in-flight claim contract, on the one table every service uses."""

    def test_claim_partitions(self, table):
        claimed, waiting = table.claim(["a", "b"])
        assert claimed == ["a", "b"] and waiting == {}
        claimed2, waiting2 = table.claim(["b", "c"])
        assert claimed2 == ["c"]
        assert set(waiting2) == {"b"}
        assert len(table) == 3

    def test_release_wakes_waiters(self, table):
        table.claim(["a"])
        _, waiting = table.claim(["a"])
        assert not waiting["a"].wait(timeout=0)
        table.release(["a"])
        assert waiting["a"].wait(timeout=0)
        assert len(table) == 0

    def test_release_unknown_key_is_noop(self, table):
        table.release(["ghost"])

    def test_reclaim_after_release(self, table):
        table.claim(["a"])
        table.release(["a"])
        claimed, waiting = table.claim(["a"])
        assert claimed == ["a"] and not waiting


class TestRequestPlanner:
    @pytest.fixture
    def planner(self, tmp_path, table):
        return RequestPlanner(RunCache(tmp_path / "runs"), table)

    def test_first_plan_claims_everything(self, planner):
        plan = planner.plan(compile_request("analyze", PAYLOAD))
        assert plan.cache_hits == 0
        assert not plan.waiting
        assert len(plan.claimed) == len(plan.specs) > 0
        planner.complete(plan)

    def test_concurrent_plans_partition_overlap(self, planner):
        first = planner.plan(compile_request("analyze", PAYLOAD))
        second = planner.plan(compile_request("whatif", {**PAYLOAD, "tm": 0.5}))
        # Identical spec sets: the second job claims nothing and waits on all.
        assert second.claimed == []
        assert set(second.waiting) == set(first.claimed_keys)
        planner.complete(first)
        assert planner.wait(second, timeout=1.0)
        planner.complete(second)

    def test_cached_specs_become_hits(self, warm_root, table):
        planner = RequestPlanner(RunCache(warm_root / "runs"), table)
        plan = planner.plan(compile_request("analyze", PAYLOAD))
        assert plan.cache_hits == len(plan.specs)
        assert plan.claimed == [] and not plan.waiting
        planner.complete(plan)

    def test_wait_returns_false_on_timeout(self, planner):
        first = planner.plan(compile_request("analyze", PAYLOAD))
        second = planner.plan(compile_request("analyze", PAYLOAD))
        assert not planner.wait(second, timeout=0)
        planner.complete(first)  # a crashed owner still releases via finally
        assert planner.wait(second, timeout=0)

    def test_wait_survives_owner_failure(self, planner):
        # The owner "fails": it releases without populating the cache.  The
        # waiter unblocks and would execute the specs itself at assembly.
        owner = planner.plan(compile_request("analyze", PAYLOAD))
        waiter = planner.plan(compile_request("analyze", PAYLOAD))
        released = threading.Event()

        def fail_owner():
            planner.complete(owner)
            released.set()

        threading.Thread(target=fail_owner).start()
        assert planner.wait(waiter, timeout=30.0)
        assert released.is_set()


class TestClaimTTL:
    """Stale-claim leakage: an orphaned claim must expire, not block forever."""

    def test_unreleased_claim_expires_after_ttl(self, table):
        got, _ = table.claim(["k"])
        assert got == ["k"]
        age_claim(table.path, "k", 2 * TTL)
        got2, waiting = table.claim(["k"])  # orphaned claim reclaimed
        assert got2 == ["k"] and not waiting

    def test_expiry_wakes_the_orphans_waiters(self, table):
        table.claim(["k"])
        _, waiting = table.claim(["k"])
        assert not waiting["k"].wait(timeout=0)
        age_claim(table.path, "k", 2 * TTL)
        table.claim(["other"])  # any claim() sweeps expired entries
        assert waiting["k"].wait(timeout=0)

    def test_heartbeat_defers_expiry(self, table):
        table.claim(["k"])
        age_claim(table.path, "k", 2 * TTL)
        table.heartbeat(["k"])
        got, waiting = table.claim(["k"])  # still held: the heartbeat kept it
        assert not got and set(waiting) == {"k"}

    def test_dead_claimant_thread_is_reclaimed_by_ttl(self, table):
        """The in-process analogue of a killed worker: the claiming thread
        dies without release; the TTL reclaims on the next plan."""

        def claim_and_die():
            table.claim(["doomed"])  # never releases

        t = threading.Thread(target=claim_and_die)
        t.start()
        t.join()  # claimant is gone, claim leaked
        assert len(table) == 1
        got, waiting = table.claim(["doomed"])  # its owner process still lives
        assert not got and set(waiting) == {"doomed"}
        age_claim(table.path, "doomed", 2 * TTL)
        got, waiting = table.claim(["doomed"])
        assert got == ["doomed"] and not waiting
