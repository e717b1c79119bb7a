"""The blame pipeline: graph structure, detector invariants, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis import BlameReport, blame_campaign, diff_reports
from repro.analysis.blame import (
    BlameVertex,
    ScalingGraph,
    backtrack,
    build_scaling_graph,
    default_groups,
    detect_scaling_loss,
    loss_window,
    wall_by_count,
)
from repro.core.segments import SegmentBreakdown
from repro.obs.diagnostics import GRADE_SUSPECT


class TestLossWindow:
    def test_midpoint_to_top(self):
        assert loss_window([1, 2, 4, 8, 16, 32]) == (8, 32)
        assert loss_window([1, 2, 4, 8]) == (4, 8)

    def test_degenerate_two_counts(self):
        assert loss_window([1, 2]) == (1, 2)

    def test_single_interval(self):
        assert loss_window([4, 8]) == (4, 8)


def _breakdown(segment, n, cycles, compute=0.0, l2=0.0, mem=0.0, sync=0.0, res=0.0):
    return SegmentBreakdown(
        segment=segment,
        n_processors=n,
        n_phases=1,
        cycles=cycles,
        instructions=cycles,
        compute_cycles=compute,
        l2_hit_stall_cycles=l2,
        memory_stall_cycles=mem,
        sync_cycles=sync,
        residual_cycles=res,
    )


def _graph(vertices_spec, counts=(1, 2, 4)):
    """A hand-built graph: vertices_spec is {name: {n: SegmentBreakdown}}."""
    vertices = {}
    for i, (name, by_n) in enumerate(vertices_spec.items()):
        vertices[name] = BlameVertex(name=name, pattern=f"{name}*", order=i, by_n=by_n)
    base = {
        n: sum(v.by_n[n].cycles for v in vertices.values()) for n in counts
    }
    return ScalingGraph(
        workload="handmade",
        s0=1024,
        processor_counts=list(counts),
        groups={name: f"{name}*" for name in vertices},
        vertices=vertices,
        edges=[],
        curves={
            "base": base,
            "l2lim": {n: 0.0 for n in counts},
            "sync": {n: 0.0 for n in counts},
            "imb": {n: 0.0 for n in counts},
        },
        frac_syn={n: 0.0 for n in counts},
        frac_imb={n: 0.0 for n in counts},
    )


class TestDetector:
    def test_losses_tile_the_total(self):
        g = _graph(
            {
                "a": {1: _breakdown("a", 1, 100, compute=100),
                      2: _breakdown("a", 2, 150, compute=150),
                      4: _breakdown("a", 4, 300, compute=300)},
                "b": {1: _breakdown("b", 1, 50, compute=50),
                      2: _breakdown("b", 2, 60, compute=60),
                      4: _breakdown("b", 4, 40, compute=40)},
            }
        )
        det = detect_scaling_loss(g)
        total = sum(v.cycle_loss for v in det.per_vertex.values())
        assert total == pytest.approx(det.total_loss, rel=1e-9)

    def test_overshoot_grades_suspect_and_excludes(self):
        # vertex "bad" models 10x its own cycles at n=4: the tm(n)
        # whole-run-average artifact.  It must grade suspect and drop out
        # of category attribution, leaving "good" with 100% of memory.
        g = _graph(
            {
                "good": {1: _breakdown("good", 1, 100, compute=60, mem=40),
                         2: _breakdown("good", 2, 120, compute=60, mem=60),
                         4: _breakdown("good", 4, 150, compute=60, mem=90)},
                "bad": {1: _breakdown("bad", 1, 100, compute=100),
                        2: _breakdown("bad", 2, 100, compute=100),
                        4: _breakdown("bad", 4, 100, compute=100, mem=900)},
            }
        )
        det = detect_scaling_loss(g)
        assert det.per_vertex["bad"].grade == GRADE_SUSPECT
        assert det.excluded == ["bad"]
        assert det.category_shares["memory"] == {"good": 1.0}
        # suspect evidence is still reported, just not trusted
        assert det.per_vertex["bad"].category_level["memory"] == 900

    def test_flag_marks_dominant_loser(self):
        g = _graph(
            {
                "hot": {1: _breakdown("hot", 1, 100, compute=100),
                        2: _breakdown("hot", 2, 500, compute=500),
                        4: _breakdown("hot", 4, 2000, compute=2000)},
                "cold": {1: _breakdown("cold", 1, 100, compute=100),
                         2: _breakdown("cold", 2, 100, compute=100),
                         4: _breakdown("cold", 4, 110, compute=110)},
            }
        )
        det = detect_scaling_loss(g)
        assert det.per_vertex["hot"].flagged
        assert not det.per_vertex["cold"].flagged

    def test_category_shares_sum_to_one(self):
        g = _graph(
            {
                "a": {1: _breakdown("a", 1, 100, compute=50, mem=30, sync=20),
                      2: _breakdown("a", 2, 100, compute=50, mem=30, sync=20),
                      4: _breakdown("a", 4, 100, compute=50, mem=30, sync=20)},
                "b": {1: _breakdown("b", 1, 100, compute=40, mem=40, sync=20),
                      2: _breakdown("b", 2, 100, compute=40, mem=40, sync=20),
                      4: _breakdown("b", 4, 100, compute=40, mem=40, sync=20)},
            }
        )
        det = detect_scaling_loss(g)
        for category, shares in det.category_shares.items():
            if det.category_totals[category] > 0:
                assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)


class TestRankingTies:
    """Three segments hold exactly a third of the memory stalls each.

    A refit one ulp away (another BLAS, another NNLS) must not move the
    dominant segment or reorder the findings: exact ties fall to the name.
    """

    @staticmethod
    def _tied():
        g = _graph(
            {
                name: {n: _breakdown(name, n, 100, compute=60, mem=40) for n in (1, 2, 4)}
                for name in ("calc2", "calc1", "init")
            }
        )
        return g, detect_scaling_loss(g)

    @staticmethod
    def _ranking(g, det):
        return [(f.rank, f.category, f.vertex, f.dominant, f.narrative) for f in backtrack(g, det)]

    @pytest.mark.parametrize("bumped", ["calc1", "calc2", "init"])
    @pytest.mark.parametrize("toward", [np.inf, -np.inf])
    def test_one_ulp_moves_neither_ranking_nor_text(self, bumped, toward):
        g, det = self._tied()
        before = self._ranking(g, det)
        shares = det.category_shares["memory"]
        shares[bumped] = float(np.nextafter(shares[bumped], toward))
        level = det.per_vertex[bumped].category_level
        level["memory"] = float(np.nextafter(level["memory"], toward))
        assert self._ranking(g, det) == before
        assert [(r[2], r[3]) for r in before] == [
            ("calc1", True), ("calc2", False), ("init", False)
        ]


class TestWallByCount:
    def test_sums_engine_execute_per_n(self):
        spans = [
            {"name": "engine.execute", "attrs": {"n": 2}, "duration_s": 1.5},
            {"name": "engine.execute", "attrs": {"n": 2}, "duration_s": 0.5},
            {"name": "engine.execute", "attrs": {"n": 4}, "duration_s": 3.0},
            {"name": "service.job", "attrs": {"n": 4}, "duration_s": 9.0},
            {"name": "engine.execute", "attrs": {}, "duration_s": 9.0},
        ]
        assert wall_by_count(spans) == {2: 2.0, 4: 3.0}

    def test_empty(self):
        assert wall_by_count(None) == {}
        assert wall_by_count([]) == {}


class TestEndToEnd:
    def test_loss_conservation(self, blame_analysis, blame_campaign_data):
        """Per-vertex cycle losses tile the campaign's total scaling loss."""
        report = blame_campaign(blame_analysis, blame_campaign_data)
        total = sum(v["cycle_loss"] for v in report.vertices)
        scale = max(1.0, abs(report.total_loss))
        assert abs(total - report.total_loss) / scale < 1e-6

    def test_loss_shares_partition_unity(self, blame_analysis, blame_campaign_data):
        report = blame_campaign(blame_analysis, blame_campaign_data)
        shares = report.loss_shares()
        positive = [s for s in shares.values() if s > 0]
        if positive:
            assert sum(positive) == pytest.approx(1.0, abs=1e-6)

    def test_deterministic_json(self, blame_analysis, blame_campaign_data):
        a = blame_campaign(blame_analysis, blame_campaign_data)
        b = blame_campaign(blame_analysis, blame_campaign_data)
        dump = lambda r: json.dumps(r.to_dict(), indent=2, sort_keys=True)  # noqa: E731
        assert dump(a) == dump(b)

    def test_graph_structure(self, blame_analysis, blame_campaign_data):
        graph = build_scaling_graph(blame_analysis, blame_campaign_data)
        names = [v.name for v in graph.ordered()]
        assert names == sorted(
            default_groups(blame_campaign_data), key=names.index
        )  # every default group became a vertex, in program order
        chain = [(e.src, e.dst) for e in graph.edges if e.kind == "program_order"]
        assert chain == list(zip(names, names[1:]))
        for vertex in graph.ordered():
            assert vertex.lineage_refs  # every vertex can be walked to runs
            assert set(vertex.by_n) == set(graph.processor_counts)

    def test_findings_carry_grade_and_lineage(
        self, blame_analysis, blame_campaign_data
    ):
        report = blame_campaign(blame_analysis, blame_campaign_data)
        assert report.findings  # synthetic always has a material category
        for f in report.findings:
            assert f["grade"] in ("ok", "warn", "suspect")
            assert f["lineage_refs"]
            assert f["root_cause"]
        ranks = [f["rank"] for f in report.findings]
        assert ranks == list(range(1, len(ranks) + 1))

    def test_report_round_trip(self, blame_analysis, blame_campaign_data):
        report = blame_campaign(blame_analysis, blame_campaign_data)
        clone = BlameReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert clone.to_dict() == report.to_dict()

    def test_self_diff_is_quiet(self, blame_analysis, blame_campaign_data):
        report = blame_campaign(blame_analysis, blame_campaign_data)
        diff = diff_reports(report, report)
        assert diff["movers"] == []
        assert all(d["delta"] == 0 for d in diff["category_deltas"].values())
        assert diff["notes"] == []
