"""Walk flagged vertices back along graph edges to root-cause candidates.

The detector says *where* cycles are being lost; this module says *why*
and *who else to look at*:

* for each **material** stall category (carrying more than
  ``MATERIAL_FRACTION`` of the top count's base cycles among credible
  vertices) it names the dominant vertex plus every vertex holding at
  least a quarter of the category, ranked by stall level;
* each finding is assigned a root-cause reading from the campaign-level
  evidence — the Eq. 9/10 sync/imbalance split for synchronization
  stalls, the shape of the L2-limited cost curve for memory stalls;
* candidates are collected by walking edges *into* the blamed vertex:
  ``sync`` predecessors are the work a barrier inside the segment waits
  out, ``program_order`` predecessors are the producers of the data the
  segment misses on.

Every finding carries the vertex's evidence grade and the lineage refs
of the base runs that fed it, so nothing here is an unexplainable
number.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .detect import CATEGORY_LABELS, MATERIAL_FRACTION, Detection
from .graph import ScalingGraph

__all__ = ["BlameFinding", "backtrack", "rank_value"]

#: A vertex must hold this share of a material category to be named
#: alongside the dominant vertex.
CO_BLAME_SHARE = 0.25

#: Rankings compare shares and cycle counts at this many significant
#: digits.  Values that differ only in their last bits (a refit one ulp
#: away, another BLAS) then tie, and the tie falls to the name.
RANK_DIGITS = 12


def rank_value(x: float) -> float:
    """``x`` rounded to :data:`RANK_DIGITS` significant digits, for sort keys."""
    return float(f"{x:.{RANK_DIGITS}g}")


@dataclass
class BlameFinding:
    """One ranked (category, vertex) attribution with provenance."""

    rank: int
    category: str
    category_label: str
    vertex: str
    grade: str
    share: float  # of the credible category total at n_hi
    level_cycles: float  # stall cycles at n_hi
    growth_cycles: float  # change over the loss window
    dominant: bool
    root_cause: str
    candidates: list[str] = field(default_factory=list)
    narrative: str = ""
    lineage_refs: list[str] = field(default_factory=list)
    efficiencies: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "category": self.category,
            "category_label": self.category_label,
            "vertex": self.vertex,
            "grade": self.grade,
            "share": self.share,
            "level_cycles": self.level_cycles,
            "growth_cycles": self.growth_cycles,
            "dominant": self.dominant,
            "root_cause": self.root_cause,
            "candidates": list(self.candidates),
            "narrative": self.narrative,
            "lineage_refs": list(self.lineage_refs),
            "efficiencies": dict(self.efficiencies),
        }


def _sync_root_cause(graph: ScalingGraph, n_hi: int) -> str:
    """Read the Eq. 9/10 split: true sync vs imbalance aliased into sync."""
    syn = graph.frac_syn.get(n_hi, 0.0)
    imb = graph.frac_imb.get(n_hi, 0.0)
    if syn <= 0.0 and imb <= 0.0:
        return "synchronization stalls (Eq. 9/10 split unavailable)"
    if imb > syn:
        return (
            f"load imbalance surfacing at barriers (Eq. 10 frac_imb={imb:.2f} "
            f"> frac_syn={syn:.2f} at n={n_hi})"
        )
    return (
        f"true synchronization in-segment (Eq. 9 frac_syn={syn:.2f} "
        f">= frac_imb={imb:.2f} at n={n_hi})"
    )


def _memory_root_cause(graph: ScalingGraph, n_hi: int) -> str:
    """Read the L2-limited cost curve: caching space vs MP sharing costs."""
    base = graph.curves["base"]
    l2lim = graph.curves["l2lim"]
    peak_n = max(l2lim, key=lambda n: l2lim[n])
    peak_share = l2lim[peak_n] / base[peak_n] if base.get(peak_n) else 0.0
    if peak_share > MATERIAL_FRACTION and peak_n <= graph.processor_counts[len(graph.processor_counts) // 2]:
        return (
            "conflict misses from insufficient caching space (Eq. 4: L2-limited "
            f"cost peaks at n={peak_n} with {peak_share:.0%} of base cycles)"
        )
    top_share = l2lim.get(n_hi, 0.0) / base[n_hi] if base.get(n_hi) else 0.0
    if top_share > MATERIAL_FRACTION:
        return (
            "capacity/conflict misses persisting at scale (Eq. 4 L2-limited "
            f"cost still {top_share:.0%} of base at n={n_hi})"
        )
    return (
        "multiprocessor sharing costs — dispersion of data, invalidations and "
        "cold misses (Eqs. 5-8) — rather than caching space"
    )


def _root_cause(graph: ScalingGraph, category: str, n_hi: int) -> str:
    if category == "sync":
        return _sync_root_cause(graph, n_hi)
    if category in ("memory", "l2"):
        return _memory_root_cause(graph, n_hi)
    return "unmodeled residual cycles; likely load imbalance inside the segment"


def _candidates(graph: ScalingGraph, vertex: str, category: str) -> list[str]:
    kind = "sync" if category in ("sync", "imbalance") else "program_order"
    return [v.name for v in graph.predecessors(vertex, kind=kind)]


def backtrack(graph: ScalingGraph, detection: Detection) -> list[BlameFinding]:
    """Ranked findings for every material category, most cycles first."""
    n_lo, n_hi = detection.window
    base_hi = graph.curves["base"].get(n_hi, 0.0)
    raw: list[BlameFinding] = []
    for category, total in detection.category_totals.items():
        if base_hi <= 0 or total <= MATERIAL_FRACTION * base_hi:
            continue
        shares = detection.category_shares[category]
        ranked = sorted(shares.items(), key=lambda kv: (-rank_value(kv[1]), kv[0]))
        for i, (vertex, share) in enumerate(ranked):
            dominant = i == 0
            if not dominant and share < CO_BLAME_SHARE:
                continue
            vl = detection.per_vertex[vertex]
            cause = _root_cause(graph, category, n_hi)
            cands = _candidates(graph, vertex, category)
            v = graph.vertices[vertex]
            narrative = (
                f"segment '{vertex}' holds {share:.0%} of credible "
                f"{CATEGORY_LABELS[category]} cycles at n={n_hi} "
                f"({vl.category_level[category]:,.0f} cycles, "
                f"{vl.category_growth[category]:+,.0f} over n={n_lo}->{n_hi}); "
                f"root cause: {cause}"
            )
            if cands:
                narrative += f"; upstream candidates: {', '.join(cands)}"
            narrative += f" [evidence grade: {vl.grade}]"
            raw.append(
                BlameFinding(
                    rank=0,  # assigned after the global sort
                    category=category,
                    category_label=CATEGORY_LABELS[category],
                    vertex=vertex,
                    grade=vl.grade,
                    share=float(share),
                    level_cycles=float(vl.category_level[category]),
                    growth_cycles=float(vl.category_growth[category]),
                    dominant=dominant,
                    root_cause=cause,
                    candidates=cands,
                    narrative=narrative,
                    lineage_refs=list(v.lineage_refs),
                    efficiencies=dict(vl.efficiencies),
                )
            )
    raw.sort(key=lambda f: (-rank_value(f.level_cycles), f.category, f.vertex))
    for i, finding in enumerate(raw, start=1):
        finding.rank = i
    return raw
