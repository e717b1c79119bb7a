"""Pure statistics shared by the benchmark and its steadiness command.

Nothing here touches the program under test, so the rules can be unit
tested on their own (``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

#: Below this many samples only the median is reported.
MIN_TAIL_SAMPLES = 40


def median(values: list[float]) -> float:
    return statistics.median(values)


def nearest_rank(values: list[float], pct: float) -> float:
    """The ``pct`` percentile by the nearest-rank rule (a sample, never interpolated)."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct`` percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_ok(n: int, pct: float) -> bool:
    """Whether the ``pct`` percentile of ``n`` samples may be reported.

    It needs at least ten samples beyond it, and at least forty samples
    in all: below forty the median is reported alone, because a
    percentile with ten samples beyond it would be no tail.
    """
    return n >= MIN_TAIL_SAMPLES and beyond(n, pct) >= MIN_BEYOND


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better.  ``better`` is ``"lower"`` or
    ``"higher"``, as in ``BENCHMARK.json``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def within_bound(first: float, second: float, better: str, bound: float) -> bool:
    """Whether ``second`` is worse than ``first`` by no more than ``bound``."""
    return worsening(first, second, better) <= bound


def compare_sets(first: list[float], second: list[float], better: str, bound: float) -> dict:
    """Two sets of runs of one metric: medians, quartiles, spreads, agreement.

    The sets agree when each spread stays within ``bound`` and the
    second median is not worse than the first by more than ``bound``.
    """
    out = {"better": better, "bound": bound}
    for label, values in (("first", first), ("second", second)):
        q1, q2, q3 = quartiles(values)
        out[label] = {
            "n": len(values),
            "median": q2,
            "q1": q1,
            "q3": q3,
            "spread": spread(values),
        }
    out["worsening"] = worsening(out["first"]["median"], out["second"]["median"], better)
    out["medians_agree"] = within_bound(out["first"]["median"], out["second"]["median"], better, bound)
    out["spreads_within_bound"] = (
        out["first"]["spread"] <= bound and out["second"]["spread"] <= bound
    )
    return out
