"""The closed-form two-column NNLS behind the constrained (t2, tm) refit.

Three checks, none of which needs scipy:

* a property test certifies every answer through the NNLS KKT
  conditions — for this convex problem they are necessary and
  sufficient for optimality;
* golden fixtures: the Eq. 3 designs of the four shipped workloads,
  with ``scipy.optimize.nnls``'s answers recorded beside them;
* a fresh interpreter that cannot import scipy still fits and analyzes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.estimators import nnls_two_columns

GOLDEN = Path(__file__).parent / "data" / "nnls_golden.json"
REPO = Path(__file__).resolve().parents[2]


def assert_kkt(design: np.ndarray, y: np.ndarray, x: np.ndarray) -> None:
    """x >= 0, gradient >= 0, and a zero gradient wherever x > 0."""
    grad = design.T @ (design @ x - y)
    norm_a = np.linalg.norm(design)
    tol = 1e-9 * norm_a * (norm_a * np.abs(x).max() + np.linalg.norm(y))
    assert x.shape == (2,)
    assert (x >= 0).all(), x
    assert (grad >= -tol).all(), (grad, tol)
    assert (np.abs(grad[x > 0]) <= tol).all(), (grad, x, tol)


# Entries are zero or at least 1e-6 in magnitude, so no column's squared
# norm underflows to zero while the column itself is nonzero.
entries = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-6, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-6),
)


@st.composite
def problems(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    kind = draw(
        st.sampled_from(["random", "collinear", "near_collinear", "zero_column", "zero_target"])
    )
    a = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    b = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    y = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    if kind == "collinear":
        b = a * draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0, 2.0, 4.0]))
    elif kind == "near_collinear":
        b = a * draw(st.floats(min_value=-4.0, max_value=4.0)) + b * draw(
            st.sampled_from([1e-6, 1e-9, 1e-12])
        )
    elif kind == "zero_column":
        b = np.zeros(m)
    elif kind == "zero_target":
        y = np.zeros(m)
    columns = [a, b] if draw(st.booleans()) else [b, a]
    return np.column_stack(columns), y


@settings(max_examples=300, deadline=None)
@given(problem=problems())
def test_solution_satisfies_kkt(problem):
    design, y = problem
    assert_kkt(design, y, nnls_two_columns(design, y))


class TestClosedForm:
    def test_feasible_least_squares_is_returned(self):
        design = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x = nnls_two_columns(design, design @ [2.0, 3.0])
        np.testing.assert_allclose(x, [2.0, 3.0])

    def test_negative_coefficient_falls_to_one_column(self):
        design = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        x = nnls_two_columns(design, np.array([2.0, 1.0, -1.0]))
        assert x.tolist() == [1.5, 0.0]

    def test_anticorrelated_target_gives_zero(self):
        design = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert nnls_two_columns(design, np.array([-1.0, -1.0, -1.0])).tolist() == [0.0, 0.0]

    def test_exact_tie_goes_to_the_larger_correlation(self):
        # Collinear columns fit equally well; Lawson-Hanson frees the
        # column with the larger a_j^T y first, and keeps it.
        a = np.array([1.0, 2.0, 3.0])
        design = np.column_stack([a, 2.0 * a])
        assert nnls_two_columns(design, a).tolist() == [0.0, 0.5]
        assert nnls_two_columns(design[:, ::-1], a).tolist() == [0.5, 0.0]

    def test_identical_columns_keep_the_first(self):
        a = np.array([1.0, 2.0, 3.0])
        assert nnls_two_columns(np.column_stack([a, a]), a).tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        design = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError):
            nnls_two_columns(design, np.ones(2))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            nnls_two_columns(np.ones((3, 3)), np.ones(3))


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN.read_text())["cases"], ids=lambda c: c["workload"]
)
def test_matches_recorded_nnls_on_shipped_workloads(case):
    design = np.array(case["design"])
    y = np.clip(np.array(case["targets"]), 0.0, None)
    x = nnls_two_columns(design, y)
    np.testing.assert_allclose(x, case["nnls"], rtol=1e-12, atol=0.0)
    assert_kkt(design, y, x)


_NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, RefuseScipy())

from repro.core import ScalTool
from repro.core.estimators import fit_t2_tm
from repro.runner.campaign import CampaignConfig, ScalToolCampaign
from tests.conftest import small_synthetic, tiny_machine_config
from tests.core.test_estimators import L2_BYTES, TRUE, collinear_runs

t2, tm, diag = fit_t2_tm(collinear_runs(), TRUE["cpi0"], L2_BYTES)
assert diag["constrained"] and diag["rank_deficient"], diag
assert t2 >= 0 and tm > 0, (t2, tm)

campaign = ScalToolCampaign(
    small_synthetic(iters=3, imbalance_amp=0.2),
    CampaignConfig(s0=32 * 1024, processor_counts=(1, 2)),
    machine_factory=lambda n: tiny_machine_config(n_processors=n),
).run()
analysis = ScalTool(campaign).analyze()
fit = next(c for c in analysis.params.diagnostics if c.name == "t2_tm_fit")
assert fit.details["constrained"], fit.details
assert "scipy" not in sys.modules
print("ok")
"""


def test_estimation_needs_no_scipy():
    # The tiny campaign's fit is rank-deficient, so ScalTool.analyze takes
    # the constrained refit too.
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)]),
    }
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY],
        cwd=REPO, capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
