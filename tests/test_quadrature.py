import math
import re

import numpy as np
import pytest

from hhverify import (Interval, NonFiniteError, ParamError, QuadResult, corpus_by_id,
                      integrate, kernel_moment, quadrature)
from hhverify.cli import default_sweep_spec
from hhverify.quadrature import _NODES

SINGULAR_IDS = ("pown2", "recip", "xlogx")

GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
WEIGHT_PAIRS = [(l, m) for l in GRID for m in GRID if l + m > 0]


class TestIntegrate:
    def test_polynomial_exactness(self):
        res = integrate(lambda x: x ** 2, (0.0, 1.0), tol=1e-12)
        assert abs(res.value - 1.0 / 3.0) < 1e-12
        assert res.error_estimate >= 0 and res.evaluations > 0

    def test_shifted_polynomial(self):
        res = integrate(lambda x: x ** 2, Interval(1.0, 2.0), tol=1e-12)
        assert abs(res.value - 7.0 / 3.0) < 1e-12

    def test_kinked_integrand_with_breakpoint(self):
        # piecewise antiderivative of |2t-1| t gives exactly 1/4
        res = integrate(lambda t: abs(2 * t - 1) * t, (0.0, 1.0), tol=1e-12,
                        breakpoints=(0.5,))
        assert abs(res.value - 0.25) < 1e-10

    @pytest.mark.parametrize("c", [-1.0, 2.0, 10.0])
    def test_linearity(self, c):
        base = integrate(lambda x: np.exp(x) * x, (0.0, 2.0), tol=1e-13).value
        scaled = integrate(lambda x: c * np.exp(x) * x, (0.0, 2.0), tol=1e-13).value
        assert math.isclose(scaled, c * base, rel_tol=1e-12)

    def test_interval_additivity(self):
        rng = np.random.default_rng(7)
        f = lambda x: np.sin(x) + x ** 3
        for _ in range(5):
            c = rng.uniform(0.1, 2.9)
            whole = integrate(f, (0.0, 3.0), tol=1e-12)
            left = integrate(f, (0.0, c), tol=1e-12)
            right = integrate(f, (c, 3.0), tol=1e-12)
            combined_err = whole.error_estimate + left.error_estimate + right.error_estimate
            assert abs(whole.value - left.value - right.value) <= combined_err + 1e-13

    def test_budget_exhaustion_returns_flagged_estimate(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_EVALS", 200)
        res = integrate(lambda x: math.sqrt(abs(x - 0.3)), (0.0, 1.0), tol=1e-16)
        assert not res.converged
        assert res.evaluations <= 200
        assert abs(res.value - (0.3 ** 1.5 + 0.7 ** 1.5) * 2 / 3) < 1e-3

    def test_width_floor_exit_reports_unmet_tolerance(self):
        # the singularity at 0 stalls bisection at the panel-width floor
        # before the error total reaches tol
        res = integrate(lambda x: x ** -0.5, (0.0, 1.0), tol=1e-12)
        assert res.converged is False
        assert res.error_estimate > 1e-12

    def test_non_finite_integrand_raises(self):
        with pytest.raises(NonFiniteError):
            integrate(lambda x: float("nan") if 0.4 < x < 0.6 else x, (0.0, 1.0))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ParamError):
            integrate(lambda x: x, (0.0, 1.0), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(ParamError):
            integrate(lambda x: x, (0.0, 1.0), tol=tol)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan),
                                        (math.nan, 1.0), (-math.inf, math.inf)])
    def test_non_finite_bounds_rejected(self, bounds):
        # a ParamError, not a NonFiniteError at x=nan from the arithmetic
        with pytest.raises(ParamError, match="must be finite"):
            integrate(lambda x: x, bounds)


class TestEvaluation:
    def test_array_integrand_called_once_per_bisection(self):
        sizes = []

        def f(x):
            sizes.append(np.size(x))
            return np.sqrt(x)

        res = integrate(f, (0.0, 1.0), tol=1e-10, breakpoints=(0.25, 0.5))
        assert sizes[0] == 45  # the three initial panels in one call
        assert len(sizes) > 10 and set(sizes[1:]) == {30}
        assert res.evaluations == sum(sizes)

    def test_scalar_only_integrand_matches_array_one(self):
        scalar = integrate(math.exp, (0.0, 2.0), tol=1e-12)
        array = integrate(np.exp, (0.0, 2.0), tol=1e-12)
        assert math.isclose(scalar.value, array.value, rel_tol=1e-15)
        assert scalar.evaluations == array.evaluations

    @pytest.mark.parametrize("f", [
        lambda x: np.where(x > 0.5, np.nan, x),         # takes arrays
        lambda x: float("nan") if x > 0.5 else x,       # ValueError on arrays
    ])
    def test_non_finite_error_names_the_first_bad_node(self, f):
        first = (0.5 + 0.5 * _NODES)[_NODES > 0][0]
        with pytest.raises(NonFiniteError, match=re.escape(f"at x={first}")):
            integrate(f, (0.0, 1.0))

    def test_overflowing_panel_sum_raises(self):
        with pytest.raises(NonFiniteError, match="overflows"), np.errstate(over="ignore"):
            integrate(lambda x: np.full_like(x, 1e308), (0.0, 1e10))

    @pytest.mark.parametrize("tol,evals", [(1e-9, 585), (1e-11, 705)])
    def test_evaluation_counts_are_pinned(self, tol, evals):
        # the exact running error total bisects exactly as often as a fresh
        # sum over all panels would; a drifting total would change these
        res = integrate(corpus_by_id()["pown2"].f, (1e-3, 1.0), tol=tol)
        assert res.evaluations == evals and res.converged

    def test_width_floor_exit_result_is_pinned(self):
        assert integrate(lambda x: x ** -0.5, (0.0, 1.0), tol=1e-12) == QuadResult(
            1.9999999972773546, 4.2077092096289716e-09, 1455, False)

    def test_budget_exit_result_is_pinned(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_EVALS", 600)
        res = integrate(lambda x: x ** -0.5, (0.0, 1.0), tol=1e-12)
        assert res == QuadResult(1.999936915012168, 9.729617365003226e-05, 585, False)


def _sweep_cases():
    """Each corpus function on each default-sweep interval, the singular ones
    started at 1e-3 instead of 0."""
    for fn_id in sorted(corpus_by_id()):
        for a, b in default_sweep_spec().intervals:
            yield fn_id, (1e-3 if a == 0 and fn_id in SINGULAR_IDS else a), b


class TestIndependentOracles:
    @pytest.mark.parametrize("fn_id,a,b", list(_sweep_cases()))
    def test_against_scipy_quad(self, fn_id, a, b):
        quad = pytest.importorskip("scipy.integrate").quad
        f = corpus_by_id()[fn_id].f
        expected, _ = quad(lambda x: float(f(x)), a, b, epsabs=1e-12, epsrel=1e-12)
        res = integrate(f, (a, b), tol=1e-9)
        assert abs(res.value - expected) <= res.error_estimate + 1e-9

    @pytest.mark.parametrize("fn_id,a,b", list(_sweep_cases()))
    def test_against_mpmath_quad(self, fn_id, a, b):
        mp = pytest.importorskip("mpmath")
        exact = {
            "pow2": lambda x: x ** 2, "pow3": lambda x: x ** 3, "pow4": lambda x: x ** 4,
            "pown2": lambda x: x ** -2, "recip": lambda x: 1 / x, "exp": mp.exp,
            "xlogx": lambda x: x * mp.log(x), "sinh": mp.sinh,
        }[fn_id]
        with mp.workdps(30):
            # geometric cuts keep tanh-sinh accurate near a small start
            cuts = [a, *(c for c in (1e-2, 1e-1) if a < c < b), b]
            expected = float(mp.quad(exact, cuts))
        res = integrate(corpus_by_id()[fn_id].f, (a, b), tol=1e-9)
        assert abs(res.value - expected) <= res.error_estimate + 1e-9


class TestKernelMoment:
    def test_symmetric_weights_linear_kernel(self):
        assert abs(kernel_moment(1.0, 1.0, 1.0, "t^alpha", "lambda") - 0.25) < 1e-10

    def test_one_sided_weights(self):
        # lam=1, mu=0: integrand (1-t) t on [0, 1]
        assert abs(kernel_moment(1.0, 1.0, 0.0, "t^alpha", "lambda") - 1.0 / 6.0) < 1e-10

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("lam,mu", [(1.0, 1.0), (2.0, 1.0), (0.5, 5.0)])
    def test_flat_weight_closed_form(self, alpha, lam, mu):
        expected = (lam ** 2 + mu ** 2) / (2.0 * (lam + mu))
        assert abs(kernel_moment(alpha, lam, mu, "1", "lambda") - expected) < 1e-10

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("lam,mu", WEIGHT_PAIRS)
    def test_power_kernel_closed_form(self, p, lam, mu):
        expected = (lam ** (p + 1) + mu ** (p + 1)) / ((p + 1) * (lam + mu))
        got = kernel_moment(1.0, lam, mu, "1", "lambda", p_exp=p)
        assert abs(got - expected) < 1e-10 * max(1.0, expected)

    def test_invalid_inputs(self):
        with pytest.raises(ParamError):
            kernel_moment(1.5, 1.0, 1.0)
        with pytest.raises(ParamError):
            kernel_moment(1.0, 0.0, 0.0)
        with pytest.raises(ParamError):
            kernel_moment(1.0, 1.0, 1.0, "t^2", "lambda")
        with pytest.raises(ParamError):
            kernel_moment(1.0, 1.0, 1.0, "1", "nu")
        with pytest.raises(ParamError):
            kernel_moment(1.0, 1.0, 1.0, p_exp=0.5)
