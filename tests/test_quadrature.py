import math

import numpy as np
import pytest

from hhverify import Interval, NonFiniteError, ParamError, integrate, kernel_moment

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

    def test_budget_exhaustion_returns_flagged_estimate(self):
        res = integrate(lambda x: math.sqrt(abs(x - 0.3)), (0.0, 1.0),
                        tol=1e-16, max_evals=200)
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
