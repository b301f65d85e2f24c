import math

import numpy as np
import pytest

from hhverify import (ParamError, check_alpha_m_convex, corpus_by_id,
                      derivative_power)


class TestCheckAlphaMConvex:
    def test_square_is_convex(self):
        verdict = check_alpha_m_convex(lambda x: x ** 2, 2.0, 1.0, 1.0, grid_n=32)
        assert verdict.holds
        assert verdict.worst_violation <= 1e-9

    def test_constant_fails_for_m_below_one(self):
        # at t=0, x=y: g(my) = 1 must not exceed m*g(y) = m < 1
        verdict = check_alpha_m_convex(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                       1.0, 1.0, 0.5, grid_n=16)
        assert not verdict.holds
        assert verdict.worst_violation >= 0.5 - 1e-12

    def test_linear_has_no_positive_violation(self):
        verdict = check_alpha_m_convex(lambda x: np.asarray(x, dtype=float),
                                       1.0, 1.0, 1.0, grid_n=16)
        assert verdict.holds
        assert verdict.worst_violation <= 1e-12

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_power_functions_convex(self, s):
        for b in (0.5, 1.0, 4.0):
            verdict = check_alpha_m_convex(lambda x: np.asarray(x, dtype=float) ** s,
                                           b, 1.0, 1.0, grid_n=16)
            assert verdict.holds

    def test_monotone_refinement(self):
        g = lambda x: np.exp(np.asarray(x, dtype=float))  # not (1, 0.5)-convex near 0
        coarse = check_alpha_m_convex(g, 2.0, 1.0, 0.5, grid_n=8)
        fine = check_alpha_m_convex(g, 2.0, 1.0, 0.5, grid_n=16)
        finer = check_alpha_m_convex(g, 2.0, 1.0, 0.5, grid_n=32)
        assert fine.worst_violation >= coarse.worst_violation - 1e-12
        assert finer.worst_violation >= fine.worst_violation - 1e-12

    def test_alpha_below_one_is_a_genuinely_stronger_class(self):
        # x^2 is convex but not (0.5, 1)-convex: at x = 0, t = 0.25 the
        # condition needs (1 - t)^2 <= 1 - sqrt(t), which fails
        g = lambda x: np.asarray(x, dtype=float) ** 2
        assert check_alpha_m_convex(g, 2.0, 1.0, 1.0).holds
        assert not check_alpha_m_convex(g, 2.0, 0.5, 1.0, grid_n=32).holds

    def test_singular_function_is_clipped(self):
        g = derivative_power(corpus_by_id()["recip"], 1.0)
        verdict = check_alpha_m_convex(g, 2.0, 1.0, 1.0, grid_n=16)
        assert verdict.clipped
        assert verdict.holds  # 1/x^2 is convex on (0, inf)

    def test_witness_in_sampled_ranges(self):
        verdict = check_alpha_m_convex(lambda x: np.exp(np.asarray(x, dtype=float)),
                                       3.0, 1.0, 0.5, grid_n=16)
        x, y, t = verdict.witness
        assert 0 <= x <= 3 and 0 <= y <= 3 and 0 <= t <= 1

    def test_grid_too_small_rejected(self):
        with pytest.raises(ParamError):
            check_alpha_m_convex(lambda x: x, 1.0, 1.0, 1.0, grid_n=4)

    @pytest.mark.parametrize("b", [math.inf, math.nan, -math.inf, 0.0])
    def test_non_finite_or_nonpositive_upper_bound_rejected(self, b):
        # a ParamError, not a NonFiniteError at x=nan from the grid
        with pytest.raises(ParamError, match="b must be positive and finite"):
            check_alpha_m_convex(lambda x: x * x, b, 1.0, 1.0)

    @pytest.mark.parametrize("alpha, m, message", [
        (0.0, 1.0, r"alpha must lie in \(0, 1\], got 0.0"),
        (1.0, 1.5, r"m must lie in \(0, 1\], got 1.5"),
        (math.nan, 1.0, "alpha must be finite, got nan"),
    ], ids=["alpha_zero", "m_above_one", "alpha_nan"])
    def test_alpha_and_m_are_checked_as_params(self, alpha, m, message):
        with pytest.raises(ParamError, match=message):
            check_alpha_m_convex(lambda x: x * x, 1.0, alpha, m)


class TestDerivativePower:
    def test_q1(self):
        g = derivative_power(corpus_by_id()["pow2"], 1.0)
        assert g(3.0) == 6.0

    def test_q2(self):
        g = derivative_power(corpus_by_id()["pow2"], 2.0)
        assert g(3.0) == 36.0

    def test_recip(self):
        g = derivative_power(corpus_by_id()["recip"], 1.0)
        assert g(2.0) == 0.25

    def test_q_below_one_rejected(self):
        with pytest.raises(ParamError):
            derivative_power(corpus_by_id()["pow2"], 0.5)
