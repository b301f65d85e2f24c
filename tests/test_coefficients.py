import math

import numpy as np
import pytest

from hhverify import (DomainError, Interval, ParamError, Params, corpus_by_id,
                      gamma_coeffs, kernel_moment, nu_coeffs)
from hhverify.bounds import bop_m_rhs, thm211_rhs, thm22_rhs

GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
WEIGHT_PAIRS = [(l, m) for l in GRID for m in GRID if l + m > 0]
ALPHAS = [0.25, 0.5, 0.75, 1.0]


class TestGammaCoeffs:
    def test_symmetric_unit_weights(self):
        g = gamma_coeffs(1.0, 1.0, 1.0)
        for name in ("gamma1", "gamma2", "gamma3", "gamma4"):
            assert math.isclose(g[name], 0.25, abs_tol=1e-15)

    def test_one_sided(self):
        g = gamma_coeffs(1.0, 1.0, 0.0)
        assert math.isclose(g["gamma1"], 1.0 / 6.0, abs_tol=1e-15)
        assert math.isclose(g["gamma2"], 1.0 / 3.0, abs_tol=1e-15)

    def test_two_one_weights(self):
        g = gamma_coeffs(1.0, 2.0, 1.0)
        assert math.isclose(g["gamma1"], 8.0 / 27.0, abs_tol=1e-15)
        assert math.isclose(g["gamma2"], 29.0 / 54.0, abs_tol=1e-15)
        assert math.isclose(g["gamma3"], 29.0 / 54.0, abs_tol=1e-15)
        assert math.isclose(g["gamma4"], 8.0 / 27.0, abs_tol=1e-15)

    def test_underflowed_weight_marks_its_cells(self):
        # at lam = 1e-200 both lam^2 and lam^(alpha+2) underflow: gamma1 = -lam/denom;
        # over cells that cell keeps its point's error, the other its point's bits
        with pytest.raises(ParamError, match="gamma1 must be nonnegative") as err:
            gamma_coeffs(0.5, 1e-200, 0.0)
        g = gamma_coeffs(np.array([0.5, 0.5]), np.array([1e-200, 1.0]), np.array([0.0, 0.0]))
        assert list(g.errors) == [0]
        assert type(g.errors[0]) is ParamError and str(g.errors[0]) == str(err.value)
        point = gamma_coeffs(0.5, 1.0, 0.0)
        for name, values in g.values.items():
            assert values[1] == point[name]

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("lam,mu", WEIGHT_PAIRS)
    def test_oracle_agreement(self, alpha, lam, mu):
        g = gamma_coeffs(alpha, lam, mu)
        assert abs(g["gamma1"] - kernel_moment(alpha, lam, mu, "t^alpha", "lambda")) < 1e-10
        assert abs(g["gamma2"] - kernel_moment(alpha, lam, mu, "1-t^alpha", "lambda")) < 1e-10
        assert abs(g["gamma3"] - kernel_moment(alpha, lam, mu, "t^alpha", "mu")) < 1e-10
        assert abs(g["gamma4"] - kernel_moment(alpha, lam, mu, "1-t^alpha", "mu")) < 1e-10

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("lam,mu", WEIGHT_PAIRS)
    def test_swap_symmetry(self, alpha, lam, mu):
        g = gamma_coeffs(alpha, lam, mu)
        swapped = gamma_coeffs(alpha, mu, lam)
        assert g["gamma1"] == swapped["gamma3"]
        assert g["gamma2"] == swapped["gamma4"]

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("lam,mu", WEIGHT_PAIRS)
    def test_nonnegative(self, alpha, lam, mu):
        g = gamma_coeffs(alpha, lam, mu)
        assert all(v >= -1e-15 for v in g.values.values())

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_equal_weights_reduce_to_nu(self, alpha):
        g = gamma_coeffs(alpha, 1.0, 1.0)
        nu = nu_coeffs(alpha)
        assert math.isclose(g["gamma1"], nu["nu1"], abs_tol=1e-12)
        assert math.isclose(g["gamma2"], nu["nu2"], abs_tol=1e-12)
        # the family is 1-homogeneous in the weights
        for c in (0.5, 2.0, 5.0):
            gc = gamma_coeffs(alpha, c, c)
            assert math.isclose(gc["gamma1"], c * nu["nu1"], rel_tol=1e-12)
            assert math.isclose(gc["gamma2"], c * nu["nu2"], rel_tol=1e-12)

    @pytest.mark.parametrize("lam,mu", WEIGHT_PAIRS)
    def test_alpha_one_closed_form(self, lam, mu):
        g = gamma_coeffs(1.0, lam, mu)
        expected = (2.0 * lam ** 3 / (lam + mu) ** 2 + 2.0 * mu - lam) / 6.0
        assert math.isclose(g["gamma1"], expected, rel_tol=1e-14, abs_tol=1e-14)

    def test_invalid(self):
        with pytest.raises(ParamError):
            gamma_coeffs(0.0, 1.0, 1.0)
        with pytest.raises(ParamError):
            gamma_coeffs(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["alpha", "lam", "mu"])
    def test_non_finite_weight_is_named(self, name, bad):
        # not "coefficient gamma1 is not finite", which names no input
        args = {"alpha": 1.0, "lam": 1.0, "mu": 1.0, name: bad}
        message = f"{name} must be finite"  # Params' message
        with pytest.raises(ParamError, match=message):
            gamma_coeffs(**args)
        with pytest.raises(ParamError, match=message):
            gamma_coeffs(*(np.array([1.0, args[k]]) for k in ("alpha", "lam", "mu")))
        if name == "alpha":
            with pytest.raises(ParamError, match=message):
                nu_coeffs(bad)


class TestNuCoeffs:
    def test_alpha_one(self):
        nu = nu_coeffs(1.0)
        assert math.isclose(nu["nu1"], 0.25, abs_tol=1e-15)
        assert math.isclose(nu["nu2"], 0.25, abs_tol=1e-15)

    def test_alpha_half(self):
        nu = nu_coeffs(0.5)
        assert math.isclose(nu["nu1"], 0.3218951, abs_tol=1e-7)
        assert math.isclose(nu["nu2"], 0.1781049, abs_tol=1e-7)

    @pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.9, 1.0])
    def test_total_weight_is_half(self, alpha):
        nu = nu_coeffs(alpha)
        assert math.isclose(nu["nu1"] + nu["nu2"], 0.5, abs_tol=1e-14)


# The factors that sample |f'|^q are the branches of the RHS they serve:
# mu1/mu2 of bop_m, M1/M2 of thm211 and K1/K2 of thm22.

class TestMuFactors:
    def test_square_unit_m(self):
        fn = corpus_by_id()["pow2"]
        _, mu = bop_m_rhs(fn, Interval(1, 2), Params(m=1.0, q=2.0))
        assert mu["mu1"] == 6.5
        assert mu["mu2"] == 12.5

    def test_symmetric_branches_coincide_at_m1(self):
        # |f'| symmetric around the midpoint makes both averages identical
        fn = corpus_by_id()["pow2"]
        _, mu = bop_m_rhs(fn, Interval(1, 2), Params(m=1.0, q=2.0))
        mid, q = 1.5, 2.0
        avg1 = (abs(fn.df(1.0)) ** q + abs(fn.df(mid)) ** q) / 2
        avg2 = (abs(fn.df(mid)) ** q + abs(fn.df(1.0)) ** q) / 2
        assert avg1 == avg2 == mu["mu1"]

    def test_q1_rejected(self):
        with pytest.raises(ParamError):
            bop_m_rhs(corpus_by_id()["pow2"], Interval(1, 2), Params(m=1.0, q=1.0))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            bop_m_rhs(corpus_by_id()["recip"], Interval(0.0, 1.0), Params(m=1.0, q=2.0))


class TestMFactors:
    def test_reduces_to_mu_at_equal_weights(self):
        fn = corpus_by_id()["pow2"]
        _, M = thm211_rhs(fn, Interval(1, 2), Params(1.0, 1.0, 1.0, 1.0, 2.0))
        assert M["M1"] == 6.5 and M["M2"] == 12.5

    def test_asymmetric_weights(self):
        fn = corpus_by_id()["pow2"]
        _, M = thm211_rhs(fn, Interval(1, 2), Params(1.0, 1.0, 2.0, 1.0, 2.0))
        assert math.isclose(M["M1"], 68.0 / 9.0, rel_tol=1e-15)
        assert math.isclose(M["M2"], 122.0 / 9.0, rel_tol=1e-15)

    def test_alpha_one_m_one_is_plain_average(self):
        fn = corpus_by_id()["pow3"]
        _, M = thm211_rhs(fn, Interval(1, 2), Params(1.0, 1.0, 1.0, 3.0, 2.0))
        z = (1.0 * 2 + 3.0 * 1) / 4.0
        q = 2.0
        assert math.isclose(M["M1"], (fn.df(1.0) ** q + fn.df(z) ** q) / 2, rel_tol=1e-15)

    def test_q1_rejected(self):
        with pytest.raises(ParamError):
            thm211_rhs(corpus_by_id()["pow2"], Interval(1, 2), Params(1.0, 1.0, 1.0, 1.0, 1.0))


class TestKFactors:
    def test_symmetric(self):
        _, K = thm22_rhs(corpus_by_id()["pow2"], Interval(1, 2), Params(alpha=1.0, m=1.0, q=2.0))
        assert K["K1"] == 20.0 and K["K2"] == 20.0

    def test_stretched_domain(self):
        # a/m = 2 so K1 picks up the derivative there; q > 1 is required,
        # so use q = 2: K1 = |f'(2)|^2 + 0.5 * |f'(2)|^2 = 24
        _, K = thm22_rhs(corpus_by_id()["pow2"], Interval(1, 2), Params(alpha=1.0, m=0.5, q=2.0))
        assert math.isclose(K["K1"], 16.0 + 0.5 * 16.0, rel_tol=1e-15)
        assert math.isclose(K["K2"], 4.0 + 0.5 * 64.0, rel_tol=1e-15)

    def test_symmetry_when_endpoint_slopes_match(self):
        fn = corpus_by_id()["pow2"]
        _, K = thm22_rhs(fn, Interval(1, 2), Params(alpha=1.0, m=1.0, q=3.0))
        assert K["K1"] == abs(fn.df(2.0)) ** 3 + abs(fn.df(1.0)) ** 3 == K["K2"]

    def test_q1_rejected(self):
        with pytest.raises(ParamError):
            thm22_rhs(corpus_by_id()["pow2"], Interval(1, 2), Params(alpha=1.0, m=1.0, q=1.0))
