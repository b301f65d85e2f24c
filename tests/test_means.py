import io
import json
import math
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from hhverify import cli
from hhverify import (DomainError, Interval, MeanKind, NonFiniteError, ParamError,
                      Params, integrate, mean, proposition_check)
from hhverify.means import power_log_mean_pow


class TestMean:
    def test_arithmetic(self):
        assert mean(MeanKind.ARITHMETIC, 1.0, 3.0) == 2.0

    def test_harmonic_equal_args(self):
        assert mean(MeanKind.HARMONIC, 1.0, 1.0) == 1.0

    def test_logarithmic(self):
        got = mean(MeanKind.LOGARITHMIC, 1.0, 2.0)
        assert math.isclose(got, 1.0 / math.log(2.0), rel_tol=1e-15)

    def test_logarithmic_equal_args(self):
        assert mean(MeanKind.LOGARITHMIC, 2.0, 2.0) == 2.0

    def test_p_logarithmic(self):
        got = mean(MeanKind.P_LOGARITHMIC, 1.0, 2.0, p=2)
        assert math.isclose(got ** 2, 7.0 / 3.0, rel_tol=1e-15)

    def test_p_logarithmic_equal_args(self):
        assert mean(MeanKind.P_LOGARITHMIC, 2.0, 2.0, p=3) == 2.0

    def test_weighted_arithmetic(self):
        assert mean("weighted_arithmetic", 1.0, 3.0, weight=0.25) == 2.5

    def test_weighted_harmonic(self):
        got = mean(MeanKind.WEIGHTED_HARMONIC, 1.0, 2.0, weight=0.5)
        assert math.isclose(got, 4.0 / 3.0, rel_tol=1e-15)

    @pytest.mark.parametrize("p", [-1, 0, math.nan, math.inf, -math.inf, 2.5])
    def test_forbidden_p(self, p):
        # a DomainError, not the ValueError / OverflowError of int(p)
        with pytest.raises(DomainError, match="p must be a nonzero integer"):
            mean(MeanKind.P_LOGARITHMIC, 1.0, 2.0, p=p)

    def test_zero_input_forbidden_for_harmonic(self):
        with pytest.raises(DomainError):
            mean(MeanKind.HARMONIC, 0.0, 1.0)

    def test_negative_input_forbidden(self):
        with pytest.raises(DomainError):
            mean(MeanKind.ARITHMETIC, -1.0, 1.0)

    @pytest.mark.parametrize("kind", [MeanKind.ARITHMETIC, MeanKind.LOGARITHMIC])
    @pytest.mark.parametrize("a,b", [(math.nan, 2.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_input_forbidden(self, kind, a, b):
        # was a NaN mean, also for the logarithmic mean of (1, inf)
        with pytest.raises(DomainError, match="finite nonnegative inputs"):
            mean(kind, a, b)

    def test_returns_a_float(self):
        assert type(mean(MeanKind.HARMONIC, 1.0, 3.0)) is float

    def test_missing_weight(self):
        with pytest.raises(ParamError):
            mean(MeanKind.WEIGHTED_ARITHMETIC, 1.0, 2.0)

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (1.0, 3.0), (2.0, 2.5)])
    def test_mean_property(self, a, b):
        for kind, kwargs in [
            (MeanKind.ARITHMETIC, {}),
            (MeanKind.HARMONIC, {}),
            (MeanKind.LOGARITHMIC, {}),
            (MeanKind.P_LOGARITHMIC, {"p": 3}),
            (MeanKind.WEIGHTED_ARITHMETIC, {"weight": 0.3}),
            (MeanKind.WEIGHTED_HARMONIC, {"weight": 0.7}),
        ]:
            v = mean(kind, a, b, **kwargs)
            assert min(a, b) - 1e-14 <= v <= max(a, b) + 1e-14

    @pytest.mark.parametrize("a,b", [(0.5, 2.0), (1.0, 5.0), (0.1, 0.2)])
    def test_classical_bracketing(self, a, b):
        h = mean(MeanKind.HARMONIC, a, b)
        l = mean(MeanKind.LOGARITHMIC, a, b)
        ar = mean(MeanKind.ARITHMETIC, a, b)
        assert h <= l + 1e-14 <= ar + 1e-14


class TestMeanIntegralIdentities:
    @pytest.mark.parametrize("n", [2, 3, -2, 5])
    def test_power_log_mean_is_integral_mean(self, n):
        a, b = 0.5, 3.0
        exact = power_log_mean_pow(a, b, n)
        quad = integrate(lambda x: x ** float(n), (a, b), tol=1e-13).value / (b - a)
        assert math.isclose(exact, quad, rel_tol=1e-12)

    def test_inverse_log_mean_is_integral_mean_of_recip(self):
        a, b = 1.0, 2.0
        exact = 1.0 / mean(MeanKind.LOGARITHMIC, a, b)
        quad = integrate(lambda x: 1.0 / x, (a, b), tol=1e-13).value / (b - a)
        assert math.isclose(exact, quad, rel_tol=1e-12)

    def test_weighted_mean_is_weighted_endpoint_value(self):
        from hhverify import corpus_by_id, deviation
        lam, mu, n = 2.0, 3.0, 2
        a, b = 1.0, 2.0
        w = lam / (lam + mu)
        wa = mean(MeanKind.WEIGHTED_ARITHMETIC, a ** n, b ** n, weight=w)
        dev = deviation(corpus_by_id()["pow2"], Interval(a, b), lam, mu)
        assert math.isclose(wa, dev.weighted_endpoint_value, rel_tol=1e-15)


class TestPropositions:
    def test_power_mean_comparison(self):
        res = proposition_check(1, 1.0, 2.0, Params(lam=1.0, mu=1.0, q=1.0), n=2)
        assert math.isclose(res.mean_lhs, 1.0 / 6.0, abs_tol=1e-14)
        assert math.isclose(res.mean_rhs, 0.75, rel_tol=1e-14)
        assert res.residual <= 1e-12
        assert res.holds

    def test_harmonic_comparison(self):
        res = proposition_check(4, 1.0, 2.0, Params(lam=1.0, mu=1.0, q=1.0))
        assert math.isclose(res.mean_lhs, abs(0.75 - math.log(2.0)), abs_tol=1e-14)
        assert math.isclose(res.mean_rhs, 0.15625, rel_tol=1e-14)
        assert res.residual <= 1e-12
        assert res.holds

    def test_near_degenerate_interval(self):
        res = proposition_check(1, 1.0, 1.0 + 1e-6, Params(lam=1.0, mu=2.0, q=1.0), n=2)
        assert res.mean_lhs <= 1e-5
        assert res.holds

    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_q1_rejected_for_hoelder_props(self, k):
        with pytest.raises(ParamError):
            proposition_check(k, 1.0, 2.0, Params(lam=1.0, mu=1.0, q=1.0), n=2)

    def test_small_exponent_rejected(self):
        with pytest.raises(ParamError):
            proposition_check(1, 1.0, 2.0, Params(q=1.0), n=1)

    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5])
    def test_non_integer_exponent_rejected(self, n):
        # a ParamError, not the ValueError / OverflowError of int(n)
        with pytest.raises(ParamError, match="integer"):
            proposition_check(1, 1.0, 2.0, Params(), n=n)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            proposition_check(1, 2.0, 1.0, Params(q=1.0), n=2)

    def test_prop6_reports_mismatch_factor(self):
        res = proposition_check(6, 1.0, 2.0, Params(lam=1.0, mu=1.0, q=2.0))
        assert res.note
        ratio = res.mean_rhs / res.corollary_rhs
        assert math.isclose(ratio, 0.5 ** (1.0 / 2.0), rel_tol=1e-12)
        assert res.holds

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_underflowed_power_is_out_of_range(self, k):
        # a^(2q) underflows to 0.0: a float range failure, not a domain error
        with pytest.raises(NonFiniteError, match=r"out of float range on \(1e-200, 1.0\)"):
            proposition_check(k, 1e-200, 1.0, Params(q=2.0))

    def test_a_weight_fault_names_the_weights(self):
        # lambda = 1e-200 makes gamma1 NaN: the weights fail, not a power of a or b
        with pytest.raises(NonFiniteError) as err:
            proposition_check(1, 1.0, 2.0, Params(lam=1e-200, mu=0.0), n=2)
        assert str(err.value) == ("proposition 1: out of float range on (1.0, 2.0) at lambda = "
                                  "1e-200, mu = 0.0, q = 1.0 (coefficient gamma1 is not finite: "
                                  "nan)")

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_substitution_identity(self, k):
        p = Params(lam=2.0, mu=0.5, q=2.0)
        n = 3 if k <= 3 else None
        res = proposition_check(k, 0.5, 2.0, p, n=n)
        assert res.residual <= 1e-12 * max(1.0, res.corollary_rhs)
        assert res.holds


# The point path, pinned: each proposition_check of a small grid (its values' reprs
# and Python types, or its error) and each ``hh-verify means`` command that the
# tests and CI run (its exit code, stdout and stderr), as they were before the
# bounds' right sides became numpy columns.
POINT_PINS = pathlib.Path(__file__).parent / "data" / "means_pins.json"
PIN_GRID = [(k, a, b, lam, mu, q, n)
            for k in range(1, 7)
            for a, b in ((1.0, 2.0), (0.5, 3.0), (1e-200, 1.0))
            for lam, mu in ((1.0, 1.0), (2.0, 0.5), (1e-200, 0.0))
            for q in (1.0, 2.0, 3.5)
            for n in ((2, -3) if k <= 3 else (None,))]
PIN_COMMANDS = [
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "2"],
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "2", "--format", "json"],
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "2", "--format", "text"],
    ["--prop", "6", "--a", "1", "--b", "2", "--q", "2", "--format", "json"],
    ["--prop", "2", "--a", "1", "--b", "2", "--n", "2", "--q", "1"],
    *(["--prop", k, "--a", "1", "--b", "2", "--n", "2", "--q", "1"] for k in "356"),
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "1"],
    ["--prop", "1", "--a", "1", "--b", "1e200", "--n", "3"],
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "2", "--q", "1e308"],
    ["--prop", "4", "--a", "1e-200", "--b", "1"],
    ["--prop", "1", "--a", "1e-200", "--b", "1", "--n", "-3"],
    ["--prop", "5", "--a", "1e-200", "--b", "1", "--q", "2"],
    ["--prop", "6", "--a", "1e-200", "--b", "1", "--q", "2"],
    ["--prop", "1", "--a", "1", "--b", "2", "--n", "2", "--lambda", "1e-160", "--mu", "0",
     "--q", "2"],
    *(["--prop", k, "--a", "1", "--b", "2", "--n", "2", "--lambda", "1e-200", "--mu", "0",
       "--q", "2"] for k in "36"),
    *(["--prop", str(k), "--a", "0.5", "--b", "3", "--n", "-3", "--lambda", "2", "--mu",
       "0.5", "--q", "3.5", "--format", "json"] for k in range(1, 7)),
]


def pin_proposition(k, a, b, lam, mu, q, n):
    """[type, repr] of each field of proposition_check's result, or of its error."""
    try:
        result = proposition_check(k, a, b, Params(lam=lam, mu=mu, q=q), n=n)
    except (ParamError, DomainError, ArithmeticError) as exc:
        return {"error": [type(exc).__name__, str(exc)]}
    return {key: [type(v).__name__, repr(v)] for key, v in vars(result).items()}


def pin_command(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["means", *argv])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_proposition_check_is_pinned():
    pins = json.loads(POINT_PINS.read_text())["propositions"]
    assert [pin["args"] for pin in pins] == [list(args) for args in PIN_GRID]
    for pin in pins:
        assert pin_proposition(*pin["args"]) == pin["result"], pin["args"]


def test_means_commands_are_pinned():
    pins = json.loads(POINT_PINS.read_text())["commands"]
    assert [pin["argv"] for pin in pins] == PIN_COMMANDS
    for pin in pins:
        assert pin_command(pin["argv"]) == {k: pin[k] for k in ("code", "out", "err")}
