import contextlib
import io
import itertools
import math
import pathlib
from collections import Counter

import hypothesis
import numpy as np
import pytest

from hhverify import (DomainError, GateError, Interval, NonFiniteError, ParamError, Params,
                      TestFunction, bound_hh, check_alpha_m_convex, check_hypotheses,
                      corpus_by_id, derivative_power, deviation, kernel_moment,
                      lemma21_residual, reflect, verify)
from hhverify import bounds, cli
from hhverify.bounds import thm11_rhs

OVERFLOW_SPEC = pathlib.Path(__file__).parent / "data" / "overflow.spec"
POW2 = corpus_by_id()["pow2"]
EXP = corpus_by_id()["exp"]
RECIP = corpus_by_id()["recip"]

CONST = TestFunction("const", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                     lambda x: np.zeros_like(np.asarray(x, dtype=float)))


class TestDeviation:
    def test_symmetric_weights(self):
        dev = deviation(POW2, Interval(0, 1), 1.0, 1.0)
        assert math.isclose(dev.lhs_abs, 1.0 / 6.0, abs_tol=1e-12)
        assert dev.weighted_endpoint_value == 0.5

    def test_asymmetric_weights(self):
        dev = deviation(POW2, Interval(1, 2), 2.0, 1.0)
        assert math.isclose(dev.lhs_abs, 1.0 / 3.0, abs_tol=1e-12)
        assert math.isclose(dev.weighted_endpoint_value, 2.0, abs_tol=1e-15)

    def test_linear_function_equal_weights(self):
        lin = TestFunction("lin", lambda x: 3.0 * x + 1.0,
                           lambda x: 3.0 * np.ones_like(np.asarray(x, dtype=float)))
        dev = deviation(lin, Interval(0, 2), 1.0, 1.0)
        assert dev.lhs_abs <= 1e-12
        # with unequal weights the trapezoid is no longer exact for linear f
        dev2 = deviation(lin, Interval(0, 2), 3.0, 1.0)
        assert dev2.lhs_abs > 0.1

    def test_zero_weights_rejected(self):
        with pytest.raises(ParamError):
            deviation(POW2, Interval(0, 1), 0.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call,arg", [
    ("deviation", "lam"), ("deviation", "mu"),
    ("lemma21_residual", "lam"), ("lemma21_residual", "mu"),
    ("kernel_moment", "alpha"), ("kernel_moment", "lam"), ("kernel_moment", "mu"),
    ("kernel_moment", "q"), ("derivative_power", "q"),
])
def test_non_finite_parameters_rejected(call, arg, value):
    # each checks its parameters through Params, whose message names the argument
    p = {"alpha": 1.0, "lam": 1.0, "mu": 1.0, "q": 1.0, arg: value}
    calls = {
        "deviation": lambda: deviation(POW2, Interval(0, 1), p["lam"], p["mu"]),
        "lemma21_residual": lambda: lemma21_residual(POW2, Interval(0, 1), p["lam"], p["mu"]),
        "kernel_moment": lambda: kernel_moment(p["alpha"], p["lam"], p["mu"], p_exp=p["q"]),
        "derivative_power": lambda: derivative_power(POW2, p["q"]),
    }
    with pytest.raises(ParamError, match=f"{arg} must be finite, got {value}"):
        calls[call]()


class TestLemmaResidual:
    def test_square_symmetric(self):
        assert lemma21_residual(POW2, Interval(0, 1), 1.0, 1.0) <= 1e-10

    def test_exp_asymmetric(self):
        assert lemma21_residual(EXP, Interval(0, 1), 1.0, 3.0) <= 1e-9

    def test_constant(self):
        assert lemma21_residual(CONST, Interval(0, 1), 2.0, 5.0) <= 1e-14

    @pytest.mark.parametrize("lam,mu", [(0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (5.0, 5.0)])
    def test_weight_grid(self, lam, mu):
        for fn in (POW2, EXP, RECIP):
            iv = Interval(1.0, 2.0)
            assert lemma21_residual(fn, iv, lam, mu) <= 1e-9


class TestBaselineBounds:
    def test_hh_bracket(self):
        lower, upper = bound_hh(POW2, Interval(0, 1))
        assert (lower, upper) == (0.25, 0.5)
        assert lower <= 1.0 / 3.0 <= upper

    def test_hh_recip(self):
        lower, upper = bound_hh(RECIP, Interval(1, 2))
        assert math.isclose(lower, 2.0 / 3.0)
        assert math.isclose(upper, 0.75)
        assert lower <= math.log(2.0) <= upper

    def test_hh_linear_equality(self):
        lin = TestFunction("lin", lambda x: 2.0 * x,
                           lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
        lower, upper = bound_hh(lin, Interval(1, 3))
        assert lower == upper == 4.0

    def test_da(self):
        report = verify(POW2, Interval(0, 1), Params(), "da", gate=False)
        assert math.isclose(report.rhs, 0.25)
        assert math.isclose(report.lhs, 1.0 / 6.0, abs_tol=1e-12)
        assert report.holds

    def test_da_shifted(self):
        report = verify(POW2, Interval(1, 2), Params(), "da", gate=False)
        assert math.isclose(report.rhs, 0.75)
        assert math.isclose(report.lhs, 1.0 / 6.0, abs_tol=1e-12)

    def test_sso(self):
        report = verify(POW2, Interval(0, 1), Params(alpha=1.0, m=1.0), "sso", gate=False)
        assert math.isclose(report.rhs, 0.5)
        assert math.isclose(report.lhs, 1.0 / 3.0, abs_tol=1e-12)
        assert report.holds

    def test_sso_shifted(self):
        report = verify(POW2, Interval(1, 2), Params(alpha=1.0, m=1.0), "sso", gate=False)
        assert math.isclose(report.rhs, 2.5)
        assert math.isclose(report.lhs, 7.0 / 3.0, abs_tol=1e-12)


class TestMConvexBound:
    def test_tight_and_loose(self):
        report = verify(POW2, Interval(1, 2), Params(m=1.0, q=2.0), "bop_m", gate=False)
        loose = (math.sqrt(6.5) + math.sqrt(12.5)) / 4.0
        tight = loose * math.sqrt(1.0 / 3.0)
        assert math.isclose(report.branches["loose"], loose, rel_tol=1e-14)
        assert math.isclose(report.rhs, tight, rel_tol=1e-14)
        assert report.rhs <= report.branches["loose"]
        assert report.holds


class TestEqualWeightPowerMeanBound:
    def test_unit_case(self):
        report = verify(POW2, Interval(1, 2), Params(alpha=1.0, m=1.0, q=1.0), "bop_am",
                        gate=False)
        assert math.isclose(report.rhs, 0.75, rel_tol=1e-14)
        assert report.holds

    def test_linear_function(self):
        lin = TestFunction("lin", lambda x: 2.0 * x,
                           lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)))
        report = verify(lin, Interval(1, 2), Params(alpha=1.0, m=1.0, q=1.0), "bop_am",
                        gate=False)
        assert report.lhs <= 1e-12
        assert report.holds


class TestWeightedPowerMeanBound:
    def test_worked_value(self):
        report = verify(POW2, Interval(1, 2), Params(lam=2.0, mu=1.0), "thm11", gate=False)
        assert math.isclose(report.rhs, 61.0 / 81.0, abs_tol=1e-12)
        assert math.isclose(report.lhs, 1.0 / 3.0, abs_tol=1e-12)
        assert report.holds
        assert math.isclose(report.branches["branch1"], report.branches["branch2"],
                            rel_tol=1e-14)

    def test_reduces_to_equal_weight_form(self):
        r1 = verify(POW2, Interval(1, 2), Params(lam=1.0, mu=1.0), "thm11", gate=False)
        r2 = verify(POW2, Interval(1, 2), Params(alpha=1.0, m=1.0, q=1.0), "bop_am",
                    gate=False)
        assert math.isclose(r1.rhs, r2.rhs, rel_tol=1e-12)
        assert math.isclose(r1.rhs, 0.75, rel_tol=1e-14)

    def test_reduces_to_endpoint_slope_form(self):
        r1 = verify(POW2, Interval(1, 2), Params(lam=3.0, mu=3.0), "thm11", gate=False)
        r2 = verify(POW2, Interval(1, 2), Params(), "da", gate=False)
        assert math.isclose(r1.rhs, r2.rhs, rel_tol=1e-12)
        assert math.isclose(r1.rhs, 0.75, rel_tol=1e-14)

    def test_q1_prefactor_is_one(self):
        # at q = 1 the power-mean prefactor drops out entirely
        rhs, branches = thm11_rhs(POW2, Interval(1, 2), Params(lam=2.0, mu=1.0, q=1.0))
        assert math.isclose(rhs, min(branches.values()) / 3.0, rel_tol=1e-15)


class TestHoelderSplitBound:
    def test_symmetric_weights(self):
        report = verify(POW2, Interval(1, 2), Params(q=2.0), "thm211", gate=False)
        expected = 0.25 * math.sqrt(1.0 / 3.0) * (math.sqrt(6.5) + math.sqrt(12.5))
        assert math.isclose(report.rhs, expected, rel_tol=1e-14)
        assert report.holds

    def test_matches_m_convex_tight_bound(self):
        r1 = verify(POW2, Interval(1, 2), Params(q=2.0), "thm211", gate=False)
        r2 = verify(POW2, Interval(1, 2), Params(m=1.0, q=2.0), "bop_m", gate=False)
        assert math.isclose(r1.rhs, r2.rhs, rel_tol=1e-12)

    def test_asymmetric_weights(self):
        report = verify(POW2, Interval(1, 2), Params(lam=2.0, mu=1.0, q=2.0), "thm211",
                        gate=False)
        expected = (1.0 / 9.0) * math.sqrt(1.0 / 3.0) * (
            4.0 * math.sqrt(68.0 / 9.0) + math.sqrt(122.0 / 9.0))
        assert math.isclose(report.rhs, expected, rel_tol=1e-14)

    def test_q1_rejected(self):
        with pytest.raises(ParamError):
            verify(POW2, Interval(1, 2), Params(q=1.0), "thm211", gate=False)


class TestGlobalHoelderBound:
    def test_symmetric_unit_case(self):
        report = verify(POW2, Interval(1, 2), Params(q=2.0), "thm22", gate=False)
        # (1/2) * (1/3)^(1/2) * (1/2)^(1/2) * sqrt(20)
        assert math.isclose(report.rhs, math.sqrt(5.0 / 6.0), abs_tol=1e-12)
        assert report.holds

    def test_equal_weight_closed_form(self):
        p = Params(lam=2.0, mu=2.0, q=2.0)
        report = verify(POW2, Interval(1, 2), p, "thm22", gate=False)
        conj = p.p
        expected = (0.5 * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                    * (0.5) ** (1.0 / p.q) * 20.0 ** (1.0 / p.q))
        assert math.isclose(report.rhs, expected, rel_tol=1e-12)

    def test_q1_rejected(self):
        with pytest.raises(ParamError):
            verify(POW2, Interval(1, 2), Params(q=1.0), "thm22", gate=False)


class TestVerify:
    def test_dispatch_and_holds(self):
        report = verify(POW2, Interval(1, 2), Params(lam=2.0, mu=1.0), "thm11")
        assert report.holds
        assert math.isclose(report.slack, 61.0 / 81.0 - 1.0 / 3.0, abs_tol=1e-9)

    def test_da_dispatch(self):
        report = verify(POW2, Interval(0, 1), Params(), "da")
        assert report.holds and math.isclose(report.rhs, 0.25)

    def test_constant_function_trivially_holds(self):
        for theorem in ("da", "bop_am", "thm11"):
            report = verify(CONST, Interval(1, 2), Params(), theorem)
            assert report.lhs <= 1e-12 and report.holds

    def test_gate_failure_raises_with_witness(self):
        # e^(qx) is not (1, 0.5)-convex near 0
        with pytest.raises(GateError) as err:
            verify(EXP, Interval(0, 1), Params(m=0.5), "bop_am")
        assert err.value.witness is not None
        assert err.value.worst_violation > 1e-9

    def test_q1_rejected_before_gate(self):
        # thm22 needs q > 1; that is reported even where its gate would fail
        with pytest.raises(ParamError):
            verify(EXP, Interval(0, 1), Params(m=0.5), "thm22")

    def test_underflowed_weights_raise_param_error(self):
        # lam^2 underflows, so half_weight is too small for gamma2 = half_weight - gamma1
        with pytest.raises(ParamError, match="gamma2 must be nonnegative"):
            verify(POW2, Interval(1, 2), Params(0.5, 0.25, 1e-170, 1e-170, 2.0), "thm11")

    def test_q_rule_outcome_is_shared_within_a_group(self):
        cells = [(1.0, 1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 2.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1.0, 2.0)]
        cols = bounds.assess_group(POW2, 1.0, 2.0, bounds.admit(cells, ["thm22", "da"]))
        assert cols.plain().status == ["not_applicable", "ok"] * 2 + ["ok", "ok"]
        assert cols.error[0] is cols.error[2]
        assert isinstance(cols.error[0], ParamError)
        assert str(cols.error[0]) == "thm22 needs q > 1"

    def test_a_group_admits_its_parameters_as_columns(self, monkeypatch):
        # Params runs once on the columns, each cell keeping its first failing
        # rule: not once per tuple, nor again on the cells an RHS call takes
        sizes, check = [], Params.__post_init__
        monkeypatch.setattr(Params, "__post_init__",
                            lambda p: sizes.append(np.size(p.q)) or check(p))
        cells = [(alpha, 1.0, lam, mu, 2.0) for alpha in (0.5, 1.0, 2.0) for lam in (0.0, 1.0)
                 for mu in (0.0, 1.0)]
        cols = bounds.assess_group(POW2, 1.0, 2.0, bounds.admit(cells, ["da"]), gate_of=None)
        assert sizes == [12]
        assert [str(e) if e else s for e, s in zip(cols.error, cols.plain().status)] == [
            "weights must satisfy lam + mu > 0", "ok", "ok", "ok"] * 2 + [
            "alpha must lie in (0, 1], got 2.0"] * 4

    def test_each_rhs_runs_once_on_the_cells_that_reach_it(self, monkeypatch):
        seen = []

        def counting(fn, iv, p):
            seen.append(len(p.q))
            return thm11_rhs(fn, iv, p)

        monkeypatch.setattr(bounds, "thm11_rhs", counting)
        cells = [(1.0, 1.0, lam, 1.0, q) for lam in (0.0, 1.0, 2.0) for q in (1.0, 2.0)]
        cells.append((1.0, 1.0, 0.0, 0.0, 2.0))  # lam + mu = 0: input error, no RHS
        cols = bounds.assess_group(POW2, 1.0, 2.0, bounds.admit(cells, ["thm11", "da"]),
                                   gate_of=None)
        assert seen == [6]
        assert cols.plain().status == ["ok"] * 12 + ["input_error"] * 2
        # lambda = 1e308 overflows in thm11 and thm22 beside ordinary cells: still
        # one call per (group, theorem), 14 on the two groups
        calls = Counter()
        for tid in bounds.THEOREM_IDS:
            monkeypatch.setattr(bounds, f"{tid}_rhs", lambda *args, tid=tid, rhs=getattr(
                bounds, f"{tid}_rhs"): calls.update([tid]) or rhs(*args))
        spec = cli.parse_sweep_file(str(OVERFLOW_SPEC))
        with contextlib.redirect_stderr(io.StringIO()):
            assert sum(len(table.order) for table in cli.run_sweep(spec)) == 70560
        assert calls == {tid: 2 for tid in bounds.THEOREM_IDS}

    def test_a_cell_keeps_the_error_of_its_point_call(self):
        # each cell's error is the one its one-cell verify names.  pown2 on [1, 1e200]
        # at alpha = 1e-100: at lambda = 5 gamma2 = -4.4e-16 passes as a rounded 0 and
        # |f'(b)|^2 underflows, so thm11's smaller branch is negative and its power
        # 1/q NaN; lambda = 1e308 overflows; lambda = 1e-200 underflows thm22's
        # kernel; lambda = 1 fails nothing
        fn, iv = corpus_by_id()["pown2"], Interval(1.0, 1e200)
        cells = [(1e-100, 1.0, lam, mu, 2.0) for lam, mu in ((5.0, 1.0), (1.0, 1.0),
                                                             (1e308, 1.0), (1e-200, 0.0))]
        cols = bounds.assess_group(fn, iv.a, iv.b, bounds.admit(cells, ["thm11", "thm22"]),
                                   gate_of=None)
        row = cols.plain()
        for (cell, tid), status, error, rhs in zip(itertools.product(cells, ["thm11", "thm22"]),
                                                   row.status, cols.error, row.rhs):
            try:
                report = verify(fn, iv, Params(*cell), tid, gate=False)
            except (ParamError, DomainError, ArithmeticError) as exc:
                assert (status, type(error), str(error)) == ("input_error", type(exc), str(exc))
                assert rhs is None
            else:
                assert error is None and rhs == report.rhs
        assert [str(e) for e in cols.error] == [
            "thm11 rhs is not finite: nan", "None", "None", "None",
            "coefficient gamma1 is not finite: inf", "thm22 rhs is not finite: nan",
            "coefficient gamma1 must be nonnegative, got -5e-201",
            "thm22 kernel underflows to 0 at lambda = 1e-200, mu = 0.0"]

    def test_gate_runs_once_per_group(self):
        # the group's distinct hypotheses (g, alpha, m, q) share one call, in cell
        # order; each cell gets the verdict of its hypothesis checked alone
        seen = []

        def gate_of(*args):
            seen.append(args[1:3])
            return check_hypotheses(*args)

        cells = [(alpha, 1.0, lam, 1.0, 2.0) for alpha in (0.5, 1.0) for lam in (1.0, 2.0)]
        theorems = ["thm11", "bop_am", "da", "sso"]
        cols = bounds.assess_group(POW2, 1.0, 2.0, bounds.admit(cells, theorems),
                                   gate_of=gate_of)
        assert seen == [(2.0, [("df", 0.5, 1.0, 2.0), ("df", 1.0, 1.0, 1.0), ("f", 0.5, 1.0, 1.0),
                               ("df", 1.0, 1.0, 2.0), ("f", 1.0, 1.0, 1.0)])]
        for (cell, theorem), verdict in zip(itertools.product(cells, theorems), cols.verdict):
            g, alpha, m, q = bounds.THEOREMS[theorem].hypothesis(Params(*cell))
            func = POW2.f if g == "f" else derivative_power(POW2, q)
            assert verdict == check_alpha_m_convex(func, 2.0, [alpha], m, 16)[0]

    def test_a_failing_factor_fails_only_its_cell(self):
        # |f'|^3 = e^900 overflows to inf on [1, 300]; at q = 2 it does not
        cells = [(1.0, 1.0, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, 1.0, 3.0)]
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError) as err:
            cols = bounds.assess_group(EXP, 1.0, 300.0, bounds.admit(cells, ["bop_m"]),
                                       gate_of=None)
            verify(EXP, Interval(1.0, 300.0), Params(q=3.0), "bop_m", gate=False)
        assert cols.plain().status == ["ok", "input_error"]
        assert cols.plain().rhs[1] is None and cols.error[0] is None
        assert str(err.value) == str(cols.error[1]) == "coefficient mu2 is not finite: inf"

    @pytest.mark.parametrize("theorem, error", [("thm11", NonFiniteError),
                                                ("thm22", ParamError)])
    def test_an_underflowed_weight_fails_only_its_cell(self, theorem, error):
        # at lambda = 1e-200, mu = 0 thm11 divides 0 by an underflowed power (gamma1
        # is NaN) and thm22's kernel underflows to 0; the lambda = 1 cell keeps the
        # bits of its one-cell call
        cells = [(1.0, 1.0, 1e-200, 0.0, 2.0), (1.0, 1.0, 1.0, 0.0, 2.0)]
        cols = bounds.assess_group(POW2, 1.0, 2.0, bounds.admit(cells, [theorem]))
        row = cols.plain()
        assert row.status == ["input_error", "ok"]
        assert type(cols.error[0]) is error and cols.error[1] is None
        report = verify(POW2, Interval(1.0, 2.0), Params(lam=1.0, mu=0.0, q=2.0), theorem)
        assert (row.rhs[1], row.slack[1], row.branch1[1], row.branch2[1]) == (
            report.rhs, report.slack, *report.branches.values())
        with pytest.raises(error):
            verify(POW2, Interval(1.0, 2.0), Params(lam=1e-200, mu=0.0, q=2.0), theorem)

    def test_branches_are_python_floats(self):
        # exp samples |f'|^q as numpy scalars; the report holds Python floats
        for theorem in ("sso", "bop_m", "thm22"):
            report = verify(EXP, Interval(1, 2), Params(q=2.0), theorem, gate=False)
            assert report.branches
            assert all(type(v) is float for v in report.branches.values()), theorem

    def test_unknown_theorem(self):
        with pytest.raises(ParamError):
            verify(POW2, Interval(0, 1), Params(), "nope")

    @pytest.mark.parametrize("theorem", bounds.THEOREM_IDS)
    def test_calls_the_module_rhs_once(self, theorem, monkeypatch):
        # the path looks up bounds.<id>_rhs on each call, so a replacement
        # (a tracer, say) sees every evaluation
        original = getattr(bounds, f"{theorem}_rhs")
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bounds, f"{theorem}_rhs", counting)
        verify(POW2, Interval(1, 2), Params(q=2.0), theorem, gate=False)
        assert len(calls) == 1

    def test_gate_runs_on_the_fixed_grid(self):
        seen = []

        def gate_of(*args):
            seen.append(args[-1])
            return check_hypotheses(*args)

        cols = bounds.assess_group(POW2, 1.0, 2.0,
                                   bounds.admit([(1.0, 1.0, 1.0, 1.0, 2.0)], ["thm11"]),
                                   gate_of=gate_of)
        assert cols.plain().status == ["ok"]
        assert cols.verdict.tolist() == list(check_alpha_m_convex(
            derivative_power(POW2, 2.0), 2.0, [1.0], 1.0, 16))
        assert seen == [bounds.GATE_GRID_N] == [16]

    def test_swap_symmetry_sample(self):
        iv = Interval(1.0, 2.0)
        p = Params(alpha=0.75, m=1.0, lam=2.0, mu=0.5, q=2.0)
        swapped = Params(alpha=0.75, m=1.0, lam=0.5, mu=2.0, q=2.0)
        rhs_orig, _ = thm11_rhs(POW2, iv, p)
        rhs_reflected, _ = thm11_rhs(reflect(POW2, iv), iv, swapped)
        assert math.isclose(rhs_orig, rhs_reflected, rel_tol=1e-12)


_st = hypothesis.strategies
_UNIT = _st.floats(0.0, 1.0, exclude_min=True)
_WEIGHTS = _st.one_of(_st.sampled_from([0.0, 1e-200, 1.0, 1e308]), _st.floats(0.0, 1e308))


@hypothesis.given(fn_id=_st.sampled_from(sorted(corpus_by_id())), a=_st.floats(0.0, 10.0),
                  width=_st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e), alpha=_UNIT,
                  m=_UNIT, lam=_WEIGHTS, mu=_WEIGHTS, q=_st.floats(1.0, 60.0))
@hypothesis.settings(max_examples=150, deadline=None, database=None)
@pytest.mark.filterwarnings("error")
def test_a_point_raises_only_the_rules_of_its_bound(fn_id, a, width, alpha, m, lam, mu, q):
    # every bound computes in float64, b up to 1e300: out of float range a value is
    # inf or NaN, which a rule names, never Python's OverflowError or
    # ZeroDivisionError, a complex number or a numpy warning
    hypothesis.assume(lam + mu > 0)
    iv = Interval(a, a + width)
    p = Params(alpha=alpha, m=m, lam=lam, mu=mu, q=q)
    for theorem in bounds.THEOREM_IDS:
        try:
            rhs, branches = getattr(bounds, f"{theorem}_rhs")(corpus_by_id()[fn_id], iv, p)
        except (ParamError, DomainError, NonFiniteError):
            continue
        assert all(math.isfinite(v) for v in (rhs, *branches.values())), theorem
