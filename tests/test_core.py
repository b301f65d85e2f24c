import math
import sys

import hypothesis
import numpy as np
import pytest

from hhverify import (DomainError, Interval, NonFiniteError, ParamError, Params,
                      TestFunction, corpus_by_id)
from hhverify import bounds
from hhverify.core import eval_points, py_min


class TestInterval:
    def test_valid(self):
        iv = Interval(1.0, 2.0)
        assert iv.width == 1.0

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (2.0, 1.0), (1.0, 1.0)])
    def test_invalid(self, a, b):
        with pytest.raises(ParamError):
            Interval(a, b)

    @pytest.mark.parametrize("a,b", [(0.0, 5e-324), (0.0, 2.5e-310), (1e-308, 1.5e-308)])
    def test_subnormal_width_rejected(self, a, b):
        # the integral of exp over [0, 5e-324] is 0.0, so its mean read 0
        with pytest.raises(ParamError) as info:
            Interval(a, b)
        assert str(info.value) == f"interval width must be a normal float, got [{a}, {b}]"
        assert Interval(a, a + sys.float_info.min).width == sys.float_info.min


class TestParams:
    def test_defaults_valid(self):
        p = Params()
        assert p.alpha == p.m == p.lam == p.mu == p.q == 1.0

    def test_conjugate(self):
        assert Params(q=2.0).p == 2.0
        assert math.isclose(Params(q=3.0).p, 1.5)

    def test_conjugate_rejected_at_q1(self):
        with pytest.raises(ParamError):
            Params(q=1.0).p

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=0.0), dict(alpha=1.5), dict(m=0.0), dict(m=2.0),
        dict(lam=-1.0), dict(lam=0.0, mu=0.0), dict(q=0.5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParamError):
            Params(**kwargs)

    @pytest.mark.parametrize("kwargs", [dict(alpha=np.array([]), m=math.nan),
                                        dict(q=np.array([]), lam=0.0, mu=0.0)])
    def test_zero_cells_have_no_failing_cell(self, kwargs):
        # a scalar field that fails a rule beside an empty column raised IndexError
        assert np.broadcast(*vars(Params(**kwargs)).values()).size == 0


# The admissible set's rules in the order a point checks them, each known by
# the start of its message.
_RULES = ("alpha must be finite", "m must be finite", "lam must be finite", "mu must be finite",
          "q must be finite", "alpha must lie in", "m must lie in", "weights must be nonnegative",
          "weights must satisfy", "q must satisfy")
_VALUES = [0.0, -0.0, 0.5, -0.5, 1.0, 2.0, 1e308, 5e-324, math.nan, math.inf, -math.inf]
_st = hypothesis.strategies


def _point_error(cell):
    try:
        Params(*cell)
    except ParamError as exc:
        return str(exc)
    return None


@hypothesis.given(_st.lists(_st.tuples(*[_st.sampled_from(_VALUES)] * 5), min_size=1,
                            max_size=6))
@hypothesis.example([(1.0, 1.0, 0.0, 0.0, 1.0), (2.0, 1.0, 1.0, 1.0, 1.0),
                     (0.5, 0.5, 0.0, 0.0, 2.0), (3.0, 1.0, 1.0, 1.0, 1.0)])
@hypothesis.settings(max_examples=300, deadline=None, database=None)
def test_columns_follow_the_rules_of_a_point(cells):
    # one rule list: columns do not raise; each failing cell's error is the one
    # its point raises (its first failing rule), and ``checked`` raises the error
    # of the first rule any cell fails, at the first cell that fails it
    points = [_point_error(cell) for cell in cells]
    p = Params(*np.array(cells).T)
    assert {i: (type(e), str(e)) for i, e in p.errors.items()} == {
        i: (ParamError, e) for i, e in enumerate(points) if e}
    rule = [next(i for i, r in enumerate(_RULES) if e.startswith(r)) if e else len(_RULES)
            for e in points]
    if any(points):
        with pytest.raises(ParamError) as info:
            p.checked()
        assert str(info.value) == points[rule.index(min(rule))]
    else:
        assert p.checked() is p
    # a group's rejected cell gets the error its point raises
    cols = bounds.assess_group(corpus_by_id()["pow2"], 1.0, 2.0,
                               bounds.admit(cells, ["da", "thm11"]), gate_of=None)
    for point, error, status in zip([p for p in points for _ in range(2)], cols.error,
                                    cols.plain().status):
        if point is not None:
            assert (status, str(error)) == ("input_error", point)


class TestValidateParams:
    """A cell's input checks as ``bounds.admit`` and ``bounds.assess_group`` run them:
    Params, then the function's domain at a (``TestFunction.require``)."""

    @staticmethod
    def cell(fn_id, a, b, alpha=1.0, m=1.0, lam=1.0, mu=1.0, q=1.0):
        cols = bounds.assess_group(corpus_by_id()[fn_id], a, b,
                                   bounds.admit([(alpha, m, lam, mu, q)], ["da"]), gate_of=None)
        return cols.plain().status[0], cols.error[0]

    def test_interior_config_accepted(self):
        for x in (1.0, 2.0):
            corpus_by_id()["pow2"].require(x)
        assert self.cell("pow2", 1, 2) == ("ok", None)

    def test_stretched_domain_accepted(self):
        # m = 0.5 needs the derivative at b/m = 4; 1/x covers it.
        for x in (1.0, 4.0):
            corpus_by_id()["recip"].require(x)
        assert self.cell("recip", 1, 2, m=0.5) == ("ok", None)

    def test_zero_weights_rejected(self):
        with pytest.raises(ParamError):
            Params(lam=0.0, mu=0.0)
        status, error = self.cell("pow2", 1, 2, lam=0.0, mu=0.0)
        assert status == "input_error" and isinstance(error, ParamError)

    def test_singular_function_rejected_at_zero(self):
        with pytest.raises(DomainError):
            corpus_by_id()["recip"].require(0.0)
        status, error = self.cell("recip", 0, 1)
        assert status == "not_applicable" and isinstance(error, DomainError)


class TestEvalPoints:
    def test_array_function_is_called_once_on_the_whole_array(self):
        calls = []
        x = np.linspace(1.0, 2.0, 6).reshape(2, 3)
        y = eval_points(lambda v: calls.append(v) or np.log(v), x)
        assert len(calls) == 1 and np.array_equal(y, np.log(x))

    @pytest.mark.parametrize("f", [math.log, lambda v: 1.0 if v else 0.0, lambda v: 5.0])
    def test_scalar_fallback_keeps_the_shape(self, f):
        x = np.linspace(1.0, 2.0, 6).reshape(2, 3)
        y = eval_points(f, x)
        assert y.shape == (2, 3)
        assert y.tolist() == [[f(v) for v in row] for row in x]


class TestCorpus:
    def test_required_members_present(self):
        ids = set(corpus_by_id())
        assert {"pow2", "pow3", "pow4", "pown2", "recip", "exp", "xlogx"} <= ids
        assert len(ids) == 8

    def test_built_once(self):
        assert corpus_by_id()["pow2"] is corpus_by_id()["pow2"]
        assert corpus_by_id() is corpus_by_id()

    def test_pow2_entry(self):
        fn = corpus_by_id()["pow2"]
        assert fn.f(3.0) == 9.0 and fn.df(3.0) == 6.0 and fn.domain_min <= 0.0

    def test_recip_entry(self):
        fn = corpus_by_id()["recip"]
        assert fn.f(2.0) == 0.5 and fn.df(2.0) == -0.25 and fn.domain_min > 0.0

    def test_pow3_entry(self):
        fn = corpus_by_id()["pow3"]
        assert fn.f(2.0) == 8.0 and fn.df(2.0) == 12.0

    @pytest.mark.parametrize("fn", corpus_by_id().values(), ids=lambda f: f.id)
    def test_derivative_matches_finite_difference(self, fn):
        rng = np.random.default_rng(20240817)
        lo = max(fn.domain_min, 0.05)
        xs = rng.uniform(lo + 0.01, 10.0, size=64)
        for x in xs:
            h = 1e-6 * max(1.0, abs(x))
            approx = (fn.f(x + h) - fn.f(x - h)) / (2.0 * h)
            exact = fn.df(x)
            assert math.isclose(approx, exact, rel_tol=1e-6, abs_tol=1e-9)

    @pytest.mark.parametrize("fn", corpus_by_id().values(), ids=lambda f: f.id)
    def test_finite_on_declared_domain(self, fn):
        xs = np.linspace(max(fn.domain_min, 1e-6), 20.0, 50)
        assert np.all(np.isfinite([fn.f(x) for x in xs]))
        assert np.all(np.isfinite([fn.df(x) for x in xs]))


def test_validate_params_is_total():
    # Every input gets a status from the cell's checks, never a crash.
    for fn in corpus_by_id().values():
        for m in (0.3, 1.0):
            for a, b in ((0.0, 1.0), (1.0, 2.0)):
                status, error = TestValidateParams.cell(fn.id, a, b, m=m)
                covered = a >= fn.domain_min
                assert (status, type(error)) == (("ok", type(None)) if covered
                                                 else ("not_applicable", DomainError))


class TestPerCellArithmetic:
    def test_power_is_pythons_where_np_power_differs(self):
        # numpy's array power can take a SIMD path that differs from libm's pow
        # in the last bit; the bounds call np.float_power, libm's pow, which is
        # Python's ** on every pair, those where np.power differs among them
        rng = np.random.default_rng(7)
        x, q = rng.uniform(0.0, 50.0, 60_000), rng.uniform(0.05, 6.0, 60_000)
        python = np.array([a ** b for a, b in zip(x.tolist(), q.tolist())])
        assert np.float_power(x, q).tolist() == python.tolist()
        differ = np.power(x, q) != python
        if not differ.any():
            pytest.skip("np.power agrees with Python's ** on every sampled pair here")
        got = np.float_power(x[differ][0], q[differ][0])
        assert got == python[differ][0]

    def test_out_of_range_is_non_finite_at_a_point(self):
        # a point computes in float64 as a column does: out of float range a value
        # is inf, or NaN for a negative base under a fractional power, never
        # Python's OverflowError or a complex number, and a point raises its rule
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(np.float_power(np.array([2.0, 1e200, -1.0]), [2.0, 2.0, 0.5]).tolist()
                        ) == "[4.0, inf, nan]"
        with pytest.raises(NonFiniteError, match="^thm22 K1 is not finite: inf$"):
            bounds.thm22_rhs(corpus_by_id()["pow2"], Interval(1.0, 1e200), Params(q=2.0))
        with pytest.raises(NonFiniteError, match="^thm11 rhs is not finite: nan$"):
            bounds.thm11_rhs(corpus_by_id()["pown2"], Interval(1.0, 1e200),
                             Params(alpha=1e-100, lam=5.0, mu=1.0, q=2.0))

    def test_min_is_pythons(self):
        # min(x, y) keeps x unless y < x: NaN and signed zeros follow suit
        x = np.array([math.nan, 1.0, 0.0, -0.0, 2.0])
        y = np.array([1.0, math.nan, -0.0, 0.0, 1.0])
        got = py_min(x, y)
        expect = [min(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert [repr(v) for v in got.tolist()] == [repr(v) for v in expect]
