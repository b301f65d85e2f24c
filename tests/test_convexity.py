import math

import hypothesis
import numpy as np
import pytest

from hhverify import (NonFiniteError, ParamError, check_alpha_m_convex, check_hypotheses,
                      corpus_by_id, derivative_power)
from hhverify.convexity import GRID_N


class TestCheckAlphaMConvex:
    def test_square_is_convex(self):
        (verdict,) = check_alpha_m_convex(lambda x: x ** 2, 2.0, [1.0], 1.0)
        assert verdict.holds
        assert verdict.worst_violation <= 1e-9

    def test_constant_fails_for_m_below_one(self):
        # at t=0, x=y: g(my) = 1 must not exceed m*g(y) = m < 1
        (verdict,) = check_alpha_m_convex(lambda x: np.ones_like(np.asarray(x, dtype=float)),
                                          1.0, [1.0], 0.5)
        assert not verdict.holds
        assert verdict.worst_violation >= 0.5 - 1e-12

    def test_linear_has_no_positive_violation(self):
        (verdict,) = check_alpha_m_convex(lambda x: np.asarray(x, dtype=float),
                                          1.0, [1.0], 1.0)
        assert verdict.holds
        assert verdict.worst_violation <= 1e-12

    @pytest.mark.parametrize("s", [1.0, 1.5, 2.0, 3.0])
    def test_power_functions_convex(self, s):
        for b in (0.5, 1.0, 4.0):
            (verdict,) = check_alpha_m_convex(lambda x: np.asarray(x, dtype=float) ** s,
                                              b, [1.0], 1.0)
            assert verdict.holds

    def test_alpha_below_one_is_a_genuinely_stronger_class(self):
        # x^2 is convex but not (0.5, 1)-convex: at x = 0, t = 0.25 the
        # condition needs (1 - t)^2 <= 1 - sqrt(t), which fails
        g = lambda x: np.asarray(x, dtype=float) ** 2
        assert check_alpha_m_convex(g, 2.0, [1.0], 1.0)[0].holds
        assert not check_alpha_m_convex(g, 2.0, [0.5], 1.0)[0].holds

    def test_singular_function_is_clipped(self):
        g = derivative_power(corpus_by_id()["recip"], 1.0)
        (verdict,) = check_alpha_m_convex(g, 2.0, [1.0], 1.0)
        assert verdict.clipped
        assert verdict.holds  # 1/x^2 is convex on (0, inf)

    def test_witness_in_sampled_ranges(self):
        (verdict,) = check_alpha_m_convex(lambda x: np.exp(np.asarray(x, dtype=float)),
                                          3.0, [1.0], 0.5)
        x, y, t = verdict.witness
        assert 0 <= x <= 3 and 0 <= y <= 3 and 0 <= t <= 1

    def test_the_grid_is_fixed(self):
        # every call samples the gate's one grid, GRID_N + 1 points per axis
        assert GRID_N == 16
        with pytest.raises(TypeError):
            check_alpha_m_convex(lambda x: x ** 2, 1.0, [1.0], 1.0, grid_n=16)
        with pytest.raises(TypeError):
            check_hypotheses(corpus_by_id()["pow2"], 1.0, [("df", 1.0, 1.0, 1.0)], grid_n=16)

    @pytest.mark.parametrize("b", [math.inf, math.nan, -math.inf, 0.0])
    def test_non_finite_or_nonpositive_upper_bound_rejected(self, b):
        # a ParamError, not a NonFiniteError at x=nan from the grid
        with pytest.raises(ParamError, match="b must be positive and finite"):
            check_alpha_m_convex(lambda x: x * x, b, [1.0], 1.0)

    @pytest.mark.parametrize("alphas, m, message", [
        ([0.0], 1.0, r"alpha must lie in \(0, 1\], got 0.0$"),
        ([1.0], 1.5, r"m must lie in \(0, 1\], got 1.5$"),
        ([math.nan], 1.0, "alpha must be finite, got nan$"),
        ([0], 1.0, r"alpha must lie in \(0, 1\], got 0$"),
        ([1.0, 0.0], 1.0, r"alpha must lie in \(0, 1\], got 0.0$"),
        # the list is one column: the first rule any alpha fails names its alpha
        ([2.0, math.nan], 1.0, "alpha must be finite, got nan$"),
    ], ids=["alpha_zero", "m_above_one", "alpha_nan", "alpha_int_zero", "second_alpha_zero",
            "two_bad_alphas"])
    def test_alpha_and_m_are_checked_as_params(self, alphas, m, message):
        with pytest.raises(ParamError, match=message):
            check_alpha_m_convex(lambda x: x * x, 1.0, alphas, m)


def _verdicts_or_message(g, b, alphas, m):
    """Each verdict's bits as text, or the NonFiniteError's message."""
    try:
        return [(v.holds, v.clipped, repr(v.worst_violation), *map(repr, v.witness))
                for v in check_alpha_m_convex(g, b, alphas, m)]
    except NonFiniteError as exc:
        return str(exc)


_st = hypothesis.strategies
_alpha = _st.one_of(_st.sampled_from([1.0, 0.5, 1e-3, 0.25]), _st.floats(1e-3, 1.0))


# Every alpha sharing one sample grid gets the bits it gets alone, and a g
# that leaves the float range on the grid fails the same way for any alphas.
@hypothesis.given(fn_id=_st.sampled_from(sorted(corpus_by_id())),
                  q=_st.one_of(_st.none(), _st.sampled_from([1.0, 1.5, 2.0, 3.0]),
                               _st.floats(1.0, 60.0)),
                  b=_st.one_of(_st.sampled_from([1.0, 3.0, 1e3]), _st.floats(1e-3, 1e3)),
                  m=_st.one_of(_st.sampled_from([1.0, 0.5, 0.25]), _st.floats(1e-3, 1.0)),
                  alphas=_st.lists(_alpha, min_size=1, max_size=5))
@hypothesis.settings(max_examples=150, deadline=None, database=None)
def test_batched_verdicts_equal_one_alpha_verdicts(fn_id, q, b, m, alphas):
    fn = corpus_by_id()[fn_id]
    g = fn.f if q is None else derivative_power(fn, q)  # None: the f of sso's hypothesis
    batched = _verdicts_or_message(g, b, alphas, m)
    alone = [_verdicts_or_message(g, b, [alpha], m) for alpha in alphas]
    if isinstance(batched, str):
        assert alone == [batched] * len(alphas)
    else:
        assert [[v] for v in batched] == alone


def _result_text(result):
    """A verdict's bits as text, or an ArithmeticError's message."""
    if isinstance(result, ArithmeticError):
        return str(result)
    return (result.holds, result.clipped, repr(result.worst_violation), *map(repr, result.witness))


def _checked_alone(fn, b, g, alpha, m, q):
    """One hypothesis through its own one-grid ``check_alpha_m_convex`` call."""
    if max(b, b / m) == math.inf:
        return f"gate grid end b / m is not finite: {b} / {m}"
    func = fn.f if g == "f" else derivative_power(fn, q)
    try:
        return _result_text(check_alpha_m_convex(func, max(b, b / m), [alpha], m)[0])
    except ArithmeticError as exc:
        return _result_text(exc)


# One group call gives every hypothesis the bits (or the error text) of its
# own one-grid call: b / m may leave the float range (m = 5e-324), |f'|^q may
# overflow (q up to 60), and the hypotheses come in any order.
@hypothesis.given(fn_id=_st.sampled_from(sorted(corpus_by_id())),
                  b=_st.one_of(_st.sampled_from([1.0, 3.0, 1e3]), _st.floats(1e-3, 1e3)),
                  ms=_st.lists(_st.one_of(_st.sampled_from([1.0, 0.5, 0.25, 5e-324]),
                                          _st.floats(1e-3, 1.0)), min_size=1, max_size=3),
                  qs=_st.lists(_st.one_of(_st.sampled_from([1.0, 1.5, 2.0, 3.0, 60.0]),
                                          _st.floats(1.0, 60.0)), min_size=1, max_size=3),
                  alphas=_st.lists(_alpha, min_size=1, max_size=4), data=_st.data())
@hypothesis.settings(max_examples=100, deadline=None, database=None)
def test_group_verdicts_equal_one_grid_verdicts(fn_id, b, ms, qs, alphas, data):
    fn = corpus_by_id()[fn_id]
    hyps = [("f", alpha, m, 1.0) for m in ms for alpha in alphas]
    hyps += [("df", alpha, m, q) for m in ms for q in qs for alpha in alphas]
    hyps = data.draw(_st.permutations(hyps))
    assert ([_result_text(r) for r in check_hypotheses(fn, b, hyps)]
            == [_checked_alone(fn, b, *hyp) for hyp in hyps])


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
