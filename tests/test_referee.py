"""The closed-form right sides restated in mpmath at 50 digits.

Each bound's RHS, with its gamma, nu, mu, M and K factors, is written here a
second time from the paper's displays, in mpmath, and evaluated from a cell's
exact binary inputs (every float is an exact mpf, a / m and z included).  Every
cell the sweep path computes a finite value for must match it to 1e-12 relative
(or be the double nearest the exact value, 0.0 below the double range), its rhs
and each branch alike: on a Hypothesis property over the corpus, and on every ok
row of ``tests/data/gate.spec``.

The property draws alpha from [1e-3, 1], m from [1e-300, 1] and a nonzero weight
from [1e-3, 8]: outside, the doubles lose that accuracy, as the strict xfail
tests pin.
- nu2 (a difference of terms near 1) and gamma2 / gamma4 (half_weight minus
  gamma1 / gamma3) are O(alpha) and cancel, so a branch that one of them
  weights carries a relative error of about 1e-16 / alpha.
- A weight below about 1e-100 puts lambda^(alpha+2) (gamma) or lambda^(p+1)
  (the thm22 kernel) among the subnormals, whose few digits reach the rhs.
- At m below about 3e-308, b / m overflows to inf, so m * |f'(b / m)|^q is inf
  where its exact value is small, and a min takes its other side.
  (With the gate on, such a cell is an input error: its grid end b / m is
  not finite.)
"""

import itertools
import math
import pathlib

import hypothesis
import pytest

from hhverify import bounds, cli, corpus_by_id

mpmath = pytest.importorskip("mpmath")

GATE_SPEC = pathlib.Path(__file__).parent / "data" / "gate.spec"
REL_TOL = 1e-12

# f and f' of each corpus function, in mpmath
F = {
    "pow2": (lambda x: x ** 2, lambda x: 2 * x),
    "pow3": (lambda x: x ** 3, lambda x: 3 * x ** 2),
    "pow4": (lambda x: x ** 4, lambda x: 4 * x ** 3),
    "pown2": (lambda x: x ** -2, lambda x: -2 * x ** -3),
    "recip": (lambda x: 1 / x, lambda x: -1 / x ** 2),
    "exp": (mpmath.exp, mpmath.exp),
    "xlogx": (lambda x: x * mpmath.log(x), lambda x: mpmath.log(x) + 1),
    "sinh": (mpmath.sinh, mpmath.cosh),
}

# the row columns branch1, branch2 and rhs_loose of each theorem's branches
ROW_BRANCHES = {"da": (), "bop_m": ("mu1", "mu2", "loose"), "thm211": ("M1", "M2"),
                "thm22": ("K1", "K2")}


def referee(fn_id, a, b, alpha, m, lam, mu, q, theorem):
    """(rhs, branches) of ``theorem`` at one cell, at 50 digits."""
    f, df = F[fn_id]
    a, b, alpha, m, lam, mu, q = map(mpmath.mpf, (a, b, alpha, m, lam, mu, q))
    d = lambda x: abs(df(x)) ** q  # noqa: E731
    width, total = b - a, lam + mu
    if theorem == "da":
        return width / 8 * (abs(df(a)) + abs(df(b))), {}
    if theorem == "sso":
        b1 = (f(a) + alpha * m * f(b / m)) / (alpha + 1)
        b2 = (f(b) + alpha * m * f(a / m)) / (alpha + 1)
        return min(b1, b2), {"branch1": b1, "branch2": b2}
    if theorem == "bop_m":
        mid = (a + b) / 2
        mu1 = min((d(a) + m * d(mid / m)) / 2, (d(mid) + m * d(a / m)) / 2)
        mu2 = min((d(b) + m * d(mid / m)) / 2, (d(mid) + m * d(b / m)) / 2)
        loose = width / 4 * (mu1 ** (1 / q) + mu2 ** (1 / q))
        return loose * ((q - 1) / (2 * q - 1)) ** ((q - 1) / q), {
            "mu1": mu1, "mu2": mu2, "loose": loose}
    if theorem == "bop_am":
        denom = (alpha + 1) * (alpha + 2)
        nu1 = (alpha + 2 ** -alpha) / denom
        nu2 = ((alpha ** 2 + alpha + 2) / 2 - 2 ** -alpha) / denom
        b1 = (nu1 * d(a) + m * nu2 * d(b / m)) ** (1 / q)
        b2 = (nu1 * d(b) + m * nu2 * d(a / m)) ** (1 / q)
        return width / 2 * mpmath.mpf(0.5) ** (1 - 1 / q) * min(b1, b2), {
            "branch1": b1, "branch2": b2}
    half_weight = (lam ** 2 + mu ** 2) / (2 * total)
    if theorem == "thm11":
        denom = (alpha + 1) * (alpha + 2)
        g1 = (2 * lam ** (alpha + 2) / total ** (alpha + 1) + (alpha + 1) * mu - lam) / denom
        g3 = (2 * mu ** (alpha + 2) / total ** (alpha + 1) + (alpha + 1) * lam - mu) / denom
        g2, g4 = half_weight - g1, half_weight - g3
        b1 = g1 * d(b) + m * g2 * d(a / m)
        b2 = g3 * d(a) + m * g4 * d(b / m)
        return width / total * half_weight ** ((q - 1) / q) * min(b1, b2) ** (1 / q), {
            "branch1": b1, "branch2": b2}
    p = q / (q - 1)
    if theorem == "thm211":
        z = (lam * b + mu * a) / total
        M1 = min((d(a) + alpha * m * d(z / m)) / (alpha + 1),
                 (d(z) + alpha * m * d(a / m)) / (alpha + 1))
        M2 = min((d(b) + alpha * m * d(z / m)) / (alpha + 1),
                 (d(z) + alpha * m * d(b / m)) / (alpha + 1))
        return width / total ** 2 * (1 / (p + 1)) ** (1 / p) * (
            lam ** 2 * M1 ** (1 / q) + mu ** 2 * M2 ** (1 / q)), {"M1": M1, "M2": M2}
    assert theorem == "thm22"
    K1 = d(b) + m * alpha * d(a / m)
    K2 = d(a) + m * alpha * d(b / m)
    kernel = ((lam ** (p + 1) + mu ** (p + 1)) / ((p + 1) * total)) ** (1 / p)
    return width / total * kernel * (1 / (alpha + 1)) ** (1 / q) * min(K1, K2) ** (1 / q), {
        "K1": K1, "K2": K2}


def assert_matches(row: dict) -> None:
    """The rhs and the branches of a row, keyed by ``cli.COLUMNS``, match the referee."""
    cell = [row[c] for c in ("fn", "a", "b", "alpha", "m", "lambda", "mu", "q", "theorem")]
    with mpmath.workdps(50):
        rhs, branches = referee(*cell)
        names = ROW_BRANCHES.get(row["theorem"], ("branch1", "branch2"))
        for column, want in (("rhs", rhs), *zip(("branch1", "branch2", "rhs_loose"),
                                                 map(branches.get, names))):
            got = row[column]  # within REL_TOL, or the double nearest the exact value
            assert abs(got - want) <= REL_TOL * abs(want) or got == float(want), (
                cell, column, got, mpmath.nstr(want, 20))


def group_rows(fn_id, a, b, params, theorems, gate=True):
    """The rows of one (function, interval) group, keyed by ``cli.COLUMNS``, whose
    computed values are all finite (gate=False skips the gate)."""
    cols = bounds.assess_group(corpus_by_id()[fn_id], a, b, bounds.admit(params, theorems),
                               gate_of=bounds.check_hypotheses if gate else None)
    cells = [(1, fn_id, a, b, *p, t) for p, t in itertools.product(params, theorems)]
    return [row for row in (dict(zip(cli.COLUMNS, (*cell, *values)))
                            for cell, *values in zip(cells, *cols.plain()))
            if row["rhs"] is not None and all(
                math.isfinite(row[c]) for c in bounds.FLOAT_COLUMNS if row[c] is not None)]


_st = hypothesis.strategies
_alpha = _st.floats(1e-3, 1.0)
_m = _st.floats(1e-300, 1.0)
_weight = _st.one_of(_st.sampled_from([0.0, 1.0]), _st.floats(1e-3, 8.0))


@hypothesis.given(fn_id=_st.sampled_from(sorted(F)),
                  interval=_st.sampled_from([(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0),
                                             (0.5, 1.5), (1.0, 3.0)]),
                  params=_st.lists(_st.tuples(_alpha, _m, _weight, _weight,
                                              _st.floats(1.0, 6.0)), min_size=1, max_size=4))
@hypothesis.settings(max_examples=300, deadline=None, database=None)
def test_every_finite_cell_matches_the_referee(fn_id, interval, params):
    for row in group_rows(fn_id, *interval, params, bounds.THEOREM_IDS, gate=False):
        assert_matches(row)


def test_every_ok_row_of_the_gate_spec_matches_the_referee():
    spec = cli.parse_sweep_file(str(GATE_SPEC))
    params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
    ok = [row for fn_id, (a, b) in itertools.product(spec.functions, spec.intervals)
          for row in group_rows(fn_id, a, b, params, spec.theorems) if row["status"] == "ok"]
    assert len(ok) == 442
    for row in ok:
        assert_matches(row)
    assert {row["theorem"] for row in ok} == set(spec.theorems)


@pytest.mark.xfail(strict=True, reason="nu2 and gamma4 cancel to 0 at alpha = 1e-20")
@pytest.mark.parametrize("theorem", ["bop_am", "thm11"])
def test_a_tiny_alpha_cancels_in_nu2_and_gamma(theorem):
    # at alpha = m = 1e-20 the branch weighted by m * nu2 (bop_am) or m * gamma4
    # (thm11) carries |f'(b / m)|^2 = 2.5e125: the exact rhs is 2.6e41, the doubles' 24
    (row,) = group_rows("pow4", 2.0, 5.0, [(1e-20, 1e-20, 1.0, 1.0, 2.0)], [theorem],
                        gate=False)
    assert_matches(row)


@pytest.mark.xfail(strict=True, reason="mu^(alpha+2) and mu^(p+1) are subnormal")
@pytest.mark.parametrize("mu, theorem", [(1e-150, "thm11"), (1e-106, "thm22")])
def test_a_tiny_weight_goes_subnormal(mu, theorem):
    # gamma3's mu^2.125 = 1e-318.75 (thm11) and the kernel's mu^3 = 1e-318 (thm22)
    # keep 3 to 6 digits: the rhs is off by 1.6e-5 and 6.3e-7 relative
    (row,) = group_rows("exp", 0.0, 1.0, [(0.125, 1.0, 0.0, mu, 2.0)], [theorem], gate=False)
    assert_matches(row)


@pytest.mark.xfail(strict=True, reason="b / m overflows to inf inside a min")
def test_a_tiny_m_overflows_inside_a_min():
    # b / m = 5 / 2.2e-308 is inf, so mu2 takes (|f'(b)|^q + m |f'(mid / m)|^q) / 2
    # where the exact min is the other side: rhs 1.418 against 1.301
    (row,) = group_rows("xlogx", 2.0, 5.0, [(1.0, 2.2250738585072014e-308, 5.0, 6.0, 3.5)],
                        ["bop_m"], gate=False)
    assert_matches(row)
