"""Exact LHS evaluation and every closed-form RHS, plus the identity check.

``THEOREMS`` declares each bound once: its LHS, its convexity hypothesis
and whether it needs q > 1.  Its RHS is ``<id>_rhs(fn, iv, p)``, which
returns (rhs, branches) without integrating, for a scalar Params (the
means module compares against it) or a ParamColumns of cells.
``assess_group`` evaluates one (function, interval) group as numpy columns:
lookup, applicability, gate, LHS and RHS.  The library's ``verify`` is its
one-cell call; the CLI's rows come from ``cli.group_rows``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .convexity import ConvexityVerdict, check_alpha_m_convex, derivative_power
from .coefficients import gamma_coeffs, nu_coeffs
from .core import (HOLDS_SLACK, BoundReport, CoefficientSet, DomainError, GateError,
                   Interval, ParamColumns, ParamError, Params, TestFunction, _per_cell,
                   make_report, py_div, py_min, py_pow)
from .quadrature import integrate

DEFAULT_LHS_TOL = 1e-9
GATE_GRID_N = 16  # grid of the convexity gate (check_alpha_m_convex's grid_n)


@dataclass(frozen=True)
class Deviation:
    """The weighted trapezoid deviation: |(lam f(a) + mu f(b))/(lam+mu) - integral mean|."""

    weighted_endpoint_value: float
    integral_mean: float
    lhs_abs: float
    quad_error: float


def integral_mean(fn: TestFunction, iv: Interval, tol: float = DEFAULT_LHS_TOL):
    res = integrate(fn.f, iv, tol=tol)
    return res.value / iv.width, res.error_estimate / iv.width


def _weighted_endpoint(fn: TestFunction, iv: Interval, lam: float, mu: float) -> float:
    return (lam * fn.f(iv.a) + mu * fn.f(iv.b)) / (lam + mu)


def deviation(fn: TestFunction, iv: Interval, lam: float, mu: float,
              tol: float = DEFAULT_LHS_TOL) -> Deviation:
    Params(lam=lam, mu=mu)
    fn.require(iv.a)
    endpoint = _weighted_endpoint(fn, iv, lam, mu)
    mean, err = integral_mean(fn, iv, tol)
    return Deviation(weighted_endpoint_value=endpoint, integral_mean=mean,
                     lhs_abs=abs(endpoint - mean), quad_error=err)


def lemma21_residual(fn: TestFunction, iv: Interval, lam: float, mu: float,
                     tol: float = 1e-10) -> float:
    """|LHS - RHS| of the weighted trapezoid identity.

    The right side rewrites the deviation as a kernel-weighted integral of
    f' over [0, 1]; both sides are evaluated by independent quadratures and
    the residual should sit at the combined quadrature noise level.
    """
    dev = deviation(fn, iv, lam, mu, tol=tol)
    lhs = dev.weighted_endpoint_value - dev.integral_mean
    total = lam + mu
    a, b = iv.a, iv.b

    def integrand(t):
        return (total * t - lam) * fn.df(t * b + (1.0 - t) * a)

    res = integrate(integrand, (0.0, 1.0), tol=tol, breakpoints=(lam / total,))
    rhs = iv.width / total * res.value
    return abs(lhs - rhs)


def bound_hh(fn: TestFunction, iv: Interval) -> tuple[float, float]:
    """The classical two-sided bracket for convex f: midpoint value and
    endpoint average; the integral mean lies between them."""
    fn.require(iv.a)
    mid = 0.5 * (iv.a + iv.b)
    with np.errstate(over="ignore", invalid="ignore"):  # inf; integral_mean raises for it
        return float(fn.f(mid)), 0.5 * (float(fn.f(iv.a)) + float(fn.f(iv.b)))


# ---------------------------------------------------------------------------
# RHS evaluators (no quadrature), one per bound: ``<id>_rhs(fn, iv, p)``
# returns (rhs, branches), p being a Params or a ParamColumns of cells.
# Params has already checked alpha, m, the weights and q >= 1; a bound that
# needs q > 1 reads ``p.p``, which raises ParamError at q = 1.  With a >= 0
# and m <= 1 every sample point (a, b, a/m, b/m, the midpoint, z and their
# m-stretches) lies at or above a, so on a domain [domain_min, inf)
# requiring a alone covers them all.  Each operation keeps the order of the
# scalar expression, so every cell gets the bits of a scalar call.

def _each(g, x, q=0.0):
    """g(x, q) at each cell, called on Python floats once per distinct (x, q)."""
    return _per_cell(lru_cache(maxsize=None)(g))(x, q)


def _dq(fn: TestFunction, x, q):
    """|f'(x)|^q at each cell."""
    return _each(lambda x, q: abs(fn.df(x)) ** q, x, q)


def da_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    fn.require(iv.a)
    return iv.width / 8.0 * (abs(fn.df(iv.a)) + abs(fn.df(iv.b))), {}


def sso_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    a, b, alpha, m = iv.a, iv.b, p.alpha, p.m
    fn.require(a)
    f_at = lambda x, _: fn.f(x)  # noqa: E731
    branch1 = (fn.f(a) + alpha * m * _each(f_at, b / m)) / (alpha + 1.0)
    branch2 = (fn.f(b) + alpha * m * _each(f_at, a / m)) / (alpha + 1.0)
    return py_min(branch1, branch2), {"branch1": branch1, "branch2": branch2}


def bop_m_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """m-convex midpoint bound; mu1/mu2 are min-of-averages factors of
    |f'|^q over the two half-intervals."""
    p.p  # raises ParamError at q = 1
    a, b, m, q = iv.a, iv.b, p.m, p.q
    mid = 0.5 * (a + b)
    fn.require(a)
    da_, db_, dmid = (_dq(fn, x, q) for x in (a, b, mid))
    dam, dbm, dmidm = (_dq(fn, x / m, q) for x in (a, b, mid))
    coeffs = CoefficientSet({
        "mu1": py_min((da_ + m * dmidm) / 2.0, (dmid + m * dam) / 2.0),
        "mu2": py_min((db_ + m * dmidm) / 2.0, (dmid + m * dbm) / 2.0),
    })
    spread = py_pow(coeffs["mu1"], 1.0 / q) + py_pow(coeffs["mu2"], 1.0 / q)
    loose = iv.width / 4.0 * spread
    tight = loose * py_pow((q - 1.0) / (2.0 * q - 1.0), (q - 1.0) / q)
    return tight, {"loose": loose, **coeffs.values}


def bop_am_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    a, b, m, q = iv.a, iv.b, p.m, p.q
    fn.require(a)
    coeffs = nu_coeffs(p.alpha)
    nu1, nu2 = coeffs["nu1"], coeffs["nu2"]
    da_, db_, dam, dbm = (_dq(fn, x, q) for x in (a, b, a / m, b / m))
    branch1 = py_pow(nu1 * da_ + m * nu2 * dbm, 1.0 / q)
    branch2 = py_pow(nu1 * db_ + m * nu2 * dam, 1.0 / q)
    rhs = iv.width / 2.0 * py_pow(0.5, 1.0 - 1.0 / q) * py_min(branch1, branch2)
    return rhs, {"branch1": branch1, "branch2": branch2}


def thm11_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    a, b = iv.a, iv.b
    m, q, lam, mu = p.m, p.q, p.lam, p.mu
    fn.require(a)
    g = gamma_coeffs(p.alpha, lam, mu)
    da_, db_, dam, dbm = (_dq(fn, x, q) for x in (a, b, a / m, b / m))
    branch1 = g["gamma1"] * db_ + m * g["gamma2"] * dam
    branch2 = g["gamma3"] * da_ + m * g["gamma4"] * dbm
    total = lam + mu
    # at q = 1 the powers are exact (x ** 0.0 = 1, x ** 1.0 = x): the linear form
    half_weight = (py_pow(lam, 2) + py_pow(mu, 2)) / (2.0 * total)
    rhs = (iv.width / total * py_pow(half_weight, (q - 1.0) / q)
           * py_pow(py_min(branch1, branch2), 1.0 / q))
    return rhs, {"branch1": branch1, "branch2": branch2}


def thm211_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """Hoelder split bound; M1/M2 are per-segment factors of |f'|^q around
    the interior node z = (lam*b + mu*a)/(lam + mu)."""
    conj = p.p  # raises ParamError at q = 1
    a, b, alpha, m, lam, mu, q = iv.a, iv.b, p.alpha, p.m, p.lam, p.mu, p.q
    z = (lam * b + mu * a) / (lam + mu)
    fn.require(a)
    da_, db_, dz = (_dq(fn, x, q) for x in (a, b, z))
    dam, dbm, dzm = (_dq(fn, x / m, q) for x in (a, b, z))
    denom = alpha + 1.0
    coeffs = CoefficientSet({
        "M1": py_min((da_ + alpha * m * dzm) / denom, (dz + alpha * m * dam) / denom),
        "M2": py_min((db_ + alpha * m * dzm) / denom, (dz + alpha * m * dbm) / denom),
    })
    total = lam + mu
    rhs = (py_div(iv.width, py_pow(total, 2)) * py_pow(1.0 / (conj + 1.0), 1.0 / conj)
           * (py_pow(lam, 2) * py_pow(coeffs["M1"], 1.0 / q)
              + py_pow(mu, 2) * py_pow(coeffs["M2"], 1.0 / q)))
    return rhs, coeffs.values


def thm22_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """Global Hoelder bound; K1/K2 are endpoint factors of |f'|^q."""
    conj = p.p  # raises ParamError at q = 1
    a, b, alpha, m, q = iv.a, iv.b, p.alpha, p.m, p.q
    fn.require(a)
    coeffs = CoefficientSet({
        "K1": _dq(fn, b, q) + m * alpha * _dq(fn, a / m, q),
        "K2": _dq(fn, a, q) + m * alpha * _dq(fn, b / m, q),
    })
    total = p.lam + p.mu
    kernel = py_pow((py_pow(p.lam, conj + 1.0) + py_pow(p.mu, conj + 1.0))
                    / ((conj + 1.0) * total), 1.0 / conj)
    if np.any(kernel == 0.0):  # underflowed: the exact kernel is positive when lam + mu > 0
        error = ParamError(f"thm22 kernel underflows to 0 at lambda = {p.lam}, mu = {p.mu}")
        error.cells = kernel == 0.0
        raise error
    rhs = (iv.width / total * kernel * py_pow(1.0 / (alpha + 1.0), 1.0 / q)
           * py_pow(py_min(coeffs["K1"], coeffs["K2"]), 1.0 / q))
    return rhs, coeffs.values


# ---------------------------------------------------------------------------
# The theorem table and the one verification path.

@dataclass(frozen=True)
class Theorem:
    """Everything the verification path needs to know about one bound
    besides its RHS, which is this module's ``<id>_rhs``.

    ``lhs`` is "mean" (the integral mean itself), "equal" (the deviation with
    lam = mu = 1) or "weighted" (the deviation with the cell's lam, mu).
    ``hypothesis`` maps ParamColumns to (g, alpha, m, q) of the convexity
    hypothesis, g being "f" or "df" (|f'|^q); q is 1 where the hypothesis
    does not depend on it, so that equal hypotheses share one gate verdict.
    ``needs_q_gt_1`` makes q = 1 not applicable before the gate.
    """

    lhs: str
    hypothesis: Callable[[ParamColumns], tuple]
    needs_q_gt_1: bool


def _df_q(p: ParamColumns):
    return "df", p.alpha, p.m, p.q


THEOREMS = {
    "da": Theorem("equal", lambda p: ("df", 1.0, 1.0, 1.0), False),
    "sso": Theorem("mean", lambda p: ("f", p.alpha, p.m, 1.0), False),
    "bop_m": Theorem("equal", lambda p: ("df", 1.0, p.m, p.q), True),
    "bop_am": Theorem("equal", _df_q, False),
    "thm11": Theorem("weighted", _df_q, False),
    "thm211": Theorem("weighted", _df_q, True),
    "thm22": Theorem("weighted", _df_q, True),
}

THEOREM_IDS = tuple(THEOREMS)


def hypothesis_verdict(fn: TestFunction, g: str, upper: float, alpha: float, m: float,
                       q: float, grid_n: int) -> ConvexityVerdict:
    """Sample the (alpha, m)-convexity of f (g = "f") or |f'|^q (g = "df") on [0, upper]."""
    func = fn.f if g == "f" else derivative_power(fn, q)
    return check_alpha_m_convex(func, upper, alpha, m, grid_n)


# A report row's computed columns, in row order (the CLI puts its inputs first).
# ``Columns`` holds one (function, interval) group's cells as lists in
# product(params, theorem_ids) order: these (None where a cell has no value),
# each cell's exception for ``verify`` and gate verdict, and per theorem id
# the RHS's names for branch1, branch2 and rhs_loose.
ROW_COLUMNS = ("status", "lhs", "rhs", "slack", "holds", "quad_error",
               "branch1", "branch2", "rhs_loose", "gate_violation")
Columns = namedtuple("Columns", (*ROW_COLUMNS, "error", "verdict", "branch_names"))


def assess_group(fn: TestFunction, a: float, b: float, params, theorem_ids,
                 tol: float = DEFAULT_LHS_TOL, holds_tol: float = HOLDS_SLACK,
                 gate_of=hypothesis_verdict) -> Columns:
    """Evaluate one (function, interval) group as numpy columns; ``params``
    holds (alpha, m, lam, mu, q) tuples.  Each Params and the domain check
    ``fn.require(a)`` run once per tuple, ``gate_of(fn, g, upper, alpha, m, q,
    GATE_GRID_N)`` once per distinct hypothesis, in cell order (None skips the
    gate), ``integral_mean(fn, iv, tol)`` once, and each ``<id>_rhs`` once, on
    the ParamColumns of the cells that reach it.  An ArithmeticError of any of
    these (a value out of float range) makes the cells it reaches input_error.
    """
    # looked up per group so that a replaced ``<id>_rhs`` is the one used
    thms = [(tid, THEOREMS.get(tid), globals().get(f"{tid}_rhs")) for tid in theorem_ids]
    params, iv, errs = list(params), None, []
    for alpha, m, lam, mu, q in params:
        try:
            iv = iv or Interval(a, b)
            Params(alpha, m, lam, mu, q)
            errs.append(fn.require(a))
        except (ParamError, DomainError) as exc:  # kept without the frames it holds
            errs.append(exc.with_traceback(None))
    P = np.array(params, dtype=float).reshape(-1, 5)
    c = {name: np.full((len(P), len(thms)), None, object) for name in Columns._fields[:-1]}
    status, error = c["status"], c["error"]

    # precedence: the q > 1 rule, bad input, an unknown id, the domain
    status[:], error[:] = "input_error", np.array(errs, object)[:, None]
    bad_input = np.array([isinstance(e, ParamError) for e in errs], bool)
    domain = np.array([isinstance(e, DomainError) for e in errs], bool)
    for j, (tid, thm, _) in enumerate(thms):
        if thm is None:
            error[~bad_input, j] = ParamError(f"unknown theorem id {tid!r}")
            continue
        status[domain, j] = "not_applicable"
        if thm.needs_q_gt_1:
            q_rule = P[:, 4] == 1
            error[q_rule, j] = ParamError(f"{tid} needs q > 1")
            status[q_rule, j] = "not_applicable"
    open_ = np.equal(error, None)

    if gate_of is not None and open_.any():
        hyp = np.zeros(open_.shape + (4,))
        for j, (_, thm, _) in enumerate(thms):
            for k, v in enumerate(thm.hypothesis(ParamColumns(*P.T)) if thm else ()):
                hyp[:, j, k] = v == "df" if k == 0 else v
        wanted = hyp[open_]
        _, first, inverse = np.unique(wanted.view("V32").ravel(), return_index=True,
                                      return_inverse=True)

        def verdict(df, alpha, m, q):  # or the ArithmeticError, for input_error cells
            try:
                return gate_of(fn, "df" if df else "f", max(b, b / m), alpha, m, q, GATE_GRID_N)
            except ArithmeticError as exc:  # NonFiniteError, or a float op out of range
                return exc.with_traceback(None)
        found = np.empty(len(first), object)  # each distinct hypothesis, in cell order
        found[np.argsort(first)] = [verdict(*h) for h in wanted[np.sort(first)].tolist()]
        failed = np.array([isinstance(v, ArithmeticError) for v in found], bool)
        worst = np.array([getattr(v, "worst_violation", None) for v in found], object)
        holds = np.array([getattr(v, "holds", False) for v in found], bool)
        inverse, gated = inverse.ravel(), open_.copy()
        c["verdict"][gated], c["gate_violation"][gated] = found[inverse], worst[inverse]
        error[gated] = np.where(failed[inverse], found[inverse], None)
        open_[gated] = holds[inverse]
        status[gated & ~open_ & np.equal(error, None)] = "gate_skipped"

    if open_.any():
        try:
            mean, err = integral_mean(fn, iv, tol)
        except (ParamError, DomainError, ArithmeticError) as exc:
            error[open_], open_[:] = exc.with_traceback(None), False
    names = {}
    for j, (tid, thm, rhs_of) in enumerate(thms):
        pending = [np.flatnonzero(open_[:, j])]
        while pending:
            if not len(rows := pending.pop()):
                continue
            try:
                value, branches = rhs_of(fn, iv, ParamColumns(*P[rows].T))
            except (ParamError, DomainError, ArithmeticError) as exc:
                # the cells the error names are input_error and the others go
                # again; after an error that names no cells, each goes alone
                cells = getattr(exc, "cells", True)
                if cells is True and len(rows) > 1:
                    pending.extend(rows[:, None])
                    continue
                bad = np.broadcast_to(cells, rows.shape)
                error[rows[bad], j] = exc.with_traceback(None)
                pending.append(rows[~bad])
                continue
            weights = (P[rows, 2], P[rows, 3]) if thm.lhs == "weighted" else (1.0, 1.0)
            lhs = mean if thm.lhs == "mean" else abs(_weighted_endpoint(fn, iv, *weights) - mean)
            r = make_report(tid, lhs, value, err, holds_tol)
            pair = sorted(k for k in branches if k != "loose")
            names[tid] = (*pair[:2], "loose") if len(pair) >= 2 else (None, None, "loose")
            for col, v in (("lhs", lhs), ("rhs", value), ("slack", r.slack), ("holds", r.holds),
                           ("quad_error", err), *zip(("branch1", "branch2", "rhs_loose"),
                                                     map(branches.get, names[tid]))):
                if v is not None:  # numpy scalars as Python ones, shared by the cells
                    c[col][rows, j] = v.item() if isinstance(v, np.generic) else v
            ok = np.broadcast_to(r.holds, rows.shape)
            status[rows[ok], j], status[rows[~ok], j] = "ok", "violation"
    return Columns(*(column.ravel().tolist() for column in c.values()), names)


def verify(fn: TestFunction, iv: Interval, p: Params, theorem_id: str,
           tol: float = DEFAULT_LHS_TOL, gate: bool = True) -> BoundReport:
    """Check the named bound; ``gate=False`` skips the hypothesis check.

    Raises ParamError (unknown theorem, q = 1 for a bound that needs q > 1),
    DomainError (the function is undefined where the bound evaluates it) or
    GateError (with the sampled witness) when the hypothesis fails; a gate
    failure is never a theorem violation.
    """
    cols = assess_group(fn, iv.a, iv.b, [(p.alpha, p.m, p.lam, p.mu, p.q)], [theorem_id],
                        tol, gate_of=hypothesis_verdict if gate else None)
    cell = Columns(*(column[0] for column in cols[:-1]), cols.branch_names)
    if cell.status == "gate_skipped":
        v = cell.verdict
        raise GateError(f"convexity hypothesis of {theorem_id} fails for {fn.id} "
                        f"(violation {v.worst_violation:.3e} at {v.witness})",
                        witness=v.witness, worst_violation=v.worst_violation)
    if cell.error is not None:
        raise cell.error
    branches = zip(cell.branch_names[theorem_id], (cell.branch1, cell.branch2, cell.rhs_loose))
    return BoundReport(theorem_id, cell.lhs, cell.rhs, cell.slack, cell.holds,
                       cell.quad_error, {k: v for k, v in branches if v is not None})
