"""Exact LHS evaluation and every closed-form RHS, plus the identity check.

``THEOREMS`` declares each bound once: its LHS, its convexity hypothesis,
whether it needs q > 1 and its branch columns.  Its RHS is ``<id>_rhs(fn, iv,
p)``, which returns (rhs, branches) without integrating, for a Params of a point
(the means module compares against it) or of columns over cells.
``admit`` decides each of a sweep's (params, theorem) cells once: the q > 1 rule,
bad parameters, an unknown id, and the open cells' distinct gate hypotheses.
``assess_group`` evaluates them for one (function, interval) group as typed
``Columns``: interval, domain, gate, LHS and RHS.  The library's ``verify`` is its
one-cell call; the CLI's rows come from it one group at a time (``cli._assess``).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .convexity import check_hypotheses
from .coefficients import gamma_coeffs, nu_coeffs
from .core import (BoundReport, DomainError, GateError, Interval, NonFiniteError, ParamError,
                   Params, TestFunction, UnconvergedError, fail, judge, py_min)
from .quadrature import ORACLE_TOL, integrate

DEFAULT_LHS_TOL = 1e-9


@dataclass(frozen=True)
class Deviation:
    """The weighted trapezoid deviation: |(lam f(a) + mu f(b))/(lam+mu) - integral mean|."""

    weighted_endpoint_value: float
    integral_mean: float
    lhs_abs: float
    quad_error: float


def _unconverged(res, what: str = "LHS integral"):
    """The UnconvergedError of the integral ``res`` that did not converge, else None."""
    return None if res.converged else UnconvergedError(
        f"{what} did not converge: error estimate {res.error_estimate} after "
        f"{res.evaluations} evaluations")


def integral_mean(fn: TestFunction, iv: Interval):
    """The mean of f over ``iv``, its error estimate and, if the integral did not converge,
    the UnconvergedError of a row whose verdict the estimate could turn (else None)."""
    res = integrate(fn.f, iv, tol=DEFAULT_LHS_TOL)
    return res.value / iv.width, res.error_estimate / iv.width, _unconverged(res)


def _weighted_endpoint(fn: TestFunction, iv: Interval, lam: float, mu: float) -> float:
    return (lam * fn.f(iv.a) + mu * fn.f(iv.b)) / (lam + mu)


def deviation(fn: TestFunction, iv: Interval, lam: float, mu: float) -> Deviation:
    """The deviation at ``ORACLE_TOL``; an integral that does not converge raises."""
    Params(lam=lam, mu=mu)
    fn.require(iv.a)
    endpoint = _weighted_endpoint(fn, iv, lam, mu)
    res = integrate(fn.f, iv, tol=ORACLE_TOL)
    if unconverged := _unconverged(res):
        raise unconverged
    mean = res.value / iv.width
    return Deviation(weighted_endpoint_value=endpoint, integral_mean=mean,
                     lhs_abs=abs(endpoint - mean), quad_error=res.error_estimate / iv.width)


def lemma21_residual(fn: TestFunction, iv: Interval, lam: float, mu: float) -> float:
    """|LHS - RHS| of the weighted trapezoid identity.

    The right side rewrites the deviation as a kernel-weighted integral of f' over
    [0, 1]; both sides are evaluated by independent quadratures at ``ORACLE_TOL``, and the
    residual should sit at their combined noise level.  Either not converging raises.
    """
    dev = deviation(fn, iv, lam, mu)
    lhs = dev.weighted_endpoint_value - dev.integral_mean
    total = lam + mu
    a, b = iv.a, iv.b

    def integrand(t):
        return (total * t - lam) * fn.df(t * b + (1.0 - t) * a)

    res = integrate(integrand, (0.0, 1.0), tol=ORACLE_TOL, breakpoints=(lam / total,))
    if unconverged := _unconverged(res, "Lemma 2.1 kernel integral"):
        raise unconverged
    rhs = iv.width / total * res.value
    return abs(lhs - rhs)


def bound_hh(fn: TestFunction, iv: Interval) -> tuple[float, float]:
    """The classical two-sided bracket for convex f: midpoint value and
    endpoint average; the integral mean lies between them."""
    fn.require(iv.a)
    a, b = _float64(iv.a, iv.b)
    with np.errstate(over="ignore", invalid="ignore"):  # inf; integral_mean raises for it
        return float(fn.f(0.5 * (a + b))), 0.5 * (float(fn.f(a)) + float(fn.f(b)))


# ---------------------------------------------------------------------------
# RHS evaluators (no quadrature), one per bound: ``<id>_rhs(fn, iv, p)``
# returns (rhs, branches), p being a Params of a point or of columns.
# Params has already checked alpha, m, the weights and q >= 1; a bound that
# needs q > 1 reads ``p.p``, which raises ParamError at q = 1.  With a >= 0
# and m <= 1 every sample point (a, b, a/m, b/m, the midpoint, z and their
# m-stretches) lies at or above a, so on a domain [domain_min, inf)
# requiring a alone covers them all.  Each bound computes in float64, a point as
# numpy scalars (``_float64``): out of float range a value is inf or NaN, and the
# rules (gamma's or nu's ``CoefficientSet``, the thm22 kernel, then ``_finite`` on the
# branches, factors included, and the rhs) give its cell the first error, which a point raises.

def _float64(*values):
    """Each of ``values`` as float64: a scalar as a numpy scalar, an array as is."""
    return map(np.float64, values)


def _dq(fn: TestFunction, x, q):
    """|f'(x)|^q at each cell."""
    return np.float_power(abs(fn.df(x)), q)


def _split_factors(fn: TestFunction, a, b, z, alpha, m, q) -> tuple:
    """thm211's M1, M2: min-of-averages factors of |f'|^q split at z (bop_m's mu at alpha 1)."""
    da_, db_, dz = (_dq(fn, x, q) for x in (a, b, z))
    dam, dbm, dzm = (_dq(fn, x / m, q) for x in (a, b, z))
    denom = alpha + 1.0
    return (py_min((da_ + alpha * m * dzm) / denom, (dz + alpha * m * dam) / denom),
            py_min((db_ + alpha * m * dzm) / denom, (dz + alpha * m * dbm) / denom))


def _finite(tid: str, p, rhs, branches: dict) -> tuple:
    """(rhs, branches) of the bound ``tid``, where a cell whose branch or rhs is not
    finite (inf, or NaN: a negative base under a fractional power among them) gets a
    NonFiniteError that names the value."""
    if not np.isfinite(sum(branches.values(), rhs)).all():  # an inf or NaN makes the sum one
        cells = np.ones(np.shape(p.q), bool)
        for name, v in (*branches.items(), ("rhs", rhs)):
            fail(p.errors, cells & ~np.isfinite(v),
                 lambda x: NonFiniteError(f"{tid} {name} is not finite: {x}"), v)
    return rhs, branches


@np.errstate(all="ignore")
def da_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    fn.require(iv.a)
    a, b = _float64(iv.a, iv.b)
    return _finite("da", p, (b - a) / 8.0 * (abs(fn.df(a)) + abs(fn.df(b))), {})


@np.errstate(all="ignore")
def sso_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    fn.require(iv.a)
    a, b, alpha, m = _float64(iv.a, iv.b, p.alpha, p.m)
    branch1 = (fn.f(a) + alpha * m * fn.f(b / m)) / (alpha + 1.0)
    branch2 = (fn.f(b) + alpha * m * fn.f(a / m)) / (alpha + 1.0)
    return _finite("sso", p, py_min(branch1, branch2), {"branch1": branch1, "branch2": branch2})


@np.errstate(all="ignore")
def bop_m_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """m-convex midpoint bound; mu1/mu2 are ``_split_factors`` of |f'|^q at the midpoint."""
    p.p  # raises ParamError at q = 1
    fn.require(iv.a)
    a, b, m, q = _float64(iv.a, iv.b, p.m, p.q)
    mu1, mu2 = _split_factors(fn, a, b, 0.5 * (a + b), 1.0, m, q)
    loose = (b - a) / 4.0 * (np.float_power(mu1, 1.0 / q) + np.float_power(mu2, 1.0 / q))
    tight = loose * np.float_power((q - 1.0) / (2.0 * q - 1.0), (q - 1.0) / q)
    return _finite("bop_m", p, tight, {"mu1": mu1, "mu2": mu2, "loose": loose})


@np.errstate(all="ignore")
def bop_am_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    fn.require(iv.a)
    a, b, m, q = _float64(iv.a, iv.b, p.m, p.q)
    coeffs = nu_coeffs(p.alpha)
    nu1, nu2 = coeffs["nu1"], coeffs["nu2"]
    da_, db_, dam, dbm = (_dq(fn, x, q) for x in (a, b, a / m, b / m))
    branch1 = np.float_power(nu1 * da_ + m * nu2 * dbm, 1.0 / q)
    branch2 = np.float_power(nu1 * db_ + m * nu2 * dam, 1.0 / q)
    rhs = (b - a) / 2.0 * np.float_power(0.5, 1.0 - 1.0 / q) * py_min(branch1, branch2)
    return _finite("bop_am", p, rhs, {"branch1": branch1, "branch2": branch2})


@np.errstate(all="ignore")
def thm11_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    fn.require(iv.a)
    a, b, m, q, lam, mu = _float64(iv.a, iv.b, p.m, p.q, p.lam, p.mu)
    g = gamma_coeffs(p.alpha, p.lam, p.mu)
    for i, error in (g.errors or {}).items():  # the cells gamma failed
        p.errors.setdefault(i, error)
    da_, db_, dam, dbm = (_dq(fn, x, q) for x in (a, b, a / m, b / m))
    branch1 = g["gamma1"] * db_ + m * g["gamma2"] * dam
    branch2 = g["gamma3"] * da_ + m * g["gamma4"] * dbm
    total = lam + mu
    # at q = 1 the powers are exact (x ** 0.0 = 1, x ** 1.0 = x): the linear form
    half_weight = (np.float_power(lam, 2) + np.float_power(mu, 2)) / (2.0 * total)
    rhs = ((b - a) / total * np.float_power(half_weight, (q - 1.0) / q)
           * np.float_power(py_min(branch1, branch2), 1.0 / q))
    return _finite("thm11", p, rhs, {"branch1": branch1, "branch2": branch2})


@np.errstate(all="ignore")
def thm211_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """Hoelder split bound; M1/M2: ``_split_factors`` at z = (lam*b + mu*a)/(lam + mu)."""
    a, b, alpha, m, lam, mu, q, conj = _float64(iv.a, iv.b, p.alpha, p.m, p.lam, p.mu, p.q, p.p)
    z = (lam * b + mu * a) / (lam + mu)
    fn.require(iv.a)
    m1, m2 = _split_factors(fn, a, b, z, alpha, m, q)
    total = lam + mu
    rhs = ((b - a) / np.float_power(total, 2) * np.float_power(1.0 / (conj + 1.0), 1.0 / conj)
           * (np.float_power(lam, 2) * np.float_power(m1, 1.0 / q)
              + np.float_power(mu, 2) * np.float_power(m2, 1.0 / q)))
    return _finite("thm211", p, rhs, {"M1": m1, "M2": m2})


@np.errstate(all="ignore")
def thm22_rhs(fn: TestFunction, iv: Interval, p) -> tuple[float, dict]:
    """Global Hoelder bound; K1/K2 are endpoint factors of |f'|^q."""
    a, b, alpha, m, lam, mu, q, conj = _float64(iv.a, iv.b, p.alpha, p.m, p.lam, p.mu, p.q, p.p)
    fn.require(iv.a)
    factors = {"K1": _dq(fn, b, q) + m * alpha * _dq(fn, a / m, q),
               "K2": _dq(fn, a, q) + m * alpha * _dq(fn, b / m, q)}
    total = lam + mu
    kernel = np.float_power((np.float_power(lam, conj + 1.0) + np.float_power(mu, conj + 1.0))
                            / ((conj + 1.0) * total), 1.0 / conj)
    # the exact kernel is positive when lam + mu > 0
    fail(p.errors, kernel == 0.0, lambda lam, mu: ParamError(
        f"thm22 kernel underflows to 0 at lambda = {lam}, mu = {mu}"), p.lam, p.mu)
    rhs = ((b - a) / total * kernel * np.float_power(1.0 / (alpha + 1.0), 1.0 / q)
           * np.float_power(py_min(factors["K1"], factors["K2"]), 1.0 / q))
    return _finite("thm22", p, rhs, factors)


# ---------------------------------------------------------------------------
# The theorem table and the one verification path.

@dataclass(frozen=True)
class Theorem:
    """Everything the verification path needs to know about one bound
    besides its RHS, which is this module's ``<id>_rhs``.

    ``lhs`` is "mean" (the integral mean itself), "equal" (the deviation with
    lam = mu = 1) or "weighted" (the deviation with the cell's lam, mu).
    ``hypothesis`` maps a Params to (g, alpha, m, q) of the convexity
    hypothesis, g being "f" or "df" (|f'|^q); q is 1 where the hypothesis
    does not depend on it, so that equal hypotheses share one gate verdict.
    ``needs_q_gt_1`` makes q = 1 not applicable before the gate.  ``branches`` names
    the RHS's branches that fill the columns branch1, branch2 and rhs_loose, in order.
    """

    lhs: str
    hypothesis: Callable[[Params], tuple]
    needs_q_gt_1: bool
    branches: tuple


def _df_q(p: Params):
    return "df", p.alpha, p.m, p.q


THEOREMS = {
    "da": Theorem("equal", lambda p: ("df", 1.0, 1.0, 1.0), False, ()),
    "sso": Theorem("mean", lambda p: ("f", p.alpha, p.m, 1.0), False, ("branch1", "branch2")),
    "bop_m": Theorem("equal", lambda p: ("df", 1.0, p.m, p.q), True, ("mu1", "mu2", "loose")),
    "bop_am": Theorem("equal", _df_q, False, ("branch1", "branch2")),
    "thm11": Theorem("weighted", _df_q, False, ("branch1", "branch2")),
    "thm211": Theorem("weighted", _df_q, True, ("M1", "M2")),
    "thm22": Theorem("weighted", _df_q, True, ("K1", "K2")),
}

THEOREM_IDS = tuple(THEOREMS)


# A report row's computed columns, in row order (the CLI puts its inputs first):
# ``status`` a code into ``STATUSES``, ``holds`` the ``HOLDS`` of that code (None:
# the cell has no verdict) and the ``FLOAT_COLUMNS`` float64, each with a presence mask.
ROW_COLUMNS = ("status", "lhs", "rhs", "slack", "holds", "quad_error",
               "branch1", "branch2", "rhs_loose", "gate_violation")
STATUSES = ("ok", "violation", "gate_skipped", "not_applicable", "input_error")
OK, VIOLATION, GATE_SKIPPED, NOT_APPLICABLE, INPUT_ERROR = range(len(STATUSES))
HOLDS = (True, False, None, None, None)  # by status code
FLOAT_COLUMNS = tuple(c for c in ROW_COLUMNS if c not in ("status", "holds"))
PlainColumns = namedtuple("PlainColumns", ROW_COLUMNS)


class Columns(NamedTuple):
    """Cells' ``ROW_COLUMNS`` as typed arrays: the ``status`` codes (``holds`` is read
    from them), the ``FLOAT_COLUMNS`` as the rows of ``values``, and ``present`` False
    where a value is None.  ``assess_group`` adds each cell's exception (for ``verify``) and gate
    verdict; a sweep's tables carry the typed arrays alone.  Which branch of a bound
    fills branch1, branch2 and rhs_loose is its ``Theorem.branches``."""

    status: np.ndarray
    values: np.ndarray
    present: np.ndarray
    error: np.ndarray | None = None
    verdict: np.ndarray | None = None

    @classmethod
    def empty(cls, n: int) -> Columns:
        """n cells, each an input_error without a value, an error or a verdict."""
        shape = (len(FLOAT_COLUMNS), n)
        return cls(np.full(n, INPUT_ERROR, np.int8), np.full(shape, np.nan),
                   np.zeros(shape, bool), np.full(n, None, object), np.full(n, None, object))

    def put(self, at, name: str, value) -> None:
        """The float column ``name`` holds ``value`` at the cells ``at``."""
        k = FLOAT_COLUMNS.index(name)
        self.values[k, at], self.present[k, at] = value, True

    def plain(self) -> PlainColumns:
        """The ``ROW_COLUMNS`` as lists of plain values: str, float, bool or None."""
        floats = np.where(self.present, self.values, None).tolist()
        status = self.status.tolist()
        return PlainColumns(status=[STATUSES[s] for s in status], holds=[HOLDS[s] for s in status],
                            **dict(zip(FLOAT_COLUMNS, floats)))


class Cells(NamedTuple):
    """A sweep's (params, theorem) cells, admitted once for all its groups.

    ``params`` holds the params tuples as one Params of columns.  ``status`` and
    ``error`` have a row per tuple and a column per theorem id, each cell decided by
    the first rule it meets: q = 1 on a bound that needs q > 1 (not_applicable), its
    tuple's Params error, then an unknown id (input_error); an open cell has no error.
    ``hypotheses`` lists the open cells' distinct gate hypotheses (g, alpha, m, q) in
    cell order, and ``hypothesis`` holds each cell's index into it (-1 for a closed
    cell).
    """

    params: Params
    theorem_ids: tuple
    status: np.ndarray
    error: np.ndarray
    hypotheses: list
    hypothesis: np.ndarray


def admit(params, theorem_ids) -> Cells:
    """The ``Cells`` of ``params``, (alpha, m, lam, mu, q) tuples, under each of
    ``theorem_ids``: one ``Params`` of all the tuples, each cell's status and error,
    and one pass that finds the open cells' distinct hypotheses."""
    p = Params(*np.array(list(params), dtype=float).reshape(-1, 5).T)
    status = np.full((len(p.q), len(theorem_ids)), INPUT_ERROR, np.int8)
    error = np.full(status.shape, None, object)  # a bad tuple's error, on each of its cells
    error[list(p.errors)] = np.array(list(p.errors.values()), object)[:, None]
    hyp = np.zeros(status.shape + (4,))
    for j, tid in enumerate(theorem_ids):
        if (thm := THEOREMS.get(tid)) is None:
            error[np.equal(error[:, j], None), j] = ParamError(f"unknown theorem id {tid!r}")
            continue
        if thm.needs_q_gt_1:  # wins over a bad tuple
            error[p.q == 1, j] = ParamError(f"{tid} needs q > 1")
            status[p.q == 1, j] = NOT_APPLICABLE
        for k, v in enumerate(thm.hypothesis(p)):
            hyp[:, j, k] = v == "df" if k == 0 else v
    open_ = np.equal(error, None)
    wanted = hyp[open_]
    _, first, inverse = np.unique(wanted.view("V32").ravel(), return_index=True,
                                  return_inverse=True)
    rank = np.empty(len(first), int)
    rank[np.argsort(first)] = np.arange(len(first))  # first occurrence in cell order
    hypothesis = np.full(open_.shape, -1)
    hypothesis[open_] = rank[inverse.ravel()]
    hypotheses = [("df" if df else "f", *amq) for df, *amq in wanted[np.sort(first)].tolist()]
    return Cells(p, tuple(theorem_ids), status, error, hypotheses, hypothesis)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # an error of its cell, or inf
def assess_group(fn: TestFunction, a: float, b: float, cells: Cells,
                 gate_of=check_hypotheses) -> Columns:
    """Evaluate one (function, interval) group's ``cells`` (``admit``) as ``Columns``,
    from their admitted status and error.  ``Interval(a, b)`` and ``fn.require(a)`` run
    once: a bad interval makes every cell but the q > 1 rule's input_error, a bad domain
    the open cells not_applicable, with its error.  ``gate_of(fn, b, cells.hypotheses)``
    runs once (None skips the gate), ``integral_mean(fn, iv)`` once, and each ``<id>_rhs``
    once, on the ``cells.params.take`` of the cells that reach it.  The RHS does not raise
    over cells: a cell it fails (a value out of float range, b / m among them) keeps the
    error its own call raises, in the ``error`` column, and is input_error.  A row is ok
    or a violation by ``core.judge``'s rule; only ``status`` records it.
    """
    n, t = cells.status.shape
    cols = Columns.empty(n * t)
    status, error, verdict = (c.reshape(n, t) for c in (cols.status, cols.error, cols.verdict))
    status[:], error[:] = cells.status, cells.error
    open_ = cells.hypothesis >= 0
    try:
        iv = Interval(a, b)
        fn.require(a)
    except ParamError as exc:  # the interval's, on every cell but the q > 1 rule's
        error[status == INPUT_ERROR] = exc.with_traceback(None)
        return cols
    except DomainError as exc:
        status[open_], error[open_] = NOT_APPLICABLE, exc.with_traceback(None)
        return cols

    if gate_of is not None and open_.any():
        found = np.empty(len(cells.hypotheses), object)  # a verdict, or its grid's error
        found[:] = gate_of(fn, b, cells.hypotheses)
        of = cells.hypothesis[open_]
        failed, holds, worst = (np.array(x)[of] for x in zip(*(
            (isinstance(v, ArithmeticError), getattr(v, "holds", False),
             getattr(v, "worst_violation", np.nan)) for v in found)))
        verdict[open_], error[open_] = found[of], np.where(failed, found[of], None)
        gated = np.flatnonzero(open_)
        cols.put(gated[~failed], "gate_violation", worst[~failed])
        cols.status[gated[~holds & ~failed]] = GATE_SKIPPED
        open_[open_] = holds

    if open_.any():
        try:
            mean, err, unconverged = integral_mean(fn, iv)
        except (ParamError, DomainError, ArithmeticError) as exc:
            error[open_], open_[:] = exc.with_traceback(None), False
    for j, tid in enumerate(cells.theorem_ids):
        if not len(rows := np.flatnonzero(open_[:, j])):
            continue
        # looked up per group so that a replaced ``<id>_rhs`` is the one used
        thm, rhs_of = THEOREMS[tid], globals()[f"{tid}_rhs"]
        value, branches = rhs_of(fn, iv, p := cells.params.take(rows))
        weights = (p.lam, p.mu) if thm.lhs == "weighted" else (1.0, 1.0)
        lhs = mean if thm.lhs == "mean" else abs(_weighted_endpoint(fn, iv, *weights) - mean)
        holds, unsettled = judge(lhs, value, err)
        at = rows * t + j
        for name, v in (("lhs", lhs), ("rhs", value), ("slack", value - lhs), ("quad_error", err),
                        *zip(("branch1", "branch2", "rhs_loose"),
                             map(branches.__getitem__, thm.branches))):
            cols.put(at, name, v)
        cols.status[at] = np.where(holds, OK, VIOLATION)
        if unconverged is not None:  # no verdict rests on an estimate that did not converge
            fail(p.errors, unsettled, lambda q: unconverged, p.q)
        if p.errors:  # a cell the RHS or the LHS failed: its error and no values but its gate's
            bad = at[list(p.errors)]
            cols.status[bad] = INPUT_ERROR
            cols.error[bad], cols.present[:-1, bad] = list(p.errors.values()), False
    return cols


def verify(fn: TestFunction, iv: Interval, p: Params, theorem_id: str,
           gate: bool = True) -> BoundReport:
    """Check the named bound; ``gate=False`` skips the hypothesis check.

    Raises ParamError (unknown theorem, q = 1 for a bound that needs q > 1),
    DomainError (the function is undefined where the bound evaluates it) or
    GateError (with the sampled witness) when the hypothesis fails; a gate
    failure is never a theorem violation.
    """
    cols = assess_group(fn, iv.a, iv.b, admit([(p.alpha, p.m, p.lam, p.mu, p.q)], [theorem_id]),
                        gate_of=check_hypotheses if gate else None)
    if cols.status[0] == GATE_SKIPPED:
        v = cols.verdict[0]
        raise GateError(f"convexity hypothesis of {theorem_id} fails for {fn.id} "
                        f"(violation {v.worst_violation:.3e} at {v.witness})",
                        witness=v.witness, worst_violation=v.worst_violation)
    if cols.error[0] is not None:
        raise cols.error[0]
    row = PlainColumns(*(column[0] for column in cols.plain()))
    branches = zip(THEOREMS[theorem_id].branches, (row.branch1, row.branch2, row.rhs_loose))
    return BoundReport(theorem_id, row.lhs, row.rhs, row.slack, row.holds,
                       row.quad_error, dict(branches))
