"""Exact LHS evaluation and every closed-form RHS, plus the identity check.

``THEOREMS`` declares each bound once: its LHS, its convexity hypothesis
and whether it needs q > 1.  Its RHS is ``<id>_rhs(fn, iv, p)``, which
returns (rhs, branches) without integrating, so the means module can
compare against it directly.  ``assess_group`` runs each cell of one
(function, interval) group through lookup, applicability, gate, LHS and
RHS.  ``assess`` is its one-cell call, behind the library's ``verify``
(``verify(..., gate=False)`` checks a bound without gating); the CLI's
rows come from ``cli.group_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from .convexity import ConvexityVerdict, check_alpha_m_convex, derivative_power
from .coefficients import gamma_coeffs, nu_coeffs
from .core import (HOLDS_SLACK, BoundReport, CoefficientSet, DomainError, GateError,
                   Interval, ParamError, Params, TestFunction, make_report,
                   validate_params)
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
    if lam < 0 or mu < 0 or lam + mu <= 0:
        raise ParamError(f"weights must be nonnegative with lam + mu > 0, got {lam}, {mu}")
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
    return float(fn.f(mid)), 0.5 * (float(fn.f(iv.a)) + float(fn.f(iv.b)))


# ---------------------------------------------------------------------------
# RHS evaluators (no quadrature), one per bound: ``<id>_rhs(fn, iv, p)``
# returns (rhs, branches).  Params has already checked alpha, m, the weights
# and q >= 1; a bound that needs q > 1 reads ``p.p``, which raises ParamError
# at q = 1.  With a >= 0 and m <= 1 every sample point (a, b, a/m, b/m, the
# midpoint, z and their m-stretches) lies at or above a, so on a domain
# [domain_min, inf) requiring a alone covers them all.

def da_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    fn.require(iv.a)
    return iv.width / 8.0 * (abs(fn.df(iv.a)) + abs(fn.df(iv.b))), {}


def sso_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    a, b, alpha, m = iv.a, iv.b, p.alpha, p.m
    fn.require(a)
    branch1 = (fn.f(a) + alpha * m * fn.f(b / m)) / (alpha + 1.0)
    branch2 = (fn.f(b) + alpha * m * fn.f(a / m)) / (alpha + 1.0)
    return min(branch1, branch2), {"branch1": branch1, "branch2": branch2}


def bop_m_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    """m-convex midpoint bound; mu1/mu2 are min-of-averages factors of
    |f'|^q over the two half-intervals."""
    p.p  # raises ParamError at q = 1
    a, b, m, q = iv.a, iv.b, p.m, p.q
    mid = 0.5 * (a + b)
    fn.require(a)
    da_, db_, dmid = (abs(fn.df(x)) ** q for x in (a, b, mid))
    dam, dbm, dmidm = (abs(fn.df(x / m)) ** q for x in (a, b, mid))
    coeffs = CoefficientSet("bop_m", {
        "mu1": min((da_ + m * dmidm) / 2.0, (dmid + m * dam) / 2.0),
        "mu2": min((db_ + m * dmidm) / 2.0, (dmid + m * dbm) / 2.0),
    })
    spread = coeffs["mu1"] ** (1.0 / q) + coeffs["mu2"] ** (1.0 / q)
    loose = iv.width / 4.0 * spread
    tight = loose * ((q - 1.0) / (2.0 * q - 1.0)) ** ((q - 1.0) / q)
    return tight, {"loose": loose, **coeffs.values}


def bop_am_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    a, b, m, q = iv.a, iv.b, p.m, p.q
    fn.require(a)
    coeffs = nu_coeffs(p.alpha)
    nu1, nu2 = coeffs["nu1"], coeffs["nu2"]
    da_, db_ = abs(fn.df(a)) ** q, abs(fn.df(b)) ** q
    dam = abs(fn.df(a / m)) ** q
    dbm = abs(fn.df(b / m)) ** q
    branch1 = (nu1 * da_ + m * nu2 * dbm) ** (1.0 / q)
    branch2 = (nu1 * db_ + m * nu2 * dam) ** (1.0 / q)
    rhs = iv.width / 2.0 * 0.5 ** (1.0 - 1.0 / q) * min(branch1, branch2)
    return rhs, {"branch1": branch1, "branch2": branch2}


def thm11_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    a, b = iv.a, iv.b
    m, q, lam, mu = p.m, p.q, p.lam, p.mu
    fn.require(a)
    g = gamma_coeffs(p.alpha, lam, mu)
    db_ = abs(fn.df(b)) ** q
    da_ = abs(fn.df(a)) ** q
    dam = abs(fn.df(a / m)) ** q
    dbm = abs(fn.df(b / m)) ** q
    branch1 = g["gamma1"] * db_ + m * g["gamma2"] * dam
    branch2 = g["gamma3"] * da_ + m * g["gamma4"] * dbm
    total = lam + mu
    if q == 1:
        # Direct linear combination; avoids the 0-exponent edge of the q>1 form.
        rhs = iv.width / total * min(branch1, branch2)
    else:
        half_weight = (lam ** 2 + mu ** 2) / (2.0 * total)
        rhs = (iv.width / total * half_weight ** ((q - 1.0) / q)
               * min(branch1, branch2) ** (1.0 / q))
    return rhs, {"branch1": branch1, "branch2": branch2}


def thm211_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    """Hoelder split bound; M1/M2 are per-segment factors of |f'|^q around
    the interior node z = (lam*b + mu*a)/(lam + mu)."""
    conj = p.p  # raises ParamError at q = 1
    a, b, alpha, m, lam, mu, q = iv.a, iv.b, p.alpha, p.m, p.lam, p.mu, p.q
    z = (lam * b + mu * a) / (lam + mu)
    fn.require(a)
    da_, db_, dz = (abs(fn.df(x)) ** q for x in (a, b, z))
    dam, dbm, dzm = (abs(fn.df(x / m)) ** q for x in (a, b, z))
    denom = alpha + 1.0
    coeffs = CoefficientSet("thm211", {
        "M1": min((da_ + alpha * m * dzm) / denom, (dz + alpha * m * dam) / denom),
        "M2": min((db_ + alpha * m * dzm) / denom, (dz + alpha * m * dbm) / denom),
    })
    total = lam + mu
    rhs = (iv.width / total ** 2 * (1.0 / (conj + 1.0)) ** (1.0 / conj)
           * (lam ** 2 * coeffs["M1"] ** (1.0 / q) + mu ** 2 * coeffs["M2"] ** (1.0 / q)))
    return rhs, coeffs.values


def thm22_rhs(fn: TestFunction, iv: Interval, p: Params) -> tuple[float, dict]:
    """Global Hoelder bound; K1/K2 are endpoint factors of |f'|^q."""
    conj = p.p  # raises ParamError at q = 1
    a, b, alpha, m, q = iv.a, iv.b, p.alpha, p.m, p.q
    fn.require(a)
    coeffs = CoefficientSet("thm22", {
        "K1": abs(fn.df(b)) ** q + m * alpha * abs(fn.df(a / m)) ** q,
        "K2": abs(fn.df(a)) ** q + m * alpha * abs(fn.df(b / m)) ** q,
    })
    total = p.lam + p.mu
    kernel = ((p.lam ** (conj + 1.0) + p.mu ** (conj + 1.0))
              / ((conj + 1.0) * total)) ** (1.0 / conj)
    rhs = (iv.width / total * kernel * (1.0 / (alpha + 1.0)) ** (1.0 / q)
           * min(coeffs["K1"], coeffs["K2"]) ** (1.0 / q))
    return rhs, coeffs.values


# ---------------------------------------------------------------------------
# The theorem table and the one verification path.

@dataclass(frozen=True)
class Theorem:
    """Everything the verification path needs to know about one bound
    besides its RHS, which is this module's ``<id>_rhs``.

    ``lhs`` is "mean" (the integral mean itself), "equal" (the deviation with
    lam = mu = 1) or "weighted" (the deviation with the cell's lam, mu).
    ``hypothesis`` maps the cell's Params to (g, alpha, m, q) of the convexity
    hypothesis, g being "f" or "df" (|f'|^q); q is 1 where the hypothesis
    does not depend on it, so that equal hypotheses share one cached verdict
    in a sweep.  ``needs_q_gt_1`` makes q = 1 not applicable before the gate.
    """

    lhs: str
    hypothesis: Callable[[Params], tuple[str, float, float, float]]
    needs_q_gt_1: bool


def _df_q(p: Params):
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


class Outcome(NamedTuple):
    """Result of one (function, interval, params, theorem) cell.

    ``status`` is ok, violation, gate_skipped, not_applicable or input_error;
    ``error`` is the exception ``verify`` raises for the last two, and
    ``verdict`` the gate's verdict once it has run.
    """

    status: str
    report: BoundReport | None = None
    error: Exception | None = None
    verdict: ConvexityVerdict | None = None


def assess_group(fn: TestFunction, a: float, b: float, params, theorem_ids,
                 tol: float = DEFAULT_LHS_TOL, holds_tol: float = HOLDS_SLACK,
                 mean_of=integral_mean, gate_of=hypothesis_verdict):
    """Yield the Outcome of each cell of one (function, interval) group, in
    ``itertools.product(params, theorem_ids)`` order; ``params`` holds
    (alpha, m, lam, mu, q) tuples.  The Interval and the integral mean are
    made once per group, each Params and its domain check once per tuple.
    ``mean_of(fn, iv, tol)`` gives the mean and its error; ``gate_of(fn, g,
    upper, alpha, m, q, GATE_GRID_N)`` the gate's verdict, or None skips it.
    """
    # looked up per group so that a replaced ``<id>_rhs`` is the one used
    thms = [(tid, THEOREMS.get(tid), globals().get(f"{tid}_rhs")) for tid in theorem_ids]
    q_rule = {tid: Outcome("not_applicable", None, ParamError(f"{tid} needs q > 1"))
              for tid, thm, _ in thms if thm is not None and thm.needs_q_gt_1}
    iv = mean = None
    for alpha, m, lam, mu, q in params:
        error = None
        try:
            iv = iv or Interval(a, b)
            p = Params(alpha=alpha, m=m, lam=lam, mu=mu, q=q)
            validate_params(p, iv, fn)
        except (ParamError, DomainError) as exc:
            error = exc
        for theorem_id, thm, rhs_of in thms:
            # precedence: the q > 1 rule, bad input, an unknown id, the domain
            if q == 1 and theorem_id in q_rule:
                yield q_rule[theorem_id]
            elif thm is None and not isinstance(error, ParamError):
                yield Outcome("input_error", None,
                              ParamError(f"unknown theorem id {theorem_id!r}"))
            elif error is not None:
                yield Outcome("not_applicable" if isinstance(error, DomainError)
                              else "input_error", None, error)
            else:
                verdict = None
                if gate_of is not None:
                    g, g_alpha, g_m, g_q = thm.hypothesis(p)
                    verdict = gate_of(fn, g, max(b, b / g_m), g_alpha, g_m, g_q, GATE_GRID_N)
                    if not verdict.holds:
                        yield Outcome("gate_skipped", None, None, verdict)
                        continue
                try:
                    mean = mean or mean_of(fn, iv, tol)
                    lhs, err = mean
                    if thm.lhs != "mean":
                        weights = (lam, mu) if thm.lhs == "weighted" else (1.0, 1.0)
                        lhs = abs(_weighted_endpoint(fn, iv, *weights) - lhs)
                    rhs, branches = rhs_of(fn, iv, p)
                except (ParamError, DomainError) as exc:
                    yield Outcome("input_error", None, exc, verdict)
                    continue
                report = make_report(theorem_id, float(lhs), float(rhs), float(err),
                                     branches, holds_tol)
                yield Outcome("ok" if report.holds else "violation", report, None, verdict)


def assess(fn: TestFunction, a: float, b: float, alpha: float, m: float, lam: float,
           mu: float, q: float, theorem_id: str, tol: float = DEFAULT_LHS_TOL,
           holds_tol: float = HOLDS_SLACK, mean_of=integral_mean,
           gate_of=hypothesis_verdict) -> Outcome:
    """The Outcome of one cell: a one-cell group of ``assess_group``."""
    return next(assess_group(fn, a, b, [(alpha, m, lam, mu, q)], [theorem_id], tol,
                             holds_tol, mean_of, gate_of))


def verify(fn: TestFunction, iv: Interval, p: Params, theorem_id: str,
           tol: float = DEFAULT_LHS_TOL, gate: bool = True) -> BoundReport:
    """Check the named bound; ``gate=False`` skips the hypothesis check.

    Raises ParamError (unknown theorem, q = 1 for a bound that needs q > 1),
    DomainError (the function is undefined where the bound evaluates it) or
    GateError (with the sampled witness) when the hypothesis fails; a gate
    failure is never a theorem violation.
    """
    outcome = assess(fn, iv.a, iv.b, p.alpha, p.m, p.lam, p.mu, p.q, theorem_id,
                     tol=tol, gate_of=hypothesis_verdict if gate else None)
    if outcome.status == "gate_skipped":
        v = outcome.verdict
        raise GateError(f"convexity hypothesis of {theorem_id} fails for {fn.id} "
                        f"(violation {v.worst_violation:.3e} at {v.witness})",
                        witness=v.witness, worst_violation=v.worst_violation)
    if outcome.error is not None:
        raise outcome.error
    return outcome.report
