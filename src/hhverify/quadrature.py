"""Adaptive Gauss-Kronrod 7-15 quadrature and the kernel-moment oracle.

The integrator drives the exact side of every bound check; ``kernel_moment``
is the brute-force cross-check for the closed-form coefficients and always
splits at the kernel's single kink before integrating.  The integrand is
called on arrays of nodes (node by node if it takes no arrays), and the
stopping test keeps an exact running total of the panel errors.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import Interval, NonFiniteError, ParamError, Params, eval_points

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half) and weights;
# the embedded 7-point Gauss rule sits at the odd-indexed abscissae.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_KWEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GMASK = np.zeros(15)
_GMASK[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])

MAX_EVALS = 1_000_000


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool = True


def _gk15(f: Callable, panels: list) -> Iterator[tuple[float, float]]:
    """(value, error estimate) of Gauss-Kronrod 7-15 on each (lo, hi) panel."""
    lo, hi = np.array(panels).T
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    y = eval_points(f, x)
    for h, yi in zip(half.tolist(), y):
        # one 1-D dot per panel: a 2-D product would sum in another order
        kronrod = h * float(_KWEIGHTS @ yi)
        gauss = h * float(_GMASK @ yi)
        if not (math.isfinite(kronrod) and math.isfinite(gauss)):
            bad = x[~np.isfinite(y)]
            raise NonFiniteError(f"integrand returned a non-finite value at x={bad[0]}"
                                 if bad.size else "the integral overflows a float")
        yield kronrod, abs(kronrod - gauss)


def _units(x: float) -> int:
    """x >= 0 as an exact count of 2**-1074, the smallest subnormal."""
    n, d = x.as_integer_ratio()
    return n * ((1 << 1074) // d)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite panel sum raises NonFiniteError
def integrate(f: Callable, iv: Interval | tuple[float, float], tol: float = 1e-9,
              breakpoints: Sequence[float] = ()) -> QuadResult:
    """Globally adaptive integration of f over [a, b].

    Always bisects the currently worst panel; known non-smooth points can be
    passed as ``breakpoints`` so every panel the rule sees is smooth.  f is
    called on the array of both halves' 30 nodes per bisection (node by node
    if it takes no arrays), and the panel errors are totalled exactly.  When
    the budget of ``MAX_EVALS`` evaluations runs out before the tolerance is
    met, the best available estimate is returned flagged (``converged=False``)
    instead of raising, so callers can widen their own tolerances by the
    reported error.
    """
    if not 0 < tol < math.inf:
        raise ParamError(f"tolerance must be positive and finite, got {tol}")
    a, b = (iv.a, iv.b) if isinstance(iv, Interval) else iv
    if not -math.inf < a < b < math.inf:
        raise ParamError(f"integration bounds must be finite with a < b, got [{a}, {b}]")

    cuts = sorted({a, b, *(x for x in breakpoints if a < x < b)})
    panels = list(zip(cuts, cuts[1:]))
    heap, narrow, limit = [], False, _units(float(tol))
    evals = total = 0  # total: the panel errors' sum, in _units
    while True:
        for (lo, hi), (val, err) in zip(panels, _gk15(f, panels)):
            heapq.heappush(heap, (-err, lo, hi, val, err))
            total += _units(err)
        evals += 15 * len(panels)
        # a narrow panel's width is at rounding level; further bisection is noise
        if total <= limit or evals + 30 > MAX_EVALS or narrow:
            break
        _, lo, hi, _, err = heapq.heappop(heap)
        total -= _units(err)
        mid = 0.5 * (lo + hi)
        panels = [(lo, mid), (mid, hi)]
        narrow = hi - lo < 1e-14 * (b - a)

    value = math.fsum(item[3] for item in heap)
    total_err = sum(item[4] for item in heap)
    return QuadResult(value=value, error_estimate=total_err,
                      evaluations=evals, converged=total_err <= tol)


_WEIGHTS = {
    "t^alpha": lambda t, alpha: t ** alpha,
    "1-t^alpha": lambda t, alpha: 1.0 - t ** alpha,
    "1": lambda t, alpha: 1.0,
}


def kernel_moment(alpha: float, lam: float, mu: float, power_of_t: str = "1",
                  switch: str = "lambda", p_exp: float = 1.0,
                  tol: float = 1e-10) -> float:
    """Oracle for the kernel moments behind every closed-form coefficient.

    Evaluates ``integral over [0,1] of |(lam+mu) t - s|^p_exp * w(t) dt``
    where s = lam or mu per ``switch`` and w(t) is one of t^alpha,
    1 - t^alpha or 1.  The integrand has exactly one kink at t = s/(lam+mu)
    and is split there, so the adaptive rule only ever sees smooth pieces.
    alpha, lam, mu and p_exp are checked as Params' alpha, lam, mu and q.
    """
    Params(alpha=alpha, lam=lam, mu=mu, q=p_exp)
    if power_of_t not in _WEIGHTS:
        raise ParamError(f"unknown weight {power_of_t!r}")
    if switch == "lambda":
        s = lam
    elif switch == "mu":
        s = mu
    else:
        raise ParamError(f"switch must be 'lambda' or 'mu', got {switch!r}")

    total = lam + mu
    w = _WEIGHTS[power_of_t]

    def integrand(t):
        return abs(total * t - s) ** p_exp * w(t, alpha)

    kink = s / total
    return integrate(integrand, (0.0, 1.0), tol=tol, breakpoints=(kink,)).value
