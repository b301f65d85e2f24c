"""Sampling-based verification that g = |f'|^q is (alpha, m)-convex.

A ``holds`` verdict is necessary-condition screening over a dense grid, not
a proof; it gates which bounds apply to which corpus members.  The grid and
the sampled left side g(tx + m(1-t)y) depend on g and m but not on alpha, so
one call samples them once and scores every alpha given against them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import NonFiniteError, ParamError, Params, TestFunction, eval_points

VIOLATION_TOL = 1e-9


@dataclass(frozen=True)
class ConvexityVerdict:
    holds: bool
    worst_violation: float
    witness: tuple[float, float, float]  # (x, y, t) attaining the worst violation
    clipped: bool = False  # x, y sampling started above 0 to dodge a singularity


def check_alpha_m_convex(g: Callable, b: float, alphas, m: float,
                         grid_n: int = 32) -> tuple[ConvexityVerdict, ...]:
    """Evaluate the defining inequality of (alpha, m)-convexity on one grid for
    each alpha of ``alphas``: a verdict per alpha, in that order.

    x and y run over grid_n+1 equi-spaced points on [0, b] (started at
    1e-8*b when g is singular at 0), t over grid_n+1 points on [0, 1]; the
    grid_n+1 point count makes doubling grid_n a strict refinement, so the
    recorded worst violation is monotone under refinement.
    """
    if grid_n < 8:
        raise ParamError(f"grid_n must be at least 8, got {grid_n}")
    if not 0 < b < math.inf:
        raise ParamError(f"b must be positive and finite, got {b}")
    Params(*np.broadcast_arrays(alphas, m))  # each alpha beside m, as columns over cells

    lo = 0.0
    clipped = False
    try:
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g0 = float(g(0.0))
        if not np.isfinite(g0):
            raise ArithmeticError
    except (ArithmeticError, ValueError):
        lo = 1e-8 * b
        clipped = True

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xs = np.linspace(lo, b, grid_n + 1)
        ts = np.linspace(0.0, 1.0, grid_n + 1)
        gx = eval_points(g, xs)
        if not np.all(np.isfinite(gx)):
            bad = xs[~np.isfinite(gx)][0]
            raise NonFiniteError(f"g is not finite at sample x={bad}")

        x = xs[:, None, None]
        y = xs[None, :, None]
        t = ts[None, None, :]
        mix = t * x + m * (1.0 - t) * y
        g_mix = eval_points(g, mix)
        if not np.all(np.isfinite(g_mix)):
            bad = mix.ravel()[~np.isfinite(g_mix.ravel())][0]
            raise NonFiniteError(f"g is not finite at sample x={bad}")

        # an (x, y, t) block per alpha; t**alpha keeps numpy's scalar-exponent path
        t_alpha = np.array([ts ** alpha for alpha in alphas]).reshape(-1, 1, 1, grid_n + 1)
        violation = t_alpha * gx[:, None, None] + m * (1.0 - t_alpha) * gx[None, :, None]
        np.subtract(g_mix, violation, out=violation)  # g_mix - bound

    flat = violation.reshape(-1, g_mix.size)
    best = flat.argmax(axis=1)  # each alpha's worst sample, the first of equals
    ix, iy, it = np.unravel_index(best, g_mix.shape)
    witnesses = zip(xs[ix].tolist(), xs[iy].tolist(), ts[it].tolist())
    return tuple(ConvexityVerdict(holds=w <= VIOLATION_TOL, worst_violation=w,
                                  witness=witness, clipped=clipped)
                 for w, witness in zip(flat[np.arange(len(flat)), best].tolist(), witnesses))


def derivative_power(fn: TestFunction, q: float) -> Callable:
    """The function x -> |f'(x)|^q whose (alpha, m)-convexity the bounds assume."""
    Params(q=q)
    return lambda x: np.abs(fn.df(x)) ** q
