"""Sampling-based verification that g = |f'|^q (or f) is (alpha, m)-convex.

A ``holds`` verdict is necessary-condition screening on one fixed grid (``GRID_N``), not a
proof; it gates which bounds apply to which corpus members.  f or |f'| on a grid depends on
m, not on alpha or q: ``check_hypotheses`` samples it once per grid of a group and scores
each q and alpha; ``check_alpha_m_convex`` is one grid's case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .core import NonFiniteError, ParamError, Params, TestFunction, eval_points

VIOLATION_TOL = 1e-9
GRID_N = 16  # x, y and t each run over GRID_N + 1 equi-spaced points


@dataclass(frozen=True)
class ConvexityVerdict:
    holds: bool
    worst_violation: float
    witness: tuple[float, float, float]  # (x, y, t) attaining the worst violation
    clipped: bool = False  # x, y sampling started above 0 to dodge a singularity


def _admit(b: float, alphas, m, q=1.0) -> None:
    if not 0 < b < math.inf:
        raise ParamError(f"b must be positive and finite, got {b}")
    alphas, m, q = np.broadcast_arrays(alphas, m, q)
    Params(alphas, m, q=q).checked()  # each alpha beside its m and q, as columns


def _finite(points, h, q):
    """g = h ** q at the points, where it must be finite (a scalar q; at q = 1 the bits of h)."""
    g = h ** q
    if not np.isfinite(g).all():
        bad = points.ravel()[~np.isfinite(g.ravel())][0]
        raise NonFiniteError(f"g is not finite at sample x={bad}")
    return g


def _grid_verdicts(h: Callable, b: float, m: float, powers) -> list:
    """For each (q, alphas) of ``powers``: the verdicts on [0, b] of g = h ** q, one per alpha,
    or the ArithmeticError g's samples raise.  h runs once on each grid's x and mixes."""
    ts = np.linspace(0.0, 1.0, GRID_N + 1)

    @cache  # x from 0 (or 1e-8*b) to b, or its mixes t*x + m*(1-t)*y, and h there, on first use
    def sampled(clip, at_mix):
        xs = np.linspace(1e-8 * b if clip else 0.0, b, GRID_N + 1)
        points = ts * xs[:, None, None] + m * (1.0 - ts) * xs[None, :, None] if at_mix else xs
        return points, eval_points(h, points)

    found = []
    with np.errstate(all="ignore"):
        for q, alphas in powers:
            try:  # whether g = h ** q is singular at 0: its grid then starts at 1e-8*b
                clip = not np.isfinite(float(h(0.0) ** q))
            except (ArithmeticError, ValueError):
                clip = True
            try:
                xs, gx = sampled(clip, False)
                gx = _finite(xs, gx, q)
                g_mix = _finite(*sampled(clip, True), q)  # h at the mixes once g(x) is finite
            except ArithmeticError as exc:
                found.append(exc.with_traceback(None))
                continue
            # an (x, y, t) block per alpha, contiguous for the sum; t**alpha: a scalar exponent
            t_alpha = np.array([ts ** alpha for alpha in alphas]).reshape(-1, 1, 1, GRID_N + 1)
            violation = np.repeat(t_alpha * gx[:, None, None], GRID_N + 1, axis=2)
            violation += m * (1.0 - t_alpha) * gx[None, :, None]
            np.subtract(g_mix, violation, out=violation)  # g_mix - bound
            flat = violation.reshape(-1, g_mix.size)
            best = flat.argmax(axis=1)  # each alpha's worst sample, the first of equals
            ix, iy, it = np.unravel_index(best, g_mix.shape)
            witnesses = zip(xs[ix].tolist(), xs[iy].tolist(), ts[it].tolist())
            worst = flat[np.arange(len(flat)), best].tolist()
            found.append(tuple(ConvexityVerdict(w <= VIOLATION_TOL, w, witness, clip)
                               for w, witness in zip(worst, witnesses)))
            del violation, flat, g_mix  # one grid's blocks at a time: with two alive, each
            # call's frees trim the heap, and the next call faults its pages in again
    return found


def check_alpha_m_convex(g: Callable, b: float, alphas, m: float) -> tuple[ConvexityVerdict, ...]:
    """Evaluate the defining inequality of (alpha, m)-convexity on one grid for
    each alpha of ``alphas``: a verdict per alpha, in that order.

    x and y run over GRID_N + 1 equi-spaced points on [0, b] (started at
    1e-8*b when g is singular at 0), t over GRID_N + 1 points on [0, 1].
    """
    _admit(b, alphas, m)
    (found,) = _grid_verdicts(g, b, m, [(1.0, alphas)])
    if isinstance(found, ArithmeticError):
        raise found
    return found


def check_hypotheses(fn: TestFunction, b: float, hypotheses) -> list:
    """For each (g, alpha, m, q) of ``hypotheses``: the verdict, as ``check_alpha_m_convex``
    gives it, that f (g = "f"; q is checked but unused) or |f'|^q (g = "df") is (alpha,
    m)-convex on [0, max(b, b / m)], or the ArithmeticError of its grid.  f or |f'| runs
    once per grid start of each (g, m); a b / m out of float range is a NonFiniteError for
    that m.  One Params checks the columns alpha, m and q.
    """
    alphas, ms, qs = ([hyp[k] for hyp in hypotheses] for k in (1, 2, 3))
    _admit(b, alphas, ms, qs)
    grids = {}  # each (g, m): each q (1 for f) and the indices of its hypotheses
    for i, (g, _, m, q) in enumerate(hypotheses):
        grids.setdefault((g, m), {}).setdefault(1.0 if g == "f" else q, []).append(i)
    found = np.empty(len(hypotheses), object)
    for (g, m), powers in grids.items():
        h = fn.f if g == "f" else lambda x: np.abs(fn.df(x))
        powers_alphas = [(q, [alphas[i] for i in index]) for q, index in powers.items()]
        results = ([NonFiniteError(f"gate grid end b / m is not finite: {b} / {m}")] * len(powers)
                   if (upper := max(b, b / m)) == math.inf
                   else _grid_verdicts(h, upper, m, powers_alphas))
        for index, result in zip(powers.values(), results):
            found[index] = result  # a verdict per alpha, or the grid's error for each
    return list(found)


def derivative_power(fn: TestFunction, q: float) -> Callable:
    """The function x -> |f'(x)|^q whose (alpha, m)-convexity the bounds assume."""
    Params(q=q)
    return lambda x: np.abs(fn.df(x)) ** q
