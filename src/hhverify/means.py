"""Special means of two positive numbers and the mean-form corollaries.

Each proposition is checked two ways: its displayed mean-form RHS must
coincide with the generic bound RHS it is a substitution of, and the
inequality itself must hold against exact mean values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import bounds
from .core import (DomainError, Interval, NonFiniteError, ParamError, Params, judge,
                   power_function)
from .coefficients import gamma_coeffs

# The bound each proposition substitutes into, by proposition number.
BOUND_OF = {1: "thm11", 2: "thm211", 3: "thm22", 4: "thm11", 5: "thm211", 6: "thm22"}


class MeanKind(str, enum.Enum):
    WEIGHTED_ARITHMETIC = "weighted_arithmetic"
    ARITHMETIC = "arithmetic"
    WEIGHTED_HARMONIC = "weighted_harmonic"
    HARMONIC = "harmonic"
    LOGARITHMIC = "logarithmic"
    P_LOGARITHMIC = "p_logarithmic"


def mean(kind: MeanKind | str, a: float, b: float, weight: float | None = None,
         p: int | None = None) -> float:
    """Evaluate one of the six special means of finite nonnegative a, b.

    The weighted kinds put ``weight`` on the first argument; logarithmic
    kinds require strictly positive inputs and take the value b at a = b.
    """
    kind = MeanKind(kind)
    if not (0 <= a < math.inf and 0 <= b < math.inf):
        raise DomainError(f"means require finite nonnegative inputs, got ({a}, {b})")
    if kind in (MeanKind.WEIGHTED_HARMONIC, MeanKind.HARMONIC,
                MeanKind.LOGARITHMIC, MeanKind.P_LOGARITHMIC) and (a == 0 or b == 0):
        raise DomainError(f"{kind.value} mean requires strictly positive inputs")

    w = weight
    if kind in (MeanKind.WEIGHTED_ARITHMETIC, MeanKind.WEIGHTED_HARMONIC):
        if w is None or not 0 <= w <= 1:
            raise ParamError(f"weight must lie in [0, 1], got {w}")
    if kind is MeanKind.WEIGHTED_ARITHMETIC:
        return w * a + (1.0 - w) * b
    if kind is MeanKind.ARITHMETIC:
        return 0.5 * (a + b)
    if kind is MeanKind.WEIGHTED_HARMONIC:
        return 1.0 / (w / a + (1.0 - w) / b)
    if kind is MeanKind.HARMONIC:
        return 2.0 * a * b / (a + b)
    if kind is MeanKind.LOGARITHMIC:
        return b if a == b else (b - a) / (math.log(b) - math.log(a))
    if p is None or p in (-1, 0) or p % 1 != 0:  # P_LOGARITHMIC
        raise DomainError(f"p must be a nonzero integer other than -1, got {p}")
    return b if a == b else power_log_mean_pow(a, b, int(p)) ** (1.0 / int(p))


def power_log_mean_pow(a: float, b: float, n: int) -> float:
    """L_n(a, b)^n, the integral mean of x^n over [a, b]: a != b, and n is not -1 or 0."""
    return (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))


@dataclass(frozen=True)
class PropositionResult:
    prop: int
    mean_lhs: float
    mean_rhs: float
    corollary_rhs: float
    residual: float
    holds: bool
    note: str = ""


def proposition_check(k: int, a: float, b: float, p: Params,
                      n: int | None = None) -> PropositionResult:
    """Check proposition k on (a, b) with the weights and exponent from p.

    Propositions 1-3 compare the weighted arithmetic mean of a^n, b^n with
    the power-logarithmic mean (f = x^n); 4-6 compare the inverse weighted
    harmonic mean with the inverse logarithmic mean (f = 1/x).  mean_rhs is
    assembled from the proposition's own display; corollary_rhs calls the
    generic bound it substitutes into.  The two must agree to rounding,
    except proposition 6 whose display carries a spurious (1/2)^(1/q)
    factor relative to the bound it cites; that mismatch is reported in
    ``note`` rather than normalized away.  Raises NonFiniteError, naming lam,
    mu and q, when a value leaves the float range.
    """
    if not 0 < a < b:
        raise DomainError(f"propositions require 0 < a < b, got ({a}, {b})")
    if k not in BOUND_OF:
        raise ParamError(f"proposition index must lie in 1..6, got {k}")
    if bounds.THEOREMS[BOUND_OF[k]].needs_q_gt_1 and p.q <= 1:
        raise ParamError(f"proposition {k} requires q > 1, got q={p.q}")
    if k in (1, 2, 3):
        if n is None or abs(n) < 2 or n % 1 != 0:
            raise ParamError(f"propositions 1-3 require integer |n| >= 2, got {n}")
        n = int(n)
    try:
        mean_lhs, mean_rhs, corollary_rhs, note = _mean_forms(k, a, b, p, n)
    except ArithmeticError as exc:
        raise NonFiniteError(f"proposition {k}: out of float range on ({a}, {b}) at lambda = "
                             f"{p.lam}, mu = {p.mu}, q = {p.q} ({str(*exc.args[-1:])})") from None
    residual = abs(mean_rhs - corollary_rhs)
    holds, _ = judge(mean_lhs, corollary_rhs, 0.0)
    return PropositionResult(prop=k, mean_lhs=mean_lhs, mean_rhs=mean_rhs,
                             corollary_rhs=corollary_rhs, residual=residual,
                             holds=holds, note=note)


def _power_in_range(x: float, e: float) -> float:
    """x ** e, which propositions 4-6 divide by; NonFiniteError at 0 or inf."""
    if (value := x ** e) == 0.0 or math.isinf(value):
        raise NonFiniteError(f"{x} ** {e} is {value}")
    return value


def _mean_forms(k: int, a: float, b: float, p: Params, n: int | None):
    """(mean_lhs, mean_rhs, corollary_rhs, note) of a validated proposition k."""
    lam, mu, q = p.lam, p.mu, p.q
    iv = Interval(a, b)
    total = lam + mu
    w = lam / total
    generic = Params(alpha=1.0, m=1.0, lam=lam, mu=mu, q=q)
    note = ""

    if k in (1, 2, 3):
        fn = power_function(n)
        endpoint = mean(MeanKind.WEIGHTED_ARITHMETIC, a ** n, b ** n, weight=w)
        mean_lhs = abs(endpoint - power_log_mean_pow(a, b, n))
        an = a ** ((n - 1) * q)
        bn = b ** ((n - 1) * q)
        if k == 1:
            g1, g2, g3, g4 = map(float, gamma_coeffs(1.0, lam, mu).values.values())
            branch1 = g1 * bn + g2 * an
            branch2 = g3 * an + g4 * bn
            core = min(branch1 ** (1.0 / q), branch2 ** (1.0 / q))
            half_weight = (lam ** 2 + mu ** 2) / (2.0 * total)
            mean_rhs = (iv.width / total * half_weight ** ((q - 1.0) / q)
                        * abs(n) * core)
        elif k == 2:
            conj = generic.p
            z = mean(MeanKind.WEIGHTED_ARITHMETIC, b, a, weight=w)
            m1 = mean(MeanKind.ARITHMETIC, an, z ** ((n - 1) * q))
            m2 = mean(MeanKind.ARITHMETIC, bn, z ** ((n - 1) * q))
            mean_rhs = (iv.width / total ** 2 * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                        * abs(n) * (lam ** 2 * m1 ** (1.0 / q) + mu ** 2 * m2 ** (1.0 / q)))
        else:
            conj = generic.p
            amean = mean(MeanKind.ARITHMETIC, an, bn)
            mean_rhs = (iv.width / total
                        * ((lam ** (conj + 1.0) + mu ** (conj + 1.0)) / total) ** (1.0 / conj)
                        * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                        * abs(n) * amean ** (1.0 / q))
    else:
        fn = power_function(-1)
        endpoint = 1.0 / mean(MeanKind.WEIGHTED_HARMONIC, a, b, weight=w)
        log_mean = mean(MeanKind.LOGARITHMIC, a, b)
        mean_lhs = abs(endpoint - 1.0 / log_mean)
        a2q, b2q = _power_in_range(a, 2 * q), _power_in_range(b, 2 * q)
        if k == 4:
            g1, g2, g3, g4 = map(float, gamma_coeffs(1.0, lam, mu).values.values())
            branch1 = g1 / b2q + g2 / a2q
            branch2 = g3 / a2q + g4 / b2q
            core = min(branch1 ** (1.0 / q), branch2 ** (1.0 / q))
            half_weight = (lam ** 2 + mu ** 2) / (2.0 * total)
            mean_rhs = iv.width / total * half_weight ** ((q - 1.0) / q) * core
        elif k == 5:
            conj = generic.p
            z = mean(MeanKind.WEIGHTED_ARITHMETIC, b, a, weight=w)
            z2q = _power_in_range(z, 2 * q)
            m1 = 1.0 / mean(MeanKind.HARMONIC, a2q, z2q)
            m2 = 1.0 / mean(MeanKind.HARMONIC, b2q, z2q)
            mean_rhs = (iv.width / total ** 2 * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                        * (lam ** 2 * m1 ** (1.0 / q) + mu ** 2 * m2 ** (1.0 / q)))
        else:
            conj = generic.p
            weight_mean = mean(MeanKind.WEIGHTED_ARITHMETIC, lam ** conj, mu ** conj, weight=w)
            hmean = mean(MeanKind.WEIGHTED_HARMONIC, a2q, b2q, weight=0.5)
            mean_rhs = (iv.width / total * weight_mean ** (1.0 / conj)
                        * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                        * 0.5 ** (1.0 / q) * hmean ** (-1.0 / q))
            note = ("displayed mean form carries an extra (1/2)^(1/q) factor "
                    "relative to the bound it substitutes into")
    # looked up per call so that a replaced ``bounds.<id>_rhs`` is the one used
    corollary_rhs, _ = getattr(bounds, f"{BOUND_OF[k]}_rhs")(fn, iv, generic)
    return mean_lhs, mean_rhs, float(corollary_rhs), note  # numpy scalar to Python float
