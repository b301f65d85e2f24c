"""Shared domain types, parameter validation and the built-in function corpus.

All types are immutable value objects; every other module builds on them.
"""

from __future__ import annotations

import copy
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np


class ParamError(ValueError):
    """A parameter tuple violates its admissibility constraints."""


class DomainError(ValueError):
    """An evaluation point falls outside a function's declared domain."""


class GateError(RuntimeError):
    """A bound's convexity hypothesis failed the numerical gate.

    Carries the offending witness so callers can distinguish a failed
    hypothesis from a genuine inequality violation.
    """

    def __init__(self, message: str, witness=None, worst_violation: float | None = None):
        super().__init__(message)
        self.witness = witness
        self.worst_violation = worst_violation


class NonFiniteError(ArithmeticError):
    """An integrand or sampled function returned NaN or infinity."""


class UnconvergedError(ArithmeticError):
    """An integral did not reach its tolerance within the evaluation budget."""


# Tolerance added on top of the quadrature error estimate when deciding
# whether an inequality holds; absorbs double rounding, never masks a
# genuine violation (those exceed it by orders of magnitude).
HOLDS_SLACK = 1e-12


def fail(errors, bad, error_of, *columns) -> None:
    """Give each cell of the mask ``bad`` without an error in ``errors`` (a dict by cell
    index) the error ``error_of`` makes of its values of ``columns``; a point (``errors``
    None) raises it."""
    if np.any(bad):
        if errors is None:
            raise error_of(*columns)
        bad, *columns = np.broadcast_arrays(bad, *columns)
        for i, *cell in zip(np.flatnonzero(bad).tolist(), *(c[bad].tolist() for c in columns)):
            errors.setdefault(i, error_of(*cell))


@dataclass(frozen=True)
class Interval:
    """Integration domain [a, b] with 0 <= a < b and a normal float width b - a."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ParamError(f"interval endpoints must be finite, got [{self.a}, {self.b}]")
        if not 0 <= self.a < self.b:
            raise ParamError(f"interval requires 0 <= a < b, got [{self.a}, {self.b}]")
        if self.b - self.a < sys.float_info.min:  # the integral would round to 0
            raise ParamError(f"interval width must be a normal float, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class Params:
    """The tuple (alpha, m, lambda, mu, q) with the Hoelder conjugate derived.

    alpha and m live in (0, 1]; lam and mu are nonnegative weights with
    lam + mu > 0; q >= 1 is the derivative-power exponent.  The conjugate
    p = q/(q-1) only exists for q > 1 and accessing it at q = 1 raises.
    Each field is a float (a point) or an array over cells (columns).  A point
    raises the first rule it fails.  Columns do not raise: ``errors`` maps each
    failing cell's index to the error its point raises, in the order the rules
    meet them, and the operations of a bound over these cells add theirs.
    """

    alpha: float = 1.0
    m: float = 1.0
    lam: float = 1.0
    mu: float = 1.0
    q: float = 1.0
    errors: dict | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        alpha, m, lam, mu, q = (fields := vars(self)).values()
        errors = {} if np.broadcast(*fields.values()).shape else None
        for holds, message in (  # the admissible set, rule by rule
                *((abs(v) < math.inf, f"{k} must be finite, got {{{k}}}")
                  for k, v in fields.items()),
                ((0 < alpha) & (alpha <= 1), "alpha must lie in (0, 1], got {alpha}"),
                ((0 < m) & (m <= 1), "m must lie in (0, 1], got {m}"),
                ((lam >= 0) & (mu >= 0), "weights must be nonnegative, got lam={lam}, mu={mu}"),
                ((lam > 0) | (mu > 0), "weights must satisfy lam + mu > 0"),  # without overflow
                (q >= 1, "q must satisfy q >= 1, got {q}")):
            if holds is not True and not np.all(holds):
                fail(errors, ~np.asarray(holds), lambda *cell: ParamError(
                    message.format(**dict(zip(fields, cell)))), *fields.values())
        object.__setattr__(self, "errors", errors)

    def take(self, cells) -> Params:
        """These columns at the index array ``cells``, cells that pass every rule, with
        an empty ``errors`` for a bound's operations to fill.  ``take`` checks nothing
        again; ``gamma_coeffs``, ``nu_coeffs`` and ``check_hypotheses``, as public entry
        points, check their own inputs again."""
        taken = copy.copy(self)
        for name, value in vars(self).items():
            object.__setattr__(taken, name, {} if name == "errors" else value[cells])
        return taken

    def checked(self) -> Params:
        """These Params once no cell fails a rule; else the first error met raises."""
        if self.errors:
            raise next(iter(self.errors.values()))
        return self

    @property
    def p(self) -> float:
        """Hoelder conjugate q/(q-1); undefined at q = 1."""
        if np.any(self.q == 1):
            raise ParamError("conjugate exponent is undefined at q = 1")
        return self.q / (self.q - 1.0)


@dataclass(frozen=True)
class TestFunction:
    """A scalar function paired with its exact derivative.

    f and df must accept scalars and numpy arrays alike; domain_min is the
    largest lower bound above which both are finite (functions are assumed
    finite on [domain_min, inf)).
    """

    __test__ = False  # keep pytest from collecting this as a test class

    id: str
    f: Callable[[float], float]
    df: Callable[[float], float]
    domain_min: float = -math.inf

    def require(self, x: float) -> None:
        if not x >= self.domain_min:
            raise DomainError(
                f"{self.id} is not defined at x={x} (domain starts at {self.domain_min})")


def eval_points(f: Callable, x: np.ndarray) -> np.ndarray:
    """f at each point of the array x, in one call if f takes arrays, else point by point."""
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        y = np.asarray([f(v) for v in x.ravel()], dtype=float).reshape(x.shape)
    return y


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one bound: exact LHS vs closed-form RHS."""

    theorem_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    quad_error: float
    branches: dict = field(default_factory=dict)


def judge(lhs, rhs, quad_error):
    """(holds, unsettled): the bound holds when lhs <= rhs + quad_error + HOLDS_SLACK, and the
    error estimate could turn that where lhs lies within it of rhs + HOLDS_SLACK."""
    return lhs <= rhs + quad_error + HOLDS_SLACK, abs(lhs - rhs - HOLDS_SLACK) <= quad_error


@dataclass(frozen=True)
class CoefficientSet:
    """Named closed-form constants belonging to one bound family.

    Each value must be finite (else a NonFiniteError) and at least -tol, the
    rounding allowed around a true 0 (else a ParamError); tol may be an array over
    cells.  A point raises; over cells, a failing cell gets its error in ``errors``
    (``fail``).
    """

    values: dict
    tol: float = 1e-12
    errors: dict | None = None

    def __post_init__(self):
        v = np.array(list(self.values.values()))  # the values share one shape
        if not (np.isfinite(v) & (v >= -self.tol)).all():  # one check; the loop words errors
            for name, v in self.values.items():
                for bad, what, error in ((~np.isfinite(v), "is not finite:", NonFiniteError),
                                         (v < -self.tol, "must be nonnegative, got", ParamError)):
                    fail(self.errors, bad, lambda x: error(f"coefficient {name} {what} {x}"), v)

    def __getitem__(self, name: str) -> float:
        return self.values[name]


def py_min(x, y):
    """Python's min(x, y) per cell: y where y < x, else x."""
    return np.where(y < x, y, x)


# Positive lower bound for corpus members that blow up at the origin.
SINGULAR_EPS = 1e-12


_CORPUS = (
    TestFunction("pow2", lambda x: x ** 2, lambda x: 2.0 * x),
    TestFunction("pow3", lambda x: x ** 3, lambda x: 3.0 * x ** 2),
    TestFunction("pow4", lambda x: x ** 4, lambda x: 4.0 * x ** 3),
    TestFunction("pown2", lambda x: x ** -2.0, lambda x: -2.0 * x ** -3.0,
                 domain_min=SINGULAR_EPS),
    TestFunction("recip", lambda x: 1.0 / x, lambda x: -1.0 / x ** 2,
                 domain_min=SINGULAR_EPS),
    TestFunction("exp", np.exp, np.exp),
    TestFunction("xlogx", lambda x: x * np.log(x), lambda x: np.log(x) + 1.0,
                 domain_min=SINGULAR_EPS),
    TestFunction("sinh", np.sinh, np.cosh),
)
_CORPUS_BY_ID = MappingProxyType({fn.id: fn for fn in _CORPUS})


def corpus_by_id() -> Mapping[str, TestFunction]:
    """The compiled-in function corpus by id, each with its analytic derivative.

    A read-only view built once: every call returns the same objects.
    """
    return _CORPUS_BY_ID


def power_function(n: int) -> TestFunction:
    """x^n with its derivative, for the mean-comparison propositions."""
    if n == 0:
        raise ParamError("power exponent must be nonzero")
    domain_min = SINGULAR_EPS if n < 0 else 0.0
    return TestFunction(f"pow{n}", lambda x: x ** float(n),
                        lambda x: float(n) * x ** float(n - 1), domain_min=domain_min)


def reflect(fn: TestFunction, interval: Interval) -> TestFunction:
    """The mirrored function x -> f(a+b-x), intended for use on [a, b] only.

    Mirroring turns the original domain's lower bound into an upper bound,
    which TestFunction cannot express; the returned function is therefore
    only declared on the interval it was mirrored across (m = 1 use cases).
    """
    s = interval.a + interval.b
    if fn.domain_min > interval.a:
        raise DomainError(f"{fn.id} does not cover [{interval.a}, {interval.b}]")
    return TestFunction(
        id=f"{fn.id}_reflected",
        f=lambda x: fn.f(s - x),
        df=lambda x: -fn.df(s - x),
        domain_min=interval.a,
    )
