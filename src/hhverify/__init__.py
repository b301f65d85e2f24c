"""Numerical verification of weighted trapezoid bounds for functions whose
derivative powers are (alpha, m)-convex, plus the special-means corollaries."""

from .core import (BoundReport, CoefficientSet, DomainError, GateError, Interval,
                   NonFiniteError, ParamError, Params, TestFunction, UnconvergedError,
                   corpus_by_id, power_function, reflect)
from .quadrature import QuadResult, integrate, kernel_moment
from .convexity import ConvexityVerdict, check_alpha_m_convex, check_hypotheses, derivative_power
from .coefficients import gamma_coeffs, nu_coeffs
from .bounds import Deviation, bound_hh, deviation, lemma21_residual, verify
from .means import MeanKind, PropositionResult, mean, proposition_check

__all__ = [name for name in dir() if not name.startswith("_")]
