"""Closed forms of the kernel-moment coefficient families of the bounds.

Each family is an exact antiderivative of a kinked kernel moment;
``quadrature.kernel_moment`` is the independent oracle the tests check them
against.  The factors that sample |f'|^q (mu, M, K) live in the ``*_rhs``
of the bound they serve.  ``Params`` checks the parameters: scalars or arrays over cells.
"""

from __future__ import annotations

from .core import CoefficientSet, Params, power, py_min


def gamma_coeffs(alpha: float, lam: float, mu: float) -> CoefficientSet:
    """The four kernel moments of the weighted power-mean bound.

    gamma1 integrates |(lam+mu)t - lam| t^alpha, gamma2 its 1 - t^alpha
    complement; gamma3/gamma4 are the same moments for the reflected kernel,
    i.e. gamma1/gamma2 with lam and mu swapped.  (A circulating misprint
    writes gamma3 with lam^(alpha+2); the swap-symmetric form below is the
    one the quadrature oracle confirms.)  Over cells, a bad parameter raises
    (``Params.checked``), and a cell whose gamma fails is marked in ``errors``.
    """
    e = Params(alpha=alpha, lam=lam, mu=mu).checked().errors
    total = lam + mu
    denom = (alpha + 1.0) * (alpha + 2.0)
    half_weight = (power(lam, 2) + power(mu, 2)) / (2.0 * total)
    spread = power(total, alpha + 1.0)
    g1 = (2.0 * power(lam, alpha + 2.0) / spread + (alpha + 1.0) * mu - lam) / denom
    g3 = (2.0 * power(mu, alpha + 2.0) / spread + (alpha + 1.0) * lam - mu) / denom
    # Each pair sums to half_weight, so a gamma below -1e-12 of it is not a
    # rounded 0 but an underflowed lam^2 or lam^(alpha+2) (a tiny weight);
    # above half_weight = 1 the absolute -1e-12 still holds.
    return CoefficientSet({
        "gamma1": g1,
        "gamma2": half_weight - g1,
        "gamma3": g3,
        "gamma4": half_weight - g3,
    }, tol=1e-12 * py_min(1.0, half_weight), errors=e)


def nu_coeffs(alpha: float) -> CoefficientSet:
    """Kernel moments of the equal-weights bound; nu1 + nu2 = 1/2 always."""
    Params(alpha=alpha).checked()
    denom = (alpha + 1.0) * (alpha + 2.0)
    half_pow = power(0.5, alpha)
    nu1 = (alpha + half_pow) / denom
    nu2 = ((power(alpha, 2) + alpha + 2.0) / 2.0 - half_pow) / denom
    return CoefficientSet({"nu1": nu1, "nu2": nu2})
