"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
numerical target here was frozen from an independent oracle (quadrature or a
hand-derived closed form), never copied from the implementation under test.
"""

import math

import numpy as np
import pytest

from hhverify import (Interval, Params, bound_hh, corpus_by_id, deviation,
                      gamma_coeffs, kernel_moment, lemma21_residual, nu_coeffs,
                      reflect)
from hhverify import cli
from hhverify.bounds import (bop_am_rhs, bop_m_rhs, da_rhs, thm11_rhs,
                             thm211_rhs, thm22_rhs)
from hhverify.means import proposition_check

GRID = [0.0, 0.5, 1.0, 2.0, 5.0]
WEIGHT_PAIRS = [(l, m) for l in GRID for m in GRID if l + m > 0]
INTERVALS = [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0)]
POW2 = corpus_by_id()["pow2"]


def report(n: int, passed: bool, detail: str) -> None:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {n}: {detail}")
    assert passed, f"criterion {n}: {detail}"


def test_criterion_1_identity():
    checked, worst = 0, 0.0
    for fn in corpus_by_id().values():
        for a, b in INTERVALS:
            if a < fn.domain_min:
                continue
            for lam, mu in WEIGHT_PAIRS:
                worst = max(worst, lemma21_residual(fn, Interval(a, b), lam, mu))
                checked += 1
    report(1, worst <= 1e-9,
           f"weighted trapezoid identity, {checked} checks, max residual {worst:.3e}")


def test_criterion_2_coefficient_oracle():
    worst_gamma = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for lam, mu in WEIGHT_PAIRS:
            g = gamma_coeffs(alpha, lam, mu)
            for name, weight, switch in (
                    ("gamma1", "t^alpha", "lambda"), ("gamma2", "1-t^alpha", "lambda"),
                    ("gamma3", "t^alpha", "mu"), ("gamma4", "1-t^alpha", "mu")):
                oracle = kernel_moment(alpha, lam, mu, weight, switch)
                worst_gamma = max(worst_gamma, abs(g[name] - oracle))

    rng = np.random.default_rng(20240815)
    worst_sum = max(abs(nu_coeffs(a)["nu1"] + nu_coeffs(a)["nu2"] - 0.5)
                    for a in rng.uniform(1e-3, 1.0, size=50))

    # gamma at equal weights reduces to nu; the family is degree-1 homogeneous
    # in (lam, mu), so the literal identity holds at lam = mu = 1 and the
    # scaled identity gamma_i(c, c) = c nu_i everywhere else.
    worst_reduce = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        nu = nu_coeffs(alpha)
        for c in (0.5, 1.0, 2.0, 5.0):
            g = gamma_coeffs(alpha, c, c)
            worst_reduce = max(worst_reduce,
                               abs(g["gamma1"] - c * nu["nu1"]),
                               abs(g["gamma2"] - c * nu["nu2"]))
    passed = worst_gamma <= 1e-10 and worst_sum <= 1e-14 and worst_reduce <= 1e-12
    report(2, passed,
           f"gamma vs quadrature {worst_gamma:.3e}, nu sum {worst_sum:.3e}, "
           f"gamma(c,c)=c*nu {worst_reduce:.3e}")


def test_criterion_3_soundness_sweep():
    summary = {}
    list(cli.run_sweep(cli.default_sweep_spec(), summary=summary))
    passed = summary["violations"] == 0 and summary["holds"] > 0
    report(3, passed,
           f"default sweep {summary['total']} rows, holds={summary['holds']}, "
           f"violations={summary['violations']}, gate_skipped={summary['gate_skipped']}")


def test_criterion_4_reduction_identities():
    iv = Interval(1.0, 2.0)
    fn = POW2
    worst = 0.0

    def track(x, y):
        nonlocal worst
        worst = max(worst, abs(x - y) / max(1.0, abs(y)))

    for c in (0.5, 1.0, 2.0, 5.0):
        # equal weights collapse the weighted bound onto the power-mean form
        for alpha in (0.5, 1.0):
            for m in (0.5, 1.0):
                for q in (1.0, 2.0, 3.0):
                    r1, _ = thm11_rhs(fn, iv, Params(alpha=alpha, m=m, lam=c, mu=c, q=q))
                    r2, _ = bop_am_rhs(fn, iv, Params(alpha=alpha, m=m, q=q))
                    track(r1, r2)
        # ... and with m = alpha = q = 1 onto the endpoint-slope bound
        r1, _ = thm11_rhs(fn, iv, Params(lam=c, mu=c, q=1.0))
        r2, _ = da_rhs(fn, iv, Params())
        track(r1, r2)
        # the Hoelder split at equal weights and alpha = 1 gives the tight
        # m-convex bound
        for m in (0.5, 1.0):
            for q in (2.0, 3.0):
                r1, _ = thm211_rhs(fn, iv, Params(m=m, lam=c, mu=c, q=q))
                r2, _ = bop_m_rhs(fn, iv, Params(m=m, q=q))
                track(r1, r2)
        # global Hoelder bound at equal weights, independent closed form
        for alpha in (0.5, 1.0):
            for m in (0.5, 1.0):
                for q in (2.0, 3.0):
                    r1, _ = thm22_rhs(fn, iv, Params(alpha=alpha, m=m, lam=c, mu=c, q=q))
                    conj = q / (q - 1.0)
                    k1 = abs(fn.df(2.0)) ** q + m * alpha * abs(fn.df(1.0 / m)) ** q
                    k2 = abs(fn.df(1.0)) ** q + m * alpha * abs(fn.df(2.0 / m)) ** q
                    r2 = (0.5 * (1.0 / (conj + 1.0)) ** (1.0 / conj)
                          * (1.0 / (alpha + 1.0)) ** (1.0 / q) * min(k1, k2) ** (1.0 / q))
                    track(r1, r2)
    # global Hoelder bound at m = alpha = 1, asymmetric weights
    for lam, mu in ((2.0, 1.0), (0.5, 5.0), (1.0, 1.0), (0.0, 1.0)):
        for q in (2.0, 3.0):
            r1, _ = thm22_rhs(fn, iv, Params(lam=lam, mu=mu, q=q))
            conj = q / (q - 1.0)
            kernel = ((lam ** (conj + 1.0) + mu ** (conj + 1.0))
                      / ((conj + 1.0) * (lam + mu))) ** (1.0 / conj)
            avg = 0.5 * (abs(fn.df(1.0)) ** q + abs(fn.df(2.0)) ** q)
            r2 = 1.0 / (lam + mu) * kernel * (2.0 * avg) ** (1.0 / q) * 0.5 ** (1.0 / q)
            track(r1, r2)
    report(4, worst <= 1e-12, f"five reduction identities, max rel residual {worst:.3e}")


def test_criterion_5_worked_values():
    iv = Interval(1.0, 2.0)
    r11, _ = thm11_rhs(POW2, iv, Params(lam=2.0, mu=1.0, q=1.0))
    err11 = abs(r11 - 61.0 / 81.0)

    # The equal-weight q=2 value, frozen from the quadrature oracle: the
    # squared-kernel moment of |2t-1| is 1/3, the branch factor is
    # K = 16 + 4 = 20 with the extra (1/(alpha+1))^(1/q) = (1/2)^(1/2),
    # giving (1/2) sqrt(1/3) sqrt(10) = sqrt(5/6).
    r22, branches = thm22_rhs(POW2, iv, Params(q=2.0))
    kernel_sq = kernel_moment(1.0, 1.0, 1.0, "1", "lambda", p_exp=2.0)
    oracle22 = 0.5 * math.sqrt(kernel_sq) * math.sqrt(0.5 * min(branches.values()))
    err22 = max(abs(r22 - oracle22), abs(r22 - math.sqrt(5.0 / 6.0)))

    errdev = max(abs(deviation(POW2, Interval(0.0, 1.0), c, c).lhs_abs - 1.0 / 6.0)
                 for c in (0.5, 1.0, 2.0))
    passed = err11 <= 1e-12 and err22 <= 1e-12 and errdev <= 1e-9
    report(5, passed,
           f"thm11=61/81 ({err11:.1e}), thm22=sqrt(5/6) vs oracle ({err22:.1e}), "
           f"deviation=1/6 ({errdev:.1e})")


def test_criterion_6_propositions():
    worst, checked, mismatch6 = 0.0, 0, 0.0
    all_hold = True
    for a in (0.5, 1.0, 1.5):
        for b in (2.0, 3.0):
            for lam, mu in WEIGHT_PAIRS:
                for prop, qs, ns in ((1, (1.0, 2.0), (2, 3, -2)),
                                     (2, (2.0,), (2, 3, -2)),
                                     (3, (2.0,), (2, 3, -2)),
                                     (4, (1.0, 2.0), (None,)),
                                     (5, (2.0,), (None,)),
                                     (6, (2.0,), (None,))):
                    for q in qs:
                        for n in ns:
                            p = Params(lam=lam, mu=mu, q=q)
                            res = proposition_check(prop, a, b, p, n=n)
                            checked += 1
                            all_hold = all_hold and res.holds
                            rel = res.residual / max(1.0, res.corollary_rhs)
                            if prop == 6:
                                # documented finding: the displayed mean form
                                # carries a spurious (1/2)^(1/q) factor
                                ratio = res.mean_rhs / res.corollary_rhs
                                mismatch6 = max(mismatch6,
                                                abs(ratio - 0.5 ** (1.0 / q)))
                            else:
                                worst = max(worst, rel)
    passed = worst <= 1e-12 and all_hold and mismatch6 <= 1e-12
    report(6, passed,
           f"{checked} proposition checks, props 1-5 max rel residual {worst:.3e}, "
           f"all hold; prop 6 mean form differs from its bound by exactly "
           f"(1/2)^(1/q) (max deviation from that factor {mismatch6:.3e})")


def test_criterion_7_determinism(tmp_path):
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli.main(["sweep", "default", "-o", str(f1)]) == 0
    assert cli.main(["sweep", "default", "-o", str(f2)]) == 0
    identical = f1.read_bytes() == f2.read_bytes()
    report(7, identical and f1.stat().st_size > 0,
           f"two default sweeps byte-identical ({f1.stat().st_size} bytes)")


def test_criterion_8_swap_symmetry():
    # reflecting f about the interval midpoint swaps the endpoint derivative
    # data, so swapping the weights must leave the bound unchanged (the
    # reflection argument needs m = 1: for m < 1 the stretched evaluation
    # points a/m, b/m do not mirror within the domain)
    rng = np.random.default_rng(20240816)
    fns = sorted(corpus_by_id())
    worst = 0.0
    for _ in range(100):
        fn = corpus_by_id()[fns[rng.integers(len(fns))]]
        lo = max(fn.domain_min, 0.0)
        a = lo + rng.uniform(0.1, 2.0)
        b = a + rng.uniform(0.5, 3.0)
        iv = Interval(a, b)
        p = Params(alpha=rng.uniform(0.1, 1.0), m=1.0,
                   lam=rng.uniform(0.0, 5.0), mu=rng.uniform(0.1, 5.0),
                   q=1.0 + rng.uniform(0.0, 3.0))
        swapped = Params(alpha=p.alpha, m=1.0, lam=p.mu, mu=p.lam, q=p.q)
        r1, _ = thm11_rhs(fn, iv, p)
        r2, _ = thm11_rhs(reflect(fn, iv), iv, swapped)
        worst = max(worst, abs(r1 - r2) / max(1.0, abs(r1)))
    report(8, worst <= 1e-12,
           f"thm11 invariant under (f, lam, mu) -> (reflected f, mu, lam) "
           f"on 100 random m=1 configs, max rel deviation {worst:.3e}")
