"""The benchmark's workloads and their inputs, made from the seed alone.

Nothing here imports hhverify: the same descriptions feed the measured child
process, which turns them into program calls, and the checks, which derive
the expected outputs from them independently.
"""

from __future__ import annotations

import random
from typing import NamedTuple

THEOREMS = ("da", "sso", "bop_m", "bop_am", "thm11", "thm211", "thm22")
CORPUS_IDS = ("exp", "pow2", "pow3", "pow4", "pown2", "recip", "sinh", "xlogx")
SPEC_KEYS = ("functions", "intervals", "alpha", "m", "lambda", "mu", "q", "theorems")

class Workload(NamedTuple):
    kind: str  # "sweep" or "oracle"
    fmt: str | None = None  # the sweep's --format
    jobs: int = 1  # the sweep's --jobs
    builtin_spec: bool = False  # the argv names the built-in 'default' spec
    ref_fmt: str | None = None  # format of the untimed serial sweep the checks compare with


WORKLOADS = {
    "default_serial": Workload("sweep", "csv", 1, True, "json"),
    "default_jobs2": Workload("sweep", "csv", 2, True, "csv"),
    "dense_json": Workload("sweep", "json", 1, False, "csv"),
    "oracle": Workload("oracle"),
}


def default_spec() -> dict:
    """The acceptance sweep ``hh-verify sweep default`` runs (67,200 rows)."""
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    return {
        "functions": list(CORPUS_IDS),
        "intervals": [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0)],
        "alpha": [0.5, 1.0],
        "m": [0.5, 1.0],
        "lambda": grid,
        "mu": grid,
        "q": [1.0, 2.0, 3.0],
        "theorems": list(THEOREMS),
    }


def dense_spec(seed: int) -> dict:
    """A fine (alpha, m, q) grid over the whole corpus with two weight pairs.

    28,672 rows and about 2,600 distinct convexity-gate calls, against 493
    for the default sweep's 67,200 rows.  Intervals start at 0.5 or above
    and q stays at most 3: closer to 0 or with larger q the gate raises on
    pown2 instead of returning a verdict.  The seed only permutes the order
    of the values in every list and of the lines in the spec file; the set
    of rows, and so the output, is the same for every seed.
    """
    spec = {
        "functions": list(CORPUS_IDS),
        "intervals": [(0.5, 1.5), (1.0, 2.0), (1.0, 3.0), (2.0, 4.0)],
        "alpha": [0.25, 0.5, 0.75, 1.0],
        "m": [0.25, 0.5, 0.75, 1.0],
        "lambda": [0.0, 1.0],
        "mu": [1.0],
        "q": [1.0, 1.5, 2.0, 3.0],
        "theorems": list(THEOREMS),
    }
    return _permuted(spec, seed)


def small_spec(seed: int) -> dict:
    """A reduced sweep for the benchmark's own tests: every status occurs."""
    spec = {
        "functions": ["pow2", "recip", "exp", "xlogx"],
        "intervals": [(0.0, 1.0), (1.0, 2.0)],
        "alpha": [0.5, 1.0],
        "m": [0.5, 1.0],
        "lambda": [0.0, 1.0, 2.0],
        "mu": [0.0, 1.0],
        "q": [1.0, 2.0],
        "theorems": list(THEOREMS),
    }
    return _permuted(spec, seed)


def _permuted(spec: dict, seed: int) -> dict:
    rng = random.Random(seed)
    keys = list(spec)
    rng.shuffle(keys)
    out = {}
    for key in keys:
        values = list(spec[key])
        rng.shuffle(values)
        out[key] = values
    return out


def spec_rows(spec: dict) -> int:
    n = 1
    for key in SPEC_KEYS:
        n *= len(spec[key])
    return n


def spec_text(spec: dict) -> str:
    """The spec in the flat ``key = v1, v2`` format ``hh-verify sweep`` reads."""
    lines = []
    for key in spec:
        if key == "intervals":
            values = [f"{a!r}:{b!r}" for a, b in spec[key]]
        elif key in ("functions", "theorems"):
            values = list(spec[key])
        else:
            values = [repr(v) for v in spec[key]]
        lines.append(f"{key} = {', '.join(values)}")
    return "\n".join(lines) + "\n"


def sweep_spec(workload: str, seed: int, small: bool) -> dict:
    if small:
        return small_spec(seed)
    return default_spec() if WORKLOADS[workload].builtin_spec else dense_spec(seed)


# ---------------------------------------------------------------------------
# oracle

# Lemma 2.1 and integrate run on fixed intervals: their cost near the
# singularity changes by 5x with a small move of the start or of the
# weights, which a sampled point would turn into run-to-run spread.
SINGULAR_STARTS = (1e-3, 1e-4, 1e-5)
REGULAR_INTERVALS = ((0.0, 1.0), (1e-3, 1.0), (0.5, 2.0))
LEMMA_WEIGHTS = ((1.0, 1.0), (3.0, 1.0), (1.0, 4.0), (0.0, 1.0))
SINGULAR_IDS = ("pown2", "recip", "xlogx")
KM_ALPHAS = (0.25, 0.5, 0.75, 1.0)
KM_FIXED_PAIRS = ((0.0, 1.0), (2.0, 0.0), (1.0, 1.0))
KM_TOTALS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 7.0)

# The integrand x^-1/2 on [0, 1] at tol 1e-12: quadrature.integrate stops at
# its panel-width floor and reports converged=True with an error estimate
# near 4.2e-9, above tol.  Kept as the one operation expected to fail.
SQRT_OP = ("integrate_rsqrt", 0.0, 1.0, 1e-12)


def corpus_intervals(fn_id: str) -> list[tuple[float, float]]:
    if fn_id in SINGULAR_IDS:
        return [(a, 1.0) for a in SINGULAR_STARTS]
    return list(REGULAR_INTERVALS)


def oracle_ops(seed: int, small: bool = False) -> list[tuple]:
    """Every operation of one oracle round, in call order.

    Sampled from the seed: the weight pairs of the kernel moments (the kink
    position lam/(lam+mu), with lam+mu fixed per pair) and the points of the
    special-means propositions.  Everything else is fixed.
    """
    rng = random.Random(seed)
    totals = KM_TOTALS[:2] if small else KM_TOTALS
    pairs = list(KM_FIXED_PAIRS)
    for total in totals:
        k = rng.uniform(0.05, 0.95)
        pairs.append((k * total, (1.0 - k) * total))

    ops: list[tuple] = []
    for lam, mu in pairs:
        for p in (1.0, 1.5, 2.0, 2.5, 3.0):
            for switch in ("lambda", "mu"):
                ops.append(("kernel_moment", 1.0, lam, mu, "1", switch, p))
        for alpha in KM_ALPHAS:
            for weight in ("t^alpha", "1-t^alpha"):
                for p in (1.0, 2.0, 3.0):
                    for switch in ("lambda", "mu"):
                        ops.append(("kernel_moment", alpha, lam, mu, weight, switch, p))

    ids = ("pow2", "pown2") if small else CORPUS_IDS
    for fn_id in ids:
        for a, b in corpus_intervals(fn_id)[: 2 if small else None]:
            for lam, mu in LEMMA_WEIGHTS:
                ops.append(("lemma21", fn_id, a, b, lam, mu))
            for tol in (1e-9, 1e-11):
                ops.append(("integrate", fn_id, a, b, tol))

    for _ in range(4 if small else 24):
        a = rng.uniform(0.5, 2.0)
        b = a + rng.uniform(0.25, 2.0)
        lam = rng.uniform(0.25, 4.0)
        mu = rng.uniform(0.25, 4.0)
        q = rng.choice((1.5, 2.0, 3.0))
        n = rng.choice((-3, -2, 2, 3, 4))
        for prop in (1, 2, 3):
            ops.append(("proposition", prop, a, b, lam, mu, q, n))
        for prop in (4, 5, 6):
            ops.append(("proposition", prop, a, b, lam, mu, q, None))
        ops.append(("proposition", 1, a, b, lam, mu, 1.0, n))
        ops.append(("proposition", 4, a, b, lam, mu, 1.0, None))

    ops.append(SQRT_OP)
    return ops
