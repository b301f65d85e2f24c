"""Correctness checks of the program's outputs, made apart from the program.

Nothing here imports hhverify.  The expected values come from the
benchmark's own antiderivatives and derivatives of the eight corpus
functions, its own closed forms of the kernel moments and the special means,
and the spec each sweep was run from.  Every check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

from workloads import SPEC_KEYS

QUADRATIC_ONLY = ("bop_m", "thm211", "thm22")  # need q > 1
DOMAIN_MIN = 1e-12  # where pown2, recip and xlogx start being defined
SWEEP_FLOATS = ("a", "b", "alpha", "m", "lambda", "mu", "q", "lhs", "rhs", "slack",
                "quad_error", "branch1", "branch2", "rhs_loose", "gate_violation")
MAX_PROBLEMS = 20


def _xlogx_antiderivative(x):
    return 0.0 if x == 0 else 0.5 * x * x * math.log(x) - 0.25 * x * x


# id -> (f, f', an antiderivative of f, lower end of the domain)
CORPUS = {
    "pow2": (lambda x: x ** 2, lambda x: 2.0 * x, lambda x: x ** 3 / 3.0, 0.0),
    "pow3": (lambda x: x ** 3, lambda x: 3.0 * x ** 2, lambda x: x ** 4 / 4.0, 0.0),
    "pow4": (lambda x: x ** 4, lambda x: 4.0 * x ** 3, lambda x: x ** 5 / 5.0, 0.0),
    "pown2": (lambda x: 1.0 / (x * x), lambda x: -2.0 / x ** 3, lambda x: -1.0 / x,
              DOMAIN_MIN),
    "recip": (lambda x: 1.0 / x, lambda x: -1.0 / (x * x), math.log, DOMAIN_MIN),
    "exp": (math.exp, math.exp, math.exp, 0.0),
    "xlogx": (lambda x: x * math.log(x), lambda x: math.log(x) + 1.0,
              _xlogx_antiderivative, DOMAIN_MIN),
    "sinh": (math.sinh, math.cosh, math.cosh, 0.0),
}


def exact_integral(fn_id: str, a: float, b: float) -> float:
    antiderivative = CORPUS[fn_id][2]
    return antiderivative(b) - antiderivative(a)


# ---------------------------------------------------------------------------
# sweeps

def read_csv_rows(path) -> tuple[list[str], list[dict], list[str]]:
    """The header, rows with typed values, and the problems found: float
    cells whose text is not the shortest repr of the float it parses to.
    A cell that is no number at all is kept as text (see ``malformed_rows``).
    """
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for line in reader:
            row = dict(zip(header, line))
            for col in SWEEP_FLOATS:
                text = row[col]
                if text == "":
                    row[col] = None
                    continue
                try:
                    row[col] = float(text)
                except ValueError:
                    continue
                if repr(row[col]) != text and len(problems) < MAX_PROBLEMS:
                    problems.append(f"CSV float {text!r} does not round-trip")
            row["schema"] = int(row["schema"])
            row["holds"] = {"true": True, "false": False, "": None}[row["holds"]]
            rows.append(row)
    return header, rows, problems


def read_json_rows(path) -> tuple[list[str], list[dict], list[str]]:
    problems = []

    def parse_float(text):
        value = float(text)
        if repr(value) != text and len(problems) < MAX_PROBLEMS:
            problems.append(f"JSON float {text!r} does not round-trip")
        return value

    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh, parse_float=parse_float)
    header = list(rows[0]) if rows else []
    return header, rows, problems


def read_rows(path, fmt: str):
    return read_csv_rows(path) if fmt == "csv" else read_json_rows(path)


def malformed_rows(rows: list) -> set[int]:
    """Indices of rows with something other than a float in a float column:
    rows the program failed to write, which count as failed operations."""
    return {i for i, row in enumerate(rows)
            if any(not (row[c] is None or type(row[c]) is float) for c in SWEEP_FLOATS)}


def _key(row) -> tuple:
    return (row["fn"], row["a"], row["b"], row["alpha"], row["m"],
            row["lambda"], row["mu"], row["q"], row["theorem"])


def expected_status(fn_id, a, m, lam, mu, q, theorem) -> str:
    """not_applicable, input_error, or 'evaluated' (ok or gate_skipped)."""
    if theorem in QUADRATIC_ONLY and q == 1:
        return "not_applicable"
    if lam == 0 and mu == 0:
        return "input_error"
    if min(a, a / m) < CORPUS[fn_id][3]:
        return "not_applicable"
    return "evaluated"


def expected_lhs(row) -> tuple[float, float]:
    """The LHS from the antiderivative, and the size of the terms it came from."""
    f = CORPUS[row["fn"]][0]
    a, b = row["a"], row["b"]
    mean = exact_integral(row["fn"], a, b) / (b - a)
    if row["theorem"] == "sso":
        return mean, abs(mean)
    wl, wm = ((row["lambda"], row["mu"]) if row["theorem"] in ("thm11", "thm211", "thm22")
              else (1.0, 1.0))
    endpoint = (wl * f(a) + wm * f(b)) / (wl + wm)
    return abs(endpoint - mean), abs(endpoint) + abs(mean)


def check_sweep(rows: list, spec: dict) -> list[str]:
    problems = []

    def bad(msg):
        if len(problems) < MAX_PROBLEMS:
            problems.append(msg)

    expected = sorted((fn, a, b, *rest) for fn, (a, b), *rest
                      in itertools.product(*(spec[k] for k in SPEC_KEYS)))
    if len(rows) != len(expected):
        bad(f"{len(rows)} rows, the spec's lists give {len(expected)}")
    keys = [_key(r) for r in rows]
    if keys != sorted(keys):
        bad("rows are not sorted")
    elif keys != expected:
        bad("the rows' configurations differ from the spec's cross product")

    da_rhs = {}
    thm11_at_da = []
    for row in rows:
        key = _key(row)
        fn_id, a, b, alpha, m, lam, mu, q, theorem = key
        status = row["status"]
        want = expected_status(fn_id, a, m, lam, mu, q, theorem)
        if status == "violation":
            bad(f"violation at {key}")
            continue
        got = status if status in ("not_applicable", "input_error") else "evaluated"
        if got != want or status not in ("ok", "gate_skipped", "not_applicable",
                                         "input_error"):
            bad(f"status {status} at {key}, expected {want}")
            continue
        if status == "gate_skipped" and not (row["gate_violation"] or 0.0) > 0.0:
            bad(f"gate_skipped without a positive gate_violation at {key}")
        if status != "ok":
            continue
        lhs, rhs = row["lhs"], row["rhs"]
        if row["holds"] is not True or row["slack"] != rhs - lhs:
            bad(f"holds/slack inconsistent at {key}")
        ref, scale = expected_lhs(row)
        if abs(lhs - ref) > 4.0 * row["quad_error"] + 1e-9 / (b - a) + 1e-12 * scale:
            bad(f"lhs {lhs!r} at {key}, antiderivative gives {ref!r}")
        if theorem == "da":
            df = CORPUS[fn_id][1]
            want_rhs = (b - a) / 8.0 * (abs(df(a)) + abs(df(b)))
            if not math.isclose(rhs, want_rhs, rel_tol=1e-12, abs_tol=1e-300):
                bad(f"da rhs {rhs!r} at {key}, (b-a)/8(|f'(a)|+|f'(b)|) gives {want_rhs!r}")
            da_rhs[(fn_id, a, b)] = rhs
        elif theorem == "thm11" and alpha == 1 and m == 1 and q == 1 and lam == mu:
            thm11_at_da.append(((fn_id, a, b), rhs, key))
    for where, rhs, key in thm11_at_da:
        if where in da_rhs and not math.isclose(rhs, da_rhs[where], rel_tol=1e-12):
            bad(f"thm11 rhs {rhs!r} at {key} does not reduce to da's {da_rhs[where]!r}")
    return problems


def compare_rows(header_a, rows_a, header_b, rows_b) -> list[str]:
    """The same sweep written in two formats parses back to the same values."""
    if header_a != header_b:
        return [f"columns differ: {header_a} vs {header_b}"]
    if len(rows_a) != len(rows_b):
        return [f"{len(rows_a)} rows vs {len(rows_b)}"]
    problems = []
    skip = malformed_rows(rows_a) | malformed_rows(rows_b)  # counted as failed
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if i in skip:
            continue
        for col in header_a:
            va, vb = ra[col], rb[col]
            if va != vb or type(va) is not type(vb):
                problems.append(f"row {i} column {col}: {va!r} vs {vb!r}")
                if len(problems) >= MAX_PROBLEMS:
                    return problems
    return problems


# ---------------------------------------------------------------------------
# oracle

def kernel_moment_exact(alpha, lam, mu, weight, switch, p) -> float:
    """Integral over [0, 1] of |(lam+mu) t - s|^p w(t), split at the kink
    t = s/(lam+mu); for w = t^alpha the power p must be an integer and each
    side is expanded binomially."""
    total = lam + mu
    s = lam if switch == "lambda" else mu
    plain = (s ** (p + 1.0) + (total - s) ** (p + 1.0)) / ((p + 1.0) * total)
    if weight == "1":
        return plain
    k = s / total
    n = int(p)
    left = sum(math.comb(n, j) * s ** (n - j) * (-total) ** j
               * k ** (alpha + j + 1.0) / (alpha + j + 1.0) for j in range(n + 1))
    right = sum(math.comb(n, j) * total ** j * (-s) ** (n - j)
                * (1.0 - k ** (alpha + j + 1.0)) / (alpha + j + 1.0) for j in range(n + 1))
    with_t = left + right
    return with_t if weight == "t^alpha" else plain - with_t


def _check_integral(value, err, converged, tol, exact) -> tuple[bool, str]:
    """(failed, problem): a converged result must meet tol, and the value
    must lie within its error of the exact integral."""
    if converged and err > tol:
        return True, ""
    allowed = 10.0 * max(tol, err) + 1e-14 * abs(exact)
    if abs(value - exact) > allowed:
        return False, f"value {value!r}, exact {exact!r}"
    return False, ""


def check_oracle(ops: list, results: list) -> tuple[int, list[str]]:
    """Returns (operations that failed, problems in the ones that did not)."""
    failed, problems = 0, []
    if len(results) != len(ops):
        return 0, [f"{len(results)} results for {len(ops)} operations"]
    for op, res in zip(ops, results):
        kind = op[0]
        if isinstance(res, dict):
            failed += 1
            continue
        problem = ""
        if kind == "kernel_moment":
            exact = kernel_moment_exact(*op[1:])
            if abs(res - exact) > 1e-9 + 1e-11 * abs(exact):
                problem = f"{res!r}, closed form {exact!r}"
        elif kind == "lemma21":
            _, fn_id, a, b, lam, mu = op
            f = CORPUS[fn_id][0]
            scale = abs(f(a)) + abs(f(b)) + abs(exact_integral(fn_id, a, b)) / (b - a)
            if not 0.0 <= res <= 1e-8 + 1e-13 * scale:
                problem = f"residual {res!r} at scale {scale!r}"
        elif kind in ("integrate", "integrate_rsqrt"):
            value, err, _evals, converged = res
            if kind == "integrate":
                _, fn_id, a, b, tol = op
                exact = exact_integral(fn_id, a, b)
            else:
                _, a, b, tol = op
                exact = 2.0 * (math.sqrt(b) - math.sqrt(a))
            op_failed, problem = _check_integral(value, err, converged, tol, exact)
            failed += op_failed
        else:
            problem = _check_proposition(op, res)
        if problem and len(problems) < MAX_PROBLEMS:
            problems.append(f"{op}: {problem}")
    return failed, problems


def _check_proposition(op, res) -> str:
    _, prop, a, b, lam, mu, q, n = op
    mean_lhs, mean_rhs, corollary_rhs, residual, holds, note = res
    w = lam / (lam + mu)
    if prop <= 3:
        endpoint = w * a ** n + (1.0 - w) * b ** n
        integral_mean = (b ** (n + 1) - a ** (n + 1)) / ((n + 1) * (b - a))
    else:
        endpoint = w / a + (1.0 - w) / b
        integral_mean = (math.log(b) - math.log(a)) / (b - a)
    lhs = abs(endpoint - integral_mean)
    if abs(mean_lhs - lhs) > 1e-12 * (abs(endpoint) + abs(integral_mean)):
        return f"mean_lhs {mean_lhs!r}, exact {lhs!r}"
    if not (holds and mean_lhs <= corollary_rhs):
        return "does not hold"
    if prop == 6:
        ratio = mean_rhs / corollary_rhs
        if not note or abs(ratio - 0.5 ** (1.0 / q)) > 1e-12:
            return f"mean form / bound = {ratio!r} without the documented (1/2)^(1/q) note"
    elif residual > 1e-12 * max(1.0, abs(corollary_rhs)) or note:
        return f"residual {residual!r} is not at rounding level"
    return ""
