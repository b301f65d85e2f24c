"""Batch verification harness: single checks, sweeps, tightness tables, means.

Subcommands: verify | sweep | tightness | means.  Every (function, interval,
params, theorem) cell goes through ``group_rows``: the ``bounds.ROW_COLUMNS``
that ``bounds.assess_group`` (the path behind the library's ``verify``)
computes for one (function, interval) group.  ``_rows`` prefixes the
``INPUT_COLUMNS`` the caller holds, so a ``--jobs`` worker sends back only
what it computed.  A row is a tuple in ``COLUMNS`` order of plain values
(str, int, float, bool or None); only ``eval_row``, the one-cell call,
returns it as a dict keyed by ``COLUMNS``.  ``run_sweep`` yields the rows
one group at a time; the writers format each distinct value of a column
once per batch of rows, floats in shortest round-trip form, so identical
inputs give identical files.

Exit codes: 0 all bounds hold, 1 a violation was found, 2 a convexity gate
failed (hypothesis not satisfied, not a violation), 3 input error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from collections import Counter, namedtuple
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import bounds, coefficients, quadrature
from .core import (HOLDS_SLACK, DomainError, Interval, ParamError, Params, corpus_by_id,
                   make_report)
from .means import BOUND_OF, proposition_check

SCHEMA_VERSION = 1

INPUT_COLUMNS = ("schema", "fn", "a", "b", "alpha", "m", "lambda", "mu", "q", "theorem")
COLUMNS = [*INPUT_COLUMNS, *bounds.ROW_COLUMNS]
# A hand-built row's computed columns: those given by name, None for the rest.
_Computed = namedtuple("_Computed", bounds.ROW_COLUMNS,
                       defaults=(None,) * len(bounds.ROW_COLUMNS))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# ---------------------------------------------------------------------------
# Rows.

def group_rows(fn_id: str, a: float, b: float, params, theorems,
               quad_tol: float = bounds.DEFAULT_LHS_TOL,
               holds_tol: float = HOLDS_SLACK) -> tuple[list, str | None]:
    """The ``bounds.ROW_COLUMNS`` of one (function, interval) group, as lists
    in ``bounds.assess_group``'s order, and the text of its cells' first
    out-of-float-range error (an OverflowError's without its errno), or None."""
    fn = corpus_by_id().get(fn_id)
    if fn is None:
        n = len(params) * len(theorems)
        return [[v] * n for v in _Computed(status="input_error")], None
    cols = bounds.assess_group(fn, a, b, params, theorems, quad_tol, holds_tol)
    errors = dict.fromkeys(cols.error)  # each distinct one (by identity), in cell order
    return list(cols[:len(bounds.ROW_COLUMNS)]), next(
        (str(*e.args[-1:]) for e in errors if isinstance(e, ArithmeticError)), None)


def _rows(fn_id: str, a: float, b: float, cells, result) -> list:
    """The row tuples of one group: its inputs, ``cells`` holding each row's
    (alpha, m, lambda, mu, q, theorem), then the columns of its ``group_rows``
    result; a group that left the float range is named on stderr."""
    columns, overflow = result
    if overflow:
        print(f"warning: {fn_id} [{a}, {b}]: {overflow}", file=sys.stderr)
    head = (SCHEMA_VERSION, fn_id, a, b)
    return [head + cell + computed for cell, computed in zip(cells, zip(*columns))]


def eval_row(fn_id: str, a: float, b: float, alpha: float, m: float,
             lam: float, mu: float, q: float, theorem: str,
             quad_tol: float = bounds.DEFAULT_LHS_TOL,
             holds_tol: float = HOLDS_SLACK) -> dict:
    """The report row of one (config, theorem) cell: a one-cell ``group_rows``."""
    point = [(alpha, m, lam, mu, q)]
    (row,) = _rows(fn_id, a, b, [(*point[0], theorem)],
                   group_rows(fn_id, a, b, point, [theorem], quad_tol, holds_tol))
    return dict(zip(COLUMNS, row))


# ---------------------------------------------------------------------------
# Sweep specification.

@dataclass
class SweepSpec:
    functions: list = field(default_factory=list)
    intervals: list = field(default_factory=list)  # list of (a, b)
    alpha: list = field(default_factory=lambda: [1.0])
    m: list = field(default_factory=lambda: [1.0])
    lam: list = field(default_factory=lambda: [1.0])
    mu: list = field(default_factory=lambda: [1.0])
    q: list = field(default_factory=lambda: [1.0])
    theorems: list = field(default_factory=lambda: list(bounds.THEOREM_IDS))
    quad_tol: float = bounds.DEFAULT_LHS_TOL
    holds_tol: float = HOLDS_SLACK

    def size(self) -> int:
        return (len(self.functions) * len(self.intervals) * len(self.alpha)
                * len(self.m) * len(self.lam) * len(self.mu) * len(self.q)
                * len(self.theorems))


def default_sweep_spec() -> SweepSpec:
    """The full acceptance sweep: corpus x intervals x parameter grids."""
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    return SweepSpec(
        functions=sorted(corpus_by_id()),
        intervals=[(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0)],
        alpha=[0.5, 1.0],
        m=[0.5, 1.0],
        lam=grid,
        mu=grid,
        q=[1.0, 2.0, 3.0],
    )


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # NaN has no place in the rows' sort order
        raise ParamError(f"{where}: {text!r} is not a number")
    return value


def parse_sweep_file(path: str) -> SweepSpec:
    """Flat ``key = comma separated values`` format; intervals as a:b pairs."""
    spec = SweepSpec()
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParamError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParamError(f"{path}:{lineno}: expected 'key = values'")
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        items = [s.strip() for s in rest.split(",") if s.strip()]
        where = f"{path}:{lineno}"
        if not items and key in ("functions", "intervals", "theorems", "alpha", "m", "lambda",
                                 "mu", "q"):
            raise ParamError(f"{where}: {key} needs at least one value")
        if key in ("functions", "theorems"):
            setattr(spec, key, items)
        elif key == "intervals":
            pairs = [item.split(":") for item in items]
            if any(len(pair) != 2 for pair in pairs):
                raise ParamError(f"{where}: intervals must be a:b pairs")
            spec.intervals = [(_number(a, where), _number(b, where)) for a, b in pairs]
        elif key in ("alpha", "m", "lambda", "mu", "q"):
            setattr(spec, "lam" if key == "lambda" else key,
                    [_number(s, where) for s in items])
        elif key in ("quad_tol", "holds_tol"):
            if len(items) != 1:
                raise ParamError(f"{where}: {key} takes one value")
            setattr(spec, key, _number(items[0], where))
        else:
            raise ParamError(f"{where}: unknown key {key!r}")
    if not spec.functions or not spec.intervals:
        raise ParamError(f"{path}: functions and intervals must be non-empty")
    quadrature.check_tol(spec.quad_tol, f"{path}: quad_tol")
    if math.isinf(spec.holds_tol):  # a negative one is legal
        raise ParamError(f"{path}: holds_tol must be finite, got {spec.holds_tol}")
    return spec


_row_sort_key = itemgetter(*range(1, len(INPUT_COLUMNS)))  # the inputs after schema
_THEOREM, _STATUS, _SLACK, _HOLDS = map(COLUMNS.index, ("theorem", "status", "slack", "holds"))


def run_sweep(spec: SweepSpec, jobs: int = 1, summary: dict | None = None):
    """Yield the rows of the cross product in ``_row_sort_key`` order, ties in
    spec order; once all have gone by, ``summary`` (if given) holds the count
    of every status and the minimum observed slack.  The (function, interval)
    groups run in sorted order on at most ``min(jobs, groups)`` processes;
    groups whose keys compare equal (a repeated interval, -0.0 beside 0.0)
    form a tie class, evaluated and stable-sorted before the next one runs."""
    params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
    cells = [(*p, t) for p, t in itertools.product(params, spec.theorems)]
    # every group has these cells: rank places each among the distinct keys (-0.0 == 0.0)
    place = {key: i for i, key in enumerate(sorted(set(cells)))}
    rank = np.array([place[cell] for cell in cells])
    groups = sorted((f, a, b) for f, (a, b) in itertools.product(spec.functions, spec.intervals))
    sizes = [len(list(tied)) for _, tied in itertools.groupby(groups)]
    counts, tightest = Counter(), None
    workers = min(jobs, len(groups))
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        tasks = [(*g, params, spec.theorems, spec.quad_tol, spec.holds_tol) for g in groups]
        results = zip(groups, pool.map(group_rows, *zip(*tasks)) if pool
                      else itertools.starmap(group_rows, tasks))
        for size in sizes:
            tied = [row for group, result in itertools.islice(results, size)
                    for row in _rows(*group, cells, result)]
            rows = [tied[i] for i in np.argsort(np.tile(rank, size), kind="stable")]
            counts.update(row[_STATUS] for row in rows)
            ok = [row for row in rows if row[_STATUS] == "ok"]
            if ok:  # min keeps the first of equal slacks, so ties go to the earliest row
                tightest = min([tightest, *ok] if tightest else ok, key=itemgetter(_SLACK))
            yield from rows
    if summary is not None:
        summary.update(total=sum(counts.values()), holds=counts["ok"],
                       violations=counts["violation"],
                       **{s: counts[s] for s in ("gate_skipped", "not_applicable", "input_error")},
                       min_slack=tightest and tightest[_SLACK],
                       min_slack_config=tightest and _row_sort_key(tightest))


# ---------------------------------------------------------------------------
# Output helpers: each writes an iterable of row tuples to a text file.

BATCH_ROWS = 256  # rows formatted together; a batch's texts go once it is written


def _text_batches(rows, formats):
    """The rows as texts, cell i by ``formats[i]``, in batches of ``BATCH_ROWS``; a
    column of a batch whose cells have one plain type, None aside (1 == 1.0 == True),
    and one sign of zero (0.0 == -0.0) is formatted once per distinct value."""
    rows = iter(rows)
    while batch := list(itertools.islice(rows, BATCH_ROWS)):
        texts = []
        for column, fmt in zip(zip(*batch), formats):
            kinds = set(map(type, column)) - {type(None)}
            zero_signs = {math.copysign(1.0, v) for v in column if v == 0} if (
                kinds == {float} and 0.0 in column) else ()
            if len(kinds) <= 1 and kinds <= {float, int, bool, str} and len(zero_signs) < 2:
                fmt = {v: fmt(v) for v in set(column)}.__getitem__
            texts.append(map(fmt, column))
        yield zip(*texts)


def write_csv(rows, out) -> None:
    """The bytes of ``csv.writer(out, lineterminator="\\n")`` writing the
    header and the rows, only the bool ``holds`` through ``_fmt``."""
    # writerow returns what write returns: here, the line
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def cell(v) -> str:  # csv writes a float as its repr, and None as ""
        return repr(v) if type(v) is float else line((v, None))[:-2]
    formats = [cell] * len(COLUMNS)
    formats[_HOLDS] = lambda v: cell(_fmt(v))
    out.write(line(COLUMNS))
    for batch in _text_batches(rows, formats):
        out.write("\n".join(map(",".join, batch)) + "\n")


def write_json(rows, out) -> None:
    """The bytes of ``json.dumps(dicts, indent=2) + "\\n"``, the rows as dicts keyed
    by ``COLUMNS``: each row's texts fill one template, the brackets go between."""
    def cell(v) -> str:  # json writes a finite float as its repr
        return repr(v) if type(v) is float and math.isfinite(v) else json.dumps(v)
    row = ",\n    ".join(f"{json.dumps(c)}: %s" for c in COLUMNS)
    before, between = "[\n  {\n    ", "\n  },\n  {\n    "
    for batch in _text_batches(rows, [cell] * len(COLUMNS)):
        out.write(before + between.join(map(row.__mod__, batch)))
        before = between
    out.write("[]\n" if before.startswith("[") else "\n  }\n]\n")


def _emit_rows(rows, fmt: str, out) -> None:
    if fmt == "csv":
        write_csv(rows, out)
    elif fmt == "json":
        write_json(rows, out)
    else:
        for row in rows:
            pairs = (f"{c}={_fmt(v)}" for c, v in zip(COLUMNS, row) if v is not None)
            out.write("  ".join(pairs) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_verify(args) -> int:
    row = eval_row(args.fn, args.a, args.b, args.alpha, args.m, args.lam,
                   args.mu, args.q, args.theorem, quad_tol=args.tol)
    _emit_rows([tuple(row.values())], args.format, sys.stdout)
    if args.crosscheck and row["status"] in ("ok", "violation"):
        residual = crosscheck_coefficients(args.alpha, args.lam, args.mu)
        print(f"crosscheck: max gamma deviation from quadrature oracle = {residual:.3e}")
    return {"ok": 0, "violation": 1, "gate_skipped": 2}.get(row["status"], 3)


def crosscheck_coefficients(alpha: float, lam: float, mu: float) -> float:
    """Largest deviation of the closed-form kernel moments from quadrature."""
    g = coefficients.gamma_coeffs(alpha, lam, mu)
    pairs = [
        (g["gamma1"], quadrature.kernel_moment(alpha, lam, mu, "t^alpha", "lambda")),
        (g["gamma2"], quadrature.kernel_moment(alpha, lam, mu, "1-t^alpha", "lambda")),
        (g["gamma3"], quadrature.kernel_moment(alpha, lam, mu, "t^alpha", "mu")),
        (g["gamma4"], quadrature.kernel_moment(alpha, lam, mu, "1-t^alpha", "mu")),
    ]
    return max(abs(c - o) for c, o in pairs)


def cmd_sweep(args) -> int:
    try:
        spec = default_sweep_spec() if args.spec == "default" else parse_sweep_file(args.spec)
        if args.jobs < 1:
            raise ParamError(f"--jobs must be at least 1, got {args.jobs}")
        output = (open(args.output, "w", encoding="utf-8", newline="") if args.output
                  else nullcontext(sys.stdout))
    except (ParamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    with output as out:
        print(f"sweep: {spec.size()} rows "
              f"({len(spec.functions)} functions x {len(spec.intervals)} intervals x "
              f"{len(spec.alpha)}x{len(spec.m)} (alpha,m) x "
              f"{len(spec.lam)}x{len(spec.mu)} weights x {len(spec.q)} q x "
              f"{len(spec.theorems)} theorems)")
        summary = {}
        _emit_rows(run_sweep(spec, args.jobs, summary), args.format, out)

    print(f"total={summary['total']} holds={summary['holds']} "
          f"violations={summary['violations']} gate_skipped={summary['gate_skipped']} "
          f"not_applicable={summary['not_applicable']} "
          f"input_error={summary['input_error']}")
    if summary["min_slack"] is not None:
        print(f"min_slack={_fmt(summary['min_slack'])} at {summary['min_slack_config']}")
    return 1 if summary["violations"] else 0


def cmd_tightness(args) -> int:
    theorems = [t.strip() for t in args.theorems.split(",") if t.strip()]
    if len(theorems) < 2:
        print("error: tightness needs at least two theorems", file=sys.stderr)
        return 3
    point = [(args.alpha, args.m, args.lam, args.mu, args.q)]
    rows = _rows(args.fn, args.a, args.b, [(*point[0], t) for t in theorems],
                 group_rows(args.fn, args.a, args.b, point, theorems, args.tol))
    # Baseline: the classical endpoint-average upper bound on the integral mean.
    try:
        fn = corpus_by_id()[args.fn]
        iv = Interval(args.a, args.b)
        lower, upper = bounds.bound_hh(fn, iv)
        mean, err = bounds.integral_mean(fn, iv, args.tol)
        r = make_report("hh_upper", mean, upper, err)
        rows.append(rows[0][:_THEOREM] + ("hh_upper",) + _Computed(
            status="ok", lhs=r.lhs, rhs=r.rhs, slack=r.slack, holds=r.holds,
            quad_error=r.quad_error, branch1=lower))
    except (KeyError, ParamError, DomainError):
        pass  # group_rows has already marked these rows input_error or not_applicable
    except ArithmeticError:  # a value out of float range: the baseline is an input error
        rows.append(rows[0][:_THEOREM] + ("hh_upper",) + _Computed(status="input_error"))

    ranked = sorted((r for r in rows if r[_STATUS] in ("ok", "violation")),
                    key=itemgetter(_SLACK))
    _emit_rows(rows, args.format, sys.stdout)
    if ranked:
        print(f"tightest: {ranked[0][_THEOREM]} (slack={_fmt(ranked[0][_SLACK])})")
    if any(r[_STATUS] == "violation" for r in rows):
        return 1
    if any(r[_STATUS] == "input_error" for r in rows):
        return 3
    return 0


def cmd_means(args) -> int:
    try:
        p = Params(alpha=1.0, m=1.0, lam=args.lam, mu=args.mu, q=args.q)
        result = proposition_check(args.prop, args.a, args.b, p, n=args.n)
    except (ParamError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = {"schema": SCHEMA_VERSION, **asdict(result)}
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key}={_fmt(value)}")
    return 0 if result.holds else 1


# ---------------------------------------------------------------------------

def _add_point_flags(sub) -> None:
    sub.add_argument("--fn", required=True, help="corpus function id")
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--b", type=float, required=True)
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--m", type=float, default=1.0)
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--mu", type=float, default=1.0)
    sub.add_argument("--q", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=bounds.DEFAULT_LHS_TOL)
    sub.add_argument("--format", choices=["json", "csv", "text"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hh-verify",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="check one bound on one configuration")
    _add_point_flags(p_verify)
    p_verify.add_argument("--theorem", required=True, choices=bounds.THEOREM_IDS)
    p_verify.add_argument("--crosscheck", action="store_true",
                          help="also check coefficients against the quadrature oracle")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = subs.add_parser("sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("spec", help="spec file path, or 'default' for the acceptance sweep")
    p_sweep.add_argument("--output", "-o", help="write CSV/JSON here instead of stdout")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_tight = subs.add_parser("tightness", help="rank several bounds on one configuration")
    _add_point_flags(p_tight)
    p_tight.add_argument("--theorems", required=True,
                         help="comma separated theorem ids (at least two)")
    p_tight.set_defaults(func=cmd_tightness)

    p_means = subs.add_parser("means", help="check one special-means proposition")
    p_means.add_argument("--prop", type=int, required=True, choices=list(BOUND_OF))
    p_means.add_argument("--a", type=float, required=True)
    p_means.add_argument("--b", type=float, required=True)
    p_means.add_argument("--n", type=int, default=None,
                         help="power exponent for propositions 1-3 (|n| >= 2)")
    p_means.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_means.add_argument("--mu", type=float, default=1.0)
    p_means.add_argument("--q", type=float, default=1.0)
    p_means.add_argument("--format", choices=["json", "text"], default="text")
    p_means.set_defaults(func=cmd_means)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 3 if exc.code else 0
    try:
        quadrature.check_tol(getattr(args, "tol", 1.0), "--tol")
        return args.func(args)
    except (ParamError, DomainError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
