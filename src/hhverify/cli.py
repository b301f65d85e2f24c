"""Batch verification harness: single checks, sweeps, tightness tables, means.

Subcommands: verify | sweep | tightness | means.  A sweep admits its (params,
theorem) cells once (``bounds.admit``) and runs in one process: every (function,
interval) group of them goes through ``_assess``, the typed ``bounds.Columns`` that
``bounds.assess_group`` (the path behind the library's ``verify``) computes, status
codes and float64 values with presence masks.  ``run_sweep`` yields one ``Table`` per
tie class of groups, in row order: the groups' heads (schema, fn, a, b), the sweep's
one list of cells (alpha, m, lambda, mu, q, theorem), the row order and the typed
columns in that order.  The writers format the cells once per sweep, a head once per
group, a status code's texts (holds among them) once per writer and a float column
once per distinct 64-bit value, floats in shortest round-trip form, and join the
texts row by row, so identical inputs give identical files.  ``verify``,
``tightness``, ``eval_row`` and ``--format text`` read plain values (``Columns.plain``).
The LHS quadrature tolerance (``bounds.DEFAULT_LHS_TOL``) and the slack a row
may miss by (``core.HOLDS_SLACK``) are constants: no flag or spec key sets them.

Exit codes: 0 all bounds hold, 1 a violation was found, 2 a convexity gate failed (not a
violation), 3 an input error or output that cannot be written (a full disk, a closed pipe).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from collections import namedtuple
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from . import bounds, coefficients, quadrature
from .core import DomainError, Interval, ParamError, Params, corpus_by_id, judge
from .means import BOUND_OF, proposition_check

SCHEMA_VERSION = 1

INPUT_COLUMNS = ("schema", "fn", "a", "b", "alpha", "m", "lambda", "mu", "q", "theorem")
COLUMNS = [*INPUT_COLUMNS, *bounds.ROW_COLUMNS]
_SLACK = bounds.FLOAT_COLUMNS.index("slack")
Table = namedtuple("Table", ("heads", "cells", "order", "columns"))


def _fmt(v) -> str:
    return "" if v is None else ("true" if v else "false") if isinstance(v, bool) else str(v)


# ---------------------------------------------------------------------------
# Rows.

def _assess(fn_id: str, a: float, b: float, cells: bounds.Cells) -> bounds.Columns:
    """``bounds.assess_group`` of one (function, interval) group's ``cells``; an unknown
    function makes each cell an input_error."""
    fn = corpus_by_id().get(fn_id)
    if fn is None:
        cols = bounds.Columns.empty(cells.status.size)
        cols.error[:] = ParamError(f"unknown function {fn_id!r}")
        return cols
    return bounds.assess_group(fn, a, b, cells)


def _take(parts, order) -> bounds.Columns:
    """The typed columns of ``parts`` one after another, taken in ``order``."""
    return bounds.Columns(*(np.concatenate(arrays, axis=-1)[..., order]
                            for arrays in zip(*(part[:3] for part in parts))))


def _rows(table: Table, heads: list, cells: list, columns):
    """Each row i of ``table`` as (``heads[order[i] // len(table.cells)]``, ``cells[order[i]
    % len(table.cells)]``, *its values of ``columns``): the table's own heads, cells and
    plain columns, or texts."""
    group, cell = np.divmod(table.order, max(len(table.cells), 1))
    return zip(map(heads.__getitem__, group.tolist()), map(cells.__getitem__, cell.tolist()),
               *columns)


def _point_table(args, theorems, named=()) -> Table:
    """The one-group table of the point flags' ``args`` under each of ``theorems``, rows in
    cell order; each distinct input error of its rows, then of ``named``, goes to stderr."""
    point = (args.alpha, args.m, args.lam, args.mu, args.q)
    cols = _assess(args.fn, args.a, args.b, bounds.admit([point], theorems))
    warning = f"warning: {args.fn} [{args.a}, {args.b}]:"  # a value out of float range
    errors = dict.fromkeys([*cols.error[cols.status == bounds.INPUT_ERROR].tolist(), *named])
    for line in dict.fromkeys(f"{warning if isinstance(e, ArithmeticError) else 'error:'} "
                              f"{str(*e.args[-1:])}" for e in errors):
        print(line, file=sys.stderr)
    cells = [(*point, t) for t in theorems]
    return Table([(SCHEMA_VERSION, args.fn, args.a, args.b)], cells, np.arange(len(cells)), cols)


def eval_row(fn_id: str, a: float, b: float, alpha: float, m: float,
             lam: float, mu: float, q: float, theorem: str) -> dict:
    """The report row of one (config, theorem) cell, keyed by ``COLUMNS``."""
    args = SimpleNamespace(fn=fn_id, a=a, b=b, alpha=alpha, m=m, lam=lam, mu=mu, q=q)
    table = _point_table(args, [theorem])
    ((head, cell, *values),) = _rows(table, table.heads, table.cells, table.columns.plain())
    return dict(zip(COLUMNS, (*head, *cell, *values)))


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

    def size(self) -> int:
        return math.prod(map(len, (self.functions, self.intervals, self.alpha, self.m, self.lam,
                                   self.mu, self.q, self.theorems)))


def default_sweep_spec() -> SweepSpec:
    """The full acceptance sweep: corpus x intervals x parameter grids."""
    grid = [0.0, 0.5, 1.0, 2.0, 5.0]
    return SweepSpec(
        functions=sorted(corpus_by_id()),
        intervals=[(0.0, 1.0), (1.0, 2.0), (0.5, 3.0), (2.0, 5.0)],
        alpha=[0.5, 1.0], m=[0.5, 1.0], lam=grid, mu=grid, q=[1.0, 2.0, 3.0])


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
        if key not in ("functions", "intervals", "theorems", "alpha", "m", "lambda", "mu", "q"):
            raise ParamError(f"{where}: unknown key {key!r}")
        if not items:
            raise ParamError(f"{where}: {key} needs at least one value")
        if key in ("functions", "theorems"):
            setattr(spec, key, items)
        elif key == "intervals":
            pairs = [item.split(":") for item in items]
            if any(len(pair) != 2 for pair in pairs):
                raise ParamError(f"{where}: intervals must be a:b pairs")
            spec.intervals = [(_number(a, where), _number(b, where)) for a, b in pairs]
        else:
            setattr(spec, "lam" if key == "lambda" else key, [_number(s, where) for s in items])
    if not spec.functions or not spec.intervals:
        raise ParamError(f"{path}: functions and intervals must be non-empty")
    return spec


def run_sweep(spec: SweepSpec, summary: dict | None = None):
    """Yield the cross product's rows, in the order of the inputs after schema and
    ties in spec order, as one ``Table`` per tie class: the (function, interval)
    groups whose keys compare equal (a repeated interval, -0.0 beside 0.0), run in
    sorted order and stable-sorted before the next class runs; every table holds the
    one list of cells, admitted once for all the groups.  A group's first
    ``ArithmeticError`` (a value out of float range, or an integral that did not
    converge) is its one ``warning:`` line on stderr.  Once all have gone by,
    ``summary`` (if given) holds the count of every status and the least slack."""
    params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
    cells = [(*p, t) for p, t in itertools.product(params, spec.theorems)]
    # every group has these cells: rank places each among the distinct keys (-0.0 == 0.0)
    place = {key: i for i, key in enumerate(sorted(set(cells)))}
    rank = np.array([place[cell] for cell in cells], dtype=int)
    by_rank = np.argsort(rank, kind="stable")  # the order of a one-group class
    groups = sorted((f, a, b) for f, (a, b) in itertools.product(spec.functions, spec.intervals))
    admitted = bounds.admit(params, spec.theorems)
    counts = np.zeros(len(bounds.STATUSES), int)  # of each status code
    tightest = []  # each table's (min slack, its inputs after schema)
    for _, tied in itertools.groupby(groups):
        tied, parts = list(tied), []
        for fn_id, a, b in tied:
            computed = _assess(fn_id, a, b, admitted)
            warning = next((e for e in dict.fromkeys(computed.error.tolist())
                            if isinstance(e, ArithmeticError)), None)
            if warning is not None:  # an OverflowError's text without the errno
                print(f"warning: {fn_id} [{a}, {b}]: {str(*warning.args[-1:])}", file=sys.stderr)
            parts.append(computed)
        order = by_rank if len(tied) == 1 else np.argsort(
            np.tile(rank, len(tied)), kind="stable")
        columns = _take(parts, order)
        counts += np.bincount(columns.status, minlength=len(counts))
        if len(ok := np.flatnonzero(columns.status == bounds.OK)):
            # the first least slack: an ok row's is a number (judge's <= fails a NaN)
            i = ok[np.argmin(columns.values[_SLACK, ok])]
            g, c = divmod(int(order[i]), len(cells))
            tightest.append((columns.values[_SLACK, i].item(), (*tied[g], *cells[c])))
        yield Table([(SCHEMA_VERSION, *group) for group in tied], cells, order, columns)
    if summary is not None:
        min_slack, config = min(tightest, key=itemgetter(0), default=(None, None))
        counts = dict(zip(bounds.STATUSES, counts.tolist()))
        summary.update(total=sum(counts.values()), holds=counts["ok"],
                       violations=counts["violation"],
                       **{s: counts[s] for s in ("gate_skipped", "not_applicable", "input_error")},
                       min_slack=min_slack, min_slack_config=config)


# ---------------------------------------------------------------------------
# Output helpers: each writes an iterable of tables to a text file.

def _float_texts(values, present, fmt) -> list:
    """``fmt`` of each value of a float64 column, once per distinct 64-bit pattern (so
    -0.0 stays apart from 0.0), and ``fmt(None)`` where ``present`` is False."""
    keys, inverse = np.unique(values[present].view(np.uint64), return_inverse=True)
    index = np.full(len(values), len(keys))  # the text of None where absent
    index[present] = inverse
    texts = [*map(fmt, keys.view(np.float64).tolist()), fmt(None)]
    return np.array(texts, object)[index].tolist()


def _row_texts(tables, formats, sep: str):
    """Yield each row of the tables as its texts, value i by ``formats[i]`` (``COLUMNS``: 4
    of the head, 6 of the cell, then the computed ones), joined by ``sep``; the cells are
    formatted once per cell list (a sweep has one), the heads once per table, the status
    and holds texts of a status code once, and a float column once per distinct value."""
    fmt = dict(zip(bounds.ROW_COLUMNS, formats[10:]))
    code_texts = [np.array(list(map(fmt[c], codes)), object)
                  for c, codes in (("status", bounds.STATUSES), ("holds", bounds.HOLDS))]
    cells, cell_texts = None, []
    for table in tables:
        if table.cells is not cells:
            cells = table.cells
            cell_texts = [sep.join(f(v) for f, v in zip(formats[4:10], cell)) for cell in cells]
        heads = [sep.join(f(v) for f, v in zip(formats, head)) for head in table.heads]
        status, values, present = table.columns[:3]
        texts = dict(zip(bounds.FLOAT_COLUMNS, map(_float_texts, values, present,
                                                   map(fmt.get, bounds.FLOAT_COLUMNS))),
                     status=code_texts[0][status].tolist(), holds=code_texts[1][status].tolist())
        yield from map(sep.join, _rows(table, heads, cell_texts,
                                       map(texts.get, bounds.ROW_COLUMNS)))


def write_csv(tables, out) -> None:
    """The bytes of ``csv.writer(out, lineterminator="\\n")`` writing the
    header and the rows, only the bool ``holds`` through ``_fmt``."""
    # writerow returns what write returns: here, the line
    line = csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow

    def cell(v) -> str:  # csv writes a float as its repr, and None as ""
        return repr(v) if type(v) is float else line((v, None))[:-2]
    formats = [cell] * len(COLUMNS)
    formats[COLUMNS.index("holds")] = lambda v: cell(_fmt(v))
    formats[-1] = lambda v: cell(v) + "\n"  # the last cell ends the line
    out.write(line(COLUMNS))
    out.writelines(_row_texts(tables, formats, ","))


def write_json(tables, out) -> None:
    """The bytes of ``json.dumps(dicts, indent=2) + "\\n"``, the rows as dicts keyed
    by ``COLUMNS``: each cell's text carries its key, the brackets go between rows."""
    def cell(v) -> str:  # json writes a finite float as its repr
        return repr(v) if type(v) is float and math.isfinite(v) else json.dumps(v)
    formats = [lambda v, key=f"{json.dumps(c)}: ": key + cell(v) for c in COLUMNS]
    rows = _row_texts(tables, formats, ",\n    ")
    first = next(rows, None)
    if first is not None:
        out.write("[\n  {\n    " + first)
        out.writelines(map("\n  },\n  {\n    ".__add__, rows))
    out.write("[]\n" if first is None else "\n  }\n]\n")


def _emit(tables, fmt: str, out) -> None:
    if fmt == "csv":
        write_csv(tables, out)
    elif fmt == "json":
        write_json(tables, out)
    else:
        for table in tables:
            for head, cell, *values in _rows(table, table.heads, table.cells,
                                             table.columns.plain()):
                pairs = (f"{c}={_fmt(v)}" for c, v in zip(COLUMNS, (*head, *cell, *values))
                         if v is not None)
                out.write("  ".join(pairs) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_verify(args) -> int:
    table = _point_table(args, [args.theorem])
    _emit([table], args.format, sys.stdout)
    (status,) = table.columns.plain().status
    if args.crosscheck and status in ("ok", "violation"):
        residual = crosscheck_coefficients(args.alpha, args.lam, args.mu)
        print(f"crosscheck: max gamma deviation from quadrature oracle = {residual:.3e}")
    return {"ok": 0, "violation": 1, "gate_skipped": 2}.get(status, 3)


def crosscheck_coefficients(alpha: float, lam: float, mu: float) -> float:
    """Largest deviation of the closed-form kernel moments from quadrature."""
    g = coefficients.gamma_coeffs(alpha, lam, mu)  # gamma1..gamma4, lambda's pair first
    pairs = itertools.product(("lambda", "mu"), ("t^alpha", "1-t^alpha"))
    return max(abs(g[f"gamma{i}"] - quadrature.kernel_moment(alpha, lam, mu, kernel, weight))
               for i, (weight, kernel) in enumerate(pairs, 1))


def cmd_sweep(args) -> int:
    spec = default_sweep_spec() if args.spec == "default" else parse_sweep_file(args.spec)
    if args.jobs < 1:
        raise ParamError(f"--jobs must be at least 1, got {args.jobs}")
    with (open(args.output, "w", encoding="utf-8", newline="") if args.output
          else nullcontext(sys.stdout)) as out:
        print(f"sweep: {spec.size()} rows ({len(spec.functions)} functions x "
              f"{len(spec.intervals)} intervals x {len(spec.alpha)}x{len(spec.m)} (alpha,m) x "
              f"{len(spec.lam)}x{len(spec.mu)} weights x {len(spec.q)} q x {len(spec.theorems)} "
              "theorems)")
        summary = {}
        _emit(run_sweep(spec, summary), args.format, out)

    print(" ".join(f"{key}={summary[key]}" for key in ("total", "holds", "violations",
                   "gate_skipped", "not_applicable", "input_error")))
    if summary["min_slack"] is not None:
        print(f"min_slack={_fmt(summary['min_slack'])} at {summary['min_slack_config']}")
    return 1 if summary["violations"] else 0


def cmd_tightness(args) -> int:
    theorems = [t.strip() for t in args.theorems.split(",") if t.strip()]
    if len(theorems) < 2:
        raise ParamError("tightness needs at least two theorems")
    # Baseline: the classical endpoint-average upper bound on the integral mean.
    baseline, named = bounds.Columns.empty(1), ()
    try:
        fn = corpus_by_id()[args.fn]
        iv = Interval(args.a, args.b)
        lower, upper = bounds.bound_hh(fn, iv)
        mean, err, unconverged = bounds.integral_mean(fn, iv)
        holds, unsettled = judge(mean, upper, err)
        if unconverged is not None and unsettled:
            raise unconverged
        baseline.status[0] = bounds.OK if holds else bounds.VIOLATION
        for name, v in (("lhs", mean), ("rhs", upper), ("slack", upper - mean),
                        ("quad_error", err), ("branch1", lower)):
            baseline.put(0, name, v)
    except (KeyError, ParamError, DomainError):
        baseline = None  # _point_table marks these rows input_error or not_applicable
    except ArithmeticError as exc:  # out of float range, or unsettled: an input error
        named = (exc,)
    table = _point_table(args, theorems, named)
    if baseline is not None:  # one more row: the point's inputs, then the baseline's columns
        cells = [*table.cells, (*table.cells[0][:-1], "hh_upper")]
        order = np.arange(len(cells))
        table = Table(table.heads, cells, order, _take([table.columns, baseline], order))

    plain = table.columns.plain()
    status, slack = plain.status, plain.slack
    # only bounds that hold are ranked: a violation's negative slack is no tightness
    ranked = sorted((i for i, s in enumerate(status) if s == "ok"), key=slack.__getitem__)
    _emit([table], args.format, sys.stdout)
    if ranked:  # a point table's rows are in cell order
        print(f"tightest: {table.cells[ranked[0]][-1]} (slack={_fmt(slack[ranked[0]])})")
    return 1 if "violation" in status else 3 if "input_error" in status else 0


def cmd_means(args) -> int:
    p = Params(alpha=1.0, m=1.0, lam=args.lam, mu=args.mu, q=args.q)
    result = proposition_check(args.prop, args.a, args.b, p, n=args.n)
    payload = {"schema": SCHEMA_VERSION, **asdict(result)}
    print(json.dumps(payload, indent=2) if args.format == "json"
          else "\n".join(f"{key}={_fmt(value)}" for key, value in payload.items()))
    return 0 if result.holds else 1


# ---------------------------------------------------------------------------

def _weight_flags(sub, *flags) -> None:
    for flag in flags:  # lambda is a Python keyword, so --lambda is read into lam
        sub.add_argument(flag, dest=flag[2:].replace("lambda", "lam"), type=float, default=1.0)


def _add_point_flags(sub) -> None:
    sub.add_argument("--fn", required=True, help="corpus function id")
    for flag in ("--a", "--b"):
        sub.add_argument(flag, type=float, required=True)
    _weight_flags(sub, "--alpha", "--m", "--lambda", "--mu", "--q")
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
    p_sweep.add_argument("--jobs", type=int, default=1, help="ignored: a sweep runs in one "
                         "process (kept until the benchmark's default_jobs2 workload goes)")
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
    p_means.add_argument("--n", type=int, help="power exponent for propositions 1-3 (|n| >= 2)")
    _weight_flags(p_means, "--lambda", "--mu", "--q")
    p_means.add_argument("--format", choices=["json", "text"], default="text")
    p_means.set_defaults(func=cmd_means)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 3 if exc.code else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # output that cannot be written fails here, not at exit
        return code
    except (ParamError, DomainError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:  # stdout keeps what it could not write: drop it, or exit fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


if __name__ == "__main__":
    sys.exit(main())
