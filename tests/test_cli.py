import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from operator import itemgetter

import hypothesis
import numpy as np
import pytest

import hhverify.core
from hhverify import (DomainError, GateError, Interval, ParamError, Params, bounds,
                      check_hypotheses, cli, corpus_by_id, integrate, verify)

# Every theorem and every status but violation: q = 1 makes bop_m/thm211/
# thm22 not applicable, lam = mu = 0 is an input error, recip on [0, 1]
# leaves its domain and exp with m = 0.5 fails the gate.
ALL_STATUS_SPEC = (
    "functions = pow2, exp, recip\n"
    "intervals = 0:1, 1:2\n"
    "alpha = 0.5, 1\n"
    "m = 0.5, 1\n"
    "lambda = 0, 2\n"
    "mu = 0, 1\n"
    "q = 1, 2\n")


TRAP_SPEC = pathlib.Path(__file__).parent / "data" / "trap.spec"
GATE_SPEC = pathlib.Path(__file__).parent / "data" / "gate.spec"
DENSE_SPEC = pathlib.Path(__file__).parent / "data" / "dense.spec"
OVERFLOW_SPEC = pathlib.Path(__file__).parent / "data" / "overflow.spec"
PRECEDENCE_SPEC = pathlib.Path(__file__).parent / "data" / "precedence.spec"
# the pinned sha256 digest of each sweep file, by name (serial.csv is the default
# sweep's CSV), in the format ``sha256sum -c`` checks
PINNED = {name: digest for digest, name in (
    line.split() for line in (pathlib.Path(__file__).parent / "data" / "SHA256SUMS")
    .read_text().splitlines())}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_cell_configs(spec):
    """eval_row's arguments for each cell of the spec, in spec order."""
    return [(fn_id, a, b, *p, theorem)
            for fn_id, (a, b), *p, theorem in itertools.product(
                spec.functions, spec.intervals, spec.alpha, spec.m, spec.lam, spec.mu, spec.q,
                spec.theorems)]


def global_sort_bytes(rows):
    """The reference for the streamed writers: the CSV and JSON texts of row
    dicts given in spec order, after one global stable sort, written by
    ``csv`` and ``json.dumps`` over the whole list."""
    rows = sorted(rows, key=itemgetter(*cli.INPUT_COLUMNS[1:]))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.COLUMNS)
    writer.writerows([cli._fmt(v) if c == "holds" else v for c, v in r.items()] for r in rows)
    return buf.getvalue(), json.dumps(rows, indent=2) + "\n"


def assert_same_text(got: str, want: str, what: str) -> None:
    """got == want, decided by sha256 digest; a mismatch reports both line counts and the
    first differing line only, so a regression fails at once instead of diffing megabytes."""
    if hashlib.sha256(got.encode()).digest() == hashlib.sha256(want.encode()).digest():
        return
    got_lines, want_lines = got.splitlines(True), want.splitlines(True)
    i = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
             min(len(got_lines), len(want_lines)))
    pytest.fail(f"{what}: {len(got_lines)} lines, expected {len(want_lines)}; first difference "
                f"at line {i + 1}: {got_lines[i:i + 1]!r} != {want_lines[i:i + 1]!r}",
                pytrace=False)


def assert_ok_slacks_finite(path) -> None:
    """Every ok row of the sweep file ``path`` (CSV or JSON) has a finite slack: the
    least-slack search of ``run_sweep`` meets no NaN."""
    with open(path, newline="") as fh:
        rows = json.load(fh) if path.suffix == ".json" else list(csv.DictReader(fh))
    assert all(math.isfinite(float(r["slack"])) for r in rows if r["status"] == "ok")


def table_rows(tables):
    """The rows of ``tables``, each a ``cli.Table``, as tuples of the ``COLUMNS``: row i
    of a table is its head ``order[i] // len(cells)``, its cell ``order[i] % len(cells)``
    and the i-th value of each of its ``bounds.ROW_COLUMNS``, read as plain values
    through ``Columns.plain``."""
    rows = []
    for heads, cells, order, columns in tables:
        assert sorted(order) == list(range(len(heads) * len(cells)))
        plain = columns.plain()
        assert all(len(column) == len(order) for column in plain)
        n = len(cells)
        rows += [(*heads[i // n], *cells[i % n], *values)
                 for i, *values in zip(order, *plain)]
    return rows


def typed(columns):
    """The ``bounds.Columns`` of the ``bounds.ROW_COLUMNS`` given as lists of plain values:
    a status, a holds value (True, False or None) and a float or None per cell."""
    named = dict(zip(bounds.ROW_COLUMNS, columns))
    floats = [named[c] for c in bounds.FLOAT_COLUMNS]
    return bounds.Columns(
        np.array([bounds.STATUSES.index(s) for s in named["status"]], np.int8),
        np.array([bounds.HOLDS.index(h) for h in named["holds"]], np.int8),
        np.array([[math.nan if v is None else v for v in column] for column in floats], float),
        np.array([[v is not None for v in column] for column in floats], bool))


def streamed_bytes(tables):
    """The CSV and JSON texts the sweep writes for ``tables``, an iterable of tables."""
    tables = list(tables)
    texts = io.StringIO(), io.StringIO()
    cli.write_csv(tables, texts[0])
    cli.write_json(tables, texts[1])
    return texts[0].getvalue(), texts[1].getvalue()


class TestVerifyCommand:
    def test_ok_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--lambda", "2", "--mu", "1",
                               "--theorem", "thm11")
        assert code == 0
        assert "status=ok" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fn", "pow2", "--a", "0",
                               "--b", "1", "--theorem", "da", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)
        assert row["status"] == "ok"
        assert math.isclose(row["rhs"], 0.25)
        assert row["schema"] == 1

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fn", "pow2", "--a", "0",
                               "--b", "1", "--theorem", "da", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["holds"] == "true"
        assert float(rows[0]["rhs"]) == 0.25

    def test_gate_skip_exit_two(self, capsys):
        # exp is not (1, 0.5)-convex, so the hypothesis check trips
        code, out, _ = run_cli(capsys, "verify", "--fn", "exp", "--a", "0",
                               "--b", "1", "--m", "0.5", "--theorem", "bop_am")
        assert code == 2
        assert "status=gate_skipped" in out

    @pytest.mark.parametrize("argv", [
        ("verify", "--fn", "pow2", "--a", "1"),
        ("verify", "--fn", "pow2", "--a", "1", "--b", "2", "--theorem", "da", "--nope"),
        ("sweep",),
        (),
    ], ids=["missing_flags", "unknown_flag", "missing_spec", "no_command"])
    def test_usage_error_exit_three(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        assert "error:" in err

    def test_help_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        assert out.startswith("usage: hh-verify verify")

    def test_underflowed_weight_is_an_input_error(self, capsys):
        # lambda^2 and lambda^(alpha+2) underflow to 0, leaving gamma1 < 0
        code, out, err = run_cli(capsys, "verify", "--fn", "pow3", "--a", "0", "--b", "1",
                                 "--alpha", "0.5", "--m", "0.25", "--lambda", "1e-200",
                                 "--mu", "0", "--q", "2", "--theorem", "thm11")
        assert code == 3
        assert "status=input_error" in out
        assert err == ("error: coefficient gamma1 must be nonnegative, "
                       "got -2.6666666666666665e-201\n")

    @pytest.mark.parametrize("argv, line", [
        # gamma2 = -4.4e-16 passes as a rounded 0 and |f'(b)|^2 underflows, so thm11's
        # smaller branch is negative and its power 1/q NaN: a value out of float range,
        # named as a sweep names its group's
        (["--fn", "pown2", "--a", "1", "--b", "1e200", "--alpha", "1e-100", "--lambda", "5",
          "--mu", "1", "--q", "2", "--theorem", "thm11"],
         "warning: pown2 [1.0, 1e+200]: thm11 rhs is not finite: nan"),
        # the one cell's reason is the text its point call raises
        (["--fn", "pow2", "--a", "1", "--b", "2", "--lambda", "1e-200", "--mu", "0", "--q", "2",
          "--theorem", "thm22"],
         "error: thm22 kernel underflows to 0 at lambda = 1e-200, mu = 0.0"),
    ], ids=["non_real_power", "underflowed_thm22_kernel"])
    def test_a_failed_cell_names_its_reason(self, capsys, argv, line):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 3 and "status=input_error" in out
        assert err == f"{line}\n"

    @pytest.mark.parametrize("argv, spec", [
        # a negative base under 1/q (as above), beside a da cell
        ("--fn pown2 --a 1 --b 1e200 --alpha 1e-100 --lambda 5 --mu 1 --q 2 --theorem thm11",
         "functions = pown2\nintervals = 1:1e200\nalpha = 1e-100\nlambda = 5\nq = 2\n"
         "theorems = thm11, da\n"),
        # lambda^(p+1) overflows the thm22 kernel, beside lambda = 1
        ("--fn pow2 --a 1 --b 2 --lambda 1e308 --q 2 --theorem thm22",
         "functions = pow2\nintervals = 1:2\nlambda = 1e308, 1\nq = 2\ntheorems = thm22\n"),
        # lambda^(alpha+2) overflows the factor gamma1, beside lambda = 1
        ("--fn pow2 --a 1 --b 2 --lambda 1e308 --q 2 --theorem thm11",
         "functions = pow2\nintervals = 1:2\nlambda = 1e308, 1\nq = 2\ntheorems = thm11\n"),
    ], ids=["non_real_power", "overflowed_kernel", "overflowed_factor"])
    def test_verify_and_the_sweep_name_the_same_non_finite_reason(self, tmp_path, capsys,
                                                                  argv, spec):
        code, _, line = run_cli(capsys, "verify", *argv.split())
        assert code == 3 and line.startswith("warning: ") and " is not finite: " in line
        path = tmp_path / "cell.spec"
        path.write_text(spec)
        code, out, err = run_cli(capsys, "sweep", str(path), "-o", str(tmp_path / "cell.csv"))
        assert code == 0 and "holds=1 " in out and "input_error=1" in out
        assert err == line

    @pytest.mark.parametrize("theorem", ["da", "bop_m", "bop_am", "thm11", "thm211", "thm22"])
    @pytest.mark.filterwarnings("error")
    def test_a_far_end_gives_a_row(self, capsys, theorem):
        # recip's f'(1e300) = -1 / x ** 2 overflows on a Python float; the bounds
        # evaluate it on a float64, where it is -0.0, and the row is computed
        code, out, err = run_cli(capsys, "verify", "--fn", "recip", "--a", "1", "--b", "1e300",
                                 "--q", "2", "--theorem", theorem)
        assert (code, err) == (0, "") and f"theorem={theorem}  status=ok" in out

    @pytest.mark.parametrize("fn_id, b, converged", [("exp", 20.0, True), ("exp", 700.0, False),
                                                     ("sinh", 100.0, False)])
    def test_an_unconverged_integral_keeps_a_settled_verdict(self, tmp_path, capsys, fn_id, b,
                                                             converged):
        # exp over [0, 700] misses the absolute tolerance by rounding alone (error estimate
        # 2.0e+279 of 1.0e+304), far less than the da rhs exceeds the lhs by
        fn = corpus_by_id()[fn_id]
        assert integrate(fn.f, Interval(0.0, b)).converged is converged
        code, out, err = run_cli(capsys, "verify", "--fn", fn_id, "--a", "0", "--b", str(b),
                                 "--theorem", "da")
        assert (code, err) == (0, "") and "status=ok" in out
        path = tmp_path / "cell.spec"
        path.write_text(f"functions = {fn_id}\nintervals = 0:{b}\ntheorems = da, sso\n")
        code, out, err = run_cli(capsys, "sweep", str(path), "-o", str(tmp_path / "cell.csv"))
        assert (code, err) == (0, "") and "holds=2 " in out
        code, out, err = run_cli(capsys, "tightness", "--fn", fn_id, "--a", "0", "--b", str(b),
                                 "--theorems", "da,sso")
        assert (code, err) == (0, "") and out.count("status=ok") == 3

    @pytest.mark.parametrize("estimate, failed", [(1e-9, ["thm11"]),
                                                  (1.0, ["thm11", "da", "hh_upper"])])
    def test_an_unconverged_integral_decides_no_verdict(self, tmp_path, capsys, monkeypatch,
                                                        estimate, failed):
        # pow2 on [0, 1] at lambda = 0, q = 1 is thm11's equality case (slack -1.1e-16):
        # an integral that did not converge, with a larger error estimate, could turn its
        # verdict, and an estimate of 1.0 could turn da's (slack 1/12) and hh_upper's too
        real = bounds.integrate
        monkeypatch.setattr(bounds, "integrate", lambda *args, **kw: dataclasses.replace(
            real(*args, **kw), error_estimate=estimate, converged=False))
        point = "--fn pow2 --a 0 --b 1 --alpha 1 --m 0.5 --lambda 0 --mu 1 --q 1".split()
        code, out, line = run_cli(capsys, "verify", *point, "--theorem", "thm11")
        assert code == 3 and "status=input_error" in out and "lhs=" not in out
        assert line == ("warning: pow2 [0.0, 1.0]: LHS integral did not converge: error "
                        f"estimate {estimate} after 15 evaluations\n")
        path = tmp_path / "cell.spec"
        path.write_text("functions = pow2\nintervals = 0:1\nalpha = 1\nm = 0.5\nlambda = 0\n"
                        "q = 1\ntheorems = thm11, da\n")
        code, out, err = run_cli(capsys, "sweep", str(path), "-o", str(tmp_path / "cell.csv"))
        theorems = [t for t in failed if t != "hh_upper"]
        assert (code, err) == (0, line) and f"input_error={len(theorems)}" in out
        code, out, err = run_cli(capsys, "tightness", *point, "--theorems", "thm11,da")
        assert (code, err) == (3, line)
        assert [row.split("theorem=")[1].split()[0] for row in out.splitlines()
                if "status=input_error" in row] == failed

    def test_input_error_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--fn", "nope", "--a", "0",
                               "--b", "1", "--theorem", "da")
        assert code == 3
        assert err == "error: unknown function 'nope'\n"

    def test_subnormal_width_is_an_input_error(self, capsys):
        # the integral of exp over [0, 5e-324] is 0.0: the row read lhs=1.0,
        # rhs=0.0 and status=violation
        code, out, err = run_cli(capsys, "verify", "--fn", "exp", "--a", "0", "--b", "5e-324",
                                 "--theorem", "da")
        assert code == 3
        assert err == "error: interval width must be a normal float, got [0.0, 5e-324]\n"
        assert "status=input_error" in out and "lhs=" not in out

    def test_q1_not_applicable_exit_three(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--fn", "pow2", "--a", "1",
                                 "--b", "2", "--q", "1", "--theorem", "thm22")
        assert code == 3
        assert "status=not_applicable" in out and err == ""  # not an input error

    def test_crosscheck(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--lambda", "2",
                               "--mu", "1", "--theorem", "thm11", "--crosscheck")
        assert code == 0
        assert "crosscheck" in out


class TestEvalRow:
    def test_matches_library_values(self):
        row = cli.eval_row("pow2", 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0, "thm11")
        assert row["status"] == "ok"
        assert math.isclose(row["rhs"], 61.0 / 81.0, abs_tol=1e-12)
        assert math.isclose(row["lhs"], 1.0 / 3.0, abs_tol=1e-9)

    def test_singular_fn_skips_interval_at_zero(self):
        row = cli.eval_row("recip", 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, "thm22")
        assert row["status"] == "not_applicable"

    def test_zero_weights_are_input_error(self):
        row = cli.eval_row("pow2", 1.0, 2.0, 1.0, 1.0, 0.0, 0.0, 2.0, "thm11")
        assert row["status"] == "input_error"

    @pytest.mark.parametrize("fn_id", sorted(corpus_by_id()))
    def test_cells_are_plain_values(self, fn_id):
        # exp, sinh and xlogx compute their samples as numpy scalars;
        # assess_group stores every cell as a Python value
        for theorem in cli.bounds.THEOREM_IDS:
            row = cli.eval_row(fn_id, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0, 2.0, theorem)
            assert list(row) == cli.COLUMNS
            for col, value in row.items():
                assert type(value) in (str, int, float, bool, type(None)), (theorem, col)

    def test_m_below_one_stretches_domain(self):
        # a/m = 2 lands below recip's pole only when a > 0, so this is fine
        row = cli.eval_row("recip", 1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 2.0, "thm22")
        assert row["status"] in ("ok", "gate_skipped")


class TestSweep:
    def test_single_point_spec_file_matches_verify(self, tmp_path, capsys):
        spec = tmp_path / "point.spec"
        spec.write_text(
            "functions = pow2\n"
            "intervals = 1:2\n"
            "lambda = 2\n"
            "mu = 1\n"
            "q = 2\n"
            "theorems = thm11\n")
        out_file = tmp_path / "rows.csv"
        code, _, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out_file))
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
        assert len(rows) == 1
        direct = cli.eval_row("pow2", 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0, "thm11")
        assert float(rows[0]["rhs"]) == direct["rhs"]
        assert rows[0]["holds"] == "true"

    def test_bad_rows_do_not_abort_sweep(self, tmp_path, capsys):
        spec = tmp_path / "mixed.spec"
        spec.write_text(
            "functions = pow2\n"
            "intervals = 1:2\n"
            "lambda = 0, 1\n"
            "mu = 0, 1\n"
            "q = 2\n"
            "theorems = thm11\n")
        out_file = tmp_path / "rows.csv"
        code, out, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out_file))
        assert code == 0  # input_error rows are counted, not fatal
        rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
        statuses = sorted(r["status"] for r in rows)
        assert statuses == ["input_error", "ok", "ok", "ok"]
        assert "input_error=1" in out

    def test_one_integral_mean_per_function_and_interval(self, monkeypatch):
        calls = []
        original = bounds.integral_mean
        monkeypatch.setattr(bounds, "integral_mean",
                            lambda *args: calls.append(args[:2]) or original(*args))
        spec = cli.SweepSpec(functions=["pow2", "exp"], intervals=[(1.0, 2.0), (0.5, 3.0)],
                             lam=[1.0, 2.0], q=[1.0, 2.0], theorems=["da", "thm11"])
        list(cli.run_sweep(spec))
        assert len(calls) == len(set(calls)) == 4

    def test_missing_spec_file(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "/no/such/file.spec")
        assert code == 3
        assert "error" in err

    def test_non_utf8_spec_is_an_input_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_bytes(b"functions = pow2\xff\nintervals = 1:2\n")
        code, _, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3
        assert err.startswith(f"error: {spec}: not UTF-8 text")

    @pytest.mark.parametrize("key", ["functions", "intervals", "theorems", "alpha", "m",
                                     "lambda", "mu", "q"])
    def test_list_key_needs_a_value(self, tmp_path, capsys, key):
        spec = tmp_path / "empty.spec"
        spec.write_text(f"functions = pow2\nintervals = 1:2\n{key} = ,\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3 and out == ""
        assert err == f"error: {spec}:3: {key} needs at least one value\n"

    def test_bad_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3

    def test_json_output_round_trips(self, tmp_path, capsys):
        spec = tmp_path / "point.spec"
        spec.write_text("functions = pow2\nintervals = 0:1\ntheorems = da\n")
        out_file = tmp_path / "rows.json"
        code, _, _ = run_cli(capsys, "sweep", str(spec), "-o", str(out_file),
                             "--format", "json")
        assert code == 0
        (row,) = json.loads(out_file.read_text())
        assert row["theorem"] == "da" and row["rhs"] == 0.25

    def test_csv_numbers_match_json(self, tmp_path, capsys):
        # exp, sinh and xlogx return numpy scalars, which must be written as
        # plain numbers
        spec = tmp_path / "numpy.spec"
        spec.write_text("functions = exp, sinh, xlogx\nintervals = 0.5:1, 1:2\n"
                        "alpha = 0.5, 1\nm = 0.5, 1\nq = 1, 2\n")
        f_csv, f_json = tmp_path / "rows.csv", tmp_path / "rows.json"
        assert run_cli(capsys, "sweep", str(spec), "-o", str(f_csv))[0] == 0
        assert run_cli(capsys, "sweep", str(spec), "-o", str(f_json),
                       "--format", "json")[0] == 0
        json_rows = json.loads(f_json.read_text())
        csv_rows = list(csv.DictReader(io.StringIO(f_csv.read_text())))
        assert len(csv_rows) == len(json_rows) > 0
        filled = 0
        for c_row, j_row in zip(csv_rows, json_rows):
            for col in ("lhs", "rhs", "slack", "quad_error", "branch1", "branch2",
                        "rhs_loose", "gate_violation"):
                if j_row[col] is None:
                    assert c_row[col] == ""
                else:
                    assert float(c_row[col]) == j_row[col]
                    filled += 1
        assert filled > 0

    @pytest.mark.parametrize("text", [
        "functions = pow2\nintervals = 1-2\n",
    ], ids=["malformed_interval"])
    def test_bad_spec_is_an_input_error(self, tmp_path, capsys, text):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        code, _, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "o.csv"))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("line", ["intervals = nan:1", "intervals = 0:-nan", "alpha = nan",
                                      "q = 2, NaN"])
    def test_nan_in_a_spec_is_an_input_error(self, tmp_path, capsys, line):
        # NaN has no sort order, so the rows of a NaN value would have no place
        spec = tmp_path / "nan.spec"
        spec.write_text(f"functions = pow2\nintervals = 1:2\n{line}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3 and out == ""
        assert err.startswith(f"error: {spec}:3: ") and err.endswith(" is not a number\n")

    def test_subnormal_width_marks_its_cells(self, tmp_path, capsys):
        # a mean over a subnormal width rounds to 0: nine rows were violations
        spec = tmp_path / "sub.spec"
        spec.write_text("functions = exp\nintervals = 0:5e-324\nq = 1, 2\n")
        code, out, err = run_cli(capsys, "sweep", str(spec), "-o", str(tmp_path / "sub.csv"))
        assert code == 0 and err == ""
        assert ("total=14 holds=0 violations=0 gate_skipped=0 not_applicable=3 "
                "input_error=11\n") in out

    def test_infinity_in_a_spec_marks_its_cells(self, tmp_path, capsys):
        spec = tmp_path / "inf.spec"
        spec.write_text("functions = pow2\nintervals = 1:2, 1:inf\nalpha = 1, -inf\n"
                        "theorems = da\n")
        code, out, _ = run_cli(capsys, "sweep", str(spec))
        assert code == 0
        assert "holds=1 " in out and "input_error=3" in out

    @pytest.mark.parametrize("text, statuses, warned", [
        ("functions = pow2, exp\nintervals = 0:1, 1:1e300\nq = 1\ntheorems = bop_m, da\n",
         ["not_applicable", "ok", "not_applicable", "input_error"] * 2,
         ["exp [1.0, 1e+300]: g is not finite at sample x=",
          "pow2 [1.0, 1e+300]: integrand returned a non-finite value at x="]),
        ("functions = pown2\nintervals = 0.001:1\nq = 40\ntheorems = thm11, sso\n",
         ["ok", "input_error"], ["pown2 [0.001, 1.0]: g is not finite at sample x="]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e-200\nmu = 0\nq = 2\n"
         "theorems = thm11, da\n", ["ok", "input_error"],
         ["pow2 [1.0, 2.0]: coefficient gamma1 is not finite: nan"]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e-200, 1\nmu = 0\nq = 2\n"
         "theorems = thm11\n", ["input_error", "ok"],
         ["pow2 [1.0, 2.0]: coefficient gamma1 is not finite: nan"]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e-200, 1\nmu = 0\nq = 2\n"
         "theorems = thm22\n", ["input_error", "ok"], []),
        ("functions = pow2, exp\nintervals = 1:2\nm = 1e-320, 1\ntheorems = bop_am, da\n",
         ["input_error", "ok", "ok", "ok"] * 2,
         ["exp [1.0, 2.0]: gate grid end b / m is not finite: 2.0 / 1e-320",
          "pow2 [1.0, 2.0]: gate grid end b / m is not finite: 2.0 / 1e-320"]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e308\nmu = 1e308\nq = 2\n",
         ["ok"] * 4 + ["input_error"] * 3,
         ["pow2 [1.0, 2.0]: coefficient gamma1 is not finite: nan"]),
        # gamma2 = -4.4e-16 passes as a rounded 0 and |f'(b)|^2 underflows: thm11's
        # smaller branch is negative and its power 1/q NaN
        ("functions = pown2\nintervals = 1:1e200\nalpha = 1e-100\nlambda = 5\nmu = 1\nq = 2\n"
         "theorems = thm11, da\n", ["ok", "input_error"],
         ["pown2 [1.0, 1e+200]: thm11 rhs is not finite: nan"]),
    ], ids=["non_finite_integral", "non_finite_gate", "division_by_underflow",
            "division_by_underflow_spares_its_group", "underflowed_thm22_kernel",
            "overflowed_gate_grid_end", "huge_weights", "non_real_power"])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_group_is_isolated(self, tmp_path, capsys, text, statuses, warned):
        # the cells a value out of float range reaches are input_error, each
        # such group is named once on stderr, by that line alone (numpy's
        # overflow warnings would raise here), and the sweep goes on
        spec = tmp_path / "range.spec"
        spec.write_text(text)
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "sweep", str(spec), "-o", str(out_file))
        assert code == 0
        rows = csv.DictReader(io.StringIO(out_file.read_text()))
        assert [r["status"] for r in rows] == statuses
        lines = err.splitlines()
        assert len(lines) == len(warned)
        assert all(line.startswith(f"warning: {w}") for line, w in zip(lines, warned))
        assert f"input_error={statuses.count('input_error')}" in out

    @pytest.mark.filterwarnings("error")
    def test_a_far_end_runs_every_group(self, tmp_path, capsys):
        # recip's f' at b = 1e300 is -0.0 on a float64, not an OverflowError that
        # stops the sweep: all 56 rows are written, and only pow2's integral is named
        spec = tmp_path / "range.spec"
        spec.write_text("functions = pow2, recip\nintervals = 1:2, 1:1e300\nq = 1, 2\n")
        out_file = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "sweep", str(spec), "-o", str(out_file))
        rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
        assert code == 0 and len(rows) == 56
        (line,) = err.splitlines()
        assert line.startswith("warning: pow2 [1.0, 1e+300]: integrand returned a non-finite ")
        assert {r["status"] for r in rows if r["fn"] == "recip"} == {"ok", "not_applicable"}

    @pytest.mark.parametrize("text, message", [
        ("functions = pow2\nintervals = 1:2\nalpha = x\n", ":3: 'x' is not a number"),
        ("functions = pow2\nintervals = 1:2\nq 2\n", ":3: expected 'key = values'"),
        ("intervals = 1:2\n", ": functions and intervals must be non-empty"),
        ("functions = pow2\n", ": functions and intervals must be non-empty"),
        ("functions = pow2\nintervals = 1:2\nquad_tol = 1e-9\n", ":3: unknown key 'quad_tol'"),
        ("functions = pow2\nintervals = 1:2\nholds_tol = 0\n", ":3: unknown key 'holds_tol'"),
    ], ids=["not_a_number", "no_equals_sign", "no_functions", "no_intervals", "quad_tol",
            "holds_tol"])
    def test_spec_check_names_the_fault(self, tmp_path, capsys, text, message):
        spec = tmp_path / "bad.spec"
        spec.write_text(text)
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3 and out == ""
        assert err == f"error: {spec}{message}\n"

    def test_unwritable_output_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "default", "-o", "/no/such/dir/out.csv")
        assert code == 3
        assert err.startswith("error:") and "/no/such/dir/out.csv" in err
        assert out == ""  # rejected before the sweep runs

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_an_input_error(self, capsys, jobs):
        code, out, err = run_cli(capsys, "sweep", "default", "--jobs", jobs)
        assert code == 3
        assert err == f"error: --jobs must be at least 1, got {jobs}\n" and out == ""

    def test_jobs_output_matches_serial(self, tmp_path, capsys, monkeypatch):
        # --jobs is kept for compatibility only: it writes the serial bytes; a slack of
        # -0.5 turns rows whose slack is below 0.5 into violations
        monkeypatch.setattr(hhverify.core, "HOLDS_SLACK", -0.5)
        spec = tmp_path / "all.spec"
        spec.write_text(ALL_STATUS_SPEC)
        serial, jobs2 = tmp_path / "serial.csv", tmp_path / "jobs2.csv"
        assert run_cli(capsys, "sweep", str(spec), "-o", str(serial))[0] == 1
        assert run_cli(capsys, "sweep", str(spec), "-o", str(jobs2),
                       "--jobs", "2")[0] == 1
        for path in (serial, jobs2):
            rows = list(csv.DictReader(io.StringIO(path.read_text())))
            assert {r["theorem"] for r in rows} == set(cli.bounds.THEOREM_IDS)
            assert {r["status"] for r in rows} == {
                "ok", "violation", "gate_skipped", "not_applicable", "input_error"}, path
        assert serial.read_bytes() == jobs2.read_bytes()

    def test_summary_recounts_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(hhverify.core, "HOLDS_SLACK", -0.5)
        spec = tmp_path / "all.spec"
        spec.write_text(ALL_STATUS_SPEC)
        summary = {}
        rows = [dict(zip(cli.COLUMNS, row)) for row in table_rows(
            cli.run_sweep(cli.parse_sweep_file(str(spec)), summary=summary))]
        counts = Counter(r["status"] for r in rows)
        assert summary == {
            "total": len(rows), "holds": counts["ok"], "violations": counts["violation"],
            "gate_skipped": counts["gate_skipped"],
            "not_applicable": counts["not_applicable"],
            "input_error": counts["input_error"],
            "min_slack": summary["min_slack"], "min_slack_config": summary["min_slack_config"]}
        assert sum(counts.values()) == len(rows) and len(counts) == 5
        ok = [r for r in rows if r["status"] == "ok"]
        least = min(r["slack"] for r in ok)
        first = next(r for r in ok if r["slack"] == least)
        assert summary["min_slack"] == least
        assert summary["min_slack_config"] == tuple(first[c] for c in cli.INPUT_COLUMNS[1:])

    def test_stdout_matches_output_file(self, tmp_path, capsys):
        spec = tmp_path / "point.spec"
        spec.write_text("functions = pow2, exp\nintervals = 0:1\ntheorems = da, sso\n")
        for fmt in ("csv", "json"):
            out_file = tmp_path / f"rows.{fmt}"
            run_cli(capsys, "sweep", str(spec), "-o", str(out_file), "--format", fmt)
            code, out, _ = run_cli(capsys, "sweep", str(spec), "--format", fmt)
            assert code == 0
            header, *body, totals, min_slack = out.splitlines(keepends=True)
            assert header.startswith("sweep:") and totals.startswith("total=")
            assert min_slack.startswith("min_slack=")
            assert "".join(body) == out_file.read_text()

    @pytest.mark.parametrize("case", ["all_statuses", "precedence"])
    def test_grouped_sweep_equals_per_cell_rows(self, tmp_path, monkeypatch, case):
        if case == "all_statuses":
            monkeypatch.setattr(hhverify.core, "HOLDS_SLACK", -0.5)
            path = tmp_path / "all.spec"
            path.write_text(ALL_STATUS_SPEC)
            spec = cli.parse_sweep_file(str(path))
        else:
            # unknown function and theorem ids, a reversed interval, a domain
            # error, zero weights, q = 1 beside q > 1 and a repeated alpha
            spec = cli.SweepSpec(functions=["recip", "nope", "pow2"],
                                 intervals=[(1.0, 2.0), (2.0, 1.0), (0.0, 1.0)],
                                 alpha=[1.0, 0.5, 1.0], lam=[0.0, 1.0], mu=[0.0, 2.0],
                                 q=[2.0, 1.0], theorems=["thm22", "bogus", "da", "sso"])
        rows = table_rows(cli.run_sweep(spec))
        cells = sorted((cli.eval_row(*cfg) for cfg in one_cell_configs(spec)),
                       key=itemgetter(*cli.INPUT_COLUMNS[1:]))
        assert all(list(cell) == cli.COLUMNS for cell in cells)
        assert repr(rows) == repr([tuple(cell.values()) for cell in cells])
        statuses = {r[cli.COLUMNS.index("status")] for r in rows}
        assert statuses >= {"ok", "gate_skipped", "not_applicable", "input_error"}
        assert case == "precedence" or "violation" in statuses

    def test_precedence_spec_follows_the_rule_table(self):
        # the rules in order, written out here rather than read from bounds: an unknown
        # function closes every cell; q = 1 on bop_m is not applicable; a reversed
        # interval closes every other cell; then a bad alpha, an unknown theorem id and
        # recip's domain at a = 0, which closes the cells still open
        def expected(fn_id, a, b, alpha, q, tid):
            if fn_id == "nope":
                return "input_error", "ParamError", "unknown function 'nope'"
            if tid == "bop_m" and q == 1:
                return "not_applicable", "ParamError", "bop_m needs q > 1"
            if (a, b) == (2.0, 1.0):
                return "input_error", "ParamError", "interval requires 0 <= a < b, got [2.0, 1.0]"
            if alpha == 2:
                return "input_error", "ParamError", "alpha must lie in (0, 1], got 2.0"
            if tid == "bogus":
                return "input_error", "ParamError", "unknown theorem id 'bogus'"
            if fn_id == "recip" and a == 0:
                return ("not_applicable", "DomainError",
                        "recip is not defined at x=0.0 (domain starts at 1e-12)")
            return "ok", None, None

        spec = cli.parse_sweep_file(str(PRECEDENCE_SPEC))
        status = {(fn_id, a, b, alpha, q, tid): s for _, fn_id, a, b, alpha, _, _, _, q, tid, s, *_
                  in table_rows(cli.run_sweep(spec))}
        params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
        cells, got = bounds.admit(params, spec.theorems), {}
        for fn_id, (a, b) in itertools.product(spec.functions, spec.intervals):
            errors = cli._assess(fn_id, a, b, cells).error
            for ((alpha, *_, q), tid), e in zip(itertools.product(params, spec.theorems), errors):
                key = (fn_id, a, b, alpha, q, tid)
                got[key] = (status[key], e and type(e).__name__, e and str(e))
        assert len(got) == len(status) == 108
        assert got == {key: expected(*key) for key in got}
        # q = 1 on bop_m is an input_error under an unknown function, and stays
        # not_applicable under a reversed interval
        assert got["nope", 1.0, 2.0, 1.0, 1.0, "bop_m"][0] == "input_error"
        assert got["pow2", 2.0, 1.0, 2.0, 1.0, "bop_m"][0] == "not_applicable"

    def test_json_bytes_are_the_indented_dump(self, tmp_path, capsys):
        path = tmp_path / "all.spec"
        path.write_text(ALL_STATUS_SPEC)
        tables = list(cli.run_sweep(cli.parse_sweep_file(str(path))))
        # exp at m = 0.5 fails the gate, so lhs through rhs_loose are None
        argv = ("verify", "--fn", "exp", "--a", "0", "--b", "1", "--m", "0.5",
                "--theorem", "bop_am", "--format", "json")
        (row,) = json.loads(run_cli(capsys, *argv)[1])
        assert row["lhs"] is None and row["gate_violation"] is not None
        values = list(row.values())
        one_row = cli.Table([tuple(values[:4])], [tuple(values[4:10])], [0],
                            typed([[v] for v in values[10:]]))
        for case in (tables, [one_row], []):
            text = io.StringIO()
            cli.write_json(case, text)
            dicts = [dict(zip(cli.COLUMNS, r)) for r in table_rows(case)]
            assert text.getvalue() == json.dumps(dicts, indent=2) + "\n"

    def test_importing_the_cli_leaves_the_pool_out(self, tmp_path):
        # a sweep runs in one process, --jobs 2 over two groups included
        spec, out = tmp_path / "two.spec", tmp_path / "two.csv"
        spec.write_text("functions = pow2, exp\nintervals = 1:2\ntheorems = da\n")
        src = str(pathlib.Path(cli.__file__).parent.parent)
        code = ("import sys, hhverify.cli; "
                f"code = hhverify.cli.main(['sweep', {str(spec)!r}, '--jobs', '2', '-o', "
                f"{str(out)!r}]); print(code, 'multiprocessing' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src), check=True)
        assert result.stdout.splitlines()[-1] == "0 False"
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_sweep_bytes_are_pinned(self, tmp_path, capsys, fmt):
        # the digests and summary lines of the sweep written with one global sort
        out_file = tmp_path / f"default.{fmt}"
        code, out, err = run_cli(capsys, "sweep", "default", "--format", fmt, "-o", str(out_file))
        assert code == 0 and err == ""
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[f"serial.{fmt}"]
        assert_ok_slacks_finite(out_file)
        assert out == (
            "sweep: 67200 rows (8 functions x 4 intervals x 2x2 (alpha,m) x 5x5 weights x "
            "3 q x 7 theorems)\n"
            "total=67200 holds=26016 violations=0 gate_skipped=24096 not_applicable=14784 "
            "input_error=2304\n"
            "min_slack=-1.7763568394002505e-15 at "
            "('pow2', 2.0, 5.0, 1.0, 0.5, 0.0, 5.0, 1.0, 'thm11')\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_gate_spec_bytes_are_pinned(self, tmp_path, capsys, fmt):
        # four alphas per sample grid, clipped grids, the f-hypothesis of sso,
        # and four groups whose gate leaves the float range at q = 40
        out_file = tmp_path / f"gate.{fmt}"
        code, out, err = run_cli(capsys, "sweep", str(GATE_SPEC), "--format", fmt,
                                 "-o", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[f"gate.{fmt}"]
        assert_ok_slacks_finite(out_file)
        assert out == (
            "sweep: 1792 rows (7 functions x 2 intervals x 4x2 (alpha,m) x 1x1 weights x "
            "4 q x 4 theorems)\n"
            "total=1792 holds=442 violations=0 gate_skipped=1030 not_applicable=224 "
            "input_error=96\n"
            "min_slack=0.08802039174945886 at "
            "('xlogx', 0.5, 1.5, 1.0, 1.0, 1.0, 1.0, 1.0, 'sso')\n")
        assert err == (
            "warning: pown2 [0.5, 1.5]: g is not finite at sample x=6.000000000000001e-08\n"
            "warning: pown2 [1.0, 3.0]: g is not finite at sample x=1.2000000000000002e-07\n"
            "warning: recip [0.5, 1.5]: g is not finite at sample x=6.000000000000001e-08\n"
            "warning: recip [1.0, 3.0]: g is not finite at sample x=1.2000000000000002e-07\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dense_spec_bytes_are_pinned(self, tmp_path, capsys, fmt):
        # each group's one gate call scores 4 m x 4 q x 4 alpha hypotheses of |f'|^q
        out_file = tmp_path / f"dense.{fmt}"
        code, out, err = run_cli(capsys, "sweep", str(DENSE_SPEC), "--format", fmt,
                                 "-o", str(out_file))
        assert code == 0 and err == ""
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[f"dense.{fmt}"]
        assert_ok_slacks_finite(out_file)
        assert out == (
            "sweep: 28672 rows (8 functions x 4 intervals x 4x4 (alpha,m) x 2x1 weights x "
            "4 q x 7 theorems)\n"
            "total=28672 holds=10320 violations=0 gate_skipped=15280 not_applicable=3072 "
            "input_error=0\n"
            "min_slack=2.220446049250313e-16 at "
            "('pow2', 0.5, 1.5, 1.0, 0.25, 0.0, 1.0, 1.0, 'thm11')\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_spec_bytes_are_pinned(self, tmp_path, capsys, fmt):
        # lambda = 1e308 beside an ordinary grid: only the cells it reaches are
        # input_error, and each group's first out-of-range text is its warning
        out_file = tmp_path / f"overflow.{fmt}"
        code, out, err = run_cli(capsys, "sweep", str(OVERFLOW_SPEC), "--format", fmt,
                                 "-o", str(out_file))
        assert code == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[f"overflow.{fmt}"]
        assert_ok_slacks_finite(out_file)
        assert out == (
            "sweep: 70560 rows (2 functions x 1 intervals x 2x2 (alpha,m) x 21x20 weights x "
            "3 q x 7 theorems)\n"
            "total=70560 holds=35494 violations=0 gate_skipped=24302 not_applicable=10080 "
            "input_error=684\n"
            "min_slack=-8.881784197001252e-16 at "
            "('pow2', 1.0, 2.0, 1.0, 0.5, 1.75, 0.0, 1.0, 'thm11')\n")
        assert err == ("warning: exp [1.0, 2.0]: coefficient gamma1 is not finite: nan\n"
                       "warning: pow2 [1.0, 2.0]: coefficient gamma1 is not finite: nan\n")

    def test_default_sweep_gates_once_per_group(self, monkeypatch):
        # one gate call per group that has a cell open after the interval, parameter,
        # domain and q > 1 checks (pown2, recip and xlogx on [0, 1] have none): 29
        # calls, against 232 with a call per sample grid (g, m, q), and 80 Params
        # builds: the sweep's one of its 300 parameter tuples, then one per gate call,
        # gamma_coeffs and nu_coeffs, against 289 with one of the tuples per group and
        # one per RHS call, 321 when the cells a failed rule left were admitted again
        # and 698 when each grid's call admitted alpha, m and q again
        calls, builds, check = [], [], Params.__post_init__
        monkeypatch.setattr(Params, "__post_init__", lambda p: builds.append(p) or check(p))
        assess = bounds.assess_group
        monkeypatch.setattr(bounds, "assess_group", lambda fn, a, b, *rest: assess(
            fn, a, b, *rest,
            gate_of=lambda *args: calls.append((fn.id, a, b)) or check_hypotheses(*args)))
        spec = cli.default_sweep_spec()
        assert len(table_rows(cli.run_sweep(spec))) == 67200
        assert calls == [(fn_id, a, b) for fn_id, (a, b) in sorted(itertools.product(
            spec.functions, spec.intervals)) if a > 0 or fn_id not in ("pown2", "recip", "xlogx")]
        assert len(builds) == 80
        assert [np.size(p.q) for p in builds].count(300) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trap_spec_bytes_are_pinned(self, tmp_path, capsys, fmt):
        # tie classes of several groups: a repeated interval and function, -0.0 beside 0
        out_file = tmp_path / f"trap.{fmt}"
        code, out, err = run_cli(capsys, "sweep", str(TRAP_SPEC), "--format", fmt,
                                 "-o", str(out_file))
        assert code == 0 and err == ""
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == PINNED[f"trap.{fmt}"]
        assert_ok_slacks_finite(out_file)
        assert out == (
            "sweep: 11520 rows (4 functions x 5 intervals x 3x4 (alpha,m) x 4x1 weights x "
            "3 q x 4 theorems)\n"
            "total=11520 holds=3168 violations=0 gate_skipped=288 not_applicable=720 "
            "input_error=7344\n"
            "min_slack=0.08333333333333331 at ('pow2', 0.0, 1.0, 0.5, 0.5, 0.0, 1.0, 1.0, 'da')\n")

    @pytest.mark.parametrize("writer", ["write_csv", "write_json"])
    def test_cells_are_formatted_once_per_sweep(self, monkeypatch, writer):
        # two groups, each a tie class and a table of its own, share the one
        # cell, whose alpha 0.625 is no other value of the rows: the writers
        # format it once per sweep, not once per group
        spec = cli.SweepSpec(functions=["pow2", "exp"], intervals=[(1.0, 2.0)], alpha=[0.625],
                             theorems=["da"])
        tables = list(cli.run_sweep(spec))
        assert len(tables) == 2 and tables[0].cells is tables[1].cells
        formatted = []
        monkeypatch.setattr(cli, "repr", lambda v: formatted.append(v) or repr(v), raising=False)
        getattr(cli, writer)(tables, io.StringIO())
        assert formatted.count(0.625) == 1 and formatted.count(2.0) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trap_spec_matches_the_global_sort(self, tmp_path, capsys, fmt):
        # tied keys (repeats, -0.0 beside 0) must come out in the order one
        # global stable sort of the spec-order rows gives
        spec = cli.parse_sweep_file(str(TRAP_SPEC))
        params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
        rows, cells = [], bounds.admit(params, spec.theorems)
        for fn_id, (a, b) in itertools.product(spec.functions, spec.intervals):
            columns = cli._assess(fn_id, a, b, cells)
            rows += [dict(zip(cli.COLUMNS, (1, fn_id, a, b, *p, t, *computed)))
                     for (p, t), computed in zip(itertools.product(params, spec.theorems),
                                                 zip(*columns.plain()))]
        out_file = tmp_path / f"trap.{fmt}"
        assert run_cli(capsys, "sweep", str(TRAP_SPEC), "--format", fmt,
                       "-o", str(out_file))[0] == 0
        assert_same_text(out_file.read_text(), global_sort_bytes(rows)[fmt == "json"], "trap")

    def test_rows_stream_one_tie_class_at_a_time(self, monkeypatch):
        calls = []
        original = cli._assess
        monkeypatch.setattr(cli, "_assess",
                            lambda *args: calls.append(args[:3]) or original(*args))
        spec = cli.SweepSpec(functions=["pow2"], intervals=[(1.0, 2.0), (0.0, 1.0), (-0.0, 1.0)],
                             q=[1.0, 2.0], theorems=["da", "thm11"])
        tables = cli.run_sweep(spec)
        assert calls == []
        first = table_rows([next(tables)])
        # the tie class of [0, 1] and [-0, 1], in spec order, and nothing more
        assert repr(calls) == repr([("pow2", 0.0, 1.0), ("pow2", -0.0, 1.0)])
        assert first[0][1:4] == ("pow2", 0.0, 1.0)
        assert len(first) == 8 and len(table_rows(tables)) == 4 and len(calls) == 3

    def test_deterministic_output(self, tmp_path, capsys):
        spec = tmp_path / "small.spec"
        spec.write_text(
            "functions = pow2, exp\n"
            "intervals = 0:1, 1:2\n"
            "lambda = 1, 2\n"
            "mu = 1\n"
            "q = 1, 2\n")
        f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
        run_cli(capsys, "sweep", str(spec), "-o", str(f1))
        run_cli(capsys, "sweep", str(spec), "-o", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


# Small specs mixing corpus and unknown ids, reversed intervals and ones that
# start below a domain, parameters in and out of range (duplicates and -0.0
# included) and known and unknown theorems: the grouped, streamed sweep must
# write the bytes of the one-cell groups' rows under one global stable sort.
# Up to four alphas share a sample grid, and m = 1e-320 overflows its end b / m.
# lambda = 1e308 and q = 1e308 overflow and lambda = 1e-200 underflows in some
# RHS, beside ordinary cells of the same group.
_st = hypothesis.strategies
# The ints 0 and 1 equal the floats 0.0, -0.0 and 1.0 but are written "0" and "1".
_values = [0.25, 0.5, 1.0, 0.5, 1.0, -0.0, 1.5, 0, 1]


@hypothesis.given(_st.builds(
    cli.SweepSpec,
    functions=_st.lists(_st.sampled_from(["pow2", "pow3", "recip", "exp", "xlogx", "nope"]),
                        min_size=1, max_size=2),
    intervals=_st.lists(_st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-0.0, 0.5), (1.0, 2.0),
                                          (2.0, 1.0), (0.5, 3.0), (-1.0, 1.0)]),
                        min_size=1, max_size=3),
    alpha=_st.lists(_st.sampled_from([*_values, 0.75]), min_size=1, max_size=4),
    m=_st.lists(_st.sampled_from([*_values, 1e-320]), min_size=1, max_size=2),
    lam=_st.lists(_st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 1.0, 0, 1, 1e308, 1e-200]),
                  min_size=1, max_size=3),
    mu=_st.lists(_st.sampled_from([-0.0, 0.0, 1.0, 3.0, 0, 1]), min_size=1, max_size=2),
    q=_st.lists(_st.sampled_from([1.0, 2.0, 3.0, 2.0, 0.5, -0.0, 1, 1e308]), min_size=1,
                max_size=3),
    theorems=_st.lists(_st.sampled_from([*cli.bounds.THEOREM_IDS, "bogus"]),
                       min_size=1, max_size=3)))
@hypothesis.settings(max_examples=80, deadline=None, database=None)
def test_grouped_sweep_equals_one_cell_rows(spec):
    cells = [cli.eval_row(*cfg) for cfg in one_cell_configs(spec)]
    for fmt, got, want in zip(("csv", "json"), streamed_bytes(cli.run_sweep(spec)),
                              global_sort_bytes(cells)):
        assert_same_text(got, want, fmt)


# Tables whose 10 input columns are drawn from per-column pools of plain values:
# the first 4 pools give a table's heads (one per group, ``sizes`` of them), the
# next 6 the cells of one of two cell lists (each table takes one, so a list is
# shared by several tables as in a sweep, or changes between them).  The 10
# computed columns are typed, each drawn from a pool of its own: status and holds
# codes, and floats or None from ``_FLOATS``, so that a float column can hold -0.0
# beside 0.0, NaNs of other payloads, the infinities and a subnormal beside absent
# cells.  The order is a random permutation.  The writers must write the bytes of
# csv.writer and json.dumps over the concatenated rows.
_CELLS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 0.1, math.nan, math.inf, -math.inf,
          0, 1, True, False, None, "", 'say "hi"', "a,b", "two\nlines", "cr\r", "é", "∑"]
_MIXED = [[0.0, -0.0, None], [0, 1], [True, False, None], [1, 1.0, True], [0.0, -0.0, 0, False],
          [math.nan, math.inf, None], ["a,b", 'say "hi"', "cr\r", None], ["é", ""],
          [0.0, -0.0, None], [0, 1]]
# every cell input mixes 0, 0.0, -0.0 and True
_MIXED_CELLS = [*_MIXED[:4], *[[0, 0.0, -0.0, True]] * 6]
_PAYLOAD_NAN = np.array([0x7FF8_0000_0000_0001, 0xFFF8_0000_0000_0000], np.uint64).view(
    float).tolist()
_FLOATS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 0.1, 2.0, math.nan, *_PAYLOAD_NAN,
           math.inf, -math.inf, None]
_COMPUTED_POOLS = {"status": bounds.STATUSES, "holds": bounds.HOLDS}
# every status and holds code, and every value of _FLOATS in some float column, in
# the order of bounds.ROW_COLUMNS
_EVERY_VALUE = [list(bounds.STATUSES), _FLOATS[::2], _FLOATS[1::2], [0.0, -0.0, None],
                list(bounds.HOLDS), [math.nan, *_PAYLOAD_NAN], [math.inf, -math.inf, 5e-324],
                [-0.0, 0.0], [0.1, None, 2.0], [None, 1e300, -1e-300]]


def _pools(values):
    return _st.lists(_st.sampled_from(values), min_size=1, max_size=3)


@hypothesis.given(
    pools=_st.lists(_pools(_CELLS), min_size=10, max_size=10),
    computed=_st.tuples(*(_pools(_COMPUTED_POOLS.get(c, _FLOATS)) for c in bounds.ROW_COLUMNS)),
    sizes=_st.lists(_st.integers(0, 4), max_size=4), seed=_st.integers(0, 2**32))
@hypothesis.example(pools=_MIXED, computed=_EVERY_VALUE, sizes=[1, 300, 1, 0], seed=0)
@hypothesis.example(pools=_MIXED, computed=_EVERY_VALUE, sizes=[300, 1], seed=1)
@hypothesis.example(pools=_MIXED_CELLS, computed=_EVERY_VALUE, sizes=[1, 3, 1, 2], seed=0)
@hypothesis.settings(max_examples=60, deadline=None, database=None)
def test_writers_equal_csv_and_json(pools, computed, sizes, seed):
    rng = random.Random(seed)

    def draw(column_pools):
        return tuple(rng.choice(pool) for pool in column_pools)
    cell_lists = [[draw(pools[4:10]) for _ in range(rng.randint(0, 5))] for _ in range(2)]
    tables = []
    for k in sizes:
        cells = rng.choice(cell_lists)
        order = rng.sample(range(k * len(cells)), k * len(cells))
        tables.append(cli.Table([draw(pools[:4]) for _ in range(k)], cells, order,
                                typed([[rng.choice(pool) for _ in order] for pool in computed])))
    rows = table_rows(tables)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.COLUMNS)
    writer.writerows([cli._fmt(v) if c == "holds" else v for c, v in zip(cli.COLUMNS, r)]
                     for r in rows)
    dicts = [dict(zip(cli.COLUMNS, r)) for r in rows]
    assert streamed_bytes(tables) == (buf.getvalue(), json.dumps(dicts, indent=2) + "\n")


# Random argv for verify, tightness and means, and small random spec files for
# sweep: optional flags may be missing, and about one number in three is an
# edge value: a signed zero, NaN, an infinity, a value near either end of the
# float range or a subnormal.  main must answer every one with an exit code,
# never with a traceback.
_EDGE = ["0", "-0", "nan", "-nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "5e-324",
         "-5e-324", "2.5e-310"]
_num = _st.sampled_from(_EDGE + ["0.25", "0.5", "1", "2", "3"] * 5)
_ids = _st.sampled_from([*corpus_by_id(), "nope"])
_theorem = _st.sampled_from([*bounds.THEOREM_IDS, "bogus"])
_POINT = {"--fn": _ids, "--a": _num, "--b": _num}
_POINT_OPTIONAL = {"--alpha": _num, "--m": _num, "--lambda": _num, "--mu": _num, "--q": _num,
                   "--format": _st.sampled_from(["text", "csv", "json"])}
_COMMANDS = {  # (required flags, optional flags); a None value is a bare flag
    "verify": ({**_POINT, "--theorem": _theorem},
               {**_POINT_OPTIONAL, "--crosscheck": _st.none()}),
    "tightness": ({**_POINT, "--theorems": _st.lists(_theorem, min_size=1, max_size=4).map(
        ",".join)}, _POINT_OPTIONAL),
    "means": ({"--prop": _st.integers(1, 6).map(str), "--a": _num, "--b": _num},
              {"--lambda": _num, "--mu": _num, "--q": _num,
               "--n": _st.sampled_from(["-3", "-2", "-1", "0", "1", "2", "3", "400",
                                        "1" + "0" * 20]),
               "--format": _st.sampled_from(["text", "json"])}),
}
_SPEC_VALUES = {"functions": _ids, "intervals": _st.tuples(_num, _num).map(":".join),
                "theorems": _theorem, **{k: _num for k in ("alpha", "m", "lambda", "mu", "q")}}


def _spec_line(key):
    return _st.lists(_SPEC_VALUES[key], min_size=1, max_size=2).map(
        lambda values: f"{key} = {', '.join(values)}")


_spec = _st.tuples(_spec_line("functions"), _spec_line("intervals"), _st.lists(
    _st.sampled_from(sorted(_SPEC_VALUES)).flatmap(_spec_line), max_size=4))


def _argv(command):
    # --flag=value: argparse would take a separate "-inf" for a flag
    required, optional = _COMMANDS[command]
    return _st.fixed_dictionaries(required, optional=optional).map(lambda flags: [
        command, *(flag if value is None else f"{flag}={value}" for flag, value in flags.items())])


@hypothesis.given(_st.one_of(*map(_argv, _COMMANDS), _spec))
@hypothesis.settings(max_examples=120, deadline=None, database=None)
def test_main_answers_every_input_with_an_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), \
            redirect_stderr(io.StringIO()):
        if isinstance(argv, tuple):  # a spec file's lines
            spec = pathlib.Path(tmp, "random.spec")
            spec.write_text("\n".join([*argv[:2], *argv[2]]) + "\n", encoding="utf-8")
            argv = ["sweep", str(spec)]
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)


def test_eval_row_agrees_with_verify(tmp_path):
    # includes exp, m = 0.5, q = 1 under thm22: not applicable, so verify
    # raises ParamError although the gate would fail there
    spec = tmp_path / "all.spec"
    spec.write_text(ALL_STATUS_SPEC)
    sweep = cli.parse_sweep_file(str(spec))
    expected_errors = {"gate_skipped": (GateError,), "input_error": (ParamError,),
                       "not_applicable": (ParamError, DomainError)}
    seen = set()
    for cfg in one_cell_configs(sweep):
        fn_id, a, b, alpha, m, lam, mu, q, theorem = cfg
        row = cli.eval_row(*cfg)
        try:
            report = verify(corpus_by_id()[fn_id], Interval(a, b),
                            Params(alpha=alpha, m=m, lam=lam, mu=mu, q=q), theorem)
        except (GateError, ParamError, DomainError) as exc:
            assert isinstance(exc, expected_errors[row["status"]]), (cfg, row["status"])
            seen.add(row["status"])
            continue
        assert row["status"] in ("ok", "violation"), cfg
        assert (row["lhs"], row["rhs"], row["quad_error"], row["holds"]) == (
            report.lhs, report.rhs, report.quad_error, report.holds)
        seen.add(row["status"])
    assert seen == {"ok", "gate_skipped", "not_applicable", "input_error"}


@pytest.mark.parametrize("tol", ["0", "-1e-9", "inf", "nan", "1e-9"])
@pytest.mark.parametrize("command", [["verify", "--theorem", "da"],
                                     ["tightness", "--theorems", "da,thm11"]])
def test_tol_flag_is_checked_before_evaluating(capsys, command, tol):
    # the LHS quadrature tolerance is a constant, so any --tol is a usage error
    code, out, err = run_cli(capsys, command[0], "--fn", "pow2", "--a", "1", "--b", "2",
                             *command[1:], f"--tol={tol}")
    assert code == 3 and out == ""
    assert err.endswith(f"hh-verify: error: unrecognized arguments: --tol={tol}\n")


class TestTightness:
    def test_ranking(self, capsys):
        code, out, _ = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--q", "2",
                               "--theorems", "da,bop_am,thm11,thm211")
        assert code == 0
        assert "tightest:" in out
        assert "hh_upper" in out  # baseline row is always appended

    def test_unknown_function_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "tightness", "--fn", "nope", "--a", "1",
                                 "--b", "2", "--theorems", "da,thm11")
        assert code == 3
        assert out.count("status=input_error") == 2
        assert err == "error: unknown function 'nope'\n"  # once for both rows

    @pytest.mark.parametrize("flags, message", [
        # every row has the weights' error, which takes precedence over the id's
        (["--lambda", "0", "--mu", "0"], "weights must satisfy lam + mu > 0"),
        ([], "unknown theorem id 'bogus'"),
    ])
    def test_input_errors_are_named_once(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1", "--b", "2",
                                 *flags, "--theorems", "bogus,da,bogus")
        assert code == 3
        assert "theorem=hh_upper  status=ok" in out
        assert out.count("status=input_error") == (3 if flags else 2)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fn_id, theorems, statuses", [
        ("pow2", ["da", "bop_m"], ["input_error", "not_applicable"]),
        ("exp", ["bop_m", "thm22"], ["not_applicable", "not_applicable"]),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_baseline_keeps_the_rows(self, capsys, fn_id, theorems, statuses):
        # the hh_upper baseline's integral leaves the float range (so does da's,
        # for pow2); the rows still print, the baseline's as an input error
        # whose reason is one warning: line (da's row has already printed it
        # for pow2), and numpy's overflow warnings (which would raise here)
        # stay silent
        code, out, err = run_cli(capsys, "tightness", "--fn", fn_id, "--a", "1",
                                 "--b", "1e300", "--theorems", ",".join(theorems),
                                 "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 3
        assert [(r["theorem"], r["status"]) for r in rows] == list(
            zip([*theorems, "hh_upper"], [*statuses, "input_error"]))
        (line,) = err.splitlines()
        assert line.startswith(f"warning: {fn_id} [1.0, 1e+300]: integrand returned a "
                               "non-finite value at x=")

    def test_a_baseline_that_does_not_hold_is_a_violation(self, capsys, monkeypatch):
        # an endpoint average of 1.0 on [1, 2] lies below pow2's mean 7/3
        bound_hh = bounds.bound_hh
        monkeypatch.setattr(bounds, "bound_hh", lambda fn, iv: (bound_hh(fn, iv)[0], 1.0))
        code, out, err = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1", "--b", "2",
                                 "--theorems", "da,thm11")
        assert code == 1 and err == ""
        (row,) = [line for line in out.splitlines() if "theorem=hh_upper" in line]
        assert "status=violation" in row and "holds=false" in row

    @pytest.mark.parametrize("theorems, tightest", [
        ("da,thm11", ["tightest: da (slack=0.5833333333333339)"]),
        ("bogus,nope", []),  # no row holds: no ranking
    ])
    def test_only_bounds_that_hold_are_ranked(self, capsys, monkeypatch, theorems, tightest):
        # the violated baseline's slack of -4/3 is the least, but it is no bound
        bound_hh = bounds.bound_hh
        monkeypatch.setattr(bounds, "bound_hh", lambda fn, iv: (bound_hh(fn, iv)[0], 1.0))
        code, out, _ = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1", "--b", "2",
                               "--theorems", theorems)
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("tightest:")] == tightest

    def test_needs_two_theorems(self, capsys):
        code, _, err = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--theorems", "da")
        assert code == 3
        assert "at least two" in err


class TestMeansCommand:
    def test_prop1(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--prop", "1", "--a", "1",
                               "--b", "2", "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"]
        assert math.isclose(payload["mean_rhs"], 0.75, rel_tol=1e-14)

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--prop", "1", "--a", "1",
                               "--b", "2", "--n", "2", "--format", "text")
        assert code == 0
        lines = out.splitlines()
        assert [line.split("=")[0] for line in lines] == [
            "schema", "prop", "mean_lhs", "mean_rhs", "corollary_rhs", "residual", "holds",
            "note"]
        assert lines[1] == "prop=1" and lines[6] == "holds=true" and lines[7] == "note="

    @pytest.mark.parametrize("prop", ["2", "3", "5", "6"])
    def test_q_above_one_is_required(self, capsys, prop):
        code, out, err = run_cli(capsys, "means", "--prop", prop, "--a", "1", "--b", "2",
                                 "--n", "2", "--q", "1")
        assert code == 3 and out == ""
        assert err == f"error: proposition {prop} requires q > 1, got q=1.0\n"

    def test_small_exponent_rejected(self, capsys):
        code, _, err = run_cli(capsys, "means", "--prop", "1", "--a", "1",
                               "--b", "2", "--n", "1")
        assert code == 3
        assert "error" in err

    def test_overflow_is_input_error(self, capsys):
        # b^n overflows a Python float
        code, _, err = run_cli(capsys, "means", "--prop", "1", "--a", "1",
                               "--b", "1e200", "--n", "3")
        assert code == 3
        assert err.startswith("error:")

    def test_overflow_is_named_in_words(self, capsys):
        # the OverflowError's errno tuple was printed: ((34, 'Numerical ...'))
        code, out, err = run_cli(capsys, "means", "--prop", "1", "--a", "1", "--b", "2",
                                 "--n", "2", "--q", "1e308")
        assert code == 3 and out == ""
        assert err == ("error: proposition 1: a power of a or b is out of float range on "
                       "(1.0, 2.0) (Numerical result out of range)\n")

    @pytest.mark.parametrize("argv", [
        ("--prop", "4", "--a", "1e-200", "--b", "1"),
        ("--prop", "1", "--a", "1e-200", "--b", "1", "--n", "-3"),
        ("--prop", "5", "--a", "1e-200", "--b", "1", "--q", "2"),
        ("--prop", "6", "--a", "1e-200", "--b", "1", "--q", "2"),
    ], ids=["underflow", "negative_power_overflow", "underflow_prop5", "underflow_prop6"])
    def test_out_of_range_power_is_named(self, capsys, argv):
        # a^(2q) underflows to 0 (props 4-6); a^n overflows (prop 1, n = -3)
        code, _, err = run_cli(capsys, "means", *argv)
        assert code == 3
        assert err.startswith(f"error: proposition {argv[1]}:")
        assert "a power of a or b is out of float range" in err

    def test_underflowed_weight_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "means", "--prop", "1", "--a", "1", "--b", "2",
                               "--n", "2", "--lambda", "1e-160", "--mu", "0", "--q", "2")
        assert code == 3
        assert err.startswith("error: coefficient gamma1 must be nonnegative")

    @pytest.mark.parametrize("prop", ["3", "6"])
    def test_underflowed_thm22_kernel_is_an_input_error(self, capsys, prop):
        # propositions 3 and 6 evaluate thm22, whose kernel underflows to 0
        # here: not a failed proposition (exit 1) but an input error
        code, _, err = run_cli(capsys, "means", "--prop", prop, "--a", "1", "--b", "2",
                               "--n", "2", "--lambda", "1e-200", "--mu", "0", "--q", "2")
        assert code == 3
        assert err == "error: thm22 kernel underflows to 0 at lambda = 1e-200, mu = 0.0\n"

    def test_prop6_notes_extra_factor(self, capsys):
        code, out, _ = run_cli(capsys, "means", "--prop", "6", "--a", "1",
                               "--b", "2", "--q", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["note"]


class TestFormatting:
    def test_fmt_floats_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 61.0 / 81.0, 1e-300):
            assert float(cli._fmt(v)) == v

    def test_fmt_special_values(self):
        assert cli._fmt(None) == ""
        assert cli._fmt(True) == "true"
        assert cli._fmt(False) == "false"
        assert cli._fmt("thm11") == "thm11"
