import csv
import hashlib
import io
import itertools
import json
import math
import pathlib
import random
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from operator import itemgetter

import hypothesis
import numpy as np
import pytest

from hhverify import (DomainError, GateError, Interval, ParamError, Params, bounds, cli,
                      corpus_by_id, verify)

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


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_cell_configs(spec):
    """eval_row's arguments for each cell of the spec, in spec order."""
    return [(fn_id, a, b, *p, theorem, spec.quad_tol, spec.holds_tol)
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


def streamed_bytes(rows):
    """The CSV and JSON texts the sweep writes for ``rows``, an iterable of tuples."""
    rows = list(rows)
    texts = io.StringIO(), io.StringIO()
    cli.write_csv(rows, texts[0])
    cli.write_json(rows, texts[1])
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
        assert "status=input_error" in out and err == ""

    def test_input_error_exit_three(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--fn", "nope", "--a", "0",
                             "--b", "1", "--theorem", "da")
        assert code == 3

    def test_q1_not_applicable_exit_three(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--q", "1", "--theorem", "thm22")
        assert code == 3
        assert "status=not_applicable" in out

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
                                      "q = 2, NaN", "quad_tol = nan"])
    def test_nan_in_a_spec_is_an_input_error(self, tmp_path, capsys, line):
        # NaN has no sort order, so the rows of a NaN value would have no place
        spec = tmp_path / "nan.spec"
        spec.write_text(f"functions = pow2\nintervals = 1:2\n{line}\n")
        code, out, err = run_cli(capsys, "sweep", str(spec))
        assert code == 3 and out == ""
        assert err.startswith(f"error: {spec}:3: ") and err.endswith(" is not a number\n")

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
         ["pow2 [1.0, 2.0]: float division by zero"]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e-200, 1\nmu = 0\nq = 2\n"
         "theorems = thm11\n", ["input_error", "ok"],
         ["pow2 [1.0, 2.0]: float division by zero"]),
        ("functions = pow2\nintervals = 1:2\nlambda = 1e-200, 1\nmu = 0\nq = 2\n"
         "theorems = thm22\n", ["input_error", "ok"], []),
    ], ids=["non_finite_integral", "non_finite_gate", "division_by_underflow",
            "division_by_underflow_spares_its_group", "underflowed_thm22_kernel"])
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

    @pytest.mark.parametrize("text, message", [
        ("functions = pow2\nintervals = 1:2\nalpha = x\n", ":3: 'x' is not a number"),
        ("functions = pow2\nintervals = 1:2\nq 2\n", ":3: expected 'key = values'"),
        ("intervals = 1:2\n", ": functions and intervals must be non-empty"),
        ("functions = pow2\n", ": functions and intervals must be non-empty"),
    ], ids=["not_a_number", "no_equals_sign", "no_functions", "no_intervals"])
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

    def test_jobs_output_matches_serial(self, tmp_path, capsys):
        # holds_tol = -0.5 turns rows whose slack is below 0.5 into violations
        spec = tmp_path / "all.spec"
        spec.write_text(ALL_STATUS_SPEC + "holds_tol = -0.5\n")
        serial, jobs2 = tmp_path / "serial.csv", tmp_path / "jobs2.csv"
        assert run_cli(capsys, "sweep", str(spec), "-o", str(serial))[0] == 1
        assert run_cli(capsys, "sweep", str(spec), "-o", str(jobs2),
                       "--jobs", "2")[0] == 1
        rows = list(csv.DictReader(io.StringIO(serial.read_text())))
        assert {r["theorem"] for r in rows} == set(cli.bounds.THEOREM_IDS)
        assert {r["status"] for r in rows} == {
            "ok", "violation", "gate_skipped", "not_applicable", "input_error"}
        assert serial.read_bytes() == jobs2.read_bytes()

    def test_summary_recounts_rows(self, tmp_path):
        spec = tmp_path / "all.spec"
        spec.write_text(ALL_STATUS_SPEC + "holds_tol = -0.5\n")
        summary = {}
        rows = [dict(zip(cli.COLUMNS, row))
                for row in cli.run_sweep(cli.parse_sweep_file(str(spec)), summary=summary)]
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

    def test_pool_is_bounded_by_the_groups(self, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        three = cli.SweepSpec(functions=["pow2"], intervals=[(1.0, 2.0), (0.5, 3.0), (2.0, 5.0)],
                              q=[1.0, 2.0], theorems=["da", "thm11"])
        rows = list(cli.run_sweep(three, jobs=100))
        assert started == [3]
        assert rows == list(cli.run_sweep(three))
        one = cli.SweepSpec(functions=["pow2"], intervals=[(1.0, 2.0)], theorems=["da"])
        assert len(list(cli.run_sweep(one, jobs=100))) == 1
        assert started == [3]  # a single group runs in this process

    @pytest.mark.parametrize("case", ["all_statuses", "precedence"])
    def test_grouped_sweep_equals_per_cell_rows(self, tmp_path, case):
        if case == "all_statuses":
            path = tmp_path / "all.spec"
            path.write_text(ALL_STATUS_SPEC + "holds_tol = -0.5\n")
            spec = cli.parse_sweep_file(str(path))
        else:
            # unknown function and theorem ids, a reversed interval, a domain
            # error, zero weights, q = 1 beside q > 1 and a repeated alpha
            spec = cli.SweepSpec(functions=["recip", "nope", "pow2"],
                                 intervals=[(1.0, 2.0), (2.0, 1.0), (0.0, 1.0)],
                                 alpha=[1.0, 0.5, 1.0], lam=[0.0, 1.0], mu=[0.0, 2.0],
                                 q=[2.0, 1.0], theorems=["thm22", "bogus", "da", "sso"])
        rows = list(cli.run_sweep(spec))
        cells = sorted((cli.eval_row(*cfg) for cfg in one_cell_configs(spec)),
                       key=itemgetter(*cli.INPUT_COLUMNS[1:]))
        assert all(list(cell) == cli.COLUMNS for cell in cells)
        assert repr(rows) == repr([tuple(cell.values()) for cell in cells])
        statuses = {r[cli.COLUMNS.index("status")] for r in rows}
        assert statuses >= {"ok", "gate_skipped", "not_applicable", "input_error"}
        assert case == "precedence" or "violation" in statuses

    def test_json_bytes_are_the_indented_dump(self, tmp_path, capsys):
        path = tmp_path / "all.spec"
        path.write_text(ALL_STATUS_SPEC)
        rows = list(cli.run_sweep(cli.parse_sweep_file(str(path))))
        # exp at m = 0.5 fails the gate, so lhs through rhs_loose are None
        argv = ("verify", "--fn", "exp", "--a", "0", "--b", "1", "--m", "0.5",
                "--theorem", "bop_am", "--format", "json")
        (row,) = json.loads(run_cli(capsys, *argv)[1])
        assert row["lhs"] is None and row["gate_violation"] is not None
        for case in (rows, [tuple(row.values())], []):
            text = io.StringIO()
            cli.write_json(case, text)
            dicts = [dict(zip(cli.COLUMNS, r)) for r in case]
            assert text.getvalue() == json.dumps(dicts, indent=2) + "\n"

    def test_jobs_defaults_to_one(self, monkeypatch):
        monkeypatch.setenv("HH_VERIFY_JOBS", "2")
        assert cli.build_parser().parse_args(["sweep", "default"]).jobs == 1

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "47982126e57c8f33f2ac7df45b809e657f9d2444841714477f9ce17350322109"),
        ("json", "1e393bbbf038a9a076645c3fde6744a6f5e650d04def6734b463e814f0cf564e"),
    ], ids=["csv", "json"])
    def test_default_sweep_bytes_are_pinned(self, tmp_path, capsys, fmt, digest):
        # the digests and summary lines of the sweep written with one global sort
        out_file = tmp_path / f"default.{fmt}"
        code, out, err = run_cli(capsys, "sweep", "default", "--format", fmt, "-o", str(out_file))
        assert code == 0 and err == ""
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest
        assert out == (
            "sweep: 67200 rows (8 functions x 4 intervals x 2x2 (alpha,m) x 5x5 weights x "
            "3 q x 7 theorems)\n"
            "total=67200 holds=26016 violations=0 gate_skipped=24096 not_applicable=14784 "
            "input_error=2304\n"
            "min_slack=-1.7763568394002505e-15 at "
            "('pow2', 2.0, 5.0, 1.0, 0.5, 0.0, 5.0, 1.0, 'thm11')\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trap_spec_matches_the_global_sort(self, tmp_path, capsys, fmt):
        # tied keys (repeats, -0.0 beside 0) must come out in the order one
        # global stable sort of the spec-order rows gives, serial and pooled
        spec = cli.parse_sweep_file(str(TRAP_SPEC))
        params = list(itertools.product(spec.alpha, spec.m, spec.lam, spec.mu, spec.q))
        rows = []
        for fn_id, (a, b) in itertools.product(spec.functions, spec.intervals):
            columns, _ = cli.group_rows(fn_id, a, b, params, spec.theorems)
            rows += [dict(zip(cli.COLUMNS, (1, fn_id, a, b, *p, t, *computed)))
                     for (p, t), computed in zip(itertools.product(params, spec.theorems),
                                                 zip(*columns))]
        expected = global_sort_bytes(rows)[fmt == "json"]
        for jobs in ("1", "2"):
            out_file = tmp_path / f"trap{jobs}.{fmt}"
            assert run_cli(capsys, "sweep", str(TRAP_SPEC), "--format", fmt, "--jobs", jobs,
                           "-o", str(out_file))[0] == 0
            assert out_file.read_text() == expected, jobs

    def test_rows_stream_one_tie_class_at_a_time(self, monkeypatch):
        calls = []
        original = cli.group_rows
        monkeypatch.setattr(cli, "group_rows",
                            lambda *args: calls.append(args[:3]) or original(*args))
        spec = cli.SweepSpec(functions=["pow2"], intervals=[(1.0, 2.0), (0.0, 1.0), (-0.0, 1.0)],
                             q=[1.0, 2.0], theorems=["da", "thm11"])
        rows = cli.run_sweep(spec)
        assert calls == []
        first = next(rows)
        # the tie class of [0, 1] and [-0, 1], in spec order, and nothing more
        assert repr(calls) == repr([("pow2", 0.0, 1.0), ("pow2", -0.0, 1.0)])
        assert first[1:4] == ("pow2", 0.0, 1.0)
        assert len(list(rows)) == 11 and len(calls) == 3

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
_st = hypothesis.strategies
# The ints 0 and 1 equal the floats 0.0, -0.0 and 1.0 but are written "0" and "1".
_values = _st.sampled_from([0.25, 0.5, 1.0, 0.5, 1.0, -0.0, 1.5, 0, 1])


@hypothesis.given(_st.builds(
    cli.SweepSpec,
    functions=_st.lists(_st.sampled_from(["pow2", "pow3", "recip", "exp", "xlogx", "nope"]),
                        min_size=1, max_size=2),
    intervals=_st.lists(_st.sampled_from([(0.0, 1.0), (-0.0, 1.0), (-0.0, 0.5), (1.0, 2.0),
                                          (2.0, 1.0), (0.5, 3.0), (-1.0, 1.0)]),
                        min_size=1, max_size=3),
    alpha=_st.lists(_values, min_size=1, max_size=2),
    m=_st.lists(_values, min_size=1, max_size=2),
    lam=_st.lists(_st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, 1.0, 0, 1]), min_size=1,
                  max_size=3),
    mu=_st.lists(_st.sampled_from([-0.0, 0.0, 1.0, 3.0, 0, 1]), min_size=1, max_size=2),
    q=_st.lists(_st.sampled_from([1.0, 2.0, 3.0, 2.0, 0.5, -0.0, 1]), min_size=1, max_size=3),
    theorems=_st.lists(_st.sampled_from([*cli.bounds.THEOREM_IDS, "bogus"]),
                       min_size=1, max_size=3)))
@hypothesis.settings(max_examples=80, deadline=None, database=None)
def test_grouped_sweep_equals_one_cell_rows(spec):
    cells = [cli.eval_row(*cfg) for cfg in one_cell_configs(spec)]
    assert streamed_bytes(cli.run_sweep(spec)) == global_sort_bytes(cells)


# Rows of 20 cells from per-column pools of plain values, so that a column of
# a batch is sometimes of one type (formatted through a memo) and sometimes
# mixed, with up to 600 rows so that batch boundaries are crossed.  The
# writers must write the bytes of csv.writer and json.dumps.
_CELLS = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 0.1, math.nan, math.inf, -math.inf,
          0, 1, True, False, None, "", 'say "hi"', "a,b", "two\nlines", "cr\r", "é", "∑"]


@hypothesis.given(
    pools=_st.lists(_st.lists(_st.sampled_from(_CELLS), min_size=1, max_size=3),
                    min_size=len(cli.COLUMNS), max_size=len(cli.COLUMNS)),
    n=_st.integers(0, 600), seed=_st.integers(0, 2**32))
@hypothesis.example(pools=([[0.0, -0.0, None], [0, 1], [True, False, None], [1, 1.0, True],
                            [0.0, -0.0, 0, False], [math.nan, math.inf, None],
                            ["a,b", 'say "hi"', "cr\r", None], ["é", ""]] * 3)[:20],
                    n=2 * cli.BATCH_ROWS + 1, seed=0)
@hypothesis.settings(max_examples=60, deadline=None, database=None)
def test_writers_equal_csv_and_json(pools, n, seed):
    rng = random.Random(seed)
    rows = [tuple(map(rng.choice, pools)) for _ in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.COLUMNS)
    writer.writerows([cli._fmt(v) if c == "holds" else v for c, v in zip(cli.COLUMNS, r)]
                     for r in rows)
    dicts = [dict(zip(cli.COLUMNS, r)) for r in rows]
    assert streamed_bytes(rows) == (buf.getvalue(), json.dumps(dicts, indent=2) + "\n")


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
                   "--tol": _st.sampled_from(_EDGE + ["1e-9"] * 4),
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
                "theorems": _theorem, "quad_tol": _st.sampled_from(_EDGE + ["1e-9"] * 4),
                **{k: _num for k in ("alpha", "m", "lambda", "mu", "q", "holds_tol")}}


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
        fn_id, a, b, alpha, m, lam, mu, q, theorem, quad_tol, holds_tol = cfg
        row = cli.eval_row(*cfg)
        try:
            report = verify(corpus_by_id()[fn_id], Interval(a, b),
                            Params(alpha=alpha, m=m, lam=lam, mu=mu, q=q), theorem,
                            tol=quad_tol)
        except (GateError, ParamError, DomainError) as exc:
            assert isinstance(exc, expected_errors[row["status"]]), (cfg, row["status"])
            seen.add(row["status"])
            continue
        assert row["status"] in ("ok", "violation"), cfg
        assert (row["lhs"], row["rhs"], row["quad_error"], row["holds"]) == (
            report.lhs, report.rhs, report.quad_error, report.holds)
        seen.add(row["status"])
    assert seen == {"ok", "gate_skipped", "not_applicable", "input_error"}


class TestTightness:
    def test_ranking(self, capsys):
        code, out, _ = run_cli(capsys, "tightness", "--fn", "pow2", "--a", "1",
                               "--b", "2", "--q", "2",
                               "--theorems", "da,bop_am,thm11,thm211")
        assert code == 0
        assert "tightest:" in out
        assert "hh_upper" in out  # baseline row is always appended

    def test_unknown_function_is_input_error(self, capsys):
        code, out, _ = run_cli(capsys, "tightness", "--fn", "nope", "--a", "1",
                               "--b", "2", "--theorems", "da,thm11")
        assert code == 3
        assert out.count("status=input_error") == 2

    @pytest.mark.parametrize("fn_id, theorems, statuses", [
        ("pow2", ["da", "bop_m"], ["input_error", "not_applicable"]),
        ("exp", ["bop_m", "thm22"], ["not_applicable", "not_applicable"]),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_baseline_keeps_the_rows(self, capsys, fn_id, theorems, statuses):
        # the hh_upper baseline leaves the float range (so does da's
        # integral, for pow2); the rows still print, the baseline's as an
        # input error, and numpy's overflow warnings (which would raise
        # here) stay silent
        code, out, err = run_cli(capsys, "tightness", "--fn", fn_id, "--a", "1",
                                 "--b", "1e300", "--theorems", ",".join(theorems),
                                 "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 3
        assert [(r["theorem"], r["status"]) for r in rows] == list(
            zip([*theorems, "hh_upper"], [*statuses, "input_error"]))
        assert err.count("warning: ") == statuses.count("input_error")

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
