"""End-to-end and per-layer benchmark of hhverify's sweeps and oracles.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Runs from the root of a checkout with hhverify not installed.  Each round of
a workload is one fresh interpreter (bench/child.py), so the CLI's
module-level caches start cold, as they do for every ``hh-verify`` call.
Rounds run one after another (a closed loop with one client) until
``--seconds`` have passed; every metric is the median over the rounds.
After the timed rounds the first round's output is checked against
independent computations (bench/checks.py), and every other round's output
must be byte-identical to it.  With ``--trace 1`` each round also runs a
second, traced interpreter and the per-layer metrics are printed instead of
the end-to-end ones.  The last line of standard output is one JSON object.
Exits 0 once the results are printed (even with ``"correct": false``), 1 when
a round fails to run, 2 when the checkout has no hhverify sources.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
E2E = (("setup_s", "s"), ("wall_s", "s"), ("items_per_s", "items/s"),
       ("cpu_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, workdir: Path, tag: str, *flags: str) -> dict:
    """Run one round in a fresh interpreter and return its measurements."""
    env = dict(os.environ)
    env.pop("HH_VERIFY_JOBS", None)  # would change the sweeps' default --jobs
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(workdir),
         tag, repr(t_spawn), *flags],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.communicate()
        raise BenchError(f"round {tag} of {workload} ran over {CHILD_TIMEOUT_S} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers left behind, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"round {tag} of {workload} exited with {proc.returncode}:\n"
                         f"{err[-3000:]}")
    return json.loads((workdir / f"{tag}.json").read_text(encoding="utf-8"))


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_output(workload: str, seed: int, small: bool, workdir: Path) -> tuple[int, list[str]]:
    """(failed operations in one round, problems in the others) for the
    first round's output."""
    w = workloads.WORKLOADS[workload]
    out = workdir / "r0.out"
    if w.kind == "oracle":
        results = json.loads(out.read_text(encoding="utf-8"))
        return checks.check_oracle(workloads.oracle_ops(seed, small), results)

    spawn(workload, seed, workdir, "ref", "--reference", *(["--small"] if small else []))
    ref = workdir / "ref.out"
    header, rows, problems = checks.read_rows(out, w.fmt)
    problems += checks.check_sweep(rows, workloads.sweep_spec(workload, seed, small))
    failed = checks.malformed_rows(rows)
    if workload == "default_jobs2":
        if out.read_bytes() != ref.read_bytes():
            problems.append("--jobs 2 output differs from the serial output")
    else:
        ref_header, ref_rows, ref_problems = checks.read_rows(ref, w.ref_fmt)
        failed |= checks.malformed_rows(ref_rows)
        problems += ref_problems
        problems += checks.compare_rows(header, rows, ref_header, ref_rows)
    return len(failed), problems


def median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    workdir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    extra = ["--small"] if small else []
    try:
        plain, traced, digests = [], [], set()
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            i = len(plain)
            plain.append(spawn(workload, seed, workdir, f"r{i}", *extra))
            if trace:
                traced.append(spawn(workload, seed, workdir, f"t{i}", "--trace", *extra))
            for tag in (f"r{i}", f"t{i}") if trace else (f"r{i}",):
                digests.add(digest(workdir / f"{tag}.out"))
                if tag != "r0":
                    (workdir / f"{tag}.out").unlink()

        failed_per_round, problems = check_output(workload, seed, small, workdir)
        if len(digests) != 1:
            problems.append("the rounds' outputs are not byte-identical")
        codes = {r["exit_code"] for r in plain + traced} - {0}
        if codes:
            problems.append(f"hh-verify exited with code {min(codes)}")
        rounds = len(plain) + len(traced)
        result = {"correct": not problems, "attempted": plain[0]["items"] * rounds,
                  "failed": failed_per_round * rounds}
        print(f"{workload}: {rounds} rounds, attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        if trace:
            layers = {name: statistics.median(t["layers"][name] for t in traced)
                      for name in traced[0]["layers"]}
            layers["trace.overhead_s"] = median(traced, "wall_s") - median(plain, "wall_s")
            WORK.mkdir(exist_ok=True)
            os.replace(workdir / f"t{len(traced) - 1}.trace.json",
                       WORK / f"trace-{workload}.json")
            report_trace(workload, traced, layers)
            metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                       for name, value in layers.items()}
        else:
            for r in plain:
                r["items_per_s"] = r["items"] / r["wall_s"]
            metrics = {name: {"value": median(plain, name), "unit": unit}
                       for name, unit in E2E}
            report_e2e(workload, plain, metrics)
        for problem in problems:
            print(f"CHECK FAILED [{workload}]: {problem}", file=sys.stderr)
        return {**result, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report_e2e(workload: str, plain: list, metrics: dict) -> None:
    print(f"{workload}: median of {len(plain)} rounds, {plain[0]['items']} items each")
    for name, m in metrics.items():
        spread = [r[name] for r in plain]
        print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<8}"
              f" (min {min(spread):.4f}, max {max(spread):.4f})")


def report_trace(workload: str, traced: list, layers: dict) -> None:
    """Self time per layer of the median traced round, and what is left."""
    t = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
    wall = t["wall_s"]
    print(f"{workload}: traced wall {wall:.4f} s ({len(traced)} traced rounds); self time by layer:")
    for layer, s in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
        if s > 0:
            print(f"  {layer:<34} {s:>9.4f} s {100 * s / wall:6.1f} %")
    rest = t["layers"]["trace.unattributed_s"]
    print(f"  {'(outside every traced layer)':<34} {rest:>9.4f} s {100 * rest / wall:6.1f} %")
    print(f"  tracing overhead (traced minus untraced wall, medians): "
          f"{layers['trace.overhead_s']:.4f} s")
    for name, value in layers.items():
        print(f"  {name:<40} {value:.6g} {tracing.unit_of(name)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hhverify" / "__init__.py").is_file():
        print(f"error: no hhverify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.small)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
