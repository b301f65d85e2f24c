"""One measured round of a workload, in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED WORKDIR TAG T_SPAWN [--trace] [--reference] [--small]

Puts the checkout's ``src/`` first on ``sys.path`` (hhverify is not
installed), imports hhverify, builds the workload's inputs from the seed and
then times the first call into the program up to the complete output in
hand.  Writes the output to ``WORKDIR/TAG.out`` and its measurements to
``WORKDIR/TAG.json``.  ``T_SPAWN`` is the parent's CLOCK_MONOTONIC reading
just before it started this process, so set-up time includes interpreter
start-up.  ``--reference`` runs the untimed sweep the checks compare with;
``--small`` runs the reduced inputs of the benchmark's own tests.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    """User plus system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _import_hhverify():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hhverify
    import hhverify.cli
    if not Path(hhverify.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"hhverify was imported from {hhverify.__file__}, not from {src}")
    return hhverify


def _rsqrt(x):
    return x ** -0.5


def run_oracle(hh, ops: list) -> list:
    """Call the library's public cross-checks; an exception is recorded as
    the operation's result so that the round still runs whole."""
    corpus = hh.corpus_by_id()
    out = []
    for op in ops:
        kind = op[0]
        try:
            if kind == "kernel_moment":
                _, alpha, lam, mu, weight, switch, p = op
                out.append(float(hh.kernel_moment(alpha, lam, mu, weight, switch, p)))
            elif kind == "lemma21":
                _, fn_id, a, b, lam, mu = op
                out.append(float(hh.lemma21_residual(corpus[fn_id], hh.Interval(a, b), lam, mu)))
            elif kind in ("integrate", "integrate_rsqrt"):
                if kind == "integrate":
                    _, fn_id, a, b, tol = op
                    f = corpus[fn_id].f
                else:
                    _, a, b, tol = op
                    f = _rsqrt
                r = hh.integrate(f, (a, b), tol=tol)
                out.append([float(r.value), float(r.error_estimate), r.evaluations,
                            bool(r.converged)])
            else:
                _, prop, a, b, lam, mu, q, n = op
                r = hh.proposition_check(prop, a, b, hh.Params(lam=lam, mu=mu, q=q), n=n)
                out.append([float(r.mean_lhs), float(r.mean_rhs), float(r.corollary_rhs),
                            float(r.residual), bool(r.holds), r.note])
        except Exception as exc:  # recorded and counted as a failed operation
            out.append({"error": f"{type(exc).__name__}: {exc}"})
    return out


def main(argv: list[str]) -> int:
    workload, seed, workdir, tag, t_spawn = argv[:5]
    flags = set(argv[5:])
    seed, t_spawn, workdir = int(seed), float(t_spawn), Path(workdir)
    trace, reference, small = "--trace" in flags, "--reference" in flags, "--small" in flags

    hh = _import_hhverify()
    import workloads

    w = workloads.WORKLOADS[workload]
    kind, fmt, jobs = w.kind, w.fmt, w.jobs
    out_path = workdir / f"{tag}.out"
    if kind == "sweep":
        spec = workloads.sweep_spec(workload, seed, small)
        items = workloads.spec_rows(spec)
        if w.builtin_spec and not small:
            spec_arg = "default"
        else:
            spec_arg = str(workdir / f"{tag}.spec")
            Path(spec_arg).write_text(workloads.spec_text(spec), encoding="utf-8")
        if reference:
            fmt, jobs = w.ref_fmt, 1
        argv_cli = ["sweep", spec_arg, "-o", str(out_path)]
        if fmt == "json":
            argv_cli += ["--format", "json"]
        if jobs > 1:
            argv_cli += ["--jobs", str(jobs)]
    else:
        ops = workloads.oracle_ops(seed, small)
        items = len(ops)
    setup_s = _now() - t_spawn

    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(hh)

    cpu0 = _cpu()
    t0 = time.perf_counter()
    if kind == "sweep":
        code = hh.cli.main(argv_cli)
    else:
        results = run_oracle(hh, ops)
        code = 0
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if kind == "oracle":
        out_path.write_text(json.dumps(results), encoding="utf-8")
    record = {"setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
              "peak_rss_mb": peak_rss_mb, "items": items, "exit_code": code}
    if tracer is not None:
        record["layers"] = tracer.metrics(wall_s)
        record["self_s"] = tracer.self_times()
        tracer.write(workdir / f"{tag}.trace.json", workload, wall_s)
    (workdir / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
