#!/usr/bin/env python3
"""cdplift benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py              # every workload, untraced then traced,
                                          # each in a fresh process

Load is one simulated user in one process: each op starts only after the
previous one finished (closed loop, no thread pool), with BLAS/OpenMP threads
capped at the number of usable cores.  Ops start until ``--seconds`` have
passed; the op running at that moment finishes and counts.  Every op's output
is checked, and an op that raises or fails its check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice on the same inputs, untraced and traced, and reports per-layer metrics
from the traced copies, the tracing overhead, and whether the traced copies
reproduced the untraced counts exactly.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record, spans included, is written under
``perfbench/out/``.  ``setup_s`` is the time from the start of this script
until the first timed op begins: importing cdplift, making the first op's
inputs and one untimed warm-up op.  Without the library sources next to this
directory the command exits with status 2 and prints no result.

The benchmark's own tests: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()  # setup_s counts from here
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# op_tail_s; a run holds too few ops to leave ten beyond a high percentile
TAIL_PERCENTILE = 90
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "solver.solve_s": "s",
    "solver.self_s": "s",
    "solver.sweeps": "count",
    "solver.converged_frac": "fraction",
    "solver.forward_per_sweep": "count",
    "solver.extract_s": "s",
    "diffraction.apply_A_calls": "count",
    "diffraction.apply_A_s": "s",
    "diffraction.apply_A_us_per_call": "us",
    "diffraction.apply_A_adjoint_calls": "count",
    "diffraction.apply_A_adjoint_s": "s",
    "diffraction.apply_A_adjoint_us_per_call": "us",
    "diffraction.apply_R_calls": "count",
    "diffraction.apply_R_s": "s",
    "diffraction.sample_masks_s": "s",
    "diffraction.frame_s": "s",
    "diffraction.measure_s": "s",
    "hermitian.psd_project_calls": "count",
    "hermitian.psd_project_s": "s",
    "hermitian.tangent_project_calls": "count",
    "hermitian.tangent_project_s": "s",
    "certify.injectivity_s": "s",
    "certify.injectivity_self_s": "s",
    "certify.golfing_s": "s",
    "certify.golfing_attempts": "count",
    "certify.golfing_accept_ratio": "fraction",
    "certify.masks_used": "count",
    "certify.verify_s": "s",
    "certify.isotropy_s": "s",
    "certify.two_design_s": "s",
    "certify.enum_passes": "count",
    "trace.ops_per_s_ratio": "ratio",
    "trace.counts_match": "bool",
}


def _no_span(name):
    return contextlib.nullcontext()


def _cap_threads() -> int:
    """Cap BLAS/OpenMP threads at the usable cores; must precede numpy import."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _parse(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(seed: int, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError) as exc:
        blas = f"unavailable ({type(exc).__name__})"
    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if rev else None
    return {
        "git_rev": rev,
        "git_dirty": None if status is None else bool(status),
        "nproc": nproc,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


def timed_op(workload, inp, span):
    """Run one op, then its output check; only the op itself is timed."""
    from workloads import Outcome

    start = time.perf_counter()
    try:
        with span("op"):
            produced = workload.run(inp, span)
    except Exception as exc:
        return time.perf_counter() - start, Outcome(
            failure=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())
    elapsed = time.perf_counter() - start
    try:
        with span("check"):
            return elapsed, workload.check(inp, produced)
    except Exception as exc:
        return elapsed, Outcome(
            failure=f"{type(exc).__name__}: {exc}", traceback=traceback.format_exc())


def closed_loop(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Issue ops back to back until ``seconds`` have passed.

    With a tracer each op runs twice on the same inputs, untraced and traced,
    alternating which copy goes first so neither gains from the other's warm
    caches; the wrappers are removed before every untraced copy.
    """
    times, outcomes, traced_times, traced_outcomes = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while True:
        inp = workload.inputs(seed, index)
        copies = [False] if tracer is None else [bool(index % 2), not index % 2]
        for traced in copies:
            if traced:
                tracer.op = index
                with tracer.installed():
                    elapsed, outcome = timed_op(workload, inp, tracer.span)
                traced_times.append(elapsed)
                traced_outcomes.append(outcome)
            else:
                elapsed, outcome = timed_op(workload, inp, _no_span)
                times.append(elapsed)
                outcomes.append(outcome)
        index += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "wall_s": time.perf_counter() - start,
        "times": times,
        "outcomes": outcomes,
        "traced_times": traced_times,
        "traced_outcomes": traced_outcomes,
    }


def tail(times) -> tuple[float, int]:
    """(TAIL_PERCENTILE-th percentile, ops slower than it) of the op times.

    The percentile interpolates linearly between the ops on either side, so it
    is never below the median; a single op is its own percentile.
    """
    if len(times) == 1:
        return times[0], 0
    value = statistics.quantiles(times, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(t > value for t in times)


# ---------------------------------------------------------------------------
# metrics


def end_to_end(loop: dict, setup_s: float) -> tuple[dict, dict]:
    times, outcomes = loop["times"], loop["outcomes"]
    n = len(times)
    failed = sum(o.failure is not None for o in outcomes)
    tail_s, beyond = tail(times)
    metrics = {
        "ops_per_s": n / loop["wall_s"],
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "ok_frac": 1.0 - failed / n,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": failed / n,
        "op_tail_percentile": TAIL_PERCENTILE,
        "op_tail_beyond": beyond,
        "op_samples": n,
    }
    return metrics, extra


def per_layer(workload, loop: dict, spans) -> tuple[dict, dict]:
    """Per-op layer metrics from the traced copies of the ops."""
    from tracer import nested_self_calls, summarize

    outcomes = loop["traced_outcomes"]
    n = len(outcomes)
    summary = summarize(spans, range(n))
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "from": {}}

    def row(name):
        return summary.get(name, empty)

    def calls(name):
        return row(name)["calls"] / n

    def secs(name):
        return row(name)["total_s"] / n

    sweeps = sum(o.sweeps for o in outcomes)
    attempts = sum(o.golfing_attempts for o in outcomes)
    m = {
        "solver.solve_s": secs("solver.solve_phaselift"),
        "solver.self_s": row("solver.solve_phaselift")["self_s"] / n,
        "solver.sweeps": sweeps / n,
        "solver.converged_frac": sum(o.converged for o in outcomes) / n,
        "solver.forward_per_sweep": (
            row("diffraction.apply_A")["from"].get("solver.solve_phaselift", 0) / sweeps
            if sweeps else 0.0),
        "solver.extract_s": secs("solver.extract_signal"),
    }
    for short in ("apply_A", "apply_A_adjoint"):
        r = row(f"diffraction.{short}")
        m[f"diffraction.{short}_calls"] = r["calls"] / n
        m[f"diffraction.{short}_s"] = r["total_s"] / n
        m[f"diffraction.{short}_us_per_call"] = (
            1e6 * r["total_s"] / r["calls"] if r["calls"] else 0.0)
    m.update({
        "diffraction.apply_R_calls": calls("diffraction.apply_R"),
        "diffraction.apply_R_s": secs("diffraction.apply_R"),
        "diffraction.sample_masks_s": secs("diffraction.sample_masks"),
        "diffraction.frame_s": secs("diffraction.MeasurementFrame"),
        "diffraction.measure_s": secs("diffraction.measure"),
        "hermitian.psd_project_calls": calls("hermitian.psd_project"),
        "hermitian.psd_project_s": secs("hermitian.psd_project"),
        "hermitian.tangent_project_calls": calls("hermitian.TangentSpace.project"),
        "hermitian.tangent_project_s": secs("hermitian.TangentSpace.project"),
        "certify.injectivity_s": secs("certify.injectivity_spectrum"),
        "certify.injectivity_self_s": row("certify.injectivity_spectrum")["self_s"] / n,
        "certify.golfing_s": secs("certify.golfing_construct"),
        "certify.golfing_attempts": attempts / n,
        "certify.golfing_accept_ratio": (
            sum(o.golfing_accepted for o in outcomes) / attempts if attempts else 0.0),
        "certify.masks_used": sum(o.masks_used for o in outcomes) / n,
        "certify.verify_s": secs("certify.verify_certificate"),
        "certify.isotropy_s": secs("certify.check_near_isotropy_exact"),
        "certify.two_design_s": secs("certify.check_two_design_exact"),
        # computed from the enumeration sizes, not counted
        "certify.enum_passes": float(getattr(workload, "enum_passes", lambda: 0)()),
    })

    counts_match = [a.counts() for a in loop["outcomes"]] == [b.counts() for b in outcomes]
    m["trace.ops_per_s_ratio"] = sum(loop["times"]) / sum(loop["traced_times"])
    m["trace.counts_match"] = float(counts_match)
    # one PSD projection per feasibility sweep, counted without the tracer
    psd_from_solver = row("hermitian.psd_project")["from"].get("solver.solve_phaselift", 0)
    checks = {
        "counts_match": counts_match,
        "no_nested_self_calls": not nested_self_calls(spans),
        "psd_project_per_sweep": (
            psd_from_solver == sweeps if workload.name == "recover" else None),
    }
    return m, {"checks": checks, "spans_by_name": summary}


# ---------------------------------------------------------------------------
# output


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_end_to_end(metrics: dict, extra: dict) -> None:
    n = extra["op_samples"]
    print(f"{'end-to-end metric':<22}{'value':>14}  unit")
    for name, unit in E2E_UNITS.items():
        note = ""
        if name == "op_tail_s":
            note = (f"   p{extra['op_tail_percentile']} of {n} ops, "
                    f"{extra['op_tail_beyond']} beyond it")
        elif name == "ok_frac":
            note = f"   failed_frac {_fmt(extra['failed_frac'])}"
        elif name == "setup_s":
            note = "   import, first inputs, one warm-up op"
        print(f"{name:<22}{_fmt(metrics[name]):>14}  {unit}{note}")


def print_layers(metrics: dict, detail: dict, loop: dict) -> None:
    n = len(loop["traced_times"])
    print(f"traced ops: {n}   untraced {n / sum(loop['times']):.6g} ops/s   "
          f"traced {n / sum(loop['traced_times']):.6g} ops/s")
    print(f"{'span (per op)':<36}{'calls':>12}{'incl s':>12}{'self s':>12}")
    for name, r in sorted(detail["spans_by_name"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<36}{r['calls'] / n:>12.6g}{r['total_s'] / n:>12.6g}{r['self_s'] / n:>12.6g}")
    print(f"{'per-layer metric':<40}{'value':>14}  unit")
    for name, unit in LAYER_UNITS.items():
        print(f"{name:<40}{_fmt(metrics[name]):>14}  {unit}")
    print("checks: " + json.dumps(detail["checks"]))


def _failures(outcomes) -> list:
    return [{"op": i, "failure": o.failure, "traceback": o.traceback}
            for i, o in enumerate(outcomes) if o.failure is not None]


def run_one(name: str, seed: int, seconds: float, trace: bool, nproc: int) -> dict:
    from tracer import Tracer, wrapped_bindings
    from workloads import WHY, WORKLOADS

    workload = WORKLOADS[name]
    # the warm-up op; should it raise, timed op 0 runs the same inputs and records it
    with contextlib.suppress(Exception):
        workload.run(workload.inputs(seed, 0), _no_span)
    setup_s = time.perf_counter() - START
    tracer = Tracer() if trace else None
    loop = closed_loop(workload, seed, seconds, tracer)
    prov = provenance(seed, nproc)

    print(f"cdplift benchmark  workload={name}  seed={seed}  seconds={seconds:g}  "
          f"trace={int(trace)}")
    print(f"why: {WHY[name]}")
    print(f"load: closed loop, 1 client, 1 process, {prov['nproc']} BLAS/OpenMP threads")
    print("provenance: " + json.dumps(prov))
    failures = _failures(loop["outcomes"])
    for f in failures[:5]:
        print(f"failed op {f['op']}: {f['failure']}")
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "why": WHY[name], "provenance": prov, "failures": failures}
    if trace:
        metrics, detail = per_layer(workload, loop, tracer.spans)
        print_layers(metrics, detail, loop)
        intact = all(v is not False for v in detail["checks"].values())
        units = LAYER_UNITS
        record.update(detail, traced_failures=_failures(loop["traced_outcomes"]),
                      spans=[list(s) for s in tracer.spans])
    else:
        metrics, extra = end_to_end(loop, setup_s)
        print_end_to_end(metrics, extra)
        intact = True
        units = E2E_UNITS
        record.update(extra)
    leftover = wrapped_bindings()
    if leftover:
        print(f"wrappers still bound after the run: {leftover}")
    # failed ops show in ok_frac and "failed"; "correct" is the benchmark's own
    # integrity: traced counts reproduced, no call recorded twice, no wrapper left
    result = {
        "correct": intact and not leftover,
        "attempted": len(loop["outcomes"]),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))
    return result


def main(argv=None) -> int:
    if not (SRC / "cdplift" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_threads()
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import cdplift
    from workloads import WORKLOADS

    args = _parse(argv, list(WORKLOADS))
    if Path(cdplift.__file__).resolve().parent != SRC / "cdplift":
        print(f"error: cdplift imported from {cdplift.__file__}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace), nproc)
    else:
        # a fresh process per run, so each pays its own set-up and peak memory
        result = {}
        for name in WORKLOADS:
            result[name] = {}
            for trace in (0, 1):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    stdout=subprocess.PIPE, text=True, check=True)
                print(proc.stdout)
                result[name][("untraced", "traced")[trace]] = json.loads(
                    proc.stdout.strip().splitlines()[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
