"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "recover": W.Recovery("recover", "feasibility", d=5, L=8, max_iterations=50),
    "trace_min": W.Recovery("trace_min", "trace_min", d=5, L=8, max_iterations=50),
    "certify": W.Certification(d=5, probes=2),
    "audit": W.Audit(dims=(3, 4)),
}


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_code():
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.LAYER_UNITS
    assert set(TINY) == set(W.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == W.WHY[w["name"]]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_emits_every_metric(name):
    workload = TINY[name]
    tracer = T.Tracer()
    loop = run.closed_loop(workload, seed=0, seconds=0.0, tracer=tracer)
    assert len(loop["outcomes"]) == len(loop["traced_outcomes"]) == 1
    metrics, extra = run.end_to_end(loop, setup_s=0.5)
    assert set(metrics) == set(run.E2E_UNITS)
    assert metrics["setup_s"] == 0.5 and extra["op_samples"] == 1
    layers, detail = run.per_layer(workload, loop, tracer.spans)
    assert set(layers) == set(run.LAYER_UNITS)
    assert detail["checks"]["counts_match"] and detail["checks"]["no_nested_self_calls"]
    assert all(np.isfinite(v) for v in layers.values())


def test_recover_psd_projections_match_sweeps():
    tracer = T.Tracer()
    loop = run.closed_loop(TINY["recover"], seed=1, seconds=0.0, tracer=tracer)
    layers, detail = run.per_layer(TINY["recover"], loop, tracer.spans)
    assert detail["checks"]["psd_project_per_sweep"] is True
    assert layers["hermitian.psd_project_calls"] == layers["solver.sweeps"] > 0


@dataclass(frozen=True)
class NaNSignal(W.Recovery):
    """Recovery whose signal is corrupted with a NaN entry."""

    def inputs(self, run_seed, index):
        inp = super().inputs(run_seed, index)
        x = inp.x.copy()
        x[0] = np.nan
        return W.SignalInputs(x=x, seed=inp.seed)


def test_corrupted_input_counts_as_failed_not_raised():
    workload = NaNSignal("recover", "feasibility", d=5, L=8, max_iterations=50)
    loop = run.closed_loop(workload, seed=0, seconds=0.0)
    metrics, extra = run.end_to_end(loop, setup_s=1.0)
    assert extra["failed_frac"] == 1.0 and metrics["ok_frac"] == 0.0
    outcome = loop["outcomes"][0]
    assert outcome.failure.startswith("ValueError") and "Traceback" in outcome.traceback


def test_failed_output_check_counts_as_failed():
    workload = W.Recovery("recover", "feasibility", d=5, L=8, max_iterations=1)
    loop = run.closed_loop(workload, seed=0, seconds=0.0)
    assert loop["outcomes"][0].failure.startswith("phase-aligned error")


@pytest.mark.parametrize("trace", [False, True])
def test_failed_ops_are_counted_but_leave_the_run_correct(monkeypatch, trace):
    failing = W.Recovery("recover", "feasibility", d=5, L=8, max_iterations=1)
    monkeypatch.setitem(W.WORKLOADS, "recover", failing)
    result = run.run_one("recover", seed=0, seconds=0.0, trace=trace, nproc=1)
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] == 1


@dataclass(frozen=True)
class BindingSpy(W.Audit):
    """Audit that records which library bindings are wrapped while it runs."""

    seen: list = None

    def run(self, dims, span):
        self.seen.append(T.wrapped_bindings())
        return super().run(dims, span)


def test_untraced_ops_run_without_wrappers():
    spy = BindingSpy(dims=(3,), seen=[])
    run.closed_loop(spy, seed=0, seconds=0.0)
    assert spy.seen == [[]]
    spy.seen.clear()
    run.closed_loop(spy, seed=0, seconds=0.0, tracer=T.Tracer())
    assert spy.seen[0] == [] and spy.seen[1]  # op 0: untraced copy runs first
    assert T.wrapped_bindings() == []


def test_one_wrapper_per_function_bound_at_every_site():
    import cdplift
    from cdplift import certify, diffraction, hermitian, solver

    original = diffraction.apply_A
    method = hermitian.TangentSpace.__dict__["project"]
    tracer = T.Tracer()
    with tracer.installed():
        wrapper = diffraction.apply_A
        assert wrapper is not original and wrapper.__wrapped__ is original
        assert solver.apply_A is certify.apply_A is cdplift.apply_A is wrapper
        with pytest.raises(RuntimeError, match="already wrapped"):
            T.Tracer().install()
        x = np.ones(3) / np.sqrt(3.0)
        frame = diffraction.MeasurementFrame.sample(diffraction.ternary_mask_distribution(),
                                                    3, 4, seed=0)
        diffraction.apply_R(frame, np.outer(x, x))
        hermitian.TangentSpace(x).project_complement(np.eye(3))
    assert diffraction.apply_A is solver.apply_A is certify.apply_A is original
    assert hermitian.TangentSpace.__dict__["project"] is method
    names = [s[2] for s in tracer.spans]
    assert names.count("diffraction.apply_R") == 1
    assert names.count("diffraction.apply_A") == names.count("diffraction.apply_A_adjoint") == 1
    assert names.count("hermitian.TangentSpace.project") == 1
    assert T.nested_self_calls(tracer.spans) == []


def test_nested_self_calls_flags_a_doubly_recorded_call():
    spans = [(0, None, "op", 0.0, 3.0), (0, 0, "diffraction.apply_A", 1.0, 2.0),
             (0, 1, "diffraction.apply_A", 1.0, 2.0)]
    assert T.nested_self_calls(spans) == ["diffraction.apply_A"]
    summary = T.summarize(spans, [0])
    assert summary["op"]["self_s"] == pytest.approx(2.0)
    assert summary["diffraction.apply_A"]["from"] == {"op": 1, "diffraction.apply_A": 1}


def test_tail_is_the_90th_percentile_never_below_the_median():
    assert run.tail(list(range(1, 101))) == (pytest.approx(90.1), 10)
    value, beyond = run.tail([3.0, 1.0, 2.0])
    assert value == pytest.approx(2.8) and beyond == 1
    assert run.tail([4.0]) == (4.0, 0)


def _cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_result_line(trace):
    proc = _cli(ROOT, "--workload", "audit", "--seed", "3", "--seconds", "0.1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = _units("per_layer" if trace == "1" else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(tmp_path, "--workload", "audit", "--seed", "0", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""
