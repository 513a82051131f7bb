import csv
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cdplift.certify as certify_module
import cdplift.experiments as exp
from cdplift.certify import (
    CertificateIntegrityError,
    _enumerate_masks,
    check_near_isotropy_exact,
    check_two_design_exact,
)
from cdplift.diffraction import ternary_mask_distribution
from cdplift.experiments import (
    ExperimentConfig,
    derive_seed,
    run_experiment,
    run_golfing_rate,
    run_isotropy_audit,
    run_lower_bound,
    run_lower_bound_experiment,
    run_phase_transition,
)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline().rstrip("\n")
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


def rows_without_wall_time(path, header):
    comment, head, rows = read_csv(path)
    assert head == header
    assert head[-1] == "wall_time"
    return comment, [r[:-1] for r in rows]


# ---------------------------------------------------------------------------
# configuration


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys: tirals"):
        ExperimentConfig.from_mapping({"tirals": 3})


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig(experiment="phase_transitoin")
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentConfig(d_grid=())
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="workers"):
        ExperimentConfig(workers=0)
    with pytest.raises(ValueError, match="signal"):
        ExperimentConfig(signal="spike")
    with pytest.raises(ValueError, match="unknown config keys: distribution"):
        ExperimentConfig.from_mapping({"distribution": "ternary"})
    with pytest.raises(ValueError, match="odd d"):
        ExperimentConfig(experiment="phase_transition", d_grid=(4,))
    with pytest.raises(ValueError, match="odd d"):
        ExperimentConfig(experiment="golfing_rate", d_grid=(15, 1))
    # values of the wrong type or out of range, each named by its key
    for key, value in (
        ("trials", 2.5), ("trials", True), ("base_seed", "abc"),
        ("max_iterations", -5), ("workers", 1.5), ("golfing_L1", 2.5),
        ("golfing_L_later", 0), ("d_grid", [3.7]), ("d_grid", "15"), ("d_grid", 15),
        ("L_grid", [0]), ("L_grid", [-2]), ("solver_mode", "dykstra"), ("out_dir", 5),
    ):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_mapping({key: value})
    with pytest.raises(ValueError, match="d >= 2"):
        ExperimentConfig(experiment="lower_bound", d_grid=(1,))
    # a repeated grid value would write its rows twice
    with pytest.raises(ValueError, match=r"d_grid must not repeat a value; repeated \[3\]"):
        ExperimentConfig(experiment="isotropy_audit", d_grid=(3, 3, 5))
    with pytest.raises(ValueError, match=r"L_grid must not repeat a value; repeated \[2, 5\]"):
        ExperimentConfig.from_mapping({"L_grid": [5, 2, 5, 2, 10]})
    # 3^13 ternary masks exceed the exact enumeration budget; 3^12 fit
    with pytest.raises(ValueError, match=r"d_grid exceeds .* offending values \[13, 15\]"):
        ExperimentConfig(experiment="isotropy_audit", d_grid=(3, 13, 15))
    ExperimentConfig(experiment="isotropy_audit", d_grid=(12,))
    p = tmp_path / "cfg.yaml"
    p.write_text("experiment: lower_bound\nd_grid: '15'\n")
    with pytest.raises(ValueError, match="d_grid must be a non-empty list of integers"):
        ExperimentConfig.from_yaml(p)
    # even d is fine outside the recovery experiments
    ExperimentConfig(experiment="isotropy_audit", d_grid=(4,))
    ExperimentConfig(experiment="lower_bound", d_grid=(64,))
    assert ExperimentConfig(d_grid=[np.int64(3)], base_seed=-1).d_grid == (3,)


def test_config_yaml_round_trip(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(
        "experiment: lower_bound\nd_grid: [3, 5]\nL_grid: [1, 2]\n"
        "trials: 7\nbase_seed: 42\n"
    )
    cfg = ExperimentConfig.from_yaml(p)
    assert cfg.experiment == "lower_bound"
    assert cfg.d_grid == (3, 5)
    assert cfg.L_grid == (1, 2)
    assert cfg.trials == 7
    assert cfg.base_seed == 42


def test_config_yaml_must_be_mapping(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("- just\n- a\n- list\n")
    with pytest.raises(ValueError, match="flat mapping"):
        ExperimentConfig.from_yaml(p)


def test_config_empty_yaml_gives_defaults(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text("")
    assert ExperimentConfig.from_yaml(p) == ExperimentConfig()


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_seed_contract():
    seeds = {derive_seed(0, d, L, t) for d in (3, 15) for L in (1, 30) for t in range(50)}
    assert len(seeds) == 200  # no collisions across the grid
    for s in seeds:
        assert 0 <= s < 2**63
    assert derive_seed(7, 3, 1, 0) == derive_seed(7, 3, 1, 0)
    assert derive_seed(7, 3, 1, 0) != derive_seed(8, 3, 1, 0)


# ---------------------------------------------------------------------------
# lower bound: exact oracle and Monte-Carlo agreement


def exact_collision_probability(d, L):
    """Exact collision probability by enumerating magnitude patterns.

    |eps| is sqrt(2) w.p. 1/2 and 0 w.p. 1/2, independently per entry, so only
    the binary on/off pattern matters: the L-long pattern of column j collides
    with column 1 iff they match entrywise.
    """
    half = Fraction(1, 2)
    total = Fraction(0)
    for cols in itertools.product(range(2**L), repeat=d):
        p = half ** (d * L)
        if any(c == cols[0] for c in cols[1:]):
            total += p
    return total


def test_lower_bound_exact_value_d3_L1():
    assert exact_collision_probability(3, 1) == Fraction(3, 4)


def test_lower_bound_monte_carlo_matches_oracle():
    trials = 4000
    p = float(exact_collision_probability(3, 1))
    rate = run_lower_bound(3, 1, trials=trials, seed=0)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rate - p) <= 3 * sigma
    p2 = float(exact_collision_probability(3, 2))
    rate2 = run_lower_bound(3, 2, trials=trials, seed=1)
    assert abs(rate2 - p2) <= 3 * math.sqrt(p2 * (1 - p2) / trials)


def test_lower_bound_argument_validation():
    with pytest.raises(ValueError):
        run_lower_bound(1, 1, 10, 0)
    with pytest.raises(ValueError):
        run_lower_bound(3, 0, 10, 0)
    with pytest.raises(ValueError):
        run_lower_bound(3, 1, 0, 0)


def test_lower_bound_rate_is_the_sweep_cell_rate(tmp_path):
    for d, L, n, s in ((3, 1, 40, 0), (5, 3, 25, 7), (64, 2, 10, 12)):
        res = run_lower_bound_experiment(ExperimentConfig(
            experiment="lower_bound", d_grid=(d,), L_grid=(L,), trials=n, base_seed=s,
            out_dir=str(tmp_path),
        ))
        assert run_lower_bound(d, L, n, s) == res.aggregate_rows[0].collision_rate


def test_lower_bound_rate_decays_with_masks():
    rates = [run_lower_bound(3, L, trials=2000, seed=2) for L in (1, 4, 8)]
    assert rates[0] > rates[1] > rates[2]


# ---------------------------------------------------------------------------
# sweeps, CSV schema, determinism


def lower_bound_config(out, **kw):
    base = dict(
        experiment="lower_bound",
        d_grid=(3, 5),
        L_grid=(1, 2),
        trials=50,
        base_seed=9,
        out_dir=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_lower_bound_sweep_csv_schema(tmp_path):
    res = run_lower_bound_experiment(lower_bound_config(tmp_path / "a"))
    comment, head, rows = read_csv(res.trial_path)
    assert comment == "# cdplift-csv v1 experiment=lower_bound"
    assert head == ["d", "L", "trial", "seed", "collision", "wall_time"]
    assert len(rows) == 2 * 2 * 50
    keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        assert int(r[4]) in (0, 1)
        assert int(r[3]) == derive_seed(9, int(r[0]), int(r[1]), int(r[2]))

    comment2, head2, agg = read_csv(res.aggregate_path)
    assert comment2 == "# cdplift-csv v1 experiment=lower_bound"
    assert head2 == ["d", "L", "trials", "collisions", "collision_rate"]
    # aggregates recomputable from the trial rows
    for arow in agg:
        d, L = int(arow[0]), int(arow[1])
        cell = [r for r in rows if int(r[0]) == d and int(r[1]) == L]
        hits = sum(int(r[4]) for r in cell)
        assert int(arow[2]) == len(cell) == 50
        assert int(arow[3]) == hits
        assert float(arow[4]) == hits / 50


def test_lower_bound_determinism_across_reruns_and_workers(tmp_path):
    r1 = run_lower_bound_experiment(lower_bound_config(tmp_path / "a"))
    r2 = run_lower_bound_experiment(lower_bound_config(tmp_path / "b"))
    r3 = run_lower_bound_experiment(lower_bound_config(tmp_path / "c", workers=3))
    header = ["d", "L", "trial", "seed", "collision", "wall_time"]
    t1 = rows_without_wall_time(r1.trial_path, header)
    assert t1 == rows_without_wall_time(r2.trial_path, header)
    assert t1 == rows_without_wall_time(r3.trial_path, header)
    assert r1.aggregate_path.read_bytes() == r2.aggregate_path.read_bytes()
    assert r1.aggregate_path.read_bytes() == r3.aggregate_path.read_bytes()


def phase_config(out, **kw):
    base = dict(
        experiment="phase_transition",
        d_grid=(3,),
        L_grid=(2, 8),
        trials=4,
        base_seed=3,
        max_iterations=600,
        out_dir=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_phase_transition_trials_and_aggregates(tmp_path):
    res = run_phase_transition(phase_config(tmp_path))
    comment, head, rows = read_csv(res.trial_path)
    assert comment == "# cdplift-csv v1 experiment=phase_transition"
    assert head == [
        "d", "L", "trial", "seed", "success", "recovery_error", "iterations", "failure",
        "wall_time",
    ]
    assert len(rows) == 8
    for r in rows:
        err = float(r[5])
        assert int(r[4]) == int(err <= 1e-3)
        assert float(r[5]) == err  # full-precision repr round-trips
    _, ahead, agg = read_csv(res.aggregate_path)
    assert ahead == ["d", "L", "trials", "successes", "success_rate", "max_error",
                     "mean_iterations"]
    for arow in agg:
        cell = [r for r in rows if r[:2] == arow[:2]]
        succ = sum(int(r[4]) for r in cell)
        assert int(arow[3]) == succ
        assert float(arow[4]) == succ / 4
    # d=3 with 8 masks is deep in the easy regime
    assert float(agg[1][4]) >= 0.75


def test_phase_transition_determinism(tmp_path):
    header = [
        "d", "L", "trial", "seed", "success", "recovery_error", "iterations", "failure",
        "wall_time",
    ]
    r1 = run_phase_transition(phase_config(tmp_path / "a"))
    r2 = run_phase_transition(phase_config(tmp_path / "b", workers=2))
    assert rows_without_wall_time(r1.trial_path, header) == rows_without_wall_time(
        r2.trial_path, header
    )
    assert r1.aggregate_path.read_bytes() == r2.aggregate_path.read_bytes()


def test_phase_transition_e1_signal(tmp_path):
    res = run_phase_transition(phase_config(tmp_path, signal="e1", L_grid=(8,)))
    assert all(r.d == 3 for r in res.trial_rows)
    assert sum(r.success for r in res.trial_rows) >= 3


def test_solver_crash_is_a_non_success_not_an_abort(tmp_path, monkeypatch):
    def boom(frame, y, cfg):
        raise np.linalg.LinAlgError("synthetic solver crash")

    monkeypatch.setattr(exp, "solve_phaselift", boom)
    res = run_phase_transition(phase_config(tmp_path, L_grid=(2,), trials=3))
    assert len(res.trial_rows) == 3
    for r in res.trial_rows:
        assert not r.success
        assert math.isinf(r.recovery_error)
        assert r.iterations == 0
    d, L, n, succ, rate, max_err, _ = res.aggregate_rows[0]
    assert (succ, rate) == (0, 0.0)
    assert math.isinf(max_err)
    _, _, rows = read_csv(res.trial_path)
    assert rows[0][5] == "inf"


def test_linalg_failure_is_named_in_the_failure_column(tmp_path, monkeypatch):
    real = exp.solve_phaselift
    calls = []

    def fail_first(frame, y, cfg):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(frame, y, cfg)

    monkeypatch.setattr(exp, "solve_phaselift", fail_first)
    res = run_phase_transition(phase_config(tmp_path, L_grid=(8,), trials=3))
    _, head, rows = read_csv(res.trial_path)
    assert head[-2:] == ["failure", "wall_time"]
    assert sorted(r[7] for r in rows) == ["", "", "LinAlgError"]
    for r in rows:
        assert math.isinf(float(r[5])) == (r[7] == "LinAlgError")


@pytest.mark.parametrize("run", [run_phase_transition, run_golfing_rate])
@pytest.mark.parametrize("kind", ["lower_bound", "isotropy_audit"])
def test_recovery_runners_revalidate_a_config_of_another_kind(tmp_path, run, kind):
    cfg = ExperimentConfig(experiment=kind, d_grid=(4,), trials=1, out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="odd d"):
        run(cfg)
    assert not any(tmp_path.iterdir())


def test_other_solver_exceptions_propagate(tmp_path, monkeypatch):
    def broken(frame, y, cfg):
        raise TypeError("a fault in the program, not a numerical failure")

    monkeypatch.setattr(exp, "solve_phaselift", broken)
    with pytest.raises(TypeError, match="fault in the program"):
        run_phase_transition(phase_config(tmp_path, L_grid=(2,), trials=2))


# ---------------------------------------------------------------------------
# golfing rate


def test_golfing_rate_sweep(tmp_path):
    cfg = ExperimentConfig(
        experiment="golfing_rate",
        d_grid=(15,),
        L_grid=(1,),  # unused by this experiment but must be non-empty
        trials=3,
        base_seed=1,
        out_dir=str(tmp_path),
    )
    res = run_experiment(cfg)
    comment, head, rows = read_csv(res.trial_path)
    assert comment == "# cdplift-csv v1 experiment=golfing_rate"
    assert head == ["d", "trial", "seed", "constructed", "verified", "masks_consumed",
                    "attempts", "failure_reason", "wall_time"]
    assert len(rows) == 3
    for r in rows:
        if int(r[3]):  # constructed implies verified and the fixed mask budget
            assert int(r[4]) == 1
            assert int(r[5]) == 2 * 1000 + 4 * 200
            assert int(r[6]) >= 6
            assert r[7] == ""
    _, ahead, agg = read_csv(res.aggregate_path)
    assert ahead == ["d", "trials", "constructed", "verified", "success_rate", "mean_masks"]
    assert int(agg[0][3]) >= 2  # calibrated rate ~0.96; 3 misses are astronomically unlikely


def test_golfing_rate_respects_batch_overrides(tmp_path):
    cfg = ExperimentConfig(
        experiment="golfing_rate",
        d_grid=(15,),
        trials=2,
        base_seed=5,
        out_dir=str(tmp_path),
        golfing_L1=1,
        golfing_L2=1,
        golfing_L_later=1,
    )
    res = run_experiment(cfg)
    for row in res.trial_rows:
        assert not row[3]  # starved batches cannot construct
        assert row[7] != ""


def golfing_config(out, **kw):
    base = dict(
        experiment="golfing_rate", d_grid=(3, 5), trials=2, base_seed=4, out_dir=str(out)
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_golfing_rate_determinism_across_reruns_and_workers(tmp_path):
    header = ["d", "trial", "seed", "constructed", "verified", "masks_consumed",
              "attempts", "failure_reason", "wall_time"]
    r1 = run_experiment(golfing_config(tmp_path / "a"))
    r2 = run_experiment(golfing_config(tmp_path / "b"))
    r3 = run_experiment(golfing_config(tmp_path / "c", workers=2))
    t1 = rows_without_wall_time(r1.trial_path, header)
    assert t1 == rows_without_wall_time(r2.trial_path, header)
    assert t1 == rows_without_wall_time(r3.trial_path, header)
    assert r1.aggregate_path.read_bytes() == r2.aggregate_path.read_bytes()
    assert r1.aggregate_path.read_bytes() == r3.aggregate_path.read_bytes()
    assert sum(int(r[3]) for r in t1[1]) >= 1  # some certificate was verified


def test_golfing_verification_faults_propagate(tmp_path, monkeypatch):
    def broken(cert, x):
        raise RuntimeError("a fault in the program, not a bad certificate")

    monkeypatch.setattr(exp, "verify_certificate", broken)
    with pytest.raises(RuntimeError, match="fault in the program"):
        run_experiment(golfing_config(tmp_path, d_grid=(3,)))


def test_golfing_integrity_failure_is_recorded(tmp_path, monkeypatch):
    def tampered(cert, x):
        raise CertificateIntegrityError("witness-reconstructed Y deviates")

    monkeypatch.setattr(exp, "verify_certificate", tampered)
    res = run_experiment(golfing_config(tmp_path, d_grid=(3,)))
    constructed = [r for r in res.trial_rows if r.constructed]
    assert constructed
    for r in constructed:
        assert not r.verified
        assert r.failure_reason == "witness-reconstructed Y deviates"


# ---------------------------------------------------------------------------
# isotropy audit


def test_isotropy_audit_rows_and_flags(tmp_path):
    cfg = ExperimentConfig(
        experiment="isotropy_audit", d_grid=(3, 4), out_dir=str(tmp_path)
    )
    res = run_isotropy_audit(cfg)
    comment, head, rows = read_csv(res.trial_path)
    assert comment == "# cdplift-csv v1 experiment=isotropy_audit"
    assert head == ["d", "check", "deviation", "passed", "flag"]
    assert [(r[0], r[1]) for r in rows] == [
        ("3", "near_isotropy"), ("3", "two_design"),
        ("4", "near_isotropy"), ("4", "two_design"),
    ]
    for r in rows:
        if r[0] == "3":
            assert int(r[3]) == 1 and r[4] == ""
            assert float(r[2]) <= 1e-12
        else:
            assert int(r[3]) == 0 and r[4] == "even_d_expected_failure"
            assert float(r[2]) > 1e-6


def test_isotropy_audit_enumerates_once_per_d(tmp_path, monkeypatch):
    # both rows of a d come from one enumeration, and they are the numbers
    # the public checks return
    enumerated = []

    def enumerate_masks(dist, d):
        enumerated.append(d)
        yield from _enumerate_masks(dist, d)

    monkeypatch.setattr(certify_module, "_enumerate_masks", enumerate_masks)
    cfg = ExperimentConfig(
        experiment="isotropy_audit", d_grid=(5, 3, 4), out_dir=str(tmp_path)
    )
    res = run_isotropy_audit(cfg)
    assert enumerated == [5, 3, 4]
    dist = ternary_mask_distribution()
    assert [r.deviation for r in res.trial_rows] == [
        check(dist, d) for d in (5, 3, 4)
        for check in (check_near_isotropy_exact, check_two_design_exact)
    ]


def test_isotropy_audit_revalidates_a_config_of_another_kind(tmp_path):
    cfg = ExperimentConfig(experiment="lower_bound", d_grid=(3, 13), out_dir=str(tmp_path))
    with pytest.raises(ValueError, match=r"exact enumeration budget .* values \[13\]"):
        run_isotropy_audit(cfg)
    assert not any(tmp_path.iterdir())


def test_run_experiment_dispatch(tmp_path):
    cfg = ExperimentConfig(
        experiment="lower_bound", d_grid=(3,), L_grid=(1,), trials=5,
        out_dir=str(tmp_path),
    )
    res = run_experiment(cfg)
    assert res.trial_path.name == "lower_bound_trials.csv"
    assert len(res.trial_rows) == 5


# ---------------------------------------------------------------------------
# package import


def test_solver_and_certify_imports_leave_the_experiment_harness_unloaded():
    src = str(Path(exp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = """
import sys, cdplift, cdplift.certify, cdplift.solver
assert "yaml" not in sys.modules and "cdplift.experiments" not in sys.modules
from cdplift import ExperimentConfig, run_experiment, run_lower_bound
from cdplift import experiments as exp
assert (ExperimentConfig, run_experiment, run_lower_bound) == (
    exp.ExperimentConfig, exp.run_experiment, exp.run_lower_bound)
assert {"ExperimentConfig", "run_experiment", "run_lower_bound"} <= set(cdplift.__all__)
"""
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
