"""The package surface: the fields of the option dataclasses, the defaulted
parameters of every exported function, every export, and the inputs the
boundary refuses.

A knob added to or removed from ``SolverConfig``, ``GolfingParams`` or
``ExperimentConfig``, a defaulted parameter added to or removed from an
exported function, or an export added to or removed from ``cdplift``, changes
a pinned table here, so it shows as a test diff in review.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import cdplift
from cdplift.cli import main
from cdplift.certify import (
    DualCertificate,
    GolfingFailure,
    GolfingParams,
    certify_optimality,
    check_near_isotropy_exact,
    check_two_design_exact,
    golfing_construct,
    injectivity_spectrum,
    truncation_statistics,
    variance_bound_check,
    verify_certificate,
)
from cdplift.diffraction import (
    MaskDistribution,
    MaskSet,
    MeasurementFrame,
    MeasurementVector,
    apply_A,
    apply_A_adjoint,
    apply_R,
    measure,
    sample_masks,
    ternary_mask_distribution,
    truncation_rate,
)
from cdplift.experiments import (
    ExperimentConfig,
    derive_seed,
    random_unit_signal,
    run_experiment,
    run_golfing_rate,
    run_isotropy_audit,
    run_lower_bound_experiment,
    run_phase_transition,
)
from cdplift.hermitian import TangentSpace, norm, phase_aligned_distance, psd_project
from cdplift.solver import _MODES, SolverConfig, solve_phaselift, verify_feasibility


def _fields(cls):
    return tuple(f.name for f in dataclasses.fields(cls))


def test_option_fields_are_pinned():
    assert _fields(SolverConfig) == ("mode", "max_iterations", "trace_target")
    assert _fields(GolfingParams) == ("L1", "L2", "L_later")
    assert _fields(ExperimentConfig) == (
        "experiment", "d_grid", "L_grid", "trials", "base_seed", "out_dir", "signal",
        "solver_mode", "max_iterations",
        "golfing_L1", "golfing_L2", "golfing_L_later",
    )


_MODULES = ["cdplift", *sorted(m.name for m in pkgutil.iter_modules(cdplift.__path__, "cdplift."))]


def test_defaulted_parameters_are_pinned():
    defaults = {}
    for name in _MODULES:
        module = importlib.import_module(name)
        for export in module.__all__:
            obj = getattr(module, export)
            if not inspect.isfunction(obj):
                continue
            params = inspect.signature(obj).parameters.values()
            pinned = {p.name: p.default for p in params if p.default is not p.empty}
            if pinned:
                defaults[f"{obj.__module__}.{obj.__qualname__}"] = pinned
    assert defaults == {
        "cdplift.certify.golfing_construct": {"params": None, "seed": 0},
        "cdplift.certify.injectivity_spectrum": {"seed": 0, "probes": 100},
        "cdplift.certify.verify_certificate": {"frame": None},
        "cdplift.diffraction.validate_moments": {"probabilities": None},
        "cdplift.hermitian.as_hermitian": {"name": "matrix"},
        "cdplift.hermitian.as_signal": {"name": "signal"},
        "cdplift.solver.verify_feasibility": {"y0": None},
    }


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []


def test_top_level_exports_are_pinned():
    assert sorted(cdplift.__all__) == sorted([
        "MaskDistribution", "MaskSet", "MeasurementFrame", "MeasurementVector",
        "apply_A", "apply_A_adjoint", "apply_R", "crt_frequency", "crt_relabeling",
        "dft_vector", "measure", "sample_masks", "ternary_mask_distribution",
        "truncation_rate", "validate_moments",
        "TangentSpace", "norm", "phase_aligned_distance", "psd_project",
        "DualCertificate", "GolfingFailure", "GolfingParams", "InjectivityReport",
        "certify_optimality", "check_near_isotropy_exact", "check_two_design_exact",
        "golfing_construct", "injectivity_spectrum", "truncation_statistics",
        "variance_bound_check", "verify_certificate",
        "ExperimentConfig", "run_experiment", "run_lower_bound",
        "SolverConfig", "SolveResult", "solve_phaselift", "extract_signal",
        "verify_feasibility",
    ])


_DIST = ternary_mask_distribution()
_EVEN_FRAME = MeasurementFrame(sample_masks(_DIST, 4, 3, seed=0))
_ODD_FRAME = MeasurementFrame(sample_masks(_DIST, 5, 3, seed=0))
_X = np.ones(5) / np.sqrt(5.0)
_RANK_ONE = np.outer(_X, _X)
_TRACE_MIN = SolverConfig(mode="trace_min")
_CERT = DualCertificate(_RANK_ONE, 0.0, 0.0, (), np.zeros(15), _ODD_FRAME.masks, _X, 1.0)


# inputs the boundary refuses, each with the argument its error names
_REJECTED = {
    "maskset-zero-masks": (lambda: MaskSet(np.zeros((0, 3)), _DIST), "epsilon"),
    "maskset-complex": (lambda: MaskSet(np.full((1, 3), np.sqrt(2.0)) + 1j, _DIST), "epsilon"),
    "maskset-str": (lambda: MaskSet(np.array([["0", "0", "0"]]), _DIST), "epsilon"),
    "maskset-bool": (lambda: MaskSet(np.zeros((1, 3), dtype=bool), _DIST), "epsilon"),
    "measurement-zero-rows": (lambda: MeasurementVector(np.zeros((0, 3))), "y"),
    "measurement-complex": (lambda: MeasurementVector(np.ones((2, 3)) + 5j), "y"),
    "measurement-bool": (lambda: MeasurementVector(np.ones((2, 3), dtype=bool)), "y"),
    "measurement-str": (lambda: MeasurementVector(np.array([["1", "2"]])), "y"),
    "adjoint-bool": (
        lambda: apply_A_adjoint(_EVEN_FRAME, np.ones(12, dtype=bool)), "coefficients c"),
    "adjoint-str": (
        lambda: apply_A_adjoint(_EVEN_FRAME, np.array(["1"] * 12)), "coefficients c"),
    "truncation-dimension": (
        lambda: truncation_statistics(_ODD_FRAME, np.diag([1.0, 0.0, 0.0, 0.0]), 9.0), "Z"),
    "injectivity-even-d": (
        lambda: injectivity_spectrum(_EVEN_FRAME, np.ones(4) / 2.0), "frame dimension d"),
    "truncation-gamma-bool": (
        lambda: truncation_statistics(_ODD_FRAME, _RANK_ONE, True), "gamma"),
    "truncation-gamma-str": (
        lambda: truncation_statistics(_ODD_FRAME, _RANK_ONE, "3"), "gamma"),
    "unit-signal-zero-d": (lambda: random_unit_signal(0, np.random.default_rng(0)), "d"),
    "derive-seed-float": (lambda: derive_seed(1.5, 1), "base_seed"),
    "mask-law-inf-support": (
        lambda: MaskDistribution((np.inf, 0.0, -np.inf), (0.25, 0.5, 0.25), 1.0, 1.0),
        "support"),
    "mask-law-nan-probability": (
        lambda: MaskDistribution((1.0, -1.0), (np.nan, 0.5), 1.0, 1.0), "probabilities"),
    "norm-bool": (lambda: norm(np.eye(3, dtype=bool), "trace"), "matrix"),
    "psd-project-bool": (lambda: psd_project(np.eye(3, dtype=bool)), "matrix"),
    "tangent-str": (lambda: TangentSpace("abc"), "anchor"),
    "measure-str": (lambda: measure(["a"] * 5, _ODD_FRAME.masks), "signal"),
    "distance-str": (lambda: phase_aligned_distance("a", _X), "a"),
    "distance-bool": (lambda: phase_aligned_distance(_X, np.ones(5, dtype=bool)), "b"),
    "tangent-project-dimension": (lambda: TangentSpace(_X).project(np.eye(4)), "matrix"),
    "tangent-contains-dimension": (lambda: TangentSpace(_X).contains(np.eye(6)), "matrix"),
    "tangent-complement-dimension": (
        lambda: TangentSpace(_X).project_complement(np.eye(3)), "matrix"),
    "variance-dimension": (
        lambda: variance_bound_check(_DIST, np.ones(3) / np.sqrt(3.0), _RANK_ONE), "Z"),
}


@pytest.mark.parametrize("case", sorted(_REJECTED))
def test_rejected_inputs_name_their_argument(case):
    call, name = _REJECTED[case]
    with pytest.raises(ValueError, match=f"^{name} must "):
        call()


# arguments of the wrong type, each with the argument its TypeError names
_WRONG_TYPE = {
    "measure-masks": (lambda: measure(_X, _ODD_FRAME.masks.epsilon), "masks"),
    "solve-frame": (
        lambda: solve_phaselift(_ODD_FRAME.masks, measure(_X, _ODD_FRAME.masks), _TRACE_MIN),
        "frame"),
    "solve-y": (lambda: solve_phaselift(_ODD_FRAME, np.ones((3, 5)), _TRACE_MIN), "y"),
    "solve-cfg": (
        lambda: solve_phaselift(_ODD_FRAME, measure(_X, _ODD_FRAME.masks), None), "cfg"),
    "feasibility-y": (lambda: verify_feasibility(_ODD_FRAME, np.ones((3, 5)), _RANK_ONE), "y"),
    "sample-masks-dist": (lambda: sample_masks(None, 5, 3, 0), "dist"),
    "near-isotropy-dist": (lambda: check_near_isotropy_exact(None, 3), "dist"),
    "two-design-dist": (lambda: check_two_design_exact(_DIST.support, 3), "dist"),
    "golfing-dist": (lambda: golfing_construct(_X, None), "dist"),
    "golfing-params": (lambda: golfing_construct(_X, _DIST, params=5), "params"),
    "golfing-params-zero": (lambda: golfing_construct(_X, _DIST, params=0), "params"),
    "variance-dist": (lambda: variance_bound_check(None, _X, _RANK_ONE), "dist"),
    "verify-cert": (lambda: verify_certificate(GolfingFailure("r", (), 0), _X), "cert"),
    "verify-frame": (lambda: verify_certificate(_CERT, _X, _ODD_FRAME.masks), "frame"),
    "frame-masks": (lambda: MeasurementFrame(_ODD_FRAME.masks.epsilon), "masks"),
    "forward-frame": (lambda: apply_A(_ODD_FRAME.masks.epsilon, _RANK_ONE), "frame"),
    "adjoint-frame": (lambda: apply_A_adjoint(None, np.ones(15)), "frame"),
    "gram-frame": (lambda: apply_R(_ODD_FRAME.masks, _RANK_ONE), "frame"),
    "injectivity-frame": (lambda: injectivity_spectrum(_ODD_FRAME.masks.epsilon, _X), "frame"),
    "truncation-frame": (lambda: truncation_statistics(None, _RANK_ONE, 9.0), "frame"),
    "optimality-frame": (lambda: certify_optimality(_X, _ODD_FRAME.masks, _CERT, None), "frame"),
    "optimality-cert": (lambda: certify_optimality(_X, _ODD_FRAME, None, None), "cert"),
    "optimality-injectivity": (
        lambda: certify_optimality(_X, _ODD_FRAME, _CERT, None), "injectivity"),
    "truncation-rate-dist": (lambda: truncation_rate(None), "dist"),
    "run-experiment-cfg": (lambda: run_experiment(None), "cfg"),
    "phase-transition-cfg": (lambda: run_phase_transition(None), "cfg"),
    "golfing-rate-cfg": (lambda: run_golfing_rate(None), "cfg"),
    "lower-bound-cfg": (lambda: run_lower_bound_experiment(None), "cfg"),
    "isotropy-audit-cfg": (lambda: run_isotropy_audit(None), "cfg"),
    "unit-signal-rng-int": (lambda: random_unit_signal(5, 0), "rng"),
    "unit-signal-rng-none": (lambda: random_unit_signal(5, None), "rng"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPE))
def test_wrong_types_name_their_argument(case):
    call, name = _WRONG_TYPE[case]
    with pytest.raises(TypeError, match=f"^{name} must be a "):
        call()


def test_no_fft_outside_the_dft_matrix():
    # every transform of the lifted operator is a product with _dft_matrix's
    # rows, which alone fix the frequency/column convention
    hits = [
        f"{path.name}:{n}"
        for path in sorted(Path(cdplift.__file__).parent.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(np|numpy)\.fft\b|\bnp\.roll\b", line)
    ]
    assert hits == []


def test_one_pipeline_per_verb():
    # the CLI and the sweeps share experiments._recover and experiments._golf,
    # the one caller of each of these outside its defining module
    package = Path(cdplift.__file__).parent
    for name, home in (("solve_phaselift", "solver.py"), ("SolverConfig", "solver.py"),
                       ("golfing_construct", "certify.py")):
        callers = [
            path.name
            for path in sorted(package.glob("*.py")) if path.name != home
            for line in path.read_text().splitlines()
            if re.search(rf"\b{name}\(", line)
        ]
        assert callers == ["experiments.py"], name
    (mode,) = [p for p in main.commands["recover"].params if p.name == "mode"]
    assert tuple(mode.type.choices) == _MODES


def test_only_the_experiments_touch_files():
    # an instance is redrawn from its seed, never read from a file: the CSV
    # writers and the config reader of the experiments are the one file access
    touching = {
        path.name
        for path in Path(cdplift.__file__).parent.glob("*.py")
        for line in path.read_text().splitlines()
        if re.search(r"(?<![\w.])(open|Path)\(|\.(read_text|write_text)\(", line)
    }
    assert touching == {"experiments.py"}
