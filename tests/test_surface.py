"""The package surface: the fields of the option dataclasses, the defaulted
parameters of every exported function, and every export.

A knob added to or removed from ``SolverConfig``, ``GolfingParams`` or
``ExperimentConfig``, or a defaulted parameter added to or removed from an
exported function, changes a pinned table here, so it shows as a test diff in
review.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import cdplift
from cdplift.certify import GolfingParams
from cdplift.experiments import ExperimentConfig
from cdplift.solver import SolverConfig


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
        "cdplift.certify.variance_bound_check": {
            "budget": 10**6, "mc_samples": 10**4, "seed": 0,
        },
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
