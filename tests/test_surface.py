"""The package surface: the fields of the option dataclasses and every export.

A knob added to or removed from ``SolverConfig``, ``GolfingParams`` or
``ExperimentConfig`` changes a pinned field list here, so it shows as a test
diff in review.
"""

import dataclasses
import importlib
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
        "solver_mode", "max_iterations", "workers",
        "golfing_L1", "golfing_L2", "golfing_L_later",
    )


_MODULES = ["cdplift", *sorted(m.name for m in pkgutil.iter_modules(cdplift.__path__, "cdplift."))]


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = module.__all__
    assert len(set(exports)) == len(exports)
    assert [e for e in exports if not hasattr(module, e)] == []
