"""Centralized numeric tolerances and the boundary checks.

The tolerances are module constants, one per contract, since different
contracts pin different accuracies (moment identities are checked to 1e-12,
the per-mask Parseval identity to 1e-9 relative, etc.).  The option
dataclasses and the samplers share the integer, type, seed, level and real-
and complex-array checks below.
"""

import math
import numbers

import numpy as np

__all__ = []

#: how far below zero an intensity may sit and still count as nonnegative
#: roundoff (``MeasurementVector``)
INTENSITY_TOL = 1e-12
#: distribution moment identities and the distance of a mask entry to the
#: support (``validate_moments``, ``MaskDistribution``, ``MaskSet``)
MOMENT_TOL = 1e-12
#: relative tolerance of the per-mask Parseval identity in ``measure``
PARSEVAL_REL_TOL = 1e-9
#: unit-norm requirement on tangent-space anchors, and how far an anchor may
#: sit from the one a certificate or injectivity report was built for
ANCHOR_TOL = 1e-10
#: tangent membership (``TangentSpace.contains``) and the rank <= 2 test of
#: ``truncation_statistics``, relative to the norm
RANK_REL_TOL = 1e-8


def _is_int(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A real number, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_count(key: str, value) -> None:
    """ValueError naming ``key`` unless ``value`` is an integer >= 1."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")


def _check_type(key: str, value, cls) -> None:
    """TypeError naming ``key`` unless ``value`` is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{key} must be a {cls.__name__}, got {type(value).__name__}")


def _check_seed(seed) -> None:
    """ValueError unless ``seed`` is an integer >= 0; None (fresh entropy) is refused."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def _check_level(key: str, value) -> None:
    """ValueError naming ``key`` unless ``value`` is a finite real number >= 0."""
    if not (_is_real(value) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{key} must be a finite real number >= 0, got {value!r}")


def _real_array(key: str, value) -> np.ndarray:
    """A float copy of ``value``; ValueError naming ``key`` unless it holds ints or floats."""
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{key} must be real numbers, got dtype {array.dtype}")
    return array.astype(float)


def _complex_array(key: str, value) -> np.ndarray:
    """``value`` as a complex array, a copy only if it is not one already;
    ValueError naming ``key`` unless it holds ints, floats or complex numbers."""
    array = np.asarray(value)
    if array.dtype.kind not in "iufc":
        raise ValueError(f"{key} must be numbers, got dtype {array.dtype}")
    return array.astype(complex, copy=False)


def _check_counts(options, *keys) -> None:
    """``_check_count`` on each of ``keys`` of ``options``, in order."""
    for key in keys:
        _check_count(key, getattr(options, key))
