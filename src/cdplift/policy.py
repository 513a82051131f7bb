"""Centralized numeric tolerances.

Every module draws its default tolerances from :data:`POLICY` so there is a
single tuning point.  The individual fields exist because different contracts
pin different accuracies (moment identities are checked to 1e-12, adjoint
pairings to 1e-9 relative, etc.).  The option dataclasses and the samplers
share the integer, type, seed, level and real- and complex-array checks
below; every field of the policy is a level.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["NumericPolicy", "POLICY"]


@dataclass(frozen=True)
class NumericPolicy:
    #: allowed Hermitian-symmetry / real-trace drift after construction
    hermitian_tol: float = 1e-12
    #: distribution moment identities (exact-arithmetic comparisons)
    moment_tol: float = 1e-12
    #: relative tolerance for <A(Z), c> == <Z, A*(c)> style pairings
    adjoint_rel_tol: float = 1e-9
    #: unit-norm requirement on tangent-space anchors
    anchor_tol: float = 1e-10
    #: tangent membership: third singular value <= rank_rel_tol * first
    rank_rel_tol: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            _check_level(f.name, getattr(self, f.name))


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


POLICY = NumericPolicy()
