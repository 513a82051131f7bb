"""Centralized numeric tolerances.

Every module draws its default tolerances from :data:`POLICY` so there is a
single tuning point.  The individual fields exist because different contracts
pin different accuracies (moment identities are checked to 1e-12, adjoint
pairings to 1e-9 relative, etc.).  The option dataclasses share the integer
and level checks below.
"""

import math
import numbers
from dataclasses import dataclass

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


POLICY = NumericPolicy()


def _is_int(value) -> bool:
    """An integer, numpy's included, that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_count(key: str, value) -> None:
    """ValueError naming ``key`` unless ``value`` is an integer >= 1."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{key} must be an integer >= 1, got {value!r}")


def _check_level(key: str, value) -> None:
    """ValueError naming ``key`` unless ``value`` is a finite real number >= 0."""
    if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 0):
        raise ValueError(f"{key} must be a finite real number >= 0, got {value!r}")


def _check_counts(options, *keys) -> None:
    """``_check_count`` on each of ``keys`` of ``options``, in order."""
    for key in keys:
        _check_count(key, getattr(options, key))
