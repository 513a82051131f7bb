"""PhaseLift over the PSD cone by Douglas–Rachford splitting.

Both modes solve ``min rho tr(X)`` over the intersection of an affine set and
the PSD cone, with one Douglas–Rachford loop (Lions–Mercier) that alternates
the two exact projections:

    X = P_aff(V),   W = P_psd(2X - V - rho Id),   V += W - X.

The affine set is ``{A(X) = y}`` in ``trace_min`` mode (PhaseLift: trace, the
nuclear norm on the PSD cone, is what gets minimized) and ``{A(X) = y,
tr X = y0}`` in ``feasibility`` mode, where the trace term is constant on the
set and the loop finds a feasible point.  The mode decides nothing else.  The
trace weight ``rho = sum(y) / (nu d^2 L)`` comes from the data: it estimates
``||x||^2 / d``, so the shift is on the scale of the solution's eigenvalues.

The affine projection is exact: in the offset-block form of ``A`` (see
``cdplift.diffraction``) the constraints split into one small real system per
offset, and the Frobenius norm splits the same way, so the projection is a
least-squares correction per block, factored once per solve.  Every iterate
is Hermitian and y is real, so offset d - m's system is the conjugate mirror
of offset m's: only the blocks of offsets 0..d//2 are factored and projected,
and the other offsets are filled by the mirror, which keeps the projection
Hermitian entry for entry.  In feasibility mode tr X = y0 is one more row of
every block: the trace row on offset 0, a zero row on the others, so both
modes factor one stack.  A block that can have full column rank (at least d
nonzero rows, and not offset d/2 at even d, whose columns a and a + d/2 are
equal) and whose Gram matrix G passes a shifted Cholesky test (G - ||G||_F /
1e6 Id is positive definite, so kappa_2 < 1e3; almost every block when L >=
d) is solved by its normal equations, which then lose at most about 1e6 eps;
every other block keeps a pseudo-inverse from the SVD, so setting up the
affine set takes no eigendecomposition.  Whichever path it takes, a block
has a null space when its rank is below d.  The data residual of each PSD
iterate comes from the same blocks, so neither step needs ``A`` in dense
form, nor a call of the public forward map.

When no block has a null space, A is injective on Hermitian matrices and the
affine set is one point X0.  Then V = X0 - rho Id is the fixed point of the
loop for consistent data, and the loop starts there: its first sweep tests
X0 itself.  Otherwise it starts at V = 0.  A solve converges when the PSD
iterate W meets both ``||W - X||_F <= tol ||W||_F`` and a relative data
residual ``<= tol``, with tol = 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffraction import MeasurementFrame, MeasurementVector, apply_A
from .diffraction import _contract, _half_offsets, _mirror_fill, _mirror_weights, _per_offset
from .hermitian import as_hermitian, psd_project
from .policy import _check_counts, _check_level, _check_type

__all__ = [
    "SolverConfig",
    "SolveResult",
    "FeasibilityReport",
    "solve_phaselift",
    "extract_signal",
    "verify_feasibility",
]

_MODES = ("feasibility", "trace_min")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for solve_phaselift.

    ``mode`` is "feasibility" or "trace_min"; a solve stops after
    ``max_iterations`` sweeps if it has not converged.  ``trace_target`` (y0
    = ||x||^2, a finite real number >= 0) is mandatory in feasibility mode and
    unused in trace_min mode.
    """

    mode: str = "feasibility"
    max_iterations: int = 5000
    trace_target: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        _check_counts(self, "max_iterations")
        if self.mode == "feasibility" and self.trace_target is None:
            raise ValueError("feasibility mode requires trace_target (= y0)")
        if self.trace_target is not None:
            _check_level("trace_target", self.trace_target)


@dataclass
class SolveResult:
    X_hat: np.ndarray
    iterations_used: int
    final_residual: float
    converged: bool
    residual_history: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    max_violation: float
    relative_violation: float
    min_eigenvalue: float
    trace_deviation: float | None


# Gate of the normal equations: the Gram solve loses about kappa_2(E_m)^2 eps,
# which stays below the 1e-10 of the oracle tests for kappa_2(E_m) <= 1e3.
_KAPPA_MAX = 1e3

# tol of the convergence test in the module docstring
_TOLERANCE = 1e-7


def _has_cholesky(S: np.ndarray) -> bool:
    """Whether the symmetric matrix S, or every matrix of a stack S, is
    numerically positive definite: whether its Cholesky factorisation succeeds."""
    try:
        np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return True


def _lstsq_factors(
    E: np.ndarray, t: np.ndarray, full_rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """keep_m = I - E_m^+ E_m and shift_m = E_m^+ t_m for a stack E of (r, d) blocks.

    ``full_rank`` marks the blocks that can have full column rank.  Such a
    block whose Gram matrix G_m = E_m^T E_m passes the gate below has it, so
    keep_m = 0 exactly and shift_m = G_m^{-1} E_m^T t_m.  The gate: with
    tau_m = ||G_m||_F / _KAPPA_MAX^2, G_m - tau_m I has a Cholesky factor, so
    lambda_min(G_m) > tau_m >= lambda_max(G_m) / _KAPPA_MAX^2 and kappa_2(E_m)
    < _KAPPA_MAX; it is stricter than the eigenvalues by at most d^(1/4) in
    kappa_2.  One batched factorisation tests the marked blocks, and only when
    it fails is each one factored alone, so one singular block sends no other
    to the SVD.  Every other block takes the SVD, whose lstsq cutoff drops
    exactly dependent columns: the unmarked blocks, zero columns, and any
    block the gate rejects, whose keep_m is roundoff when it has full rank.
    """
    n, r, d = E.shape
    keep, shift = np.zeros((n, d, d)), np.empty((n, d), dtype=complex)
    gram = full_rank.copy()
    if gram.any():
        G = E.transpose(0, 2, 1) @ E
        tau = np.linalg.norm(G[gram], axis=(1, 2)) / _KAPPA_MAX**2
        shifted = G[gram] - tau[:, None, None] * np.eye(d)
        if not _has_cholesky(shifted):
            gram[gram] = [_has_cholesky(S) for S in shifted]
        rhs = _contract(E[gram].transpose(0, 2, 1), t[gram])
        # complex right-hand sides as float pairs, so the solve stays real
        pairs = rhs.view(float).reshape(*rhs.shape, 2)
        shift[gram] = np.linalg.solve(G[gram], pairs).view(complex)[..., 0]
    svd = ~gram
    if svd.any():
        pinv = np.linalg.pinv(E[svd], rcond=max(r, d) * np.finfo(float).eps)
        keep[svd] = np.eye(d) - pinv @ E[svd]  # projector onto the null space
        shift[svd] = _contract(pinv, t[svd])
    return keep, shift


class _AffineSet:
    """{A(X) = y}, with tr X = y0 when y0 is given, on offsets 0..d//2.

    The constraints read E_m z_m = t_m and ||X||_F^2 = sum_m ||z_m||^2, so the
    nearest point is z_m + E_m^+ (t_m - E_m z_m) for every m; for Hermitian X
    it is Hermitian, offset d - m the mirror of offset m, so the h = d//2 + 1
    blocks of ``frame.blocks`` are projected and the rest is the gather of
    ``_mirror_fill``.  With y0 every block gains one last row: the trace row
    [1 ... 1 | y0] scaled by 1/sqrt(d) on offset 0 (tr X = sum_a z_0[a]) and
    a zero row elsewhere, which changes no block's least squares.  The scale
    is that of ||A(X) - y||^2 = d sum_m ||E_m z_m - t_m||^2 over all d
    offsets, so on inconsistent data the projection is the least-squares one,
    and the residual, that sum read off the half weighted by
    ``_mirror_weights``, takes (tr X - y0)^2 from the same row.  One
    _lstsq_factors call factors the stack.  A block has a null space when
    tr keep_m = d - rank E_m is at least 1; only such a block reads z_m, every
    other one sets z_m to its shift.
    """

    def __init__(self, frame: MeasurementFrame, y_flat: np.ndarray, y0: float | None):
        d = frame.d
        pairs = _per_offset(y_flat.reshape(frame.L, d)) / d  # Re and Im of t_m
        E, t = frame.blocks, pairs[:, 0] + 1j * pairs[:, 1]
        if y0 is not None:  # the trace row [1 ... 1 | y0] / sqrt(d), a zero row off offset 0
            E = np.concatenate([E, np.zeros((len(E), 1, d))], axis=1)
            t = np.concatenate([t, np.zeros((len(t), 1))], axis=1)
            E[0, -1], t[0, -1] = 1.0 / np.sqrt(d), y0 / np.sqrt(d)
        # full column rank needs d nonzero rows, which the m != 0 blocks lack at
        # L = d - 1 with the zero trace row, and offset d/2 at even d has the
        # equal columns a, a + d/2
        full_rank = (E.any(axis=2).sum(axis=1) >= d) & (np.arange(len(E)) != d / 2)
        keep, shift = _lstsq_factors(E, t, full_rank)
        # tr keep_m = d - rank E_m: roundoff-level on a full-rank block the gate sent to the SVD
        self._null = np.flatnonzero(np.trace(keep, axis1=1, axis2=2) > 0.5)
        self._keep, self._shift = keep[self._null], shift
        self._weights = d * _mirror_weights(d)
        self._E, self._t = E, t

    @property
    def is_point(self) -> bool:
        """Whether no block has a null space: A is then injective on Hermitian
        matrices, and the set (the least-squares one on inconsistent data) is
        the one point ``project(0)``."""
        return not self._null.size

    def project(self, X: np.ndarray) -> np.ndarray:
        half = self._shift
        if self._null.size:
            half = half.copy()
            half[self._null] += _contract(self._keep, _half_offsets(X)[self._null])
        return _mirror_fill(half)

    def residual(self, X: np.ndarray) -> float:
        """||A(X) - y|| (with the trace row: ||(A(X), tr X) - (y, y0)||)."""
        r = _contract(self._E, _half_offsets(X)) - self._t
        return float(np.sqrt(self._weights @ (r.real**2 + r.imag**2).sum(axis=1)))


def _check_shape(frame: MeasurementFrame, y: MeasurementVector) -> None:
    """TypeError unless ``frame`` and ``y`` are a frame and a measurement;
    ValueError unless ``y`` holds one intensity per (mask, frequency) of ``frame``."""
    _check_type("frame", frame, MeasurementFrame)
    _check_type("y", y, MeasurementVector)
    if y.y.shape != (frame.L, frame.d):
        raise ValueError(
            f"measurement shape {y.y.shape} does not match frame ({frame.L}, {frame.d})"
        )


def solve_phaselift(
    frame: MeasurementFrame, y: MeasurementVector, cfg: SolverConfig
) -> SolveResult:
    """Solve the lifted phase-retrieval program for one measurement frame.

    Non-convergence within ``cfg.max_iterations`` is reported through the
    ``converged`` flag (with diagnostics in ``residual_history``), never as an
    exception; dimension mismatches do raise.  The returned ``X_hat`` is the
    last PSD iterate.
    """
    _check_shape(frame, y)
    _check_type("cfg", cfg, SolverConfig)
    y_flat = y.ravel()
    d = frame.d
    target = cfg.trace_target if cfg.mode == "feasibility" else None
    aff = _AffineSet(frame, y_flat, target)
    rho = float(np.sum(y_flat)) / (frame.distribution.nu * d * d * frame.L)
    shift = rho * np.eye(d)

    V = np.zeros((d, d), dtype=complex)
    if aff.is_point:  # V = X0 - rho Id, the fixed point for consistent data
        V = aff.project(V) - shift
    bnorm = max(float(np.hypot(np.linalg.norm(y_flat), target or 0.0)), 1e-300)
    history = []
    converged = False
    for iterations in range(1, cfg.max_iterations + 1):
        X = aff.project(V)
        W = psd_project(2 * X - V - shift)
        step = W - X
        V += step
        res = aff.residual(W) / bnorm
        history.append(res)
        if res <= _TOLERANCE and np.linalg.norm(step) <= _TOLERANCE * np.linalg.norm(W):
            converged = True
            break
    history = np.asarray(history)
    return SolveResult(
        X_hat=W,
        iterations_used=iterations,
        final_residual=float(history[-1]),
        converged=converged,
        residual_history=history,
    )


def extract_signal(X_hat) -> tuple[np.ndarray, float]:
    """Top-eigenpair signal estimate and the rank-1 gap lambda_2 / lambda_1.

    ``x_hat = sqrt(lambda_1) v_1``; a non-positive top eigenvalue yields the
    zero signal with gap 0.  Slightly negative second eigenvalues (roundoff on
    a numerically PSD input) are clamped to zero in the gap.
    """
    X_hat = as_hermitian(X_hat)
    lam, V = np.linalg.eigh(X_hat)
    top = float(lam[-1])
    if top <= 0.0:
        return np.zeros(X_hat.shape[0], dtype=complex), 0.0
    if float(lam[0]) < -1e-6 * top:
        raise ValueError("matrix is not PSD within tolerance")
    x_hat = np.sqrt(top) * V[:, -1]
    gap = max(float(lam[-2]), 0.0) / top if lam.size > 1 else 0.0
    return x_hat, gap


def verify_feasibility(
    frame: MeasurementFrame, y: MeasurementVector, X, y0: float | None = None
) -> FeasibilityReport:
    """Constraint-violation report for a candidate lifted matrix (pure check);
    ``y`` and ``y0`` are checked as ``solve_phaselift`` and ``SolverConfig`` do."""
    _check_shape(frame, y)
    if y0 is not None:
        _check_level("y0", y0)
    X = as_hermitian(X)
    residual = apply_A(frame, X) - y.ravel()
    max_violation = float(np.max(np.abs(residual)))
    scale = max(float(np.max(np.abs(y.y))), 1e-300)
    lam = np.linalg.eigvalsh(X)
    trace_dev = None
    if y0 is not None:
        trace_dev = abs(float(np.trace(X).real) - y0)
    return FeasibilityReport(
        max_violation=max_violation,
        relative_violation=max_violation / scale,
        min_eigenvalue=float(lam[0]),
        trace_deviation=trace_dev,
    )
