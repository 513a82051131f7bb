"""First-order PhaseLift solvers over the PSD cone.

Two modes:

* ``feasibility`` — find a PSD matrix satisfying the lifted affine constraints
  ``A(X) = y`` together with the known-intensity constraint ``tr(X) = y0``,
  by alternating projections (POCS).  The affine projection is exact: in the
  offset-block form of ``A`` (see ``cdplift.diffraction``) the constraints
  split into one small real system per offset, and the Frobenius norm splits
  the same way, so the projection is a least-squares correction per block
  with pseudo-inverses built once per solve.
* ``trace_min`` — minimize the nuclear norm (= trace, on the PSD cone)
  subject to the same measurements, by proximal gradient descent on
  ``0.5 ||A(X) - y||^2`` with an eigenvalue soft-threshold step and
  geometric continuation on the trace weight.

Neither mode needs the measurement matrix in dense form.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .diffraction import MeasurementFrame, MeasurementVector, apply_A, apply_A_adjoint
from .diffraction import _offset_index, _per_offset
from .hermitian import as_hermitian, hermitize, psd_project

__all__ = [
    "SolverConfig",
    "SolveResult",
    "FeasibilityReport",
    "solve_phaselift",
    "extract_signal",
    "verify_feasibility",
]

logger = logging.getLogger(__name__)

_MODES = ("feasibility", "trace_min")


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for solve_phaselift.

    ``step_or_relaxation`` is the POCS over-relaxation factor in feasibility
    mode (1.0 = plain alternating projections) and the gradient step safety
    factor in trace_min mode.  ``trace_target`` (y0) is mandatory in
    feasibility mode.
    """

    mode: str = "feasibility"
    max_iterations: int = 5000
    residual_tolerance: float = 1e-7
    step_or_relaxation: float = 1.0
    trace_target: float | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.residual_tolerance > 0:
            raise ValueError("residual_tolerance must be positive")
        if not 0 < self.step_or_relaxation <= 2:
            raise ValueError("step_or_relaxation must lie in (0, 2]")
        if self.mode == "feasibility" and self.trace_target is None:
            raise ValueError("feasibility mode requires trace_target (= y0)")


@dataclass
class SolveResult:
    X_hat: np.ndarray
    iterations_used: int
    final_residual: float
    converged: bool
    eigen_spectrum: np.ndarray
    residual_history: np.ndarray
    # residual increases beyond 1% slack; expected 0 for plain alternating
    # projections, may be positive in trace_min at continuation steps
    monotonicity_violations: int = 0


@dataclass(frozen=True)
class FeasibilityReport:
    max_violation: float
    relative_violation: float
    min_eigenvalue: float
    trace_deviation: float | None


def _affine_projection(frame: MeasurementFrame, y_flat: np.ndarray, y0: float):
    """Frobenius projection onto {A(X) = y, tr X = y0}, block by block.

    The constraints read E_m z_m = t_m and ||X||_F^2 = sum_m ||z_m||^2, so the
    nearest point is z_m + E_m^+ (t_m - E_m z_m) for every m; as y and E are
    real, it is Hermitian.  The trace row [1 ... 1 | y0] joins the m = 0 block
    scaled by 1/sqrt(d), since ||A(X) - y||^2 = d sum_m ||E_m z_m - t_m||^2:
    on inconsistent data this gives the least-squares projection.
    """
    d = frame.d
    E = np.concatenate([frame.blocks, np.zeros((d, 1, d))], axis=1)
    t = np.concatenate([_per_offset(y_flat.reshape(frame.L, d)), np.zeros((d, 1))], axis=1)
    E[0, -1], t[0, -1] = 1.0 / np.sqrt(d), y0 / np.sqrt(d)  # the trace row
    # the lstsq cutoff drops exactly dependent columns: zero columns, and the
    # equal columns a, a + d/2 of offset d/2 at even d
    pinv = np.linalg.pinv(E, rcond=max(E.shape[1:]) * np.finfo(float).eps)
    keep = np.eye(d) - pinv @ E  # projector onto the null space of each block
    shift = (pinv @ t[..., None])[..., 0]  # E_m^+ t_m

    idx = _offset_index(d)

    def project(X: np.ndarray) -> np.ndarray:
        out = np.empty_like(X)
        out[idx] = (keep @ X[idx][..., None])[..., 0] + shift
        return out

    return project


def _solve_feasibility(frame, y_flat, cfg) -> SolveResult:
    d = frame.d
    y0 = float(cfg.trace_target)
    project = _affine_projection(frame, y_flat, y0)
    b = np.concatenate([y_flat, [y0]])
    bnorm = max(float(np.linalg.norm(b)), 1e-300)
    relax = cfg.step_or_relaxation

    X = (y0 / d) * np.eye(d, dtype=complex)
    history = []
    converged = False
    iterations = 0
    prev = np.inf
    bumps = 0
    for iterations in range(1, cfg.max_iterations + 1):
        X_psd = psd_project(project(X))
        X = hermitize(X + relax * (X_psd - X)) if relax != 1.0 else X_psd
        residual = np.append(apply_A(frame, X_psd), np.trace(X_psd).real) - b
        res = float(np.linalg.norm(residual)) / bnorm
        history.append(res)
        if res > prev * 1.01:
            bumps += 1
            if bumps <= 3:
                logger.warning(
                    "feasibility residual increased at sweep %d: %.3e -> %.3e",
                    iterations, prev, res,
                )
        prev = res
        if res <= cfg.residual_tolerance:
            X = X_psd
            converged = True
            break
    if bumps > 3:
        logger.warning("feasibility residual increased on %d sweeps in total", bumps)
    spectrum = np.linalg.eigvalsh(hermitize(X))
    return SolveResult(
        X_hat=hermitize(X),
        iterations_used=iterations,
        final_residual=history[-1] if history else 0.0,
        converged=converged,
        eigen_spectrum=spectrum,
        residual_history=np.asarray(history),
        monotonicity_violations=bumps,
    )


def _operator_norm_estimate(frame, iters: int = 20) -> float:
    """Power-iteration upper estimate of ||A* A|| on Hermitian matrices."""
    rng = np.random.default_rng(0)
    d = frame.d
    Z = hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    Z /= np.linalg.norm(Z)
    lam = 1.0
    for _ in range(iters):
        W = apply_A_adjoint(frame, apply_A(frame, Z))
        lam = max(float(np.linalg.norm(W)), 1e-300)
        Z = W / lam
    return 1.1 * lam  # small safety factor so tau stays a valid step


def _solve_trace_min(frame, y_flat, cfg) -> SolveResult:
    d = frame.d
    dist = frame.distribution
    ynorm = max(float(np.linalg.norm(y_flat)), 1e-300)
    tau = cfg.step_or_relaxation / _operator_norm_estimate(frame)

    X = hermitize(
        apply_A_adjoint(frame, y_flat) / (dist.nu**2 * d * frame.L)
    )
    lam0 = float(np.linalg.eigvalsh(X)[-1])
    mu = 0.1 * max(lam0, 1e-300) / tau
    mu_floor = cfg.residual_tolerance * mu
    history = []
    converged = False
    iterations = 0
    bumps = 0
    for iterations in range(1, cfg.max_iterations + 1):
        grad = apply_A_adjoint(frame, apply_A(frame, X) - y_flat)
        lam, V = np.linalg.eigh(hermitize(X - tau * grad))
        lam = np.maximum(lam - tau * mu, 0.0)
        X = hermitize((V * lam) @ V.conj().T)
        res = float(np.linalg.norm(apply_A(frame, X) - y_flat)) / ynorm
        if history and res > history[-1] * 1.01:
            bumps += 1
        history.append(res)
        if iterations % 20 == 0:
            mu = max(0.25 * mu, mu_floor)
        if res <= cfg.residual_tolerance and mu <= mu_floor * (1 + 1e-12):
            converged = True
            break
    spectrum = np.linalg.eigvalsh(X)
    return SolveResult(
        X_hat=X,
        iterations_used=iterations,
        final_residual=history[-1] if history else 0.0,
        converged=converged,
        eigen_spectrum=spectrum,
        residual_history=np.asarray(history),
        monotonicity_violations=bumps,
    )


def solve_phaselift(
    frame: MeasurementFrame, y: MeasurementVector, cfg: SolverConfig
) -> SolveResult:
    """Solve the lifted phase-retrieval program for one measurement frame.

    Non-convergence within ``cfg.max_iterations`` is reported through the
    ``converged`` flag (with diagnostics in ``residual_history``), never as an
    exception; dimension mismatches do raise.
    """
    if y.y.shape != (frame.L, frame.d):
        raise ValueError(
            f"measurement shape {y.y.shape} does not match frame ({frame.L}, {frame.d})"
        )
    y_flat = y.ravel()
    if float(np.linalg.norm(y_flat)) == 0.0 and (y.y0 is None or abs(y.y0) == 0.0) and (
        cfg.trace_target is None or abs(cfg.trace_target) == 0.0
    ):
        Z = np.zeros((frame.d, frame.d), dtype=complex)
        return SolveResult(
            X_hat=Z,
            iterations_used=0,
            final_residual=0.0,
            converged=True,
            eigen_spectrum=np.zeros(frame.d),
            residual_history=np.zeros(0),
        )
    if cfg.mode == "feasibility":
        return _solve_feasibility(frame, y_flat, cfg)
    return _solve_trace_min(frame, y_flat, cfg)


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
    """Constraint-violation report for a candidate lifted matrix (pure check)."""
    X = as_hermitian(X)
    residual = apply_A(frame, X) - y.ravel()
    max_violation = float(np.max(np.abs(residual))) if residual.size else 0.0
    scale = max(float(np.max(np.abs(y.y))) if y.y.size else 0.0, 1e-300)
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
