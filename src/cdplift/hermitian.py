"""Dense complex Hermitian matrix algebra.

Signals are 1-D complex ndarrays and Hermitian matrices are square complex
ndarrays; this module provides the norms, the positive-semidefinite
projection, the global-phase-invariant distance between
signals, and the tangent space of the rank-1 manifold at ``X = x x*`` together
with its orthogonal projectors.

Everything here is pure: inputs are never mutated, and results of matrix
arithmetic are either Hermitian entry for entry by construction (the tangent
projection) or re-symmetrized (``(Z + Z*)/2``) before they are returned, so
Hermiticity never drifts.
"""

from __future__ import annotations

import numpy as np

from .policy import ANCHOR_TOL, RANK_REL_TOL, _complex_array

__all__ = [
    "hermitize",
    "as_signal",
    "as_hermitian",
    "norm",
    "psd_project",
    "phase_aligned_distance",
    "TangentSpace",
]

_NORM_KINDS = ("trace", "frobenius", "operator")


def hermitize(Z: np.ndarray) -> np.ndarray:
    """Return the Hermitian part ``(Z + Z*)/2`` of a square matrix, or of each
    matrix in a stack along the last two axes."""
    return (Z + Z.conj().swapaxes(-1, -2)) / 2


def as_signal(x, name: str = "signal") -> np.ndarray:
    """Validate and return a finite 1-D complex vector."""
    x = _complex_array(name, x)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def as_hermitian(Z, name: str = "matrix") -> np.ndarray:
    """Validate a square finite complex matrix and return its Hermitian part.

    Symmetrization is enforced rather than checked: callers routinely hand in
    the result of floating-point arithmetic whose anti-Hermitian part is pure
    rounding noise.
    """
    Z = _complex_array(name, Z)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1] or Z.shape[0] == 0:
        raise ValueError(f"{name} must be square, got shape {Z.shape}")
    if not np.all(np.isfinite(Z)):
        raise ValueError(f"{name} contains non-finite entries")
    return hermitize(Z)


def norm(Z, kind: str) -> float:
    """Spectral norms of a Hermitian matrix.

    Parameters
    ----------
    Z : array_like
        Hermitian matrix.
    kind : {'trace', 'frobenius', 'operator'}
        ``trace`` is the nuclear norm sum(|lambda_i|), ``frobenius`` is
        sqrt(sum(lambda_i^2)), ``operator`` is max(|lambda_i|).

    Returns
    -------
    float
        The requested norm.  For Hermitian input these satisfy
        ``operator <= frobenius <= trace <= sqrt(rank) * frobenius``.
    """
    return _norm(as_hermitian(Z), kind)


def _norm(Z: np.ndarray, kind: str) -> float:
    """``norm`` of an already validated Hermitian ``Z``."""
    if kind == "frobenius":
        # no eigendecomposition needed: ||Z||_2^2 = sum |Z_ij|^2
        return float(np.linalg.norm(Z))
    if kind not in _NORM_KINDS:
        raise ValueError(f"unknown norm kind {kind!r}, expected one of {_NORM_KINDS}")
    lam = np.linalg.eigvalsh(Z)
    if kind == "trace":
        return float(np.sum(np.abs(lam)))
    return float(np.max(np.abs(lam)))


def psd_project(Z) -> np.ndarray:
    """Frobenius-nearest positive-semidefinite matrix.

    Eigendecomposes the Hermitian part of ``Z`` and clips negative eigenvalues
    to zero, which realizes the metric projection onto the PSD cone.
    """
    Z = as_hermitian(Z)
    lam, V = np.linalg.eigh(Z)
    lam = np.maximum(lam, 0.0)
    return hermitize((V * lam) @ V.conj().T)


def phase_aligned_distance(a, b) -> float:
    """min over phi of ||a - e^{i phi} b||_2.

    Closed form: the optimal phase aligns <a, b> with the positive real axis,
    giving sqrt(||a||^2 + ||b||^2 - 2 |<a, b>|).
    """
    a = as_signal(a, "a")
    b = as_signal(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    scale = float(np.linalg.norm(a)) ** 2 + float(np.linalg.norm(b)) ** 2
    gap = scale - 2.0 * float(np.abs(np.vdot(a, b)))
    # the subtraction cancels to roundoff when a ~ e^{i phi} b; a radicand at
    # or below that noise floor (possibly negative) is indistinguishable from
    # an exact phase match, so report 0 rather than sqrt(noise)
    if gap <= 16.0 * np.finfo(float).eps * scale:
        return 0.0
    return float(np.sqrt(gap))


class TangentSpace:
    """Tangent space ``T = {x z* + z x*}`` of the rank-1 manifold at ``x x*``.

    The anchor ``x`` must be unit-norm.  ``T`` is a real-linear subspace of the
    Hermitian matrices of real dimension ``2d - 1``; every element has rank at
    most 2.  The orthogonal projector (with respect to the real Frobenius
    inner product ``tr(AB)``) is

        P_T(Z) = X Z + Z X - tr(X Z) X,      X = x x*.

    Instances are immutable and safe to share.
    """

    def __init__(self, x):
        x = as_signal(x, "anchor").copy()  # frozen below, so never the caller's array
        nrm = float(np.linalg.norm(x))
        if abs(nrm - 1.0) > ANCHOR_TOL:
            raise ValueError(f"anchor must be unit-norm, got ||x|| = {nrm!r}")
        self._x = x
        self._x.setflags(write=False)

    @property
    def anchor(self) -> np.ndarray:
        return self._x

    @property
    def d(self) -> int:
        return self._x.size

    @property
    def dim(self) -> int:
        """Real dimension of T."""
        return 2 * self.d - 1

    def project(self, Z) -> np.ndarray:
        """Orthogonal projection of a d x d Hermitian matrix onto T."""
        Z = as_hermitian(Z)
        if Z.shape[0] != self.d:
            raise ValueError(f"matrix must be d x d like the anchor, d = {self.d}, got {Z.shape}")
        return self._project(Z)

    def _project(self, Z: np.ndarray) -> np.ndarray:
        """``project`` of an already validated Hermitian ``Z``.

        XZ + (XZ)* and x x* are Hermitian entry for entry, so the result is
        too, with no symmetrization.
        """
        x = self._x
        xZ = x.conj() @ Z            # row vector x* Z
        XZ = np.outer(x, xZ)         # X Z
        trXZ = complex(xZ @ x)       # tr(X Z) = x* Z x, real for Hermitian Z
        return XZ + XZ.conj().T - trXZ.real * np.outer(x, x.conj())

    def project_complement(self, Z) -> np.ndarray:
        """Projection onto the orthogonal complement of T."""
        Z = as_hermitian(Z)
        return hermitize(Z - self.project(Z))

    def contains(self, Z) -> bool:
        """Whether ``Z`` lies in T up to ``RANK_REL_TOL`` of its norm."""
        Z = as_hermitian(Z)
        scale = float(np.linalg.norm(Z))
        if scale == 0.0:
            return True
        return float(np.linalg.norm(Z - self.project(Z))) <= RANK_REL_TOL * scale

    def basis(self) -> np.ndarray:
        """Orthonormal basis of T in the rank-2 form, shape ``(2d - 1, d)``.

        Row beta is the vector z_beta of the basis element B_beta = x z_beta*
        + z_beta x*: z = x/2 (B = x x*), then u_j/sqrt(2) (B = (x u_j* +
        u_j x*)/sqrt(2)) and -i u_j/sqrt(2) (B = i (x u_j* - u_j x*)/sqrt(2))
        over an orthonormal completion ``{u_j}`` of ``x``.
        """
        x = self._x
        # unitary completion of x: QR of x as a single column, complete mode
        Q, R = np.linalg.qr(x[:, None], mode="complete")
        # first column of Q equals x up to the phase sign in R[0, 0]
        Q = Q * np.sign(R[0, 0]) if R[0, 0] != 0 else Q
        u = Q[:, 1:].T / np.sqrt(2.0)
        out = np.empty((2 * self.d - 1, self.d), dtype=complex)
        out[0] = x / 2.0
        out[1::2] = u
        out[2::2] = -1j * u
        return out
