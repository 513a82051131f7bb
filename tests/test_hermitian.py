import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdplift.hermitian import (
    TangentSpace,
    as_hermitian,
    norm,
    phase_aligned_distance,
    psd_project,
)
from util import random_hermitian, tangent_basis_gram_schmidt, unit_signal


def e(d, j):
    v = np.zeros(d, dtype=complex)
    v[j] = 1.0
    return v


# ---------------------------------------------------------------------------
# norms


def test_norm_identity_trace():
    assert norm(np.eye(3), "trace") == pytest.approx(3.0)


def test_norm_operator_indefinite():
    Z = np.outer(e(3, 0), e(3, 0)) - np.outer(e(3, 1), e(3, 1))
    assert norm(Z, "operator") == pytest.approx(1.0)


def test_norm_orderings_rank2():
    # ||Z||_inf <= ||Z||_2 <= ||Z||_1 <= sqrt(2) ||Z||_2 for rank-2 matrices
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        Z = np.outer(a, a.conj()) - np.outer(b, b.conj())
        lam = np.linalg.eigvalsh(Z)
        assert norm(Z, "trace") == pytest.approx(np.sum(np.abs(lam)))
        assert norm(Z, "frobenius") == pytest.approx(np.sqrt(np.sum(lam**2)))
        assert norm(Z, "operator") == pytest.approx(np.max(np.abs(lam)))
        assert norm(Z, "operator") <= norm(Z, "frobenius") + 1e-12
        assert norm(Z, "frobenius") <= norm(Z, "trace") + 1e-12
        assert norm(Z, "trace") <= np.sqrt(2) * norm(Z, "frobenius") + 1e-12


def test_norm_rejects_nonfinite_and_bad_kind():
    with pytest.raises(ValueError):
        norm(np.array([[np.nan, 0], [0, 1]]), "trace")
    with pytest.raises(ValueError):
        norm(np.eye(2), "nuclear")


def test_as_hermitian_symmetrizes():
    rng = np.random.default_rng(1)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = as_hermitian(Z)
    assert np.allclose(H, H.conj().T)
    assert abs(np.trace(H).imag) <= 1e-12
    with pytest.raises(ValueError):
        as_hermitian(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# tangent space


def test_project_annihilates_orthogonal_block():
    T = TangentSpace(e(3, 0))
    Z = np.outer(e(3, 1), e(3, 1))
    assert np.allclose(T.project(Z), 0.0, atol=1e-14)


def test_project_fixes_members():
    T = TangentSpace(e(3, 0))
    Z = np.outer(e(3, 0), e(3, 1)) + np.outer(e(3, 1), e(3, 0))
    assert np.allclose(T.project(Z), Z, atol=1e-14)


def test_project_matches_gram_schmidt_basis_oracle():
    # brute-force projection onto an independently constructed orthonormal
    # basis of {xz* + zx*} must agree with the closed form XZ + ZX - tr(XZ)X
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        x = unit_signal(rng, d)
        T = TangentSpace(x)
        basis = tangent_basis_gram_schmidt(x)
        for _ in range(5):
            Z = random_hermitian(rng, d)
            brute = sum(np.trace(b.conj().T @ Z) * b for b in basis)
            assert np.allclose(T.project(Z), brute, atol=1e-10)


def test_projection_dimension_is_2d_minus_1():
    rng = np.random.default_rng(3)
    for d in (2, 4, 7):
        x = unit_signal(rng, d)
        T = TangentSpace(x)
        assert T.dim == 2 * d - 1
        z = T.basis()
        assert z.shape == (2 * d - 1, d)
        # row beta is z_beta of the basis element B_beta = x z_beta* + z_beta x*
        B = x[:, None] * z.conj()[:, None, :] + z[:, :, None] * x.conj()
        gram = np.einsum("aij,bij->ab", B.conj(), B)
        assert np.allclose(gram, np.eye(2 * d - 1), atol=1e-10)
        # every basis element is a fixed point of the projector
        for Bk in B:
            assert np.allclose(T.project(Bk), Bk, atol=1e-10)


def test_anchor_must_be_unit_norm():
    with pytest.raises(ValueError):
        TangentSpace(np.array([1.0, 1.0]))


def test_complement_decomposition_and_orthogonality():
    rng = np.random.default_rng(11)
    x = unit_signal(rng, 5)
    T = TangentSpace(x)
    Z = random_hermitian(rng, 5)
    P, Q = T.project(Z), T.project_complement(Z)
    assert np.allclose(P + Q, Z, atol=1e-12)
    assert abs(np.trace(P.conj().T @ Q)) <= 1e-10
    # complement of X itself vanishes
    X = np.outer(x, x.conj())
    assert np.allclose(T.project_complement(X), 0.0, atol=1e-12)


def test_complement_pinching():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = unit_signal(rng, 6)
        Z = random_hermitian(rng, 6)
        T = TangentSpace(x)
        assert norm(T.project_complement(Z), "operator") <= norm(Z, "operator") + 1e-10


def test_tangent_sandwich_of_identity_projector():
    # P_T pi_Id P_T = pi_X with pi_Id(W) = tr(W) Id: both sides on random Z
    rng = np.random.default_rng(17)
    x = unit_signal(rng, 4)
    T = TangentSpace(x)
    X = np.outer(x, x.conj())
    for _ in range(10):
        Z = random_hermitian(rng, 4)
        lhs = T.project(np.trace(T.project(Z)) * np.eye(4))
        rhs = np.trace(X @ Z) * X
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_projected_operator_norm_at_most_doubled():
    rng = np.random.default_rng(19)
    for _ in range(10):
        x = unit_signal(rng, 5)
        Z = random_hermitian(rng, 5)
        P = TangentSpace(x).project(Z)
        assert norm(P, "operator") <= 2 * norm(Z, "operator") + 1e-10


def test_projected_rank_at_most_two():
    rng = np.random.default_rng(23)
    x = unit_signal(rng, 8)
    T = TangentSpace(x)
    for _ in range(5):
        Z = random_hermitian(rng, 8)
        P = T.project(Z)
        s = np.linalg.svd(P, compute_uv=False)
        assert s[2] <= 1e-10 * np.linalg.norm(Z)
        assert T.contains(P)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_projection_idempotent(d, seed):
    rng = np.random.default_rng(seed)
    x = unit_signal(rng, d)
    T = TangentSpace(x)
    Z = random_hermitian(rng, d)
    P = T.project(Z)
    assert np.linalg.norm(T.project(P) - P) <= 1e-10 * max(np.linalg.norm(Z), 1.0)


@settings(max_examples=30, deadline=None)
@given(d=st.integers(2, 8), seed=st.integers(0, 10**6))
def test_projection_self_adjoint(d, seed):
    rng = np.random.default_rng(seed)
    T = TangentSpace(unit_signal(rng, d))
    Z, W = random_hermitian(rng, d), random_hermitian(rng, d)
    lhs = np.trace(T.project(Z).conj().T @ W)
    rhs = np.trace(Z.conj().T @ T.project(W))
    assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(Z) * np.linalg.norm(W) + 1.0)


# ---------------------------------------------------------------------------
# PSD projection


def test_psd_project_fixes_psd():
    rng = np.random.default_rng(29)
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Z = A @ A.conj().T
    assert np.allclose(psd_project(Z), Z, atol=1e-10)


def test_psd_project_clips_diagonal():
    assert np.allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))


def test_psd_project_rejects_non_finite_and_non_square_input():
    Z = np.eye(3)
    Z[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        psd_project(Z)
    with pytest.raises(ValueError, match="square"):
        psd_project(np.ones((2, 3)))


def test_psd_project_min_eigenvalue():
    rng = np.random.default_rng(31)
    for _ in range(10):
        P = psd_project(random_hermitian(rng, 5))
        assert np.linalg.eigvalsh(P)[0] >= -1e-10


def test_psd_project_is_nearest_on_2x2_grid():
    # grid-search oracle: no PSD 2x2 matrix on a fine parameter grid is
    # closer in Frobenius norm than the eigenvalue-clipping output
    rng = np.random.default_rng(37)
    a = np.linspace(0.0, 2.5, 26)
    re = np.linspace(-1.2, 1.2, 25)
    A, C, RE, IM = np.meshgrid(a, a, re, re, indexing="ij")
    feasible = A * C >= RE**2 + IM**2  # PSD iff diag >= 0 and det >= 0
    for _ in range(5):
        Z = random_hermitian(rng, 2)
        P = psd_project(Z)
        dist_impl = np.linalg.norm(Z - P)
        d2 = (
            (Z[0, 0].real - A) ** 2
            + (Z[1, 1].real - C) ** 2
            + 2 * (Z[0, 1].real - RE) ** 2
            + 2 * (Z[0, 1].imag - IM) ** 2
        )
        assert dist_impl**2 <= d2[feasible].min() + 1e-9


# ---------------------------------------------------------------------------
# phase alignment


def test_phase_aligned_distance_zero_on_phase_orbit():
    rng = np.random.default_rng(47)
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    for phi in (0.0, 0.3, np.pi, 5.1):
        assert phase_aligned_distance(a, np.exp(1j * phi) * a) <= 1e-12


def test_phase_aligned_distance_orthogonal():
    assert phase_aligned_distance(e(3, 0), e(3, 1)) == pytest.approx(np.sqrt(2))


def test_phase_aligned_distance_matches_grid_search():
    rng = np.random.default_rng(53)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phis = np.linspace(0, 2 * np.pi, 10**6, endpoint=False)
    v = np.vdot(a, b)
    dists2 = (
        np.linalg.norm(a) ** 2
        + np.linalg.norm(b) ** 2
        - 2 * (np.cos(phis) * v.real - np.sin(phis) * v.imag)
    )
    assert phase_aligned_distance(a, b) == pytest.approx(np.sqrt(dists2.min()), abs=1e-6)


def test_phase_aligned_distance_invariances():
    rng = np.random.default_rng(59)
    a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    ref = phase_aligned_distance(a, b)
    assert phase_aligned_distance(b, a) == pytest.approx(ref)
    assert phase_aligned_distance(np.exp(0.7j) * a, np.exp(-1.1j) * b) == pytest.approx(ref)
    with pytest.raises(ValueError):
        phase_aligned_distance(a, b[:4])
