"""Shared test helpers: random draws and independent dense oracles."""

import itertools
from collections import namedtuple

import numpy as np

from cdplift.diffraction import (
    _apply_A_adjoint_any,
    _apply_A_any,
    _offset_blocks,
    apply_A,
    dft_vector,
)
from cdplift.hermitian import TangentSpace, hermitize, norm, psd_project


def unit_signal(rng, d):
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


def random_hermitian(rng, d):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (Z + Z.conj().T) / 2


def random_tangent(rng, x):
    """A random element x z* + z x* of the tangent space at x x*."""
    z = rng.standard_normal(x.size) + 1j * rng.standard_normal(x.size)
    return np.outer(x, z.conj()) + np.outer(z, x.conj())


def dense_frame_element(eps_row, k):
    """F_{k,l} = D_l f_k f_k* D_l built with no FFT shortcuts."""
    u = eps_row * dft_vector(len(eps_row), k)
    return np.outer(u, u.conj())


def dense_apply_A(eps, Z):
    """tr(F_{k,l} Z) for every (l, k), flat row-major over l then k = 1..d."""
    L, d = eps.shape
    out = np.empty(L * d)
    for l in range(L):
        for k in range(1, d + 1):
            out[l * d + k - 1] = np.trace(dense_frame_element(eps[l], k) @ Z).real
    return out


def dense_apply_A_adjoint(eps, c):
    L, d = eps.shape
    out = np.zeros((d, d), dtype=complex)
    for l in range(L):
        for k in range(1, d + 1):
            out += c[l * d + k - 1] * dense_frame_element(eps[l], k)
    return (out + out.conj().T) / 2


def tangent_basis_gram_schmidt(x):
    """Orthonormal basis of {x z* + z x*} built by raw Gram-Schmidt.

    Deliberately avoids the package's QR-based construction: spans the same
    space, so projections must agree even if individual basis elements differ.
    """
    d = x.size
    candidates = []
    for j in range(d):
        e = np.zeros(d, dtype=complex)
        e[j] = 1.0
        candidates.append(np.outer(x, e.conj()) + np.outer(e, x.conj()))
        candidates.append(1j * np.outer(x, e.conj()) - 1j * np.outer(e, x.conj()))
    basis = []
    for cand in candidates:
        v = cand.astype(complex)
        for b in basis:
            v = v - np.trace(b.conj().T @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            basis.append(v / nrm)
    assert len(basis) == 2 * d - 1
    return basis


def hermitian_basis(d):
    """Orthonormal basis of the real space of d x d Hermitian matrices."""
    basis = []
    for a in range(d):
        for b in range(a, d):
            if a == b:
                B = np.zeros((d, d), dtype=complex)
                B[a, a] = 1.0
                basis.append(B)
                continue
            for phase in (1.0, 1j):
                B = np.zeros((d, d), dtype=complex)
                B[a, b] = phase / np.sqrt(2.0)
                B[b, a] = np.conj(phase) / np.sqrt(2.0)
                basis.append(B)
    return basis


def dense_constraints(eps, y0):
    """The constraint matrix of {A(X) = y} (with the trace row when y0 is given)
    in the coordinates of the orthonormal Hermitian basis, and the basis.

    Rows hold tr(F_{k,l} B) for the dense frame elements, in dense_apply_A's
    order, then tr(B) when y0 is not None.
    """
    L, d = eps.shape
    basis = hermitian_basis(d)
    F = np.array([dense_frame_element(eps[l], k) for l in range(L) for k in range(1, d + 1)])
    M = np.einsum("iab,jba->ij", F, np.array(basis)).real
    if y0 is not None:
        M = np.vstack([M, [np.trace(B).real for B in basis]])
    return M, basis


def dense_affine_projection(eps, y_flat, y0, X):
    """Frobenius least-squares projection of Hermitian X onto {A(X) = y, tr X = y0}.

    The correction is the minimum-norm least-squares step in the coordinates
    of ``dense_constraints``.  With y0 = None there is no trace row: the
    projection onto {A(X) = y}.
    """
    M, basis = dense_constraints(eps, y0)
    b = y_flat if y0 is None else np.append(y_flat, y0)
    coords = np.array([np.trace(B.conj().T @ X).real for B in basis])
    step, *_ = np.linalg.lstsq(M, b - M @ coords, rcond=None)
    return sum(c * B for c, B in zip(coords + step, basis))


DenseSolve = namedtuple("DenseSolve", "X_hat iterations_used converged point")


def reference_douglas_rachford(eps, nu, y_flat, y0, max_iterations, tol=1e-7):
    """The Douglas-Rachford loop of solve_phaselift on dense oracles.

    X = P_aff(V) by ``dense_affine_projection``, W = psd_project(2X - V -
    rho Id), V += W - X, with rho = sum(y) / (nu d^2 L); it stops when
    ||W - X|| <= tol ||W|| and the residual ||(A(W), tr W) - (y, y0)|| from
    ``dense_apply_A`` is <= tol ||(y, y0)||.  When the constraint matrix has
    full column rank d^2 the affine set is one point X0, and the loop starts
    at V = X0 - rho Id, else at V = 0.
    """
    L, d = eps.shape
    rho = float(np.sum(y_flat)) / (nu * d * d * L)
    shift = rho * np.eye(d)
    point = np.linalg.matrix_rank(dense_constraints(eps, y0)[0]) == d * d
    V = np.zeros((d, d), dtype=complex)
    if point:
        V = dense_affine_projection(eps, y_flat, y0, V) - shift
    b = y_flat if y0 is None else np.append(y_flat, y0)
    for iterations in range(1, max_iterations + 1):
        X = dense_affine_projection(eps, y_flat, y0, V)
        W = psd_project(2 * X - V - shift)
        step = W - X
        V = V + step
        r = dense_apply_A(eps, W)
        if y0 is not None:
            r = np.append(r, np.trace(W).real)
        if (np.linalg.norm(r - b) <= tol * np.linalg.norm(b)
                and np.linalg.norm(step) <= tol * np.linalg.norm(W)):
            return DenseSolve(W, iterations, True, point)
    return DenseSolve(W, max_iterations, False, point)


def dense_injectivity_lambda_min(eps, nu, x):
    """lambda_min of P_T(R - E[R])P_T from dense forward images of a tangent basis.

    In the Gram-Schmidt basis B of T, <B_a, R(B_b)> = <A(B_a), A(B_b)> / (nu^2 d L)
    and <B_a, E[R](B_b)> = <B_a, B_b> + tr(B_a) tr(B_b); lambda_min does not
    depend on which orthonormal basis spans T.
    """
    L, d = eps.shape
    basis = tangent_basis_gram_schmidt(x)
    images = np.array([dense_apply_A(eps, B) for B in basis])
    flat = np.array([B.reshape(-1) for B in basis])
    traces = np.array([np.trace(B).real for B in basis])
    M = images @ images.T / (nu**2 * d * L)
    M -= (flat.conj() @ flat.T).real + np.outer(traces, traces)
    return float(np.linalg.eigvalsh((M + M.T) / 2)[0])


def dense_isotropy_deviation(dist, d):
    """Max entry deviation of E[R](E_ij) from E_ij + delta_ij Id by brute force.

    Every mask realization comes from itertools with its probability as a
    product of floats.  E[R](E_ij) = (1/nu^2 d) sum_k E[tr(F_k E_ij) F_k] with
    tr(F E_ij) = F[j, i], summed over dense frame elements: no offset blocks,
    no FFT.
    """
    probs = dict(zip(dist.support, dist.probabilities))
    acc = np.zeros((d, d, d, d), dtype=complex)
    for combo in itertools.product(dist.support, repeat=d):
        F = np.array([dense_frame_element(np.asarray(combo), k) for k in range(1, d + 1)])
        p = np.prod([probs[v] for v in combo])
        acc += p * np.einsum("kji,kab->ijab", F, F)
    acc /= dist.nu**2 * d
    target = np.einsum("ia,jb->ijab", np.eye(d), np.eye(d))  # E_ij
    target += np.einsum("ij,ab->ijab", np.eye(d), np.eye(d))  # delta_ij Id
    return float(np.max(np.abs(acc - target)))


def symmetric_projector(d):
    """Projector onto the totally symmetric subspace of C^d tensor C^d."""
    swap = np.eye(d * d).reshape(d, d, d, d).swapaxes(0, 1).reshape(d * d, d * d)
    return (np.eye(d * d) + swap) / 2.0


def dense_two_design_deviation(dist, d):
    """Max entry deviation of (1/nu^2 d) sum_k E[F_k tensor F_k] from 2 P_sym.

    Builds both d^2 x d^2 matrices explicitly from itertools-enumerated masks:
    each F_k = u u* is rank one, so F_k tensor F_k is the outer product of
    kron(u, u) with itself, u = D f_k.  No offset blocks, no sum blocks, no FFT.
    """
    probs = dict(zip(dist.support, dist.probabilities))
    fk = np.array([dft_vector(d, k) for k in range(1, d + 1)])
    lhs = np.zeros((d * d, d * d), dtype=complex)
    for combo in itertools.product(dist.support, repeat=d):
        u = np.asarray(combo) * fk  # (k, a) masked DFT vectors
        rows = np.array([np.kron(v, v) for v in u])
        lhs += np.prod([probs[v] for v in combo]) * rows.T @ rows.conj()
    lhs /= dist.nu**2 * d
    return float(np.max(np.abs(lhs - 2.0 * symmetric_projector(d))))


def apply_A_probe_margin(frame, d, seed, probes):
    """Worst b^4 d ||Z||^2 - (1/dL)||A(Z)||^2 over random Hermitian probes Z.

    The probes are drawn as injectivity_spectrum draws them (real part, then
    imaginary part, per probe, from default_rng(seed)); each energy sums the
    dL forward values of ``apply_A``, the FFT path, one probe at a time.
    """
    dist = frame.distribution
    rng = np.random.default_rng(seed)
    margin = np.inf
    for _ in range(probes):
        Z = hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        z2 = float(np.linalg.norm(Z)) ** 2
        energy = float(np.sum(apply_A(frame, Z) ** 2)) / (d * frame.L) if frame.L else 0.0
        margin = min(margin, dist.b**4 * d * z2 - energy)
    return float(margin)


def itertools_masks(dist, d):
    """Every mask realization, (|support|^d, d), and its probability.

    The masks come from itertools, each probability from a product of
    floats, not from the library's enumerator.
    """
    probs = dict(zip(dist.support, dist.probabilities))
    combos = list(itertools.product(dist.support, repeat=d))
    weights = np.array([np.prod([probs[v] for v in combo]) for combo in combos])
    return np.array(combos), weights


def variance_moments_loop(dist, x, Z, budget=10**6, mc_samples=10**4, seed=0):
    """(||E[M(Z)^2]||_inf, tr E[(P_T M(Z))^2], n_terms), one mask at a time.

    Each mask's M(Z) = (1/nu^2 d) sum_k tr(F_k Z) F_k comes from its own
    forward values and adjoint, squared with one matrix product and projected
    with TangentSpace.project; the masks and weights are those of
    variance_bound_check (exact enumeration within ``budget``, else the same
    Monte-Carlo draw).  The exact masks come from itertools, each with its
    probability as a product of floats (``itertools_masks``).
    """
    tangent = TangentSpace(x)
    d = x.size
    if len(dist.support) ** d <= budget:
        batches = [itertools_masks(dist, d)]
    else:
        rng = np.random.default_rng(seed)
        eps = rng.choice(np.asarray(dist.support), size=(mc_samples, d),
                         p=np.asarray(dist.probabilities))
        batches = [(eps, np.full(mc_samples, 1.0 / mc_samples))]
    scale = 1.0 / (dist.nu**2 * d)
    second_moment = np.zeros((d, d), dtype=complex)
    trace_acc = 0.0
    n_terms = 0
    for eps, p in batches:
        blocks = _offset_blocks(eps)
        coeffs = _apply_A_any(blocks, Z)
        for row in range(eps.shape[0]):
            M = hermitize(
                _apply_A_adjoint_any(blocks[:, row : row + 1], coeffs[row : row + 1]) * scale
            )
            second_moment += p[row] * (M @ M)
            trace_acc += p[row] * float(np.linalg.norm(tangent.project(M))) ** 2
            n_terms += 1
    return norm(second_moment, "operator"), trace_acc, n_terms


def support_gaps_3d(eps, support):
    """Distance from each mask entry to its nearest support value, (L, d).

    Broadcasts every entry against every support value in one (L, d, |support|)
    array and reduces its last axis.
    """
    return np.min(np.abs(np.asarray(eps)[:, :, None] - np.asarray(support)), axis=2)


def offset_blocks_two_array(eps, partner=None):
    """_offset_blocks in its two-array form: gather, then a fresh product.

    ``partner`` defaults to the difference pairs a -> a+m mod d.
    """
    d = eps.shape[1]
    if partner is None:
        a = np.arange(d)
        partner = (a[:, None] + a[None, :]) % d
    columns = np.ascontiguousarray(eps.T)
    return (columns[partner] * columns).transpose(0, 2, 1)


def offset_gram_every_product(eps):
    """H_m = E_m^T E_m for all d offsets, one product per offset of the full
    two-array stack: no half stack, no shift gather."""
    blocks = offset_blocks_two_array(eps)
    return blocks.transpose(0, 2, 1) @ blocks


def lstsq_identity_fold(eps, beta):
    """Min-norm alpha with sum_l alpha_l eps_l^2 = -beta/d * 1, by np.linalg.lstsq.

    Raises RuntimeError, as the fold does, when the patterns eps^2 leave a
    residual beyond 1e-8 relative.
    """
    d = eps.shape[1]
    patterns = eps**2
    target = np.full(d, -beta / d)
    alpha, *_ = np.linalg.lstsq(patterns.T, target, rcond=None)
    residual = float(np.linalg.norm(patterns.T @ alpha - target))
    if residual > 1e-8 * max(abs(beta) / d, 1e-12):
        raise RuntimeError(f"patterns do not span the identity (residual {residual:.3e})")
    return alpha
