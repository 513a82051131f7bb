"""Executable certification of the recovery guarantee's proof ingredients.

Each operation here turns one piece of the guarantee machinery into a
numerical check on concrete mask realizations:

* exact near-isotropy of the expected Gram operator, E[R](Z) = Z + tr(Z)*Id,
  and the companion 2-design identity
  (1/nu^2 d) sum_k E[F_k tensor F_k] = Id + SWAP: one fourth-moment identity
  read in two index orders, so both checks read one deviation of one full
  enumeration of the finite mask distribution, the offset Grams
  H_m = sum p E_m^T E_m of offsets m = 0..d//2 weighted by the exact
  probabilities (``_moment_grams``); the other offsets,
  H_{-m}[a+m, b+m] = H_m[a, b], are never formed;
* the restricted-spectrum injectivity check at odd d: 1 + lambda_min(P_T (R -
  E[R]) P_T) must exceed 1/4 for the measurements to separate tangent
  directions; R enters through the frame's half offset Grams, one batched
  product;
* truncation-event statistics against the 4 d^{-gamma} tail bound;
* per-mask variance bounds (30 and 60 times b^8/nu^4), exact over the same
  enumeration within the same budget; each chunk's M(Z) is built at once from
  the offset contraction E_m z_m on offsets 0..d//2 and the Hermitian mirror;
* the golfing scheme: an iterative, resampled construction of an approximate
  dual certificate Y in range(A*), with the full construction log and an
  explicit witness vector.  Each attempt draws its mask entries straight
  from the seed stream, unvalidated (the union mask set is validated once),
  and builds its batch's offset blocks once for both A and A*; and the
  deterministic re-verification of such a certificate, which returns it
  rebuilt from the witness;
* the final optimality verdict, which is the conjunction of a passing
  certificate (give it the rebuilt one) and a passing injectivity report —
  nothing more is computed, matching the logic of the guarantee — and which
  rejects an anchor or a frame other than the ones the certificate and the
  injectivity report were computed for.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .diffraction import (
    MaskDistribution,
    MaskSet,
    MeasurementFrame,
    _apply_A_adjoint_any,
    _apply_A_any,
    _contract,
    _draw_entries,
    _half_offsets,
    _mirror_fill,
    _mirror_weights,
    _offset_blocks,
    _offset_gram,
    _offset_index,
    apply_A,  # noqa: F401  (bound here too; the benchmark's tracer wraps every site)
    apply_A_adjoint,
    truncation_rate,
)
from .hermitian import TangentSpace, _norm, as_hermitian, as_signal, hermitize, norm
from .policy import ANCHOR_TOL, RANK_REL_TOL, _check_count, _check_counts, _check_seed
from .policy import _check_type, _is_int, _is_real

__all__ = [
    "InjectivityReport",
    "GolfingParams",
    "IterationRecord",
    "DualCertificate",
    "GolfingFailure",
    "CertificateIntegrityError",
    "OptimalityVerdict",
    "TruncationStats",
    "VarianceCheck",
    "check_near_isotropy_exact",
    "check_two_design_exact",
    "injectivity_spectrum",
    "truncation_statistics",
    "variance_bound_check",
    "golfing_construct",
    "verify_certificate",
    "certify_optimality",
    "format_construction_log",
]


# ---------------------------------------------------------------------------
# exact enumeration checks


# most masks per chunk of an enumeration
_CHUNK = 4096

#: most mask realizations an exact enumeration runs through
_ENUMERATION_BUDGET = 10**6


def _enumerate_masks(dist: MaskDistribution, d: int):
    """Yield (eps, prob) chunks covering every mask realization exactly once.

    With s = |support|, mask n has entry support[(n // s^a) % s] at position a
    (position 0 varies fastest) and the product of its entries'
    probabilities.  A chunk is s^k consecutive masks, the largest power of s
    within ``_CHUNK`` (all s^d masks when they fit): positions below k run
    through every digit combination in every chunk and are written once per
    call; positions k and up are constant in a chunk, so each chunk writes
    d - k rows and scales the low probabilities by one factor.  ``eps`` is
    the (n, d) transpose of contiguous columns.  Both arrays are read-only
    views of buffers that the next chunk rewrites, so a caller copies
    whatever must outlive its loop step.
    """
    s = len(dist.support)
    k = 0
    while k < d and s ** (k + 1) <= _CHUNK:
        k += 1
    size = s**k
    support = np.asarray(dist.support, dtype=float)
    probs = np.asarray(dist.probabilities, dtype=float)
    columns = np.empty((d, size))
    low = np.ones(size)
    for a in range(k):
        columns[a].reshape(-1, s, s**a)[...] = support[:, None]
        low.reshape(-1, s, s**a)[...] *= probs[:, None]
    prob = np.empty(size)
    eps, prob_view = columns.T, prob[:]
    eps.flags.writeable = prob_view.flags.writeable = False
    for index in range(s ** (d - k)):
        weight = 1.0
        for a in range(k, d):
            index, digit = divmod(index, s)
            columns[a] = support[digit]
            weight *= probs[digit]
        np.multiply(low, weight, out=prob)
        yield eps, prob_view


def _enumeration_fits(dist: MaskDistribution, d: int) -> bool:
    """Whether the |support|^d mask realizations fit ``_ENUMERATION_BUDGET``."""
    return len(dist.support) ** d <= _ENUMERATION_BUDGET


def _check_enumeration(dist: MaskDistribution, d: int) -> None:
    """TypeError unless ``dist`` is a law; ValueError unless d is an integer >= 1 in budget."""
    _check_type("dist", dist, MaskDistribution)
    _check_count("d", d)
    if not _enumeration_fits(dist, d):
        raise ValueError(
            f"enumeration of {len(dist.support) ** d} mask realizations "
            f"exceeds budget {_ENUMERATION_BUDGET}"
        )


def _moment_grams(dist: MaskDistribution, d: int) -> np.ndarray:
    """The exact offset Grams H_m = sum_n p_n E_m^T E_m of offsets m = 0..d//2,
    a real (d//2 + 1, d, d) array, from one enumeration of every mask
    realization with its exact probability p_n.

    Per chunk and offset, E_m^T is built in one (d, n) buffer (a row gather of
    eps^T, then a product with it in place) and E_m^T diag(p) in a second;
    their 2-D product is term m, and no stack of blocks is formed.  The two
    distinct operands keep that product a BLAS gemm, as in
    ``diffraction._offset_gram``: a symmetric V V^T with V = E_m^T diag(p^{1/2})
    would go to syrk.  The buffers are sized by the first chunk and reused.
    """
    partner = _offset_index(d)[1]
    gram = np.zeros((len(partner), d, d))
    part = np.empty_like(gram)
    pairs = None
    for eps, p in _enumerate_masks(dist, d):
        n = p.size
        if pairs is None:
            pairs, weighted = np.empty(d * n), np.empty(d * n)
        columns = eps.T
        block = pairs[: d * n].reshape(d, n)  # a short last chunk stays contiguous
        left = weighted[: d * n].reshape(d, n)
        for m, cols in enumerate(partner):
            columns.take(cols, axis=0, out=block, mode="clip")
            block *= columns
            np.multiply(block, p, out=left)
            np.matmul(left, block.T, out=part[m])
        gram += part
    return gram


@lru_cache(maxsize=None)
def _isotropy_target(d: int) -> np.ndarray:
    """Z -> Z + tr(Z)*Id on offsets 0..d//2: I at every offset, plus all ones
    at offset 0; read-only."""
    target = np.tile(np.eye(d), (d // 2 + 1, 1, 1))
    target[0] += 1.0
    target.setflags(write=False)
    return target


def _isotropy_deviation(H: np.ndarray, nu: float) -> float:
    """Max entry of |H_m / nu^2 - target_m| over the half: the deviation of
    both exact checks (``check_near_isotropy_exact``, ``check_two_design_exact``)."""
    return float(np.max(np.abs(H / nu**2 - _isotropy_target(H.shape[-1]))))


def check_near_isotropy_exact(dist: MaskDistribution, d: int) -> float:
    """Max entry deviation of the exact E[R] from Z -> Z + tr(Z)*Id.

    Enumerates every mask realization once with its exact probability p and
    reads the offset Grams H_m = sum p E_m^T E_m of offsets 0..d//2
    (``_moment_grams``).  E[R] acts on offset m as H_m over nu^2, and the
    target acts as I at every offset plus the all-ones matrix at offset 0
    (tr(Z) = 1^T z_0, and Id sits on offset 0).  Entry (a, i) of offset m is
    entry (a, a+m) of E[R](E_{i,i+m}) less its target, so the result equals
    the largest entry deviation of E[R](E_ij) from E_ij + delta_ij * Id over
    all standard basis matrices.  Offset d - m shifts offset m's entries,
    H_{-m}[a+m, b+m] = H_m[a, b], and its target I alike, so the half holds
    every deviation.  For odd d the deviation is roundoff-level; even d
    genuinely breaks the identity and the returned deviation records by how
    much.  ``d`` must be an integer >= 1, and |support|^d must fit the
    enumeration budget of 10^6 mask realizations.
    """
    _check_enumeration(dist, d)
    return _isotropy_deviation(_moment_grams(dist, d), dist.nu)


def check_two_design_exact(dist: MaskDistribution, d: int) -> float:
    """Max entry deviation of (1/nu^2 d) sum_k E[F_k tensor F_k] from 2 P_sym.

    It is near-isotropy's deviation, of the same enumeration.  With u = D f_k,
    entry ((a,c),(b,e)) of the left side is
    (1/nu^2 d) sum_k E[eps_a eps_c eps_b eps_e] omega^{k(a+c-b-e)}: the sum
    over k leaves E[eps_a eps_c eps_b eps_e] / nu^2 where a + c = b + e and
    exact zeros elsewhere, as in I + SWAP = 2 P_sym.  There, write s = a + c
    and m = s - a - b (indices mod d): then s - a = b + m and s - b = a + m,
    so the entry is H_m[a, b] / nu^2, and the target delta_ab + [a + b = s]
    is delta_ab + [m = 0], ``_isotropy_target`` at offset m.  For each (a, b),
    (s, a, b) -> (m, a, b) is a bijection, so the entries and targets are
    those of all d offsets.  Offset m > d/2 is offset d - m shifted,
    H_m[a, b] = H_{d-m}[a+m, b+m], and its target with it, so both maxima
    run over one set of (entry, target) pairs, the half's.  ``d`` is checked
    as in ``check_near_isotropy_exact``.
    """
    _check_enumeration(dist, d)
    return _isotropy_deviation(_moment_grams(dist, d), dist.nu)


# ---------------------------------------------------------------------------
# robust injectivity


#: bound that 1 + lambda_min(P_T (R - E[R]) P_T) must exceed
_QUARTER_BOUND = 0.25


@dataclass(frozen=True, eq=False)
class InjectivityReport:
    """The injectivity spectrum's verdict, bound to the anchor and masks it read."""

    lambda_min_restricted: float
    upper_bound_margin: float
    anchor: np.ndarray
    masks: MaskSet

    @property
    def passes_quarter_bound(self) -> bool:
        return 1.0 + self.lambda_min_restricted > _QUARTER_BOUND


def injectivity_spectrum(
    frame: MeasurementFrame, x, seed: int = 0, probes: int = 100
) -> InjectivityReport:
    """Spectrum of the tangent-restricted deviation operator P_T(R - E[R])P_T.

    The frame's dimension d must be odd: E[R] = Z + tr(Z)*Id, the
    near-isotropy identity this check subtracts, holds only there (at even d
    offset d/2 adds a shift), so even d raises ValueError, as golfing does.

    In an orthonormal basis B_beta = x z_beta* + z_beta x* of T (the z_beta
    of ``TangentSpace.basis``) the operator's matrix is M = <B_alpha, (R -
    E[R])(B_beta)>: E[R] is taken analytically, and only R touches the
    sampled masks.  On offset m, R acts as H_m / (nu^2 L) with the offset
    Grams H_m = E_m^T E_m and E[R] as ``_isotropy_target``'s I_m, so M is one
    contraction of the offset vectors
    b_m[a] = x_a conj(z_{a+m}) + z_a conj(x_{a+m}) of the basis elements,
    Re sum_m w_m b_alpha,m^* (H_m / (nu^2 L) - I_m) b_beta,m over the half
    offsets with the weights w of ``_mirror_weights``; no basis matrix is
    formed.  The report also carries the worst-case margin of the
    deterministic upper bound b^4 d ||Z||_2^2 - (1/dL)||A(Z)||^2 over
    ``probes`` random Hermitian Z, which must never be negative.  By Parseval over the frequencies k,
    (1/dL)||A(Z)||^2 = (1/L) sum_m w_m z_m^* H_m z_m, so the probes read the
    same half Grams, all in one batched product.  The check that does not go
    through H is in the tests: the margin is compared with the one from the
    dL forward values of ``apply_A``.
    """
    _check_type("frame", frame, MeasurementFrame)
    if not _is_int(probes) or probes < 0:
        raise ValueError(f"probes must be an integer >= 0, got {probes!r}")
    _check_seed(seed)
    tangent = TangentSpace(x)
    d = frame.d
    if tangent.d != d:
        raise ValueError(f"anchor dimension {tangent.d} != frame dimension {d}")
    if d % 2 == 0:
        raise ValueError(f"frame dimension d must be odd for E[R] = Z + tr(Z)*Id, got {d}")
    x, z = tangent.anchor, tangent.basis().T  # z[a, beta]
    dist = frame.distribution
    index = _offset_index(d)
    b = z.conj()[index[1]]  # b[m, a, beta] = B_beta[a, a+m], built in place
    b *= x[:, None]
    b += z * x.conj()[index[1]][..., None]
    parts = np.stack([b.real, b.imag], axis=2)  # real, so the Grams stay real
    w = _mirror_weights(d)[:, None, None]
    H = w * _offset_gram(frame.blocks)  # each half Gram stands for its mirror too
    scale = 1.0 / (dist.nu**2 * frame.L)
    K = H * scale - w * _isotropy_target(d)  # R - E[R], offset by offset
    images = K @ parts.reshape(len(K), d, -1)
    M = parts.reshape(-1, 2 * d - 1).T @ images.reshape(-1, 2 * d - 1)  # Re sum conj(b) K b
    M = (M + M.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(M)[0])

    draws = np.random.default_rng(seed).standard_normal((probes, 2, d, d))
    Z = hermitize(draws[:, 0] + 1j * draws[:, 1])
    pairs = np.ascontiguousarray(Z[(slice(None), *index)].transpose(1, 2, 0)).view(float)
    energy = np.einsum("maj,maj->j", pairs, H @ pairs).reshape(probes, 2).sum(axis=1)
    energy *= 1.0 / frame.L
    z2 = np.square(np.abs(Z)).sum(axis=(1, 2))
    margin = np.min(dist.b**4 * d * z2 - energy, initial=np.inf)
    return InjectivityReport(
        lambda_min_restricted=lam_min,
        upper_bound_margin=float(margin),
        anchor=tangent.anchor,
        masks=frame.masks,
    )


# ---------------------------------------------------------------------------
# truncation events


@dataclass(frozen=True)
class TruncationStats:
    empirical_prob: float
    bound: float
    exceed_count: int
    total_terms: int


def truncation_statistics(frame: MeasurementFrame, Z, gamma: float) -> TruncationStats:
    """Empirical tail probability of |tr(F_{k,l} Z)| beyond the truncation
    threshold, against the bound 4 d^{-gamma}.

    ``gamma`` must be a finite real number >= 1 (not a bool), and the
    Hermitian Z must have rank <= 2 up to ``RANK_REL_TOL`` (lie in a
    tangent space).  The boundary |tr| == threshold counts as inside the good
    event (not exceeded); in particular Z = 0 never triggers anything.
    """
    _check_type("frame", frame, MeasurementFrame)
    Z = as_hermitian(Z)
    if Z.shape[0] != frame.d:
        raise ValueError(f"Z must be {frame.d} x {frame.d} like the frame, got {Z.shape}")
    if not (_is_real(gamma) and math.isfinite(gamma) and gamma >= 1):
        raise ValueError(f"gamma must be finite and >= 1, got {gamma!r}")
    sigma = np.linalg.svd(Z, compute_uv=False)
    if sigma.size > 2 and sigma[2] > RANK_REL_TOL * max(sigma[0], 1e-300):
        raise ValueError("Z must have rank <= 2 (lie in a tangent space)")
    vals = _apply_A_any(frame.blocks, Z)
    keep = _truncate(vals, float(np.linalg.norm(Z)), frame.distribution.b, gamma)
    total = int(keep.size)
    exceed = total - int(keep.sum())
    return TruncationStats(
        empirical_prob=exceed / total,
        bound=4.0 * frame.d ** (-gamma),
        exceed_count=exceed,
        total_terms=total,
    )


# ---------------------------------------------------------------------------
# variance bounds


@dataclass(frozen=True)
class VarianceCheck:
    lhs_operator: float
    rhs_operator: float
    lhs_trace: float
    rhs_trace: float

    @property
    def satisfied(self) -> bool:
        return self.lhs_operator <= self.rhs_operator and self.lhs_trace <= self.rhs_trace


def variance_bound_check(dist: MaskDistribution, x, Z) -> VarianceCheck:
    """Second-moment bounds on the single-mask operator M(Z).

    With M(Z) = (1/nu^2 d) sum_k tr(F_k Z) F_k for one mask, computes
    ||E[M(Z)^2]||_inf and tr(E[(P_T M(Z))^2]) and compares them against
    30 b^8/nu^4 ||Z||_2^2 and 60 b^8/nu^4 ||Z||_2^2.  Both expectations are
    exact: every mask realization is enumerated once with its exact
    probability, so, as in ``check_near_isotropy_exact``, |support|^d must fit
    the enumeration budget of 10^6 mask realizations.  Masks are taken in
    chunks: each chunk's M(Z) comes from one contraction, is squared by one
    batched product, and its tangent part's norm is read from M x alone.
    """
    x = as_signal(x)
    d = x.size
    _check_enumeration(dist, d)
    tangent = TangentSpace(x)
    Z = as_hermitian(Z)
    if Z.shape[0] != d:
        raise ValueError(f"Z must be {d} x {d} like the anchor, got {Z.shape}")
    if not tangent.contains(Z):
        raise ValueError("Z must lie in the tangent space of the anchor")

    # offset m of mask n's M(Z) is E_m[n, a] s[m, n] / nu^2 with s[m] = E_m z_m,
    # built on offsets 0..d//2 and filled by the mirror, Hermitian entry for
    # entry; for unit x and Hermitian M, ||P_T M||_2^2 = 2 ||M x||^2 - (x* M x)^2
    z = _half_offsets(Z)
    second_moment = np.zeros((d, d), dtype=complex)
    trace_acc = 0.0
    for eps, p in _enumerate_masks(dist, d):
        blocks = _offset_blocks(eps)
        s = _contract(blocks, z)
        M = _mirror_fill((blocks * s[:, :, None]).transpose(1, 0, 2) / dist.nu**2)
        second_moment += np.tensordot(p, M @ M, axes=1)
        Mx = M @ x
        tangent_sq = 2.0 * np.sum(np.abs(Mx) ** 2, axis=1) - (Mx @ x.conj()).real ** 2
        trace_acc += float(p @ tangent_sq)

    z2 = float(np.linalg.norm(Z)) ** 2
    rhs_base = dist.b**8 / dist.nu**4 * z2
    return VarianceCheck(
        lhs_operator=norm(second_moment, "operator"),
        rhs_operator=30.0 * rhs_base,
        lhs_trace=trace_acc,
        rhs_trace=60.0 * rhs_base,
    )


# ---------------------------------------------------------------------------
# golfing scheme


@dataclass(frozen=True)
class GolfingParams:
    """Mask batch sizes of the golfing construction.

    ``L1`` and ``L2`` masks for the two fine iterations, ``L_later`` for each
    coarse one.  The defaults are pilot-calibrated desk-scale values; the
    paper's absolute constants are not numeric.  The rest of the schedule
    (gamma, r, w, t and c) is a function of d and the mask law: ``_schedule``.
    """

    L1: int = 1000
    L2: int = 1000
    L_later: int = 200

    def __post_init__(self):
        _check_counts(self, "L1", "L2", "L_later")


@dataclass(frozen=True)
class IterationRecord:
    """One golfing attempt: schedule used, outcome, and post-state norms."""

    index: int
    phase: str  # "fine" or "coarse"
    L: int
    t: float
    c: float
    xi: bool
    truncated_terms: int
    q_norm: float
    complement_norm: float


#: bound on ||P_Tperp(Y)||_inf that a dual certificate must meet
_COMPLEMENT_BOUND = 0.5


def _tangent_bound(dist: MaskDistribution, d: int) -> float:
    """Bound nu / (4 b^2 sqrt(d)) on ||P_T(Y) - X||_2 for a dual certificate."""
    return dist.nu / (4.0 * dist.b**2 * math.sqrt(d))


def _truncate(anchor_vals: np.ndarray, anchor_norm: float, b: float, gamma: float) -> np.ndarray:
    """Keep mask of |tr(F_{k,l} anchor)| <= 2^{3/2} b^2 gamma log(d) ||anchor||_2
    (boundary kept), from the anchor's real (L, d) forward values and its
    Frobenius norm: R_Q's truncation in golfing, and the event that
    ``truncation_statistics`` counts.
    """
    d = anchor_vals.shape[1]
    threshold = 2.0**1.5 * b**2 * gamma * math.log(d) * anchor_norm
    return np.abs(anchor_vals) <= threshold


_Schedule = namedtuple("_Schedule", "gamma r w t_first c_first t_later c_later")


def _schedule(d: int, dist: MaskDistribution) -> _Schedule:
    """The golfing schedule at dimension d for the law's (b, nu).

    Truncation rate gamma = 8 + log2(b^2/nu) (``truncation_rate``),
    r = ceil(log2(d)/2) + ceil(log2(b^2/nu)) + 1 coarse successes within
    w = 10 r attempts, with log2(b^2/nu) read off gamma as gamma - 8, fine
    thresholds t = 1/8 and c = 1/sqrt(2 log d), coarse thresholds
    t = log(d)/4 and c = 1/2.
    """
    gamma = truncation_rate(dist)
    r = math.ceil(math.log2(d) / 2) + math.ceil(gamma - 8.0) + 1
    return _Schedule(
        gamma=gamma,
        r=r,
        w=10 * r,
        t_first=0.125,
        c_first=1.0 / math.sqrt(2.0 * math.log(d)),
        t_later=math.log(d) / 4.0,
        c_later=0.5,
    )


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Golfing output Y with its diagnostics and range-membership witness.

    ``in_range_witness`` holds coefficients c over the union mask set with
    Y = A*(c) (the union frame is ``masks``).  ``passed`` is the conjunction
    of the two certificate bounds; golfing's certificate holds its own
    running norms, ``verify_certificate``'s those rebuilt from the witness.
    """

    Y: np.ndarray
    tangent_residual: float
    complement_norm: float
    construction_log: tuple[IterationRecord, ...]
    in_range_witness: np.ndarray
    masks: MaskSet
    anchor: np.ndarray
    gamma: float

    @property
    def tangent_bound(self) -> float:
        return _tangent_bound(self.masks.distribution, self.masks.d)

    @property
    def tangent_ok(self) -> bool:
        return self.tangent_residual <= self.tangent_bound

    @property
    def complement_ok(self) -> bool:
        return self.complement_norm <= _COMPLEMENT_BOUND

    @property
    def passed(self) -> bool:
        return self.tangent_ok and self.complement_ok


@dataclass(frozen=True)
class GolfingFailure:
    reason: str
    construction_log: tuple[IterationRecord, ...]
    masks_sampled: int


def format_construction_log(log) -> str:
    """One line per attempt: i, phase, L, t, c, xi, ||Q||_2, ||Y_Tperp||_inf.

    The four reals are printed to 12 significant digits, so a log does not
    change with roundoff-level changes of the arithmetic behind it.
    """
    lines = ["i phase L t c xi q_norm complement_norm"]
    for rec in log:
        lines.append(
            f"{rec.index} {rec.phase} {rec.L} {rec.t:.12g} {rec.c:.12g} "
            f"{int(rec.xi)} {rec.q_norm:.12g} {rec.complement_norm:.12g}"
        )
    return "\n".join(lines)


def golfing_construct(
    x, dist: MaskDistribution, params: GolfingParams | None = None, seed: int = 0
):
    """Construct an approximate dual certificate by the golfing scheme.

    Starting from Q_0 = X = x x*, each iteration samples a fresh mask batch,
    applies the truncated Gram operator anchored at the current Q, and accepts
    the iteration only if both schedule conditions hold:

        ||P_Tperp(R_Q(Q) - tr(Q) Id)||_inf <= t ||Q||_2
        ||P_T(R_Q(Q) - Q - tr(Q) Id)||_2  <= c ||Q||_2

    The first two (fine) iterations abort the construction on failure; coarse
    iterations retry until r successes or w attempts.  On acceptance
    Y += R_Q(Q) - tr(Q) Id and Q = X - P_T(Y), which contracts ||Q||_2 by the
    accepted c.  ``params`` sets the mask batch sizes; gamma, r, w, t and c
    come from ``_schedule``.  Returns a DualCertificate on success, otherwise
    a GolfingFailure carrying the full construction log.

    Each attempt's batch holds the entries ``sample_masks(dist, d, L_i, s_i)``
    would hold, s_i the next ``integers(2**63)`` of ``default_rng(seed)``,
    drawn without the per-batch support validation; the union MaskSet of the
    accepted batches validates them.  The batch's offset blocks are built
    once: they give Q's forward values, which also set the truncation, and
    A* of the kept ones, which runs on offsets 0..d//2 only, its output
    Hermitian by construction.
    P_T is linear, so P_T(Y) is the running sum of the accepted candidates'
    projections.

    An attempt is decided in this order: the c test, a Frobenius norm; then
    the t test by its bound ||.||_inf <= ||.||_F, which accepts when the
    Frobenius norm of the complement part is within t ||Q||_2 less a relative
    1e-12 (the eigenvalue solver's roundoff, so the bound never accepts what
    the spectrum would reject); and only when the bound cannot decide, the
    complement part's eigenvalues.  The logged ``complement_norm``s,
    ||Y - P_T(Y)||_inf after each acceptance, come from one batched
    eigendecomposition of those matrices when the construction ends, on
    success and failure alike.
    """
    _check_type("dist", dist, MaskDistribution)
    if params is None:
        params = GolfingParams()
    _check_type("params", params, GolfingParams)
    _check_seed(seed)
    x = as_signal(x)
    d = x.size
    if d < 3 or d % 2 == 0:
        raise ValueError("golfing requires odd signal dimension d >= 3")
    tangent = TangentSpace(x)
    p = _schedule(d, dist)

    X = np.outer(x, x.conj())
    Q = X
    Y = np.zeros((d, d), dtype=complex)
    Y_T = Y  # P_T(Y), accumulated: P_T is linear
    beta = 0.0
    rng = np.random.default_rng(seed)
    # each record's fields but complement_norm, then the acceptances so far
    rows: list[tuple] = []
    complements: list[np.ndarray] = []  # Y - P_T(Y) after each acceptance
    accepted: list[tuple[np.ndarray, np.ndarray]] = []  # (epsilon, flat witness coeffs)
    masks_sampled = 0
    diagonal = np.diag_indices(d)

    def attempt(index: int, phase: str, L_i: int, t_i: float, c_i: float) -> bool:
        nonlocal Q, Y, Y_T, beta, masks_sampled
        q_prev_norm = float(np.linalg.norm(Q))
        eps = _draw_entries(dist, np.random.default_rng(int(rng.integers(2**63))), (L_i, d))
        masks_sampled += L_i
        blocks = _offset_blocks(eps)
        vals = _apply_A_any(blocks, Q)
        keep = _truncate(vals, q_prev_norm, dist.b, p.gamma)
        ntrunc = keep.size - np.count_nonzero(keep)
        coeffs = vals * keep / (dist.nu**2 * d * L_i)
        candidate = _apply_A_adjoint_any(blocks, coeffs)
        trace_q = float(np.trace(Q).real)
        candidate[diagonal] -= trace_q  # R_Q(Q) - tr(Q) Id
        candidate_T = tangent._project(candidate)
        complement = candidate - candidate_T  # P_Tperp = I - P_T
        t_bound = t_i * q_prev_norm
        xi = float(np.linalg.norm(candidate_T - Q)) <= c_i * q_prev_norm and (
            float(np.linalg.norm(complement)) <= t_bound * (1.0 - 1e-12)
            or _norm(complement, "operator") <= t_bound
        )
        if xi:
            beta += trace_q
            Y = Y + candidate
            Y_T = Y_T + candidate_T
            Q = X - Y_T
            accepted.append((eps, coeffs.reshape(-1)))
            complements.append(Y - Y_T)
        rows.append((index, phase, L_i, t_i, c_i, xi, ntrunc, float(np.linalg.norm(Q)),
                     len(complements)))
        return xi

    def construction_log() -> tuple[IterationRecord, ...]:
        norms = [0.0]  # before the first acceptance
        if complements:
            lam = np.linalg.eigvalsh(np.stack(complements))
            norms += [float(v) for v in np.max(np.abs(lam), axis=1)]
        return tuple(IterationRecord(*fields, norms[n]) for *fields, n in rows)

    if not attempt(1, "fine", params.L1, p.t_first, p.c_first):
        return GolfingFailure("first fine iteration failed", construction_log(), masks_sampled)
    if not attempt(2, "fine", params.L2, p.t_first, p.c_first):
        return GolfingFailure("second fine iteration failed", construction_log(), masks_sampled)
    successes = 0
    attempts = 0
    while successes < p.r and attempts < p.w:
        attempts += 1
        if attempt(2 + attempts, "coarse", params.L_later, p.t_later, p.c_later):
            successes += 1
    if successes < p.r:
        return GolfingFailure(
            f"only {successes}/{p.r} coarse successes within w = {p.w} attempts",
            construction_log(),
            masks_sampled,
        )

    eps_union = np.vstack([eps for eps, _ in accepted])
    union = MaskSet(epsilon=eps_union, distribution=dist)
    witness = np.concatenate([c for _, c in accepted])
    # fold the accumulated -beta * Id into frame coefficients: since
    # sum_k F_{k,l} = d * D_l^2, adding alpha_l to all d coordinates of mask l
    # contributes diag(d * sum_l alpha_l eps_{l,i}^2); alpha comes from the
    # d x d pattern Gram, which is the union's offset-0 Gram H_0
    witness += np.repeat(_identity_fold(eps_union, beta), d)
    log = construction_log()

    return DualCertificate(
        Y=Y,
        tangent_residual=float(np.linalg.norm(Y_T - X)),
        complement_norm=log[-1].complement_norm,
        construction_log=log,
        in_range_witness=witness,
        masks=union,
        anchor=tangent.anchor,
        gamma=p.gamma,
    )


def _identity_fold(eps: np.ndarray, beta: float) -> np.ndarray:
    """Min-norm alpha over the masks with sum_l alpha_l eps_l^2 = -beta/d * 1.

    With the patterns P[l, a] = eps_{l,a}^2, the min-norm solution of
    P^T alpha = target is alpha = P V Lambda^{-1} V^T target, from the
    eigendecomposition V Lambda V^T of the d x d Gram P^T P (the offset-0
    Gram H_0 = E_0^T E_0 of the masks, ``_offset_gram`` of P alone),
    dropping directions whose eigenvalue is zero to roundoff.  A target with a part outside range(P^T) leaves a
    residual, and a residual beyond 1e-8 relative raises RuntimeError.
    """
    d = eps.shape[1]
    patterns = eps**2  # (L, d)
    target = np.full(d, -beta / d)
    lam, V = np.linalg.eigh(_offset_gram(patterns[None])[0])
    kept = lam > d * np.finfo(float).eps * lam[-1]
    V = V[:, kept]
    alpha = patterns @ (V @ ((V.T @ target) / lam[kept]))
    residual = float(np.linalg.norm(patterns.T @ alpha - target))
    if residual > 1e-8 * max(abs(beta) / d, 1e-12):
        raise RuntimeError(
            "union mask diagonal patterns do not span the identity component "
            f"(residual {residual:.3e}); cannot express Y in range(A*)"
        )
    return alpha


# ---------------------------------------------------------------------------
# certificate verification and the optimality verdict


class CertificateIntegrityError(Exception):
    """The witness does not reproduce the certificate matrix."""


def _check_instance(x, frame: MeasurementFrame, name: str, built) -> None:
    """ValueError unless x is ``built.anchor`` (to ``ANCHOR_TOL``) and ``frame`` holds its masks."""
    anchor, masks = built.anchor, built.masks
    if x.shape != anchor.shape or float(np.linalg.norm(x - anchor)) > ANCHOR_TOL:
        raise ValueError(f"x is not the anchor the {name} was built for")
    if frame.masks is not masks and not np.array_equal(frame.masks.epsilon, masks.epsilon):
        raise ValueError(f"frame does not hold the masks the {name} was built on")


def verify_certificate(
    cert: DualCertificate, x, frame: MeasurementFrame | None = None
) -> DualCertificate:
    """The certificate rebuilt from scratch via its witness.

    Y is rebuilt as A*(witness) over the union frame; a deviation beyond 1e-8
    from the stored matrix raises CertificateIntegrityError.  The returned
    certificate carries the rebuilt Y and both norms recomputed from it.  As
    in ``certify_optimality``, another anchor or frame raises ValueError.
    """
    _check_type("cert", cert, DualCertificate)
    x = as_signal(x)
    frame = frame if frame is not None else MeasurementFrame(cert.masks)
    _check_type("frame", frame, MeasurementFrame)
    _check_instance(x, frame, "certificate", cert)
    Y_rec = apply_A_adjoint(frame, cert.in_range_witness)
    scale = max(float(np.linalg.norm(cert.Y)), 1.0)
    if float(np.linalg.norm(Y_rec - cert.Y)) > 1e-8 * scale:
        raise CertificateIntegrityError(
            "witness-reconstructed Y deviates from the stored certificate"
        )
    Y_T = TangentSpace(x).project(Y_rec)
    return replace(
        cert,
        Y=Y_rec,
        tangent_residual=float(np.linalg.norm(Y_T - np.outer(x, x.conj()))),
        complement_norm=norm(Y_rec - Y_T, "operator"),
    )


@dataclass(frozen=True)
class OptimalityVerdict:
    certified: bool
    failing_hypotheses: tuple[str, ...]


def certify_optimality(
    x, frame: MeasurementFrame, cert: DualCertificate, injectivity: InjectivityReport
) -> OptimalityVerdict:
    """Conjunction verdict: passing dual certificate + passing injectivity.

    When both hypotheses hold, X = x x* is the unique optimum of the lifted
    program for this mask realization; no further computation is involved —
    the verdict simply names any failing hypothesis.  Pass the certificate
    ``verify_certificate`` rebuilt, so the verdict reads the norms recomputed
    from the witness rather than the ones golfing stored.  The verdict is only
    meaningful when the certificate and the injectivity report were both
    computed for ``x`` and for ``frame``'s masks: each one's anchor must match
    ``x`` within ``ANCHOR_TOL`` and its masks must be ``frame``'s (the
    same MaskSet, or equal mask entries); otherwise ValueError.
    """
    x = as_signal(x)
    _check_type("frame", frame, MeasurementFrame)
    _check_type("cert", cert, DualCertificate)
    _check_type("injectivity", injectivity, InjectivityReport)
    _check_instance(x, frame, "certificate", cert)
    _check_instance(x, frame, "injectivity report", injectivity)
    failing = [name for name, ok in (
        ("dual certificate tangent bound ||Y_T - X||_2", cert.tangent_ok),
        ("dual certificate complement bound ||Y_Tperp||_inf", cert.complement_ok),
        ("robust injectivity quarter bound", injectivity.passes_quarter_bound),
    ) if not ok]
    return OptimalityVerdict(certified=not failing, failing_hypotheses=tuple(failing))
