"""Executable certification of the recovery guarantee's proof ingredients.

Each operation here turns one piece of the guarantee machinery into a
numerical check on concrete mask realizations:

* moment validation of a mask distribution (exact rational arithmetic;
  defined in ``cdplift.diffraction``, where every MaskDistribution runs it,
  and re-exported here);
* exact near-isotropy of the expected Gram operator, E[R](Z) = Z + tr(Z)*Id,
  and the companion 2-design identity
  (1/nu^2 d) sum_k E[F_k tensor F_k] = Id + SWAP, both by full enumeration
  of the finite mask distribution and both read off probability-weighted
  Grams of paired mask entries: difference pairs (a, a+m) give the offset
  Grams sum p E_m^T E_m, sum pairs (a, s-a) the 2-design's d x d blocks;
* the restricted-spectrum injectivity check: 1 + lambda_min(P_T (R - E[R]) P_T)
  must exceed 1/4 for the measurements to separate tangent directions; R
  enters through the frame's offset Grams E_m^T E_m, one batched product;
* truncation-event statistics against the 4 d^{-gamma} tail bound;
* per-mask variance bounds (30 and 60 times b^8/nu^4), every mask's M(Z)
  built at once from the offset contraction E_m z_m;
* the golfing scheme: an iterative, resampled construction of an approximate
  dual certificate Y in range(A*), with the full construction log and an
  explicit witness vector; and the deterministic re-verification of such a
  certificate;
* the final optimality verdict, which is the conjunction of a valid
  certificate and a passing injectivity report — nothing more is computed,
  matching the logic of the guarantee — and which rejects an anchor or a
  frame other than the ones the certificate and the injectivity report were
  computed for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffraction import (
    MaskDistribution,
    MaskSet,
    MeasurementFrame,
    MomentReport,
    _apply_A_adjoint_any,
    _contract,
    _offset_blocks,
    _offset_gram,
    _offset_index,
    _truncate,
    apply_A,  # noqa: F401  (bound here too; the benchmark's tracer wraps every site)
    apply_A_adjoint,
    sample_masks,
    truncation_rate,
    validate_moments,
)
from .hermitian import TangentSpace, as_hermitian, as_signal, hermitize, norm
from .policy import POLICY

__all__ = [
    "MomentReport",
    "InjectivityReport",
    "GolfingParams",
    "IterationRecord",
    "DualCertificate",
    "GolfingFailure",
    "CertificateCheck",
    "CertificateIntegrityError",
    "OptimalityVerdict",
    "TruncationStats",
    "VarianceCheck",
    "validate_moments",
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


def _enumerate_masks(dist: MaskDistribution, d: int, chunk: int = 4096):
    """Yield (eps, prob) chunks covering every mask realization exactly once."""
    s = len(dist.support)
    total = s**d
    support = np.asarray(dist.support)
    probs = np.asarray(dist.probabilities)
    radix = s ** np.arange(d)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        digits = (idx[:, None] // radix[None, :]) % s
        yield support[digits], probs[digits].prod(axis=1)


def _enumeration_size(dist: MaskDistribution, d: int, budget: int) -> int:
    total = len(dist.support) ** d
    if total > budget:
        raise ValueError(
            f"enumeration of {total} mask realizations exceeds budget {budget}"
        )
    return total


def _pair_gram_deviation(
    dist: MaskDistribution, d: int, budget: int, partner: np.ndarray, target: np.ndarray
) -> float:
    """Max entry of |sum_n p_n P_j^T P_j / nu^2 - target[j]| over pair index j.

    ``partner[j, a]`` pairs column a with column partner[j, a]: block j of
    the masks is P_j[n, a] = eps_{n,a} eps_{n,partner[j,a]} (``_offset_blocks``),
    and its Gram weighted by the exact probabilities p (``_offset_gram``) is
    accumulated over every mask realization, enumerated afresh on each call
    within ``budget``.

    Difference pairs (a, a+m) give the offset Grams H_m of near-isotropy;
    sum pairs (a, s-a) give the 2-design Grams G_s.  The two are one array
    read two ways, G_s[a, b] = H_{(s-a-b) mod d}[a, b], and their targets
    delta_ab + [m = 0] and delta_ab + [a+b = s mod d] coincide under the
    same relabeling, so both checks return the same deviation up to roundoff.
    """
    _enumeration_size(dist, d, budget)
    gram = np.zeros((d, d, d))
    for eps, p in _enumerate_masks(dist, d):
        gram += _offset_gram(_offset_blocks(eps, partner), p)
    return float(np.max(np.abs(gram / dist.nu**2 - target)))


def check_near_isotropy_exact(dist: MaskDistribution, d: int, budget: int = 10**6) -> float:
    """Max entry deviation of the exact E[R] from Z -> Z + tr(Z)*Id.

    Enumerates every mask realization with its exact probability p and
    accumulates the offset Grams sum p E_m^T E_m over them.  E[R] acts on
    offset m as that sum over nu^2, and the target acts as I at every offset
    plus the all-ones matrix at offset 0 (tr(Z) = 1^T z_0, and Id sits on
    offset 0).  Entry (a, i) of offset m is entry (a, a+m) of E[R](E_{i,i+m})
    less its target, so the result equals the largest entry deviation of
    E[R](E_ij) from E_ij + delta_ij * Id over all standard basis matrices.
    For odd d the deviation is roundoff-level; even d genuinely breaks the
    identity and the returned deviation records by how much.
    """
    target = np.tile(np.eye(d), (d, 1, 1))
    target[0] += 1.0
    return _pair_gram_deviation(dist, d, budget, _offset_index(d)[1], target)


def check_two_design_exact(dist: MaskDistribution, d: int, budget: int = 10**6) -> float:
    """Max entry deviation of (1/nu^2 d) sum_k E[F_k tensor F_k] from 2 P_sym.

    With u = D f_k, entry ((a,c),(b,e)) of the left side is
    (1/nu^2 d) sum_k E[eps_a eps_c eps_b eps_e] omega^{k(a+c-b-e)}, so the
    sum over k leaves E[eps_a eps_c eps_b eps_e] / nu^2 on the pattern
    a + c = b + e (mod d) and exact zeros off it, where 2 P_sym = I + SWAP
    vanishes too.  On the pattern, with s = a + c, it is the sum-pair Gram
    G_s = S_s^T diag(p) S_s of S_s[n, a] = eps_{n,a} eps_{n,s-a}, over nu^2,
    and I + SWAP reads delta_ab + [b = s-a mod d].
    """
    a = np.arange(d)
    partner = (a[:, None] - a[None, :]) % d  # partner[s, a] = s - a
    target = np.eye(d) + (partner[:, :, None] == a)
    return _pair_gram_deviation(dist, d, budget, partner, target)


# ---------------------------------------------------------------------------
# robust injectivity


@dataclass(frozen=True, eq=False)
class InjectivityReport:
    """The injectivity spectrum's verdict, bound to the anchor and masks it read."""

    lambda_min_restricted: float
    passes_quarter_bound: bool
    upper_bound_margin: float
    anchor: np.ndarray
    masks: MaskSet


def injectivity_spectrum(
    frame: MeasurementFrame, x, seed: int = 0, probes: int = 100
) -> InjectivityReport:
    """Spectrum of the tangent-restricted deviation operator P_T(R - E[R])P_T.

    In an orthonormal basis B_beta of T the operator's matrix is
    M = <B_alpha, R(B_beta)> - <B_alpha, B_beta> - t_alpha t_beta with
    t = tr(B): E[R] is taken analytically as Z + tr(Z)*Id (the near-isotropy
    identity), and only R touches the sampled masks.  R acts on offset m as
    H_m / (nu^2 L) with the offset Grams H_m = E_m^T E_m, so its part is
    Re sum_m b_alpha,m^* H_m b_beta,m / (nu^2 L) over the basis elements'
    offset vectors, from one Gram of the frame's blocks.  The report also
    carries the worst-case margin of the deterministic upper bound
    b^4 d ||Z||_2^2 - (1/dL)||A(Z)||^2 over ``probes`` random Hermitian Z,
    which must never be negative.  By Parseval over the frequencies k,
    (1/dL)||A(Z)||^2 = (1/L) sum_m ||E_m z_m||^2, so each offset takes one
    real product of E_m with the probes' offset vectors; the probes contract
    the blocks directly and never read H, so they stay independent of the
    spectrum's path.
    """
    if probes < 0:
        raise ValueError(f"probes must be >= 0, got {probes}")
    x = as_signal(x)
    basis = TangentSpace(x).basis()
    dim = basis.shape[0]
    d = frame.d
    dist = frame.distribution
    offsets = basis[(slice(None), *_offset_index(d))].transpose(1, 2, 0)  # b[m, a, beta]
    H = _offset_gram(frame.blocks)
    scale = 1.0 / (dist.nu**2 * frame.L) if frame.L else 0.0
    M = (offsets.conj().transpose(0, 2, 1) @ (H @ offsets)).real.sum(axis=0) * scale
    pairs = basis.reshape(dim, -1).view(float)  # Re<B_alpha, B_beta> = pairs @ pairs.T
    traces = np.trace(basis, axis1=1, axis2=2).real
    M -= pairs @ pairs.T + np.outer(traces, traces)
    M = (M + M.T) / 2.0
    lam_min = float(np.linalg.eigvalsh(M)[0])

    draws = np.random.default_rng(seed).standard_normal((probes, 2, d, d))
    Z = hermitize(draws[:, 0] + 1j * draws[:, 1])
    z = Z[(slice(None), *_offset_index(d))]  # z[probe, m, a]
    pairs = np.ascontiguousarray(np.concatenate([z.real, z.imag]).transpose(1, 0, 2))
    energy = np.zeros(2 * probes)
    for E_m, pair_m in zip(frame.blocks, pairs):
        image = pair_m @ E_m.T  # row j: E_m applied to the real or imaginary part of probe j
        energy += np.einsum("jl,jl->j", image, image)
    energy = (energy[:probes] + energy[probes:]) * (1.0 / frame.L if frame.L else 0.0)
    z2 = np.square(np.abs(Z)).sum(axis=(1, 2))
    margin = np.min(dist.b**4 * d * z2 - energy, initial=np.inf)
    return InjectivityReport(
        lambda_min_restricted=lam_min,
        passes_quarter_bound=bool(1.0 + lam_min > 0.25),
        upper_bound_margin=float(margin),
        anchor=x,
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

    The boundary |tr| == threshold counts as inside the good event (not
    exceeded); in particular Z = 0 never triggers anything.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    Z = as_hermitian(Z)
    sigma = np.linalg.svd(Z, compute_uv=False)
    if sigma.size > 2 and sigma[2] > POLICY.rank_rel_tol * max(sigma[0], 1e-300):
        raise ValueError("Z must lie in a tangent space (rank <= 2)")
    keep, _ = _truncate(frame.blocks, frame.distribution.b, gamma, Z)
    total = int(keep.size)
    exceed = total - int(keep.sum())
    return TruncationStats(
        empirical_prob=exceed / total if total else 0.0,
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
    method: str
    n_terms: int

    @property
    def satisfied(self) -> bool:
        return self.lhs_operator <= self.rhs_operator and self.lhs_trace <= self.rhs_trace


def variance_bound_check(
    dist: MaskDistribution,
    x,
    Z,
    budget: int = 10**6,
    mc_samples: int = 10**4,
    seed: int = 0,
) -> VarianceCheck:
    """Second-moment bounds on the single-mask operator M(Z).

    With M(Z) = (1/nu^2 d) sum_k tr(F_k Z) F_k for one mask, computes
    ||E[M(Z)^2]||_inf and tr(E[(P_T M(Z))^2]) and compares them against
    30 b^8/nu^4 ||Z||_2^2 and 60 b^8/nu^4 ||Z||_2^2.  Expectation is exact by
    enumeration while |support|^d fits the budget, otherwise Monte-Carlo with
    ``mc_samples`` masks.  Masks are taken in chunks: each chunk's M(Z) comes
    from one contraction, is squared by one batched product, and its tangent
    part's norm is read from M x alone.
    """
    x = as_signal(x)
    tangent = TangentSpace(x)
    Z = as_hermitian(Z)
    d = x.size
    if Z.shape[0] != d:
        raise ValueError("Z dimension does not match anchor")
    if not tangent.contains(Z):
        raise ValueError("Z must lie in the tangent space of the anchor")

    exact = len(dist.support) ** d <= budget
    if exact:
        batches = _enumerate_masks(dist, d)
        method = "exact_enumeration"
    else:
        rng = np.random.default_rng(seed)
        samples = rng.choice(np.asarray(dist.support), size=(mc_samples, d),
                             p=np.asarray(dist.probabilities))
        weights = np.full(mc_samples, 1.0 / mc_samples)
        batches = [(samples[i : i + 4096], weights[i : i + 4096])
                   for i in range(0, mc_samples, 4096)]
        method = "monte_carlo"

    # offset m of mask n's M(Z) is E_m[n, a] s[m, n] / nu^2 with s[m] = E_m z_m;
    # for unit x and Hermitian M, ||P_T M||_2^2 = 2 ||M x||^2 - (x* M x)^2
    index = _offset_index(d)
    z = Z[index]
    second_moment = np.zeros((d, d), dtype=complex)
    trace_acc = 0.0
    n_terms = 0
    for eps, p in batches:
        blocks = _offset_blocks(eps)
        s = _contract(blocks, z)
        M = np.empty((eps.shape[0], d, d), dtype=complex)
        M[(slice(None), *index)] = (blocks * s[:, :, None]).transpose(1, 0, 2) / dist.nu**2
        M = hermitize(M)
        second_moment += np.tensordot(p, M @ M, axes=1)
        Mx = M @ x
        tangent_sq = 2.0 * np.sum(np.abs(Mx) ** 2, axis=1) - (Mx @ x.conj()).real ** 2
        trace_acc += float(p @ tangent_sq)
        n_terms += eps.shape[0]

    z2 = float(np.linalg.norm(Z)) ** 2
    rhs_base = dist.b**8 / dist.nu**4 * z2
    return VarianceCheck(
        lhs_operator=norm(second_moment, "operator"),
        rhs_operator=30.0 * rhs_base,
        lhs_trace=trace_acc,
        rhs_trace=60.0 * rhs_base,
        method=method,
        n_terms=n_terms,
    )


# ---------------------------------------------------------------------------
# golfing scheme


@dataclass(frozen=True)
class GolfingParams:
    """Schedule parameters for the golfing construction.

    ``None`` fields resolve at construction time to the canonical schedule:
    gamma = 8 + log2(b^2/nu), r = ceil(log2(d)/2) + ceil(log2(b^2/nu)) + 1,
    w = ceil(10 * omega * r), c_first = 1/sqrt(2 log d), t_later = log(d)/4.
    Batch sizes default to pilot-calibrated desk-scale values; the paper's
    absolute constants are not numeric.
    """

    omega: float = 1.0
    gamma: float | None = None
    r: int | None = None
    w: int | None = None
    L1: int = 1000
    L2: int = 1000
    L_later: int = 200
    t_first: float = 0.125
    c_first: float | None = None
    t_later: float | None = None
    c_later: float = 0.5

    def __post_init__(self):
        if self.omega < 1:
            raise ValueError("omega must be >= 1")
        if self.gamma is not None and self.gamma < 1:
            raise ValueError("gamma must be >= 1")

    def resolve(self, d: int, dist: MaskDistribution) -> "ResolvedGolfingParams":
        mass_ratio = round(math.log2(dist.b**2 / dist.nu), 12)
        r = self.r if self.r is not None else math.ceil(math.log2(d) / 2) + math.ceil(mass_ratio) + 1
        return ResolvedGolfingParams(
            omega=self.omega,
            gamma=self.gamma if self.gamma is not None else truncation_rate(dist),
            r=r,
            w=self.w if self.w is not None else math.ceil(10 * self.omega * r),
            L1=self.L1,
            L2=self.L2,
            L_later=self.L_later,
            t_first=self.t_first,
            c_first=self.c_first if self.c_first is not None else 1.0 / math.sqrt(2.0 * math.log(d)),
            t_later=self.t_later if self.t_later is not None else math.log(d) / 4.0,
            c_later=self.c_later,
        )


@dataclass(frozen=True)
class ResolvedGolfingParams:
    omega: float
    gamma: float
    r: int
    w: int
    L1: int
    L2: int
    L_later: int
    t_first: float
    c_first: float
    t_later: float
    c_later: float


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


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Golfing output Y with its diagnostics and range-membership witness.

    ``in_range_witness`` holds coefficients c over the union mask set with
    Y = A*(c) (the union frame is ``masks``); ``valid`` is the conjunction of
    the two certificate bounds.
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
    def complement_bound(self) -> float:
        return _COMPLEMENT_BOUND

    @property
    def valid(self) -> bool:
        return (
            self.tangent_residual <= self.tangent_bound
            and self.complement_norm <= self.complement_bound
        )


@dataclass(frozen=True)
class GolfingFailure:
    reason: str
    construction_log: tuple[IterationRecord, ...]
    masks_sampled: int


def format_construction_log(log) -> str:
    """One line per attempt: i, phase, L, t, c, xi, ||Q||_2, ||Y_Tperp||_inf."""
    lines = ["i phase L t c xi q_norm complement_norm"]
    for rec in log:
        lines.append(
            f"{rec.index} {rec.phase} {rec.L} {rec.t!r} {rec.c!r} "
            f"{int(rec.xi)} {rec.q_norm!r} {rec.complement_norm!r}"
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
    accepted c.  Returns a DualCertificate on success, otherwise a
    GolfingFailure carrying the full construction log.
    """
    x = as_signal(x)
    d = x.size
    if d < 3 or d % 2 == 0:
        raise ValueError("golfing requires odd signal dimension d >= 3")
    if abs(float(np.linalg.norm(x)) - 1.0) > POLICY.anchor_tol:
        raise ValueError("anchor must be unit-norm")
    p = (params or GolfingParams()).resolve(d, dist)

    tangent = TangentSpace(x)
    X = np.outer(x, x.conj())
    Q = X.copy()
    Y = np.zeros((d, d), dtype=complex)
    beta = 0.0
    rng = np.random.default_rng(seed)
    log: list[IterationRecord] = []
    accepted: list[tuple[np.ndarray, np.ndarray]] = []  # (epsilon, flat witness coeffs)
    masks_sampled = 0
    complement_now = 0.0

    def attempt(index: int, phase: str, L_i: int, t_i: float, c_i: float) -> bool:
        nonlocal Q, Y, beta, masks_sampled, complement_now
        q_prev_norm = float(np.linalg.norm(Q))
        if L_i < 1:
            log.append(IterationRecord(index, phase, L_i, t_i, c_i, False, 0,
                                       q_prev_norm, complement_now))
            return False
        masks = sample_masks(dist, d, L_i, int(rng.integers(2**63)))
        masks_sampled += L_i
        eps = masks.epsilon
        blocks = _offset_blocks(eps)
        keep, kept = _truncate(blocks, dist.b, p.gamma, Q)
        ntrunc = int(keep.size - keep.sum())
        coeffs = kept / (dist.nu**2 * d * L_i)
        RQ = hermitize(_apply_A_adjoint_any(blocks, coeffs))
        candidate = RQ - float(np.trace(Q).real) * np.eye(d)
        dev_inf = norm(tangent.project_complement(candidate), "operator")
        dev_two = float(np.linalg.norm(tangent.project(candidate) - Q))
        xi = dev_inf <= t_i * q_prev_norm and dev_two <= c_i * q_prev_norm
        if xi:
            beta += float(np.trace(Q).real)
            Y = hermitize(Y + candidate)
            Q = hermitize(X - tangent.project(Y))
            accepted.append((eps, coeffs.reshape(-1)))
            complement_now = norm(tangent.project_complement(Y), "operator")
        log.append(IterationRecord(index, phase, L_i, t_i, c_i, xi, ntrunc,
                                   float(np.linalg.norm(Q)), complement_now))
        return xi

    if not attempt(1, "fine", p.L1, p.t_first, p.c_first):
        return GolfingFailure("first fine iteration failed", tuple(log), masks_sampled)
    if not attempt(2, "fine", p.L2, p.t_first, p.c_first):
        return GolfingFailure("second fine iteration failed", tuple(log), masks_sampled)
    successes = 0
    attempts = 0
    while successes < p.r and attempts < p.w:
        attempts += 1
        if attempt(2 + attempts, "coarse", p.L_later, p.t_later, p.c_later):
            successes += 1
    if successes < p.r:
        return GolfingFailure(
            f"only {successes}/{p.r} coarse successes within w = {p.w} attempts",
            tuple(log),
            masks_sampled,
        )

    eps_union = np.vstack([eps for eps, _ in accepted])
    union = MaskSet(epsilon=eps_union, distribution=dist, seed=None)
    witness = np.concatenate([c for _, c in accepted])
    # fold the accumulated -beta * Id into frame coefficients: since
    # sum_k F_{k,l} = d * D_l^2, adding alpha_l to all d coordinates of mask l
    # contributes diag(d * sum_l alpha_l eps_{l,i}^2)
    patterns = eps_union**2  # (L_total, d)
    target = np.full(d, -beta / d)
    alpha, *_ = np.linalg.lstsq(patterns.T, target, rcond=None)
    residual = float(np.linalg.norm(patterns.T @ alpha - target))
    if residual > 1e-8 * max(abs(beta) / d, 1e-12):
        raise RuntimeError(
            "union mask diagonal patterns do not span the identity component "
            f"(residual {residual:.3e}); cannot express Y in range(A*)"
        )
    witness += np.repeat(alpha, d)

    return DualCertificate(
        Y=Y,
        tangent_residual=float(np.linalg.norm(tangent.project(Y) - X)),
        complement_norm=norm(tangent.project_complement(Y), "operator"),
        construction_log=tuple(log),
        in_range_witness=witness,
        masks=union,
        anchor=x,
        gamma=p.gamma,
    )


# ---------------------------------------------------------------------------
# certificate verification and the optimality verdict


class CertificateIntegrityError(Exception):
    """The witness does not reproduce the certificate matrix."""


@dataclass(frozen=True)
class CertificateCheck:
    tangent_residual: float
    complement_norm: float
    tangent_bound: float
    complement_bound: float
    tangent_ok: bool
    complement_ok: bool

    @property
    def passed(self) -> bool:
        return self.tangent_ok and self.complement_ok


def verify_certificate(
    cert: DualCertificate, x, frame_union: MeasurementFrame | None = None
) -> CertificateCheck:
    """Recompute the certificate bounds from scratch via the witness.

    Y is rebuilt as A*(witness) over the union frame; a deviation beyond 1e-8
    from the stored matrix raises CertificateIntegrityError.  Both norms are
    then recomputed from the rebuilt matrix.
    """
    x = as_signal(x)
    frame = frame_union if frame_union is not None else MeasurementFrame(cert.masks)
    Y_rec = apply_A_adjoint(frame, np.asarray(cert.in_range_witness, dtype=float))
    scale = max(float(np.linalg.norm(cert.Y)), 1.0)
    if float(np.linalg.norm(Y_rec - cert.Y)) > 1e-8 * scale:
        raise CertificateIntegrityError(
            "witness-reconstructed Y deviates from the stored certificate"
        )
    tangent = TangentSpace(x)
    X = np.outer(x, x.conj())
    tangent_residual = float(np.linalg.norm(tangent.project(Y_rec) - X))
    complement_norm = norm(tangent.project_complement(Y_rec), "operator")
    t_bound = _tangent_bound(frame.distribution, frame.d)
    return CertificateCheck(
        tangent_residual=tangent_residual,
        complement_norm=complement_norm,
        tangent_bound=t_bound,
        complement_bound=_COMPLEMENT_BOUND,
        tangent_ok=tangent_residual <= t_bound,
        complement_ok=complement_norm <= _COMPLEMENT_BOUND,
    )


@dataclass(frozen=True)
class OptimalityVerdict:
    certified: bool
    failing_hypotheses: tuple[str, ...]


def certify_optimality(
    x, frame: MeasurementFrame, cert: DualCertificate, injectivity: InjectivityReport
) -> OptimalityVerdict:
    """Conjunction verdict: valid dual certificate + passing injectivity.

    When both hypotheses hold, X = x x* is the unique optimum of the lifted
    program for this mask realization; no further computation is involved —
    the verdict simply names any failing hypothesis.  The verdict is only
    meaningful when the certificate and the injectivity report were both
    computed for ``x`` and for ``frame``'s masks: each one's anchor must match
    ``x`` within ``POLICY.anchor_tol`` and its masks must be ``frame``'s
    (the same MaskSet, or equal mask entries); otherwise ValueError.
    """
    x = as_signal(x)
    for name, anchor, masks in (
        ("certificate", cert.anchor, cert.masks),
        ("injectivity report", injectivity.anchor, injectivity.masks),
    ):
        if x.shape != anchor.shape or float(np.linalg.norm(x - anchor)) > POLICY.anchor_tol:
            raise ValueError(f"x is not the anchor the {name} was built for")
        if frame.masks is not masks and not np.array_equal(frame.masks.epsilon, masks.epsilon):
            raise ValueError(f"frame does not hold the masks the {name} was built on")
    failing = []
    if cert.tangent_residual > cert.tangent_bound:
        failing.append("dual certificate tangent bound ||Y_T - X||_2")
    if cert.complement_norm > cert.complement_bound:
        failing.append("dual certificate complement bound ||Y_Tperp||_inf")
    if not injectivity.passes_quarter_bound:
        failing.append("robust injectivity quarter bound")
    return OptimalityVerdict(certified=not failing, failing_hypotheses=tuple(failing))
