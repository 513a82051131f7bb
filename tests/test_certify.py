import dataclasses
import inspect
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cdplift.certify import (
    CertificateIntegrityError,
    DualCertificate,
    GolfingFailure,
    GolfingParams,
    InjectivityReport,
    certify_optimality,
    check_near_isotropy_exact,
    check_two_design_exact,
    format_construction_log,
    golfing_construct,
    injectivity_spectrum,
    truncation_statistics,
    variance_bound_check,
    verify_certificate,
)
import cdplift.certify as certify_module
from cdplift.certify import (
    _CHUNK,
    _ENUMERATION_BUDGET,
    _enumerate_masks,
    _identity_fold,
    _moment_grams,
    _pair_grams,
    _relabel_index,
    _schedule,
)
from cdplift.diffraction import (
    MaskSet,
    MeasurementFrame,
    apply_A,
    apply_A_adjoint,
    apply_R,
    sample_masks,
    ternary_mask_distribution,
    validate_moments,
)
from cdplift.diffraction import _draw_entries
from cdplift.hermitian import TangentSpace, norm
from test_diffraction import _sum_partners, five_point_distribution
from util import (
    apply_A_probe_margin,
    dense_frame_element,
    dense_injectivity_lambda_min,
    dense_isotropy_deviation,
    dense_two_design_deviation,
    itertools_masks,
    lstsq_identity_fold,
    offset_blocks_two_array,
    random_hermitian,
    random_tangent,
    symmetric_projector,
    unit_signal,
    variance_moments_loop,
)


# ---------------------------------------------------------------------------
# moment validation


def test_moments_ternary_all_conditions_hold():
    report = validate_moments(ternary_mask_distribution())
    assert report.ok
    assert all(report.conditions.values())
    assert report.moments == pytest.approx((0.0, 1.0, 0.0, 2.0), abs=1e-14)


def test_moments_rademacher_fails_fourth_condition():
    # plain +-1 signs: E[eps^4] = 1 but 2 E[eps^2]^2 = 2
    report = validate_moments((1.0, -1.0), (0.5, 0.5))
    assert not report.ok
    assert report.conditions["mean_zero"]
    assert report.conditions["variance_positive"]
    assert not report.conditions["fourth_moment_condition"]


def test_moments_point_mass_zero_has_no_variance():
    report = validate_moments((0.0,), (1.0,))
    assert not report.ok
    assert not report.conditions["variance_positive"]


def test_moments_flag_unnormalized_probabilities():
    report = validate_moments((1.0, -1.0), (0.4, 0.4))
    assert not report.conditions["probabilities_normalized"]


def test_moments_raw_sequences_require_probabilities():
    with pytest.raises(ValueError):
        validate_moments((1.0, -1.0))


# ---------------------------------------------------------------------------
# exact isotropy / 2-design, with fully independent oracles


def expected_R_analytic(dist, d, i, j):
    """E[R](E_ij) from the factored fourth-moment formula.

    Independence across coordinates gives
    E[R](E_ij)[a,b] = (1/nu^2) E[eps_a eps_b eps_i eps_j] [a - b = i - j mod d],
    with the expectation multiplying one moment per distinct index.
    """
    out = np.zeros((d, d))
    for a in range(d):
        for b in range(d):
            if (a - b) % d != (i - j) % d:
                continue
            counts = {}
            for idx in (a, b, i, j):
                counts[idx] = counts.get(idx, 0) + 1
            val = 1.0
            for c in counts.values():
                val *= dist.moment(c)
            out[a, b] = val / dist.nu**2
    return out


def enumerated_R_dense(dist, d, i, j):
    """Probability-weighted average of R(E_ij) by brute-force dense frames."""
    E = np.zeros((d, d), dtype=complex)
    E[i, j] = 1.0
    probs = dict(zip(dist.support, dist.probabilities))
    acc = np.zeros((d, d), dtype=complex)
    for combo in itertools.product(dist.support, repeat=d):
        p = np.prod([probs[v] for v in combo])
        eps = np.asarray(combo)
        for k in range(1, d + 1):
            F = dense_frame_element(eps, k)
            acc += p * np.trace(F @ E) * F
    return acc / (dist.nu**2 * d)


@pytest.mark.parametrize("d", [3, 4])
def test_analytic_formula_matches_dense_enumeration(d):
    dist = ternary_mask_distribution()
    for i in range(d):
        for j in range(d):
            dense = enumerated_R_dense(dist, d, i, j)
            analytic = expected_R_analytic(dist, d, i, j)
            assert np.allclose(dense, analytic, atol=1e-13)


def test_near_isotropy_exact_small_odd_dimensions():
    dist = ternary_mask_distribution()
    assert check_near_isotropy_exact(dist, 3) <= 1e-13
    assert check_near_isotropy_exact(five_point_distribution(), 3) <= 1e-12


def test_near_isotropy_deviation_agrees_with_analytic_worst_case():
    # the implementation's enumeration and the moment formula must report the
    # same worst deviation from E_ij + delta_ij Id — including at even d,
    # where both see the exact failure of the identity
    dist = ternary_mask_distribution()
    for d in (3, 4):
        worst = 0.0
        for i in range(d):
            for j in range(d):
                target = expected_R_analytic(dist, d, i, j)
                ref = np.zeros((d, d))
                ref[i, j] += 1.0
                if i == j:
                    ref += np.eye(d)
                worst = max(worst, np.max(np.abs(target - ref)))
        impl = check_near_isotropy_exact(dist, d)
        assert impl == pytest.approx(worst, abs=1e-12)


def test_near_isotropy_even_dimension_fails():
    assert check_near_isotropy_exact(ternary_mask_distribution(), 4) > 1e-6


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_near_isotropy_matches_dense_enumeration(law, d):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    assert check_near_isotropy_exact(dist, d) == pytest.approx(
        dense_isotropy_deviation(dist, d), abs=1e-12
    )


def test_enumeration_budget_enforced():
    dist = ternary_mask_distribution()
    with pytest.raises(ValueError, match="budget"):
        check_near_isotropy_exact(dist, 31, budget=1000)
    with pytest.raises(ValueError, match="budget"):
        check_two_design_exact(dist, 31, budget=1000)
    for check in (check_near_isotropy_exact, check_two_design_exact, variance_bound_check):
        assert inspect.signature(check).parameters["budget"].default == _ENUMERATION_BUDGET


@pytest.mark.parametrize("check", [check_near_isotropy_exact, check_two_design_exact])
@pytest.mark.parametrize("key, value", [
    ("d", 0), ("d", -1), ("d", 3.0), ("d", True), ("d", "3"),
    ("budget", 0), ("budget", -5), ("budget", 10.0**6), ("budget", True),
])
def test_exact_checks_reject_bad_d_and_budget(check, key, value):
    args = {"d": 3, "budget": _ENUMERATION_BUDGET, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be an integer >= 1"):
        check(ternary_mask_distribution(), **args)


@pytest.mark.parametrize("chunk", [1, 7, 100, _CHUNK])
@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [1, 5])
def test_enumeration_visits_every_mask_once_in_order(d, law, chunk, monkeypatch):
    # mask n has digit (n // s^a) % s at position a, position 0 fastest
    monkeypatch.setattr(certify_module, "_CHUNK", chunk)
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    s = len(dist.support)
    chunks = []
    for eps, p in _enumerate_masks(dist, d):
        assert not (eps.flags.writeable or p.flags.writeable)  # the next chunk rewrites them
        chunks.append((eps.copy(), p.copy()))
    assert all(0 < p.size <= chunk and eps.shape == (p.size, d) for eps, p in chunks)
    eps = np.concatenate([e for e, _ in chunks])
    prob = np.concatenate([p for _, p in chunks])
    digits = np.arange(s**d)[:, None] // s ** np.arange(d) % s
    assert np.array_equal(eps, np.asarray(dist.support)[digits])
    assert np.allclose(prob, np.asarray(dist.probabilities)[digits].prod(axis=1),
                       rtol=1e-15, atol=0)
    assert abs(prob.sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("law", ["ternary", "five-point"])
def test_exact_checks_agree_across_chunk_sizes(law, monkeypatch):
    # at d = 5 every default enumeration is one chunk; small chunks exercise
    # the accumulation across chunks and the buffers' reuse
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    rng = np.random.default_rng(21)
    x = unit_signal(rng, 5)
    Z = random_tangent(rng, x)

    def run():
        chk = variance_bound_check(dist, x, Z)
        assert chk.method == "exact_enumeration"
        return (check_near_isotropy_exact(dist, 5), check_two_design_exact(dist, 5),
                chk.lhs_operator, chk.lhs_trace)

    whole = run()
    for chunk in (7, 100):
        monkeypatch.setattr(certify_module, "_CHUNK", chunk)
        iso, two, operator, trace = run()
        assert iso == pytest.approx(whole[0], abs=1e-15)
        assert two == pytest.approx(whole[1], abs=1e-15)
        assert operator == pytest.approx(whole[2], rel=1e-14)
        assert trace == pytest.approx(whole[3], rel=1e-14)


@pytest.mark.parametrize("d, bound", [(7, 768 * 1024), (10, 2 * 1024**2)])
def test_exact_enumeration_working_memory(d, bound):
    """tracemalloc peak of one near-isotropy call, numpy's buffers included.

    The enumeration keeps the chunk's (d, n) mask columns, its probabilities,
    and one pair block with its weighted copy, all sized by one chunk of at
    most _CHUNK masks and reused; no (d, d, n) block stack is formed.  At
    d = 7 (2,187 masks, one chunk) that is about 0.45 MiB: 768 KiB leaves
    room for allocator rounding but not for one (d, d, n) stack (0.82 MiB),
    which is what a per-chunk build of the blocks costs (2.0 MiB with its
    weighted copy and the digits).  At d = 10 (59,049 masks) the buffers are
    sized by a 2,187-mask chunk, about 0.6 MiB; 2 MiB admits no 4,096-mask
    block stack (3.1 MiB, 7.0 MiB with its companions), and the peak grows
    with neither the chunk count nor the mask total.
    """
    dist = ternary_mask_distribution()
    check_near_isotropy_exact(dist, 3)  # lazy module set-up stays out of the peak
    tracemalloc.start()
    try:
        check_near_isotropy_exact(dist, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


def test_symmetric_projector_properties():
    for d in (2, 3, 4):
        P = symmetric_projector(d)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P, P.conj().T)
        assert np.trace(P) == pytest.approx(d * (d + 1) / 2)


def test_two_design_identity_odd_and_even():
    dist = ternary_mask_distribution()
    assert check_two_design_exact(dist, 3) <= 1e-13
    assert check_two_design_exact(dist, 4) > 1e-6


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_two_design_matches_dense_enumeration(law, d):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    assert check_two_design_exact(dist, d) == pytest.approx(
        dense_two_design_deviation(dist, d), abs=1e-12
    )


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_two_design_and_near_isotropy_are_one_check_realigned(law, d):
    # G_s[a, b] = H_{(s-a-b) mod d}[a, b], and the targets agree under the
    # same relabeling, so both exact checks return the same deviation
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    assert check_two_design_exact(dist, d) == pytest.approx(
        check_near_isotropy_exact(dist, d), abs=1e-12
    )


def _spy_enumeration(monkeypatch):
    """Record each enumeration's chunk count and each _pair_grams call's partner."""
    enumerations, partners = [], []

    def enumerate_masks(dist, d):
        enumerations.append(0)
        for chunk in _enumerate_masks(dist, d):
            enumerations[-1] += 1
            yield chunk

    def pair_grams(chunks, partner):
        partners.append(partner.copy())
        return _pair_grams(chunks, partner)

    monkeypatch.setattr(certify_module, "_enumerate_masks", enumerate_masks)
    monkeypatch.setattr(certify_module, "_pair_grams", pair_grams)
    return enumerations, partners


@pytest.mark.parametrize("check", [check_near_isotropy_exact, check_two_design_exact])
@pytest.mark.parametrize("chunk", [7, _CHUNK])
@pytest.mark.parametrize("d", [1, 4, 7])
def test_exact_checks_enumerate_once_with_half_the_products(check, chunk, d, monkeypatch):
    # one pass over the masks per call, nothing kept between calls, and per
    # chunk one product per difference pair (a, a+m) of offsets 0..d//2
    monkeypatch.setattr(certify_module, "_CHUNK", chunk)
    enumerations, partners = _spy_enumeration(monkeypatch)
    dist = ternary_mask_distribution()
    first = check(dist, d)
    assert check(dist, d) == first
    chunks = 3 ** (d - 1) if chunk == 7 else 1  # chunks of 3 masks, or all at once
    assert enumerations == [chunks, chunks]
    a = np.arange(d)
    difference = (a + np.arange(d // 2 + 1)[:, None]) % d
    assert len(partners) == 2
    for partner in partners:
        assert partner.shape == (d // 2 + 1, d)
        assert np.array_equal(partner, difference)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_moment_grams_match_two_array_oracle(law, d):
    # H from half the products and the shift gather is every difference-pair
    # Gram, and G read off H by the relabeling is every sum-pair Gram, each
    # from its own two-array blocks over itertools-enumerated masks
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    eps, p = itertools_masks(dist, d)
    H = _moment_grams(dist, d)
    for partner, grams in ((None, H), (_sum_partners(d), H.ravel()[_relabel_index(d)])):
        blocks = offset_blocks_two_array(eps, partner)
        expected = np.einsum("jna,n,jnb->jab", blocks, p, blocks)
        assert grams.shape == (d, d, d)
        assert np.allclose(grams, expected, rtol=1e-13, atol=1e-15)


# ---------------------------------------------------------------------------
# robust injectivity


def test_injectivity_passes_at_comfortable_mask_count():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(0)
    x = unit_signal(rng, 7)
    frame = MeasurementFrame(sample_masks(dist, 7, 200, seed=1))
    report = injectivity_spectrum(frame, x, seed=0)
    assert report.passes_quarter_bound
    assert 1 + report.lambda_min_restricted > 0.25
    assert report.upper_bound_margin >= 0.0


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d, L", [(5, 3), (6, 4), (7, 20), (15, 30)])
def test_injectivity_matches_dense_oracle(d, L, law):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    x = unit_signal(np.random.default_rng(d + L), d)
    masks = sample_masks(dist, d, L, seed=L)
    report = injectivity_spectrum(MeasurementFrame(masks), x, seed=0, probes=1)
    expected = dense_injectivity_lambda_min(masks.epsilon, dist.nu, x)
    assert report.lambda_min_restricted == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d, L", [(7, 0), (7, 20), (8, 0), (8, 20)])
@pytest.mark.parametrize("probes", [0, 1, 20])
def test_injectivity_probes_match_apply_A(d, L, law, probes):
    # the probe energies read off the offset contraction (Parseval over k)
    # match the dL forward values of apply_A, probe for probe
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    x = unit_signal(np.random.default_rng(d), d)
    masks = sample_masks(dist, d, L, seed=d) if L else MaskSet(np.zeros((0, d)), dist)
    frame = MeasurementFrame(masks)
    report = injectivity_spectrum(frame, x, seed=3, probes=probes)
    expected = apply_A_probe_margin(frame, d, seed=3, probes=probes)
    assert report.upper_bound_margin == pytest.approx(expected, rel=1e-12)


def test_injectivity_rejects_negative_probes():
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 4, seed=0))
    with pytest.raises(ValueError, match="probes"):
        injectivity_spectrum(frame, unit_signal(np.random.default_rng(0), 5), probes=-1)


@pytest.mark.parametrize("probes", [2.5, "3", True, None])
def test_injectivity_rejects_non_integer_probes(probes):
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 4, seed=0))
    with pytest.raises(ValueError, match="probes must be an integer >= 0"):
        injectivity_spectrum(frame, unit_signal(np.random.default_rng(0), 5), probes=probes)


@pytest.mark.parametrize("n", [3, 7])
def test_injectivity_rejects_an_anchor_of_another_dimension(n):
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 4, seed=0))
    with pytest.raises(ValueError, match=f"anchor dimension {n} != frame dimension 5"):
        injectivity_spectrum(frame, unit_signal(np.random.default_rng(0), n))


def test_injectivity_quadratic_form_identity():
    # tr(Z R Z) = (1/nu^2 d L) ||A(Z)||^2 ties the restricted spectrum to the
    # measurement energy; holds for every realization, not just on average
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(2)
    x = unit_signal(rng, 5)
    frame = MeasurementFrame(sample_masks(dist, 5, 12, seed=3))
    for _ in range(25):
        Z = random_tangent(rng, x)
        lhs = float(np.trace(Z @ apply_R(frame, Z)).real)
        energy = float(np.sum(apply_A(frame, Z) ** 2))
        rhs = energy / (dist.nu**2 * 5 * 12)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_injectivity_empty_frame_fails_quarter_bound():
    # with no masks R = 0 and the deviation operator is -E[R] restricted to
    # T, whose smallest eigenvalue is -2 (attained on the X component, where
    # E[R](X) = X + P_T(Id) = 2X); the quarter bound cannot hold
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(4)
    x = unit_signal(rng, 5)
    frame = MeasurementFrame(MaskSet(epsilon=np.zeros((0, 5)), distribution=dist))
    report = injectivity_spectrum(frame, x, seed=0)
    assert not report.passes_quarter_bound
    assert 1 + report.lambda_min_restricted <= 0.0
    assert report.lambda_min_restricted == pytest.approx(-2.0, abs=1e-10)
    assert report.upper_bound_margin >= 0.0  # 0 <= b^4 d ||Z||^2 trivially


def test_injectivity_upper_bound_margin_never_negative():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(5)
    for seed in range(5):
        d = int(rng.integers(3, 9))
        x = unit_signal(rng, d)
        frame = MeasurementFrame(sample_masks(dist, d, 20, seed=seed))
        report = injectivity_spectrum(frame, x, seed=seed)
        assert report.upper_bound_margin >= 0.0


# ---------------------------------------------------------------------------
# truncation statistics


def test_truncation_zero_anchor_never_triggers():
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 10, seed=6))
    st = truncation_statistics(frame, np.zeros((5, 5)), gamma=1.0)
    assert st.exceed_count == 0
    assert st.empirical_prob == 0.0


def test_truncation_counts_match_naive_loop():
    dist = ternary_mask_distribution()
    d, L = 31, 30
    eps = sample_masks(dist, d, L, seed=7).epsilon.copy()
    eps[0] = np.sqrt(2.0)
    masks = MaskSet(epsilon=eps, distribution=dist)
    frame = MeasurementFrame(masks)
    u = eps[0] * np.exp(2j * np.pi * np.arange(1, d + 1) * d / d)
    v = u / np.linalg.norm(u)
    Z = np.outer(v, v.conj())
    st = truncation_statistics(frame, Z, gamma=1.0)
    thr = 2**1.5 * dist.b**2 * 1.0 * math.log(d) * np.linalg.norm(Z)
    count = 0
    for l in range(L):
        for k in range(1, d + 1):
            if abs(np.trace(dense_frame_element(eps[l], k) @ Z).real) > thr:
                count += 1
    assert st.exceed_count == count > 0
    assert st.total_terms == L * d
    assert st.empirical_prob == pytest.approx(count / (L * d))
    assert st.bound == pytest.approx(4 / 31)


def test_truncation_monotone_in_gamma():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(8)
    d = 31
    eps = sample_masks(dist, d, 50, seed=9).epsilon.copy()
    eps[:5] = np.sqrt(2.0)
    frame = MeasurementFrame(MaskSet(epsilon=eps, distribution=dist))
    x = unit_signal(rng, d)
    Z = np.outer(x, x.conj())
    counts = [truncation_statistics(frame, Z, g).exceed_count for g in (1.0, 1.5, 2.0, 4.0)]
    assert counts == sorted(counts, reverse=True)
    assert truncation_statistics(frame, Z, 10.0**6).exceed_count == 0


def test_truncation_validates_inputs():
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 3, seed=10))
    with pytest.raises(ValueError):
        truncation_statistics(frame, np.zeros((5, 5)), gamma=0.5)
    with pytest.raises(ValueError, match="gamma must be >= 1, got nan"):
        truncation_statistics(frame, np.zeros((5, 5)), gamma=float("nan"))
    with pytest.raises(ValueError):
        truncation_statistics(frame, np.eye(5), gamma=1.0)  # rank 5, not tangent


# ---------------------------------------------------------------------------
# variance bounds


def test_variance_bounds_exact_ternary():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(11)
    for trial in range(5):
        x = unit_signal(rng, 3)
        Z = random_tangent(rng, x)
        chk = variance_bound_check(dist, x, Z)
        assert chk.method == "exact_enumeration"
        assert chk.n_terms == 27
        assert chk.satisfied
        assert chk.lhs_operator <= chk.rhs_operator
        assert chk.lhs_trace <= chk.rhs_trace
        assert chk.lhs_operator > 0


def test_variance_bounds_exact_five_point():
    dist = five_point_distribution()
    rng = np.random.default_rng(12)
    x = unit_signal(rng, 3)
    chk = variance_bound_check(dist, x, random_tangent(rng, x))
    assert chk.method == "exact_enumeration"
    assert chk.n_terms == 125
    assert chk.satisfied


def test_variance_bounds_monte_carlo_fallback():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(13)
    x = unit_signal(rng, 3)
    Z = random_tangent(rng, x)
    chk = variance_bound_check(dist, x, Z, budget=1, mc_samples=2000, seed=0)
    assert chk.method == "monte_carlo"
    assert chk.n_terms == 2000
    assert chk.satisfied  # constants have ~30x slack; MC noise cannot break them


@pytest.mark.parametrize("key, value", [
    ("budget", -1), ("budget", 0), ("budget", 2.5), ("budget", True),
    ("mc_samples", 0), ("mc_samples", -3), ("mc_samples", 2.5), ("mc_samples", True),
])
def test_variance_rejects_bad_budget_and_mc_samples(key, value):
    rng = np.random.default_rng(12)
    x = unit_signal(rng, 3)
    args = {"budget": 1, "mc_samples": 100, key: value}
    with pytest.raises(ValueError, match=f"^{key} must be an integer >= 1"):
        variance_bound_check(ternary_mask_distribution(), x, random_tangent(rng, x), **args)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_variance_matches_per_mask_loop(d, law):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    rng = np.random.default_rng(d)
    x = unit_signal(rng, d)
    Z = random_tangent(rng, x)
    chk = variance_bound_check(dist, x, Z)
    operator, trace, n_terms = variance_moments_loop(dist, x, Z)
    assert chk.lhs_operator == pytest.approx(operator, rel=1e-12)
    assert chk.lhs_trace == pytest.approx(trace, rel=1e-12)
    assert chk.n_terms == n_terms == len(dist.support) ** d


def test_variance_monte_carlo_matches_per_mask_loop():
    # 5000 samples span two chunks of the batched path
    dist = five_point_distribution()
    rng = np.random.default_rng(15)
    x = unit_signal(rng, 4)
    Z = random_tangent(rng, x)
    chk = variance_bound_check(dist, x, Z, budget=1, mc_samples=5000, seed=2)
    operator, trace, n_terms = variance_moments_loop(dist, x, Z, budget=1, mc_samples=5000, seed=2)
    assert chk.method == "monte_carlo"
    assert chk.lhs_operator == pytest.approx(operator, rel=1e-12)
    assert chk.lhs_trace == pytest.approx(trace, rel=1e-12)
    assert chk.n_terms == n_terms == 5000


@pytest.mark.parametrize("law", ["ternary", "five-point"])
def test_variance_monte_carlo_draws_the_choice_stream(law, monkeypatch):
    # the Monte-Carlo masks are those rng.choice(support, size, p) draws
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    drawn = []

    def recording(*args):
        drawn.append(_draw_entries(*args))
        return drawn[-1]

    monkeypatch.setattr(certify_module, "_draw_entries", recording)
    rng = np.random.default_rng(16)
    x = unit_signal(rng, 4)
    variance_bound_check(dist, x, random_tangent(rng, x), budget=1, mc_samples=5000, seed=7)
    expected = np.random.default_rng(7).choice(
        np.asarray(dist.support), size=(5000, 4), p=np.asarray(dist.probabilities))
    assert len(drawn) == 1
    assert np.array_equal(drawn[0], expected)


def test_variance_requires_tangent_argument():
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(14)
    x = unit_signal(rng, 3)
    with pytest.raises(ValueError):
        variance_bound_check(dist, x, np.eye(3))


# ---------------------------------------------------------------------------
# golfing schedule


def test_golfing_schedule_from_d_and_law(certificate):
    # r = ceil(log2(d)/2) + ceil(log2(b^2/nu)) + 1 and w = 10 r; b^2/nu is 2
    # for the ternary law and 2.5 for the five-point law
    for dist, gamma, rs in (
        (ternary_mask_distribution(), 9.0, (3, 4, 5)),
        (five_point_distribution(), 9.263034405834, (4, 5, 6)),
    ):
        for d, r in zip((3, 15, 31), rs):
            p = _schedule(d, dist)
            assert p.gamma == pytest.approx(gamma, abs=1e-12)
            assert (p.r, p.w) == (r, 10 * r)
            assert p.t_first == 0.125
            assert p.c_first == 1.0 / math.sqrt(2.0 * math.log(d))
            assert p.t_later == math.log(d) / 4.0
            assert p.c_later == 0.5
    # the d = 15 certificate ran on this schedule
    _, cert = certificate
    p = _schedule(15, ternary_mask_distribution())
    assert cert.gamma == p.gamma
    for rec in cert.construction_log:
        t, c = (p.t_first, p.c_first) if rec.phase == "fine" else (p.t_later, p.c_later)
        assert (rec.t, rec.c) == (t, c)


# ---------------------------------------------------------------------------
# golfing construction


@pytest.fixture(scope="module")
def certificate():
    rng = np.random.default_rng(100)
    x = unit_signal(rng, 15)
    out = golfing_construct(x, ternary_mask_distribution(), GolfingParams(), seed=0)
    assert isinstance(out, DualCertificate)
    return x, out


def test_golfing_produces_valid_certificate(certificate):
    x, cert = certificate
    assert cert.passed
    assert cert.tangent_residual <= cert.tangent_bound
    assert cert.complement_norm <= 0.5
    assert cert.gamma == 9.0


def test_golfing_log_contraction_and_partial_sums(certificate):
    _, cert = certificate
    log = cert.construction_log
    assert log[0].phase == "fine" and log[1].phase == "fine"
    assert all(rec.phase == "coarse" for rec in log[2:])
    assert sum(rec.xi for rec in log[2:]) == 4  # r coarse successes

    q_prev, comp_bound = 1.0, 0.0
    for rec in log:
        if rec.xi:
            # accepted: ||Q_new||_2 <= c ||Q_prev||_2 and the complement grows
            # by at most t ||Q_prev||_2 (triangle inequality over iterations)
            assert rec.q_norm <= rec.c * q_prev + 1e-12
            comp_bound += rec.t * q_prev
            assert rec.complement_norm <= comp_bound + 1e-12
            q_prev = rec.q_norm
        else:
            assert rec.q_norm == pytest.approx(q_prev)


def test_golfing_telescoped_tangent_residual(certificate):
    # two fine contractions (1/sqrt(2 log d) each) then r halvings
    _, cert = certificate
    r = _schedule(15, ternary_mask_distribution()).r
    assert cert.tangent_residual <= (1 / (2 * math.log(15))) * 2.0**-r + 1e-12


def test_golfing_witness_reconstructs_Y(certificate):
    _, cert = certificate
    frame = MeasurementFrame(cert.masks)
    Y_rec = apply_A_adjoint(frame, cert.in_range_witness)
    assert np.linalg.norm(Y_rec - cert.Y) <= 1e-9 * np.linalg.norm(cert.Y)


def test_golfing_deterministic(certificate):
    x, cert = certificate
    again = golfing_construct(x, ternary_mask_distribution(), GolfingParams(), seed=0)
    assert isinstance(again, DualCertificate)
    assert np.array_equal(again.Y, cert.Y)
    assert np.array_equal(again.in_range_witness, cert.in_range_witness)


def test_golfing_draws_the_sample_masks_stream(certificate):
    # batch i is sample_masks(dist, d, L_i, s_i) with s_i the i-th draw of
    # default_rng(seed).integers(2**63); the union stacks the accepted ones
    x, cert = certificate
    dist = ternary_mask_distribution()
    rng = np.random.default_rng(0)
    accepted = []
    for rec in cert.construction_log:
        batch_seed = int(rng.integers(2**63))
        if rec.xi:
            accepted.append(sample_masks(dist, x.size, rec.L, batch_seed).epsilon)
    assert np.array_equal(cert.masks.epsilon, np.vstack(accepted))


def test_golfing_leaves_the_callers_anchor_writable():
    x = unit_signal(np.random.default_rng(103), 15)
    out = golfing_construct(x, ternary_mask_distribution(), GolfingParams(), seed=0)
    assert x.flags.writeable
    assert not np.shares_memory(out.anchor, x)


def _assert_fold_matches_lstsq(eps, beta):
    alpha = _identity_fold(eps, beta)
    expected = lstsq_identity_fold(eps, beta)
    assert alpha.shape == (eps.shape[0],)
    assert np.linalg.norm(alpha - expected) <= 1e-12 * np.linalg.norm(expected)


def test_identity_fold_matches_lstsq_on_a_tall_union(certificate):
    _, cert = certificate
    assert cert.masks.L >= 2000
    _assert_fold_matches_lstsq(cert.masks.epsilon, 2.75)


def test_identity_fold_matches_lstsq_when_two_positions_share_a_pattern():
    s = math.sqrt(2.0)
    eps = np.array([[s, -s, 0.0], [0.0, 0.0, s], [-s, s, -s], [s, s, 0.0]])
    assert np.linalg.matrix_rank(eps**2) == 2  # positions 0 and 1 measure alike
    _assert_fold_matches_lstsq(eps, -1.5)


def _rare_position_union(L):
    """L masks at d = 3: positions 0 and 1 alternate, position 2 is seen by mask 0 only."""
    s = math.sqrt(2.0)
    eps = np.zeros((L, 3))
    eps[::2, 0] = s
    eps[1::2, 1] = s
    eps[0, 2] = -s
    return eps


def test_identity_fold_matches_lstsq_on_an_ill_conditioned_union():
    eps = _rare_position_union(2000)
    lam = np.linalg.eigvalsh((eps**2).T @ (eps**2))
    assert lam[-1] / lam[0] > 500  # the rare position's direction must be kept
    _assert_fold_matches_lstsq(eps, 0.5)


@pytest.mark.parametrize("union", ["sampled", "structured"])
def test_identity_fold_rejects_a_position_no_mask_sees(union):
    if union == "sampled":
        eps = sample_masks(ternary_mask_distribution(), 5, 40, seed=104).epsilon.copy()
    else:
        eps = _rare_position_union(40)  # its pattern Gram has an exact zero eigenvalue
    eps[:, 2] = 0.0
    with pytest.raises(RuntimeError, match="do not span the identity"):
        lstsq_identity_fold(eps, 1.0)
    with pytest.raises(RuntimeError, match="do not span the identity component"):
        _identity_fold(eps, 1.0)


def test_golfing_zero_batch_fails_immediately():
    for key, value in (("L1", 0), ("L1", -3), ("L2", 0), ("L_later", 2.5), ("L_later", True)):
        with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
            GolfingParams(**{key: value})
    assert GolfingParams(L1=np.int64(5)).L1 == 5


def test_golfing_starved_batches_fail():
    rng = np.random.default_rng(102)
    x = unit_signal(rng, 15)
    out = golfing_construct(
        x, ternary_mask_distribution(), GolfingParams(L1=1, L2=1, L_later=1), seed=0
    )
    assert isinstance(out, GolfingFailure)


def test_golfing_needs_odd_dimension_and_unit_anchor():
    dist = ternary_mask_distribution()
    with pytest.raises(ValueError):
        golfing_construct(np.ones(4) / 2.0, dist, seed=0)
    with pytest.raises(ValueError):
        golfing_construct(np.ones(5), dist, seed=0)  # norm sqrt(5)


def test_format_construction_log(certificate):
    _, cert = certificate
    text = format_construction_log(cert.construction_log)
    lines = text.splitlines()
    assert lines[0].startswith("i phase L")
    assert len(lines) == len(cert.construction_log) + 1


# ---------------------------------------------------------------------------
# certificate verification


def lstsq_witness(frame, Y):
    """Coefficients c with A*(c) = Y, via dense least squares over the frame."""
    eps = frame.masks.epsilon
    L, d = eps.shape
    cols = np.empty((2 * d * d, L * d))
    for l in range(L):
        for k in range(1, d + 1):
            F = dense_frame_element(eps[l], k)
            cols[:, l * d + k - 1] = np.concatenate([F.real.ravel(), F.imag.ravel()])
    target = np.concatenate([Y.real.ravel(), Y.imag.ravel()])
    c, *_ = np.linalg.lstsq(cols, target, rcond=None)
    assert np.linalg.norm(cols @ c - target) <= 1e-9 * max(np.linalg.norm(Y), 1.0)
    return c


def synthetic_certificate(Y, masks, x):
    frame = MeasurementFrame(masks)
    T = TangentSpace(x)
    X = np.outer(x, x.conj())
    return DualCertificate(
        Y=Y,
        tangent_residual=float(np.linalg.norm(T.project(Y) - X)),
        complement_norm=norm(T.project_complement(Y), "operator"),
        construction_log=(),
        in_range_witness=lstsq_witness(frame, Y),
        masks=masks,
        anchor=x,
        gamma=9.0,
    )


def test_verify_certificate_exact_X():
    x = np.zeros(3, dtype=complex)
    x[0] = 1.0
    masks = sample_masks(ternary_mask_distribution(), 3, 5, seed=20)
    cert = synthetic_certificate(np.outer(x, x.conj()), masks, x)
    check = verify_certificate(cert, x)
    assert check.passed
    assert check.tangent_residual <= 1e-9
    assert check.complement_norm <= 1e-9


def test_verify_certificate_identity_shift_breaks_tangent_bound():
    # Y = X + Id/4: P_T(Y) - X = X/4 (norm 1/4 > nu/(4 b^2 sqrt(3)) ~ 0.072)
    # while ||P_Tperp(Y)||_inf = 1/4 still clears the 1/2 complement bound
    x = np.zeros(3, dtype=complex)
    x[0] = 1.0
    masks = sample_masks(ternary_mask_distribution(), 3, 5, seed=21)
    Y = np.outer(x, x.conj()) + np.eye(3) / 4
    cert = synthetic_certificate(Y, masks, x)
    check = verify_certificate(cert, x)
    assert isinstance(check, DualCertificate) and check.masks is masks
    assert check.tangent_residual == pytest.approx(0.25, abs=1e-9)
    assert check.complement_norm == pytest.approx(0.25, abs=1e-9)
    assert check.tangent_bound == pytest.approx(1 / (4 * 2 * np.sqrt(3)))
    assert not check.tangent_ok
    assert check.complement_ok
    assert not check.passed


def test_verify_certificate_rejects_another_anchor_or_frame(certificate):
    x, cert = certificate
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="anchor the certificate"):
        verify_certificate(cert, unit_signal(rng, x.size))  # unrelated unit y
    other = x.copy()
    other[0] += 1e-6
    with pytest.raises(ValueError, match="anchor the certificate"):
        verify_certificate(cert, other)
    fresh = MeasurementFrame(sample_masks(cert.masks.distribution, x.size, 30, seed=1))
    with pytest.raises(ValueError, match="masks the certificate"):
        verify_certificate(cert, x, fresh)


def test_verify_certificate_returns_the_rebuilt_certificate(certificate):
    x, cert = certificate
    rebuilt = verify_certificate(cert, x, MeasurementFrame(cert.masks))
    assert isinstance(rebuilt, DualCertificate) and rebuilt.passed
    assert rebuilt.construction_log is cert.construction_log
    assert rebuilt.in_range_witness is cert.in_range_witness
    assert np.array_equal(rebuilt.Y, apply_A_adjoint(MeasurementFrame(cert.masks),
                                                     cert.in_range_witness))
    assert rebuilt.tangent_residual == pytest.approx(cert.tangent_residual, abs=1e-9)
    assert rebuilt.complement_norm == pytest.approx(cert.complement_norm, abs=1e-9)


def test_verify_certificate_detects_tampered_witness(certificate):
    x, cert = certificate
    witness = cert.in_range_witness.copy()
    witness[3] += 0.1
    bad = dataclasses.replace(cert, in_range_witness=witness)
    with pytest.raises(CertificateIntegrityError):
        verify_certificate(bad, x)


def test_verify_certificate_detects_tampered_matrix(certificate):
    x, cert = certificate
    Y = cert.Y.copy()
    Y[0, 0] += 0.5
    with pytest.raises(CertificateIntegrityError):
        verify_certificate(dataclasses.replace(cert, Y=Y), x)


# ---------------------------------------------------------------------------
# optimality verdict


def test_certify_optimality_happy_path(certificate):
    x, cert = certificate
    frame = MeasurementFrame(cert.masks)
    inj = injectivity_spectrum(frame, x, seed=0, probes=10)
    verdict = certify_optimality(x, frame, cert, inj)
    assert verdict.certified
    assert verdict.failing_hypotheses == ()


def test_certify_optimality_names_failures(certificate):
    x, cert = certificate
    frame = MeasurementFrame(cert.masks)
    inj_bad = InjectivityReport(
        lambda_min_restricted=-0.9, upper_bound_margin=1.0,
        anchor=x, masks=cert.masks,
    )
    cert_bad = dataclasses.replace(cert, complement_norm=0.9, tangent_residual=1.0)
    verdict = certify_optimality(x, frame, cert_bad, inj_bad)
    assert not verdict.certified
    joined = " ".join(verdict.failing_hypotheses)
    assert "tangent" in joined
    assert "complement" in joined
    assert "injectivity" in joined
    assert len(verdict.failing_hypotheses) == 3


def test_certify_optimality_reads_the_rebuilt_certificate(certificate):
    # the stored norms pass; a rebuilt tangent norm beyond its bound decides
    x, cert = certificate
    frame = MeasurementFrame(cert.masks)
    rebuilt = verify_certificate(cert, x, frame)
    failing = dataclasses.replace(rebuilt, tangent_residual=2 * cert.tangent_bound)
    assert cert.passed and not failing.tangent_ok and failing.complement_ok
    inj = injectivity_spectrum(frame, x, seed=0, probes=10)
    assert certify_optimality(x, frame, rebuilt, inj).certified
    verdict = certify_optimality(x, frame, failing, inj)
    assert not verdict.certified
    assert verdict.failing_hypotheses == ("dual certificate tangent bound ||Y_T - X||_2",)


def test_injectivity_quarter_bound_reads_lambda_min():
    masks = sample_masks(ternary_mask_distribution(), 3, 5, seed=0)
    x = np.eye(3, dtype=complex)[0]

    def passes(lam):
        return InjectivityReport(lambda_min_restricted=lam, upper_bound_margin=1.0,
                                 anchor=x, masks=masks).passes_quarter_bound

    assert passes(-0.74) and not passes(-0.75) and not passes(-0.9)


def test_certify_optimality_rejects_another_anchor(certificate):
    x, cert = certificate
    frame = MeasurementFrame(cert.masks)
    inj = InjectivityReport(
        lambda_min_restricted=0.0, upper_bound_margin=1.0,
        anchor=x, masks=cert.masks,
    )
    other = x.copy()
    other[0] += 1e-6
    with pytest.raises(ValueError, match="anchor"):
        certify_optimality(other, frame, cert, inj)


def test_certify_optimality_rejects_another_frame(certificate):
    x, cert = certificate
    inj = InjectivityReport(
        lambda_min_restricted=0.0, upper_bound_margin=1.0,
        anchor=x, masks=cert.masks,
    )
    eps = cert.masks.epsilon.copy()
    eps[0] = -eps[0]
    flipped = MeasurementFrame(MaskSet(epsilon=eps, distribution=cert.masks.distribution))
    with pytest.raises(ValueError, match="masks"):
        certify_optimality(x, flipped, cert, inj)
    fresh = MeasurementFrame(sample_masks(cert.masks.distribution, x.size, 30, seed=1))
    with pytest.raises(ValueError, match="masks"):
        certify_optimality(x, fresh, cert, inj)
    copy = MeasurementFrame(MaskSet(epsilon=cert.masks.epsilon.copy(),
                                    distribution=cert.masks.distribution))
    assert certify_optimality(x, copy, cert, inj).certified


def test_certify_optimality_rejects_a_report_for_another_frame_or_anchor(certificate):
    x, cert = certificate
    d = x.size
    frame = MeasurementFrame(cert.masks)
    fresh = MeasurementFrame(sample_masks(cert.masks.distribution, d, 40, seed=1))
    flat = np.full(d, 1.0 / np.sqrt(d), dtype=complex)
    stray = injectivity_spectrum(fresh, flat, seed=0, probes=10)
    assert stray.passes_quarter_bound  # a passing report, just not for this instance
    with pytest.raises(ValueError, match="injectivity report"):
        certify_optimality(x, frame, cert, stray)
    with pytest.raises(ValueError, match="masks the injectivity report"):
        certify_optimality(x, frame, cert, injectivity_spectrum(fresh, x, seed=0, probes=10))
    with pytest.raises(ValueError, match="anchor the injectivity report"):
        certify_optimality(x, frame, cert, injectivity_spectrum(frame, flat, seed=0, probes=10))
    copy = MeasurementFrame(MaskSet(epsilon=cert.masks.epsilon.copy(),
                                    distribution=cert.masks.distribution))
    own = injectivity_spectrum(copy, x, seed=0, probes=10)
    assert np.array_equal(own.anchor, x) and own.masks is copy.masks
    assert certify_optimality(x, frame, cert, own).certified
