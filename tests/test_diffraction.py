import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdplift.certify import _pair_grams
from cdplift.diffraction import (
    MaskDistribution,
    MaskSet,
    MeasurementFrame,
    MeasurementVector,
    apply_A,
    apply_A_adjoint,
    apply_R,
    apply_R_truncated,
    crt_frequency,
    crt_relabeling,
    dft2_vector,
    dft_vector,
    measure,
    sample_masks,
    ternary_mask_distribution,
    truncation_rate,
)
from cdplift.diffraction import (
    _apply_A_adjoint_any,
    _apply_A_any,
    _apply_A_rank2,
    _draw_entries,
    _offset_blocks,
    _offset_gram,
    _offset_index,
)
from cdplift.hermitian import TangentSpace
from cdplift.policy import POLICY
from util import (
    dense_apply_A,
    dense_apply_A_adjoint,
    dense_frame_element,
    offset_blocks_two_array,
    offset_gram_every_product,
    random_hermitian,
    support_gaps_3d,
    unit_signal,
)


def five_point_distribution():
    """A second valid mask law besides the ternary one: support {0,±1,±√3}.

    With P(±√3) = P(±1) = 5/32 the moment conditions hold exactly:
    E[eps^2] = 5/4 and E[eps^4] = 25/8 = 2 (5/4)^2.
    """
    s3 = math.sqrt(3.0)
    return MaskDistribution(
        support=(-s3, -1.0, 0.0, 1.0, s3),
        probabilities=(5 / 32, 5 / 32, 12 / 32, 5 / 32, 5 / 32),
        b=s3,
        nu=1.25,
    )


# ---------------------------------------------------------------------------
# distributions


def test_ternary_distribution_profile():
    dist = ternary_mask_distribution()
    assert sorted(dist.support) == pytest.approx([-np.sqrt(2), 0.0, np.sqrt(2)])
    assert dist.b == pytest.approx(np.sqrt(2))
    assert dist.nu == pytest.approx(1.0)
    assert dist.moment(1) == pytest.approx(0.0, abs=1e-15)
    assert dist.moment(2) == pytest.approx(1.0)
    assert dist.moment(3) == pytest.approx(0.0, abs=1e-15)
    assert dist.moment(4) == pytest.approx(2.0)


def test_truncation_rate_is_exactly_nine_for_ternary():
    assert truncation_rate(ternary_mask_distribution()) == 9.0


def test_five_point_distribution_is_valid():
    dist = five_point_distribution()
    assert dist.moment(2) == pytest.approx(1.25)
    assert dist.moment(4) == pytest.approx(2 * 1.25**2)
    assert truncation_rate(dist) == pytest.approx(8 + math.log2(3 / 1.25))


def test_rademacher_rejected_by_fourth_moment():
    with pytest.raises(ValueError, match="[Ff]ourth|moment"):
        MaskDistribution(support=(1.0, -1.0), probabilities=(0.5, 0.5), b=1.0, nu=1.0)


def test_point_mass_at_zero_rejected():
    with pytest.raises(ValueError):
        MaskDistribution(support=(0.0,), probabilities=(1.0,), b=1.0, nu=0.0)


def test_unnormalized_probabilities_rejected():
    with pytest.raises(ValueError):
        MaskDistribution(
            support=(np.sqrt(2), 0.0, -np.sqrt(2)),
            probabilities=(0.25, 0.25, 0.25),
            b=np.sqrt(2),
            nu=1.0,
        )


def test_support_exceeding_bound_rejected():
    with pytest.raises(ValueError):
        MaskDistribution(
            support=(np.sqrt(2), 0.0, -np.sqrt(2)),
            probabilities=(0.25, 0.5, 0.25),
            b=1.0,
            nu=1.0,
        )


# ---------------------------------------------------------------------------
# DFT vectors


def test_dft_vector_k_equals_d_is_all_ones():
    for d in (1, 4, 9):
        assert np.allclose(dft_vector(d, d), np.ones(d))


def test_dft_vector_d4_k1():
    assert np.allclose(dft_vector(4, 1), [1j, -1, -1j, 1], atol=1e-14)


def test_dft_vectors_orthogonal_unit_modulus():
    d = 7
    F = np.array([dft_vector(d, k) for k in range(1, d + 1)])
    assert np.allclose(np.abs(F), 1.0)
    assert np.allclose(F.conj() @ F.T, d * np.eye(d), atol=1e-12)


def test_dft_vector_range_check():
    with pytest.raises(ValueError):
        dft_vector(5, 0)
    with pytest.raises(ValueError):
        dft_vector(5, 6)


def test_dft2_vector_is_double_loop_product():
    d1, d2 = 3, 4
    for k, l in ((1, 1), (2, 3), (3, 4)):
        f = dft2_vector(d1, d2, k, l)
        w1 = np.exp(2j * np.pi / d1)
        w2 = np.exp(2j * np.pi / d2)
        naive = np.array(
            [w1 ** (i * k) * w2 ** (j * l) for i in range(1, d1 + 1) for j in range(1, d2 + 1)]
        )
        assert np.allclose(f, naive, atol=1e-12)


# ---------------------------------------------------------------------------
# sampling


def test_sample_masks_deterministic_and_in_support():
    dist = ternary_mask_distribution()
    A = sample_masks(dist, 6, 9, seed=123)
    B = sample_masks(dist, 6, 9, seed=123)
    assert np.array_equal(A.epsilon, B.epsilon)
    assert A.seed == 123
    support = np.asarray(dist.support)
    assert np.isin(A.epsilon, support).all()
    assert not np.array_equal(A.epsilon, sample_masks(dist, 6, 9, seed=124).epsilon)


def test_sample_masks_empirical_moments():
    dist = ternary_mask_distribution()
    eps = sample_masks(dist, 100, 10_000, seed=0).epsilon  # 1e6 entries
    n = eps.size
    assert abs(eps.mean()) <= 3 * dist.nu**0.5 / np.sqrt(n)  # 3 sigma, sigma_1 = sqrt(nu)
    var_of_sq = dist.moment(4) - dist.nu**2
    assert abs((eps**2).mean() - dist.nu) <= 3 * np.sqrt(var_of_sq / n)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
def test_mask_draw_is_the_choice_stream(law):
    # bit for bit what rng.choice(support, size, p) draws, so every seeded
    # result keeps its masks
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    support, p = np.asarray(dist.support), np.asarray(dist.probabilities)
    for seed in range(200):
        for L, d in [(1, 1), (7, 4), (30, 15), (200, 15), (1000, 15)]:
            expected = np.random.default_rng(seed).choice(support, size=(L, d), p=p)
            drawn = _draw_entries(dist, np.random.default_rng(seed), (L, d))
            assert np.array_equal(drawn, expected), (seed, L, d)
            if seed % 20 == 0:
                assert np.array_equal(sample_masks(dist, d, L, seed).epsilon, expected)


def test_sample_masks_validates_arguments():
    dist = ternary_mask_distribution()
    with pytest.raises(ValueError):
        sample_masks(dist, 0, 5, seed=0)
    with pytest.raises(ValueError):
        sample_masks(dist, 5, 0, seed=0)


def test_maskset_rejects_entries_outside_support():
    with pytest.raises(ValueError):
        MaskSet(epsilon=np.array([[0.5, 0.0]]), distribution=ternary_mask_distribution())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_maskset_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="support"):
        MaskSet(epsilon=np.array([[math.sqrt(2.0), bad, 0.0]]),
                distribution=ternary_mask_distribution())


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "0.5"])
def test_maskset_load_rejects_bad_entries(tmp_path, bad):
    path = tmp_path / "masks.txt"
    sample_masks(ternary_mask_distribution(), 3, 2, seed=0).save(path)
    lines = path.read_text().splitlines()
    lines[-1] = f"0.0 {bad} 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="support"):
        MaskSet.load(path)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
def test_maskset_accepts_entries_within_tolerance(law):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    tol = POLICY.moment_tol
    support = np.asarray(dist.support)
    near = np.vstack([support + tol / 2, support - tol / 2])
    assert MaskSet(epsilon=near, distribution=dist).L == 2
    with pytest.raises(ValueError, match="support"):
        MaskSet(epsilon=support[None, :] + 2 * tol, distribution=dist)


@settings(max_examples=60, deadline=None)
@given(law=st.sampled_from(["ternary", "five-point"]), L=st.integers(0, 4),
       d=st.integers(1, 5), data=st.data())
def test_maskset_support_check_matches_3d_gaps(law, L, d, data):
    # entries at, within and just beyond moment_tol of a support value, plus
    # some far from every one; accepted exactly when every 3-D gap is in tol
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    tol = POLICY.moment_tol
    offset = st.one_of(
        st.just(0.0),
        st.sampled_from([tol, -tol, tol / 2, 2 * tol, -2 * tol]),
        st.floats(-4 * tol, 4 * tol),
        st.floats(-1.0, 1.0),
    )
    entry = st.builds(lambda v, off: v + off, st.sampled_from(dist.support), offset)
    eps = np.array(data.draw(st.lists(entry, min_size=L * d, max_size=L * d))).reshape(L, d)
    expected = not (eps.size and support_gaps_3d(eps, dist.support).max() > tol)
    try:
        MaskSet(epsilon=eps, distribution=dist)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected


def test_maskset_save_load_roundtrip(tmp_path):
    masks = sample_masks(ternary_mask_distribution(), 5, 4, seed=9)
    path = tmp_path / "masks.txt"
    masks.save(path)
    loaded = MaskSet.load(path)
    assert np.array_equal(loaded.epsilon, masks.epsilon)  # exact: repr round-trip
    assert loaded.seed == 9
    assert loaded.distribution.nu == masks.distribution.nu


# ---------------------------------------------------------------------------
# measurement


def test_measure_zero_signal():
    masks = sample_masks(ternary_mask_distribution(), 4, 3, seed=1)
    y = measure(np.zeros(4, dtype=complex), masks)
    assert np.allclose(y.y, 0.0)
    assert y.y0 == 0.0


def test_measure_identity_mask_flat_spectrum():
    # an all-ones mask (in the five-point law's support) on x = e_1 has
    # |<f_k, x>|^2 = 1 for every frequency
    dist = five_point_distribution()
    masks = MaskSet(epsilon=np.ones((1, 6)), distribution=dist)
    x = np.zeros(6, dtype=complex)
    x[0] = 1.0
    assert np.allclose(measure(x, masks).y, 1.0, atol=1e-12)


def test_measure_matches_naive_double_loop():
    rng = np.random.default_rng(2)
    d, L = 7, 2
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=3)
    x = unit_signal(rng, d)
    y = measure(x, masks).y
    for l in range(L):
        for k in range(1, d + 1):
            inner = sum(
                np.exp(-2j * np.pi * j * k / d) * masks.epsilon[l, j - 1] * x[j - 1]
                for j in range(1, d + 1)
            )
            assert y[l, k - 1] == pytest.approx(abs(inner) ** 2, rel=1e-9, abs=1e-12)


def test_measure_parseval_rows():
    rng = np.random.default_rng(4)
    d, L = 9, 5
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=5)
    x = unit_signal(rng, d)
    y = measure(x, masks)
    for l in range(L):
        modulated = masks.epsilon[l] * x
        assert y.y[l].sum() == pytest.approx(d * np.linalg.norm(modulated) ** 2)


def test_measure_dimension_mismatch():
    masks = sample_masks(ternary_mask_distribution(), 4, 1, seed=0)
    with pytest.raises(ValueError):
        measure(np.ones(5, dtype=complex), masks)


def test_measurement_vector_nonnegativity_enforced():
    with pytest.raises(ValueError):
        MeasurementVector(y=np.array([[1.0, -0.5]]), y0=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_measurement_vector_rejects_non_finite_intensities(bad):
    with pytest.raises(ValueError, match="finite"):
        MeasurementVector(y=np.array([[1.0, bad]]), y0=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measurement_vector_rejects_non_finite_y0(bad):
    with pytest.raises(ValueError, match="y0"):
        MeasurementVector(y=np.ones((1, 2)), y0=bad)


@pytest.mark.parametrize("bad", [-1.0, -1e-300, -np.inf, "1.0", 1.0 + 0j, True])
def test_measurement_vector_rejects_negative_or_non_real_y0(bad):
    # y0 = ||x||^2: a finite real number >= 0
    with pytest.raises(ValueError, match="y0"):
        MeasurementVector(y=np.ones((1, 2)), y0=bad)
    assert MeasurementVector(y=np.ones((1, 2)), y0=0.0).y0 == 0.0


def test_measurement_csv_missing_row_rejected(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("l,k,y\n1,1,0.5\n2,2,1.0\n")
    with pytest.raises(ValueError, match="every row"):
        MeasurementVector.from_csv(path)


def test_measurement_csv_duplicate_row_rejected(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("l,k,y\n1,1,0.5\n1,1,0.7\n1,2,0.1\n2,1,0.2\n2,2,1.0\n")
    with pytest.raises(ValueError, match="repeats"):
        MeasurementVector.from_csv(path)


def test_measurement_vector_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    masks = sample_masks(ternary_mask_distribution(), 5, 3, seed=7)
    y = measure(unit_signal(rng, 5), masks)
    path = tmp_path / "y.csv"
    y.to_csv(path)
    back = MeasurementVector.from_csv(path)
    assert np.array_equal(back.y, y.y)
    assert back.y0 == y.y0
    # 1-based indices in the file
    body = path.read_text().splitlines()
    assert body[1] == "l,k,y"
    assert body[2].startswith("1,1,")


# ---------------------------------------------------------------------------
# lifted maps against the dense oracle


def test_apply_A_identity_gives_mask_energies():
    masks = sample_masks(ternary_mask_distribution(), 5, 4, seed=8)
    frame = MeasurementFrame(masks)
    vals = apply_A(frame, np.eye(5)).reshape(4, 5)
    energies = (masks.epsilon**2).sum(axis=1)
    assert np.allclose(vals, energies[:, None], atol=1e-10)


def test_apply_A_lifting_identity():
    rng = np.random.default_rng(9)
    for d, L in ((3, 4), (8, 2)):
        masks = sample_masks(ternary_mask_distribution(), d, L, seed=10)
        frame = MeasurementFrame(masks)
        x = unit_signal(rng, d)
        X = np.outer(x, x.conj())
        assert np.allclose(
            apply_A(frame, X), measure(x, masks).ravel(), rtol=1e-9, atol=1e-12
        )


def test_apply_A_matches_dense_oracle():
    rng = np.random.default_rng(11)
    masks = sample_masks(ternary_mask_distribution(), 5, 3, seed=12)
    frame = MeasurementFrame(masks)
    Z = random_hermitian(rng, 5)
    expected = dense_apply_A(masks.epsilon, Z)
    assert np.allclose(apply_A(frame, Z), expected, atol=1e-10)


def test_apply_A_adjoint_zero_and_indicator():
    masks = sample_masks(ternary_mask_distribution(), 4, 3, seed=13)
    frame = MeasurementFrame(masks)
    assert np.allclose(apply_A_adjoint(frame, np.zeros(12)), 0.0)
    c = np.zeros(12)
    l, k = 2, 3
    c[l * 4 + (k - 1)] = 1.0
    F = apply_A_adjoint(frame, c)
    assert np.allclose(F, dense_frame_element(masks.epsilon[l], k), atol=1e-12)
    assert np.linalg.matrix_rank(F, tol=1e-9) <= 1
    assert np.trace(F).real == pytest.approx((masks.epsilon[l] ** 2).sum())


def test_apply_A_adjoint_matches_dense_oracle():
    rng = np.random.default_rng(14)
    masks = sample_masks(ternary_mask_distribution(), 5, 3, seed=15)
    frame = MeasurementFrame(masks)
    c = rng.standard_normal(15)
    assert np.allclose(
        apply_A_adjoint(frame, c), dense_apply_A_adjoint(masks.epsilon, c), atol=1e-10
    )


def test_adjoint_pairing_random():
    rng = np.random.default_rng(16)
    for d in (3, 5, 15):
        masks = sample_masks(ternary_mask_distribution(), d, 4, seed=17)
        frame = MeasurementFrame(masks)
        for _ in range(10):
            Z = random_hermitian(rng, d)
            c = rng.standard_normal(4 * d)
            lhs = float(apply_A(frame, Z) @ c)
            rhs = float(np.trace(Z.conj().T @ apply_A_adjoint(frame, c)).real)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_apply_A_length_checks():
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 4, 2, seed=18))
    with pytest.raises(ValueError):
        apply_A(frame, np.eye(3))
    with pytest.raises(ValueError):
        apply_A_adjoint(frame, np.zeros(7))


def test_apply_R_zero_and_positivity():
    rng = np.random.default_rng(19)
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 6, seed=20))
    assert np.allclose(apply_R(frame, np.zeros((5, 5))), 0.0)
    for _ in range(5):
        Z = random_hermitian(rng, 5)
        assert np.trace(Z.conj().T @ apply_R(frame, Z)).real >= -1e-10


def test_apply_R_prefactor_against_dense():
    rng = np.random.default_rng(21)
    masks = sample_masks(ternary_mask_distribution(), 4, 3, seed=22)
    frame = MeasurementFrame(masks)
    Z = random_hermitian(rng, 4)
    dense = dense_apply_A_adjoint(masks.epsilon, dense_apply_A(masks.epsilon, Z))
    dist = frame.distribution
    assert np.allclose(apply_R(frame, Z), dense / (dist.nu**2 * 4 * 3), atol=1e-10)


def test_expected_R_reproduces_near_isotropy_on_basis_matrix():
    # Lemma-4.1 oracle: enumerate all 27 ternary masks at d = 3 with their
    # exact probabilities; the weighted average of R(E_11) is E_11 + Id.
    # (Unweighted averaging would not satisfy the moment conditions.)
    dist = ternary_mask_distribution()
    d = 3
    E11 = np.zeros((d, d), dtype=complex)
    E11[0, 0] = 1.0
    acc = np.zeros((d, d), dtype=complex)
    support = list(dist.support)
    probs = dict(zip(support, dist.probabilities))
    for combo in itertools.product(support, repeat=d):
        eps = np.array([combo])
        p = np.prod([probs[v] for v in combo])
        masks = MaskSet(epsilon=eps, distribution=dist)
        acc += p * apply_R(MeasurementFrame(masks), E11)
    assert np.allclose(acc, E11 + np.eye(d), atol=1e-13)


# ---------------------------------------------------------------------------
# truncated R


def test_truncated_R_with_huge_gamma_is_plain_R():
    rng = np.random.default_rng(23)
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 4, seed=24))
    x = unit_signal(rng, 5)
    anchor = np.outer(x, x.conj())
    Z = random_hermitian(rng, 5)
    out, dropped = apply_R_truncated(frame, Z, anchor, gamma=10**6)
    assert dropped == 0
    assert np.allclose(out, apply_R(frame, Z), atol=1e-12)


def test_truncated_R_count_matches_naive_threshold_check():
    # anchor aligned with one mask's lifted frame vector u = D_l f_d: there
    # tr(F u u*/||u||^2) = ||u||^2 = 2d, which exceeds the gamma = 1 threshold
    # 2^{3/2} b^2 log(d) ~ 19.4 at d = 31, so truncation genuinely fires
    rng = np.random.default_rng(25)
    d, L, gamma = 31, 40, 1.0
    dist = ternary_mask_distribution()
    eps = sample_masks(dist, d, L, seed=26).epsilon.copy()
    eps[0] = np.sqrt(2.0)  # an erasure-free row
    masks = MaskSet(epsilon=eps, distribution=dist)
    frame = MeasurementFrame(masks)
    u = eps[0] * dft_vector(d, d)
    v = u / np.linalg.norm(u)
    anchor = np.outer(v, v.conj())
    Z = random_hermitian(rng, d)
    out, dropped = apply_R_truncated(frame, Z, anchor, gamma)

    thr = 2**1.5 * dist.b**2 * gamma * math.log(d) * np.linalg.norm(anchor)
    expected = np.zeros((d, d), dtype=complex)
    count = 0
    for l in range(L):
        for k in range(1, d + 1):
            F = dense_frame_element(masks.epsilon[l], k)
            t = np.trace(F @ anchor).real
            if abs(t) > thr:  # boundary counts as kept
                count += 1
                continue
            expected += np.trace(F @ Z).real * F
    expected /= dist.nu**2 * d * L
    assert count > 0  # the cell is chosen so truncation actually fires
    assert dropped == count
    assert np.allclose(out, expected, atol=1e-10)


def test_truncated_R_rejects_bad_inputs():
    rng = np.random.default_rng(27)
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 2, seed=28))
    x = unit_signal(rng, 5)
    anchor = np.outer(x, x.conj())
    with pytest.raises(ValueError):
        apply_R_truncated(frame, anchor, anchor, gamma=0.5)
    with pytest.raises(ValueError, match="gamma must be >= 1, got nan"):
        apply_R_truncated(frame, anchor, anchor, gamma=float("nan"))
    with pytest.raises(ValueError):  # full-rank anchor is not tangent
        apply_R_truncated(frame, anchor, np.eye(5), gamma=2.0)


def test_maskset_with_zero_masks_allowed():
    dist = ternary_mask_distribution()
    masks = MaskSet(epsilon=np.zeros((0, 4)), distribution=dist)
    frame = MeasurementFrame(masks)
    assert frame.L == 0
    assert apply_A(frame, np.eye(4)).size == 0
    assert np.allclose(apply_R(frame, np.eye(4)), 0.0)


def test_constructors_leave_the_callers_arrays_writable():
    rng = np.random.default_rng(31)
    eps = sample_masks(ternary_mask_distribution(), 5, 4, seed=32).epsilon.copy()
    y = np.abs(rng.standard_normal((4, 5)))
    x = unit_signal(rng, 5)
    MaskSet(epsilon=eps, distribution=ternary_mask_distribution())
    MeasurementVector(y=y)
    TangentSpace(x)
    assert eps.flags.writeable and y.flags.writeable and x.flags.writeable


def test_maskset_and_frame_blocks_do_not_follow_the_callers_array():
    dist = ternary_mask_distribution()
    base = sample_masks(dist, 5, 6, seed=33).epsilon.copy()
    view = base[::2]  # a view: writes through base reach it
    masks = MaskSet(epsilon=view, distribution=dist)
    frame = MeasurementFrame(masks)
    blocks = frame.blocks.copy()
    expected = view.copy()
    base[:] = -base + math.sqrt(2.0) * (base == 0)  # every entry changes
    assert np.array_equal(masks.epsilon, expected)
    assert np.array_equal(frame.blocks, blocks)
    assert not masks.epsilon.flags.writeable


# ---------------------------------------------------------------------------
# offset blocks


def _sum_partners(d):
    a = np.arange(d)
    return (a[:, None] - a[None, :]) % d  # partner[s, a] = s - a


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("L", [0, 1, 7])
@pytest.mark.parametrize("d", [5, 6])
@pytest.mark.parametrize("pairs", ["difference", "sum"])
def test_offset_blocks_match_two_array_form(pairs, d, L, order):
    # difference pairs through _offset_blocks; sum pairs through the
    # enumeration kernel's weighted pair Grams, which take any partner rows
    masks = sample_masks(five_point_distribution(), d, max(L, 1), seed=34 + d)
    eps = np.array(masks.epsilon[:L], order=order)  # writable, so a write would show
    before = eps.copy()
    if pairs == "difference":
        # offsets 0..d//2 are built; every other offset d - m of the full
        # two-array stack is the mirror E_{d-m}[l, a+m] = E_m[l, a] of one
        h = d // 2 + 1
        blocks = _offset_blocks(eps)
        full = offset_blocks_two_array(eps)
        assert blocks.shape == (h, L, d)
        assert np.array_equal(blocks, full[:h])
        a = np.arange(d)
        for m in range(1, d):
            assert np.array_equal(full[d - m][:, (a + m) % d], full[m])
    else:
        partner = _sum_partners(d)
        weights = np.random.default_rng(d + L).random(L)
        blocks = offset_blocks_two_array(eps, partner)
        expected = np.einsum("jna,n,jnb->jab", blocks, weights, blocks)
        grams = _pair_grams([(eps, weights)], partner)
        assert grams.shape == (d, d, d)
        assert np.allclose(grams, expected, rtol=1e-13, atol=1e-13)
    assert np.array_equal(eps, before)  # the caller's masks are never written


def test_offset_blocks_build_in_one_buffer():
    eps = sample_masks(ternary_mask_distribution(), 15, 2800, seed=35).epsilon
    tracemalloc.start()
    try:
        blocks = _offset_blocks(eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * blocks.nbytes


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 15])
@settings(max_examples=8, deadline=None)
@given(L=st.integers(0, 6), seed=st.integers(0, 10**6),
       law=st.sampled_from(["ternary", "five-point"]))
@example(L=0, seed=0, law="ternary")
@example(L=0, seed=0, law="five-point")
def test_offset_gram_by_shift_matches_every_product(d, L, seed, law):
    # offsets past d/2 gathered by H_{-m}[a+m, b+m] = H_m[a, b] equal the
    # product E_m^T E_m of every offset's own two-array block
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    eps = sample_masks(dist, d, max(L, 1), seed=seed).epsilon[:L]
    expected = offset_gram_every_product(eps)
    shifted = _offset_gram(_offset_blocks(eps))
    assert shifted.shape == expected.shape == (d, d, d)
    scale = max(float(np.abs(expected).max(initial=0.0)), 1.0)
    assert np.max(np.abs(shifted - expected), initial=0.0) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# CRT relabeling


def test_crt_relabeling_3_5_matches_1d_basis():
    d1, d2 = 3, 5
    p = crt_relabeling(d1, d2)
    assert sorted(p) == list(range(15))
    worst = 0.0
    for k in range(1, d1 + 1):
        for l in range(1, d2 + 1):
            m = crt_frequency(d1, d2, k, l)
            dev = np.max(np.abs(dft2_vector(d1, d2, k, l) - dft_vector(15, m)[p]))
            worst = max(worst, dev)
    assert worst <= 1e-12


def test_crt_frequency_is_a_bijection():
    d1, d2 = 4, 9
    ms = {crt_frequency(d1, d2, k, l) for k in range(1, d1 + 1) for l in range(1, d2 + 1)}
    assert ms == set(range(1, 37))


def test_crt_requires_coprime_dimensions():
    with pytest.raises(ValueError):
        crt_relabeling(4, 6)
    with pytest.raises(ValueError):
        crt_frequency(6, 9, 1, 1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), d=st.integers(2, 9), L=st.integers(1, 4))
def test_measure_nonnegative_and_matches_lift(seed, d, L):
    rng = np.random.default_rng(seed)
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=seed)
    x = unit_signal(rng, d)
    y = measure(x, masks)
    assert (y.y >= -1e-12).all()
    frame = MeasurementFrame(masks)
    assert np.allclose(apply_A(frame, np.outer(x, x.conj())), y.ravel(), atol=1e-9)


# ---------------------------------------------------------------------------
# operator properties on random frames, odd and even d
#
# Each test draws d = 2h + parity, so both parities are always covered: the
# offset d/2 block at even d is the case where the algebra degenerates.

frames = dict(
    seed=st.integers(0, 10**6),
    h=st.integers(1, 4),
    L=st.integers(1, 5),
    law=st.sampled_from(["ternary", "five-point"]),
)


def _frame(seed, d, L, law):
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    return MeasurementFrame(sample_masks(dist, d, L, seed=seed))


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(**frames)
def test_adjoint_pairing_property(parity, seed, h, L, law):
    d = 2 * h + parity
    frame = _frame(seed, d, L, law)
    rng = np.random.default_rng(seed)
    Z = random_hermitian(rng, d)
    c = rng.standard_normal(d * L)
    lhs = float(apply_A(frame, Z) @ c)
    rhs = float(np.trace(Z @ apply_A_adjoint(frame, c)).real)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(**frames)
def test_per_mask_parseval_property(parity, seed, h, L, law):
    # sum_k |<f_k, D_l x>|^2 = d ||D_l x||^2, and its lift
    # sum_k tr(F_{k,l} Z) = d tr(D_l^2 Z) for every Hermitian Z
    d = 2 * h + parity
    frame = _frame(seed, d, L, law)
    eps = frame.masks.epsilon
    rng = np.random.default_rng(seed)
    x = unit_signal(rng, d)
    y = measure(x, frame.masks).y
    assert np.allclose(y.sum(axis=1), d * np.sum(np.abs(eps * x) ** 2, axis=1), atol=1e-12)
    Z = random_hermitian(rng, d)
    rows = apply_A(frame, Z).reshape(L, d).sum(axis=1)
    assert np.allclose(rows, d * (eps**2 @ np.diag(Z).real), atol=1e-10)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(m=st.integers(0, 8), **frames)
def test_A_star_A_maps_each_offset_to_itself(parity, m, seed, h, L, law):
    # A*(A(Z)) keeps a Hermitian Z = W + W* supported on offsets m and d - m
    # there: d H_m z_m on offset m, its mirror on offset d - m
    d = 2 * h + parity
    m %= d
    eps = _frame(seed, d, L, law).masks.epsilon
    blocks = _offset_blocks(eps)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    a = np.arange(d)
    W = np.zeros((d, d), dtype=complex)
    W[a, (a + m) % d] = z
    Z = W + W.conj().T
    coeffs = _apply_A_any(blocks, Z)
    assert np.allclose(coeffs.reshape(-1), dense_apply_A(eps, Z), atol=1e-10)
    out = _apply_A_adjoint_any(blocks, coeffs)
    on_offsets = np.zeros((d, d), dtype=bool)
    on_offsets[a, (a + m) % d] = on_offsets[(a + m) % d, a] = True
    assert np.allclose(out[~on_offsets], 0.0, atol=1e-10)
    H = offset_gram_every_product(eps)
    expected = d * H[m] @ Z[a, (a + m) % d]
    assert np.allclose(out[a, (a + m) % d], expected, atol=1e-10)
    assert np.allclose(out[(a + m) % d, a], expected.conj(), atol=1e-10)


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(**frames)
def test_forward_energy_is_the_offset_gram_form(parity, seed, h, L, law):
    # ||A(Z)||^2 = d sum_m z_m^* H_m z_m with z_m[a] = Z[a, a+m], H_m = E_m^T E_m
    d = 2 * h + parity
    frame = _frame(seed, d, L, law)
    Z = random_hermitian(np.random.default_rng(seed), d)
    z = Z[_offset_index(d)]
    H = offset_gram_every_product(frame.masks.epsilon)
    gram_form = d * np.einsum("ma,mab,mb->", z.conj(), H, z)
    energy = float(np.sum(apply_A(frame, Z) ** 2))
    assert gram_form.real == pytest.approx(energy, rel=1e-10)
    assert abs(gram_form.imag) <= 1e-10 * energy



@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=15, deadline=None)
@given(**frames)
def test_adjoint_and_gram_outputs_are_hermitian_property(parity, seed, h, L, law):
    # A* of real coefficients and R of a Hermitian Z are Hermitian entry for
    # entry.  The raw kernel fills half the offsets from the other half, so
    # it is Hermitian by construction; it is held against the dense oracle,
    # where a wrong mirror pairing would show.
    d = 2 * h + parity
    frame = _frame(seed, d, L, law)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(d * L)
    Z = random_hermitian(rng, d)
    for out in (apply_A_adjoint(frame, c), apply_R(frame, Z)):
        assert np.array_equal(out, out.conj().T)
    coeffs = _apply_A_any(frame.blocks, Z)
    assert np.isrealobj(coeffs)
    for C in (c.reshape(L, d), coeffs):
        raw = _apply_A_adjoint_any(frame.blocks, C)
        expected = dense_apply_A_adjoint(frame.masks.epsilon, C.reshape(-1))
        assert np.allclose(raw, expected, atol=1e-10 * max(1.0, np.abs(expected).max()))


# ---------------------------------------------------------------------------
# the half-offset kernels and the rank-2 forward values


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [1, 2, 4, 5, 8, 15])
def test_half_adjoint_matches_dense_oracle(d, law):
    # offsets 0..d//2 contracted, the rest mirrored; at even d the offset d/2
    # is its own mirror
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    L = 7
    eps = sample_masks(dist, d, L, seed=40 + d).epsilon
    C = np.random.default_rng(d).standard_normal((L, d))
    expected = dense_apply_A_adjoint(eps, C.reshape(-1))
    blocks = _offset_blocks(eps)
    assert blocks.shape == (d // 2 + 1, L, d)
    half = _apply_A_adjoint_any(blocks, C)
    assert np.allclose(half, expected, atol=1e-12 * max(1.0, np.abs(expected).max()))
    assert np.array_equal(half, half.conj().T)


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [1, 2, 4, 5, 8, 15])
def test_half_forward_matches_dense_oracle(d, law):
    # offsets 0..d//2 contracted and summed with their mirrors by one real
    # inverse FFT: real values, the dense tr(F_{k,l} Z) in apply_A's order
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    L = 7
    masks = sample_masks(dist, d, L, seed=45 + d)
    Z = random_hermitian(np.random.default_rng(d + 1), d)
    expected = dense_apply_A(masks.epsilon, Z)
    vals = _apply_A_any(_offset_blocks(masks.epsilon), Z)
    assert vals.shape == (L, d) and np.isrealobj(vals)
    scale = max(1.0, np.abs(expected).max())
    assert np.allclose(vals.reshape(-1), expected, atol=1e-12 * scale)
    assert np.array_equal(apply_A(MeasurementFrame(masks), Z), vals.reshape(-1))


@pytest.mark.parametrize("law", ["ternary", "five-point"])
@pytest.mark.parametrize("d", [1, 2, 4, 5, 8, 15])
def test_rank2_forward_matches_dense_oracle(d, law):
    # tr(F_{k,l} (x z* + z x*)) from the two masked spectra, for any x and z
    dist = ternary_mask_distribution() if law == "ternary" else five_point_distribution()
    L = 6
    eps = sample_masks(dist, d, L, seed=50 + d).epsilon
    rng = np.random.default_rng(d)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    Q = np.outer(x, z.conj()) + np.outer(z, x.conj())
    expected = dense_apply_A(eps, Q)
    vals = _apply_A_rank2(eps, x, z)
    assert vals.shape == (L, d)
    assert np.allclose(vals.reshape(-1), expected, atol=1e-12 * max(1.0, np.abs(expected).max()))


@pytest.mark.parametrize("d", [3, 8, 15])
def test_rank2_forward_of_a_tangent_element_read_off_Q(d):
    # every Q in the tangent space at x x* is x z* + z x* with
    # z = Qx - (x*Qx) x / 2 (golfing's reading), so the rank-2 values are
    # the block forward values of Q
    rng = np.random.default_rng(60 + d)
    eps = sample_masks(ternary_mask_distribution(), d, 9, seed=d).epsilon
    x = unit_signal(rng, d)
    Q = TangentSpace(x).project(random_hermitian(rng, d))
    z = Q @ x - 0.5 * np.vdot(x, Q @ x).real * x
    assert np.allclose(np.outer(x, z.conj()) + np.outer(z, x.conj()), Q, atol=1e-14)
    expected = _apply_A_any(_offset_blocks(eps), Q)
    assert np.allclose(_apply_A_rank2(eps, x, z), expected, atol=1e-12)


@pytest.mark.parametrize("bad, match", [
    ("complex", "real"), ("complex-zero", "real"), ("nan", "finite"), ("inf", "finite"),
])
def test_apply_A_adjoint_rejects_complex_and_non_finite_coefficients(bad, match):
    frame = MeasurementFrame(sample_masks(ternary_mask_distribution(), 5, 3, seed=41))
    c = np.random.default_rng(41).standard_normal(15)
    if bad == "complex":
        c = c + 1j
    elif bad == "complex-zero":
        c = c.astype(complex)
    else:
        c[4] = np.nan if bad == "nan" else -np.inf
    with pytest.raises(ValueError, match=match):
        apply_A_adjoint(frame, c)
