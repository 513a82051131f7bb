import numpy as np
import pytest

from cdplift.diffraction import (
    MaskSet,
    MeasurementFrame,
    MeasurementVector,
    apply_A,
    measure,
    sample_masks,
    ternary_mask_distribution,
)
from cdplift.hermitian import phase_aligned_distance
from cdplift.solver import (
    _KAPPA_MAX,
    SolverConfig,
    _AffineSet,
    _lstsq_factors,
    extract_signal,
    solve_phaselift,
    verify_feasibility,
)
from util import (
    dense_affine_projection,
    random_hermitian,
    reference_douglas_rachford,
    unit_signal,
)


def make_instance(d, L, seed):
    rng = np.random.default_rng(seed)
    x = unit_signal(rng, d)
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=seed + 10_000)
    return x, MeasurementFrame(masks), measure(x, masks)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="dykstra")
    with pytest.raises(ValueError):
        SolverConfig(mode="feasibility", trace_target=None)  # needs the trace value
    for bad in (0, -5, 2.5, True, "5"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(mode="trace_min", max_iterations=bad)
    assert SolverConfig(mode="trace_min", max_iterations=np.int64(3)).max_iterations == 3


@pytest.mark.parametrize("mode", ["feasibility", "trace_min"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, "1.0", 1.0 + 0j, True])
def test_config_rejects_a_bad_trace_target(mode, bad):
    # trace_target is y0 = ||x||^2: a finite real number >= 0, or None
    with pytest.raises(ValueError, match="trace_target"):
        SolverConfig(mode=mode, trace_target=bad)
    for good in (0.0, 2, np.float64(1.5)):
        assert SolverConfig(mode=mode, trace_target=good).trace_target == good


@pytest.mark.parametrize("d, L", [(5, 20), (6, 24)])
def test_feasibility_recovers_well_conditioned_instance(d, L):
    x, frame, y = make_instance(d, L, seed=0)
    cfg = SolverConfig(mode="feasibility", trace_target=y.y0)
    res = solve_phaselift(frame, y, cfg)
    assert res.converged
    x_hat, gap = extract_signal(res.X_hat)
    assert phase_aligned_distance(x, x_hat) <= 1e-4
    assert gap <= 1e-4
    report = verify_feasibility(frame, y, res.X_hat, y0=y.y0)
    assert report.max_violation <= 1e-5
    assert report.min_eigenvalue >= -1e-8


@pytest.mark.parametrize("d, L", [(5, 3), (5, 8), (6, 4), (6, 9)])
def test_blockwise_projection_matches_dense_oracle(d, L):
    # random intensities: consistent when L < d, least squares when L > d
    rng = np.random.default_rng(d * 100 + L)
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=L)
    y_flat = rng.random(L * d)
    X = random_hermitian(rng, d)
    projected = _AffineSet(MeasurementFrame(masks), y_flat, 1.3).project(X)
    expected = dense_affine_projection(masks.epsilon, y_flat, 1.3, X)
    assert np.max(np.abs(projected - expected)) <= 1e-10


def test_zero_measurements_give_zero_matrix():
    _, frame, _ = make_instance(4, 3, seed=1)
    from cdplift.diffraction import MeasurementVector

    y = MeasurementVector(y=np.zeros((3, 4)), y0=0.0)
    res = solve_phaselift(frame, y, SolverConfig(mode="feasibility", trace_target=0.0))
    assert res.converged
    assert np.allclose(res.X_hat, 0.0, atol=1e-12)
    x_hat, gap = extract_signal(res.X_hat)
    assert np.allclose(x_hat, 0.0)
    assert gap == 0.0


def test_underdetermined_instance_yields_ambiguous_feasible_point():
    # d = 3, L = 1: four measurements cannot pin a 9-parameter matrix; the
    # solver should still find a feasible PSD point, typically of rank > 1
    ambiguous = 0
    for seed in range(6):
        x, frame, y = make_instance(3, 1, seed=100 + seed)
        cfg = SolverConfig(mode="feasibility", trace_target=y.y0, max_iterations=2000)
        res = solve_phaselift(frame, y, cfg)
        report = verify_feasibility(frame, y, res.X_hat, y0=y.y0)
        assert report.max_violation <= 1e-5
        _, gap = extract_signal(res.X_hat)
        if gap > 0.01:
            ambiguous += 1
    assert ambiguous >= 3


def test_feasibility_residual_monotone():
    _, frame, y = make_instance(5, 20, seed=2)
    cfg = SolverConfig(mode="feasibility", trace_target=y.y0)
    res = solve_phaselift(frame, y, cfg)
    hist = np.asarray(res.residual_history)
    assert hist.size >= 1
    increases = np.sum(hist[1:] > hist[:-1] * 1.01)  # 1% slack
    assert increases == 0


def test_recovery_is_phase_invariant():
    x, frame, y = make_instance(7, 25, seed=3)
    res = solve_phaselift(frame, y, SolverConfig(mode="feasibility", trace_target=y.y0))
    x_hat, _ = extract_signal(res.X_hat)
    for phi in (0.0, 1.3, -2.2):
        assert phase_aligned_distance(np.exp(1j * phi) * x, x_hat) <= 1e-4


def test_verify_feasibility_matches_dense_recomputation():
    rng = np.random.default_rng(4)
    x, frame, y = make_instance(4, 3, seed=5)
    X = random_hermitian(rng, 4)
    report = verify_feasibility(frame, y, X, y0=1.0)
    resid = np.abs(apply_A(frame, X) - y.ravel())
    expected_max = max(resid.max(), abs(np.trace(X).real - 1.0))
    assert report.max_violation == pytest.approx(expected_max, rel=1e-12)
    assert report.min_eigenvalue == pytest.approx(np.linalg.eigvalsh(X)[0])
    assert report.trace_deviation == pytest.approx(abs(np.trace(X).real - 1.0))


def test_trace_min_mode_recovers():
    x, frame, y = make_instance(5, 20, seed=6)
    cfg = SolverConfig(mode="trace_min", max_iterations=2000)
    res = solve_phaselift(frame, y, cfg)
    x_hat, _ = extract_signal(res.X_hat)
    assert phase_aligned_distance(x, x_hat) <= 1e-4
    # nuclear-norm minimizer at the true solution has trace ||x||^2 = 1
    assert np.trace(res.X_hat).real == pytest.approx(1.0, abs=1e-3)


def test_solver_reports_failure_without_diverging():
    # d = 15, L = 2 is far below the injectivity threshold: expect a clean
    # non-converged result with a bounded iterate, not a blow-up
    x, frame, y = make_instance(15, 2, seed=7)
    cfg = SolverConfig(mode="feasibility", trace_target=y.y0, max_iterations=300)
    res = solve_phaselift(frame, y, cfg)
    x_hat, _ = extract_signal(res.X_hat)
    assert np.isfinite(res.final_residual)
    assert np.linalg.norm(res.X_hat) <= 10.0
    assert phase_aligned_distance(x, x_hat) > 1e-3  # genuinely not recovered


def test_extract_signal_edge_cases():
    x_hat, gap = extract_signal(np.zeros((3, 3)))
    assert np.allclose(x_hat, 0.0)
    assert gap == 0.0
    with pytest.raises(ValueError):
        extract_signal(np.diag([1.0, -0.5]))  # significantly non-PSD
    _, gap = extract_signal(np.diag([1.0, 0.3, 0.0]))
    assert gap == pytest.approx(0.3)


def test_solve_phaselift_shape_checks():
    # the solver and the feasibility audit share one shape check and message
    _, frame, y = make_instance(4, 3, seed=8)
    for shape in ((3, 5), (2, 4)):
        bad = MeasurementVector(y=np.ones(shape), y0=1.0)
        with pytest.raises(ValueError, match=r"measurement shape .* does not match frame"):
            solve_phaselift(frame, bad, SolverConfig(mode="feasibility", trace_target=1.0))
        with pytest.raises(ValueError, match=r"measurement shape .* does not match frame"):
            verify_feasibility(frame, bad, np.eye(4), y0=1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0, "1.0", 1.0 + 0j, True])
def test_verify_feasibility_rejects_a_bad_y0(bad):
    _, frame, y = make_instance(4, 3, seed=8)
    with pytest.raises(ValueError, match="y0"):
        verify_feasibility(frame, y, np.eye(4), y0=bad)


@pytest.mark.parametrize("d, L", [(5, 3), (5, 8), (6, 4), (6, 9)])
def test_blockwise_projection_without_trace_row_matches_dense_oracle(d, L):
    rng = np.random.default_rng(d * 100 + L + 1)
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=L + 1)
    y_flat = rng.random(L * d)
    X = random_hermitian(rng, d)
    projected = _AffineSet(MeasurementFrame(masks), y_flat, None).project(X)
    expected = dense_affine_projection(masks.epsilon, y_flat, None, X)
    assert np.max(np.abs(projected - expected)) <= 1e-10


@pytest.mark.parametrize("y0", [None, 1.3])
def test_blockwise_residual_matches_forward_map(y0):
    rng = np.random.default_rng(9)
    masks = sample_masks(ternary_mask_distribution(), 6, 5, seed=9)
    frame = MeasurementFrame(masks)
    y_flat = rng.random(30)
    X = random_hermitian(rng, 6)
    residual = apply_A(frame, X) - y_flat
    if y0 is not None:
        residual = np.append(residual, np.trace(X).real - y0)
    expected = np.linalg.norm(residual)
    assert _AffineSet(frame, y_flat, y0).residual(X) == pytest.approx(expected, rel=1e-12)


def test_trace_min_converges_when_the_data_fix_the_solution():
    x, frame, y = make_instance(15, 30, seed=11)
    res = solve_phaselift(frame, y, SolverConfig(mode="trace_min", max_iterations=50))
    assert res.converged
    x_hat, _ = extract_signal(res.X_hat)
    assert phase_aligned_distance(x, x_hat) <= 1e-6


def test_trace_min_minimizes_trace_when_the_data_leave_it_free():
    x, frame, y = make_instance(15, 8, seed=12)
    E0 = frame.blocks[0]  # offset 0: A(X) = y fixes E_0 diag(X), and tr X = 1 . diag(X)
    ones = np.ones(15)
    coef, *_ = np.linalg.lstsq(E0.T, ones, rcond=None)
    assert np.linalg.norm(E0.T @ coef - ones) > 1e-3  # 1 is not in rowspace(E_0)
    res = solve_phaselift(frame, y, SolverConfig(mode="trace_min"))
    assert res.converged
    report = verify_feasibility(frame, y, res.X_hat)
    assert report.relative_violation <= 1e-6
    assert report.min_eigenvalue >= -1e-10
    # x x* is feasible, so the minimum trace is at most ||x||^2
    assert np.trace(res.X_hat).real <= np.linalg.norm(x) ** 2 + 1e-6


@pytest.mark.parametrize("mode", ["feasibility", "trace_min"])
@pytest.mark.parametrize("L", [10, 30])
@pytest.mark.parametrize("sigma", [1e-2, 1e-4])
def test_noisy_intensities_give_a_stable_estimate(mode, L, sigma):
    # relative Gaussian noise makes A(X) = y inconsistent on the PSD cone: the
    # solve runs to its cap and must still return a bounded PSD estimate
    x, frame, y = make_instance(15, L, seed=13)
    rng = np.random.default_rng(14)
    noisy = MeasurementVector(y=np.abs(y.y * (1 + sigma * rng.standard_normal(y.y.shape))), y0=y.y0)
    cfg = SolverConfig(mode=mode, max_iterations=300, trace_target=y.y0)
    res = solve_phaselift(frame, noisy, cfg)
    assert not res.converged
    assert np.all(np.isfinite(res.X_hat))
    assert np.linalg.eigvalsh(res.X_hat)[0] >= -1e-10
    assert np.linalg.norm(res.X_hat) <= 2 * y.y0
    x_hat, _ = extract_signal(res.X_hat)
    assert phase_aligned_distance(x, x_hat) <= 5 * sigma


# Which of the offsets 0..d//2 take the Gram path of _lstsq_factors, by case:
# tall well-conditioned blocks; a position masked to 0 in every mask (a zero
# column in every block but the one the trace row joins); even d (offset d/2
# has equal columns); wide blocks; and d = 7, L = 6, where only the trace row
# makes block 0 square.  The others are the blocks with a null space.
@pytest.mark.parametrize(
    "d, L, zero_column, y0, gram_offsets",
    [
        (15, 30, False, None, range(8)),
        (15, 30, False, 1.3, range(8)),
        (15, 30, True, None, ()),
        (15, 30, True, 1.3, (0,)),  # the trace row fills column 3 of block 0
        (6, 24, False, None, (0, 1, 2)),
        (6, 24, False, 1.3, (0, 1, 2)),
        (15, 10, False, None, ()),
        (15, 10, False, 1.3, ()),
        (7, 6, False, None, ()),
        (7, 6, False, 1.3, (0,)),
    ],
    ids=[f"{case}-{row}" for case in ("tall", "zero-column", "even-d", "wide", "mixed")
         for row in ("no-trace-row", "trace-row")],
)
def test_every_factorisation_branch_matches_dense_oracle(d, L, zero_column, y0, gram_offsets):
    rng = np.random.default_rng(d * 100 + L)
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=L + 2)
    if zero_column:
        eps = masks.epsilon.copy()
        eps[:, 3] = 0.0
        masks = MaskSet(epsilon=eps, distribution=masks.distribution)
    y_flat = rng.random(L * d)
    X = random_hermitian(rng, d)
    aff = _AffineSet(MeasurementFrame(masks), y_flat, y0)
    assert [m for m in range(d // 2 + 1) if m not in aff._null] == list(gram_offsets)
    assert aff.is_point == (len(gram_offsets) == d // 2 + 1)
    expected = dense_affine_projection(masks.epsilon, y_flat, y0, X)
    projected = aff.project(X)
    assert np.max(np.abs(projected - expected)) <= 1e-10
    assert np.array_equal(projected, projected.conj().T)  # the mirror fill


def test_block_beyond_the_condition_gate_takes_the_svd():
    # kappa_2 = 1e6 is full rank, but the normal equations would lose about
    # kappa^2 eps = 1e-4 of the shift
    rng = np.random.default_rng(21)
    E = rng.standard_normal((3, 10, 6))
    U, _, Vt = np.linalg.svd(E[1], full_matrices=False)
    E[1] = U @ np.diag(np.logspace(0, -6, 6)) @ Vt
    t = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    keep, shift = _lstsq_factors(E, t, np.ones(len(E), dtype=bool))
    pinv = np.linalg.pinv(E, rcond=10 * np.finfo(float).eps)
    expected = (pinv @ t[..., None])[..., 0]
    assert np.linalg.norm(shift - expected) <= 1e-10 * np.linalg.norm(expected)
    assert not keep[[0, 2]].any()  # the well-conditioned blocks take the Gram path
    assert np.max(np.abs(keep[1])) <= 1e-10  # full rank: no null space either way


@pytest.mark.parametrize("mode", ["feasibility", "trace_min"])
def test_full_rank_blocks_beyond_the_condition_gate_make_a_point(mode):
    # every half block has full column rank, but some fail the kappa gate and
    # take the SVD, whose keep_m is roundoff: the rank, read off tr keep_m,
    # says that no block has a null space, so the loop starts at the fixed
    # point and ends after one sweep
    masks = sample_masks(ternary_mask_distribution(), 25, 25, seed=3)
    frame = MeasurementFrame(masks)
    assert [np.linalg.matrix_rank(E) for E in frame.blocks] == [25] * 13
    assert np.max(np.linalg.cond(frame.blocks)) > _KAPPA_MAX
    x = unit_signal(np.random.default_rng(3), 25)
    y = measure(x, masks)
    y0 = y.y0 if mode == "feasibility" else None
    aff = _AffineSet(frame, y.ravel(), y0)
    assert aff.is_point and aff._null.size == 0
    res = solve_phaselift(frame, y, SolverConfig(mode=mode, trace_target=y0, max_iterations=10))
    assert res.converged and res.iterations_used == 1
    x_hat, _ = extract_signal(res.X_hat)
    assert phase_aligned_distance(x, x_hat) <= 1e-9


# The solver against a Douglas-Rachford loop on dense oracles: the affine
# projection by least squares over an orthonormal Hermitian basis, the data
# residual from the dense forward map, and a fixed-point start read off the
# rank of the dense constraint matrix.  Cases: a point frame in both modes
# (one sweep from X0 - rho Id), even d (offset d/2 has a null space on the
# Hermitian matrices), and wide blocks.
@pytest.mark.parametrize(
    "d, L, mode, point",
    [
        (5, 20, "trace_min", True),
        (5, 20, "feasibility", True),
        (6, 24, "trace_min", False),
        (5, 4, "feasibility", False),
        (5, 4, "trace_min", False),
    ],
)
def test_solver_follows_the_dense_douglas_rachford_loop(d, L, mode, point):
    x, frame, y = make_instance(d, L, seed=40 + d + L)
    y0 = y.y0 if mode == "feasibility" else None
    cfg = SolverConfig(mode=mode, trace_target=y0, max_iterations=400)
    res = solve_phaselift(frame, y, cfg)
    ref = reference_douglas_rachford(frame.masks.epsilon, frame.distribution.nu,
                                     y.ravel(), y0, cfg.max_iterations)
    assert ref.point == point
    assert res.converged and ref.converged
    assert res.iterations_used == ref.iterations_used
    if point:
        assert res.iterations_used == 1
    scale = np.linalg.norm(ref.X_hat)
    assert np.linalg.norm(res.X_hat - ref.X_hat) <= 1e-10 * scale


def test_condition_gate_is_a_true_bound():
    # blocks of known kappa_2 from their SVD, and one singular block (two
    # equal columns), which makes the batched Cholesky of the stack fail
    rng = np.random.default_rng(22)
    kappas = (10, 100, 900, 1.1e3, 1e4)
    E = rng.standard_normal((len(kappas) + 1, 10, 6))
    for m, kappa in enumerate(kappas):
        U, _, Vt = np.linalg.svd(E[m], full_matrices=False)
        E[m] = U @ np.diag(np.geomspace(1, 1 / kappa, 6)) @ Vt
    E[-1, :, 5] = E[-1, :, 0]
    t = rng.standard_normal((len(E), 10)) + 1j * rng.standard_normal((len(E), 10))
    keep, shift = _lstsq_factors(E, t, np.ones(len(E), dtype=bool))
    gram = np.array([not k.any() for k in keep])  # keep_m = 0 exactly on the Gram path
    assert np.all(np.linalg.cond(E[gram]) <= _KAPPA_MAX)
    assert gram[:2].all() and not gram[3:].any()
    # the batched failure leaves every block where a gate of its own puts it
    alone = [not _lstsq_factors(E[m:m + 1], t[m:m + 1], np.ones(1, dtype=bool))[0].any()
             for m in range(len(E))]
    assert gram.tolist() == alone
    pinv = np.linalg.pinv(E, rcond=10 * np.finfo(float).eps)
    expected = (pinv @ t[..., None])[..., 0]
    assert np.linalg.norm(shift - expected) <= 1e-9 * np.linalg.norm(expected)


# Blocks that cannot have full column rank skip the gate: at L = d - 1 the
# zero trace row makes every m != 0 block square with d - 1 nonzero rows, and
# at even d offset d/2 has the equal columns a, a + d/2.  The other blocks pass
# one batched Cholesky, with no per-block fallback.
@pytest.mark.parametrize(
    "d, L, y0, gated, null",
    [(15, 14, 1.0, (1, 15, 15), range(1, 8)), (16, 32, None, (8, 16, 16), (8,))],
    ids=["square-with-zero-row", "even-d"],
)
def test_blocks_that_cannot_have_full_rank_skip_the_gate(d, L, y0, gated, null, monkeypatch):
    stacks = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda S: stacks.append(S.shape) or cholesky(S))
    masks = sample_masks(ternary_mask_distribution(), d, L, seed=L)
    aff = _AffineSet(MeasurementFrame(masks), np.ones(d * L), y0)
    assert stacks == [gated]
    assert aff._null.tolist() == list(null)


@pytest.mark.parametrize("mode", ["feasibility", "trace_min"])
def test_a_point_solve_takes_one_eigendecomposition_per_sweep(mode, monkeypatch):
    # (15, 30) is a point case: the set-up factors every block by its normal
    # equations behind one batched Cholesky gate, and each sweep's PSD step
    # is the only eigendecomposition
    x, frame, y = make_instance(15, 30, seed=11)
    cfg = SolverConfig(mode=mode, trace_target=y.y0 if mode == "feasibility" else None)
    calls = {}
    for name in ("eigh", "eigvalsh", "pinv", "svd", "cholesky", "solve"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    res = solve_phaselift(frame, y, cfg)
    assert res.converged and res.iterations_used == 1
    assert calls == {"cholesky": 1, "solve": 1, "eigh": res.iterations_used}
