"""Acceptance gate: one test per shipping criterion.

Each test prints exactly one ``ACCEPTANCE nn: PASS/FAIL`` line (visible even
under captured output) and then asserts, so a red criterion is both visible in
the run log and fails the suite.  Tolerances are pinned in-line; shared
expensive artifacts (the recovery sweep, the golfing batch) are module-scoped
fixtures reused across criteria.
"""

import csv
import math
import time

import numpy as np
import pytest

from cdplift.certify import (
    DualCertificate,
    GolfingParams,
    certify_optimality,
    check_near_isotropy_exact,
    check_two_design_exact,
    golfing_construct,
    injectivity_spectrum,
    variance_bound_check,
    truncation_statistics,
    verify_certificate,
)
from cdplift.diffraction import (
    MeasurementFrame,
    apply_A,
    apply_A_adjoint,
    apply_R,
    crt_frequency,
    crt_relabeling,
    dft_vector,
    measure,
    sample_masks,
    ternary_mask_distribution,
)
from cdplift.experiments import (
    ExperimentConfig,
    run_isotropy_audit,
    run_lower_bound,
    run_lower_bound_experiment,
    run_phase_transition,
)
from cdplift.hermitian import phase_aligned_distance
from cdplift.solver import SolverConfig, extract_signal, solve_phaselift
from util import dft2_vector, random_hermitian, random_tangent, unit_signal

DIST = ternary_mask_distribution()


def report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {n} failed: {detail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def recovery_sweep(tmp_path_factory):
    """d = 15 success rates over L in {2, 5, 10, 20, 30}, 20 seeds per cell."""
    cfg = ExperimentConfig(
        experiment="phase_transition",
        d_grid=(15,),
        L_grid=(2, 5, 10, 20, 30),
        trials=20,
        base_seed=2026,
        max_iterations=800,
        out_dir=str(tmp_path_factory.mktemp("sweep")),
    )
    return run_phase_transition(cfg)


@pytest.fixture(scope="module")
def golfing_batch():
    """50 independent golfing runs at d = 15 with the calibrated defaults."""
    runs = []
    for i in range(50):
        rng = np.random.default_rng(10_000 + i)
        x = unit_signal(rng, 15)
        out = golfing_construct(x, DIST, GolfingParams(), seed=20_000 + i)
        runs.append((x, out))
    return runs


# ---------------------------------------------------------------------------
# criteria


def test_c01_near_isotropy_exact(capsys):
    t0 = time.perf_counter()
    worst = max(check_near_isotropy_exact(DIST, d) for d in (3, 5))
    dt = time.perf_counter() - t0
    report(
        capsys, 1, worst <= 1e-12 and dt < 10.0,
        f"E[R] enumeration deviation {worst:.2e} <= 1e-12 at d in {{3,5}} ({dt:.2f}s < 10s)",
    )


def test_c02_two_design_exact(capsys):
    t0 = time.perf_counter()
    dev = check_two_design_exact(DIST, 3)
    dt = time.perf_counter() - t0
    report(
        capsys, 2, dev <= 1e-12 and dt < 30.0,
        f"2-design identity deviation {dev:.2e} <= 1e-12 at d=3 ({dt:.2f}s < 30s)",
    )


def test_c03_even_dimension_fails(capsys):
    dev = check_near_isotropy_exact(DIST, 4)
    report(
        capsys, 3, dev > 1e-6,
        f"d=4 enumeration deviates by {dev:.3f} > 1e-6 (odd d is necessary)",
    )


def test_c04_lifting_adjoint_consistency(capsys):
    worst_lift, worst_pair = 0.0, 0.0
    for d in (3, 5, 15):
        rng = np.random.default_rng(d)
        masks = sample_masks(DIST, d, 4, seed=d)
        frame = MeasurementFrame(masks)
        for _ in range(20):
            x = unit_signal(rng, d)
            lifted = apply_A(frame, np.outer(x, x.conj()))
            direct = measure(x, masks).ravel()
            scale = max(float(np.max(np.abs(direct))), 1e-300)
            worst_lift = max(worst_lift, float(np.max(np.abs(lifted - direct))) / scale)
        for _ in range(100):
            Z = random_hermitian(rng, d)
            w = rng.standard_normal(4 * d)
            lhs = float(np.dot(apply_A(frame, Z), w))
            rhs = float(np.trace(Z @ apply_A_adjoint(frame, w)).real)
            denom = max(abs(lhs), abs(rhs), 1.0)
            worst_pair = max(worst_pair, abs(lhs - rhs) / denom)
    ok = worst_lift <= 1e-9 and worst_pair <= 1e-9
    report(
        capsys, 4, ok,
        f"apply_A(xx*) vs measure rel dev {worst_lift:.2e}, adjoint pairing dev "
        f"{worst_pair:.2e} (both <= 1e-9, d in {{3,5,15}}, 100 pairs each)",
    )


def test_c05_recovery_at_30_masks(capsys, recovery_sweep):
    cell = [r for r in recovery_sweep.trial_rows if r.L == 30]
    successes = sum(r.success for r in cell)
    worst = max(r.recovery_error for r in cell)
    report(
        capsys, 5, len(cell) == 20 and successes >= 19,
        f"d=15 L=30: {successes}/20 recoveries with error <= 1e-3 (worst {worst:.2e})",
    )


def test_c06_success_rate_scaling(capsys, recovery_sweep):
    rates = {}
    for L in (2, 5, 10, 20, 30):
        cell = [r for r in recovery_sweep.trial_rows if r.L == L]
        rates[L] = sum(r.success for r in cell) / len(cell)
    n = 20
    ok = True
    for lo, hi in zip((2, 5, 10, 20), (5, 10, 20, 30)):
        p0, p1 = rates[lo], rates[hi]
        sigma = math.sqrt(p0 * (1 - p0) / n + p1 * (1 - p1) / n)
        if p1 < p0 - 2 * sigma:
            ok = False
    pretty = " ".join(f"L={L}:{rates[L]:.2f}" for L in (2, 5, 10, 20, 30))
    report(capsys, 6, ok, f"success rate non-decreasing up to 2 sigma ({pretty})")


def test_c07_robust_injectivity(capsys):
    d, L = 7, 200
    hits = 0
    worst_quad = 0.0
    margin_ok = True
    for s in range(10):
        rng = np.random.default_rng(600 + s)
        x = unit_signal(rng, d)
        frame = MeasurementFrame(sample_masks(DIST, d, L, seed=700 + s))
        rep = injectivity_spectrum(frame, x, seed=s)
        hits += rep.passes_quarter_bound
        for _ in range(5):  # 50 tangent directions in total
            Z = random_tangent(rng, x)
            lhs = float(np.trace(Z @ apply_R(frame, Z)).real)
            rhs = float(np.sum(apply_A(frame, Z) ** 2)) / (DIST.nu**2 * d * L)
            worst_quad = max(worst_quad, abs(lhs - rhs) / max(abs(rhs), 1e-300))
        for _ in range(10):  # 100 upper-bound probes in total
            Z = random_tangent(rng, x)
            energy = float(np.sum(apply_A(frame, Z) ** 2)) / (d * L)
            if energy > DIST.b**4 * d * float(np.linalg.norm(Z)) ** 2 + 1e-12:
                margin_ok = False
    ok = hits >= 9 and worst_quad <= 1e-9 and margin_ok
    report(
        capsys, 7, ok,
        f"quarter bound in {hits}/10 runs, quadratic identity dev {worst_quad:.2e} "
        f"<= 1e-9 on 50 Z, upper bound violated on 0/100 Z",
    )


def test_c08_variance_bounds(capsys):
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(20):
        x = unit_signal(rng, 3)
        chk = variance_bound_check(DIST, x, random_tangent(rng, x))
        violations += not chk.satisfied
    report(
        capsys, 8, violations == 0,
        f"30/60 b^8/nu^4 second-moment bounds: {violations} violations in 20 "
        f"exact-enumeration instances at d=3",
    )


def test_c09_truncation_tail(capsys):
    d, gamma = 31, 1.0
    L = math.ceil(10**5 / d)  # 100_006 Monte-Carlo terms
    rng = np.random.default_rng(9)
    x = unit_signal(rng, d)
    frame = MeasurementFrame(sample_masks(DIST, d, L, seed=31))
    st = truncation_statistics(frame, np.outer(x, x.conj()), gamma)
    p = st.bound
    sigma = math.sqrt(p * (1 - p) / st.total_terms)
    ok = st.total_terms >= 10**5 and st.empirical_prob <= p + 3 * sigma
    report(
        capsys, 9, ok,
        f"empirical Pr[exceed] {st.empirical_prob:.2e} <= 4*31^-1 + 3 sigma = "
        f"{p + 3 * sigma:.4f} over {st.total_terms} terms",
    )


def test_c10_golfing_end_to_end(capsys, golfing_batch):
    constructed = 0
    discrepancies = 0
    certified = 0
    replay_hits = 0
    for x, out in golfing_batch:
        if not isinstance(out, DualCertificate):
            continue
        constructed += 1
        try:
            check = verify_certificate(out, x)
        except Exception:
            discrepancies += 1
            continue
        if not (out.passed and check.passed):
            discrepancies += 1
            continue
        frame = MeasurementFrame(out.masks)
        inj = injectivity_spectrum(frame, x, seed=0, probes=20)
        verdict = certify_optimality(x, frame, out, inj)
        if not verdict.certified:
            continue
        certified += 1
        y = measure(x, out.masks)
        cfg = SolverConfig(mode="feasibility", max_iterations=400, trace_target=y.y0)
        x_hat, _ = extract_signal(solve_phaselift(frame, y, cfg).X_hat)
        replay_hits += phase_aligned_distance(x, x_hat) <= 1e-3
    ok = (
        constructed >= 40
        and discrepancies == 0
        and certified > 0
        and replay_hits >= math.ceil(0.95 * certified)
    )
    report(
        capsys, 10, ok,
        f"{constructed}/50 constructions, {discrepancies} verify discrepancies, "
        f"{replay_hits}/{certified} certified instances recovered <= 1e-3 by replay",
    )


def test_c11_lower_bound(capsys):
    trials = 10**4
    rate_small = run_lower_bound(3, 1, trials=trials, seed=11)
    sigma = math.sqrt(0.75 * 0.25 / trials)
    small_ok = abs(rate_small - 0.75) <= 3 * sigma
    rate_large = run_lower_bound(64, 2, trials=trials, seed=12)
    ok = small_ok and rate_large >= 0.99
    report(
        capsys, 11, ok,
        f"d=3 L=1 collision rate {rate_small:.4f} within 3 sigma of 3/4; "
        f"d=64 L=2 rate {rate_large:.4f} >= 0.99 over 10^4 trials",
    )


def test_c12_crt_relabeling(capsys):
    d1, d2 = 3, 5
    perm = crt_relabeling(d1, d2)
    worst = 0.0
    for k in range(1, d1 + 1):
        for l in range(1, d2 + 1):
            m = crt_frequency(d1, d2, k, l)
            dev = np.max(np.abs(dft2_vector(d1, d2, k, l) - dft_vector(15, m)[perm]))
            worst = max(worst, float(dev))
    report(
        capsys, 12, worst <= 1e-12,
        f"2-D DFT basis (3,5) equals relabeled 1-D basis of dim 15, dev {worst:.2e}",
    )


def _strip_wall(path):
    with open(path, "r", encoding="utf-8") as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    head, data = rows[0], rows[1:]
    if head[-1] == "wall_time":
        data = [r[:-1] for r in data]
        head = head[:-1]
    return comment, head, data


def test_c13_determinism(capsys, tmp_path):
    runs = []
    for tag in ("a", "b"):
        base = tmp_path / tag
        lb = run_lower_bound_experiment(ExperimentConfig(
            experiment="lower_bound", d_grid=(3,), L_grid=(1, 2), trials=30,
            base_seed=13, out_dir=str(base / "lb"),
        ))
        iso = run_isotropy_audit(ExperimentConfig(
            experiment="isotropy_audit", d_grid=(3, 4), out_dir=str(base / "iso"),
        ))
        pt = run_phase_transition(ExperimentConfig(
            experiment="phase_transition", d_grid=(3,), L_grid=(2, 8), trials=3,
            base_seed=13, max_iterations=600, out_dir=str(base / "pt"),
        ))
        paths = [lb.trial_path, lb.aggregate_path, iso.trial_path,
                 pt.trial_path, pt.aggregate_path]
        runs.append([_strip_wall(p) for p in paths])
    ok = runs[0] == runs[1]
    report(
        capsys, 13, ok,
        "rerun CSVs byte-identical (wall-time column excluded) across "
        "lower-bound, isotropy-audit, and phase-transition experiments",
    )
