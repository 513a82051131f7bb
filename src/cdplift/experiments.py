"""Config-driven, seeded experiment harness with CSV output.

Four experiment kinds are supported:

``phase_transition``
    Recovery success rate over a (d, L) grid: sample signal and masks,
    measure, solve the lifted program, extract, and compare up to global
    phase against the 1e-3 success threshold.  A solve that fails with
    ``numpy.linalg.LinAlgError`` is a non-success whose class name fills the
    ``failure`` column; any other exception propagates.
``golfing_rate``
    Certificate construction success rate: golfing_construct followed by a
    from-scratch verify_certificate on every reported success.
``lower_bound``
    The mask-collision simulation behind the coupon-collector argument:
    fraction of trials where some other standard-basis signal produces
    measurements indistinguishable from e_1 under the sampled ternary masks.
``isotropy_audit``
    Exact enumeration deviations for the near-isotropy identity and the
    2-design identity over a grid of dimensions, with even-d failures
    flagged distinctly.

Determinism contract: identical config and base seed produce byte-identical
CSV files except for the wall-time column (always the last column).  Trial
seeds are derived by hashing (d, L, trial) into the base seed, so cells are
uncorrelated and insensitive to execution order; trials run on a bounded
thread pool but output rows are always sorted by (d, L, trial).
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .certify import (
    DualCertificate,
    GolfingParams,
    check_near_isotropy_exact,
    check_two_design_exact,
    golfing_construct,
    verify_certificate,
)
from .diffraction import (
    MaskDistribution,
    MeasurementFrame,
    measure,
    sample_masks,
    ternary_mask_distribution,
)
from .hermitian import phase_aligned_distance
from .solver import SolverConfig, extract_signal, solve_phaselift

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
    "TrialRecord",
    "ExperimentResult",
    "derive_seed",
    "random_unit_signal",
    "run_phase_transition",
    "run_golfing_rate",
    "run_lower_bound",
    "run_lower_bound_experiment",
    "run_isotropy_audit",
    "run_experiment",
]

EXPERIMENT_KINDS = ("phase_transition", "golfing_rate", "lower_bound", "isotropy_audit")

_CSV_SCHEMA_VERSION = 1

_RECOVERY_KINDS = ("phase_transition", "golfing_rate")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field has a config-file key.

    Unknown keys in a config file are rejected rather than ignored, so typos
    cannot silently fall back to defaults.
    """

    experiment: str = "phase_transition"
    d_grid: tuple[int, ...] = (15,)
    L_grid: tuple[int, ...] = (2, 5, 10, 20, 30)
    trials: int = 20
    base_seed: int = 0
    out_dir: str = "results"
    distribution: str = "ternary"
    signal: str = "random"  # or "e1" for the worst-case standard basis signal
    success_threshold: float = 1e-3
    solver_mode: str = "feasibility"
    max_iterations: int = 800
    residual_tolerance: float = 1e-7
    workers: int = 1
    golfing_L1: int | None = None
    golfing_L2: int | None = None
    golfing_L_later: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "d_grid", tuple(int(v) for v in self.d_grid))
        object.__setattr__(self, "L_grid", tuple(int(v) for v in self.L_grid))
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        if not self.d_grid or not self.L_grid:
            raise ValueError("d_grid and L_grid must be non-empty")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.signal not in ("random", "e1"):
            raise ValueError(f"signal must be 'random' or 'e1', got {self.signal!r}")
        if self.distribution != "ternary":
            raise ValueError(f"unknown distribution descriptor {self.distribution!r}")
        if self.experiment in _RECOVERY_KINDS:
            bad = [d for d in self.d_grid if d < 3 or d % 2 == 0]
            if bad:
                raise ValueError(
                    f"recovery experiments need odd d >= 3; offending values {bad}"
                )

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**mapping)

    @classmethod
    def from_yaml(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ValueError(f"config file {path} must hold a flat mapping")
        return cls.from_mapping(data)

    def make_distribution(self) -> MaskDistribution:
        return ternary_mask_distribution()


@dataclass(frozen=True)
class TrialRecord:
    """One recovery trial; ``success`` iff error <= the configured threshold.

    ``failure`` names the exception class of a solve that failed numerically
    (its error is then inf); it is empty on every trial that ran to the end.
    """

    experiment: str
    d: int
    L: int
    trial: int
    seed: int
    success: bool
    recovery_error: float
    iterations: int
    failure: str
    wall_time: float


@dataclass(frozen=True)
class ExperimentResult:
    trial_rows: tuple
    aggregate_rows: tuple
    trial_path: Path | None
    aggregate_path: Path | None


def derive_seed(base_seed: int, *parts) -> int:
    """Derive a per-trial seed: base_seed XOR blake2b(parts), in [0, 2^63)."""
    digest = hashlib.blake2b(repr(tuple(parts)).encode(), digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def random_unit_signal(d: int, rng) -> np.ndarray:
    """A uniform draw from the complex unit sphere in C^d."""
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# CSV plumbing


def _write_csv(path: Path, experiment: str, header: list[str], rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# cdplift-csv v{_CSV_SCHEMA_VERSION} experiment={experiment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    return path


def _format_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # full precision; plain float repr even for np scalars
    return v


def _run_pool(cfg: ExperimentConfig, tasks, worker):
    """Run ``worker`` over ``tasks`` on a bounded pool; results in task order."""
    if cfg.workers == 1:
        return [worker(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(worker, tasks))


# ---------------------------------------------------------------------------
# phase transition


def _recovery_trial(cfg: ExperimentConfig, dist, d: int, L: int, trial: int) -> TrialRecord:
    seed = derive_seed(cfg.base_seed, d, L, trial)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    if cfg.signal == "e1":
        x = np.zeros(d, dtype=complex)
        x[0] = 1.0
    else:
        x = random_unit_signal(d, rng)
    masks = sample_masks(dist, d, L, int(rng.integers(2**63)))
    frame = MeasurementFrame(masks)
    y = measure(x, masks)
    solver_cfg = SolverConfig(
        mode=cfg.solver_mode,
        max_iterations=cfg.max_iterations,
        residual_tolerance=cfg.residual_tolerance,
        trace_target=y.y0 if cfg.solver_mode == "feasibility" else None,
    )
    failure = ""
    try:
        result = solve_phaselift(frame, y, solver_cfg)
        x_hat, _ = extract_signal(result.X_hat)
        error = phase_aligned_distance(x, x_hat)
        iterations = result.iterations_used
    except np.linalg.LinAlgError as exc:
        # a numerical failure is a recorded non-success, never a sweep abort;
        # anything else is a fault in the program and propagates
        failure = type(exc).__name__
        error = math.inf
        iterations = 0
    return TrialRecord(
        experiment=cfg.experiment,
        d=d,
        L=L,
        trial=trial,
        seed=seed,
        success=bool(error <= cfg.success_threshold),
        recovery_error=float(error),
        iterations=iterations,
        failure=failure,
        wall_time=time.perf_counter() - t0,
    )


def run_phase_transition(cfg: ExperimentConfig) -> ExperimentResult:
    """Recovery success rates over the (d, L) grid; per-trial and aggregate CSVs."""
    if cfg.experiment != "phase_transition":
        cfg = replace(cfg, experiment="phase_transition")
    dist = cfg.make_distribution()
    tasks = [
        (d, L, t) for d in cfg.d_grid for L in cfg.L_grid for t in range(cfg.trials)
    ]
    records = _run_pool(cfg, tasks, lambda job: _recovery_trial(cfg, dist, *job))
    records.sort(key=lambda r: (r.d, r.L, r.trial))

    aggregates = []
    for d in cfg.d_grid:
        for L in cfg.L_grid:
            cell = [r for r in records if r.d == d and r.L == L]
            n = len(cell)
            successes = sum(r.success for r in cell)
            finite = [r.recovery_error for r in cell if math.isfinite(r.recovery_error)]
            aggregates.append(
                (
                    d,
                    L,
                    n,
                    successes,
                    successes / n,
                    max(finite) if finite else math.inf,
                    sum(r.iterations for r in cell) / n,
                )
            )

    out = Path(cfg.out_dir)
    trial_path = _write_csv(
        out / "phase_transition_trials.csv",
        "phase_transition",
        ["d", "L", "trial", "seed", "success", "recovery_error", "iterations", "failure",
         "wall_time"],
        [
            (r.d, r.L, r.trial, r.seed, r.success, r.recovery_error, r.iterations, r.failure,
             r.wall_time)
            for r in records
        ],
    )
    agg_path = _write_csv(
        out / "phase_transition_aggregate.csv",
        "phase_transition",
        ["d", "L", "trials", "successes", "success_rate", "max_error", "mean_iterations"],
        aggregates,
    )
    return ExperimentResult(tuple(records), tuple(aggregates), trial_path, agg_path)


# ---------------------------------------------------------------------------
# golfing certificate rate


def _golfing_trial(cfg: ExperimentConfig, dist, d: int, trial: int):
    seed = derive_seed(cfg.base_seed, d, 0, trial)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    x = random_unit_signal(d, rng)
    overrides = {}
    if cfg.golfing_L1 is not None:
        overrides["L1"] = cfg.golfing_L1
    if cfg.golfing_L2 is not None:
        overrides["L2"] = cfg.golfing_L2
    if cfg.golfing_L_later is not None:
        overrides["L_later"] = cfg.golfing_L_later
    params = GolfingParams(**overrides)
    out = golfing_construct(x, dist, params, seed=int(rng.integers(2**63)))
    constructed = isinstance(out, DualCertificate)
    verified = False
    masks_consumed = out.masks.L if constructed else out.masks_sampled
    reason = "" if constructed else out.reason
    if constructed:
        try:
            verified = verify_certificate(out, x).passed
        except Exception as exc:  # integrity failures are recorded, not raised
            reason = str(exc)
    return (
        d,
        trial,
        seed,
        constructed,
        verified,
        masks_consumed,
        len(out.construction_log),
        reason,
        time.perf_counter() - t0,
    )


def run_golfing_rate(cfg: ExperimentConfig) -> ExperimentResult:
    """Certificate success rate vs dimension; every success is re-verified."""
    if cfg.experiment != "golfing_rate":
        cfg = replace(cfg, experiment="golfing_rate")
    dist = cfg.make_distribution()
    tasks = [(d, t) for d in cfg.d_grid for t in range(cfg.trials)]
    rows = _run_pool(cfg, tasks, lambda job: _golfing_trial(cfg, dist, *job))
    rows.sort(key=lambda r: (r[0], r[1]))

    aggregates = []
    for d in cfg.d_grid:
        cell = [r for r in rows if r[0] == d]
        n = len(cell)
        constructed = sum(r[3] for r in cell)
        verified = sum(r[4] for r in cell)
        aggregates.append(
            (d, n, constructed, verified, verified / n, sum(r[5] for r in cell) / n)
        )

    out = Path(cfg.out_dir)
    trial_path = _write_csv(
        out / "golfing_rate_trials.csv",
        "golfing_rate",
        ["d", "trial", "seed", "constructed", "verified", "masks_consumed",
         "attempts", "failure_reason", "wall_time"],
        rows,
    )
    agg_path = _write_csv(
        out / "golfing_rate_aggregate.csv",
        "golfing_rate",
        ["d", "trials", "constructed", "verified", "success_rate", "mean_masks"],
        aggregates,
    )
    return ExperimentResult(tuple(rows), tuple(aggregates), trial_path, agg_path)


# ---------------------------------------------------------------------------
# coupon-collector lower bound


def _collision_trial(dist, d: int, L: int, seed: int) -> bool:
    """Does some other standard-basis signal collide with e_1 in magnitude?

    The measurements of e_j are fully determined by |column j| of the mask
    array, so indistinguishability from e_1 is entrywise equality of the
    magnitude patterns.
    """
    eps = sample_masks(dist, d, L, seed).epsilon
    mags = np.abs(eps)
    return bool(np.any(np.all(mags[:, 1:] == mags[:, :1], axis=0)))


def run_lower_bound(d: int, L: int, trials: int, seed: int) -> float:
    """Monte-Carlo collision probability for ternary masks (Lemma-style setup)."""
    if d < 2 or L < 1 or trials < 1:
        raise ValueError("need d >= 2, L >= 1, trials >= 1")
    dist = ternary_mask_distribution()
    hits = sum(
        _collision_trial(dist, d, L, derive_seed(seed, d, L, t)) for t in range(trials)
    )
    return hits / trials


def run_lower_bound_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """CSV-emitting sweep of the collision probability over the (d, L) grid."""
    if cfg.experiment != "lower_bound":
        cfg = replace(cfg, experiment="lower_bound")
    dist = cfg.make_distribution()
    tasks = [
        (d, L, t) for d in cfg.d_grid for L in cfg.L_grid for t in range(cfg.trials)
    ]

    def worker(job):
        d, L, t = job
        seed = derive_seed(cfg.base_seed, d, L, t)
        t0 = time.perf_counter()
        hit = _collision_trial(dist, d, L, seed)
        return (d, L, t, seed, hit, time.perf_counter() - t0)

    rows = _run_pool(cfg, tasks, worker)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    aggregates = []
    for d in cfg.d_grid:
        for L in cfg.L_grid:
            cell = [r for r in rows if r[0] == d and r[1] == L]
            hits = sum(r[4] for r in cell)
            aggregates.append((d, L, len(cell), hits, hits / len(cell)))

    out = Path(cfg.out_dir)
    trial_path = _write_csv(
        out / "lower_bound_trials.csv",
        "lower_bound",
        ["d", "L", "trial", "seed", "collision", "wall_time"],
        rows,
    )
    agg_path = _write_csv(
        out / "lower_bound_aggregate.csv",
        "lower_bound",
        ["d", "L", "trials", "collisions", "collision_rate"],
        aggregates,
    )
    return ExperimentResult(tuple(rows), tuple(aggregates), trial_path, agg_path)


# ---------------------------------------------------------------------------
# isotropy audit


def run_isotropy_audit(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact near-isotropy and 2-design deviations over d_grid.

    Even dimensions are expected to fail the identities; their rows carry a
    distinct ``even_d_expected_failure`` flag instead of counting as clean
    passes or silent errors.
    """
    if cfg.experiment != "isotropy_audit":
        cfg = replace(cfg, experiment="isotropy_audit")
    dist = cfg.make_distribution()
    rows = []
    for d in cfg.d_grid:
        for check, fn in (
            ("near_isotropy", check_near_isotropy_exact),
            ("two_design", check_two_design_exact),
        ):
            deviation = fn(dist, d)
            passed = deviation <= 1e-12
            flag = "even_d_expected_failure" if (d % 2 == 0 and not passed) else ""
            rows.append((d, check, deviation, passed, flag))

    out = Path(cfg.out_dir)
    path = _write_csv(
        out / "isotropy_audit.csv",
        "isotropy_audit",
        ["d", "check", "deviation", "passed", "flag"],
        rows,
    )
    return ExperimentResult(tuple(rows), tuple(rows), path, path)


_RUNNERS = {
    "phase_transition": run_phase_transition,
    "golfing_rate": run_golfing_rate,
    "lower_bound": run_lower_bound_experiment,
    "isotropy_audit": run_isotropy_audit,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Dispatch on cfg.experiment."""
    return _RUNNERS[cfg.experiment](cfg)
