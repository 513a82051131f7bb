"""Config-driven, seeded experiment harness with CSV output.

Four experiment kinds are supported:

``phase_transition``
    Recovery success rate over a (d, L) grid, any d >= 1: sample signal and
    masks, then ``_recover`` (measure, solve the lifted program, extract),
    and compare up to global phase against the 1e-3 success threshold.  A
    solve that fails with ``numpy.linalg.LinAlgError`` is a non-success
    whose class name fills the ``failure`` column; any other exception
    propagates.
``golfing_rate``
    Certificate construction success rate over odd d >= 3: ``_golf``, that
    is golfing_construct followed by a from-scratch verify_certificate on
    every reported success.  A ``CertificateIntegrityError`` fills
    ``failure_reason``; any other exception propagates.
``lower_bound``
    The mask-collision simulation behind the coupon-collector argument:
    fraction of trials where some other standard-basis signal produces
    measurements indistinguishable from e_1 under the sampled ternary masks.
``isotropy_audit``
    Exact enumeration deviations for the near-isotropy identity and the
    2-design identity over a grid of dimensions, with even-d failures
    flagged distinctly.

``cdplift recover`` and ``cdplift certify`` run ``_recover`` and ``_golf``
too, with seeds of their own.  Every experiment draws its masks from the
ternary law.  The first three share one sweep (``_sweep``): a trial function
runs for every grid cell and trial index, and returns the columns after
(cell, trial); a per-cell summary returns the aggregate columns after
(cell, trials).  Each CSV row is a namedtuple whose fields are the CSV
header.  ``<kind>_trials.csv`` holds the per-trial rows and
``<kind>_aggregate.csv`` one row per cell, in grid order.

Determinism contract: identical config and base seed produce byte-identical
CSV files except for the wall-time column (always the last column).  Trial
seeds are derived by hashing (d, L, trial) into the base seed, so cells are
uncorrelated and insensitive to execution order, and output rows are
always sorted by (cell, trial).
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import time
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import yaml

from .certify import (
    _ENUMERATION_BUDGET,
    CertificateIntegrityError,
    DualCertificate,
    GolfingParams,
    _enumeration_fits,
    check_near_isotropy_exact,
    golfing_construct,
    verify_certificate,
)
from .diffraction import (
    MeasurementFrame,
    _draw_entries,
    measure,
    sample_masks,
    ternary_mask_distribution,
)
from .hermitian import phase_aligned_distance
from .policy import _check_count, _check_counts, _check_type, _is_int
from .solver import _MODES, SolverConfig, extract_signal, solve_phaselift

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentConfig",
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

_DIST = ternary_mask_distribution()

#: a recovery succeeds iff its phase-aligned error is at most this
_SUCCESS_THRESHOLD = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; every field has a config-file key.

    Unknown keys in a config file are rejected rather than ignored, so typos
    cannot silently fall back to defaults; so are values of the wrong type or
    out of range, with a ValueError that names the key.
    """

    experiment: str = "phase_transition"
    d_grid: tuple[int, ...] = (15,)
    L_grid: tuple[int, ...] = (2, 5, 10, 20, 30)
    trials: int = 20
    base_seed: int = 0
    out_dir: str = "results"
    signal: str = "random"  # or "e1" for the worst-case standard basis signal
    solver_mode: str = "feasibility"
    max_iterations: int = 800
    golfing_L1: int = GolfingParams.L1
    golfing_L2: int = GolfingParams.L2
    golfing_L_later: int = GolfingParams.L_later

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; expected one of {EXPERIMENT_KINDS}"
            )
        for key in ("d_grid", "L_grid"):
            values = getattr(self, key)
            if not (isinstance(values, (list, tuple)) and values
                    and all(_is_int(v) and v >= 1 for v in values)):
                raise ValueError(f"{key} must be a non-empty list of integers >= 1, got {values!r}")
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"{key} must not repeat a value; repeated {repeated}")
            object.__setattr__(self, key, tuple(map(int, values)))
        _check_counts(self, "trials", "max_iterations",
                      "golfing_L1", "golfing_L2", "golfing_L_later")
        if not _is_int(self.base_seed):
            raise ValueError(f"base_seed must be an integer, got {self.base_seed!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise ValueError(f"out_dir must be a path, got {self.out_dir!r}")
        if self.signal not in ("random", "e1"):
            raise ValueError(f"signal must be 'random' or 'e1', got {self.signal!r}")
        if self.solver_mode not in _MODES:
            raise ValueError(f"solver_mode must be one of {_MODES}, got {self.solver_mode!r}")
        if self.experiment == "lower_bound" and min(self.d_grid) < 2:
            raise ValueError(f"lower_bound needs d >= 2; d_grid is {list(self.d_grid)}")
        if self.experiment == "isotropy_audit":
            bad = [d for d in self.d_grid if not _enumeration_fits(_DIST, d)]
            if bad:
                raise ValueError(
                    f"isotropy_audit d_grid exceeds the exact enumeration budget of "
                    f"{_ENUMERATION_BUDGET} mask realizations; offending values {bad}"
                )
        if self.experiment == "golfing_rate":
            bad = [d for d in self.d_grid if d < 3 or d % 2 == 0]
            if bad:
                raise ValueError(f"golfing_rate needs odd d >= 3; offending values {bad}")

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


@dataclass(frozen=True)
class ExperimentResult:
    trial_rows: tuple
    aggregate_rows: tuple
    trial_path: Path | None
    aggregate_path: Path | None


def derive_seed(base_seed: int, *parts) -> int:
    """Derive a per-trial seed: base_seed XOR blake2b(parts), in [0, 2^63);
    ``base_seed`` may be any integer, negative ones included."""
    if not _is_int(base_seed):
        raise ValueError(f"base_seed must be an integer, got {base_seed!r}")
    digest = hashlib.blake2b(repr(tuple(parts)).encode(), digest_size=8).digest()
    return (int(base_seed) ^ int.from_bytes(digest, "big")) & (2**63 - 1)


def random_unit_signal(d: int, rng) -> np.ndarray:
    """A uniform draw from the complex unit sphere in C^d, d an integer >= 1."""
    _check_count("d", d)
    _check_type("rng", rng, np.random.Generator)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return x / np.linalg.norm(x)


# ---------------------------------------------------------------------------
# CSV plumbing and the shared sweep


def _write_csv(path: Path, experiment: str, header, rows) -> Path:
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


def _trial_rows(cfg: ExperimentConfig, cells, trial, Row) -> list:
    """``Row(*cell, t, *trial(cfg, *cell, t), wall_time)`` for every cell and
    t < cfg.trials, sorted by (cell, t)."""
    rows = []
    for cell in cells:
        for t in range(cfg.trials):
            t0 = time.perf_counter()
            values = trial(cfg, *cell, t)
            rows.append(Row(*cell, t, *values, time.perf_counter() - t0))
    return sorted(rows, key=lambda r: r[: len(cells[0]) + 1])


def _as_kind(cfg: ExperimentConfig, kind: str) -> ExperimentConfig:
    """``cfg`` for experiment ``kind``, checked before any field is read:
    TypeError naming cfg unless it is an ExperimentConfig, and the replace
    re-runs the kind's checks, e.g. odd d or the enumeration budget."""
    _check_type("cfg", cfg, ExperimentConfig)
    return replace(cfg, experiment=kind)


def _sweep(cfg, kind, grid, trial, Row, summary, Aggregate) -> ExperimentResult:
    """Run ``trial`` over the cells ``grid(cfg)``; write ``<kind>_trials.csv``
    and ``<kind>_aggregate.csv``, whose rows per cell are
    ``Aggregate(*cell, trials, *summary(cell_rows))``."""
    cfg = _as_kind(cfg, kind)
    cells = grid(cfg)
    rows = _trial_rows(cfg, cells, trial, Row)
    by_cell = {}
    for r in rows:
        by_cell.setdefault(r[: len(cells[0])], []).append(r)
    aggregates = [Aggregate(*c, len(by_cell[c]), *summary(by_cell[c])) for c in cells]
    out = Path(cfg.out_dir)
    return ExperimentResult(
        tuple(rows),
        tuple(aggregates),
        _write_csv(out / f"{kind}_trials.csv", kind, Row._fields, rows),
        _write_csv(out / f"{kind}_aggregate.csv", kind, Aggregate._fields, aggregates),
    )


def _grid(cfg: ExperimentConfig) -> list:
    return [(d, L) for d in cfg.d_grid for L in cfg.L_grid]


def _dims(cfg: ExperimentConfig) -> list:
    return [(d,) for d in cfg.d_grid]


# ---------------------------------------------------------------------------
# phase transition

_PhaseTrial = namedtuple(
    "_PhaseTrial",
    "d L trial seed success recovery_error iterations failure wall_time",
)
_PhaseCell = namedtuple(
    "_PhaseCell", "d L trials successes success_rate max_error mean_iterations"
)


def _recover(x, masks, mode: str, max_iterations: int):
    """Measure ``x`` through ``masks``, solve and extract: (frame, y, result,
    gap, error, failure), ``error`` phase-aligned against ``x``.  ``failure``
    names the class of a ``numpy.linalg.LinAlgError`` (``result`` is then
    None, ``gap`` and ``error`` inf) or is empty; other exceptions propagate.
    """
    frame = MeasurementFrame(masks)
    y = measure(x, masks)
    cfg = SolverConfig(mode=mode, max_iterations=max_iterations,
                       trace_target=y.y0 if mode == "feasibility" else None)
    try:
        result = solve_phaselift(frame, y, cfg)
        x_hat, gap = extract_signal(result.X_hat)
        return frame, y, result, gap, phase_aligned_distance(x, x_hat), ""
    except np.linalg.LinAlgError as exc:
        return frame, y, None, math.inf, math.inf, type(exc).__name__


def _recovery_trial(cfg: ExperimentConfig, d: int, L: int, trial: int):
    """(seed, success, recovery_error, iterations, failure) of one ``_recover``;
    ``success`` iff the error is at most ``_SUCCESS_THRESHOLD``, and a failed
    solve ran 0 iterations."""
    seed = derive_seed(cfg.base_seed, d, L, trial)
    rng = np.random.default_rng(seed)
    if cfg.signal == "e1":
        x = np.zeros(d, dtype=complex)
        x[0] = 1.0
    else:
        x = random_unit_signal(d, rng)
    masks = sample_masks(_DIST, d, L, int(rng.integers(2**63)))
    _, _, result, _, error, failure = _recover(x, masks, cfg.solver_mode, cfg.max_iterations)
    iterations = result.iterations_used if result is not None else 0
    return seed, bool(error <= _SUCCESS_THRESHOLD), float(error), iterations, failure


def _recovery_summary(rows):
    n = len(rows)
    successes = sum(r.success for r in rows)
    finite = [r.recovery_error for r in rows if math.isfinite(r.recovery_error)]
    return (
        successes,
        successes / n,
        max(finite, default=math.inf),
        sum(r.iterations for r in rows) / n,
    )


def run_phase_transition(cfg: ExperimentConfig) -> ExperimentResult:
    """Recovery success rates over the (d, L) grid; per-trial and aggregate CSVs."""
    return _sweep(cfg, "phase_transition", _grid, _recovery_trial, _PhaseTrial,
                  _recovery_summary, _PhaseCell)


# ---------------------------------------------------------------------------
# golfing certificate rate

_GolfingTrial = namedtuple(
    "_GolfingTrial",
    "d trial seed constructed verified masks_consumed attempts failure_reason wall_time",
)
_GolfingCell = namedtuple(
    "_GolfingCell", "d trials constructed verified success_rate mean_masks"
)


def _golf(x, params: GolfingParams, seed: int):
    """Golfing for ``x`` with masks from ``seed``, then ``verify_certificate``
    on the union frame: (golfing's output, frame, rebuilt certificate, reason).
    ``reason`` is a failed construction's (frame and certificate None), a
    ``CertificateIntegrityError``'s message (certificate None) or empty.
    """
    out = golfing_construct(x, _DIST, params, seed=seed)
    if not isinstance(out, DualCertificate):
        return out, None, None, out.reason
    frame = MeasurementFrame(out.masks)
    try:
        return out, frame, verify_certificate(out, x, frame), ""
    except CertificateIntegrityError as exc:
        return out, frame, None, str(exc)


def _golfing_trial(cfg: ExperimentConfig, d: int, trial: int):
    seed = derive_seed(cfg.base_seed, d, 0, trial)
    rng = np.random.default_rng(seed)
    x = random_unit_signal(d, rng)
    params = GolfingParams(cfg.golfing_L1, cfg.golfing_L2, cfg.golfing_L_later)
    out, frame, cert, reason = _golf(x, params, int(rng.integers(2**63)))
    constructed = frame is not None
    masks_consumed = out.masks.L if constructed else out.masks_sampled
    verified = cert is not None and cert.passed
    return seed, constructed, verified, masks_consumed, len(out.construction_log), reason


def _golfing_summary(rows):
    verified = sum(r.verified for r in rows)
    return (
        sum(r.constructed for r in rows),
        verified,
        verified / len(rows),
        sum(r.masks_consumed for r in rows) / len(rows),
    )


def run_golfing_rate(cfg: ExperimentConfig) -> ExperimentResult:
    """Certificate success rate vs dimension; every success is re-verified."""
    return _sweep(cfg, "golfing_rate", _dims, _golfing_trial, _GolfingTrial,
                  _golfing_summary, _GolfingCell)


# ---------------------------------------------------------------------------
# coupon-collector lower bound

_CollisionTrial = namedtuple("_CollisionTrial", "d L trial seed collision wall_time")
_CollisionCell = namedtuple("_CollisionCell", "d L trials collisions collision_rate")


def _collision_trial(cfg: ExperimentConfig, d: int, L: int, trial: int):
    """(seed, collision): does some other standard-basis signal collide with e_1?

    The measurements of e_j are fully determined by |column j| of the mask
    array, so indistinguishability from e_1 is entrywise equality of the
    magnitude patterns.  The draw is the one ``sample_masks`` makes for the
    seed, without building a MaskSet.
    """
    seed = derive_seed(cfg.base_seed, d, L, trial)
    mags = np.abs(_draw_entries(_DIST, np.random.default_rng(seed), (L, d)))
    return seed, bool(np.any(np.all(mags[:, 1:] == mags[:, :1], axis=0)))


def _collision_summary(rows):
    hits = sum(r.collision for r in rows)
    return hits, hits / len(rows)


def run_lower_bound(d: int, L: int, trials: int, seed: int) -> float:
    """Monte-Carlo collision probability for ternary masks (Lemma-style setup).

    The collision rate of the ``lower_bound`` sweep's cell (d, L) at base
    seed ``seed``; no CSV is written.
    """
    for key, value in (("d", d), ("L", L), ("trials", trials)):
        _check_count(key, value)
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    cfg = ExperimentConfig(experiment="lower_bound", trials=trials, base_seed=seed)
    rows = _trial_rows(cfg, [(d, L)], _collision_trial, _CollisionTrial)
    return sum(r.collision for r in rows) / trials


def run_lower_bound_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """CSV-emitting sweep of the collision probability over the (d, L) grid."""
    return _sweep(cfg, "lower_bound", _grid, _collision_trial, _CollisionTrial,
                  _collision_summary, _CollisionCell)


# ---------------------------------------------------------------------------
# isotropy audit

_AuditRow = namedtuple("_AuditRow", "d check deviation passed flag")


def run_isotropy_audit(cfg: ExperimentConfig) -> ExperimentResult:
    """Exact near-isotropy and 2-design deviations over d_grid.

    The two identities are one, read in two index orders, so the one
    deviation of ``check_near_isotropy_exact`` and ``check_two_design_exact``,
    of one enumeration per d, is written on both rows.  Even dimensions are
    expected to fail the identities; their rows carry a distinct
    ``even_d_expected_failure`` flag instead of counting as clean passes or
    silent errors.
    """
    cfg = _as_kind(cfg, "isotropy_audit")
    rows = []
    for d in cfg.d_grid:
        deviation = check_near_isotropy_exact(_DIST, d)
        passed = deviation <= 1e-12
        flag = "even_d_expected_failure" if (d % 2 == 0 and not passed) else ""
        rows += [_AuditRow(d, check, deviation, passed, flag)
                 for check in ("near_isotropy", "two_design")]

    path = _write_csv(
        Path(cfg.out_dir) / "isotropy_audit.csv", "isotropy_audit", _AuditRow._fields, rows
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
    _check_type("cfg", cfg, ExperimentConfig)
    return _RUNNERS[cfg.experiment](cfg)
