"""Command-line entry points for the experiment harness.

Every experiment subcommand accepts an optional YAML config file plus flag
overrides; flags win over the file, the file wins over defaults.  ``recover``
and ``certify`` run one fully-reported instance each through the sweeps'
pipelines (``experiments._recover`` and ``_golf``), so their failure rules
hold here too: the failure's reason is printed and the exit code is 1.
"""

from __future__ import annotations

import dataclasses

import click
import numpy as np
import yaml

from .certify import (
    _COMPLEMENT_BOUND,
    _QUARTER_BOUND,
    GolfingParams,
    certify_optimality,
    format_construction_log,
    injectivity_spectrum,
)
from .diffraction import sample_masks
from .experiments import (
    _DIST,
    _SUCCESS_THRESHOLD,
    ExperimentConfig,
    _golf,
    _recover,
    derive_seed,
    random_unit_signal,
    run_golfing_rate,
    run_isotropy_audit,
    run_lower_bound_experiment,
    run_phase_transition,
)
from .solver import _MODES, verify_feasibility

__all__ = ["main"]


def _int_list(_ctx, _param, value):
    if value is None:
        return None
    try:
        return tuple(int(v) for v in value.split(","))
    except ValueError as exc:
        raise click.BadParameter(f"expected a comma-separated integer list: {exc}")


def _build_config(experiment, config, **overrides) -> ExperimentConfig:
    fields = {"experiment": experiment}
    for key, value in overrides.items():
        if value is not None:
            fields[key] = value
    try:
        base = ExperimentConfig.from_yaml(config) if config else ExperimentConfig()
        return dataclasses.replace(base, **fields)
    except (ValueError, yaml.YAMLError) as exc:
        raise click.UsageError(str(exc)) from exc


def _options(*opts):
    def decorate(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn
    return decorate


# every experiment takes these; the trial experiments also take _TRIAL_GRID
_SHARED = _options(
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="YAML config file (flat keys)."),
    click.option("--seed", "base_seed", type=int, default=None, help="Base RNG seed."),
    click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                 help="Output directory for CSV files."),
    click.option("--d", "d_grid", callback=_int_list, default=None,
                 help="Comma-separated dimensions, e.g. 3,5,15."),
)
_TRIAL_GRID = _options(
    click.option("--trials", type=int, default=None, help="Trials per grid cell."),
    click.option("--L", "L_grid", callback=_int_list, default=None,
                 help="Comma-separated mask counts, e.g. 2,5,10."),
)


def _report(result):
    click.echo(f"per-trial CSV : {result.trial_path}")
    if result.aggregate_path != result.trial_path:
        click.echo(f"aggregate CSV : {result.aggregate_path}")
    for row in result.aggregate_rows:
        click.echo("  " + " ".join(str(v) for v in row))


@click.group()
def main():
    """Coded-diffraction phase retrieval: recovery and certification experiments."""


@main.command("phase-transition")
@_SHARED
@_TRIAL_GRID
def phase_transition_cmd(config, **overrides):
    """Recovery success rates over a (d, L) grid."""
    _report(run_phase_transition(_build_config("phase_transition", config, **overrides)))


@main.command("golfing-rate")
@_SHARED
@_TRIAL_GRID
def golfing_rate_cmd(config, **overrides):
    """Dual-certificate construction success rates."""
    _report(run_golfing_rate(_build_config("golfing_rate", config, **overrides)))


@main.command("lower-bound")
@_SHARED
@_TRIAL_GRID
def lower_bound_cmd(config, **overrides):
    """Mask-collision (indistinguishability) rates over a (d, L) grid."""
    _report(run_lower_bound_experiment(_build_config("lower_bound", config, **overrides)))


@main.command("isotropy-audit")
@_SHARED
def isotropy_audit_cmd(config, **overrides):
    """Exact near-isotropy and 2-design deviations over a dimension grid."""
    _report(run_isotropy_audit(_build_config("isotropy_audit", config, **overrides)))


@main.command("recover")
@click.option("--d", type=click.IntRange(min=1), default=15, show_default=True)
@click.option("--L", "L", type=click.IntRange(min=1), default=30, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--mode", type=click.Choice(_MODES), default="feasibility", show_default=True)
@click.option("--max-iterations", type=click.IntRange(min=1), default=800, show_default=True)
def recover_cmd(d, L, seed, mode, max_iterations):
    """Recover one random signal from one sampled mask realization."""
    x = random_unit_signal(d, np.random.default_rng(seed))
    masks = sample_masks(_DIST, d, L, derive_seed(seed, d, L, "recover"))
    frame, y, result, gap, err, failure = _recover(x, masks, mode, max_iterations)
    click.echo(f"d={d} L={L} seed={seed} mode={mode}")
    if failure:
        click.echo(f"solve failed: {failure}")
        raise SystemExit(1)
    report = verify_feasibility(frame, y, result.X_hat, y0=y.y0)
    click.echo(f"converged={result.converged} iterations={result.iterations_used}")
    click.echo(f"phase-aligned error = {err:.3e}   rank-1 gap = {gap:.3e}")
    click.echo(
        f"constraint violation = {report.max_violation:.3e}   "
        f"min eigenvalue = {report.min_eigenvalue:.3e}"
    )
    if err > _SUCCESS_THRESHOLD:
        raise SystemExit(1)


@main.command("certify")
@click.option("--d", type=click.IntRange(min=3), default=15, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--log/--no-log", "show_log", default=False,
              help="Print the golfing construction log.")
def certify_cmd(d, seed, show_log):
    """Construct and verify a dual certificate for one random signal."""
    if d % 2 == 0:
        raise click.BadParameter(f"golfing needs odd d, got {d}", param_hint="'--d'")
    x = random_unit_signal(d, np.random.default_rng(seed))
    out, frame, cert, reason = _golf(x, GolfingParams(), derive_seed(seed, d, 0, "golf"))
    if cert is None:
        click.echo(f"{'construction' if frame is None else 'verification'} failed: {reason}")
        if show_log:
            click.echo(format_construction_log(out.construction_log))
        raise SystemExit(1)
    inj = injectivity_spectrum(frame, x, seed=seed)
    verdict = certify_optimality(x, frame, cert, inj)  # reads the rebuilt norms
    click.echo(f"d={d} seed={seed} masks used={cert.masks.L}")
    click.echo(f"tangent residual = {cert.tangent_residual:.3e} (bound {cert.tangent_bound:.3e})")
    click.echo(f"complement norm  = {cert.complement_norm:.3e} (bound {_COMPLEMENT_BOUND})")
    click.echo(f"injectivity 1+lambda_min = {1 + inj.lambda_min_restricted:.4f} "
               f"(> {_QUARTER_BOUND})")
    click.echo(f"certified optimal: {verdict.certified}")
    for h in verdict.failing_hypotheses:
        click.echo(f"  failing: {h}")
    if show_log:
        click.echo(format_construction_log(cert.construction_log))
    if not verdict.certified:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
