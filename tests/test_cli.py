import dataclasses

import pytest
from click.testing import CliRunner

from cdplift.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.mark.parametrize(
    "cmd",
    ["phase-transition", "golfing-rate", "lower-bound", "isotropy-audit",
     "recover", "certify"],
)
def test_help_screens(runner, cmd):
    result = runner.invoke(main, [cmd, "--help"])
    assert result.exit_code == 0
    assert "Usage:" in result.output


def test_lower_bound_run(runner, tmp_path):
    result = runner.invoke(
        main,
        ["lower-bound", "--d", "3", "--L", "1,2", "--trials", "40",
         "--seed", "4", "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "lower_bound_trials.csv").exists()
    assert (tmp_path / "lower_bound_aggregate.csv").exists()
    assert "aggregate CSV" in result.output


def test_isotropy_audit_run(runner, tmp_path):
    result = runner.invoke(main, ["isotropy-audit", "--d", "3", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "isotropy_audit.csv").exists()
    assert "near_isotropy" in result.output


def test_phase_transition_run(runner, tmp_path):
    result = runner.invoke(
        main,
        ["phase-transition", "--d", "3", "--L", "8", "--trials", "2",
         "--out", str(tmp_path)],
    )
    assert result.exit_code == 0, result.output
    assert (tmp_path / "phase_transition_aggregate.csv").exists()


def test_config_file_with_flag_overrides(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"trials: 10\nd_grid: [3]\nL_grid: [1]\nout_dir: {tmp_path}\n")
    result = runner.invoke(
        main, ["lower-bound", "--config", str(cfg), "--trials", "5"]
    )
    assert result.exit_code == 0, result.output
    text = (tmp_path / "lower_bound_trials.csv").read_text()
    assert text.count("\n") == 2 + 5  # comment + header + 5 trials (flag wins)


def test_config_file_unknown_key_is_an_error(runner, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("trails: 10\n")
    result = runner.invoke(main, ["lower-bound", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "unknown config keys: trails" in result.output
    cfg.write_text("trials: [1\n")  # not YAML
    result = runner.invoke(main, ["lower-bound", "--config", str(cfg)])
    assert result.exit_code == 2
    assert "expected ',' or ']'" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["certify", "--d", "4"], "odd d"),
        (["recover", "--L", "0"], "--L"),
        (["recover", "--d", "0"], "--d"),
        (["recover", "--max-iterations", "0"], "--max-iterations"),
        (["phase-transition", "--trials", "0"], "trials must be an integer >= 1"),
        (["lower-bound", "--L", "0"], "L_grid must be a non-empty list of integers >= 1"),
        (["isotropy-audit", "--d", "3,15"], "exact enumeration budget"),
        (["isotropy-audit", "--trials", "3"], "No such option"),
        (["isotropy-audit", "--L", "2"], "No such option"),
        (["isotropy-audit", "--d", "3,3,5"], "d_grid must not repeat a value"),
    ],
)
def test_bad_sizes_are_usage_errors(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_bad_int_list_is_a_usage_error(runner):
    result = runner.invoke(main, ["lower-bound", "--d", "3,x"])
    assert result.exit_code == 2
    assert "comma-separated integer list" in result.output


def test_recover_success(runner):
    result = runner.invoke(main, ["recover", "--d", "5", "--L", "15", "--seed", "1"])
    assert result.exit_code == 0, result.output
    assert "phase-aligned error" in result.output
    assert "feasibility" in result.output


def test_recover_trace_min_mode(runner):
    result = runner.invoke(
        main, ["recover", "--d", "5", "--L", "20", "--mode", "trace_min", "--seed", "2"]
    )
    assert result.exit_code == 0, result.output
    assert "trace_min" in result.output


def test_recover_reports_failure_in_exit_code(runner):
    # 2 masks at d=15 is far below the recovery threshold
    result = runner.invoke(
        main, ["recover", "--d", "15", "--L", "2", "--seed", "0",
               "--max-iterations", "150"]
    )
    assert result.exit_code == 1


def test_certify_success(runner):
    result = runner.invoke(main, ["certify", "--d", "15", "--seed", "3"])
    assert result.exit_code == 0, result.output
    assert "certified optimal: True" in result.output
    assert "injectivity 1+lambda_min" in result.output


def test_certify_log_flag(runner):
    result = runner.invoke(main, ["certify", "--d", "15", "--seed", "3", "--log"])
    assert result.exit_code == 0, result.output
    assert "i phase L" in result.output


def test_certify_fails_when_the_rebuilt_certificate_fails(runner, monkeypatch):
    # golfing's stored norms pass; the verdict must read the rebuilt ones
    import cdplift.cli as cli

    def failing_rebuild(cert, x, frame=None):
        return dataclasses.replace(cert, tangent_residual=1.0)

    monkeypatch.setattr(cli, "verify_certificate", failing_rebuild)
    result = runner.invoke(main, ["certify", "--d", "15", "--seed", "3"])
    assert result.exit_code == 1, result.output
    assert "tangent residual = 1.000e+00" in result.output
    assert "certified optimal: False" in result.output
    failing = result.output.split("certified optimal: False", 1)[1]
    assert "failing: dual certificate tangent bound" in failing
    assert "complement bound" not in failing


def test_certify_checks_injectivity_on_the_certificate_masks(runner, monkeypatch):
    import cdplift.cli as cli

    frames = []
    original = cli.injectivity_spectrum

    def recording(frame, *args, **kwargs):
        frames.append(frame)
        return original(frame, *args, **kwargs)

    monkeypatch.setattr(cli, "injectivity_spectrum", recording)
    result = runner.invoke(main, ["certify", "--d", "15", "--seed", "3"])
    assert result.exit_code == 0, result.output
    used = int(result.output.split("masks used=")[1].split()[0])
    assert [f.L for f in frames] == [used]
