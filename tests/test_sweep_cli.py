"""Command-line sweep: flag/config resolution, row generation, output
formats, determinism, and exit codes.

main() is exercised in-process through its argv parameter; one test runs the
installed module for real to cover the console entry point.
"""

import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from g2tau import HamiltonianParams, UndefinedCoherenceError, g2_oracle
from g2tau import gaussian_rho, sweep_cli
from g2tau.fock_oracle import oracle_sweep
from g2tau.param_map import GenerationSpec, hamiltonian_from_state
from g2tau.sweep_cli import (
    COMPARE_REL_TOL,
    EXIT_COMPARE,
    EXIT_OK,
    EXIT_UNDEFINED,
    EXIT_USAGE,
    MAX_STEPS,
    UsageError,
    main,
    parse_config,
    run_compare,
    run_sweep,
)


def config_from(*argv):
    return parse_config(list(argv))


class TestParseConfig:
    def test_defaults(self):
        config = config_from()
        assert config.state.is_vacuum
        assert config.t_gen == 1.0
        assert config.tau_max == 1.0
        assert config.steps == 200
        assert config.mode == "closed_form"
        assert config.oracle_dim == 120
        assert config.output_format == "csv"
        assert config.output_path is None

    def test_thermal_flags(self):
        config = config_from("--nbar", "1", "--r", "0", "--alpha-mag", "0",
                             "--tau-max", "5")
        assert config.state.nbar == 1.0
        assert config.state.xi.r == 0.0
        assert config.state.alpha == 0.0
        assert config.tau_max == 5.0

    def test_compare_flags(self):
        config = config_from("--mode", "compare", "--oracle-dim", "60")
        assert config.mode == "compare"
        assert config.oracle_dim == 60

    def test_polar_state_assembly(self):
        config = config_from("--alpha-mag", "2", "--alpha-phase", str(math.pi / 2),
                             "--r", "0.4", "--theta", "1.1")
        np.testing.assert_allclose(config.state.alpha, 2j, rtol=0, atol=1e-15)
        assert config.state.xi.r == 0.4
        assert config.state.xi.theta == 1.1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--steps", "0"],
            ["--nbar", "-1"],
            ["--r", "-0.5"],
            ["--alpha-mag", "-1"],
            ["--t-gen", "0"],
            ["--tau-max", "-2"],
            ["--mode", "oracle", "--oracle-dim", "1"],
            ["--no-such-flag"],
        ],
    )
    def test_rejected_values(self, argv):
        with pytest.raises(UsageError):
            parse_config(argv)

    def test_config_file_supplies_values(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"nbar": 0.5, "tau-max": 3.0, "steps": 7}))
        config = config_from("--config", str(path))
        assert config.state.nbar == 0.5
        assert config.tau_max == 3.0
        assert config.steps == 7

    def test_flags_beat_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"steps": 7, "nbar": 0.5}))
        config = config_from("--config", str(path), "--steps", "11")
        assert config.steps == 11
        assert config.state.nbar == 0.5

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"stepz": 7}))
        with pytest.raises(UsageError, match="stepz"):
            parse_config(["--config", str(path)])

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("not json {")
        with pytest.raises(UsageError):
            parse_config(["--config", str(path)])

    def test_config_range_checks_still_apply(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"steps": 0}))
        with pytest.raises(UsageError):
            parse_config(["--config", str(path)])

    def test_dash_output_means_stdout(self):
        assert config_from("--output", "-").output_path is None


class TestRunSweep:
    def test_grid_shape_and_uniformity(self):
        config = config_from("--nbar", "1", "--tau-max", "2", "--steps", "8")
        rows = run_sweep(config)
        assert len(rows) == 9
        taus = [row.tau for row in rows]
        np.testing.assert_allclose(taus, np.linspace(0.0, 2.0, 9), rtol=0, atol=1e-15)
        assert taus[0] == 0.0 and taus[-1] == 2.0

    def test_thermal_sweep_is_flat_two(self):
        rows = run_sweep(config_from("--nbar", "1", "--tau-max", "5", "--steps", "20"))
        for row in rows:
            np.testing.assert_allclose(row.g2, 2.0, rtol=0, atol=1e-12)

    def test_coherent_sweep_is_flat_one(self):
        rows = run_sweep(config_from("--alpha-mag", "1", "--steps", "10"))
        for row in rows:
            np.testing.assert_allclose(row.g2, 1.0, rtol=0, atol=1e-12)

    def test_squeezed_vacuum_zero_delay(self):
        rows = run_sweep(config_from("--r", "0.8", "--steps", "4"))
        np.testing.assert_allclose(rows[0].g2, 3.0 + 1.0 / math.sinh(0.8) ** 2,
                                   rtol=0, atol=1e-12)

    def test_vacuum_raises(self):
        with pytest.raises(UndefinedCoherenceError):
            run_sweep(config_from())

    def test_oracle_mode_rows_match_direct_oracle_calls(self):
        config = config_from("--nbar", "0.3", "--r", "0.4", "--alpha-mag", "0.8",
                             "--mode", "oracle", "--oracle-dim", "80",
                             "--tau-max", "0.5", "--steps", "2")
        params = hamiltonian_from_state(GenerationSpec(state=config.state, t=1.0))
        rows = run_sweep(config)
        sweep = oracle_sweep(gaussian_rho(config.state, 80), params, [row.tau for row in rows])
        for row, g2, mean_n in zip(rows, sweep.g2, sweep.mean_n):
            assert row.g2 == g2
            assert row.mean_n == mean_n
        # the sweep's shared working basis and one-point calls agree to roundoff
        for row in rows:
            one_point_g2 = g2_oracle(config.state, params, row.tau, 80)
            one_point_mean = oracle_sweep(gaussian_rho(config.state, 80), params, [row.tau]).mean_n[0]
            assert abs(row.g2 - one_point_g2) <= 1e-12 * abs(one_point_g2)
            assert abs(row.mean_n - one_point_mean) <= 1e-12 * abs(one_point_mean)


class TestEigensolveCount:
    @pytest.mark.parametrize("mode, run", [("oracle", run_sweep), ("compare", run_compare)])
    def test_eigensolves_do_not_grow_with_delays(self, mode, run, monkeypatch):
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(matrix, *args, **kwargs):
            sizes.append(matrix.shape[-1])
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        counts = []
        for steps in (2, 500):
            sizes.clear()
            run(config_from("--nbar", "0.3", "--r", "0.4", "--alpha-mag", "0.8",
                            "--mode", mode, "--oracle-dim", "40", "--tau-max", "0.5",
                            "--steps", str(steps)))
            counts.append(len(sizes))
        # rho at oracle_dim is two squeeze-block eigensolves and the sweep one
        # Hamiltonian eigensolve; the doubling check repeats both at 2 * oracle_dim
        expected = {"oracle": 3, "compare": 6}[mode]
        assert counts == [expected, expected]


class TestRunCompare:
    def test_thermal_light_agrees_everywhere(self):
        config = config_from("--nbar", "1", "--mode", "compare", "--steps", "4",
                             "--tau-max", "0.5")
        report = run_compare(config)
        assert report.max_abs_err < 1e-6
        assert report.convergence.converged

    def test_displaced_squeezed_thermal_point(self):
        config = config_from("--nbar", "0.5", "--r", "0.5", "--alpha-mag", "1",
                             "--alpha-phase", "0.7", "--theta", "1.3",
                             "--mode", "compare", "--steps", "4", "--tau-max", "1")
        report = run_compare(config)
        assert report.max_rel_err < 1e-5
        assert report.convergence.converged

    def test_under_resolved_oracle_is_flagged(self):
        config = config_from("--r", "2.5", "--mode", "compare", "--oracle-dim", "40",
                             "--steps", "2", "--tau-max", "0.1")
        report = run_compare(config)
        assert report.max_rel_err > COMPARE_REL_TOL or not report.convergence.converged


class TestMainExitCodes:
    def test_ok(self, capsys):
        assert main(["--nbar", "1", "--steps", "2"]) == EXIT_OK
        assert "g2" in capsys.readouterr().out

    def test_usage(self, capsys):
        assert main(["--steps", "0"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--nbar", "nan"), ("--r", "inf"), ("--theta", "inf"),
         ("--alpha-phase", "nan"), ("--alpha-mag", "inf")],
    )
    def test_non_finite_input_is_a_usage_error(self, flag, value, capsys):
        assert main([flag, value, "--steps", "2"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("g2tau: error:")
        assert "Traceback" not in err

    def test_vacuum(self, capsys):
        assert main([]) == EXIT_UNDEFINED
        err = capsys.readouterr().err
        assert "vacuum" in err

    def test_oracle_below_roundoff_floor_is_undefined(self, capsys):
        # mean photon number 1e-222: the oracle traces cannot resolve it
        code = main(["--alpha-mag", "1e-111", "--mode", "oracle",
                     "--oracle-dim", "16", "--steps", "2"])
        assert code == EXIT_UNDEFINED
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: error:")

    def test_oracle_resolves_a_small_displacement(self, capsys):
        argv = ["--alpha-mag", "1e-2", "--steps", "4", "--format", "json"]
        assert main(argv) == EXIT_OK
        closed = json.loads(capsys.readouterr().out)["samples"]
        assert main(argv + ["--mode", "oracle"]) == EXIT_OK
        oracle = json.loads(capsys.readouterr().out)["samples"]
        for reference, row in zip(closed, oracle):
            assert abs(row["g2"] - reference["g2"]) <= 1e-8 * abs(reference["g2"])

    @pytest.mark.parametrize("mode", ["oracle", "compare"])
    def test_state_outside_the_oracle_basis_is_undefined(self, mode, capsys):
        # |alpha| = 50 puts the state far past the lowest 16 working levels,
        # so the block that is kept has zero trace
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--alpha-mag", "50", "--mode", mode,
                         "--oracle-dim", "16", "--steps", "2"])
        assert code == EXIT_UNDEFINED
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: error:")
        assert "nan" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["--alpha-mag", "13", "--steps", "2"],
        ["--r", "2.5", "--oracle-dim", "40", "--steps", "2", "--tau-max", "0.1"],
    ])
    def test_oracle_truncation_failure(self, argv, capsys):
        # the state reaches the top of the oracle_dim basis: no rows, exit 3
        assert main(argv + ["--mode", "oracle"]) == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: truncation failed:")
        assert "tail_mass=" in lines[0] and "oracle_dim=" in lines[0]

    def test_steps_above_the_bound_are_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"nbar": 1, "steps": MAX_STEPS + 1}))
        for argv in (["--nbar", "1", "--steps", str(MAX_STEPS + 1)], ["--config", str(config)]):
            assert main(argv) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            errors = [line for line in captured.err.splitlines() if line.startswith("g2tau: error:")]
            assert len(errors) == 1 and str(MAX_STEPS) in errors[0]

    def test_compare_failure(self, capsys):
        code = main(["--r", "2.5", "--mode", "compare", "--oracle-dim", "40",
                     "--steps", "2", "--tau-max", "0.1"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert "comparison failed" in captured.err
        assert captured.out  # table still emitted before the failure status


class TestOutput:
    def test_csv_layout(self, capsys):
        assert main(["--nbar", "1", "--steps", "2", "--tau-max", "1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        meta = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        assert meta and meta[0] == "# g2(tau) sweep"
        assert body[0] == "tau,r_tau,mean_n,n_tau,s_tau,g2"
        assert len(body) == 1 + 3
        first = body[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 1.0  # thermal mean photon number
        assert float(first[5]) == 2.0

    def test_csv_floats_round_trip(self, capsys):
        config_argv = ["--nbar", "0.3", "--r", "0.6", "--alpha-mag", "1.1",
                       "--alpha-phase", "0.2", "--steps", "3"]
        assert main(config_argv) == EXIT_OK
        body = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        rows = run_sweep(parse_config(config_argv))
        for line, row in zip(body[1:], rows):
            fields = [float(x) for x in line.split(",")]
            assert fields == [row.tau, row.r_tau, row.mean_n, row.n_tau,
                              row.s_tau, row.g2]

    def test_compare_csv_has_oracle_columns(self, capsys):
        assert main(["--nbar", "0.4", "--mode", "compare", "--steps", "2",
                     "--tau-max", "0.3"]) == EXIT_OK
        body = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert body[0] == "tau,r_tau,mean_n,n_tau,s_tau,g2,g2_oracle,abs_err"
        for line in body[1:]:
            fields = [float(x) for x in line.split(",")]
            assert fields[7] == abs(fields[5] - fields[6])
            assert fields[7] < 1e-6

    def test_repeated_runs_are_byte_identical(self, tmp_path):
        argv = ["--nbar", "0.2", "--r", "0.7", "--alpha-mag", "0.9",
                "--steps", "5", "--tau-max", "1.5"]
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert main(argv + ["--output", str(path)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_document(self, capsys):
        assert main(["--nbar", "1", "--steps", "2", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["nbar"] == 1.0
        assert doc["metadata"]["steps"] == 2
        assert "couplings" in doc["metadata"]
        assert len(doc["samples"]) == 3
        sample = doc["samples"][0]
        assert set(sample) == {"tau", "r_tau", "mean_n", "n_tau", "s_tau", "g2"}
        assert sample["g2"] == pytest.approx(2.0, abs=1e-12)

    def test_json_compare_carries_report(self, capsys):
        assert main(["--nbar", "0.4", "--mode", "compare", "--steps", "2",
                     "--tau-max", "0.3", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        report = doc["metadata"]["report"]
        assert report["convergence"]["converged"] is True
        assert report["max_rel_err"] < 1e-5
        assert "g2_oracle" in doc["samples"][0]

    @pytest.mark.parametrize("mode", ["closed_form", "oracle", "compare"])
    def test_csv_and_json_share_one_row_schema(self, mode, capsys):
        argv = ["--nbar", "0.4", "--r", "0.2", "--alpha-mag", "0.5", "--mode", mode,
                "--oracle-dim", "40", "--steps", "2", "--tau-max", "0.3"]
        assert main(argv) == EXIT_OK
        body = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        samples = json.loads(capsys.readouterr().out)["samples"]
        assert len(body) == 1 + len(samples)
        for line, sample in zip(body[1:], samples):
            assert body[0] == ",".join(sample)
            assert [float(field) for field in line.split(",")] == list(sample.values())

    def test_output_file_written(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        assert main(["--nbar", "1", "--steps", "2", "--output", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert path.read_text().startswith("# g2(tau) sweep")


@pytest.mark.parametrize("mode", ["closed_form", "oracle", "compare"])
def test_couplings_are_solved_once_per_run(mode, monkeypatch, capsys):
    calls = []

    def counting(spec):
        calls.append(spec)
        return hamiltonian_from_state(spec)

    monkeypatch.setattr(sweep_cli, "hamiltonian_from_state", counting)
    assert main(["--nbar", "0.4", "--r", "0.2", "--mode", mode, "--oracle-dim", "40",
                 "--steps", "2", "--tau-max", "0.3"]) == EXIT_OK
    assert capsys.readouterr().out
    assert len(calls) == 1


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "g2tau", "--nbar", "1", "--steps", "2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "tau,r_tau,mean_n,n_tau,s_tau,g2" in result.stdout
