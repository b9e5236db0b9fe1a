"""Command-line sweep: flag/config resolution, row generation, output
formats, determinism, and exit codes.

main() is exercised in-process through its argv parameter; one test runs the
installed module for real to cover the console entry point.
"""

import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from g2tau import HamiltonianParams, UndefinedCoherenceError, g2_oracle
from g2tau import fock_oracle, gaussian_rho, sweep_cli
from g2tau.fock_oracle import _WORKING_DIM_CAP, LEAKAGE_TOL, TruncationError, oracle_sweep
from g2tau.param_map import GenerationSpec, hamiltonian_from_state
from g2tau.sweep_cli import (
    EXIT_COMPARE,
    EXIT_OK,
    EXIT_UNDEFINED,
    EXIT_USAGE,
    MAX_AMPLITUDE,
    MAX_COSH_ARG,
    MAX_STEPS,
    UsageError,
    _build_parser,
    _evaluate,
    main,
    parse_config,
)

from fock_reference import convergence_check


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

    @pytest.mark.parametrize("argv", [
        ["--r", "0.5", "--tau-max", "708"],  # 2(r + r(tau_max)) = 709
        ["--alpha-mag", "5e153"],  # |A| grows to 2 |alpha| by tau = t_gen
        ["--alpha-mag", "2.8e149", "--r", "1", "--tau-max", "9"],  # grows by 34844
    ])
    def test_mean_stays_finite_at_the_bounds(self, argv):
        grid = _evaluate(config_from(*argv, "--steps", "4"))[1]
        assert np.isfinite(grid.mean_n).all()


class TestRunSweep:
    def test_grid_shape_and_uniformity(self):
        config = config_from("--nbar", "1", "--tau-max", "2", "--steps", "8")
        taus = _evaluate(config)[1].tau
        assert len(taus) == 9
        np.testing.assert_allclose(taus, np.linspace(0.0, 2.0, 9), rtol=0, atol=1e-15)
        assert taus[0] == 0.0 and taus[-1] == 2.0
        # the grid is tau_max * i / steps, which np.linspace does not always round to
        assert taus.tolist() == [2.0 * i / 8 for i in range(9)]

    def test_thermal_sweep_is_flat_two(self):
        grid = _evaluate(config_from("--nbar", "1", "--tau-max", "5", "--steps", "20"))[1]
        assert len(grid.g2) == 21
        np.testing.assert_allclose(grid.g2, 2.0, rtol=0, atol=1e-12)

    def test_coherent_sweep_is_flat_one(self):
        grid = _evaluate(config_from("--alpha-mag", "1", "--steps", "10"))[1]
        assert len(grid.g2) == 11
        np.testing.assert_allclose(grid.g2, 1.0, rtol=0, atol=1e-12)

    def test_squeezed_vacuum_zero_delay(self):
        grid = _evaluate(config_from("--r", "0.8", "--steps", "4"))[1]
        np.testing.assert_allclose(grid.g2[0], 3.0 + 1.0 / math.sinh(0.8) ** 2,
                                   rtol=0, atol=1e-12)

    def test_vacuum_raises(self):
        with pytest.raises(UndefinedCoherenceError):
            _evaluate(config_from())

    def test_oracle_mode_rows_match_direct_oracle_calls(self):
        config = config_from("--nbar", "0.3", "--r", "0.4", "--alpha-mag", "0.8",
                             "--mode", "oracle", "--oracle-dim", "80",
                             "--tau-max", "0.5", "--steps", "2")
        params = hamiltonian_from_state(GenerationSpec(state=config.state, t=1.0))
        grid = _evaluate(config)[1]
        sweep = oracle_sweep(gaussian_rho(config.state, 80), params, grid.tau)
        assert grid.g2.tolist() == sweep.g2.tolist()
        assert grid.mean_n.tolist() == sweep.mean_n.tolist()
        # the sweep's shared working basis and one-point calls agree to roundoff
        for tau, g2, mean_n in zip(grid.tau, grid.g2, grid.mean_n):
            one_point_g2 = g2_oracle(config.state, params, tau, 80)
            one_point_mean = oracle_sweep(gaussian_rho(config.state, 80), params, [tau]).mean_n[0]
            assert abs(g2 - one_point_g2) <= 1e-12 * abs(one_point_g2)
            assert abs(mean_n - one_point_mean) <= 1e-12 * abs(one_point_mean)


class TestEigensolveCount:
    @pytest.mark.parametrize("mode", ["oracle", "compare"])
    def test_eigensolves_do_not_grow_with_delays(self, mode, monkeypatch):
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(matrix, *args, **kwargs):
            sizes.append(matrix.shape[-1])
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        runs = []
        for steps in (2, 500):
            sizes.clear()
            _evaluate(config_from("--nbar", "0.3", "--r", "0.4", "--alpha-mag", "0.8",
                                  "--mode", mode, "--oracle-dim", "40", "--tau-max", "0.5",
                                  "--steps", str(steps)))
            runs.append(list(sizes))
        # rho is built with no eigensolve.  The sweep evolves at the tight
        # size, which holds the evolution: rho's 37 levels above a suffix of
        # 1e-10 through r(0.5) = 0.2 and |alpha(0.5)| = 0.44 with one vacuum
        # width of margin, ceil((sqrt(37) e^0.2 + 1 + 0.44)²) = 79.  Compare
        # mode reads its verdict from that sweep, so it runs the same eigensolve
        assert runs == [[79], [79]]


class TestRunCompare:
    def test_thermal_light_agrees_everywhere(self):
        config = config_from("--nbar", "1", "--mode", "compare", "--steps", "4",
                             "--tau-max", "0.5")
        report = _evaluate(config)[3]
        assert report.max_abs_err < 1e-6
        assert report.convergence.converged

    def test_displaced_squeezed_thermal_point(self):
        config = config_from("--nbar", "0.5", "--r", "0.5", "--alpha-mag", "1",
                             "--alpha-phase", "0.7", "--theta", "1.3",
                             "--mode", "compare", "--steps", "4", "--tau-max", "1")
        report = _evaluate(config)[3]
        assert report.max_rel_err < 1e-5
        assert report.convergence.converged

    def test_under_resolved_oracle_is_flagged(self):
        # holding 40 levels of r 2.5 through its squeeze needs 6569: refused
        config = config_from("--r", "2.5", "--mode", "compare", "--oracle-dim", "40",
                             "--steps", "2", "--tau-max", "0.1")
        with pytest.raises(TruncationError, match="cap of 3072"):
            _evaluate(config)


def _hull(nbar, r, theta, alpha_mag, alpha_phase):
    return ["--nbar", str(nbar), "--r", str(r), "--theta", str(theta),
            "--alpha-mag", str(alpha_mag), "--alpha-phase", str(alpha_phase)]


class TestCompareVerdict:
    # Compare-mode states, 4 delays on [0, 1] at dim 120, with the doubling
    # check's verdict and compare mode's
    STATES = [
        # the acceptance grid's nbar 1, r 0.8 states: rho's top band holds
        # pair_tail 1.8e-5 and 2.0e-5, doubled change 5.2e-6
        pytest.param(["--nbar", "1", "--r", "0.8", "--alpha-mag", "1.5"], False, False,
                     id="grid-alpha-1.5"),
        pytest.param(["--nbar", "1", "--r", "0.8", "--alpha-mag", "0.5"], False, False,
                     id="grid-alpha-0.5"),
        # thermal light: pair_tail 2.2e-4, doubled change 7.0e-5
        pytest.param(["--nbar", "8"], False, False, id="thermal-nbar-8"),
        # benchmark-hull draws past the bounds: doubled change 1.1e-6, pair_tail 5.3e-6
        pytest.param(_hull(0.9888, 0.7390, 0.3452, 0.3902, 5.3672), False, False, id="hull-refused"),
        # and two only compare mode refuses: pair_tail 2.7e-6 and 1.2e-6,
        # doubled change 3.8e-7 and 2.2e-7
        pytest.param(_hull(0.9536, 0.6554, 0.3612, 1.3116, 1.3164), True, False, id="hull-pair-2.7e-6"),
        pytest.param(_hull(0.9389, 0.7219, 3.5014, 0.1338, 5.2140), True, False, id="hull-pair-1.2e-6"),
        # converged: pair_tail 8.3e-7, the largest of the measured states that
        # both checks accept, doubled change 1.4e-7
        pytest.param(_hull(0.9694, 0.6780, 3.1780, 1.0560, 5.1469), True, True, id="hull-pair-8.3e-7"),
        # doubled change 1.7e-8 from the evolution alone: pair_tail 2e-17
        pytest.param(["--r", "0.8", "--alpha-mag", "0.5"], True, True, id="squeezed-coherent"),
        pytest.param(["--nbar", "0.4", "--r", "0.3"], True, True, id="squeezed-thermal"),
        pytest.param(["--alpha-mag", "1.2", "--alpha-phase", "0.3"], True, True, id="coherent"),
        pytest.param(["--nbar", "1"], True, True, id="thermal-nbar-1"),
        pytest.param(["--nbar", "0.5", "--r", "0.5", "--alpha-mag", "1", "--alpha-phase", "0.7",
                      "--theta", "1.3"], True, True, id="displaced-squeezed-thermal"),
    ]

    @pytest.mark.parametrize("argv, doubled, compare", STATES)
    def test_compare_refuses_every_state_the_doubling_check_refuses(self, argv, doubled, compare):
        config = config_from(*argv, "--mode", "compare", "--steps", "3")
        params, _, sweep, report = _evaluate(config)
        reference = convergence_check(config.state, params, config.tau_max, config.oracle_dim,
                                      base=sweep)
        assert (reference.converged, report.convergence.converged) == (doubled, compare)
        assert reference.converged or not report.convergence.converged

    @pytest.mark.parametrize("figures, converged", [
        pytest.param({}, True, id="as-swept"),
        pytest.param({"pair_tail": 1e-6}, False, id="pair-tail-at-bound"),
        pytest.param({"pair_tail": math.nextafter(1e-6, 0.0)}, True, id="pair-tail-below"),
        pytest.param({"tail_mass": 1e-8}, False, id="tail-mass-at-bound"),
        pytest.param({"tail_mass": math.nextafter(1e-8, 0.0)}, True, id="tail-mass-below"),
        pytest.param({"leakage": LEAKAGE_TOL}, True, id="leakage-at-bound"),
        pytest.param({"leakage": math.nextafter(LEAKAGE_TOL, 1.0)}, False, id="leakage-above"),
    ])
    def test_verdict_bounds(self, figures, converged, monkeypatch):
        # each figure of the sweep at or just inside its bound
        def sweep_at(rho, params, taus):
            return dataclasses.replace(oracle_sweep(rho, params, taus), **figures)

        monkeypatch.setattr(sweep_cli, "oracle_sweep", sweep_at)
        report = _evaluate(config_from("--nbar", "0.4", "--r", "0.3", "--mode", "compare",
                                       "--steps", "3"))[3]
        assert report.convergence.converged is converged
        for name, value in figures.items():
            assert getattr(report.convergence, name) is value

    @pytest.mark.parametrize("output_format", ["csv", "json"])
    def test_zero_oracle_g2_prints_no_warning(self, output_format, monkeypatch, capsys):
        # a zero oracle g2 makes the relative error infinite, quietly; JSON
        # writes it as null, since Infinity is not JSON
        def zero_numerator(rho, params, taus):
            sweep = oracle_sweep(rho, params, taus)
            return dataclasses.replace(sweep, numerator=np.zeros_like(sweep.numerator))

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        monkeypatch.setattr(sweep_cli, "oracle_sweep", zero_numerator)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--nbar", "0.4", "--mode", "compare", "--steps", "2",
                         "--format", output_format])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.err == "g2tau: comparison failed: max_rel_err=inf converged=True\n"
        if output_format == "json":
            report = json.loads(captured.out, parse_constant=refuse)["metadata"]["report"]
            assert report["max_rel_err"] is None and report["max_abs_err"] > 0.0

    def test_undefined_worst_error_fails_the_comparison(self, monkeypatch, capsys):
        # 0/0 relative errors make max_rel_err nan: a comparison that cannot
        # be scored exits 3, and JSON writes the figure as null
        def zero_columns(grid, sweep):
            return np.zeros_like(grid.g2), np.zeros_like(grid.g2)

        monkeypatch.setattr(sweep_cli, "_oracle_columns", zero_columns)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--nbar", "0.4", "--mode", "compare", "--steps", "2",
                         "--format", "json"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.err == "g2tau: comparison failed: max_rel_err=nan converged=True\n"
        assert json.loads(captured.out)["metadata"]["report"]["max_rel_err"] is None


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

    @pytest.mark.parametrize("argv, message", [
        (["--nbar", "-1"], "nbar must be >= 0, got -1.0"),
        (["--t-gen", "0"], "t-gen must be > 0, got 0.0"),
        (["--steps", "0"], "steps must be >= 1, got 0"),
        (["--steps", "2000000"], "steps must be <= 1000000, got 2000000"),
        (["--mode", "oracle", "--oracle-dim", "1"], "oracle-dim must be >= 2, got 1"),
        (["--mode", "bogus"], "argument --mode: invalid choice: 'bogus' "
                              "(choose from 'closed_form', 'oracle', 'compare')"),
        (["--nbar", "x"], "argument --nbar: invalid float value: 'x'"),
        (["--alpha-mag", "-2", "--nbar", "-1"], "nbar must be >= 0, got -1.0"),
        # a type error is reported before a bad mode, and nbar's before steps'
        (["--config", "{config}"], "nbar must be a number, got 'x'"),
    ])
    def test_usage_error_bytes(self, argv, message, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"nbar": "x", "mode": "zz", "steps": 1.5}))
        assert main([arg.replace("{config}", str(config)) for arg in argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"g2tau: error: {message}\nrun 'g2tau --help' for usage\n"

    def test_help_matches_its_golden_text(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        golden = Path(__file__).parent / "golden" / "help.stdout"
        assert _build_parser().format_help() == golden.read_text()

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

    @pytest.mark.parametrize("mode, dim", [
        pytest.param("oracle", "2", id="oracle"),
        pytest.param("compare", "2", id="compare"),
        pytest.param("oracle", "16", id="oracle-dim16"),
        pytest.param("compare", "16", id="compare-dim16"),
    ])
    def test_state_outside_the_oracle_basis_is_undefined(self, mode, dim, capsys):
        # |alpha| = 40 puts the state so far past the lowest 2 or 16 levels
        # that they hold less than the smallest normal float of it (e^-1517
        # at 16), and rho_00 = e^-1600 underflows on its own
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--alpha-mag", "40", "--mode", mode,
                         "--oracle-dim", dim, "--steps", "2"])
        assert code == EXIT_UNDEFINED
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: error:")
        assert "nan" not in captured.err

    @pytest.mark.parametrize("mode", ["oracle", "compare"])
    @pytest.mark.parametrize("argv, needed", [
        (["--alpha-mag", "50", "--oracle-dim", "16"], 3364),
        (["--r", "2.5", "--oracle-dim", "40", "--tau-max", "0.1"], 6569),
        # the tight evolution basis, not rho's: the first size that would run
        (["--r", "0.3", "--tau-max", "12"], 23074),
        # rho itself needs no such basis, but without the refusal oracle mode
        # passes this state with g2 off by 1.25e-3
        (["--r", "1.6", "--tau-max", "0.01"], 3394),
    ])
    def test_basis_above_the_cap_is_refused(self, argv, needed, mode, monkeypatch, capsys):
        # refused before any eigensolve, the evolution basis as well as rho's
        eigh = np.linalg.eigh
        sizes = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: sizes.append(len(m)) or eigh(m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--mode", mode, "--steps", "2"])
        assert code == EXIT_COMPARE and sizes == []
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: truncation failed:")
        assert f"working dimension of {needed} " in lines[0]
        assert "cap of 3072" in lines[0] and "oracle_dim=" in lines[0]
        assert "nan" not in captured.err

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["--alpha-mag", "13", "--steps", "2"], "tail_mass=", id="argv0"),
        pytest.param(["--r", "2.5", "--oracle-dim", "40", "--steps", "2", "--tau-max", "0.1"],
                     "cap of 3072", id="argv1"),
        # rho_00 = e^-900 underflows, yet the lowest 120 levels hold e^-543
        # of the state, nearly all of it in their top 10%
        pytest.param(["--alpha-mag", "30", "--steps", "2"], "tail_mass=", id="argv2"),
    ])
    def test_oracle_truncation_failure(self, argv, named, capsys):
        # the state reaches the top of the oracle_dim basis, or holding it
        # needs more than the cap: no rows, exit 3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--mode", "oracle"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: truncation failed:")
        assert named in lines[0] and "oracle_dim=" in lines[0]

    @pytest.mark.parametrize("dim", ["4", "9"])
    def test_tail_band_of_a_small_basis_is_not_empty(self, dim, capsys):
        # the top 10% of fewer than 10 levels rounds up to none; the band keeps
        # the top level, so the state's tail is seen and the sweep refused
        code = main(["--r", "0.5", "--nbar", "0.5", "--alpha-mag", "0.5", "--oracle-dim", dim,
                     "--mode", "oracle", "--steps", "2"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: truncation failed: tail_mass=")

    @pytest.mark.parametrize("argv, pair_tail", [
        # 2 levels hold no pair weight, and 3 hold it all in the top level
        pytest.param(["--alpha-mag", "0.01", "--mode", "oracle", "--oracle-dim", "2"], "nan",
                     id="oracle-dim-2"),
        pytest.param(["--alpha-mag", "0.01", "--mode", "oracle", "--oracle-dim", "3"],
                     "1.000e+00", id="oracle-dim-3"),
        pytest.param(["--nbar", "0.1", "--mode", "compare", "--oracle-dim", "2"], "nan",
                     id="compare-dim-2"),
        pytest.param(["--nbar", "0.1", "--mode", "compare", "--oracle-dim", "2",
                      "--format", "json"], "nan", id="compare-dim-2-json"),
    ])
    def test_no_pair_weight_below_the_top_band_is_refused(self, argv, pair_tail, capsys):
        # g2's zero-delay numerator sum n(n-1) rho_nn has nothing below rho's
        # top 10% levels: the oracle g2 would be -1.9e-12 for coherent light
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--steps", "1"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"g2tau: truncation failed: pair_tail={pair_tail}:")

    def test_oracle_resolves_a_weak_coherent_state(self, capsys):
        # |alpha|² = 1e-6: g2's numerator, about 1e-12, lies on levels whose
        # population is below the support's 1e-10, and the first basis keeps them
        argv = ["--alpha-mag", "1e-3", "--oracle-dim", "40", "--mode", "oracle",
                "--steps", "4", "--format", "json"]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["metadata"]["working_dim"] < 40
        g2_column = np.array([sample["g2"] for sample in doc["samples"]])
        assert np.abs(g2_column - 1.0).max() <= 1e-8

    def test_oracle_leakage_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(fock_oracle, "_evolution_dim", lambda *args: 70)
        code = main(["--nbar", "0.3", "--r", "0.4", "--alpha-mag", "0.8", "--mode", "oracle",
                     "--oracle-dim", "60", "--tau-max", "1.5", "--steps", "2"])
        assert code == EXIT_COMPARE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: truncation failed: leakage=")
        assert "working_dim=70" in lines[0] and "oracle_dim=60" in lines[0]

    def test_readme_config_example_runs_in_oracle_mode(self, capsys):
        # the 120-level basis leaks, and the tight size, 1940 levels, holds the
        # evolution: rows, exit 0, g2 within the leakage's share
        argv = ["--nbar", "0.2", "--r", "0.8", "--alpha-mag", "0.5", "--tau-max", "2",
                "--steps", "7"]
        assert main(argv) == EXIT_OK
        closed = capsys.readouterr().out.splitlines()
        assert main(argv + ["--mode", "oracle"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        basis = next(line for line in lines if line.startswith("# oracle_dim="))
        working_dim = int(basis.split("working_dim=")[1].split()[0])
        assert 120 < working_dim <= _WORKING_DIM_CAP

        def g2_column(rows):
            header = rows.index(next(row for row in rows if row.startswith("tau,")))
            column = rows[header].split(",").index("g2")
            return np.array([float(row.split(",")[column]) for row in rows[header + 1:]])

        oracle, reference = g2_column(lines), g2_column(closed)
        assert oracle.size == reference.size == 8
        np.testing.assert_allclose(oracle, reference, rtol=10 * LEAKAGE_TOL, atol=0)

    @pytest.mark.parametrize("argv, bound", [
        (["--r", "0.5", "--tau-max", "1000"], f"<= {MAX_COSH_ARG:g}"),
        (["--alpha-mag", "1e200"], f"<= {MAX_AMPLITUDE:g}"),
        (["--alpha-mag", "1e154", "--r", "0.1"], f"<= {MAX_AMPLITUDE:g}"),
        (["--alpha-mag", "1e150", "--r", "1", "--tau-max", "10"], f"<= {MAX_AMPLITUDE:g}"),
    ])
    def test_overflowing_mean_is_a_usage_error(self, argv, bound, capsys):
        assert main(argv + ["--steps", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if line.startswith("g2tau: error:")]
        assert len(errors) == 1 and bound in errors[0]

    @pytest.mark.parametrize("argv", [
        ["--nbar", "1e300", "--steps", "1"],
        ["--r", "100", "--tau-max", "2.5", "--steps", "2"],
    ])
    def test_overflowing_g2_is_a_usage_error(self, argv, tmp_path, capsys):
        # mean_n is finite, but g2's numerator or denominator is not: no nan
        # rows with exit 0, and no output file
        output = tmp_path / "out.csv"
        for args in (argv, argv + ["--output", str(output)]):
            assert main(args) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "Traceback" not in captured.err
            errors = [line for line in captured.err.splitlines() if line.startswith("g2tau: error:")]
            assert len(errors) == 1 and "not finite" in errors[0]
        assert not output.exists()

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
        # 40 levels cannot hold r 1.4: the worst error is 5.8e-2, unconverged
        code = main(["--r", "1.4", "--mode", "compare", "--oracle-dim", "40",
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
        grid = _evaluate(parse_config(config_argv))[1]
        columns = [grid.tau, grid.r_tau, grid.mean_n, grid.n_tau, grid.s_tau, grid.g2]
        assert len(body) == 1 + len(grid.tau)
        for line, row in zip(body[1:], zip(*columns)):
            fields = [float(x) for x in line.split(",")]
            assert fields == list(row)

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
        convergence = report["convergence"]
        # thermal light at nbar 0.4 holds all but eps of its three sums in its
        # lowest 36 levels (sum n(n-1) rho_nn sets it), and free evolution
        # keeps it there
        assert convergence["working_dim"] == doc["metadata"]["working_dim"] == 36
        assert convergence["leakage"] == doc["metadata"]["leakage"] < LEAKAGE_TOL

    @pytest.mark.parametrize("mode", ["oracle", "compare"])
    def test_oracle_outputs_state_their_basis(self, mode, capsys):
        argv = ["--nbar", "0.4", "--r", "0.2", "--alpha-mag", "0.5", "--mode", mode,
                "--oracle-dim", "40", "--steps", "2", "--tau-max", "0.3"]
        assert main(argv) == EXIT_OK
        header = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        working_dim, leakage = metadata["working_dim"], metadata["leakage"]
        assert working_dim >= 40 and abs(leakage) < LEAKAGE_TOL
        basis = [line for line in header if line.startswith("# oracle_dim=")]
        assert len(basis) == 1
        assert basis[0].startswith(f"# oracle_dim=40 working_dim={working_dim} leakage=")
        assert float(basis[0].rpartition("=")[2]) == leakage
        named = mode == "oracle"
        assert ("# closed-form columns: r_tau,n_tau,s_tau" in header) == named
        assert metadata.get("closed_form_columns") == (["r_tau", "n_tau", "s_tau"] if named else None)

    def test_closed_form_output_names_no_oracle_basis(self, capsys):
        assert main(["--nbar", "1", "--steps", "2", "--format", "json"]) == EXIT_OK
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert not {"oracle_dim", "working_dim", "leakage", "closed_form_columns"} & set(metadata)

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

    @pytest.mark.parametrize("where", ["missing-directory", "directory", "empty-flag",
                                       "empty-config"])
    def test_unwritable_output_is_a_usage_error(self, where, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where an empty path would land, if it were opened
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"output": ""}))
        argv = {
            "missing-directory": ["--output", str(tmp_path / "missing" / "x.csv")],
            "directory": ["--output", str(tmp_path)],
            "empty-flag": ["--output", ""],
            "empty-config": ["--config", str(config)],
        }[where]
        before = sorted(tmp_path.rglob("*"))
        assert main(["--nbar", "1", "--steps", "2", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("g2tau: error: cannot write output: ")
        assert "Traceback" not in captured.err
        assert sorted(tmp_path.rglob("*")) == before  # no output file is left behind


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
