"""Delay sweep of g2(tau) as a command-line table.

The state is given in polar pieces (--alpha-mag/--alpha-phase, --r/--theta,
--nbar), the couplings are recovered for the generation time --t-gen, and the
sweep covers steps+1 uniform delays on [0, tau-max].  Output is CSV (default)
or JSON, to stdout or --output; identical invocations produce byte-identical
output.

Usage examples:

    g2tau --nbar 1 --tau-max 5                    # thermal light, g2 = 2
    g2tau --r 0.8 --tau-max 2 --steps 100         # squeezed vacuum
    g2tau --alpha-mag 1 --r 0.3 --mode compare    # closed form vs oracle
    g2tau --config run.json --format json --output curve.json

Exit status: 0 success; 1 usage error; 2 undefined coherence (vacuum state);
3 comparison or truncation failure (compare: worst relative error above 1e-4
or oracle not converged; oracle: more than 1e-4 of rho in its top 10% levels).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, replace
from typing import Sequence, TextIO

from .fock_oracle import TruncationReport, convergence_check, gaussian_rho, oracle_sweep
from .gaussian_core import (
    CoherenceSample,
    GaussianStateParams,
    SqueezeParam,
    UndefinedCoherenceError,
    coherence_sample,
    from_polar,
)
from .param_map import GenerationSpec, HamiltonianParams, hamiltonian_from_state

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_UNDEFINED",
    "EXIT_COMPARE",
    "COMPARE_REL_TOL",
    "ORACLE_TAIL_TOL",
    "MAX_STEPS",
    "UsageError",
    "TruncationError",
    "RunConfig",
    "CompareReport",
    "parse_config",
    "run_sweep",
    "run_compare",
    "main",
    "cli",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_COMPARE = 3

MODES = ("closed_form", "oracle", "compare")
FORMATS = ("csv", "json")

# Worst tolerated closed-form vs oracle relative error in compare mode.
COMPARE_REL_TOL = 1e-4

# Oracle mode's bound on rho's population in its top 10% levels.  Measured:
# 1.5e-6 at the benchmark hull's worst corner (nbar 1, r 0.8, |alpha| 1.5) and
# 2.4e-3, 0.96, 0.99 at |alpha| 9, 12, 13 (all dim 120); 3.7e-2 at r 2.5, dim 40.
ORACLE_TAIL_TOL = 1e-4

MAX_STEPS = 1_000_000  # a closed-form sweep of 1e6 steps takes about 20 s and 0.5 GB

_DEFAULTS = {
    "nbar": 0.0,
    "r": 0.0,
    "theta": 0.0,
    "alpha_mag": 0.0,
    "alpha_phase": 0.0,
    "t_gen": 1.0,
    "tau_max": 1.0,
    "steps": 200,
    "mode": "closed_form",
    "oracle_dim": 120,
    "format": "csv",
    "output": None,
}


class UsageError(Exception):
    """Bad flags, bad config file, or out-of-range parameters."""


class TruncationError(Exception):
    """Oracle mode's rho holds more than ORACLE_TAIL_TOL in its top 10% levels."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved here for
    # undefined coherence, so route usage problems through UsageError.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved sweep parameters."""

    state: GaussianStateParams
    t_gen: float
    tau_max: float
    steps: int
    mode: str
    oracle_dim: int
    output_format: str
    output_path: str | None


@dataclass(frozen=True)
class CompareReport:
    """Worst-case closed-form vs oracle discrepancy over a sweep."""

    max_abs_err: float
    max_rel_err: float
    worst_tau: float
    convergence: TruncationReport


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="g2tau",
        description="Sweep the temporal second-order coherence g2(tau) of "
        "displaced-squeezed thermal light from a degenerate parametric amplifier.",
    )
    add = parser.add_argument
    add("--nbar", type=float, default=None, help="thermal occupation (default 0)")
    add("--r", type=float, default=None, help="squeeze magnitude (default 0)")
    add("--theta", type=float, default=None, help="squeeze phase, radians (default 0)")
    add("--alpha-mag", type=float, default=None, help="displacement magnitude (default 0)")
    add("--alpha-phase", type=float, default=None, help="displacement phase, radians (default 0)")
    add("--t-gen", type=float, default=None, help="generation time of the state (default 1)")
    add("--tau-max", type=float, default=None, help="largest delay of the sweep (default 1)")
    add("--steps", type=int, default=None, help="number of grid intervals; steps+1 rows (default 200)")
    add("--mode", choices=MODES, default=None, help="evaluation path (default closed_form)")
    add("--oracle-dim", type=int, default=None, help="Fock truncation for oracle/compare (default 120)")
    add("--format", choices=FORMATS, default=None, help="output format (default csv)")
    add("--output", default=None, help="output file, '-' or omitted for stdout")
    add("--config", default=None, help="JSON file of defaults; explicit flags win")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    values = {}
    for key, value in raw.items():
        name = key.replace("-", "_")
        if name not in _DEFAULTS:
            raise UsageError(f"unknown config key: {key!r}")
        values[name] = value
    return values


def _as_float(name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return float(value)


def _as_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise UsageError(f"{name} must be an integer, got {value!r}")
    return value


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """Resolve flags, optional config file, and defaults into a RunConfig.

    Precedence: explicit flags > config file > built-in defaults.  A value out
    of range (a non-finite float, negative nbar or r, non-positive times, steps
    outside [1, MAX_STEPS], oracle_dim < 2 when the oracle runs) is a UsageError.
    """
    namespace = _build_parser().parse_args(argv)
    merged = dict(_DEFAULTS)
    if namespace.config is not None:
        merged.update(_load_config_file(namespace.config))
    for name in _DEFAULTS:
        flag_value = getattr(namespace, name)
        if flag_value is not None:
            merged[name] = flag_value

    nbar = _as_float("nbar", merged["nbar"])
    r = _as_float("r", merged["r"])
    theta = _as_float("theta", merged["theta"])
    alpha_mag = _as_float("alpha-mag", merged["alpha_mag"])
    alpha_phase = _as_float("alpha-phase", merged["alpha_phase"])
    t_gen = _as_float("t-gen", merged["t_gen"])
    tau_max = _as_float("tau-max", merged["tau_max"])
    steps = _as_int("steps", merged["steps"])
    oracle_dim = _as_int("oracle-dim", merged["oracle_dim"])
    mode = merged["mode"]
    output_format = merged["format"]
    output = merged["output"]

    if mode not in MODES:
        raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
    if output_format not in FORMATS:
        raise UsageError(f"format must be one of {FORMATS}, got {output_format!r}")
    if nbar < 0.0:
        raise UsageError(f"nbar must be >= 0, got {nbar}")
    if r < 0.0:
        raise UsageError(f"r must be >= 0, got {r}")
    if alpha_mag < 0.0:
        raise UsageError(f"alpha-mag must be >= 0, got {alpha_mag}")
    if t_gen <= 0.0:
        raise UsageError(f"t-gen must be > 0, got {t_gen}")
    if tau_max <= 0.0:
        raise UsageError(f"tau-max must be > 0, got {tau_max}")
    if steps < 1:
        raise UsageError(f"steps must be >= 1, got {steps}")
    if steps > MAX_STEPS:
        raise UsageError(f"steps must be <= {MAX_STEPS}, got {steps}")
    if mode != "closed_form" and oracle_dim < 2:
        raise UsageError(f"oracle-dim must be >= 2, got {oracle_dim}")
    if output is not None and not isinstance(output, str):
        raise UsageError(f"output must be a path, got {output!r}")

    state = GaussianStateParams(
        alpha=from_polar(alpha_mag, alpha_phase),
        xi=SqueezeParam(r, theta),
        nbar=nbar,
    )
    return RunConfig(
        state=state,
        t_gen=t_gen,
        tau_max=tau_max,
        steps=steps,
        mode=mode,
        oracle_dim=oracle_dim,
        output_format=output_format,
        output_path=None if output in (None, "-") else output,
    )


def _evaluate(
    config: RunConfig,
) -> tuple[HamiltonianParams, list[CoherenceSample], list[float] | None, CompareReport | None]:
    """Couplings, rows, and in compare mode the oracle g2 values and the report.

    Every mode computes the closed-form rows; oracle mode then takes mean_n
    and g2 from the oracle, whose sweep covers the whole grid in one call.
    The vacuum is rejected by the first row, before any oracle work.
    """
    state = config.state
    params = hamiltonian_from_state(GenerationSpec(state=state, t=config.t_gen))
    taus = [config.tau_max * i / config.steps for i in range(config.steps + 1)]
    rows = [coherence_sample(state, params.b, params.c, tau) for tau in taus]
    if config.mode == "closed_form":
        return params, rows, None, None
    rho = gaussian_rho(state, config.oracle_dim)  # held to the end: freed early, peak RSS rose 4%
    sweep = oracle_sweep(rho, params, taus)
    if config.mode == "oracle":
        if sweep.tail_mass > ORACLE_TAIL_TOL:
            raise TruncationError(f"tail_mass={sweep.tail_mass:.3e} at oracle_dim={config.oracle_dim}")
        rows = [
            replace(row, mean_n=mean_n, g2=g2)
            for row, mean_n, g2 in zip(rows, sweep.mean_n.tolist(), sweep.g2.tolist())
        ]
        return params, rows, None, None

    oracle_values = sweep.g2.tolist()
    max_abs = max_rel = -1.0
    worst_tau = taus[0]
    for row, reference in zip(rows, oracle_values):
        abs_err = abs(row.g2 - reference)
        rel_err = abs_err / abs(reference)
        max_abs = max(max_abs, abs_err)
        if rel_err > max_rel:
            max_rel = rel_err
            worst_tau = row.tau
    # probe convergence where the flow squeezing (and truncation stress)
    # peaks, the sweep's last delay
    report = CompareReport(
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        worst_tau=worst_tau,
        convergence=convergence_check(state, params, taus[-1], config.oracle_dim, base=sweep),
    )
    return params, rows, oracle_values, report


def run_sweep(config: RunConfig) -> list[CoherenceSample]:
    """The sweep's rows: closed form, or in oracle mode with the oracle's mean_n and g2."""
    return _evaluate(config)[1]


def run_compare(config: RunConfig) -> CompareReport:
    """Closed form against oracle at every delay of the sweep."""
    return _evaluate(replace(config, mode="compare"))[3]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _header_lines(config: RunConfig, params: HamiltonianParams) -> list[str]:
    state = config.state
    lines = [
        "# g2(tau) sweep",
        f"# state: nbar={_fmt(state.nbar)} r={_fmt(state.xi.r)} theta={_fmt(state.xi.theta)} "
        f"alpha={_fmt_complex(state.alpha)}",
        f"# couplings: b={_fmt_complex(params.b)} c={_fmt_complex(params.c)} t_gen={_fmt(config.t_gen)}",
        f"# grid: tau_max={_fmt(config.tau_max)} steps={config.steps} mode={config.mode}",
    ]
    if config.mode != "closed_form":
        lines.append(f"# oracle_dim={config.oracle_dim}")
    return lines


# One schema for both formats: the CSV header and the JSON sample keys.
_COLUMNS = ("tau", "r_tau", "mean_n", "n_tau", "s_tau", "g2")
_row_values = operator.attrgetter(*_COLUMNS)


def _emit(
    out: TextIO,
    config: RunConfig,
    params: HamiltonianParams,
    rows: list[CoherenceSample],
    oracle_values: list[float] | None,
    report: CompareReport | None,
) -> None:
    columns = _COLUMNS
    table = [_row_values(row) for row in rows]
    if oracle_values is not None:
        columns += ("g2_oracle", "abs_err")
        table = [
            values + (reference, abs(row.g2 - reference))
            for values, row, reference in zip(table, rows, oracle_values)
        ]
    if config.output_format == "csv":
        for line in _header_lines(config, params):
            out.write(line + "\n")
        out.write(",".join(columns) + "\n")
        for values in table:
            out.write(",".join(map(_fmt, values)) + "\n")
        return

    state = config.state
    metadata: dict = {
        "nbar": state.nbar,
        "r": state.xi.r,
        "theta": state.xi.theta,
        "alpha": {"re": state.alpha.real, "im": state.alpha.imag},
        "couplings": {
            "b": {"re": params.b.real, "im": params.b.imag},
            "c": {"re": params.c.real, "im": params.c.imag},
        },
        "t_gen": config.t_gen,
        "tau_max": config.tau_max,
        "steps": config.steps,
        "mode": config.mode,
    }
    if config.mode != "closed_form":
        metadata["oracle_dim"] = config.oracle_dim
    if report is not None:
        metadata["report"] = asdict(report)
    samples = [dict(zip(columns, values)) for values in table]
    json.dump({"metadata": metadata, "samples": samples}, out, indent=2)
    out.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the sweep; returns the process exit status."""
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"g2tau: error: {exc}", file=sys.stderr)
        print("run 'g2tau --help' for usage", file=sys.stderr)
        return EXIT_USAGE

    try:
        params, rows, oracle_values, report = _evaluate(config)
    except UndefinedCoherenceError as exc:
        print(f"g2tau: error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except TruncationError as exc:
        print(f"g2tau: truncation failed: {exc}", file=sys.stderr)
        return EXIT_COMPARE

    if config.output_path is None:
        _emit(sys.stdout, config, params, rows, oracle_values, report)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="") as out:
            _emit(out, config, params, rows, oracle_values, report)

    if report is not None and (
        report.max_rel_err > COMPARE_REL_TOL or not report.convergence.converged
    ):
        print(
            f"g2tau: comparison failed: max_rel_err={report.max_rel_err:.3e} "
            f"converged={report.convergence.converged}",
            file=sys.stderr,
        )
        return EXIT_COMPARE
    return EXIT_OK


def cli() -> None:
    raise SystemExit(main())
