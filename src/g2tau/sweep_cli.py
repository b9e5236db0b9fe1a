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

Exit status: 0 success; 1 usage error (including a state whose closed-form
g2 overflows double precision, and an --output that cannot be opened for
writing, which leaves no file and an empty stdout); 2 undefined coherence
(vacuum state); 3 comparison or truncation failure (compare: worst relative
error above 1e-4, or a truncation not converged, see Convergence; oracle: more
than 1e-4 of rho in its top 10% levels, or more than 1e-8 of the evolved state
in the top 10% of the working basis; both: none of g2's zero-delay numerator
below rho's top 10% levels, or a working basis above the oracle's cap of 3072
levels).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import sys
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .fock_oracle import (
    LEAKAGE_TOL,
    OracleSweep,
    TruncationError,
    gaussian_rho,
    oracle_sweep,
)
from .gaussian_core import (
    CoherenceGrid,
    GaussianStateParams,
    SqueezeParam,
    UndefinedCoherenceError,
    coherence_grid,
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
    "MAX_COSH_ARG",
    "MAX_AMPLITUDE",
    "UsageError",
    "RunConfig",
    "Convergence",
    "CompareReport",
    "parse_config",
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

MAX_STEPS = 1_000_000  # a closed-form sweep of 1e6 steps: 6 s (CSV) to 8 s (JSON), 0.16 GB

# mean_n = (nbar + 1/2) cosh(2(r + r(tau))) - 1/2 + |A(tau)|² is finite only
# while cosh's argument stays below about 710 and |A(tau)| below 1.34e154.
MAX_COSH_ARG = 709.0
MAX_AMPLITUDE = 1e154


class _Option(NamedTuple):
    """One option: the flag --name with dashes, and the config key in either spelling."""

    kind: type | tuple[str, ...]  # float, int, str, or the allowed values
    default: object
    help: str
    bound: tuple[str, int] | None = None  # (">=" or ">", lower bound), where it has one


# Every option, in --help order; parse_config converts and checks in this order.
_OPTIONS = {
    "nbar": _Option(float, 0.0, "thermal occupation", (">=", 0)),
    "r": _Option(float, 0.0, "squeeze magnitude", (">=", 0)),
    "theta": _Option(float, 0.0, "squeeze phase, radians"),
    "alpha_mag": _Option(float, 0.0, "displacement magnitude", (">=", 0)),
    "alpha_phase": _Option(float, 0.0, "displacement phase, radians"),
    "t_gen": _Option(float, 1.0, "generation time of the state", (">", 0)),
    "tau_max": _Option(float, 1.0, "largest delay of the sweep", (">", 0)),
    "steps": _Option(int, 200, "number of grid intervals; steps+1 rows", (">=", 1)),
    "mode": _Option(MODES, "closed_form", "evaluation path"),
    "oracle_dim": _Option(int, 120, "Fock truncation for oracle/compare"),
    "format": _Option(FORMATS, "csv", "output format"),
    "output": _Option(str, None, "output file, '-' or omitted for stdout"),
}
_BOUND_CHECKS = {">=": operator.ge, ">": operator.gt}


def _dashed(name: str) -> str:
    return name.replace("_", "-")


class UsageError(Exception):
    """Bad flags, bad config file, or out-of-range parameters."""


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
class Convergence:
    """Compare mode's verdict on the oracle's truncation, read from its sweep.

    dim is --oracle-dim; tail_mass, pair_tail, working_dim and leakage are
    the sweep's (see fock_oracle.OracleSweep).  converged holds when rho's
    top 10% levels carry less than 1e-6 of g2's zero-delay numerator
    (pair_tail) and less than 1e-8 of its population, and the evolution
    leaked at most LEAKAGE_TOL; a nan pair_tail is not converged.
    """

    dim: int
    tail_mass: float
    converged: bool
    pair_tail: float
    working_dim: int
    leakage: float


@dataclass(frozen=True)
class CompareReport:
    """Worst-case closed-form vs oracle discrepancy over a sweep."""

    max_abs_err: float
    max_rel_err: float
    worst_tau: float
    convergence: Convergence


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="g2tau",
        description="Sweep the temporal second-order coherence g2(tau) of "
        "displaced-squeezed thermal light from a degenerate parametric amplifier.",
    )
    for name, option in _OPTIONS.items():
        kind = {"choices": option.kind} if isinstance(option.kind, tuple) else {"type": option.kind}
        text = option.help
        if option.default is not None:
            shown = f"{option.default:g}" if isinstance(option.default, float) else option.default
            text += f" (default {shown})"
        parser.add_argument("--" + _dashed(name), default=None, help=text, **kind)
    parser.add_argument("--config", default=None, help="JSON file of defaults; explicit flags win")
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
        if name not in _OPTIONS:
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


_CONVERTERS = {float: _as_float, int: _as_int}


def parse_config(argv: Sequence[str] | None = None) -> RunConfig:
    """Resolve flags, optional config file, and defaults into a RunConfig.

    Precedence: explicit flags > config file > built-in defaults.  A value out
    of range (a non-finite float, negative nbar or r, non-positive times, steps
    outside [1, MAX_STEPS], oracle_dim < 2 when the oracle runs, or a state
    and grid whose mean_n overflows, see _check_finite_mean) is a UsageError.
    """
    namespace = _build_parser().parse_args(argv)
    values = {name: option.default for name, option in _OPTIONS.items()}
    if namespace.config is not None:
        values.update(_load_config_file(namespace.config))
    for name in _OPTIONS:
        flag_value = getattr(namespace, name)
        if flag_value is not None:
            values[name] = flag_value

    for name, option in _OPTIONS.items():
        if option.kind in _CONVERTERS:
            values[name] = _CONVERTERS[option.kind](_dashed(name), values[name])
    for name, option in _OPTIONS.items():
        if isinstance(option.kind, tuple) and values[name] not in option.kind:
            raise UsageError(f"{_dashed(name)} must be one of {option.kind}, got {values[name]!r}")
    for name, option in _OPTIONS.items():
        if option.bound is not None:
            sign, floor = option.bound
            if not _BOUND_CHECKS[sign](values[name], floor):
                raise UsageError(f"{_dashed(name)} must be {sign} {floor}, got {values[name]}")

    if values["steps"] > MAX_STEPS:
        raise UsageError(f"steps must be <= {MAX_STEPS}, got {values['steps']}")
    if values["mode"] != "closed_form" and values["oracle_dim"] < 2:
        raise UsageError(f"oracle-dim must be >= 2, got {values['oracle_dim']}")
    if values["output"] is not None and not isinstance(values["output"], str):
        raise UsageError(f"output must be a path, got {values['output']!r}")
    _check_finite_mean(values["r"], values["alpha_mag"], values["t_gen"], values["tau_max"])

    state = GaussianStateParams(
        alpha=from_polar(values["alpha_mag"], values["alpha_phase"]),
        xi=SqueezeParam(values["r"], values["theta"]),
        nbar=values["nbar"],
    )
    return RunConfig(
        state=state,
        t_gen=values["t_gen"],
        tau_max=values["tau_max"],
        steps=values["steps"],
        mode=values["mode"],
        oracle_dim=values["oracle_dim"],
        output_format=values["format"],
        output_path=None if values["output"] in (None, "-") else values["output"],
    )


def _check_finite_mean(r: float, alpha_mag: float, t_gen: float, tau_max: float) -> None:
    """Refuse a state and grid whose mean_n overflows somewhere on [0, tau_max].

    The couplings give r(tau) = r tau / t_gen, and |A(tau)| is at most
    |alpha| (e^{r + r(tau)} - 1) / (1 - e^{-r}), or |alpha| (1 + tau / t_gen)
    at r = 0; both grow with tau, so the last delay sets the bound.
    """
    r_tau_max = r * tau_max / t_gen
    cosh_arg = 2.0 * (r + r_tau_max)
    if cosh_arg > MAX_COSH_ARG:
        raise UsageError(
            f"2(r + r(tau_max)) = {cosh_arg:.6g} must be <= {MAX_COSH_ARG:g} for mean_n to be "
            "finite, with r(tau_max) = r * tau-max / t-gen"
        )
    if alpha_mag == 0.0:
        return
    growth = 1.0 + tau_max / t_gen if r == 0.0 else math.expm1(r + r_tau_max) / -math.expm1(-r)
    if alpha_mag * growth > MAX_AMPLITUDE:
        raise UsageError(
            f"alpha-mag must be <= {MAX_AMPLITUDE:g} / {growth:.6g} = {MAX_AMPLITUDE / growth:.6g} "
            f"here, got {alpha_mag:g}: the displacement grows by up to {growth:.6g} over the "
            f"sweep, and mean_n is finite only while it stays <= {MAX_AMPLITUDE:g}"
        )


def _evaluate(
    config: RunConfig,
) -> tuple[HamiltonianParams, CoherenceGrid, OracleSweep | None, CompareReport | None]:
    """Couplings, columns, the oracle sweep unless closed form, and in compare mode the report.

    Every mode evaluates the closed form over the whole grid at once; oracle
    mode then swaps in the oracle's mean_n and g2, whose sweep covers the
    grid in one call.  The vacuum is rejected before any array or oracle
    work, and a grid whose g2 overflows double precision is a usage error
    naming its first such delay.
    """
    state = config.state
    params = hamiltonian_from_state(GenerationSpec(state=state, t=config.t_gen))
    taus = config.tau_max * np.arange(config.steps + 1) / config.steps
    try:
        grid = coherence_grid(state, params.b, params.c, taus)
    except OverflowError as exc:
        raise UsageError(str(exc)) from None
    if config.mode == "closed_form":
        return params, grid, None, None
    rho = gaussian_rho(state, config.oracle_dim)  # held to the end: freed early, peak RSS rose 4%
    sweep = oracle_sweep(rho, params, taus)
    oracle_g2 = sweep.g2  # a state below the roundoff floor is undefined, not truncated
    if not sweep.pair_tail < 1.0:
        raise TruncationError(
            f"pair_tail={sweep.pair_tail:.3e}: rho holds none of g2's zero-delay numerator "
            "below its top 10% levels"
        )
    if config.mode == "oracle":
        if sweep.tail_mass > ORACLE_TAIL_TOL:
            raise TruncationError(f"tail_mass={sweep.tail_mass:.3e}")
        if sweep.leakage > LEAKAGE_TOL:
            raise TruncationError(
                f"leakage={sweep.leakage:.3e} above {LEAKAGE_TOL:g} in working_dim={sweep.working_dim}"
            )
        return params, replace(grid, mean_n=sweep.mean_n, g2=oracle_g2), sweep, None

    reference, abs_err = _oracle_columns(grid, sweep)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_err = abs_err / np.abs(reference)
    worst = int(np.argmax(rel_err))  # the first delay of the largest error
    converged = sweep.pair_tail < 1e-6 and sweep.tail_mass < 1e-8 and sweep.leakage <= LEAKAGE_TOL
    convergence = Convergence(config.oracle_dim, sweep.tail_mass, converged, sweep.pair_tail,
                              sweep.working_dim, sweep.leakage)
    report = CompareReport(
        max_abs_err=float(abs_err.max()),
        max_rel_err=float(rel_err[worst]),
        worst_tau=float(taus[worst]),
        convergence=convergence,
    )
    return params, grid, sweep, report


def _oracle_columns(grid: CoherenceGrid, sweep: OracleSweep) -> tuple[np.ndarray, np.ndarray]:
    """Compare mode's extra columns: the oracle's g2 and its distance from the closed form."""
    reference = sweep.g2
    return reference, np.abs(grid.g2 - reference)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _header_lines(
    config: RunConfig, params: HamiltonianParams, sweep: OracleSweep | None
) -> list[str]:
    state = config.state
    lines = [
        "# g2(tau) sweep",
        f"# state: nbar={_fmt(state.nbar)} r={_fmt(state.xi.r)} theta={_fmt(state.xi.theta)} "
        f"alpha={_fmt_complex(state.alpha)}",
        f"# couplings: b={_fmt_complex(params.b)} c={_fmt_complex(params.c)} t_gen={_fmt(config.t_gen)}",
        f"# grid: tau_max={_fmt(config.tau_max)} steps={config.steps} mode={config.mode}",
    ]
    if sweep is not None:
        lines.append(
            f"# oracle_dim={config.oracle_dim} working_dim={sweep.working_dim} "
            f"leakage={_fmt(sweep.leakage)}"
        )
    if config.mode == "oracle":
        lines.append(f"# closed-form columns: {','.join(_CLOSED_FORM_COLUMNS)}")
    return lines


# One schema for both formats: the CSV header and the JSON sample keys.
_COLUMNS = ("tau", "r_tau", "mean_n", "n_tau", "s_tau", "g2")
_column_values = operator.attrgetter(*_COLUMNS)
# The columns oracle mode keeps from the closed form; it takes mean_n and g2
# from the oracle.
_CLOSED_FORM_COLUMNS = ("r_tau", "n_tau", "s_tau")
# Rows formatted per write, so the output's memory does not grow with --steps.
_CHUNK_ROWS = 4096


def _write_rows(out: TextIO, template: str, columns: list[np.ndarray], separator: str = "") -> None:
    """Write template % row for each row of the columns, _CHUNK_ROWS rows per write.

    %-formatting converts a float as format() does, and formats a 2001-row
    sweep about a quarter faster than str.format.
    """
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = zip(*(column[start:start + _CHUNK_ROWS].tolist() for column in columns))
        out.write((separator if start else "") + separator.join(map(template.__mod__, chunk)))


def _emit(
    out: TextIO,
    config: RunConfig,
    params: HamiltonianParams,
    grid: CoherenceGrid,
    sweep: OracleSweep | None,
    report: CompareReport | None,
) -> None:
    names = _COLUMNS
    columns = list(_column_values(grid))
    if report is not None:
        names += ("g2_oracle", "abs_err")
        columns += _oracle_columns(grid, sweep)
    if config.output_format == "csv":
        for line in _header_lines(config, params, sweep):
            out.write(line + "\n")
        out.write(",".join(names) + "\n")
        _write_rows(out, ",".join(["%.17g"] * len(names)) + "\n", columns)
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
    if sweep is not None:
        metadata["oracle_dim"] = config.oracle_dim
        metadata["working_dim"] = sweep.working_dim
        metadata["leakage"] = sweep.leakage
    if config.mode == "oracle":
        metadata["closed_form_columns"] = list(_CLOSED_FORM_COLUMNS)
    if report is not None:
        metadata["report"] = asdict(report)
    # json.dump(..., indent=2) of {"metadata": ..., "samples": [...]}, with the
    # samples written a chunk at a time; json writes a finite float as its repr
    head = json.dumps({"metadata": metadata}, indent=2)
    out.write(head[: -len("\n}")] + ',\n  "samples": [\n')
    fields = ",\n".join(f"      {json.dumps(name)}: %r" for name in names)
    _write_rows(out, "    {\n" + fields + "\n    }", columns, separator=",\n")
    out.write("\n  ]\n}\n")


def main(argv: Sequence[str] | None = None) -> int:
    """Run the sweep; returns the process exit status."""
    try:
        config = parse_config(argv)
        params, grid, sweep, report = _evaluate(config)
    except UsageError as exc:
        print(f"g2tau: error: {exc}", file=sys.stderr)
        print("run 'g2tau --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except UndefinedCoherenceError as exc:
        print(f"g2tau: error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except TruncationError as exc:
        print(f"g2tau: truncation failed: {exc} at oracle_dim={config.oracle_dim}", file=sys.stderr)
        return EXIT_COMPARE

    if config.output_path is None:
        _emit(sys.stdout, config, params, grid, sweep, report)
    else:
        try:
            out = open(config.output_path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            print(f"g2tau: error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
        with out:
            _emit(out, config, params, grid, sweep, report)

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
