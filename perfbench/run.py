"""Benchmark of the g2tau CLI: one closed-loop client calling sweep_cli.main.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 40 --trace 0

Workloads are closed_form, oracle_curve and compare_grid (see inputs.py);
--workload all runs the three one after another, each in its own process.
One process imports g2tau from src/ once, pins BLAS to at most two threads,
and runs seeded ops back to back in whole rounds, starting a round only
while one more round as long as the last still fits in --seconds.
Each op starts with the package caches cleared, as a fresh CLI process would.

--trace 0 reports the end-to-end metrics, setup_s from several fresh
processes that import g2tau.  --trace 1 runs every op twice,
untraced and then traced (spans and tracemalloc, see spans.py), and reports
the per-layer medians and the tracing overhead.  Report lines come first; the
last line of stdout is one JSON object {correct, attempted, failed, metrics}.
The exit status is 1 when an output check fails, 2 when src/g2tau is absent.
Per-op records and the spans of one traced op go to .perfbench_out/.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREADS = min(2, len(os.sched_getaffinity(0)))
# Must precede the first numpy import, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from inputs import T_GEN, WORKLOADS, rounds  # noqa: E402

SETUP_SAMPLES = 9
SAMPLED_OPS = 2  # closed_form: ops of the first round checked against the oracle
SAMPLED_ROWS = 2  # rows per sampled op
OUTDIR = ROOT / ".perfbench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "sweep_cli.self_s": "s",
    "gaussian_core.calls": "count",
    "gaussian_core.self_s": "s",
    "param_map.calls": "count",
    "param_map.self_s": "s",
    "fock_oracle.calls": "count",
    "fock_oracle.self_s": "s",
    "fock_oracle.first_call_s": "s",
    "fock_oracle.later_call_s_p50": "s",
    "fock_oracle.check_s": "s",
    "fock_oracle.retained_mb": "MB",
    "fock_oracle.peak_mb": "MB",
    "kernel.eigh_calls": "count",
    "kernel.eigh_s": "s",
    "kernel.eigh_n3": "N3",
    "kernel.eigh_max_n": "N",
    "trace.overhead_frac": "ratio",
}
# Reported on the report lines only.  The first two are undefined in some
# runs, failed_frac and repeat_frac are 0 by design and rescored_ops nearly
# always, and agree_digits, the worst error over a run, swings from about 6 to
# 15 digits between seeds with the run's most Fock-heavy state: none of them
# can carry a bound.  rescored_ops counts ops off by more than the tolerance at
# an uncertified dim 120 and re-scored at 240 (see checks.py).
REPORT_UNITS = {
    "op_s_tail": "s",
    "converged_frac": "ratio",
    "failed_frac": "ratio",
    "repeat_frac": "ratio",
    "rescored_ops": "count",
    "agree_digits": "digits",
}


def setup_sample(env: dict) -> tuple[float, str]:
    """Seconds from spawning a Python process until `import g2tau` is done."""
    code = "import time, g2tau; print(time.monotonic_ns(), g2tau.__file__)"
    started = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=60, check=True,
    )
    done, path = proc.stdout.split(maxsplit=1)
    return (int(done) - started) / 1e9, path.strip()


def tail_percentile(times: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten ops beyond it, as (percent, seconds)."""
    ordered = sorted(times)
    k = len(ordered) - 11
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_metadata(seed: int) -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        import g2tau
        import g2tau.fock_oracle
        import g2tau.gaussian_core
        import g2tau.param_map
        import g2tau.sweep_cli

        self.g2tau = g2tau
        self.modules = {name: getattr(g2tau, name) for name in spans.LAYERS}
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.op_times: list[float] = []
        self.traced_pairs: list[tuple[float, float]] = []  # (untraced, traced) per op
        self.layer: list[dict[str, float]] = []
        self.records: list[dict] = []
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.couplings: list[tuple[complex, complex]] = []
        self.agree: list[float] = []  # relative errors at a certified truncation
        # (op, state, tau, the program's oracle g2): off by more than the
        # tolerance at an uncertified dim 120, re-scored at the certified dim
        self.deferred: list[tuple[int, object, float, float]] = []
        self.sampled: list[tuple[int, object, float, float]] = []  # (op, state, tau, g2)
        self.converged = 0  # passing compare ops whose doubling check certified dim 120
        self.first_spans: list[spans.Span] = []

    # --- running ---------------------------------------------------------

    def clear_caches(self) -> None:
        for module in self.modules.values():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
        gc.collect()

    def call(self, main, argv) -> tuple[float, int | None, str]:
        self.clear_caches()
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            started = time.perf_counter()
            try:
                status = main(list(argv))
            except Exception:
                status = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - started
        return elapsed, status, err.getvalue()

    def warm_up(self) -> None:
        argv = ["--mode", self.workload.mode, "--steps", "2", "--oracle-dim", "16",
                "--nbar", "0.5", "--r", "0.3", "--alpha-mag", "0.5",
                "--output", str(OUTDIR / "warmup.csv")]
        self.call(self.modules["sweep_cli"].main, argv)

    def run(self) -> None:
        OUTDIR.mkdir(exist_ok=True)
        self.warm_up()
        started = time.perf_counter()
        last_round = 0.0
        for ops in rounds(self.name, self.seed, str(OUTDIR)):
            elapsed = time.perf_counter() - started
            if self.op_times and elapsed + last_round > self.seconds:
                break
            for op in ops:
                self.run_op(op)
            last_round = time.perf_counter() - started - elapsed
        usage = resource.getrusage(resource.RUSAGE_SELF)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.finish_checks()

    def run_op(self, op) -> None:
        index = len(self.op_times)
        main = self.modules["sweep_cli"].main
        elapsed, status, err = self.call(main, op.argv)
        self.op_times.append(elapsed)
        record = {"argv": list(op.argv), "rows": op.rows, "op_s": elapsed, "status": status}
        self.records.append(record)
        state, params = self.state_and_params(op)
        self.couplings.append((params.b, params.c))
        problems = self.check_op(index, op, state, params, status, err)
        if self.trace and not problems:
            problems = self.traced_replay(op, status, record, elapsed)
        for problem in problems:
            self.fail(index, f"{problem} ({' '.join(op.argv)})")

    def traced_replay(self, op, status, record, untraced_s: float) -> list[str]:
        with open(op.output, "rb") as fh:
            untraced_output = fh.read()
        tracer = spans.Tracer()
        main = tracer.wrap("sweep_cli", "main", self.modules["sweep_cli"].main)
        tracer.install(self.modules)
        try:
            elapsed, traced_status, err = self.call(main, op.argv)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracer.uninstall()
            tracemalloc.stop()
        taken = tracer.take()
        if not self.first_spans:
            self.first_spans = taken
        self.traced_pairs.append((untraced_s, elapsed))
        metrics = spans.op_metrics(taken, retained)
        self.layer.append(metrics)
        record["traced_s"] = elapsed
        record["layers"] = metrics
        with open(op.output, "rb") as fh:
            same = fh.read() == untraced_output
        if traced_status != status or not same:
            return [f"traced replay differs: status {traced_status}, same output {same}, {err}"]
        return []

    # --- checking --------------------------------------------------------

    def state_and_params(self, op):
        g = self.g2tau
        state = g.GaussianStateParams(
            alpha=g.from_polar(op.alpha_mag, op.alpha_phase),
            xi=g.SqueezeParam(op.r, op.theta),
            nbar=op.nbar,
        )
        return state, g.hamiltonian_from_state(g.GenerationSpec(state=state, t=T_GEN))

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        self.failures.append(f"op {index}: {problem}")

    def check_op(self, index: int, op, state, params, status, err: str) -> list[str]:
        mode = self.workload.mode
        allowed = (checks.EXIT_OK, checks.EXIT_COMPARE) if mode == "compare" else (checks.EXIT_OK,)
        if status not in allowed:
            return [f"exit {status}: {err.strip()}"]
        if status == checks.EXIT_OK and err:
            return [f"unexpected stderr: {err.strip()}"]
        try:
            rows, report = checks.read_output(op.output, op.fmt)
        except (OSError, ValueError, LookupError) as exc:
            return [f"unreadable output: {exc!r}"]
        problems = checks.shape_problems(rows, op.rows)
        if problems:
            return problems
        if mode == "closed_form":
            self.sample_rows(index, state, rows)
        elif mode == "oracle":
            return self.check_oracle(index, state, params, rows)
        else:
            return self.check_compare(index, state, status, rows, report)
        return []

    def sample_rows(self, index: int, state, rows) -> None:
        rng = random.Random(f"check:{self.name}:{self.seed}")
        chosen = rng.sample(range(len(self.workload.strata)), SAMPLED_OPS)
        if index in chosen:
            rng = random.Random(f"check:{self.name}:{self.seed}:{index}")
            for row in rng.sample(rows, SAMPLED_ROWS):
                self.sampled.append((index, state, row["tau"], row["g2"]))

    def check_oracle(self, index: int, state, params, rows) -> list[str]:
        g2 = self.g2tau.g2
        errors = [checks.rel_err(g2(state, params.b, params.c, row["tau"]), row["g2"]) for row in rows]
        worst = max(range(len(rows)), key=errors.__getitem__)
        if errors[worst] <= checks.ACCEPT_REL_TOL:
            self.agree.append(errors[worst])
            return []
        rho = self.g2tau.gaussian_rho(state, checks.BASE_DIM)
        if checks.tail_mass(rho) <= checks.TAIL_BUDGET:
            return [f"oracle g2 off by {errors[worst]:.3e} at certified dim {checks.BASE_DIM}"]
        self.deferred.append((index, state, rows[worst]["tau"], rows[worst]["g2"]))
        return []

    def check_compare(self, index: int, state, status, rows, report) -> list[str]:
        errors = [checks.rel_err(row["g2"], row["g2_oracle"]) for row in rows]
        if status == checks.EXIT_OK:
            if not report["convergence"]["converged"]:
                return ["exit 0 with an unconverged truncation"]
            if max(errors) > checks.ACCEPT_REL_TOL:
                return [f"compare g2 off by {max(errors):.3e}"]
            self.agree.append(max(errors))
            self.converged += 1  # a passing op whose report says converged
            return []
        verdict = checks.exit3_verdict(report)
        if verdict == "failed":
            return [f"exit 3 with a converged truncation, max_rel_err {report['max_rel_err']:.3e}"]
        if verdict == "rescore":
            worst = max(range(len(rows)), key=errors.__getitem__)
            self.deferred.append((index, state, rows[worst]["tau"], rows[worst]["g2_oracle"]))
        return []

    def finish_checks(self) -> None:
        """Oracle checks that build at dim 240, after the peak RSS is read.

        The reference is g2_oracle at the first of dims 120 and 240 whose
        Fock tail is under the budget, as in the acceptance suite.  The closed
        form must match it within the acceptance tolerance.  A re-scored op's
        own oracle output, taken at its uncertified dim 120, must match it
        within the truncation tolerance.
        """
        g = self.g2tau
        pending = [(index, state, tau, closed, None) for index, state, tau, closed in self.sampled]
        for index, state, tau, program in self.deferred:
            params = g.hamiltonian_from_state(g.GenerationSpec(state=state, t=T_GEN))
            pending.append((index, state, tau, g.g2(state, params.b, params.c, tau), program))
        for index, state, tau, closed, program in pending:
            for dim in (checks.BASE_DIM, 2 * checks.BASE_DIM):
                if checks.tail_mass(g.gaussian_rho(state, dim)) <= checks.TAIL_BUDGET:
                    break
            else:
                self.fail(index, f"Fock tail over {checks.TAIL_BUDGET:g} at dim {dim}")
                continue
            params = g.hamiltonian_from_state(g.GenerationSpec(state=state, t=T_GEN))
            reference = g.g2_oracle(state, params, tau, dim)
            error = checks.rel_err(closed, reference)
            self.agree.append(error)
            if error > checks.ACCEPT_REL_TOL:
                self.fail(index, f"closed form vs oracle at dim {dim} off by {error:.3e} at tau {tau}")
            if program is not None:
                error = checks.rel_err(program, reference)
                if error > checks.TRUNCATION_REL_TOL:
                    self.fail(index, f"dim-{checks.BASE_DIM} oracle output vs oracle at dim {dim} "
                              f"off by {error:.3e} at tau {tau}")
        self.clear_caches()

    # --- reporting -------------------------------------------------------

    def repeat_frac(self) -> float:
        """Share of ops whose couplings repeat an earlier op's."""
        return 1.0 - len(set(self.couplings)) / len(self.couplings)

    def end_to_end(self, setup: list[float]) -> dict[str, float]:
        rows = sum(r["rows"] for r in self.records)
        return {
            "setup_s": statistics.median(setup),
            "op_s_p50": statistics.median(self.op_times),
            "rows_per_s": rows / sum(self.op_times),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def agree_digits(self) -> float:
        """-log10 of the worst relative error, capped at double precision."""
        return -math.log10(max(max(self.agree, default=1.0), 1e-16))

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in PER_LAYER_UNITS:
            if name != "trace.overhead_frac":
                out[name] = statistics.median(m[name] for m in self.layer)
        untraced, traced = map(sum, zip(*self.traced_pairs))
        out["trace.overhead_frac"] = traced / untraced - 1.0
        return out

    def predictions(self, layer: dict[str, float]) -> list[str]:
        op_s = statistics.median(m["op_s"] for m in self.layer)
        later = statistics.median(m["fock_oracle.later_calls"] for m in self.layer)
        shares = {
            "oracle_curve": ("fock_oracle.later_call_s_p50 x delays",
                             layer["fock_oracle.later_call_s_p50"] * later),
            "compare_grid": ("kernel.eigh_s", layer["kernel.eigh_s"]),
            "closed_form": ("gaussian_core.self_s + sweep_cli.self_s",
                            layer["gaussian_core.self_s"] + layer["sweep_cli.self_s"]),
        }
        label, seconds = shares[self.name]
        share = seconds / op_s
        verdict = "holds" if share > 0.5 else "does not hold"
        return [f"prediction {self.name}: {label} is {share:.1%} of the traced op time "
                f"{op_s:.4g} s; 'most of the op' {verdict}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        return max(subprocess.run([sys.executable, __file__, "--workload", name] + flags).returncode
                   for name in WORKLOADS)

    if not (SRC / "g2tau" / "__init__.py").is_file():
        print(f"perfbench: no g2tau package under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    samples = [] if args.trace else [setup_sample(env) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import g2tau

    for path in [g2tau.__file__] + [p for _, p in samples]:
        if not Path(path).resolve().is_relative_to(SRC):
            print(f"perfbench: g2tau imported from {path}, not {SRC}", file=sys.stderr)
            return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    meta = run_metadata(args.seed)
    attempted = len(bench.op_times)
    failed = len(bench.failed)
    tail = tail_percentile(bench.op_times)
    report = {
        "op_s_tail": f"{tail[1]:.6g} (p{tail[0]:.1f} of {attempted} ops)" if tail
        else f"n/a ({attempted} ops; needs at least 11)",
        "failed_frac": failed / attempted,
        "converged_frac": bench.converged / attempted
        if bench.workload.mode == "compare" else "n/a (no doubling check)",
        "rescored_ops": len(bench.deferred),
        "repeat_frac": bench.repeat_frac(),
        "agree_digits": bench.agree_digits(),
    }
    lines = [f"workload {args.workload}: {bench.workload.why}", f"meta {json.dumps(meta)}"]
    lines += [f"{name} = {value} {REPORT_UNITS[name]}" for name, value in report.items()]
    if bench.trace:
        units = PER_LAYER_UNITS
        values = bench.per_layer() if bench.layer else {}  # empty when every op failed
        lines += bench.predictions(values) if values else []
    else:
        values, units = bench.end_to_end([s for s, _ in samples]), END_TO_END_UNITS
    lines += [f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items() if name in values]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}
    lines += [f"FAILED {line}" for line in bench.failures]

    out = OUTDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({
        "meta": meta, "report": report, "metrics": values, "ops": bench.records,
        "first_traced_op_spans": [vars(s) for s in bench.first_spans],
    }, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
