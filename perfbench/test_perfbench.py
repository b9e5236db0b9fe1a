"""Tests of the benchmark's own pieces: `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

import checks
import inputs
import run
import spans
from inputs import WORKLOADS, rounds

ROOT = Path(__file__).resolve().parent.parent

NAMED_END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "op_s_tail": "s", "rows_per_s": "1/s",
    "peak_rss_mb": "MB", "failed_frac": "ratio", "agree_digits": "digits",
    "converged_frac": "ratio",
}
NAMED_PER_LAYER = [
    "sweep_cli.self_s", "gaussian_core.calls", "gaussian_core.self_s",
    "param_map.calls", "param_map.self_s", "fock_oracle.calls", "fock_oracle.self_s",
    "fock_oracle.later_call_s_p50", "fock_oracle.first_call_s", "fock_oracle.check_s",
    "kernel.eigh_calls", "kernel.eigh_s", "kernel.eigh_n3", "fock_oracle.retained_mb",
    "fock_oracle.peak_mb", "kernel.eigh_max_n", "trace.overhead_frac",
]


def first_ops(name, seed, count):
    ops = []
    for batch in rounds(name, seed, "out"):
        ops += batch
        if len(ops) >= count:
            return ops[:count]


# --- generator -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_argv(name):
    assert [op.argv for op in first_ops(name, 7, 12)] == [op.argv for op in first_ops(name, 7, 12)]
    assert [op.argv for op in first_ops(name, 7, 12)] != [op.argv for op in first_ops(name, 8, 12)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_cover_every_r_stratum_with_distinct_states(name):
    strata = WORKLOADS[name].strata
    ops = first_ops(name, 3, 4 * len(strata))
    assert len({op.argv for op in ops}) == len(ops)
    for start in range(0, len(ops), len(strata)):
        batch = ops[start : start + len(strata)]
        assert sorted(next(s for s in strata if s[0] <= op.r < s[1]) for op in batch) == sorted(strata)
    for op in ops:
        assert 0 <= op.nbar <= 1 and 0 <= op.alpha_mag <= 1.5
        assert "--tau-max" in op.argv and "--output" in op.argv


def test_oracle_rounds_hold_three_cheap_ops_to_one_dear():
    for name in ("oracle_curve", "compare_grid"):
        strata = WORKLOADS[name].strata
        assert sum(hi <= inputs.R_STEP for _, hi in strata) == 6
        assert sum(lo >= inputs.R_STEP for lo, _ in strata) == 2
    assert len(inputs.EQUAL) == 4 and inputs.EQUAL[-1][1] == inputs.R_MAX


def test_closed_form_writes_one_json_in_four():
    formats = [op.fmt for op in first_ops("closed_form", 5, 40)]
    assert formats.count("json") == 10 and formats[3::4] == ["json"] * 10


# --- metrics named and printed --------------------------------------------


def test_every_named_metric_is_declared_with_its_unit():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    for name, unit in NAMED_END_TO_END.items():
        assert declared.get(name, run.REPORT_UNITS.get(name)) == unit, name
    assert sorted(NAMED_PER_LAYER) == sorted(run.PER_LAYER_UNITS)
    assert bench["end_to_end"][0]["name"] == "setup_s"


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_output_names_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    printed = {line.split(" = ")[0]: line.split()[-1] for line in lines if " = " in line}
    for name, unit in {**units, **run.REPORT_UNITS}.items():
        assert printed[name] == unit, name


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_percentile_needs_ten_ops_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    assert run.tail_percentile([float(i) for i in range(11)]) == (100.0 / 11, 0.0)
    assert run.tail_percentile([float(i) for i in range(100)]) == (90.0, 89.0)


# --- spans -----------------------------------------------------------------


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_on_a_nested_span_tree():
    clock = Clock()
    tracer = spans.Tracer(clock=clock)

    def eigh(matrix):
        clock.spend(4.0)

    def flow(tau):
        clock.spend(5.0)

    def oracle(state, params, tau, dim):
        clock.spend(3.0)
        w_eigh(types.SimpleNamespace(shape=(7, 7)))
        w_flow(tau)
        w_inner(tau)  # same layer, nested: part of this span

    def inner(tau):
        clock.spend(0.5)

    def closed(tau):
        clock.spend(2.0)

    def main():
        clock.spend(1.0)
        w_closed(0.0)
        w_oracle(None, None, 0.0, 8)
        w_oracle(None, None, 0.0, 8)
        w_oracle(None, None, 0.5, 8)

    w_eigh = tracer.wrap(spans.KERNEL, "eigh", eigh)
    w_flow = tracer.wrap("gaussian_core", "alpha_of_tau", flow)
    w_inner = tracer.wrap("fock_oracle", "mean_n_oracle", inner)
    w_oracle = tracer.wrap("fock_oracle", "g2_oracle", oracle)
    w_closed = tracer.wrap("gaussian_core", "g2", closed)
    try:
        tracer.wrap("sweep_cli", "main", main)()
    finally:
        tracemalloc.stop()

    m = spans.op_metrics(tracer.take(), retained_bytes=2 * 1024 * 1024)
    assert m["op_s"] == 1.0 + 2.0 + 3 * (3.0 + 4.0 + 5.0 + 0.5)
    assert m["sweep_cli.self_s"] == 1.0
    assert m["gaussian_core.calls"] == 4 and m["gaussian_core.self_s"] == 2.0 + 3 * 5.0
    assert m["fock_oracle.calls"] == 3 and m["fock_oracle.self_s"] == 3 * 3.5
    assert m["kernel.eigh_calls"] == 3 and m["kernel.eigh_s"] == 12.0
    assert m["kernel.eigh_n3"] == 3 * 343 and m["kernel.eigh_max_n"] == 7
    # the two calls at tau 0 form the first delay; tau 0.5 is the one later delay
    assert m["fock_oracle.first_call_s"] == 2 * 12.5
    assert m["fock_oracle.later_call_s_p50"] == 12.5
    assert m["fock_oracle.check_s"] == 0.0 and m["fock_oracle.retained_mb"] == 2.0
    assert m["param_map.calls"] == 0 and m["param_map.self_s"] == 0.0


def test_install_rebinds_cross_module_functions_and_restores_them():
    def shared(x):
        return x + 1

    provider = types.ModuleType("gaussian_core")
    provider.__all__ = ["shared", "Const"]
    provider.shared = shared
    provider.Const = int
    consumer = types.ModuleType("fock_oracle")
    consumer.__all__ = []
    consumer.shared = shared
    consumer.Const = int
    tracer = spans.Tracer()
    original_eigh = spans.numpy.linalg.eigh
    tracer.install({"gaussian_core": provider, "fock_oracle": consumer})
    try:
        assert provider.shared is shared  # calls inside its own module stay untraced
        assert consumer.shared is not shared and consumer.Const is int
        assert consumer.shared(1) == 2
        assert spans.numpy.linalg.eigh is not original_eigh
    finally:
        tracer.uninstall()
    assert consumer.shared is shared and spans.numpy.linalg.eigh is original_eigh
    assert [(s.layer, s.name) for s in tracer.take()] == [("gaussian_core", "shared")]


# --- checks ----------------------------------------------------------------


def report(converged, max_rel_err):
    return {"max_rel_err": max_rel_err, "worst_tau": 1.0,
            "convergence": {"converged": converged, "dim": 120}}


def test_exit3_classification():
    assert checks.exit3_verdict(report(False, 3e-11)) == "unconverged"
    assert checks.exit3_verdict(report(False, 1e-5)) == "unconverged"
    assert checks.exit3_verdict(report(False, 5e-5)) == "rescore"
    assert checks.exit3_verdict(report(True, 2e-4)) == "failed"


def test_output_shape_problems(tmp_path):
    path = tmp_path / "op.csv"
    path.write_text("# header\ntau,g2\n0,2.0\n0.5,nan\n")
    rows, rep = checks.read_output(str(path), "csv")
    assert rep is None and rows[0] == {"tau": 0.0, "g2": 2.0}
    assert checks.shape_problems(rows, 3) == ["2 rows, expected 3", "1 non-finite values"]


def test_uncertified_oracle_op_is_rescored_at_240(tmp_path, monkeypatch):
    # At the hull corner the dim-120 oracle is off by ~5e-5 and its Fock tail
    # exceeds 1e-8, so the op is re-scored at dim 240 instead of failing.
    monkeypatch.syspath_prepend(str(run.SRC))
    bench = run.Bench("oracle_curve", seed=0, seconds=0, trace=False)
    state = {"nbar": 1.0, "r": 0.8, "theta": 1.0, "alpha_mag": 1.5, "alpha_phase": 2.5}
    output = str(tmp_path / "op.csv")
    argv = inputs.make_argv(WORKLOADS["oracle_curve"], state, "csv", output)
    bench.run_op(inputs.Op(fmt="csv", rows=501, output=output, argv=argv, **state))
    assert not bench.failed and len(bench.deferred) == 1
    _, corner, tau, value = bench.deferred[0]
    # the same state, as if the program's oracle were off by 1e-3
    bench.deferred.append((1, corner, tau, value * (1 + 1e-3)))
    bench.finish_checks()
    assert bench.failed == {1} and "dim-120 oracle output" in bench.failures[0]
    assert max(bench.agree) <= checks.ACCEPT_REL_TOL


def test_converged_frac_counts_only_passing_converged_ops(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    bench = run.Bench("compare_grid", seed=0, seconds=0, trace=False)
    rows = [{"tau": 0.0, "g2": 2.0, "g2_oracle": 2.0}]
    off = [{"tau": 0.0, "g2": 2.0, "g2_oracle": 2.1}]
    assert bench.check_compare(0, None, checks.EXIT_OK, rows, report(True, 0.0)) == []
    assert bench.check_compare(1, None, checks.EXIT_OK, off, report(True, 0.05))
    assert bench.check_compare(2, None, checks.EXIT_COMPARE, off, report(True, 0.05))
    assert bench.check_compare(3, None, checks.EXIT_COMPARE, rows, report(False, 0.0)) == []
    assert bench.converged == 1
