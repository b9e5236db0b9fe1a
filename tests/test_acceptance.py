"""Acceptance suite: the numbered guarantees this package is built to honor.

Each criterion gets one test that prints a single PASS/FAIL line with the
measured figure next to its tolerance, so a plain `pytest -v` run doubles as
an acceptance report.

Criteria:
  1. g2 closed form vs Fock oracle over the full state/delay grid, relative
     error <= 1e-5, truncation certified by the dimension-doubling check.
  2. Mean photon number closed form vs oracle trace on the same grid, <= 1e-6.
  3. Known limits: thermal g2 = 2, coherent g2 = 1, squeezed vacuum
     g2(0) = 3 + 1/sinh^2 r, each within 1e-12.
  4. g2 depends on the couplings only through the accumulated flow, so
     different generation times agree at equal r(tau), within 1e-12.
  5. Matrix-exponential Heisenberg evolution matches the closed-form flow
     coefficients on the half-dimension block, <= 1e-6 for r(tau) <= 1.
  6. Squeeze/displacement conjugation of the mode operator matches
     a cosh r - a† e^{i theta} sinh r + alpha on the half block, <= 1e-6.
  7. State -> couplings -> state round trip within 1e-10 over 1000 draws,
     including the small-r series branch.
  8. Every grid density matrix is Hermitian (1e-12), unit trace (1e-8), and
     positive semidefinite (eigenvalues >= -1e-10).
  9. CLI determinism (byte-identical reruns) and the exit-status contract.
"""

import cmath
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    HamiltonianParams,
    SqueezeParam,
    convergence_check,
    from_polar,
    g2,
    gaussian_rho,
    hamiltonian_from_state,
    heisenberg_flow,
    mean_photon_of_tau,
    state_from_hamiltonian,
)
from g2tau.fock_oracle import (
    displacement,
    heisenberg_a_matrix,
    ladder_operators,
    oracle_sweep,
    squeeze,
)
from g2tau.sweep_cli import EXIT_COMPARE, EXIT_OK, EXIT_UNDEFINED, EXIT_USAGE, main

# --- the evaluation grid -----------------------------------------------------

NBARS = (0.0, 0.2, 1.0)
SQUEEZE_MAGS = (0.0, 0.3, 0.8)
SQUEEZE_PHASES = (0.0, math.pi / 3)
ALPHA_MAGS = (0.0, 0.5, 1.5)
ALPHA_PHASES = (0.0, math.pi / 4)
R_TAU_TARGETS = (0.0, 0.2, 0.5, 0.8)
T_GEN = 1.0

GRID_DIM = 120
TAIL_BUDGET = 1e-8  # same population gate convergence_check applies


def grid_states():
    """Unique non-vacuum states; redundant phases collapse at zero magnitude."""
    states = []
    for nbar in NBARS:
        for r in SQUEEZE_MAGS:
            for theta in SQUEEZE_PHASES if r else (0.0,):
                for mag in ALPHA_MAGS:
                    for phase in ALPHA_PHASES if mag else (0.0,):
                        state = GaussianStateParams(
                            alpha=from_polar(mag, phase),
                            xi=SqueezeParam(r, theta),
                            nbar=nbar,
                        )
                        if not state.is_vacuum:
                            states.append(state)
    return states


def delay_for_target(params, r_tau):
    # tau reaching the requested flow squeeze; plain tau when there is none
    return r_tau / (2.0 * abs(params.c)) if params.c != 0 else r_tau


def tail_mass(rho):
    start = math.ceil(0.9 * rho.shape[0])
    return float(np.sum(np.diagonal(rho)[start:]).real)


def op_norm(m):
    return np.linalg.norm(m, 2)


@dataclass
class GridPoint:
    state: GaussianStateParams
    params: HamiltonianParams
    tau: float
    dim: int
    g2_rel_err: float
    mean_rel_err: float


@dataclass
class RhoReport:
    herm_defect: float
    trace_defect: float
    min_eigenvalue: float


@dataclass
class GridResults:
    points: list
    rho_reports: list
    n_trusted: int
    n_doubled: int
    doubled_tails: list  # tail mass at the doubled dimension
    worst_tail_state: GaussianStateParams
    worst_tail_params: HamiltonianParams
    worst_tail_tau: float
    elapsed: float


@pytest.fixture(scope="module")
def grid_results():
    """Evaluate closed form and oracle over the whole grid exactly once.

    Points whose density matrix keeps the top 10% of the dim-120 basis below
    the population gate are scored at dim 120; for the rest the doubling check
    fails honestly at 120, so they are scored at dim 240 instead (and their
    doubled-basis tail is recorded for criterion 1 to inspect).
    """
    started = time.monotonic()
    points = []
    rho_reports = []
    doubled_tails = []
    n_trusted = n_doubled = 0
    worst = (None, None, 0.0, -1.0)  # state, params, tau, tail

    for state in grid_states():
        params = hamiltonian_from_state(GenerationSpec(state=state, t=T_GEN))
        rho = gaussian_rho(state, GRID_DIM)
        rho_reports.append(
            RhoReport(
                herm_defect=op_norm(rho - rho.conj().T),
                trace_defect=abs(np.trace(rho).real - 1.0),
                min_eigenvalue=float(np.linalg.eigvalsh(rho).min()),
            )
        )
        tail = tail_mass(rho)
        dim = GRID_DIM if tail < TAIL_BUDGET else 2 * GRID_DIM
        if dim == GRID_DIM:
            n_trusted += len(R_TAU_TARGETS)
        else:
            n_doubled += len(R_TAU_TARGETS)
            rho = gaussian_rho(state, dim)
            doubled_tails.append(tail_mass(rho))
        taus = [delay_for_target(params, r_tau) for r_tau in R_TAU_TARGETS]
        sweep = oracle_sweep(rho, params, taus)  # all delays, one eigensolve
        for tau, g2_ref, mean_ref in zip(taus, sweep.g2, sweep.mean_n):
            if tail > worst[3]:
                worst = (state, params, tau, tail)
            g2_closed = g2(state, params.b, params.c, tau)
            mean_closed = mean_photon_of_tau(state, params.b, params.c, tau)
            points.append(
                GridPoint(
                    state=state,
                    params=params,
                    tau=tau,
                    dim=dim,
                    g2_rel_err=abs(g2_closed - g2_ref) / abs(g2_ref),
                    mean_rel_err=abs(mean_closed - mean_ref) / abs(mean_ref),
                )
            )

    return GridResults(
        points=points,
        rho_reports=rho_reports,
        n_trusted=n_trusted,
        n_doubled=n_doubled,
        doubled_tails=doubled_tails,
        worst_tail_state=worst[0],
        worst_tail_params=worst[1],
        worst_tail_tau=worst[2],
        elapsed=time.monotonic() - started,
    )


def announce(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {status}: criterion {number} — {detail}")
    assert ok, f"criterion {number} failed — {detail}"


# --- criteria ----------------------------------------------------------------


def test_criterion_1_g2_matches_oracle(grid_results, capsys):
    res = grid_results
    worst_g2 = max(p.g2_rel_err for p in res.points)
    doubled_ok = all(t < TAIL_BUDGET for t in res.doubled_tails)
    certificate = convergence_check(
        res.worst_tail_state, res.worst_tail_params, res.worst_tail_tau, 2 * GRID_DIM
    )
    ok = worst_g2 <= 1e-5 and doubled_ok and certificate.converged
    announce(
        capsys,
        1,
        ok,
        f"g2 closed form vs oracle: max rel err {worst_g2:.2e} (tol 1e-5) over "
        f"{len(res.points)} grid points ({res.n_trusted} at dim {GRID_DIM}, "
        f"{res.n_doubled} at dim {2 * GRID_DIM} after the population gate "
        f"failed at {GRID_DIM}); doubling check at worst point: "
        f"converged={certificate.converged}, tail {certificate.tail_mass:.1e}, "
        f"g2 change {certificate.g2_rel_change:.1e}; grid evaluated in "
        f"{res.elapsed:.0f}s",
    )


def test_criterion_2_mean_photon_matches_oracle(grid_results, capsys):
    worst = max(p.mean_rel_err for p in grid_results.points)
    announce(
        capsys,
        2,
        worst <= 1e-6,
        f"mean photon number closed form vs oracle: max rel err {worst:.2e} "
        f"(tol 1e-6) over {len(grid_results.points)} grid points",
    )


def test_criterion_3_known_limits(capsys):
    taus = [0.0, 0.3, 1.0, 2.5]
    worst = 0.0

    for nbar in (0.2, 1.0):
        thermal = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=nbar)
        p = hamiltonian_from_state(GenerationSpec(state=thermal, t=T_GEN))
        worst = max(worst, *(abs(g2(thermal, p.b, p.c, t) - 2.0) for t in taus))

    for alpha in (0.5 + 0j, from_polar(1.5, math.pi / 4)):
        coherent = GaussianStateParams(alpha=alpha, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        p = hamiltonian_from_state(GenerationSpec(state=coherent, t=T_GEN))
        worst = max(worst, *(abs(g2(coherent, p.b, p.c, t) - 1.0) for t in taus))

    for r in (0.3, 0.8, 1.5):
        squeezed = GaussianStateParams(alpha=0j, xi=SqueezeParam(r, 0.0), nbar=0.0)
        p = hamiltonian_from_state(GenerationSpec(state=squeezed, t=T_GEN))
        expected = 3.0 + 1.0 / math.sinh(r) ** 2
        worst = max(worst, abs(g2(squeezed, p.b, p.c, 0.0) - expected))

    announce(
        capsys,
        3,
        worst <= 1e-12,
        f"thermal g2=2, coherent g2=1, squeezed-vacuum g2(0)=3+1/sinh^2(r): "
        f"max abs err {worst:.2e} (tol 1e-12)",
    )


def test_criterion_4_flow_squeeze_sets_g2(capsys):
    rng = np.random.default_rng(41)
    times = (0.5, 1.0, 2.0)
    worst = 0.0
    for _ in range(100):
        state = GaussianStateParams(
            alpha=from_polar(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi)),
            xi=SqueezeParam(rng.uniform(0.05, 1.2), rng.uniform(0.0, 2 * math.pi)),
            nbar=rng.uniform(0.0, 1.5),
        )
        r_target = rng.uniform(0.0, 1.2)
        values = []
        for t in times:
            p = hamiltonian_from_state(GenerationSpec(state=state, t=t))
            values.append(g2(state, p.b, p.c, r_target / (2.0 * abs(p.c))))
        worst = max(worst, max(values) - min(values))
    announce(
        capsys,
        4,
        worst <= 1e-12,
        f"g2 at equal r(tau) across generation times {times}: max spread "
        f"{worst:.2e} (tol 1e-12) over 100 random states",
    )


def test_criterion_5_heisenberg_flow_check(capsys):
    rng = np.random.default_rng(5)
    dim, half = GRID_DIM, GRID_DIM // 2
    a, adag = ladder_operators(dim)
    eye = np.eye(dim, dtype=complex)

    cases = [
        (HamiltonianParams(b=0j, c=0.25 + 0j), (0.0, 1.0, 2.0)),  # r(tau) up to 1
        (HamiltonianParams(b=0.4 - 0.2j, c=1e-10 + 0j), (0.0, 0.7, 1.5)),
    ]
    for _ in range(3):
        params = HamiltonianParams(
            b=from_polar(rng.uniform(0.0, 0.5), rng.uniform(0.0, 2 * math.pi)),
            c=from_polar(rng.uniform(0.15, 0.5), rng.uniform(0.0, 2 * math.pi)),
        )
        targets = tuple(
            rt / (2.0 * abs(params.c)) for rt in (0.2, rng.uniform(0.3, 0.9), 1.0)
        )
        cases.append((params, targets))

    worst = 0.0
    for params, taus in cases:
        for tau in taus:
            flow = heisenberg_flow(params.b, params.c, tau)
            expected = flow.cosh_coeff * a + flow.sinh_coeff * adag + flow.shift * eye
            defect = (heisenberg_a_matrix(params, tau, dim) - expected)[:half, :half]
            worst = max(worst, op_norm(defect))
    announce(
        capsys,
        5,
        worst <= 1e-6,
        f"matrix-exponential evolution vs closed-form flow on the "
        f"{half}x{half} block at dim {dim}, r(tau) <= 1: max op-norm err "
        f"{worst:.2e} (tol 1e-6)",
    )


def test_criterion_6_conjugation_identity(capsys):
    rng = np.random.default_rng(6)
    dim, half, big = GRID_DIM, GRID_DIM // 2, 1280
    a, adag = ladder_operators(dim)
    a_big, _ = ladder_operators(big)
    eye = np.eye(dim, dtype=complex)

    draws = [(1.0, 0.0, 1.5 + 0j)]  # both bounds at once
    for _ in range(4):
        draws.append(
            (
                rng.uniform(0.1, 1.0),
                rng.uniform(0.0, 2 * math.pi),
                from_polar(rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi)),
            )
        )

    worst = 0.0
    for r, theta, alpha in draws:
        # images of the first `dim` Fock states, built with enough headroom
        # that the product is exact on that block
        cols = (displacement(alpha, big) @ squeeze(from_polar(r, theta), big))[:, :dim]
        conjugated = cols.conj().T @ (a_big @ cols)
        expected = (
            math.cosh(r) * a
            - cmath.exp(1j * theta) * math.sinh(r) * adag
            + alpha * eye
        )
        worst = max(worst, op_norm((conjugated - expected)[:half, :half]))
    announce(
        capsys,
        6,
        worst <= 1e-6,
        f"squeeze/displacement conjugation of the mode operator vs "
        f"a cosh r - a† e^(i theta) sinh r + alpha on the {half}x{half} block "
        f"(r <= 1, |alpha| <= 1.5): max op-norm err {worst:.2e} (tol 1e-6)",
    )


def test_criterion_7_round_trip(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for i in range(1000):
        if i % 5 == 4:  # exercise the small-r series branch and its vicinity
            r = 10.0 ** rng.uniform(-12.0, -6.0)
        else:
            r = rng.uniform(1e-3, 1.5)
        state = GaussianStateParams(
            alpha=from_polar(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * math.pi)),
            xi=SqueezeParam(r, rng.uniform(0.0, 2 * math.pi)),
            nbar=rng.uniform(0.0, 2.0),
        )
        t = rng.uniform(0.1, 10.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=t))
        back = state_from_hamiltonian(params, t, nbar=state.nbar)
        worst = max(
            worst,
            abs(back.xi.xi - state.xi.xi),
            abs(back.alpha - state.alpha),
            abs(back.nbar - state.nbar),
        )
    announce(
        capsys,
        7,
        worst <= 1e-10,
        f"state -> couplings -> state round trip: max err {worst:.2e} "
        f"(tol 1e-10) over 1000 draws incl. squeeze magnitudes down to 1e-12",
    )


def test_criterion_8_density_matrix_sanity(grid_results, capsys):
    reports = grid_results.rho_reports
    worst_herm = max(r.herm_defect for r in reports)
    worst_trace = max(r.trace_defect for r in reports)
    lowest_eig = min(r.min_eigenvalue for r in reports)
    ok = worst_herm <= 1e-12 and worst_trace <= 1e-8 and lowest_eig >= -1e-10
    announce(
        capsys,
        8,
        ok,
        f"all {len(reports)} grid density matrices at dim {GRID_DIM}: "
        f"Hermiticity defect {worst_herm:.1e} (tol 1e-12), trace defect "
        f"{worst_trace:.1e} (tol 1e-8), min eigenvalue {lowest_eig:.1e} "
        f"(floor -1e-10)",
    )


def test_criterion_9_cli_contract(tmp_path, capsys):
    argv = ["--nbar", "0.2", "--r", "0.7", "--alpha-mag", "0.9",
            "--steps", "10", "--tau-max", "1.5"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    ok_first = main(argv + ["--output", str(first)]) == EXIT_OK
    ok_second = main(argv + ["--output", str(second)]) == EXIT_OK
    identical = first.read_bytes() == second.read_bytes()

    usage = main(["--steps", "0"]) == EXIT_USAGE
    vacuum = main([]) == EXIT_UNDEFINED
    compare = (
        main(["--r", "2.5", "--mode", "compare", "--oracle-dim", "40",
              "--steps", "2", "--tau-max", "0.1", "--output",
              str(tmp_path / "c.csv")])
        == EXIT_COMPARE
    )
    capsys.readouterr()  # drop the diagnostics the failing runs print

    ok = ok_first and ok_second and identical and usage and vacuum and compare
    announce(
        capsys,
        9,
        ok,
        f"CLI reruns byte-identical={identical}; exit codes ok={ok_first and ok_second}, "
        f"usage={usage}, vacuum={vacuum}, compare-failure={compare}",
    )
