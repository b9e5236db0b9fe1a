"""Dense Fock-space references that only the tests use.

The ladder matrices, a hand-built thermal rho, and the evolved annihilation
operator from one eigendecomposition of H, kept verbatim from
`g2tau.fock_oracle`, where nothing called them, so that tests can check the
oracle's pieces and acceptance criteria 5 and 6 against them.  The evolved
operator still sizes its basis with the oracle's own `_evolution_dim`.

The dimension-doubling certificate (convergence_check) sweeps rho again at
twice the dimension.  Acceptance criterion 1 certifies its worst grid point
with it, and a test checks that compare mode, whose verdict reads one sweep,
refuses every state it refuses.
Nothing in the package imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from g2tau import fock_oracle
from g2tau.fock_oracle import (
    LEAKAGE_TOL,
    OracleSweep,
    _delays,
    _require_dim,
    _thermal_weights,
    g2_oracle,
    gaussian_rho,
    hamiltonian_matrix,
    oracle_sweep,
)
from g2tau.gaussian_core import GaussianStateParams
from g2tau.param_map import HamiltonianParams


def ladder_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on the lowest `dim` number states."""
    _require_dim(dim)
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, a.conj().T


def thermal_rho(nbar: float, dim: int) -> np.ndarray:
    """Truncated-and-renormalized thermal density matrix with mean occupation nbar."""
    return np.diag(_thermal_weights(nbar, dim)).astype(complex)


def heisenberg_a_matrix(
    params: HamiltonianParams, taus: Sequence[float], dim: int
) -> np.ndarray:
    """Evolved annihilation operators e^{iH tau} a e^{-iH tau} on the lowest `dim` states.

    Returns one dim x dim matrix per delay of `taus`, stacked along the first
    axis, from one eigendecomposition of H.  The conjugation runs in an
    enlarged working space sized so the squeeze stretch and displacement of
    the flow stay inside the basis at every delay, and the result is cropped
    back to `dim`; without the headroom the top of the block would be
    corrupted by truncation.
    """
    taus = _delays(taus)
    big = fock_oracle._evolution_dim(params, taus, dim)
    w, v = np.linalg.eigh(hamiltonian_matrix(params, big))
    v_h = v.conj().T
    root = np.sqrt(np.arange(1.0, big))
    out = np.empty((taus.size, dim, dim), dtype=complex)
    for i, tau in enumerate(taus):
        # Rows 0..dim of U = V e^{i tau w} V†; the crop of U a U† only needs them.
        u_top = (v[:dim] * np.exp(1j * tau * w)) @ v_h
        # u_top @ a: the annihilation matrix shifts columns and scales by sqrt(n).
        ua = np.zeros_like(u_top)
        ua[:, 1:] = u_top[:, :-1] * root
        out[i] = ua @ u_top.conj().T
    return out


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of a dimension-doubling convergence probe.

    dim is the base truncation; g2_rel_change is |g2(2*dim) - g2(dim)| / |g2(2*dim)|;
    tail_mass is the population of the top 10% of the base-dim number basis;
    working_dim and leakage are those of the base sweep (see OracleSweep).
    """

    dim: int
    tail_mass: float
    converged: bool
    g2_rel_change: float
    working_dim: int
    leakage: float


def convergence_check(
    state: GaussianStateParams,
    params: HamiltonianParams,
    tau: float,
    dim: int,
    base: OracleSweep | None = None,
) -> TruncationReport:
    """Probe truncation adequacy by doubling the dimension.

    Converged means the relative g2 change under doubling stays below 1e-6,
    the top 10% of the base-dim number basis holds less than 1e-8 of the
    population, and the base sweep's leakage is at most LEAKAGE_TOL: once rho
    fits in dim, the doubled sweep sizes its evolution basis from the same
    support, so only the leakage sees that basis run out.  A caller holding
    a sweep of the state at `dim` whose last delay is tau passes it as base,
    so only the doubled point is built.
    """
    g2_doubled = g2_oracle(state, params, tau, 2 * dim)  # rejects the vacuum
    if base is None:
        base = oracle_sweep(gaussian_rho(state, dim), params, [tau])
    rel_change = abs(g2_doubled - float(base.g2[-1])) / abs(g2_doubled)
    return TruncationReport(
        dim=dim,
        tail_mass=base.tail_mass,
        converged=(rel_change < 1e-6 and base.tail_mass < 1e-8 and base.leakage <= LEAKAGE_TOL),
        g2_rel_change=rel_change,
        working_dim=base.working_dim,
        leakage=base.leakage,
    )
