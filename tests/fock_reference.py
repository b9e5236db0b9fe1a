"""Dense Fock-space references that only the tests use.

The ladder matrices, a hand-built thermal rho, and the evolved annihilation
operator from one eigendecomposition of H, kept verbatim from
`g2tau.fock_oracle`, where nothing called them, so that tests can check the
oracle's pieces and acceptance criteria 5 and 6 against them.  The evolved
operator still sizes its basis with the oracle's own `_evolution_dim`.
Nothing in the package imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from g2tau import fock_oracle
from g2tau.fock_oracle import _delays, _require_dim, _thermal_weights, hamiltonian_matrix
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
