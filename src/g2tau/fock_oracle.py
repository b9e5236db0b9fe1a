"""Truncated Fock-space ground truth for the amplifier photon statistics.

Everything the closed forms in :mod:`g2tau.gaussian_core` predict is rebuilt
here by brute force: dense matrices on the lowest number states, the state
as an explicit density matrix, the evolution from an exact
eigendecomposition of the truncated Hamiltonian, and every expectation as a
trace.  Nothing is shared with the closed-form path beyond the parameter
dataclasses (the closed-form flow is only consulted to *size* the working
space, never for the evolved values), so agreement between the two is a
real cross-check rather than a tautology.

The state is prepared in a working space enlarged enough that squeeze
stretch and displacement stay inside the basis, then cropped to the
requested dimension `dim`; the remaining error is set by the state's own
Fock tail, which is what convergence_check measures.  The displacement is
built from its exact Fock matrix elements (associated Laguerre polynomials,
by a stable recurrence), with no eigensolve; the squeeze never mixes even
and odd number states, so it is exponentiated block by block.

A delay sweep (:func:`oracle_sweep`) evolves in one working basis of N
states, sized for the largest flow stretch and shift over its delays.  One
eigendecomposition H = V diag(w) V† serves every delay: with the phases
Phi = exp(i tau w) and n the number operator on the working basis,

    Tr[rho n(tau)]      = sum_jk Phi_j Mr_jk conj(Phi_k),  Mr = (V† rho V)^T ∘ (V† n V)
    Tr[rho a† n(tau) a] = sum_jk Phi_j Mx_jk conj(Phi_k),  Mx = (V† a rho a† V)^T ∘ (V† n V)

so after the O(N³) setup each delay costs O(N²), and delays are evaluated
in blocks of fixed size.  The caller builds rho once with gaussian_rho and
hands it to the sweep; nothing outlives the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian_core import (
    GaussianStateParams,
    UndefinedCoherenceError,
    alpha_of_tau,
    r_of_tau,
)
from .param_map import HamiltonianParams

__all__ = [
    "TruncationReport",
    "OracleSweep",
    "ladder_operators",
    "displacement",
    "squeeze",
    "thermal_rho",
    "gaussian_rho",
    "hamiltonian_matrix",
    "heisenberg_a_matrix",
    "oracle_sweep",
    "g2_oracle",
    "convergence_check",
]

# Tolerated imaginary residue on traces that are real by Hermiticity.
_IMAG_TOL = 1e-8

# Delays evaluated per matrix product in oracle_sweep; its scratch is
# O(_DELAY_BLOCK * N) however many delays a sweep has.
_DELAY_BLOCK = 64


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of a dimension-doubling convergence probe.

    dim is the base truncation; g2_rel_change is |g2(2*dim) - g2(dim)| / |g2(2*dim)|;
    tail_mass is the population of the top 10% of the base-dim number basis.
    """

    dim: int
    tail_mass: float
    converged: bool
    g2_rel_change: float


@dataclass(frozen=True, eq=False)
class OracleSweep:
    """Oracle traces over a delay grid, all evaluated in one working basis.

    mean_0 is Tr[rho a† a]; mean_n[i] and numerator[i] are Tr[rho n(tau_i)]
    and Tr[rho a† n(tau_i) a].  floor is the roundoff floor of the photon
    numbers: each mean_n[i] sums the N² terms Phi_j Mr_jk conj(Phi_k), whose
    moduli |Mr_jk| do not depend on the delay, in length-N dot products, so
    its rounding error is bounded by floor = N eps sum_jk |Mr_jk| (eps the
    double-precision machine epsilon, N the working dimension).  tail_mass
    is the population of the top 10% of rho's dim-state basis.
    """

    mean_0: float
    mean_n: np.ndarray
    numerator: np.ndarray
    floor: float
    tail_mass: float

    @property
    def g2(self) -> np.ndarray:
        """numerator / (mean_0 mean_n) per delay.

        Raises UndefinedCoherenceError unless mean_0 and every mean_n exceed
        floor: below it a photon number is roundoff, and the state is
        indistinguishable from vacuum at this precision.
        """
        if not (self.mean_0 > self.floor and np.all(self.mean_n > self.floor)):
            raise UndefinedCoherenceError(
                "g2 is undefined: a mean photon number is below the oracle's "
                f"roundoff floor {self.floor:.1e}, indistinguishable from vacuum"
            )
        return self.numerator / (self.mean_0 * self.mean_n)


def _require_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")


def ladder_operators(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices on the lowest `dim` number states."""
    _require_dim(dim)
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, a.conj().T


def _expi_hermitian(h: np.ndarray) -> np.ndarray:
    """exp(1j * h) for Hermitian h."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


# Dense eigensystems above this size cost minutes, not seconds.  The working
# dimension is clipped here; whatever truncation error that leaves behind is
# reported by convergence_check rather than silently absorbed.
_WORKING_DIM_CAP = 3072


def _working_dim(dim: int, stretch_r: float, shift_mag: float) -> int:
    """Fock dimension needed to build accurately before cropping to `dim`.

    A squeeze stretches the occupied phase-space radius (~sqrt(dim)) by
    e^{stretch_r} and a displacement shifts it, so the lowest-dim block of
    the squeezed-and-displaced object draws on roughly
    (sqrt(dim) e^{stretch_r} + |shift|)² number states; a few vacuum widths
    of margin absorb the Gaussian edges.  Stretch and shift are quantized
    upward so nearby parameters share one working dimension.
    """
    stretch = math.exp(min(0.4 * math.ceil(stretch_r / 0.4 - 1e-9), 1.2))
    pad = 4.0 + 2.0 * min(math.ceil(shift_mag / 2.0 - 1e-9), 6)
    radius = math.sqrt(dim) * stretch + pad
    working = 32 * math.ceil(radius * radius / 32.0)
    return max(dim, min(working, max(_WORKING_DIM_CAP, dim)))


def displacement(alpha: complex, dim: int, rows: int | None = None) -> np.ndarray:
    """Rows 0..rows-1 (default all) of D(alpha) = exp(alpha a† - alpha* a) on `dim` states.

    Every entry is the exact matrix element of the untruncated operator
    (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), so the full matrix is
    unitary up to the weight D moves past `dim`; with x = |alpha|²,

        <m|D|m+k> = f_m^(k) (-alpha*/|alpha|)^k,   <m+k|D|m> = f_m^(k) (alpha/|alpha|)^k,
        f_m^(k)   = sqrt(m!/(m+k)!) |alpha|^k e^{-x/2} L_m^(k)(x).

    f_0^(k) is formed in log space, and every diagonal offset k is carried
    up in m at once by the Laguerre three-term recurrence rescaled to f:

        sqrt((m+1)(m+1+k)) f_{m+1} = (2m+1+k-x) f_m - sqrt(m(m+k)) f_{m-1}.

    The polynomial is the dominant solution of that recurrence wherever it
    is not oscillatory, so the upward run is stable; a recurrence along
    rows or columns of D itself is not.
    """
    _require_dim(dim)
    alpha = complex(alpha)
    rows = dim if rows is None else rows
    out = np.zeros((rows, dim), dtype=complex)
    mag = abs(alpha)
    if mag == 0.0:
        out[np.arange(rows), np.arange(rows)] = 1.0
        return out
    x = mag * mag
    k = np.arange(dim, dtype=float)
    log_fact = np.array([math.lgamma(j + 1.0) for j in range(dim)])
    f = np.exp(k * math.log(mag) - 0.5 * x - 0.5 * log_fact)
    f_prev = np.zeros(dim)
    unit = alpha / mag
    above = np.cumprod(np.r_[1.0, np.full(dim - 1, -np.conjugate(unit))])  # (-alpha*/|alpha|)^k
    below = np.cumprod(np.r_[1.0, np.full(rows - 1, unit)])  # (alpha/|alpha|)^k
    for m in range(rows):
        out[m, m:] = f[: dim - m] * above[: dim - m]
        out[m + 1 :, m] = f[1 : rows - m] * below[1 : rows - m]
        f_next = (2 * m + 1 + k - x) * f - np.sqrt(m * (m + k)) * f_prev
        f_prev, f = f, f_next / np.sqrt((m + 1) * (m + 1 + k))
    return out


def _squeeze_blocks(xi: complex, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """S(xi) restricted to the even and to the odd number states.

    The generator (xi*/2) a² - (xi/2) a†² couples n only to n ± 2, so S never
    mixes parities, and on each parity the generator is tridiagonal: entry
    (n, n + 2) of -1j times it is -(1j/2) xi* sqrt((n + 1)(n + 2)).
    """
    _require_dim(dim)
    n = np.arange(dim - 2)
    pair = -0.5j * np.conjugate(xi) * np.sqrt((n + 1.0) * (n + 2.0))
    blocks = []
    for parity in (0, 1):
        k = np.diag(pair[parity::2], 1)
        blocks.append(_expi_hermitian(k + k.conj().T))
    return blocks[0], blocks[1]


def squeeze(xi: complex, dim: int) -> np.ndarray:
    """Squeeze matrix S(xi) = exp((xi*/2) a² - (xi/2) a†²)."""
    out = np.zeros((dim, dim), dtype=complex)
    for parity, block in enumerate(_squeeze_blocks(complex(xi), dim)):
        out[parity::2, parity::2] = block
    return out


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    _require_dim(dim)
    if nbar < 0.0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    weights = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return weights / weights.sum()


def thermal_rho(nbar: float, dim: int) -> np.ndarray:
    """Truncated-and-renormalized thermal density matrix with mean occupation nbar."""
    return np.diag(_thermal_weights(nbar, dim)).astype(complex)


def gaussian_rho(state: GaussianStateParams, dim: int) -> np.ndarray:
    """Density matrix D S rho_thermal S† D†, re-hermitized and renormalized.

    Prepared in a working space wide enough for the squeeze stretch and the
    displacement, then cropped to the lowest-dim block, so the entries agree
    with the infinite-dimensional state up to its own tail mass: the same
    product built directly at `dim` has its edge rows corrupted by the
    truncated operator products.  Each call returns a new array.
    """
    big = _working_dim(dim, state.xi.r, abs(state.alpha))
    d_top = displacement(state.alpha, big, rows=dim)
    prep_top = np.empty_like(d_top)
    for parity, block in enumerate(_squeeze_blocks(state.xi.xi, big)):
        prep_top[:, parity::2] = d_top[:, parity::2] @ block
    rho = (prep_top * _thermal_weights(state.nbar, big)) @ prep_top.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if not np.finfo(float).tiny <= trace < math.inf:
        raise UndefinedCoherenceError(
            f"g2 is undefined: the lowest {dim} of the oracle's {big} working number "
            "states hold none of the state"
        )
    rho /= trace
    return rho


def hamiltonian_matrix(params: HamiltonianParams, dim: int) -> np.ndarray:
    """Amplifier Hamiltonian c a†² + c* a² + b a + b* a† as a dense matrix."""
    _require_dim(dim)
    n = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    # b a + b* a†: entries sqrt(n+1) on the first off-diagonals.
    single = np.sqrt(n[1:].astype(float))
    h[n[:-1], n[1:]] = params.b * single
    h[n[1:], n[:-1]] = np.conjugate(params.b) * single
    # c a†² + c* a²: entries sqrt((n+1)(n+2)) on the second off-diagonals.
    pair = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    h[n[2:], n[:-2]] = params.c * pair
    h[n[:-2], n[2:]] = np.conjugate(params.c) * pair
    return h


def _evolution_dim(params: HamiltonianParams, taus: Sequence[float], dim: int) -> int:
    """Working dimension holding the flow's stretch and shift at every delay."""
    return max(
        _working_dim(dim, r_of_tau(params.c, tau), abs(alpha_of_tau(params.b, params.c, tau)))
        for tau in taus
    )


def heisenberg_a_matrix(params: HamiltonianParams, tau: float, dim: int) -> np.ndarray:
    """Evolved annihilation operator e^{iH tau} a e^{-iH tau} on the lowest `dim` states.

    The conjugation runs in an enlarged working space sized so the squeeze
    stretch and displacement of the flow stay inside the basis, and the
    result is cropped back to `dim`; without the headroom the top of the
    block would be corrupted by truncation.
    """
    big = _evolution_dim(params, [tau], dim)
    w, v = np.linalg.eigh(hamiltonian_matrix(params, big))
    # Rows 0..dim of U = V e^{i tau w} V†; the crop of U a U† only needs them.
    u_top = (v[:dim, :] * np.exp(1j * tau * w)) @ v.conj().T
    # u_top @ a: the annihilation matrix shifts columns and scales by sqrt(n).
    ua = np.zeros_like(u_top)
    ua[:, 1:] = u_top[:, :-1] * np.sqrt(np.arange(1.0, big))
    return ua @ u_top.conj().T


def _real_trace(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.abs(values.imag).max())
    if worst > _IMAG_TOL:
        raise ArithmeticError(f"{what} should be real, got imaginary residue {worst:g}")
    return values.real


def oracle_sweep(
    rho: np.ndarray, params: HamiltonianParams, taus: Sequence[float]
) -> OracleSweep:
    """Tr[rho n(tau)] and Tr[rho a† n(tau) a] at every delay of `taus`.

    rho lives on the lowest dim = rho.shape[0] number states and n(tau) =
    e^{iH tau} n e^{-iH tau} acts on one working basis sized for the whole
    sweep, so the Hamiltonian is diagonalized once per call.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise ValueError(f"rho must be a square matrix of size >= 2, got shape {rho.shape}")
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a non-empty sequence of delays")
    dim = rho.shape[0]
    big = _evolution_dim(params, taus, dim)
    w, v = np.linalg.eigh(hamiltonian_matrix(params, big))
    number = (v.conj().T * np.arange(big, dtype=float)) @ v  # V† n V
    v_top = v[:dim].copy()  # rho and a rho a† live on the lowest dim states
    del v
    v_top_h = v_top.conj().T
    # a rho a†: rho moved down one level, sqrt(n) weights on both sides.
    root = np.sqrt(np.arange(1.0, dim))
    lowered = np.zeros_like(rho)
    lowered[:-1, :-1] = root[:, None] * rho[1:, 1:] * root
    m_rho = (v_top_h @ rho @ v_top).T
    m_rho *= number
    floor = big * np.finfo(float).eps * float(np.abs(m_rho).sum())
    m_x = (v_top_h @ lowered @ v_top).T
    m_x *= number
    del number

    mean_n = np.empty(taus.size)
    numerator = np.empty(taus.size)
    for start in range(0, taus.size, _DELAY_BLOCK):
        block = slice(start, start + _DELAY_BLOCK)
        phase = np.exp(1j * np.outer(taus[block], w))
        back = phase.conj()
        numerator[block] = _real_trace(
            np.einsum("bj,bj->b", phase @ m_x, back), "g2 numerator"
        )
        mean_n[block] = _real_trace(
            np.einsum("bj,bj->b", phase @ m_rho, back), "delayed photon number"
        )
    mean_0 = float(np.arange(dim) @ rho.diagonal().real)
    tail_mass = float(np.sum(rho.diagonal()[math.ceil(0.9 * dim) :]).real)
    return OracleSweep(mean_0, mean_n, numerator, floor, tail_mass)


def g2_oracle(
    state: GaussianStateParams, params: HamiltonianParams, tau: float, dim: int
) -> float:
    """Tr[rho a† n(tau) a] / (Tr[rho a† a] Tr[rho n(tau)])."""
    if state.is_vacuum:
        raise UndefinedCoherenceError()
    return float(oracle_sweep(gaussian_rho(state, dim), params, [tau]).g2[0])


def convergence_check(
    state: GaussianStateParams,
    params: HamiltonianParams,
    tau: float,
    dim: int,
    base: OracleSweep | None = None,
) -> TruncationReport:
    """Probe truncation adequacy by doubling the dimension.

    Converged means the relative g2 change under doubling stays below 1e-6
    and the top 10% of the base-dim number basis holds less than 1e-8 of the
    population.  A caller holding a sweep of the state at `dim` whose last
    delay is tau passes it as base, so only the doubled point is built.
    """
    g2_doubled = g2_oracle(state, params, tau, 2 * dim)  # rejects the vacuum
    if base is None:
        base = oracle_sweep(gaussian_rho(state, dim), params, [tau])
    rel_change = abs(g2_doubled - float(base.g2[-1])) / abs(g2_doubled)
    return TruncationReport(
        dim=dim,
        tail_mass=base.tail_mass,
        converged=(rel_change < 1e-6 and base.tail_mass < 1e-8),
        g2_rel_change=rel_change,
    )
