"""Dense Fock-space references that only the tests use.

The ladder matrices, a hand-built thermal rho, and the evolved annihilation
operator from one eigendecomposition of H, kept verbatim from
`g2tau.fock_oracle`, where nothing called them, so that tests can check the
oracle's pieces and acceptance criteria 5 and 6 against them.  The evolved
operator still sizes its basis with the oracle's own `_evolution_dim`.

D(alpha) and S(xi) from their exact Fock matrix elements, and reference_rho,
which prepares D S rho_thermal S† D† from them in a working space wide
enough for the squeeze stretch and the shift and crops it to `dim`, build
the state independently of gaussian_rho's Fock recurrence.  A test pins the
recurrence against reference_rho where the crop holds most of the state:
reference_rho's products cancel where it holds little (2e-7 off at a crop
holding 2e-12 of the state).

The dimension-doubling certificate (convergence_check) sweeps rho again at
twice the dimension.  Acceptance criterion 1 certifies its worst grid point
with it, and a test checks that compare mode, whose verdict reads one sweep,
refuses every state it refuses.
Nothing in the package imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from g2tau import fock_oracle
from g2tau.fock_oracle import (
    LEAKAGE_TOL,
    OracleSweep,
    _delays,
    _require_dim,
    _support,
    _working_dim,
    g2_oracle,
    gaussian_rho,
    hamiltonian_matrix,
    oracle_sweep,
)
from g2tau.gaussian_core import GaussianStateParams, UndefinedCoherenceError
from g2tau.param_map import HamiltonianParams


# reference_rho keeps the thermal levels down to a suffix population below this.
_SUPPORT_TOL = 1e-17


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


def squeeze(xi: complex, dim: int, cols: int | None = None) -> np.ndarray:
    """Columns 0..cols-1 (default all) of S(xi) = exp((xi*/2) a² - (xi/2) a†²) on `dim` states.

    Every entry is the exact matrix element of the untruncated operator, so
    the full matrix is unitary up to the weight S moves past `dim`.  With
    xi = r e^{i theta}, s = sech r and t = e^{i theta} tanh r, S couples n
    only to n ± 2l, and from its disentangled form
    exp(-(t/2) a†²) s^{a†a + 1/2} exp((t*/2) a²)

        <n+2l|S|n> = sqrt(s) (-t/2)^l f_n^(l),   <n|S|n+2l> = sqrt(s) (t*/2)^l f_n^(l),
        f_0^(l)    = sqrt((2l)!) / l!

    (cf. Miatto & Quesada, Quantum 4, 366 (2020); The Walrus, JOSS 4, 1705
    (2019)).  sqrt(s) |t/2|^l f_0^(l) is formed in log space, and every
    offset l is carried up in n at once by

        sqrt((n+1)(n+1+2l)) f_{n+1} = s (2n+1+2l) f_n - sqrt(n(n+2l)) f_{n-1}.

    Its argument s lies in (0, 1], the oscillatory region, so the upward run
    is neutrally stable, as Legendre's is; recurrences along rows or columns
    of S itself drift by orders of magnitude more.
    """
    _require_dim(dim)
    xi = complex(xi)
    cols = dim if cols is None else cols
    out = np.zeros((dim, cols), dtype=complex)
    r = abs(xi)
    if r == 0.0:
        out[np.arange(cols), np.arange(cols)] = 1.0
        return out
    log_s = math.log(2.0) - r - math.log1p(math.exp(-2.0 * r))  # log sech r, finite at any r
    s = math.exp(log_s)
    offsets = (dim + 1) // 2
    pairs = np.arange(offsets, dtype=float)  # l
    k = 2.0 * pairs
    log_f0 = [0.5 * math.lgamma(2 * j + 1.0) - math.lgamma(j + 1.0) for j in range(offsets)]
    log_half_t = math.log(math.tanh(r)) - math.log(2.0)  # tanh r / 2 underflows for subnormal r
    f = np.exp(0.5 * log_s + pairs * log_half_t + np.array(log_f0))
    f_prev = np.zeros(offsets)
    unit = xi / r
    below = np.cumprod(np.r_[1.0, np.full(offsets - 1, -unit)])  # (-t/|t|)^l
    above = np.cumprod(np.r_[1.0, np.full(offsets - 1, np.conjugate(unit))])  # (t*/|t|)^l
    for n in range(cols):
        down = (dim - n + 1) // 2
        across = (cols - n + 1) // 2
        out[n::2, n] = f[:down] * below[:down]
        out[n, n + 2 :: 2] = f[1:across] * above[1:across]
        f_next = s * (2 * n + 1 + k) * f - np.sqrt(n * (n + k)) * f_prev
        f_prev, f = f, f_next / np.sqrt((n + 1) * (n + 1 + k))
    return out


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    _require_dim(dim)
    if nbar < 0.0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    weights = (nbar / (nbar + 1.0)) ** np.arange(dim)
    return weights / weights.sum()


def reference_rho(state: GaussianStateParams, dim: int) -> np.ndarray:
    """Density matrix D S rho_thermal S† D†, re-hermitized and renormalized.

    Prepared in a working space wide enough for the squeeze stretch and the
    displacement, then cropped to the lowest-dim block, so the entries agree
    with the infinite-dimensional state up to its own tail mass: the same
    product built directly at `dim` has its edge rows corrupted by the
    truncated operator products.  Only the K columns of S that carry thermal
    weight are built, K the support of the weights at _SUPPORT_TOL, and no
    eigensolve is made.  Each call returns a new array.
    """
    _require_dim(dim)
    big = _working_dim(dim, state.xi.r, abs(state.alpha))
    weights = _thermal_weights(state.nbar, big)
    kept = _support(weights, _SUPPORT_TOL)
    prep_top = displacement(state.alpha, big, rows=dim) @ squeeze(state.xi.xi, big, cols=kept)
    rho = (prep_top * weights[:kept]) @ prep_top.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if not np.finfo(float).tiny <= trace < math.inf:
        raise UndefinedCoherenceError(
            f"g2 is undefined: the lowest {dim} of the oracle's {big} working number "
            "states hold none of the state"
        )
    rho /= trace
    return rho




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
    big = fock_oracle._evolution_dim(fock_oracle._flow(params, taus), dim, 4.0)
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
