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
Fock tail, which every sweep reads from rho's diagonal twice: as the
population of rho's top 10% levels (tail_mass), and as the share of g2's
zero-delay numerator sum n(n-1) rho_nn that those levels hold (pair_tail).
The displacement is built from its exact Fock matrix elements (associated
Laguerre polynomials, by a stable recurrence), and the squeeze from its
exact matrix elements (a neutrally stable recurrence along each diagonal),
so preparing the state makes no eigensolve; only the columns of S that
the thermal weights keep are built.  Every working basis is sized from the
exact stretch and shift it must hold, and one that would exceed
_WORKING_DIM_CAP raises TruncationError when it is about to be built.

A delay sweep (:func:`oracle_sweep`) evolves rho in one working basis of N
states at a time.  It evaluates the closed-form flow once and sizes its
bases from it, each holding rho's levels down to a suffix population of
_EVOLUTION_SUPPORT_TOL: a tight one with one vacuum width of margin, and the
last resort with four, the most it ever uses.  It first tries the tight
size, raised to the levels that hold all but eps of g2's sums and capped at
dim, the levels rho lives on; a basis below dim evolves the lowest N-level
block of rho.  It keeps that result when its measured leakage (below) is at
most LEAKAGE_TOL, and otherwise tries dim, the tight size and the last
resort in turn, keeping the first that leaks at most LEAKAGE_TOL, or else
the last one run.  In each basis one eigendecomposition H = V diag(w) V†
serves every delay:
with the phases Phi = exp(i tau w), n the number operator on the working
basis and V_edge the rows of V for its top 10% levels,

    Tr[rho n(tau)]      = sum_jk Phi_j Mr_jk conj(Phi_k),  Mr = (V† rho V)^T ∘ (V† n V)
    Tr[rho a† n(tau) a] = sum_jk Phi_j Mx_jk conj(Phi_k),  Mx = (V† a rho a† V)^T ∘ (V† n V)
    edge population     = sum_jk Phi_j Me_jk conj(Phi_k),  Me = (V† rho V)^T ∘ (V_edge† V_edge)

so after the O(N³) setup each delay costs O(N²), and delays are evaluated
in blocks of fixed size, one matrix product per block for all three forms.
The largest edge population over the delays is the sweep's leakage: the
share of the evolved state that reached the top of the working basis.  The
caller builds rho once with gaussian_rho and hands it to the sweep; nothing
outlives the call.
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
    "LEAKAGE_TOL",
    "TruncationError",
    "OracleSweep",
    "displacement",
    "squeeze",
    "gaussian_rho",
    "hamiltonian_matrix",
    "oracle_sweep",
    "g2_oracle",
]

# Tolerated imaginary residue on traces that are real by Hermiticity.
_IMAG_TOL = 1e-8

# Delays, or rows of its bilinear forms, per matrix product in oracle_sweep;
# its scratch is O(_BLOCK * N) however many delays a sweep has.
_BLOCK = 64

# gaussian_rho keeps the thermal levels down to a suffix population below this.
_SUPPORT_TOL = 1e-17

# Largest trusted leakage (see OracleSweep).  Measured with the evolution
# basis forced below its sized N, 41 delays each, the worst g2 relative error
# against the closed form stays under 10x the leakage:
#   squeezed vacuum r 0.3, tau <= 4:  leakage 1.7e-6, 1.9e-7, 1.7e-9 -> error 1.5e-5, 1.6e-6, 1.0e-8
#   nbar 0.5, r 0.3, |alpha| 0.9, tau <= 3:  3.5e-6, 2.1e-7, 1.1e-8 -> 1.2e-5, 5.9e-7, 2.7e-8
#   hull corner at dim 240, tau <= 1:  9.0e-5, 3.8e-6, 1.4e-7 -> 3.6e-4, 1.3e-5, 4.1e-7
#   |alpha| 3, r 0.5, tau <= 2:  6.8e-6, 1.7e-7, 4.7e-9 -> 6.8e-7, 1.4e-8, 2.8e-10
# so 1e-8 keeps the evolution's share of the g2 error near 1e-7, under the
# 1e-6 that compare mode allows rho's truncation (its pair_tail bound).  At
# oracle_sweep's last-resort N (dim 120 but for the hull corner) they leak
# 6.8e-14, 1.6e-17, 2.9e-12 and 1.8e-17.  oracle_sweep also keeps its first
# basis, below dim or at it, only when that basis leaks at most this, so the
# basis it settles on is held to the same bound, and compare mode accepts the
# same leakage.
LEAKAGE_TOL = 1e-8

# oracle_sweep's bases hold the levels of rho down to a suffix population
# below this, first with one vacuum width of margin, then with four.  The
# population they leave out can at most all reach the basis edge, so it
# spends 1/100 of the LEAKAGE_TOL budget and leaves the rest to the Gaussian
# edge of the levels they hold.  Measured on states of the benchmark
# hull (r <= 0.8, |alpha| <= 1.5, nbar <= 1, tau <= 1) whose basis of dim =
# 120 or 240 levels leaked, as the leakage at one vacuum width of margin:
#   38 sweeps, rho well inside dim:  1.5e-12 to 1.7e-10
#   23 sweeps, rho filling dim with 4e-9 to 1.4e-7 in its top 10%:  2.2e-12 to 4.8e-9
#     (one of them leaks 4.3e-8 with no margin)
#   2 sweeps, rho filling dim with 2.6e-7 in its top 10%:  9.9e-9 and 1.1e-8
# and beyond them, with more in rho's top 10%:
#   hull corner, nbar 1, r 0.8, theta pi, |alpha| 1.5, top 10% 1.5e-6:  1.0e-7
#   squeezed vacuum r 1.5, tau <= 1, top 10% 2.6e-6:  9.0e-7
#   README config example, tau <= 2, rho inside dim:  1940 levels, 1.5e-10
# So one width holds the evolution unless rho's top levels hold more than
# about 1e-7, and those states are left to four widths, which leak 1e-16 at
# the hull corner.  Compare mode refuses those states at dim 120 on rho
# alone: their top 10% holds 2.2e-4 (hull corner) and 4.9e-4 (r 1.5) of g2's
# zero-delay numerator, above its pair_tail bound of 1e-6.
_EVOLUTION_SUPPORT_TOL = LEAKAGE_TOL / 100


class TruncationError(Exception):
    """The oracle's truncation cannot be trusted, so it gives no numbers.

    Raised here when a working basis would exceed _WORKING_DIM_CAP, and by
    the CLI when a sweep's pair_tail, tail mass or leakage is above its
    threshold.
    """


@dataclass(frozen=True, eq=False)
class OracleSweep:
    """Oracle traces over a delay grid, all evaluated in one working basis.

    mean_0 is Tr[rho a† a]; mean_n[i] and numerator[i] are Tr[rho n(tau_i)]
    and Tr[rho a† n(tau_i) a].  floor is the roundoff floor of the photon
    numbers: each mean_n[i] sums the N² terms Phi_j Mr_jk conj(Phi_k), whose
    moduli |Mr_jk| do not depend on the delay, in length-N dot products, so
    its rounding error is bounded by floor = N eps sum_jk |Mr_jk| (eps the
    double-precision machine epsilon, N the working dimension).  tail_mass
    is the population of the top 10% of rho's dim-state basis, and pair_tail
    the share of g2's zero-delay numerator Tr[rho a†² a²] = sum n(n-1) rho_nn
    that those levels hold; it is nan when that numerator is zero.  working_dim
    is the N the sweep kept: its first basis, which is below dim when rho and
    its evolution fit in fewer levels, or when that leaked too much dim, the
    tight size or the last resort (see oracle_sweep).  leakage is the largest
    population, over the delays, that the evolved state rho(tau) puts in the
    top 10% of the N working levels.
    """

    mean_0: float
    mean_n: np.ndarray
    numerator: np.ndarray
    floor: float
    tail_mass: float
    pair_tail: float
    working_dim: int
    leakage: float

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


def _edge_start(n: int) -> int:
    """First level of the top 10% of an n-level basis; the band keeps at least the top level."""
    return min(math.ceil(0.9 * n), n - 1)


def _require_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")


# Dense eigensystems above this size cost minutes, not seconds.  A basis that
# would need more is refused: a smaller one gives quietly wrong numbers.
_WORKING_DIM_CAP = 3072


def _working_dim(dim: int, stretch_r: float, shift_mag: float, margin: float = 4.0) -> int:
    """Fock dimension needed to hold `dim` levels through a stretch and a shift.

    A squeeze stretches the occupied phase-space radius (~sqrt(dim)) by
    e^{stretch_r} and a displacement shifts it, so the lowest-dim block of
    the squeezed-and-displaced object draws on roughly
    (sqrt(dim) e^{stretch_r} + |shift| + margin)² number states; the margin,
    in vacuum widths, absorbs the Gaussian edges.  Raises TruncationError
    when that exceeds _WORKING_DIM_CAP.
    """
    # A stretch past the cap's logarithm needs more than the cap at any dim,
    # so bounding it there only keeps exp finite.
    stretch = math.exp(min(stretch_r, math.log(_WORKING_DIM_CAP)))
    radius = math.sqrt(dim) * stretch + margin + shift_mag
    needed = radius * radius
    if needed > _WORKING_DIM_CAP:
        shown = math.ceil(needed) if math.isfinite(needed) else needed
        raise TruncationError(
            f"the oracle needs a working dimension of {shown} to hold {dim} levels, "
            f"above its cap of {_WORKING_DIM_CAP}"
        )
    return max(dim, math.ceil(needed))


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


def _support(populations: np.ndarray, tol: float = _SUPPORT_TOL) -> int:
    """Smallest d whose levels d, d+1, ... hold less than `tol` of `populations`."""
    suffix = np.cumsum(populations[::-1])[::-1]
    below = np.flatnonzero(suffix < tol)
    return int(below[0]) if below.size else populations.size


def gaussian_rho(state: GaussianStateParams, dim: int) -> np.ndarray:
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
    kept = _support(weights)
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


def _delays(taus: Sequence[float]) -> np.ndarray:
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size == 0:
        raise ValueError("taus must be a non-empty sequence of delays")
    return taus


def _flow(params: HamiltonianParams, taus: np.ndarray) -> tuple[list[float], list[complex]]:
    """The closed-form flow's stretch r(tau) and shift alpha(tau) at every delay.

    Evaluated over the whole array of delays at once, bit for bit as one
    delay at a time.
    """
    with np.errstate(all="ignore"):  # a non-finite shift is refused by _working_dim
        return r_of_tau(params.c, taus).tolist(), alpha_of_tau(params.b, params.c, taus).tolist()


def _evolution_dim(
    params: HamiltonianParams,
    taus: np.ndarray,
    dim: int,
    margin: float = 4.0,
    flow: tuple[list[float], list[complex]] | None = None,
) -> int:
    """Working dimension holding `dim` levels through the flow at every delay.

    flow is _flow(params, taus), evaluated here unless the caller holds it;
    _working_dim then sizes each delay in turn with `margin` vacuum widths,
    so the first delay above the cap is the one refused.
    """
    stretches, shifts = _flow(params, taus) if flow is None else flow
    return max(_working_dim(dim, r, abs(s), margin) for r, s in zip(stretches, shifts))


def _real_trace(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.abs(values.imag).max())
    if worst > _IMAG_TOL:
        raise ArithmeticError(f"{what} should be real, got imaginary residue {worst:g}")
    return values.real


def _sweep_in(
    rho: np.ndarray, params: HamiltonianParams, taus: np.ndarray, big: int
) -> OracleSweep:
    """oracle_sweep's traces with n(tau) evolved in the lowest `big` levels.

    Below dim = rho.shape[0] the basis holds rho[:big, :big], and a rho a† is
    built from that crop; mean_0, tail_mass and pair_tail are read from the
    whole rho either way.
    """
    dim = rho.shape[0]
    held = min(dim, big)
    w, v = np.linalg.eigh(hamiltonian_matrix(params, big))
    v_top = v[:held].copy()  # rho and a rho a† live on the lowest held states
    v_edge = v[_edge_start(big) :].copy()
    v *= np.sqrt(np.arange(big, dtype=float))[:, None]  # V† n V = (√n V)† (√n V)
    # a rho a†: rho moved down one level, sqrt(n) weights on both sides.
    cropped = rho[:held, :held]
    root = np.sqrt(np.arange(1.0, held))
    lowered = np.zeros_like(cropped)
    lowered[:-1, :-1] = root[:, None] * cropped[1:, 1:] * root
    # Row j of (V† X V)^T is row j of V_top^T times X^T conj(V_top).
    rho_right = cropped.T @ v_top.conj()
    lowered_right = lowered.T @ v_top.conj()
    # [Mx | Mr | Me] side by side, so one product per delay block serves all
    # three.  They are filled _BLOCK rows at a time, from row blocks of each
    # factor, so no N x N temporary ever sits beside them.
    forms = np.empty((big, 3 * big), dtype=complex)
    abs_mr = 0.0
    for start in range(0, big, _BLOCK):
        rows = slice(start, start + _BLOCK)
        number = v[:, rows].conj().T @ v
        rho_t = v_top[:, rows].T @ rho_right
        m_x, m_rho, m_edge = np.split(forms[rows], 3, axis=1)
        np.multiply(number, v_top[:, rows].T @ lowered_right, out=m_x)
        np.multiply(number, rho_t, out=m_rho)
        np.multiply(v_edge[:, rows].conj().T @ v_edge, rho_t, out=m_edge)
        abs_mr += float(np.abs(m_rho).sum())
    del v
    floor = big * np.finfo(float).eps * abs_mr

    traces = np.empty((3, taus.size))  # numerator, mean_n, edge population
    for start in range(0, taus.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        phase = np.exp(1j * np.outer(taus[block], w))
        forms_at = (phase @ forms).reshape(len(phase), 3, big)
        traces[:, block] = _real_trace(
            np.einsum("bkj,bj->kb", forms_at, phase.conj()), "oracle trace"
        )
    numerator, mean_n, edge = traces
    edge_start = _edge_start(dim)
    mean_0 = float(np.arange(dim) @ rho.diagonal().real)
    tail_mass = float(np.sum(rho.diagonal()[edge_start:]).real)
    pairs = np.arange(dim) * np.arange(-1, dim - 1) * rho.diagonal().real  # n(n-1) rho_nn
    pair_weight = float(pairs.sum())
    pair_tail = float(pairs[edge_start:].sum()) / pair_weight if pair_weight else math.nan
    return OracleSweep(mean_0, mean_n, numerator, floor, tail_mass, pair_tail, big, float(edge.max()))


def _kept_levels(populations: np.ndarray) -> int:
    """Fewest lowest levels outside which `populations` hold less than eps of each sum.

    The sums are sum p_n, sum n p_n and sum n(n-1) p_n: the trace, and the
    zero-delay moments g2 is built from; eps is the double-precision machine
    epsilon.  A sum that is zero keeps every level.
    """
    n = np.arange(populations.size)
    sums = (populations, n * populations, n * (n - 1) * populations)
    return max(_support(weights, np.finfo(float).eps * weights.sum()) for weights in sums)


def oracle_sweep(
    rho: np.ndarray, params: HamiltonianParams, taus: Sequence[float]
) -> OracleSweep:
    """Tr[rho n(tau)], Tr[rho a† n(tau) a] and the leakage over the delays of `taus`.

    rho lives on the lowest dim = rho.shape[0] number states, and n(tau) =
    e^{iH tau} n e^{-iH tau} acts on one working basis for the whole sweep.
    The sweep evaluates the flow once and sizes its bases from rho's support
    (its levels down to a suffix population of _EVOLUTION_SUPPORT_TOL) held
    through the flow's stretch and shift at every delay: the tight size, with
    one vacuum width of margin, and the last resort, with four.  It first
    runs in min(dim, max(tight, kept, 2)) levels, kept being the fewest
    lowest levels of rho outside which rho holds less than eps of its trace,
    of sum n rho_nn and of sum n(n-1) rho_nn; it starts in dim when the tight
    size is above _WORKING_DIM_CAP.  When that basis leaks more than
    LEAKAGE_TOL, it tries dim, then the tight size, then the last resort,
    skipping a size no larger than the last one run, and keeps the first
    whose leakage is at most LEAKAGE_TOL, or else the last one run.  A size
    above _WORKING_DIM_CAP raises TruncationError just before it would run.
    So the Hamiltonian is diagonalized once when the first basis holds the
    evolution, and at most three times: a first basis below dim is at least
    the tight size, which is then skipped.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise ValueError(f"rho must be a square matrix of size >= 2, got shape {rho.shape}")
    taus = _delays(taus)
    dim = rho.shape[0]
    populations = rho.diagonal().real
    support = _support(populations, _EVOLUTION_SUPPORT_TOL)
    flow = _flow(params, taus)

    try:
        tight = _evolution_dim(params, taus, support, 1.0, flow)
    except TruncationError:  # refused below, should the dim basis leak
        tight = dim
    sweep = _sweep_in(rho, params, taus, min(dim, max(tight, _kept_levels(populations), 2)))
    if sweep.leakage <= LEAKAGE_TOL:
        return sweep

    def fallbacks():  # sized only as they are reached, so a refusal comes just before its run
        yield dim
        for margin in (1.0, 4.0):
            yield _evolution_dim(params, taus, support, margin, flow)

    for size in fallbacks():
        if size > sweep.working_dim:
            sweep = _sweep_in(rho, params, taus, size)
            if sweep.leakage <= LEAKAGE_TOL:
                break
    return sweep


def g2_oracle(
    state: GaussianStateParams, params: HamiltonianParams, tau: float, dim: int
) -> float:
    """Tr[rho a† n(tau) a] / (Tr[rho a† a] Tr[rho n(tau)])."""
    if state.is_vacuum:
        raise UndefinedCoherenceError()
    return float(oracle_sweep(gaussian_rho(state, dim), params, [tau]).g2[0])
