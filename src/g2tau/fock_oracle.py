"""Truncated Fock-space ground truth for the amplifier photon statistics.

Everything the closed forms in :mod:`g2tau.gaussian_core` predict is rebuilt
here by brute force: dense matrices on the lowest number states, the state
as an explicit density matrix, the evolution from an exact
eigendecomposition of the truncated Hamiltonian, and every expectation as a
trace.  Nothing is shared with the closed-form path beyond the parameter
dataclasses (the closed-form flow is only consulted to *size* the working
space, never for the evolved values), so agreement between the two is a
real cross-check rather than a tautology.

The state's entries on the lowest `dim` number states are those of the
untruncated state, each from the Gaussian state's Fock recurrence in
(nbar, r, theta, alpha), with no working space beyond `dim`, no matrix
product and no eigensolve (see gaussian_rho).  So the remaining error is set
by the state's own Fock tail, which every sweep reads from rho's diagonal
twice: as the population of rho's top 10% levels (tail_mass), and as the
share of g2's zero-delay numerator sum n(n-1) rho_nn that those levels hold
(pair_tail).  A state that would need more than _WORKING_DIM_CAP levels to
hold `dim` levels through its squeeze and shift is still refused with
TruncationError, as is every evolution basis sized above the cap.

A delay sweep (:func:`oracle_sweep`) evolves rho in one working basis of N
states at a time.  It evaluates the closed-form flow once and sizes its
bases from it, each holding rho's levels down to a suffix population of
_EVOLUTION_SUPPORT_TOL: a tight one with one vacuum width of margin, and the
last resort with four, the most it ever uses.  It first evolves in the tight
size, raised to the levels that hold all but eps of g2's sums; a basis below
dim evolves the lowest N-level block of rho.  It keeps that result when its
measured leakage (below) is at most LEAKAGE_TOL, and otherwise evolves once
more at the last resort.  In each basis one eigendecomposition
H = V diag(w) V† serves every delay:
with the phases Phi = exp(i tau w), n the number operator on the working
basis and V_edge the rows of V for its top 10% levels,

    Tr[rho n(tau)]      = sum_jk Phi_j Mr_jk conj(Phi_k),  Mr = (V† rho V)^T ∘ (V† n V)
    Tr[rho a† n(tau) a] = sum_jk Phi_j Mx_jk conj(Phi_k),  Mx = (V† a rho a† V)^T ∘ (V† n V)
    edge population     = sum_jk Phi_j Me_jk conj(Phi_k),  Me = (V† rho V)^T ∘ (V_edge† V_edge)

so after the O(N³) setup each delay costs O(N²), and delays are evaluated
in blocks of fixed size, one matrix product per block for all three forms.
The largest edge population over the delays is the sweep's leakage: the
share of the evolved state that reached the top of the working basis.
oracle_sweep takes a rho built once with gaussian_rho; nothing outlives the
call.

The CLI and g2_oracle reach the oracle through sweep_state, which builds rho
from the state and may evolve in a second basis: the amplifier's squeeze
frame.  H is a pure squeeze about the point -beta, beta = b / (2c*), so in the
number basis of d = e^{-i gamma/2} (a + beta), gamma = arg c, it is |c| (d†² +
d²) plus a constant: real, and coupling each level only to those two above
and below.  Its eigensystem is then two real eigensolves of about N/2 levels,
the even and the odd chain, in place of one complex one of N.  The state in
that basis is again a Gaussian rho from the same recurrence, n and a rho a†
pick up the shift beta' = e^{-i gamma/2} beta, and everything after the
eigensystem (the forms, the delay sums, the floor and the leakage) is the
number basis's code.  The chains split V into two groups of columns, each
on one parity of levels, so the forms are built and summed a quarter at a
time, each product running over half the levels.  The frame's basis grows
with |beta|, so a rule on the sizes picks it (see _FRAME_KAPPA); at c = 0
there is no frame.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .gaussian_core import (
    GaussianStateParams,
    SqueezeParam,
    UndefinedCoherenceError,
    alpha_of_tau,
    r_of_tau,
)
from .param_map import HamiltonianParams

__all__ = [
    "LEAKAGE_TOL",
    "TruncationError",
    "OracleSweep",
    "gaussian_rho",
    "hamiltonian_matrix",
    "oracle_sweep",
    "sweep_state",
    "g2_oracle",
]

# Tolerated imaginary residue on traces that are real by Hermiticity.
_IMAG_TOL = 1e-8

# Delays, or rows of its bilinear forms, per matrix product in oracle_sweep;
# its scratch is O(_BLOCK * N) however many delays a sweep has.
_BLOCK = 64

# Largest trusted leakage (see OracleSweep).  Measured with the evolution
# basis forced below its sized N, 41 delays each, the worst g2 relative error
# against the closed form stays under 10x the leakage:
#   squeezed vacuum r 0.3, tau <= 4:  leakage 1.7e-6, 1.9e-7, 1.7e-9 -> error 1.5e-5, 1.6e-6, 1.0e-8
#   nbar 0.5, r 0.3, |alpha| 0.9, tau <= 3:  3.5e-6, 2.1e-7, 1.1e-8 -> 1.2e-5, 5.9e-7, 2.7e-8
#   hull corner at dim 240, tau <= 1:  9.0e-5, 3.8e-6, 1.4e-7 -> 3.6e-4, 1.3e-5, 4.1e-7
#   |alpha| 3, r 0.5, tau <= 2:  6.8e-6, 1.7e-7, 4.7e-9 -> 6.8e-7, 1.4e-8, 2.8e-10
# so 1e-8 keeps the evolution's share of the g2 error near 1e-7, under the
# 1e-6 that compare mode allows rho's truncation (its pair_tail bound).  At
# oracle_sweep's last-resort N, for rho on 120 levels (240 for the hull
# corner), they leak 6.8e-14, 1.6e-17, 2.9e-12 and 1.8e-17.  oracle_sweep
# keeps its first basis only when that basis leaks at most this, so the basis
# it settles on is held to the same bound, and compare mode accepts the same
# leakage.
LEAKAGE_TOL = 1e-8

# oracle_sweep's bases hold the levels of rho down to a suffix population
# below this, first with one vacuum width of margin, then with four.  The
# population they leave out can at most all reach the basis edge, so it
# spends 1/100 of the LEAKAGE_TOL budget and leaves the rest to the Gaussian
# edge of the levels they hold.  Measured on states of the benchmark
# hull (r <= 0.8, |alpha| <= 1.5, nbar <= 1, tau <= 1) whose evolution
# leaked out of rho's dim = 120 or 240 levels, as the leakage at one vacuum
# width of margin:
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


# sweep_state evolves in the squeeze frame (see there) only where |beta| <=
# _FRAME_KAPPA sqrt(N), N being the number basis's first size, and N > dim.
# The frame's basis grows with |beta|, so past some |beta| / sqrt(N) its real
# eigensolves cost more than the complex one they replace; and its rho is a
# second recurrence build of at least dim levels, which the eigensolves repay
# only once N is above dim (on 128 compare_grid ops of seed 23101 with N <=
# dim, the frame was slower in every band up to 0.5: medians 0.5x to 0.8x).
# Measured as the CLI's time per op, best of 3, number basis over frame, on
# the benchmark ops with N > dim = 120 among 160 compare_grid ops (seed
# 23801, 4 delays) and 80 oracle_curve ops (seed 23802, 501 delays), by
# |beta| / sqrt(N), as the median and the range (2 vCPUs, OpenBLAS):
#   up to 0.05:   compare 2.53x (1.46x to 2.89x, 14 ops), oracle 1.58x (1.01x to 1.81x, 9 ops)
#   0.05 to 0.1:  1.67x (1.24x to 2.59x, 13 ops), 1.08x (1.00x to 1.56x, 5 ops)
#   0.1 to 0.15:  1.31x (1.02x to 2.23x, 9 ops), 1.01x (0.88x to 1.20x, 4 ops)
#   0.15 to 0.2:  1.25x (1.05x to 1.61x, 6 ops), 0.88x (0.81x to 1.02x, 6 ops)
#   0.2 to 0.3:   1.20x (0.81x to 1.34x, 11 ops), 0.76x (3 ops)
#   above 0.3:    0.68x (0.58x to 1.07x, 6 ops), 0.74x (3 ops)
# The frame's basis outgrows the number basis's as |beta| grows, and each
# delay costs O(N²), so with many delays the paths cross sooner: near 0.15
# for oracle_curve, past 0.3 for compare_grid.  0.15 keeps the frame from
# slowing either.
_FRAME_KAPPA = 0.15


class TruncationError(Exception):
    """The oracle's truncation cannot be trusted, so it gives no numbers.

    Raised here when a state (see gaussian_rho) or a working basis of a
    sweep would need more than _WORKING_DIM_CAP levels, and by the CLI when
    a sweep's pair_tail, tail mass or leakage is above its threshold.
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
    its evolution fit in fewer levels and above it when the evolution needs
    more, or the last resort when that basis leaked too much (see
    oracle_sweep).  leakage is the largest population, over the delays, that
    the evolved state rho(tau) puts in the top 10% of the N working levels.
    A sweep in the squeeze frame (see sweep_state) counts N, the leakage's
    levels and mean_0's in the frame's number basis; tail_mass and pair_tail
    are still those of rho's dim number states.
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


def _needed(dim: int, stretch_r: float, shift_mag: float, margin: float) -> float:
    """(sqrt(dim) e^{stretch_r} + margin + shift_mag)², the size _working_dim checks."""
    # A stretch past the cap's logarithm needs more than the cap at any dim,
    # so bounding it there only keeps exp finite.
    stretch = math.exp(min(stretch_r, math.log(_WORKING_DIM_CAP)))
    radius = math.sqrt(dim) * stretch + margin + shift_mag
    return radius * radius


def _working_dim(dim: int, stretch_r: float, shift_mag: float, margin: float = 4.0) -> int:
    """Fock dimension needed to hold `dim` levels through a stretch and a shift.

    A squeeze stretches the occupied phase-space radius (~sqrt(dim)) by
    e^{stretch_r} and a displacement shifts it, so the lowest-dim block of
    the squeezed-and-displaced object draws on roughly
    (sqrt(dim) e^{stretch_r} + |shift| + margin)² number states; the margin,
    in vacuum widths, absorbs the Gaussian edges.  Raises TruncationError
    when that exceeds _WORKING_DIM_CAP.
    """
    needed = _needed(dim, stretch_r, shift_mag, margin)
    if needed > _WORKING_DIM_CAP:
        shown = math.ceil(needed) if math.isfinite(needed) else needed
        raise TruncationError(
            f"the oracle needs a working dimension of {shown} to hold {dim} levels, "
            f"above its cap of {_WORKING_DIM_CAP}"
        )
    return max(dim, math.ceil(needed))


def _support(populations: np.ndarray, tol: float) -> int:
    """Smallest d whose levels d, d+1, ... hold less than `tol` of `populations`."""
    suffix = np.cumsum(populations[::-1])[::-1]
    below = np.flatnonzero(suffix < tol)
    return int(below[0]) if below.size else populations.size


def gaussian_rho(state: GaussianStateParams, dim: int) -> np.ndarray:
    """Density matrix D(alpha) S(xi) rho_thermal S† D† on the lowest `dim` number states.

    A Gaussian rho has a Gaussian generating function (Miatto & Quesada,
    Quantum 4, 366 (2020)),

        sum_mn rho_mn z1^m z2^n / sqrt(m! n!) = T exp(A11 z1²/2 + A12 z1 z2 + A22 z2²/2 + g1 z1 + g2 z2),

    so row 0 follows from rho_00 = T by sqrt(n+1) rho_{0,n+1} = g2 rho_0n +
    A22 sqrt(n) rho_{0,n-1}, and each later row from the two above it by

        sqrt(m+1) rho_{m+1,n} = g1 rho_mn + A11 sqrt(m) rho_{m-1,n} + A12 sqrt(n) rho_{m,n-1}.

    With nu = nbar + 1/2, u = nu e^{2r} + 1/2 and w = nu e^{-2r} + 1/2, so
    that u w = nu² + nu cosh 2r + 1/4 = det sigma_Q,

        A11 = -e^{i theta} nu sinh(2r) / (u w),  A22 = A11*,  A12 = nbar (nbar+1) / (u w),
        B12 = 1 - A12 = (1/u + 1/w) / 2,  g1 = B12 alpha - A11 alpha*,  g2 = g1*,
        T = exp(Re(A11 alpha*²) - B12 |alpha|²) / sqrt(u w).

    These closed forms need no inverse of sigma_Q (a 2x2 solve returns A12 =
    1.5e-11 for the exact 0 at r 6) and stay finite at any nbar.  So every
    entry is that of the untruncated state, built in O(dim²) with no matrix
    product and no eigensolve; the crop is then re-hermitized and
    renormalized by its trace.

    Each row is carried scaled by a power of two, which rounds nothing above
    the subnormal range, and the recurrence starts from 1 in place of T,
    which underflows once |alpha|² is above about 745.  T enters only the
    crop's population, taken in log space: a crop holding less than the
    smallest normal float of the state holds none of it, and g2 is undefined
    (UndefinedCoherenceError).  Each call returns a new array.
    """
    _require_dim(dim)
    # rho needs no larger basis, but oracle mode's gates pass some of the
    # states this refuses with a wrong g2 (r 1.6 at tau_max 0.01 by 1.25e-3),
    # so they stay refused until a gate on pair_tail refuses them.
    _working_dim(dim, state.xi.r, abs(state.alpha))
    return _recurrence_rho(state, dim)


def _recurrence_rho(state: GaussianStateParams, dim: int) -> np.ndarray:
    """gaussian_rho's matrix, with no size check."""
    nbar, r, alpha = state.nbar, state.xi.r, complex(state.alpha)
    nu = nbar + 0.5
    u = nu * math.exp(2.0 * r) + 0.5
    w = nu * math.exp(-2.0 * r) + 0.5
    a11 = -cmath.exp(1j * state.xi.theta) * (nu / u) * (math.sinh(2.0 * r) / w)
    a12 = (nbar / u) * ((nbar + 1.0) / w)
    b12 = 0.5 * (1.0 / u + 1.0 / w)
    g1 = b12 * alpha - a11 * alpha.conjugate()
    log_t = (a11 * alpha.conjugate() ** 2).real - b12 * abs(alpha) ** 2 - 0.5 * (math.log(u) + math.log(w))

    root = np.sqrt(np.arange(dim, dtype=float))
    roots = root.tolist()
    # On a grid over the cap's boundary row 0 stays below e^379 of its start
    # (e^709 overflows), so it is not scaled.
    g2, a22 = g1.conjugate(), a11.conjugate()
    row = [1.0 + 0j, g2]
    for n in range(1, dim - 1):
        row.append((g2 * row[n] + a22 * roots[n] * row[n - 1]) / roots[n + 1])
    rows = np.empty((dim, dim), dtype=complex)
    rows[0] = row
    exps = []  # row m of rho / T is rows[m] * 2**exps[m]
    for m in range(dim):
        top = max(exps[-2:], default=0)
        if m:
            down = math.ldexp(1.0 / roots[m], exps[m - 1] - top)
            np.multiply(rows[m - 1], g1 * down, out=rows[m])
            rows[m, 1:] += (a12 * down * root[1:]) * rows[m - 1, :-1]
        if m > 1:
            rows[m] += (a11 * math.ldexp(roots[m - 1] / roots[m], exps[m - 2] - top)) * rows[m - 2]
        # bounded below so that the factor stays finite on a subnormal row
        scale = max(math.frexp(float(np.abs(rows[m].view(float)).max()))[1], -1000)
        rows[m] *= math.ldexp(1.0, -scale)
        exps.append(top + scale)

    rows *= np.exp2(np.array(exps, dtype=float) - max(exps))[:, None]
    rho = np.conj(rows.T, order="C")  # rho†, laid out to be added fast
    rho += rows
    rho *= 0.5
    trace = np.trace(rho).real
    log_population = log_t + max(exps) * math.log(2.0) + math.log(trace) if trace > 0.0 else -math.inf
    if not log_population >= math.log(np.finfo(float).tiny):
        raise UndefinedCoherenceError(
            f"g2 is undefined: the oracle's lowest {dim} number states hold none of the state"
        )
    rho *= 1.0 / trace
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


def _evolution_dim(flow: tuple[list[float], list[complex]], dim: int, margin: float) -> int:
    """Working dimension holding `dim` levels through the flow at every delay.

    flow is _flow(params, taus); _working_dim sizes each delay in turn with
    `margin` vacuum widths, so the first delay above the cap is the one
    refused.
    """
    return max(_working_dim(dim, r, abs(s), margin) for r, s in zip(*flow))


def _real_trace(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.abs(values.imag).max())
    if worst > _IMAG_TOL:
        raise ArithmeticError(f"{what} should be real, got imaginary residue {worst:g}")
    return values.real


def _tails(rho: np.ndarray) -> tuple[float, float]:
    """tail_mass and pair_tail of rho's top 10% levels (see OracleSweep)."""
    dim = rho.shape[0]
    edge_start = _edge_start(dim)
    tail_mass = float(np.sum(rho.diagonal()[edge_start:]).real)
    pairs = np.arange(dim) * np.arange(-1, dim - 1) * rho.diagonal().real  # n(n-1) rho_nn
    pair_weight = float(pairs.sum())
    pair_tail = float(pairs[edge_start:].sum()) / pair_weight if pair_weight else math.nan
    return tail_mass, pair_tail


def _product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left @ right, as one real product on right's parts when only left is real."""
    if np.isrealobj(left) and not np.isrealobj(right):
        return (left @ right.view(float)).view(complex)
    return left @ right


def _shifted_number(x: np.ndarray, root: np.ndarray, shift: complex) -> np.ndarray:
    """(d - shift)†(d - shift) x, d lowering the rows of a real x.

    That is (n + |shift|²) x - shift d† x - shift* d x.  root is sqrt(n) on
    x's rows, so (d x)_k = root_{k+1} x_{k+1} and (d† x)_k = root_k x_{k-1}.
    """
    raised = np.zeros_like(x)
    raised[1:] = root[1:, None] * x[:-1]
    lowered = np.zeros_like(x)
    lowered[:-1] = root[1:, None] * x[1:]
    out = np.empty(x.shape, dtype=complex)
    out.real = (root * root + abs(shift) ** 2)[:, None] * x - shift.real * (raised + lowered)
    out.imag = shift.imag * (lowered - raised)
    return out


# A group of an eigenvector matrix V's columns, and the levels they live on.
_Group = tuple[slice, slice]


def _traced(
    rho: np.ndarray,
    taus: np.ndarray,
    eigensystem: Callable[[int], tuple[np.ndarray, np.ndarray, tuple[_Group, ...]]],
    shift: complex,
    tails: tuple[float, float],
    big: int,
) -> OracleSweep:
    """A sweep's traces with n(tau) evolved in the lowest `big` levels of one basis.

    eigensystem(big) gives H's eigenvalues w and eigenvectors V on those
    levels, and V's groups: each a slice of its columns and the slice of the
    levels those columns live on, H coupling no two groups; rho is the
    state in that basis, and the photon number is n = (d - shift)†(d -
    shift), d being the basis's lowering operator.  Below dim = rho.shape[0]
    the basis holds rho[:big, :big], and a rho a† = (d - shift) rho (d -
    shift)† is built from that crop; mean_0 = Tr[rho n] is read from the
    whole rho.  tails are the sweep's tail_mass and pair_tail.

    Each trace sum_jk Phi_j M_jk conj(Phi_k) is summed over the blocks of M
    that pair a group of j with a group of k, one block at a time, so the
    forms of one block are all that is ever stored: N x 3N for one group, a
    quarter of that for two halves.  The forms are Hermitian, so a block
    below the diagonal adds the conjugate of the one above it, which is
    summed twice in its place.  A product over levels runs only over the
    levels that its eigenvector factor lives on.
    """
    dim = rho.shape[0]
    held = min(dim, big)
    w, v, groups = eigensystem(big)
    v_top = v[:held].copy()  # rho and a rho a† live on the lowest held states
    v_edge = v[_edge_start(big) :].copy()
    root = np.sqrt(np.arange(big, dtype=float))
    if not shift:
        v *= root[:, None]  # V† n V = (sqrt(n) V)† (sqrt(n) V)
    # a rho a†: rho moved down one level, sqrt(n) weights on both sides.
    cropped = rho[:held, :held]
    held_root = root[1:held]
    lowered = np.zeros_like(cropped)
    lowered[:-1, :-1] = held_root[:, None] * cropped[1:, 1:] * held_root
    if shift:  # minus shift* d rho and its adjoint, plus |shift|² rho
        down = np.zeros_like(cropped)
        down[:-1] = held_root[:, None] * cropped[1:]
        lowered -= shift.conjugate() * down + shift * down.conj().T
        lowered += abs(shift) ** 2 * cropped
    # Row j of (V† X V)^T is row j of V_top^T times X^T conj(V_top).
    rho_right = cropped.T @ v_top.conj()
    lowered_right = lowered.T @ v_top.conj()
    abs_mr = 0.0
    sums = None  # complex traces: numerator, mean_n, edge population
    for (j_cols, j_levels), (k_cols, k_levels) in itertools.combinations_with_replacement(groups, 2):
        # [Mx | Mr | Me] side by side, so one product per delay block serves
        # all three.  They are filled _BLOCK rows at a time, from row blocks
        # of each factor, so no N x N temporary ever sits beside them.
        size = k_cols.stop - k_cols.start
        # an off-diagonal block stands in for its conjugate below the diagonal too
        mirrored = k_cols != j_cols
        forms = np.empty((j_cols.stop - j_cols.start, 3 * size), dtype=complex)
        for start in range(0, forms.shape[0], _BLOCK):
            rows = slice(j_cols.start + start, min(j_cols.start + start + _BLOCK, j_cols.stop))
            if shift:  # rows of V† n V = (n V_rows)† V, with n tridiagonal
                moved = _shifted_number(v[:, rows], root, shift)[k_levels]
                number = _product(v[k_levels, k_cols].conj().T, moved).conj().T
            else:
                number = v[k_levels, rows].conj().T @ v[k_levels, k_cols]
            rho_t = _product(v_top[j_levels, rows].T, rho_right[j_levels, k_cols])
            m_x, m_rho, m_edge = np.split(forms[start : start + _BLOCK], 3, axis=1)
            lowered_t = _product(v_top[j_levels, rows].T, lowered_right[j_levels, k_cols])
            np.multiply(number, lowered_t, out=m_x)
            np.multiply(number, rho_t, out=m_rho)
            np.multiply(v_edge[:, rows].conj().T @ v_edge[:, k_cols], rho_t, out=m_edge)
            abs_mr += (1.0 + mirrored) * float(np.abs(m_rho).sum())
        part = np.empty((3, taus.size), dtype=complex)
        for start in range(0, taus.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            phase = np.exp(1j * np.outer(taus[block], w[j_cols]))
            forms_at = (phase @ forms).reshape(len(phase), 3, size)
            if mirrored:
                phase = np.exp(1j * np.outer(taus[block], w[k_cols]))
            part[:, block] = np.einsum("bkj,bj->kb", forms_at, phase.conj())
        del forms
        if mirrored:
            part += part.conj()
        sums = part if sums is None else sums + part
    del v
    floor = big * np.finfo(float).eps * abs_mr
    numerator, mean_n, edge = _real_trace(sums, "oracle trace")
    levels = np.arange(dim)
    mean_0 = float(levels @ rho.diagonal().real)
    if shift:  # - 2 Re(shift* Tr[rho d]) + |shift|² Tr rho
        lowering = np.sqrt(levels[1:]) @ rho.diagonal(-1)
        mean_0 += abs(shift) ** 2 * float(rho.diagonal().real.sum())
        mean_0 -= 2.0 * (shift.conjugate() * lowering).real
    return OracleSweep(mean_0, mean_n, numerator, floor, *tails, big, float(edge.max()))


def _sweep_in(
    rho: np.ndarray, params: HamiltonianParams, taus: np.ndarray, big: int
) -> OracleSweep:
    """oracle_sweep's traces with n(tau) evolved in the lowest `big` number states."""
    def eigensystem(size: int) -> tuple[np.ndarray, np.ndarray, tuple[_Group, ...]]:
        return *np.linalg.eigh(hamiltonian_matrix(params, size)), ((slice(0, size), slice(None)),)

    return _traced(rho, taus, eigensystem, 0j, _tails(rho), big)


def _chain_eigensystem(
    magnitude: float, big: int
) -> tuple[np.ndarray, np.ndarray, tuple[_Group, ...]]:
    """Eigensystem of magnitude (d†² + d²) on `big` levels, from its two parity chains.

    The pair terms couple level k only to k ± 2, with <k+2|H|k> = magnitude
    sqrt((k+1)(k+2)), so the even and the odd levels each carry a real
    tridiagonal matrix, of ceil(big/2) and floor(big/2) levels, each solved
    densely.  V holds the even chain's eigenvectors on the even levels of its
    first ceil(big/2) columns and the odd chain's on the odd levels of the
    rest; those are its two groups (see _traced).
    """
    k = np.arange(big - 2, dtype=float)
    hops = magnitude * np.sqrt((k + 1.0) * (k + 2.0))
    w = np.empty(big)
    v = np.zeros((big, big))
    start = 0
    for parity in (0, 1):
        size = (big - parity + 1) // 2
        chain = np.zeros((size, size))
        steps = np.arange(size - 1)
        chain[steps, steps + 1] = chain[steps + 1, steps] = hops[parity::2]
        w[start : start + size], v[parity::2, start : start + size] = np.linalg.eigh(chain)
        start += size
    half = (big + 1) // 2
    return w, v, ((slice(0, half), slice(0, None, 2)), (slice(half, big), slice(1, None, 2)))


def _kept_levels(populations: np.ndarray) -> int:
    """Fewest lowest levels outside which `populations` hold less than eps of each sum.

    The sums are sum p_n, sum n p_n and sum n(n-1) p_n: the trace, and the
    zero-delay moments g2 is built from; eps is the double-precision machine
    epsilon.  A sum that is zero keeps every level.
    """
    n = np.arange(populations.size)
    sums = (populations, n * populations, n * (n - 1) * populations)
    return max(_support(weights, np.finfo(float).eps * weights.sum()) for weights in sums)


def _rungs(sweep_at: Callable[[int], OracleSweep], first: int, last: Callable[[], int]) -> OracleSweep:
    """sweep_at(first), or sweep_at(last()) if first leaks more than LEAKAGE_TOL and last() is larger."""
    sweep = sweep_at(first)
    if sweep.leakage > LEAKAGE_TOL:
        size = last()
        if size > first:
            sweep = sweep_at(size)
    return sweep


def _number_sizes(rho: np.ndarray, flow) -> tuple[int, Callable[[], int]]:
    """The number basis's first size for rho, and its last resort sized when asked (see oracle_sweep)."""
    populations = rho.diagonal().real
    support = _support(populations, _EVOLUTION_SUPPORT_TOL)
    first = max(_evolution_dim(flow, support, 1.0), _kept_levels(populations), 2)
    return first, lambda: _evolution_dim(flow, support, 4.0)


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
    runs in max(tight, kept, 2) levels, kept being the fewest lowest levels
    of rho outside which rho holds less than eps of its trace, of
    sum n rho_nn and of sum n(n-1) rho_nn.  When that basis leaks more than
    LEAKAGE_TOL, it runs once more at the last resort if that is larger, and
    keeps that result.  A size above _WORKING_DIM_CAP raises TruncationError
    before it runs, so a tight size above the cap is refused before any
    eigensolve.  The Hamiltonian is diagonalized once when the first basis
    holds the evolution, and at most twice.
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape[0] < 2:
        raise ValueError(f"rho must be a square matrix of size >= 2, got shape {rho.shape}")
    taus = _delays(taus)
    return _rungs(partial(_sweep_in, rho, params, taus), *_number_sizes(rho, _flow(params, taus)))


def _frame(
    state: GaussianStateParams, params: HamiltonianParams, flow, dim: int, first: int
) -> tuple[np.ndarray, complex, int, int] | None:
    """The squeeze frame's rho, shift, first and last-resort sizes, or None where it does not run.

    first is the number basis's first size for rho on `dim` levels.  The
    frame runs when c != 0, first > dim, |beta| <= _FRAME_KAPPA sqrt(first),
    and its rho and both its sizes are within _WORKING_DIM_CAP.  Its rho is
    gaussian_rho's at alpha' = e^{-i gamma/2} (alpha + beta) and theta' =
    theta - gamma, built on ceil((sqrt(dim) + |beta|)²) levels, which hold
    the phase-space disk that rho's dim levels hold, and cropped to its kept
    levels (see _kept_levels).  In the frame the flow is a pure squeeze about
    the origin, so its sizes are oracle_sweep's from that rho's support with
    no shift: (sqrt(support) e^{r(tau)} + margin)² at margins 1 and 4, the
    first raised to the kept levels.
    """
    c = complex(params.c)
    if c == 0 or first <= dim:
        return None
    beta = complex(params.b) / (2.0 * c.conjugate())
    if not abs(beta) <= _FRAME_KAPPA * math.sqrt(first):
        return None
    # (sqrt(dim) + |beta|)², expanded so that it is dim itself at beta = 0
    built = dim + math.ceil(abs(beta) * (2.0 * math.sqrt(dim) + abs(beta)))
    if built > _WORKING_DIM_CAP:
        return None
    gamma = cmath.phase(c)
    gauge = cmath.exp(-0.5j * gamma)
    framed = GaussianStateParams(
        gauge * (state.alpha + beta), SqueezeParam(state.xi.r, state.xi.theta - gamma), state.nbar
    )
    rho = _recurrence_rho(framed, built)
    populations = rho.diagonal().real
    support = _support(populations, _EVOLUTION_SUPPORT_TOL)
    stretch = max(flow[0])
    tight, last = (math.ceil(_needed(support, stretch, 0.0, margin)) for margin in (1.0, 4.0))
    if last > _WORKING_DIM_CAP:
        return None
    kept = _kept_levels(populations)
    return rho[:kept, :kept], gauge * beta, max(tight, kept, 2), last


def sweep_state(
    state: GaussianStateParams, params: HamiltonianParams, taus: Sequence[float], dim: int
) -> OracleSweep:
    """The oracle sweep of `state` held on `dim` levels, in the squeeze frame where it runs.

    rho = gaussian_rho(state, dim) is built and its number basis sized as in
    oracle_sweep, so a state or a tight basis above the cap is refused before
    any eigensolve.  Where the squeeze frame runs (see _frame), the sweep
    evolves the state there, at the frame's two rungs, with each chain of its
    Hamiltonian solved by np.linalg.eigh; otherwise it is oracle_sweep(rho,
    params, taus).  tail_mass and pair_tail are rho's either way, so every
    gate reads the same figures.
    """
    rho = gaussian_rho(state, dim)
    taus = _delays(taus)
    flow = _flow(params, taus)
    frame = _frame(state, params, flow, dim, _number_sizes(rho, flow)[0])
    if frame is None:
        return oracle_sweep(rho, params, taus)
    framed, shift, first, last = frame
    eigensystem = partial(_chain_eigensystem, abs(params.c))
    sweep_at = partial(_traced, framed, taus, eigensystem, shift, _tails(rho))
    return _rungs(sweep_at, first, lambda: last)


def g2_oracle(
    state: GaussianStateParams, params: HamiltonianParams, tau: float, dim: int
) -> float:
    """Tr[rho a† n(tau) a] / (Tr[rho a† a] Tr[rho n(tau)]), from sweep_state."""
    if state.is_vacuum:
        raise UndefinedCoherenceError()
    return float(sweep_state(state, params, [tau], dim).g2[0])
