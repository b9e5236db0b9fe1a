"""Closed-form photon statistics of a driven degenerate parametric amplifier.

A single bosonic mode is prepared in a displaced-squeezed thermal state and
evolves under H = c a†² + c* a² + b a + b* a† (hbar = 1).  Because the
Hamiltonian is quadratic, the Heisenberg-picture annihilation operator stays a
linear combination a(τ) = u(τ) a + v(τ) a† + α(τ), and every correlation
function needed for the delay-dependent mean photon number and the temporal
second-order coherence g²(τ) reduces to scalar arithmetic on the state
parameters (α, ξ, n̄) and the couplings (b, c).

The squeeze phase e^{iθ} that appears throughout is derived from the pair
coupling as i·c/|c|; only when c vanishes exactly does the state's own squeeze
phase stand in (and then every term it multiplies is zero for inputs produced
by :mod:`g2tau.param_map`).  The brute-force counterpart of this module is
:mod:`g2tau.fock_oracle`, which rebuilds the same quantities from truncated
matrices.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

__all__ = [
    "PAIR_COUPLING_EPS",
    "SqueezeParam",
    "GaussianStateParams",
    "FlowResult",
    "CoherenceSample",
    "UndefinedCoherenceError",
    "from_polar",
    "r_of_tau",
    "squeeze_phase_factor",
    "alpha_of_tau",
    "heisenberg_flow",
    "A_of_tau",
    "mean_photon_initial",
    "mean_photon_of_tau",
    "n_of_tau",
    "s_of_tau",
    "g2",
    "coherence_sample",
]

_TWO_PI = 2.0 * math.pi
_SMALLEST_NORMAL = sys.float_info.min

# Below this pair-coupling magnitude the flow shift switches to its series
# form; the truncated terms are O(|c|^2 tau^3).
PAIR_COUPLING_EPS = 1e-8


class UndefinedCoherenceError(ValueError):
    """g2 requested where its normalization vanishes; the default message names the vacuum.

    The oracle raises it too, with its own message, for a state it cannot
    tell from the vacuum or cannot hold in its basis.
    """

    def __init__(
        self, message: str = "g2 is undefined for the vacuum state (zero mean photon number)"
    ) -> None:
        super().__init__(message)


def _wrap_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    wrapped = theta % _TWO_PI
    # x % (2*pi) can round up to exactly 2*pi for tiny negative x.
    return 0.0 if wrapped >= _TWO_PI else wrapped


def from_polar(mag: float, phase: float) -> complex:
    """Complex amplitude from magnitude and phase, mag * exp(i*phase)."""
    if mag < 0.0:
        raise ValueError(f"magnitude must be >= 0, got {mag}")
    return mag * cmath.exp(1j * phase)


@dataclass(frozen=True)
class SqueezeParam:
    """Polar form of the squeeze parameter xi = r * exp(i*theta).

    r is the non-negative squeeze magnitude; theta is normalized into
    [0, 2*pi) on construction.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r >= 0.0):
            raise ValueError(f"squeeze magnitude must be finite and >= 0, got {self.r}")
        object.__setattr__(self, "theta", _wrap_angle(self.theta))

    @property
    def xi(self) -> complex:
        """The complex squeeze parameter r * exp(i*theta)."""
        return self.r * cmath.exp(1j * self.theta)

    @classmethod
    def from_complex(cls, xi: complex) -> "SqueezeParam":
        return cls(abs(xi), cmath.phase(xi))


@dataclass(frozen=True)
class GaussianStateParams:
    """Displaced-squeezed thermal state D(alpha) S(xi) rho_thermal(nbar) S† D†."""

    alpha: complex = 0j
    xi: SqueezeParam = SqueezeParam(0.0)
    nbar: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nbar) and self.nbar >= 0.0):
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"alpha must be finite, got {self.alpha}")

    @property
    def is_vacuum(self) -> bool:
        return self.alpha == 0 and self.xi.r == 0.0 and self.nbar == 0.0


@dataclass(frozen=True)
class FlowResult:
    """Coefficients of the Heisenberg flow a(tau) = cosh_coeff*a + sinh_coeff*a† + shift."""

    cosh_coeff: complex
    sinh_coeff: complex
    shift: complex


@dataclass(frozen=True)
class CoherenceSample:
    """One delay point of a coherence sweep."""

    tau: float
    r_tau: float
    mean_n: float
    n_tau: float
    s_tau: float
    g2: float
    A_tau: complex


def r_of_tau(c: complex, tau: float) -> float:
    """Squeeze magnitude 2|c|*tau accumulated by the flow after delay tau."""
    if tau < 0.0:
        raise ValueError(f"delay must be >= 0, got {tau}")
    return 2.0 * abs(c) * tau


def squeeze_phase_factor(c: complex, fallback_theta: float = 0.0) -> complex:
    """Unit phase e^{i*theta} = i*c/|c| of the squeezing the pair coupling generates.

    When c == 0 the direction is undefined and exp(i*fallback_theta) is
    returned instead; callers pass the state's own squeeze phase there.
    """
    if c == 0:
        return cmath.exp(1j * fallback_theta)
    return 1j * c / abs(c)


def alpha_of_tau(b: complex, c: complex, tau: float) -> complex:
    """Coherent shift accumulated by the flow after delay tau.

    -i b* sinh(r(tau))/(2|c|) - i b e^{i*theta} (cosh(r(tau)) - 1)/(2|c|),
    with the c -> 0 limits tau and |c|*tau^2 substituted below
    PAIR_COUPLING_EPS.
    """
    rt = r_of_tau(c, tau)
    ac = abs(c)
    if ac < PAIR_COUPLING_EPS:
        sinh_term = tau
        cosh_term = ac * tau * tau
    else:
        sinh_term = math.sinh(rt) / (2.0 * ac)
        # cosh(x) - 1 == 2*sinh(x/2)^2, immune to cancellation at small x
        cosh_term = 2.0 * math.sinh(0.5 * rt) ** 2 / (2.0 * ac)
    return -1j * b.conjugate() * sinh_term - 1j * b * squeeze_phase_factor(c) * cosh_term


def heisenberg_flow(b: complex, c: complex, tau: float) -> FlowResult:
    """Bogoliubov coefficients and shift of a(tau) = e^{iH tau} a e^{-iH tau}.

    cosh_coeff = cosh(r(tau)) and sinh_coeff = -i (c/|c|) sinh(r(tau)), so
    |cosh_coeff|^2 - |sinh_coeff|^2 = 1 identically.
    """
    rt = r_of_tau(c, tau)
    sinh_coeff = 0j if c == 0 else -1j * (c / abs(c)) * math.sinh(rt)
    return FlowResult(
        cosh_coeff=complex(math.cosh(rt)),
        sinh_coeff=sinh_coeff,
        shift=alpha_of_tau(b, c, tau),
    )


def A_of_tau(state: GaussianStateParams, b: complex, c: complex, tau: float) -> complex:
    """Coherent amplitude of the evolved mode seen from the thermal frame.

    The scalar part of the flow composed with the state preparation:
    alpha*cosh(r(tau)) - alpha* e^{i*theta} sinh(r(tau)) + alpha(tau), i.e.
    alpha*cosh_coeff + conj(alpha)*sinh_coeff + shift of the flow (the sinh
    term is -i alpha* e^{i*chi} sinh(r(tau)) in terms of the pump phase chi).
    """
    flow = heisenberg_flow(b, c, tau)
    alpha = state.alpha
    return alpha * flow.cosh_coeff + alpha.conjugate() * flow.sinh_coeff + flow.shift


def _mean_photon(state: GaussianStateParams, rt: float, amp: complex) -> float:
    """(nbar + 1/2) cosh(2(r + r(tau))) - 1/2 + |A(tau)|^2."""
    return (state.nbar + 0.5) * math.cosh(2.0 * (state.xi.r + rt)) - 0.5 + abs(amp) ** 2


def mean_photon_initial(state: GaussianStateParams) -> float:
    """Mean photon number of the state itself: (nbar + 1/2) cosh(2r) - 1/2 + |alpha|^2."""
    return _mean_photon(state, 0.0, state.alpha)


def mean_photon_of_tau(
    state: GaussianStateParams, b: complex, c: complex, tau: float
) -> float:
    """Mean photon number after delay tau.

    (nbar + 1/2) cosh(2(r + r(tau))) - 1/2 + |A(tau)|^2.  At tau = 0 this
    follows the same floating-point path as :func:`mean_photon_initial`.
    """
    return _mean_photon(state, r_of_tau(c, tau), A_of_tau(state, b, c, tau))


def n_of_tau(nbar: float, r: float, r_tau: float) -> float:
    """Symmetric correlator (nbar + 1/2) cosh(2r + r(tau)) - cosh(r(tau))/2."""
    return (nbar + 0.5) * math.cosh(2.0 * r + r_tau) - 0.5 * math.cosh(r_tau)


def s_of_tau(nbar: float, r: float, r_tau: float) -> float:
    """Anomalous correlator (nbar + 1/2) sinh(2r + r(tau)) - sinh(r(tau))/2."""
    return (nbar + 0.5) * math.sinh(2.0 * r + r_tau) - 0.5 * math.sinh(r_tau)


def coherence_sample(
    state: GaussianStateParams, b: complex, c: complex, tau: float
) -> CoherenceSample:
    """Evaluate one delay point: r(tau), mean photon number, correlators and g2.

    Raises UndefinedCoherenceError for the vacuum — or anything whose mean
    photon number underflows to zero, which makes g2's normalization vanish
    just as surely (e.g. a subnormal squeeze magnitude).
    """
    mean0 = mean_photon_initial(state)
    if mean0 == 0.0:
        raise UndefinedCoherenceError()
    rt = r_of_tau(c, tau)
    r = state.xi.r
    nbar = state.nbar
    alpha = state.alpha

    phase = squeeze_phase_factor(c, state.xi.theta)
    amp = A_of_tau(state, b, c, tau)
    n_corr = n_of_tau(nbar, r, rt)
    s_corr = s_of_tau(nbar, r, rt)
    mean_t = _mean_photon(state, rt, amp)

    coh = alpha * amp.conjugate() + alpha.conjugate() * amp
    anom = alpha * amp * phase.conjugate() + alpha.conjugate() * amp.conjugate() * phase
    numerator = n_corr * n_corr + s_corr * s_corr + coh.real * n_corr - anom.real * s_corr
    denominator = mean0 * mean_t
    if denominator >= _SMALLEST_NORMAL:
        ratio = numerator / denominator
    else:
        # the product of two tiny means underflows: divide one at a time
        ratio = numerator / mean0 / mean_t

    return CoherenceSample(
        tau=tau,
        r_tau=rt,
        mean_n=mean_t,
        n_tau=n_corr,
        s_tau=s_corr,
        g2=1.0 + ratio,
        A_tau=amp,
    )


def g2(state: GaussianStateParams, b: complex, c: complex, tau: float) -> float:
    """Temporal second-order coherence g2(tau) for the given state and couplings."""
    return coherence_sample(state, b, c, tau).g2
