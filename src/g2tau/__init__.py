"""g2tau: temporal second-order coherence of displaced-squeezed thermal light.

Closed-form g2(tau) for a degenerate parametric amplifier, an invertible map
between states and amplifier couplings, and a truncated Fock-space oracle that
cross-checks both.  Everything else is imported from its submodule.
"""

from .fock_oracle import convergence_check, g2_oracle, gaussian_rho
from .gaussian_core import (
    GaussianStateParams,
    SqueezeParam,
    UndefinedCoherenceError,
    from_polar,
    g2,
    heisenberg_flow,
    mean_photon_of_tau,
)
from .param_map import (
    GenerationSpec,
    HamiltonianParams,
    hamiltonian_from_state,
    state_from_hamiltonian,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "GaussianStateParams",
    "GenerationSpec",
    "HamiltonianParams",
    "SqueezeParam",
    "UndefinedCoherenceError",
    "convergence_check",
    "from_polar",
    "g2",
    "g2_oracle",
    "gaussian_rho",
    "hamiltonian_from_state",
    "heisenberg_flow",
    "mean_photon_of_tau",
    "state_from_hamiltonian",
]
