"""Inverse map between displaced-squeezed thermal states and the amplifier
couplings (b, c) that generate them in a given time."""

import cmath
import math

import numpy as np
import pytest

from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    HamiltonianParams,
    SqueezeParam,
    from_polar,
    hamiltonian_from_state,
    state_from_hamiltonian,
)
from g2tau.gaussian_core import alpha_of_tau


def random_state(rng, r_low=1e-3, r_high=1.5):
    return GaussianStateParams(
        alpha=from_polar(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * math.pi)),
        xi=SqueezeParam(rng.uniform(r_low, r_high), rng.uniform(0.0, 2 * math.pi)),
        nbar=rng.uniform(0.0, 2.0),
    )


def test_hamiltonian_params_rejects_non_finite():
    with pytest.raises(ValueError):
        HamiltonianParams(b=complex("nan"), c=0j)
    with pytest.raises(ValueError):
        HamiltonianParams(b=0j, c=complex("inf"))


def test_generation_spec_requires_positive_time():
    state = GaussianStateParams(alpha=1 + 0j, xi=SqueezeParam(0.1, 0.0), nbar=0.0)
    with pytest.raises(ValueError):
        GenerationSpec(state=state, t=0.0)
    with pytest.raises(ValueError):
        GenerationSpec(state=state, t=-1.0)


def test_pair_coupling_magnitude_and_phase():
    # |c| = r/(2t); the squeeze phase factor e^{i theta} = i c/|c| survives
    state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.8, 1.2), nbar=0.0)
    params = hamiltonian_from_state(GenerationSpec(state=state, t=2.0))
    np.testing.assert_allclose(abs(params.c), 0.8 / 4.0, rtol=1e-15)
    np.testing.assert_allclose(1j * params.c / abs(params.c), cmath.exp(1.2j),
                               rtol=0, atol=1e-15)
    assert params.b == 0j


def test_coherent_only_limit():
    # r = 0: c = 0 and b = -i alpha* / t
    state = GaussianStateParams(alpha=1 + 0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
    params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
    assert params.c == 0j
    np.testing.assert_allclose(params.b, -1j, rtol=0, atol=1e-15)


def test_series_branch_matches_coherent_limit():
    # just inside the r < 1e-8 series branch the drive is still -i alpha*/t
    state = GaussianStateParams(alpha=1 + 0j, xi=SqueezeParam(1e-9, 0.0), nbar=0.0)
    params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
    np.testing.assert_allclose(params.b, -1j, rtol=0, atol=1e-6)


def test_vacuum_state_gives_free_evolution():
    state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
    params = hamiltonian_from_state(GenerationSpec(state=state, t=0.7))
    assert params.b == 0j and params.c == 0j


def test_round_trip_generic():
    rng = np.random.default_rng(3)
    for _ in range(200):
        state = random_state(rng)
        t = rng.uniform(0.1, 10.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=t))
        back = state_from_hamiltonian(params, t, nbar=state.nbar)
        np.testing.assert_allclose(back.alpha, state.alpha, rtol=0, atol=1e-10)
        np.testing.assert_allclose(back.xi.xi, state.xi.xi, rtol=0, atol=1e-10)
        assert back.nbar == state.nbar


def test_round_trip_small_r_series_branch():
    rng = np.random.default_rng(4)
    for _ in range(200):
        r = 10.0 ** rng.uniform(-12.0, -8.1)  # squarely inside the series branch
        state = random_state(rng)
        state = GaussianStateParams(alpha=state.alpha,
                                    xi=SqueezeParam(r, state.xi.theta),
                                    nbar=state.nbar)
        t = rng.uniform(0.1, 10.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=t))
        back = state_from_hamiltonian(params, t, nbar=state.nbar)
        np.testing.assert_allclose(back.alpha, state.alpha, rtol=0, atol=1e-10)


def test_forward_map_reproduces_displacement():
    # state_from_hamiltonian is alpha_of_tau plus the squeeze read off 2 i t c
    params = HamiltonianParams(b=0.4 - 0.1j, c=from_polar(0.3, 0.8))
    state = state_from_hamiltonian(params, 1.3, nbar=0.25)
    np.testing.assert_allclose(state.alpha, alpha_of_tau(params.b, params.c, 1.3),
                               rtol=1e-15)
    np.testing.assert_allclose(state.xi.xi, 2j * 1.3 * params.c, rtol=0, atol=1e-15)
    assert state.nbar == 0.25


def test_nbar_passes_through_unchanged():
    state = GaussianStateParams(alpha=0.3 + 0.4j, xi=SqueezeParam(0.5, 0.2), nbar=1.7)
    params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
    assert state_from_hamiltonian(params, 1.0, nbar=1.7).nbar == 1.7
    assert state_from_hamiltonian(params, 1.0).nbar == 0.0
