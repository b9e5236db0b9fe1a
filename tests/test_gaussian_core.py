"""Closed-form layer: squeeze/displacement parameters, the Heisenberg flow,
and the g2(tau) evaluation itself.

Frozen numbers in here were derived by hand from the hyperbolic identities
(and double-checked against the brute-force Fock tests in
test_fock_oracle.py); nothing is copied from the implementation's own output.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    SqueezeParam,
    UndefinedCoherenceError,
    from_polar,
    g2,
    hamiltonian_from_state,
    heisenberg_flow,
)
from g2tau.gaussian_core import (
    A_of_tau,
    alpha_of_tau,
    coherence_grid,
    mean_photon_initial,
    n_of_tau,
    r_of_tau,
    s_of_tau,
    squeeze_phase_factor,
)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


class TestSqueezeParam:
    def test_xi_reconstructs_exactly(self):
        p = SqueezeParam(0.7, 1.3)
        assert p.xi == 0.7 * cmath.exp(1.3j)

    def test_theta_normalized_to_principal_range(self):
        p = SqueezeParam(0.5, -0.1)
        assert 0.0 <= p.theta < 2 * math.pi
        np.testing.assert_allclose(p.theta, 2 * math.pi - 0.1, rtol=0, atol=1e-15)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            SqueezeParam(-0.1, 0.0)

    def test_from_complex_round_trip(self):
        xi = from_polar(0.42, 2.5)
        p = SqueezeParam.from_complex(xi)
        np.testing.assert_allclose(p.r, 0.42, rtol=0, atol=1e-15)
        np.testing.assert_allclose(p.theta, 2.5, rtol=0, atol=1e-15)

    @given(st.floats(min_value=0.0, max_value=5.0),
           st.floats(min_value=-10.0, max_value=10.0))
    def test_polar_round_trip_property(self, r, theta):
        p = SqueezeParam(r, theta)
        assert abs(p.xi - r * cmath.exp(1j * theta)) <= 1e-12 * max(1.0, r)


class TestFlowPieces:
    def test_r_of_tau_value(self):
        assert r_of_tau(0.25 + 0j, 2.0) == 1.0

    def test_r_of_tau_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            r_of_tau(1j, -0.5)

    def test_squeeze_phase_factor_is_rotated_pump_phase(self):
        # e^{i theta} = i c / |c|
        assert squeeze_phase_factor(0.5 + 0j) == 1j
        c = from_polar(0.3, 0.9)
        np.testing.assert_allclose(squeeze_phase_factor(c), 1j * cmath.exp(0.9j),
                                   rtol=0, atol=1e-15)

    def test_squeeze_phase_factor_fallback_at_zero_coupling(self):
        np.testing.assert_allclose(squeeze_phase_factor(0j, fallback_theta=0.4),
                                   cmath.exp(0.4j), rtol=0, atol=1e-15)

    def test_alpha_of_tau_known_value(self):
        # b=1, c=0.5: r(tau)=1, phase=i, so
        # alpha(1) = -i sinh 1 + (cosh 1 - 1)
        value = alpha_of_tau(1.0, 0.5, 1.0)
        expected = (math.cosh(1.0) - 1.0) - 1j * math.sinh(1.0)
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-14)

    def test_alpha_of_tau_zero_pair_coupling_is_linear_drive(self):
        # c -> 0: alpha(tau) -> -i b* tau
        value = alpha_of_tau(1.0 + 0j, 0j, 1.0)
        np.testing.assert_allclose(value, -1j, rtol=0, atol=1e-15)

    def test_alpha_of_tau_series_matches_exact_formula(self):
        # the |c| < 1e-8 series branch agrees with the full expression,
        # which is still well-conditioned in doubles at this magnitude
        b, tau = 0.8 - 0.3j, 1.7
        c = from_polar(0.9e-8, 1.1)
        rt = 2 * abs(c) * tau
        phase = 1j * c / abs(c)
        expected = (-1j * b.conjugate() * math.sinh(rt) / (2 * abs(c))
                    - 1j * b * phase * 2 * math.sinh(rt / 2) ** 2 / (2 * abs(c)))
        np.testing.assert_allclose(alpha_of_tau(b, c, tau), expected,
                                   rtol=0, atol=1e-14)

    def test_heisenberg_flow_coefficients(self):
        c = from_polar(0.4, 0.7)
        flow = heisenberg_flow(0j, c, 1.25)
        rt = 2 * 0.4 * 1.25
        np.testing.assert_allclose(flow.cosh_coeff, math.cosh(rt), rtol=1e-15)
        np.testing.assert_allclose(flow.sinh_coeff,
                                   -1j * cmath.exp(0.7j) * math.sinh(rt),
                                   rtol=0, atol=1e-14)
        assert flow.shift == 0j

    @given(st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=-1.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=60)
    def test_flow_is_symplectic(self, re, im, tau):
        """|u|^2 - |v|^2 = 1 preserves the commutator under the flow."""
        c = complex(re, im)
        flow = heisenberg_flow(0.3 + 0.1j, c, tau)
        invariant = abs(flow.cosh_coeff) ** 2 - abs(flow.sinh_coeff) ** 2
        np.testing.assert_allclose(invariant, 1.0, rtol=0, atol=1e-10)


class TestAOfTau:
    def test_tau_zero_is_alpha(self):
        state = GaussianStateParams(alpha=1.2 - 0.4j, xi=SqueezeParam(0.6, 0.2), nbar=0.3)
        assert A_of_tau(state, 0.5j, 0.25, 0.0) == state.alpha

    def test_zero_alpha_reduces_to_flow_shift(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.6, 0.2), nbar=0.3)
        b, c, tau = 0.4 - 0.2j, from_polar(0.3, 1.0), 0.9
        np.testing.assert_allclose(A_of_tau(state, b, c, tau),
                                   heisenberg_flow(b, c, tau).shift,
                                   rtol=0, atol=1e-15)

    def test_composes_flow_on_alpha(self):
        state = GaussianStateParams(alpha=0.7 + 0.2j, xi=SqueezeParam(0.5, 0.8), nbar=0.0)
        b, c, tau = 0.1j, from_polar(0.35, 0.8), 1.4
        flow = heisenberg_flow(b, c, tau)
        expected = (state.alpha * flow.cosh_coeff
                    + state.alpha.conjugate() * flow.sinh_coeff
                    + flow.shift)
        np.testing.assert_allclose(A_of_tau(state, b, c, tau), expected, rtol=1e-15)


class TestMoments:
    def test_mean_photon_initial_examples(self):
        coherent = GaussianStateParams(alpha=1.0 + 0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        np.testing.assert_allclose(mean_photon_initial(coherent), 1.0, rtol=1e-15)
        squeezed = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.5, 0.0), nbar=0.0)
        np.testing.assert_allclose(mean_photon_initial(squeezed),
                                   math.sinh(0.5) ** 2, rtol=1e-14)
        thermal = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=1.7)
        np.testing.assert_allclose(mean_photon_initial(thermal), 1.7, rtol=1e-15)

    def test_mean_photon_of_tau_zero_delay_bit_equal(self):
        state = GaussianStateParams(alpha=0.9 + 0.1j, xi=SqueezeParam(0.4, 1.1), nbar=0.6)
        assert coherence_grid(state, 0.3 - 0.2j, 0.2 + 0.1j, [0.0]).mean_n[0] == \
            mean_photon_initial(state)

    def test_correlators_against_direct_formula(self):
        nbar, r, rt = 0.6, 0.4, 0.7
        np.testing.assert_allclose(
            n_of_tau(nbar, r, rt),
            (nbar + 0.5) * math.cosh(2 * r + rt) - 0.5 * math.cosh(rt),
            rtol=1e-15)
        np.testing.assert_allclose(
            s_of_tau(nbar, r, rt),
            (nbar + 0.5) * math.sinh(2 * r + rt) - 0.5 * math.sinh(rt),
            rtol=1e-15)

    def test_correlators_at_zero_are_state_moments(self):
        # n(0) = (nbar+1/2)cosh 2r - 1/2 matches the alpha=0 mean photon number
        nbar, r = 0.8, 0.55
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(r, 0.3), nbar=nbar)
        np.testing.assert_allclose(n_of_tau(nbar, r, 0.0),
                                   mean_photon_initial(state), rtol=1e-15)


def couplings(state, t_gen):
    """Couplings that prepare `state` in time t_gen, so it evolves under them."""
    return hamiltonian_from_state(GenerationSpec(state=state, t=t_gen))


class TestG2:
    def test_vacuum_rejected(self):
        vacuum = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        with pytest.raises(UndefinedCoherenceError):
            coherence_grid(vacuum, 0.1j, 0.2j, [0.5])
        p = couplings(vacuum, 1.0)
        with pytest.raises(UndefinedCoherenceError):
            g2(vacuum, p.b, p.c, 0.5)

    @pytest.mark.parametrize("nbar, r, tau", [(1e300, 0.0, 0.0), (0.0, 100.0, 2.5)])
    def test_overflowing_numerator_raises(self, nbar, r, tau):
        # the squared n(tau) in the numerator passes the largest double, so
        # g2 would be nan
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(r, 0.0), nbar=nbar)
        p = couplings(state, 1.0)
        with pytest.raises(OverflowError, match="not finite"):
            coherence_grid(state, p.b, p.c, [tau])

    def test_overflowing_denominator_alone_keeps_the_ratio(self):
        # displaced thermal light with nbar = |alpha|² = x: g2(0) = 1 + 3x²/(2x)²;
        # at x = 7e153 the product of the means overflows but the numerator does not
        x = 7e153
        state = GaussianStateParams(alpha=math.sqrt(x) + 0j, xi=SqueezeParam(0.0, 0.0), nbar=x)
        p = couplings(state, 1.0)
        np.testing.assert_allclose(g2(state, p.b, p.c, 0.0), 1.75, rtol=0, atol=1e-12)

    def test_thermal_is_two_for_all_delays(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.9)
        p = couplings(state, 1.0)
        for tau in (0.0, 0.4, 2.3):
            np.testing.assert_allclose(g2(state, p.b, p.c, tau), 2.0,
                                       rtol=0, atol=1e-13)

    def test_coherent_is_one_for_all_delays(self):
        state = GaussianStateParams(alpha=from_polar(1.2, 0.6),
                                    xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        p = couplings(state, 1.0)
        for tau in (0.0, 0.4, 2.3):
            np.testing.assert_allclose(g2(state, p.b, p.c, tau), 1.0,
                                       rtol=0, atol=1e-13)

    def test_squeezed_vacuum_zero_delay(self):
        # 3 + 1/sinh^2 r
        for r in (0.3, 0.8):
            state = GaussianStateParams(alpha=0j, xi=SqueezeParam(r, 0.0), nbar=0.0)
            p = couplings(state, 1.0)
            np.testing.assert_allclose(g2(state, p.b, p.c, 0.0),
                                       3.0 + 1.0 / math.sinh(r) ** 2, rtol=1e-12)

    def test_sample_fields_are_consistent(self):
        state = GaussianStateParams(alpha=0.5 + 0.5j, xi=SqueezeParam(0.4, 0.9), nbar=0.2)
        p = couplings(state, 1.3)
        grid = coherence_grid(state, p.b, p.c, [0.8])
        assert grid.tau[0] == 0.8
        assert grid.r_tau[0] >= 0.0
        assert grid.mean_n[0] > 0.0
        # the reported pieces reassemble into the reported g2; the flow's
        # phase factor equals the state's own e^{i theta} because the
        # couplings were recovered from the state
        mean0 = mean_photon_initial(state)
        phase = cmath.exp(1j * state.xi.theta)
        amp = complex(grid.A_tau[0])
        n_tau, s_tau = float(grid.n_tau[0]), float(grid.s_tau[0])
        coh = (state.alpha * amp.conjugate()).real * 2
        anom = (state.alpha * amp * phase.conjugate()).real * 2
        numerator = n_tau ** 2 + s_tau ** 2 + coh * n_tau - anom * s_tau
        np.testing.assert_allclose(grid.g2[0], 1.0 + numerator / (mean0 * grid.mean_n[0]),
                                   rtol=1e-12)

    def test_depends_on_delay_only_through_flow_squeeze(self):
        """Same r(tau) from different generation times gives the same g2."""
        state = GaussianStateParams(alpha=from_polar(0.9, 0.3),
                                    xi=SqueezeParam(0.5, 1.2), nbar=0.4)
        values = []
        for t_gen in (0.5, 1.0, 2.0):
            # tau chosen so that 2|c|tau is the same for every t_gen
            params = couplings(state, t_gen)
            tau = 0.35 / (2 * abs(params.c))
            values.append(g2(state, params.b, params.c, tau))
        np.testing.assert_allclose(values, values[0], rtol=0, atol=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.2),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_g2_is_finite_and_real(self, r, theta, amag, phi, nbar, tau):
        state = GaussianStateParams(alpha=from_polar(amag, phi),
                                    xi=SqueezeParam(r, theta), nbar=nbar)
        if state.is_vacuum or mean_photon_initial(state) == 0.0:
            return
        p = couplings(state, 1.0)
        value = g2(state, p.b, p.c, tau)
        assert math.isfinite(value)
        assert value >= 0.0
