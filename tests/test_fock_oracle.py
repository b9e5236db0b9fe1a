"""Brute-force Fock-space layer: ladder matrices, state construction,
Hamiltonian evolution by explicit matrix exponential, and trace formulas.

These tests pin the oracle against textbook values computed independently
(hyperbolic identities, geometric sums, known overlaps) so the oracle can in
turn be trusted as the referee for the closed forms.
"""

import math

import numpy as np
import pytest

from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    HamiltonianParams,
    SqueezeParam,
    UndefinedCoherenceError,
    convergence_check,
    from_polar,
    g2_oracle,
    gaussian_rho,
    hamiltonian_from_state,
    heisenberg_flow,
)
from g2tau.fock_oracle import (
    _expi_hermitian,
    _working_dim,
    displacement,
    hamiltonian_matrix,
    heisenberg_a_matrix,
    ladder_operators,
    oracle_sweep,
    squeeze,
    thermal_rho,
)


def op_norm(m):
    return np.linalg.norm(m, 2)


class TestLadder:
    def test_matrix_element(self):
        a, _ = ladder_operators(3)
        assert a[1, 2] == math.sqrt(2)

    def test_commutator_truncation_artifact_is_last_entry_only(self):
        # [a, a†] = I except the unavoidable -(dim-1) in the corner
        dim = 24
        a, adag = ladder_operators(dim)
        comm = a @ adag - adag @ a
        defect = comm - np.eye(dim)
        defect[-1, -1] = 0.0
        assert op_norm(defect) < 1e-13

    def test_dagger_relation(self):
        a, adag = ladder_operators(9)
        assert np.array_equal(adag, a.conj().T)

    def test_tiny_dim_rejected(self):
        with pytest.raises(ValueError):
            ladder_operators(1)


class TestDisplacementSqueeze:
    def test_zero_arguments_give_identity(self):
        np.testing.assert_array_equal(displacement(0.0, 40), np.eye(40))
        np.testing.assert_array_equal(squeeze(0.0, 40), np.eye(40))

    def test_vacuum_overlap_of_unit_displacement(self):
        # <0|D(1)|0> = e^{-1/2}, stable under doubling the basis
        for dim in (60, 120):
            d = displacement(1.0, dim)
            np.testing.assert_allclose(d[0, 0], math.exp(-0.5), rtol=0, atol=1e-12)

    def test_unitary_on_low_block(self):
        dim, half = 80, 40
        for u in (displacement(1.2 - 0.7j, dim), squeeze(from_polar(0.9, 2.1), dim)):
            defect = (u.conj().T @ u - np.eye(dim))[:half, :half]
            assert op_norm(defect) < 1e-8

    def test_parity_split_squeeze_matches_dense_generator(self):
        # exp of the generator built from dense a² and a†² products, in one piece
        dim, half = 96, 48
        a, adag = ladder_operators(dim)
        for xi in (from_polar(0.9, 2.1), from_polar(1.2, 0.0), 0.3j):
            gen = 0.5 * np.conjugate(xi) * (a @ a) - 0.5 * xi * (adag @ adag)
            dense = _expi_hermitian(-1j * gen)
            defect = (squeeze(xi, dim) - dense)[:half, :half]
            assert np.abs(defect).max() < 1e-13

    def test_displacement_moves_vacuum_mean(self):
        dim = 64
        alpha = 0.8 + 0.3j
        d = displacement(alpha, dim)
        a, adag = ladder_operators(dim)
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        state = d @ vac
        mean = state.conj() @ (adag @ a) @ state
        np.testing.assert_allclose(mean.real, abs(alpha) ** 2, rtol=1e-10)


class TestDisplacementElements:
    """D(alpha) against references that do not share its Laguerre recurrence."""

    @pytest.mark.parametrize("magnitude", [0.3, 1.5, 4.0])
    def test_first_row_and_column(self, magnitude):
        alpha = from_polar(magnitude, 0.4)
        dim = 60
        d = displacement(alpha, dim)
        n = np.arange(dim)
        norm = math.exp(-0.5 * abs(alpha) ** 2) / np.array(
            [math.sqrt(math.factorial(j)) for j in n]
        )
        row = norm * (-np.conjugate(alpha)) ** n
        column = norm * alpha ** n
        np.testing.assert_allclose(d[0], row, rtol=0, atol=1e-14)
        np.testing.assert_allclose(d[:, 0], column, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("magnitude", [0.3, 1.5, 4.0])
    def test_matches_dense_generator_exponential(self, magnitude):
        # exp(alpha a† - alpha* a) truncated at twice the size is exact on
        # the top-left quarter of the smaller matrix
        alpha = from_polar(magnitude, 2.2)
        dim = 96
        a, adag = ladder_operators(2 * dim)
        dense = _expi_hermitian(-1j * (alpha * adag - np.conjugate(alpha) * a))
        quarter = slice(0, dim // 2)
        defect = displacement(alpha, dim)[quarter, quarter] - dense[quarter, quarter]
        assert np.abs(defect).max() < 1e-12

    @pytest.mark.parametrize("magnitude", [0.3, 1.5, 4.0])
    def test_transpose_is_displacement_by_minus_conjugate(self, magnitude):
        alpha = from_polar(magnitude, -1.1)
        np.testing.assert_allclose(displacement(alpha, 80).T,
                                   displacement(-np.conjugate(alpha), 80),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("magnitude", [12.0, 30.0])
    def test_large_displacement_rows_are_finite_unit_vectors(self, magnitude):
        # far outside the oscillatory region a recurrence that is not run
        # along the dominant solution blows up long before 3072 columns
        d = displacement(from_polar(magnitude, 0.7), 3072, rows=600)
        assert np.isfinite(d).all()
        norms = np.linalg.norm(d, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12


class TestThermalRho:
    def test_zero_temperature_is_vacuum_projector(self):
        rho = thermal_rho(0.0, 30)
        expected = np.zeros((30, 30), dtype=complex)
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)

    def test_mean_occupation(self):
        rho = thermal_rho(1.0, 60)
        mean = np.sum(np.diagonal(rho).real * np.arange(60))
        np.testing.assert_allclose(mean, 1.0, rtol=0, atol=1e-8)

    def test_ground_population(self):
        rho = thermal_rho(1.5, 60)
        np.testing.assert_allclose(rho[0, 0].real, 1.0 / 2.5, rtol=0, atol=1e-12)

    def test_negative_nbar_rejected(self):
        with pytest.raises(ValueError):
            thermal_rho(-0.2, 30)


class TestGaussianRho:
    def test_reduces_to_thermal(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.7)
        np.testing.assert_allclose(gaussian_rho(state, 50), thermal_rho(0.7, 50),
                                   rtol=0, atol=1e-14)

    def test_coherent_state_mean(self):
        state = GaussianStateParams(alpha=1.0 + 0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        rho = gaussian_rho(state, 80)
        a, adag = ladder_operators(80)
        np.testing.assert_allclose(np.trace(rho @ adag @ a).real, 1.0,
                                   rtol=0, atol=1e-10)

    def test_squeezed_vacuum_mean(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.5, 0.0), nbar=0.0)
        rho = gaussian_rho(state, 80)
        a, adag = ladder_operators(80)
        np.testing.assert_allclose(np.trace(rho @ adag @ a).real,
                                   math.sinh(0.5) ** 2, rtol=0, atol=1e-10)

    def test_density_matrix_sanity(self):
        state = GaussianStateParams(alpha=from_polar(1.2, 0.4),
                                    xi=SqueezeParam(0.6, 1.0), nbar=0.8)
        rho = gaussian_rho(state, 120)
        assert op_norm(rho - rho.conj().T) < 1e-12
        np.testing.assert_allclose(np.trace(rho).real, 1.0, rtol=0, atol=1e-8)
        assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_only_the_squeeze_blocks_are_eigensolved(self, monkeypatch):
        # D comes from its matrix elements; S from one eigensolve per parity
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(matrix, *args, **kwargs):
            sizes.append(matrix.shape[-1])
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        state = GaussianStateParams(alpha=from_polar(0.9, 0.3),
                                    xi=SqueezeParam(0.6, 1.0), nbar=0.5)
        dim = 120
        working = _working_dim(dim, state.xi.r, abs(state.alpha))
        gaussian_rho(state, dim)
        assert len(sizes) == 2
        assert max(sizes) <= math.ceil(working / 2)

    def test_returned_copy_is_safe_to_mutate(self):
        state = GaussianStateParams(alpha=0.5 + 0j, xi=SqueezeParam(0.3, 0.0), nbar=0.1)
        first = gaussian_rho(state, 40)
        first[0, 0] = 123.0
        assert gaussian_rho(state, 40)[0, 0] != 123.0


class TestHamiltonianMatrix:
    def test_zero_couplings(self):
        h = hamiltonian_matrix(HamiltonianParams(0j, 0j), 20)
        assert op_norm(h) == 0.0

    def test_linear_drive_pattern(self):
        # b=1, c=0 gives a + a†: sqrt(n) on the first off-diagonals
        h = hamiltonian_matrix(HamiltonianParams(1 + 0j, 0j), 6)
        a, adag = ladder_operators(6)
        np.testing.assert_array_equal(h, a + adag)

    def test_hermitian_for_random_couplings(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            params = HamiltonianParams(
                b=complex(rng.normal(), rng.normal()),
                c=complex(rng.normal(), rng.normal()),
            )
            h = hamiltonian_matrix(params, 40)
            assert op_norm(h - h.conj().T) < 1e-12


class TestHeisenbergAMatrix:
    def test_zero_delay_returns_a(self):
        params = HamiltonianParams(b=0.3 + 0.2j, c=0.4 - 0.1j)
        a, _ = ladder_operators(40)
        np.testing.assert_allclose(heisenberg_a_matrix(params, 0.0, 40), a,
                                   rtol=0, atol=1e-12)

    def test_free_hamiltonian_is_static(self):
        params = HamiltonianParams(0j, 0j)
        a, _ = ladder_operators(30)
        np.testing.assert_array_equal(heisenberg_a_matrix(params, 2.7, 30), a)

    def test_pure_pair_coupling_low_block(self):
        # b=0, c=0.25, tau=1: a cosh(0.5) - i a† sinh(0.5)
        params = HamiltonianParams(b=0j, c=0.25 + 0j)
        dim, half = 60, 30
        a, adag = ladder_operators(dim)
        expected = a * math.cosh(0.5) - 1j * adag * math.sinh(0.5)
        defect = (heisenberg_a_matrix(params, 1.0, dim) - expected)[:half, :half]
        assert op_norm(defect) < 1e-10

    def test_matches_closed_form_flow_on_half_block(self):
        rng = np.random.default_rng(15)
        dim, half = 120, 60
        a, adag = ladder_operators(dim)
        eye = np.eye(dim, dtype=complex)
        for _ in range(3):
            params = HamiltonianParams(
                b=complex(rng.normal(), rng.normal()) * 0.5,
                c=from_polar(rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi)),
            )
            tau = rng.uniform(0.0, 1.0 / (2 * abs(params.c)))  # keeps r(tau) <= 1
            flow = heisenberg_flow(params.b, params.c, tau)
            expected = flow.cosh_coeff * a + flow.sinh_coeff * adag + flow.shift * eye
            defect = (heisenberg_a_matrix(params, tau, dim) - expected)[:half, :half]
            assert op_norm(defect) < 1e-6

    def test_linear_drive_shift_near_zero_pair_coupling(self):
        # at |c| = 1e-8 the shift is still -i b* tau to excellent accuracy;
        # read it off the vacuum expectation of the evolved operator
        params = HamiltonianParams(b=1 + 0j, c=1e-8 + 0j)
        dim = 48
        a_tau = heisenberg_a_matrix(params, 1.0, dim)
        vacuum_expectation = a_tau[0, 0]
        np.testing.assert_allclose(vacuum_expectation, -1j, rtol=0, atol=1e-7)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_a_matrix(HamiltonianParams(0j, 0.1 + 0j), -0.1, 30)


class TestTraces:
    def test_thermal_g2_is_two(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=1.0)
        params = HamiltonianParams(0j, 0j)
        np.testing.assert_allclose(g2_oracle(state, params, 0.7, 120), 2.0,
                                   rtol=0, atol=1e-6)

    def test_coherent_g2_is_one(self):
        state = GaussianStateParams(alpha=1.0 + 0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        params = HamiltonianParams(0j, 0j)
        np.testing.assert_allclose(g2_oracle(state, params, 0.7, 120), 1.0,
                                   rtol=0, atol=1e-6)

    def test_squeezed_vacuum_zero_delay(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.8, 0.0), nbar=0.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        np.testing.assert_allclose(g2_oracle(state, params, 0.0, 120),
                                   3.0 + 1.0 / math.sinh(0.8) ** 2,
                                   rtol=0, atol=1e-5)

    def test_vacuum_rejected(self):
        vacuum = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        with pytest.raises(UndefinedCoherenceError):
            g2_oracle(vacuum, HamiltonianParams(0j, 0j), 0.5, 40)

    def test_mean_n_of_displaced_thermal(self):
        # nbar + |alpha|^2 under free evolution, any delay
        state = GaussianStateParams(alpha=0.9 + 0j, xi=SqueezeParam(0.0, 0.0), nbar=0.4)
        params = HamiltonianParams(0j, 0j)
        np.testing.assert_allclose(oracle_sweep(gaussian_rho(state, 100), params, [1.3]).mean_n[0],
                                   0.4 + 0.81, rtol=0, atol=1e-8)

    def test_sweep_of_a_hand_built_thermal_rho(self):
        # free evolution keeps thermal light at g2 = 2 for every delay; the
        # sweep runs on a rho that gaussian_rho did not build
        sweep = oracle_sweep(thermal_rho(0.7, 60), HamiltonianParams(), [0.0, 0.2, 0.5, 1.0])
        np.testing.assert_allclose(sweep.g2, 2.0, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("shape", [(4,), (3, 4), (1, 1), (2, 2, 2)])
    def test_sweep_rejects_a_non_square_rho(self, shape):
        with pytest.raises(ValueError):
            oracle_sweep(np.zeros(shape, dtype=complex), HamiltonianParams(), [0.0])


class TestConvergenceCheck:
    def test_vacuum_adjacent_converges_at_small_dim(self):
        state = GaussianStateParams(alpha=0.2 + 0j, xi=SqueezeParam(0.1, 0.0), nbar=0.05)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        report = convergence_check(state, params, 0.5, 60)
        assert report.converged
        assert report.dim == 60
        assert report.tail_mass < 1e-8
        assert report.g2_rel_change < 1e-6

    def test_hard_squeezing_flagged_at_small_dim(self):
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(2.5, 0.0), nbar=0.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        report = convergence_check(state, params, 0.1, 40)
        assert not report.converged
        assert report.tail_mass > 1e-8

    def test_vacuum_propagates_undefined_coherence(self):
        vacuum = GaussianStateParams(alpha=0j, xi=SqueezeParam(0.0, 0.0), nbar=0.0)
        with pytest.raises(UndefinedCoherenceError):
            convergence_check(vacuum, HamiltonianParams(0j, 0j), 0.5, 40)

    def test_sweep_as_base_matches_own_sweep(self):
        state = GaussianStateParams(alpha=from_polar(0.9, 0.3),
                                    xi=SqueezeParam(0.5, 1.0), nbar=0.4)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        taus = [0.0, 0.15, 0.3]
        sweep = oracle_sweep(gaussian_rho(state, 60), params, taus)
        given = convergence_check(state, params, taus[-1], 60, base=sweep)
        own = convergence_check(state, params, taus[-1], 60)
        assert (given.dim, given.converged) == (own.dim, own.converged)
        np.testing.assert_allclose(given.tail_mass, own.tail_mass, rtol=1e-12, atol=0)
        # g2_rel_change is already relative to g2, so 1e-12 on it is 1e-12
        # relative on the base g2 the two sweeps computed
        assert abs(given.g2_rel_change - own.g2_rel_change) <= 1e-12

    def test_tail_mass_shrinks_as_dim_doubles(self):
        state = GaussianStateParams(alpha=from_polar(1.0, 0.2),
                                    xi=SqueezeParam(0.6, 0.9), nbar=0.5)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        tails = [convergence_check(state, params, 0.3, dim).tail_mass
                 for dim in (40, 80, 160)]
        assert tails[0] > tails[1] > tails[2]
