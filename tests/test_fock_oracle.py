"""Brute-force Fock-space layer: ladder matrices, state construction,
Hamiltonian evolution by explicit matrix exponential, and trace formulas.
The ladder matrices, D(alpha) and S(xi), the hand-built thermal rho, the
state prepared from them, the evolved annihilation operator and the
dimension-doubling check come from the test reference `fock_reference.py`.

These tests pin the oracle against textbook values computed independently
(hyperbolic identities, geometric sums, known overlaps) so the oracle can in
turn be trusted as the referee for the closed forms.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    HamiltonianParams,
    SqueezeParam,
    UndefinedCoherenceError,
    from_polar,
    g2_oracle,
    gaussian_rho,
    hamiltonian_from_state,
    heisenberg_flow,
)
from g2tau import fock_oracle
from g2tau.fock_oracle import (
    _WORKING_DIM_CAP,
    LEAKAGE_TOL,
    TruncationError,
    _working_dim,
    hamiltonian_matrix,
    oracle_sweep,
    sweep_state,
)
from g2tau.gaussian_core import PAIR_COUPLING_EPS, alpha_of_tau, coherence_grid, r_of_tau

from fock_reference import (
    convergence_check,
    displacement,
    heisenberg_a_matrix,
    ladder_operators,
    reference_rho,
    squeeze,
    thermal_rho,
)


EPS = np.finfo(float).eps


def op_norm(m):
    return np.linalg.norm(m, 2)


def _expi_hermitian(h):
    """exp(1j * h) for Hermitian h, by a dense eigensolve: the reference exponential."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


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
        # both are exact elements, so each basis must hold the first 40
        # columns: 80 levels hold D's, the squeeze stretch needs more
        half, r = 40, 0.9
        squeezed = squeeze(from_polar(r, 2.1), _working_dim(half, r, 0.0))
        for u in (displacement(1.2 - 0.7j, 80), squeezed):
            defect = (u.conj().T @ u)[:half, :half] - np.eye(half)
            assert op_norm(defect) < 1e-8

    def test_squeeze_matches_dense_generator(self):
        # exp of the generator built from dense a² and a†² products, in one
        # piece, at twice the size, is exact on the lowest 48 levels
        dim, block = 128, 48
        a, adag = ladder_operators(2 * dim)
        for xi in (from_polar(0.9, 2.1), from_polar(1.2, 0.0), 0.3j):
            gen = 0.5 * np.conjugate(xi) * (a @ a) - 0.5 * xi * (adag @ adag)
            dense = _expi_hermitian(-1j * gen)
            defect = (squeeze(xi, dim) - dense[:dim, :dim])[:block, :block]
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


class TestSqueezeElements:
    """S(xi) against references that do not share its diagonal recurrence."""

    @pytest.mark.parametrize("r", [0.3, 0.9, 1.5])
    def test_first_row_and_column(self, r):
        # the squeezed vacuum:
        # <2l|S|0> = (-e^{i theta} tanh r)^l sqrt(C(2l, l)) / 2^l / sqrt(cosh r)
        theta = 0.4
        dim = 60
        s = squeeze(from_polar(r, theta), dim)
        pairs = np.arange(dim // 2)
        norm = np.array([math.sqrt(math.comb(2 * j, j)) / 2.0**j for j in pairs])
        norm /= math.sqrt(math.cosh(r))
        column = np.zeros(dim, dtype=complex)
        row = np.zeros(dim, dtype=complex)
        column[::2] = norm * (-np.exp(1j * theta) * math.tanh(r)) ** pairs
        row[::2] = norm * (np.exp(-1j * theta) * math.tanh(r)) ** pairs
        np.testing.assert_allclose(s[:, 0], column, rtol=0, atol=1e-14)
        np.testing.assert_allclose(s[0], row, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("r", [0.3, 0.9, 1.5])
    def test_matches_dense_generator_exponential(self, r):
        # exp((xi*/2) a² - (xi/2) a†²) truncated at twice the size is exact on
        # the lowest dim/4 levels, which a stretch of e^1.5 keeps inside it
        xi = from_polar(r, 2.2)
        dim = 192
        a, adag = ladder_operators(2 * dim)
        gen = 0.5 * np.conjugate(xi) * (a @ a) - 0.5 * xi * (adag @ adag)
        dense = _expi_hermitian(-1j * gen)
        quarter = slice(0, dim // 4)
        defect = squeeze(xi, dim)[quarter, quarter] - dense[quarter, quarter]
        assert np.abs(defect).max() < 1e-12

    @pytest.mark.parametrize("r", [0.3, 0.9, 1.5])
    def test_transpose_is_squeeze_by_minus_conjugate(self, r):
        xi = from_polar(r, -1.1)
        np.testing.assert_allclose(squeeze(xi, 80).T, squeeze(-np.conjugate(xi), 80),
                                   rtol=0, atol=1e-15)

    def test_strong_squeeze_columns_are_finite_unit_vectors(self):
        # recurrences along the rows or columns of S drift here, to norm
        # errors of 3e-8 and 4e-8 over the first 60 columns
        s = squeeze(from_polar(1.5, 0.7), 3072, cols=60)
        assert np.isfinite(s).all()
        norms = np.linalg.norm(s, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_subnormal_squeeze_is_the_identity(self):
        # tanh(r) / 2 underflows to zero here, so its logarithm must not be taken
        np.testing.assert_allclose(squeeze(from_polar(5e-324, 0.3), 40), np.eye(40),
                                   rtol=0, atol=1e-15)

    def test_kept_columns_are_the_full_matrix_columns(self):
        xi = from_polar(0.9, 0.4)
        np.testing.assert_array_equal(squeeze(xi, 200, cols=37), squeeze(xi, 200)[:, :37])


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

    def test_no_eigensolve(self, monkeypatch):
        # every entry comes from the Fock recurrence
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(matrix, *args, **kwargs):
            sizes.append(matrix.shape[-1])
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        state = GaussianStateParams(alpha=from_polar(0.9, 0.3),
                                    xi=SqueezeParam(0.6, 1.0), nbar=0.5)
        gaussian_rho(state, 120)
        assert sizes == []

    def test_matches_the_prepared_state(self, monkeypatch):
        # the recurrence against D S rho_thermal S† D† prepared in a working
        # space and cropped, on seeded draws over the benchmark hull (nbar <= 1,
        # r <= 0.8, |alpha| <= 1.5) and out to |alpha| 8.5, at dims 2-240.  The
        # reference's products cancel where its crop holds little of the state:
        # at |alpha| 8.2 and 3 levels, holding 2e-12 of it, the reference is
        # 2e-7 off a 60-digit evaluation that gaussian_rho meets within 7e-17.
        # So a draw is compared only where its crop holds at least 1e-6 of the
        # state, read from the reference at 240 levels.
        rng = np.random.default_rng(2101)
        compared = 0
        for amag_max in [1.5] * 24 + [8.5] * 24:
            nbar, r, amag = rng.uniform(0.0, [1.0, 0.8, amag_max])
            theta, phi = rng.uniform(0.0, 2 * math.pi, 2)
            dim = int(rng.integers(2, 241))
            state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                        nbar=nbar)
            if reference_rho(state, 240).diagonal().real[:dim].sum() < 1e-6:
                continue
            compared += 1
            assert np.abs(gaussian_rho(state, dim) - reference_rho(state, dim)).max() <= 1e-12
        assert compared >= 40  # the check is not vacuous
        # and one large state: 1000 levels of nbar 5, r 0.45, |alpha| 15 need
        # 4706 to prepare, so the cap is raised for both builders
        monkeypatch.setattr(fock_oracle, "_WORKING_DIM_CAP", 5000)
        state = GaussianStateParams(alpha=from_polar(15.0, 0.7), xi=SqueezeParam(0.45, 2.0),
                                    nbar=5.0)
        assert np.abs(gaussian_rho(state, 1000) - reference_rho(state, 1000)).max() <= 1e-12

    @pytest.mark.parametrize("dim", [1, 0, -1])
    @pytest.mark.parametrize("build", [
        lambda dim: gaussian_rho(GaussianStateParams(alpha=0.5 + 0j, xi=SqueezeParam(0.3, 0.0),
                                                     nbar=0.1), dim),
        lambda dim: displacement(0.5, dim),
        lambda dim: squeeze(0.3, dim),
        lambda dim: hamiltonian_matrix(HamiltonianParams(0.2 + 0j, 0.1j), dim),
    ], ids=["gaussian_rho", "displacement", "squeeze", "hamiltonian_matrix"])
    def test_dim_below_two_is_rejected(self, build, dim):
        with pytest.raises(ValueError, match=f"truncation dimension must be >= 2, got {dim}$"):
            build(dim)

    def test_returned_copy_is_safe_to_mutate(self):
        state = GaussianStateParams(alpha=0.5 + 0j, xi=SqueezeParam(0.3, 0.0), nbar=0.1)
        first = gaussian_rho(state, 40)
        first[0, 0] = 123.0
        assert gaussian_rho(state, 40)[0, 0] != 123.0


class TestWorkingDim:
    @pytest.mark.parametrize("dim", [40, 120])
    def test_monotone_without_plateaus(self, dim):
        # exact stretch and shift: every step grows (sqrt(dim) e^r + 4 + |shift|)²
        # by more than one level, so every step grows the dimension
        stretches = [_working_dim(dim, r, 0.5) for r in np.linspace(0.0, 1.0, 101)]
        shifts = [_working_dim(dim, 0.5, s) for s in np.linspace(0.0, 12.0, 101)]
        for sizes in (stretches, shifts):
            assert all(b > a for a, b in zip(sizes, sizes[1:]))

    def test_exact_size(self):
        radius = math.sqrt(120) * math.exp(0.7) + 4.0 + 2.3
        assert _working_dim(120, 0.7, 2.3) == math.ceil(radius * radius)

    @pytest.mark.parametrize("stretch, shift", [(1.6, 0.0), (0.0, 52.0), (800.0, 0.0)])
    def test_refuses_above_the_cap(self, stretch, shift):
        with pytest.raises(TruncationError, match=f"cap of {_WORKING_DIM_CAP}"):
            _working_dim(120, stretch, shift)


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
        np.testing.assert_allclose(heisenberg_a_matrix(params, [0.0], 40)[0], a,
                                   rtol=0, atol=1e-12)

    def test_free_hamiltonian_is_static(self):
        params = HamiltonianParams(0j, 0j)
        a, _ = ladder_operators(30)
        np.testing.assert_array_equal(heisenberg_a_matrix(params, [2.7], 30)[0], a)

    def test_pure_pair_coupling_low_block(self):
        # b=0, c=0.25, tau=1: a cosh(0.5) - i a† sinh(0.5)
        params = HamiltonianParams(b=0j, c=0.25 + 0j)
        dim, half = 60, 30
        a, adag = ladder_operators(dim)
        expected = a * math.cosh(0.5) - 1j * adag * math.sinh(0.5)
        defect = (heisenberg_a_matrix(params, [1.0], dim)[0] - expected)[:half, :half]
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
            defect = (heisenberg_a_matrix(params, [tau], dim)[0] - expected)[:half, :half]
            assert op_norm(defect) < 1e-6

    def test_linear_drive_shift_near_zero_pair_coupling(self):
        # at |c| = 1e-8 the shift is still -i b* tau to excellent accuracy;
        # read it off the vacuum expectation of the evolved operator
        params = HamiltonianParams(b=1 + 0j, c=1e-8 + 0j)
        dim = 48
        a_tau = heisenberg_a_matrix(params, [1.0], dim)[0]
        vacuum_expectation = a_tau[0, 0]
        np.testing.assert_allclose(vacuum_expectation, -1j, rtol=0, atol=1e-7)

    def test_delays_share_one_eigensolve(self, monkeypatch):
        params = HamiltonianParams(b=0.3 - 0.1j, c=from_polar(0.3, 1.1))
        taus = [0.0, 0.4, 1.1]
        one_point = [heisenberg_a_matrix(params, [tau], 40)[0] for tau in taus]
        eigh = np.linalg.eigh
        calls = []
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        stacked = heisenberg_a_matrix(params, taus, 40)
        assert len(calls) == 1 and stacked.shape == (3, 40, 40)
        # the stack's basis holds the largest delay, so the smaller delays'
        # matrices differ from their one-point calls by roundoff only
        for got, want in zip(stacked, one_point):
            assert np.abs(got - want).max() < 1e-10

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            heisenberg_a_matrix(HamiltonianParams(0j, 0.1 + 0j), [-0.1], 30)


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


class TestSweepSizing:
    def test_leakage_matches_brute_force_edge_population(self, monkeypatch):
        # a basis far too small for the flow, so the evolved state reaches its
        # top levels; evolve rho there explicitly and read the edge population
        state = GaussianStateParams(alpha=from_polar(0.8, 0.4),
                                    xi=SqueezeParam(0.4, 1.0), nbar=0.3)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        taus = [0.0, 0.5, 1.0, 1.5]
        dim, small = 30, 50
        monkeypatch.setattr(fock_oracle, "_evolution_dim", lambda *args: small)
        rho = gaussian_rho(state, dim)
        sweep = oracle_sweep(rho, params, taus)
        assert sweep.working_dim == small

        w, v = np.linalg.eigh(hamiltonian_matrix(params, small))
        padded = np.zeros((small, small), dtype=complex)
        padded[:dim, :dim] = rho
        edge = math.ceil(0.9 * small)
        populations = []
        for tau in taus:
            u = (v * np.exp(-1j * w * tau)) @ v.conj().T
            evolved = u @ padded @ u.conj().T
            populations.append(np.trace(evolved[edge:, edge:]).real)
        assert max(populations) > 1e-4  # the check is not vacuous
        assert abs(sweep.leakage - max(populations)) <= 1e-12

    @staticmethod
    def _counted_sweep(monkeypatch, rho, params, taus):
        eigh = np.linalg.eigh
        sizes = []

        def counting_eigh(matrix, *args, **kwargs):
            sizes.append(matrix.shape[-1])
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        return oracle_sweep(rho, params, taus), sizes

    @staticmethod
    def _fallback_sizes(rho, params, taus):
        """The first and last-resort sizes, from the rule written out one delay at a time.

        The tight and last-resort sizes hold rho's support, its levels down to
        a suffix population of 1e-10, through the flow's stretch and shift,
        with 1 (tight) or 4 (last resort) vacuum widths of margin.  The first
        size is the tight one, raised to the fewest lowest levels outside
        which rho holds less than eps of each of Tr rho, sum n rho_nn and
        sum n(n-1) rho_nn (all of them if a sum is zero).
        """
        dim = rho.shape[0]
        populations = rho.diagonal().real
        support = next((d for d in range(1, dim + 1) if populations[d:].sum() < 1e-10), dim)
        tight, last = (
            max(math.ceil((math.sqrt(support) * math.exp(r_of_tau(params.c, tau)) + margin
                           + abs(heisenberg_flow(params.b, params.c, tau).shift)) ** 2)
                for tau in taus)
            for margin in (1.0, 4.0)
        )
        n = np.arange(dim)
        sums = (populations, n * populations, n * (n - 1) * populations)
        kept = max(next((d for d in range(dim + 1) if w[d:].sum() < EPS * w.sum()), dim)
                   for w in sums)
        return max(tight, kept, 2), last

    @classmethod
    def _sizes_run(cls, rho, params, taus):
        """The sizes the rule runs when every basis leaks: the first, then the last resort if larger."""
        first, last = cls._fallback_sizes(rho, params, taus)
        return [first, last] if last > first else [first]

    def test_hull_corner_falls_back_to_the_flow_size(self, monkeypatch):
        # rho fills all 120 levels and its top band holds 1.5e-6, so its
        # support is all 120 levels: the tight basis, with one vacuum width of
        # margin, leaks 1e-7, and the sweep evolves once more at the last
        # resort, with four
        nbar, r, theta, alpha = 1.0, 0.8, math.pi, 1.5
        state = GaussianStateParams(alpha=alpha + 0j, xi=SqueezeParam(r, theta), nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        dim, taus = 120, [0.0, 0.5, 1.0]
        rho = gaussian_rho(state, dim)
        sweep, sizes = self._counted_sweep(monkeypatch, rho, params, taus)
        assert sizes == self._sizes_run(rho, params, taus) == [723, 893]
        assert sweep.working_dim == 893
        assert abs(sweep.leakage) < 1e-15

    def test_state_inside_dim_runs_at_the_tight_size_above_dim(self, monkeypatch):
        # rho's levels above a suffix of 1e-10 are its lowest 56 of 120, so
        # the tight basis, 239 levels, holds the evolution below the last
        # resort's 340; being above dim, it is the first and only basis
        state = GaussianStateParams(alpha=0.8 + 0j, xi=SqueezeParam(0.6, 0.0), nbar=0.3)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        dim, taus = 120, [0.0, 0.5, 1.0]
        rho = gaussian_rho(state, dim)
        first, last = self._fallback_sizes(rho, params, taus)
        sweep, sizes = self._counted_sweep(monkeypatch, rho, params, taus)
        assert sizes == [first] == [239] and last == 340
        assert sweep.working_dim == 239 and sweep.leakage <= LEAKAGE_TOL
        reference = coherence_grid(state, params.b, params.c, taus).g2
        np.testing.assert_allclose(sweep.g2, reference, rtol=10 * LEAKAGE_TOL, atol=0)

    def test_contained_state_stays_in_its_first_basis(self, monkeypatch):
        # rho's support, 40 levels, through the flow with one vacuum width of
        # margin is 71 levels, well inside dim: one eigensolve there
        state = GaussianStateParams(alpha=0.5 + 0j, xi=SqueezeParam(0.3, 0.0), nbar=0.2)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        rho, taus = gaussian_rho(state, 120), [0.0, 0.5, 1.0]
        first = self._fallback_sizes(rho, params, taus)[0]
        sweep, sizes = self._counted_sweep(monkeypatch, rho, params, taus)
        assert sizes == [first] == [71]
        assert sweep.working_dim == 71 and sweep.leakage <= LEAKAGE_TOL
        reference = coherence_grid(state, params.b, params.c, taus).g2
        np.testing.assert_allclose(sweep.g2, reference, rtol=10 * LEAKAGE_TOL, atol=0)

    def test_contained_state_evaluates_the_flow_once(self, monkeypatch):
        # the flow sizes the first basis: one call over all the delays
        calls = []

        def counted(function):
            return lambda *args: calls.append(function.__name__) or function(*args)

        state = GaussianStateParams(alpha=0.5 + 0j, xi=SqueezeParam(0.3, 0.0), nbar=0.2)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        rho = gaussian_rho(state, 120)
        monkeypatch.setattr(fock_oracle, "r_of_tau", counted(r_of_tau))
        monkeypatch.setattr(fock_oracle, "alpha_of_tau", counted(alpha_of_tau))
        sweep, sizes = self._counted_sweep(monkeypatch, rho, params, np.linspace(0.0, 1.0, 11))
        assert sorted(calls) == ["alpha_of_tau", "r_of_tau"]
        assert sizes == [sweep.working_dim] and sweep.working_dim < 120

    def test_flow_size_within_dim_makes_one_eigensolve(self, monkeypatch):
        state = GaussianStateParams(alpha=0.2 + 0j, xi=SqueezeParam(0.1, 0.0), nbar=0.05)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        rho, taus = gaussian_rho(state, 120), np.array([0.0, 0.5])
        first, last = self._fallback_sizes(rho, params, taus)
        assert last <= 120  # the case is not vacuous
        sweep, sizes = self._counted_sweep(monkeypatch, rho, params, taus)
        assert sizes == [first] and sweep.working_dim == first < 120

    @pytest.mark.parametrize("nbar, r, theta, alpha, dim, tau_max, first", [
        (0.2, 0.3, 0.0, 0.5, 120, 1.0, 71),
        (0.6, 0.4, 0.0, 1.0, 120, 1.0, 163),  # leaks 3.3e-13, 4.9e-10 at dim
        (0.3, 0.4, 1.0, 0.8, 60, 0.5, 86),  # leaks 6.6e-13, 3.7e-9 at dim
    ])
    def test_first_basis_agrees_with_the_flow_size(self, nbar, r, theta, alpha, dim, tau_max,
                                                   first, monkeypatch):
        # LEAKAGE_TOL's comment table bounds the g2 error by 10x the leakage
        state = GaussianStateParams(alpha=alpha + 0j, xi=SqueezeParam(r, theta), nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        rho, taus = gaussian_rho(state, dim), np.linspace(0.0, tau_max, 11)
        accepted = oracle_sweep(rho, params, taus)
        assert accepted.working_dim == self._fallback_sizes(rho, params, taus)[0] == first
        monkeypatch.setattr(fock_oracle, "LEAKAGE_TOL", -1.0)  # no basis passes
        last = oracle_sweep(rho, params, taus)
        assert last.working_dim == self._sizes_run(rho, params, taus)[-1] > dim
        np.testing.assert_allclose(accepted.g2, last.g2, rtol=10 * LEAKAGE_TOL, atol=0)

    def test_contained_hull_states_run_below_dim(self, monkeypatch):
        # states drawn over the benchmark hull (nbar <= 1, r <= 0.8,
        # |alpha| <= 1.5, tau <= 1) whose first basis is below dim and holds
        # the evolution: one eigensolve, and g2 within 10x that basis's
        # leakage of a sweep forced into all dim levels, plus 1e-12 for
        # roundoff (two contained bases of 120 and 240 levels differ by up to
        # 4.7e-14 on these draws)
        rng = np.random.default_rng(4242)
        dim, taus, contained = 120, np.linspace(0.0, 1.0, 4), 0
        for _ in range(48):
            nbar, r, amag = rng.uniform(0.0, [1.0, 0.8, 1.5])
            theta, phi = rng.uniform(0.0, 2 * math.pi, 2)
            state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                        nbar=nbar)
            params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
            rho = gaussian_rho(state, dim)
            first = self._fallback_sizes(rho, params, taus)[0]
            sweep, sizes = self._counted_sweep(monkeypatch, rho, params, taus)
            monkeypatch.undo()
            if first >= dim or sweep.leakage > LEAKAGE_TOL:
                continue
            contained += 1
            assert sizes == [first] and sweep.working_dim == first
            forced = fock_oracle._sweep_in(rho, params, taus, dim)
            np.testing.assert_allclose(sweep.g2, forced.g2, atol=0,
                                       rtol=10 * sweep.leakage + 1e-12)
        assert contained >= 16  # the check is not vacuous

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.8),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.one_of(st.floats(min_value=0.0, max_value=1e-3),
                     st.floats(min_value=0.0, max_value=1.5)),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.integers(min_value=2, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_dropped_levels_hold_at_most_eps_of_each_sum(self, nbar, r, theta, amag, phi, dim):
        # a first basis below dim crops rho; the levels it drops hold at most
        # eps of its trace, of sum n rho_nn and of sum n(n-1) rho_nn
        state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                    nbar=nbar)
        if state.is_vacuum:
            return
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        rho = gaussian_rho(state, dim)
        kept = oracle_sweep(rho, params, [0.0, 0.5]).working_dim
        populations = rho.diagonal().real
        n = np.arange(dim)
        for weights in (populations, n * populations, n * (n - 1) * populations):
            assert weights[kept:].sum() <= EPS * weights.sum()

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_kept_basis_passes_or_is_the_flow_size(self, nbar, r, theta, amag, phi, tau):
        state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                    nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        dim, taus = 40, np.linspace(0.0, tau, 5)
        rho = gaussian_rho(state, dim)
        run = self._sizes_run(rho, params, taus)
        with pytest.MonkeyPatch.context() as patch:  # a fixture is not reset between examples
            sweep, sizes = self._counted_sweep(patch, rho, params, taus)
        assert len(sizes) <= 2 and sizes == run[:len(sizes)]
        assert sweep.working_dim == sizes[-1]
        assert sweep.leakage <= LEAKAGE_TOL or sweep.working_dim == run[-1]

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.5),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_kept_basis_is_the_first_that_passes(self, nbar, r, theta, amag, phi, tau):
        # each size the rule runs is evolved on its own; the sweep keeps the
        # first size if it leaks at most LEAKAGE_TOL, or else the last resort
        state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                    nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        dim, taus = 40, np.linspace(0.0, tau, 5)
        rho = gaussian_rho(state, dim)
        run = self._sizes_run(rho, params, taus)
        passes = fock_oracle._sweep_in(rho, params, taus, run[0]).leakage <= LEAKAGE_TOL
        expected = run[0] if passes else run[-1]
        assert oracle_sweep(rho, params, taus).working_dim == expected

    @staticmethod
    def _per_delay_evolution_dim(params, taus, dim):
        """_evolution_dim's size with the flow evaluated one delay at a time."""
        return max(
            _working_dim(dim, r_of_tau(params.c, tau), abs(alpha_of_tau(params.b, params.c, tau)))
            for tau in taus
        )

    def _assert_sized_as_per_delay(self, params, taus, dim):
        """_evolution_dim gives the per-delay size, or refuses with the same message."""
        try:
            expected = self._per_delay_evolution_dim(params, taus, dim)
        except TruncationError as refusal:
            with pytest.raises(TruncationError) as raised:
                fock_oracle._evolution_dim(fock_oracle._flow(params, taus), dim, 4.0)
            assert str(raised.value) == str(refusal)
            return None
        assert fock_oracle._evolution_dim(fock_oracle._flow(params, taus), dim, 4.0) == expected
        return expected

    @pytest.mark.parametrize("b, c, tau_max, dim, sized", [
        (0.3 - 0.2j, from_polar(0.4, 1.1), 1.0, 120, True),
        (1.0 + 0.5j, 0.5 * PAIR_COUPLING_EPS + 0j, 2.0, 60, True),  # the series shift
        (0.7j, 0j, 1.5, 40, True),
        (0.2 + 0j, from_polar(0.3, 0.2), 12.0, 120, False),  # refused at the cap
        (50.0 + 0j, 1e-12j, 1.0, 120, False),  # refused on the shift alone
    ])
    def test_evolution_dim_is_the_per_delay_max(self, b, c, tau_max, dim, sized):
        size = self._assert_sized_as_per_delay(HamiltonianParams(b, c),
                                               np.linspace(0.0, tau_max, 501), dim)
        assert (size is not None) == sized  # the case is not vacuous

    @given(st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=PAIR_COUPLING_EPS),
                     st.floats(min_value=0.0, max_value=1.0)),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=5.0),
           st.integers(min_value=2, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_evolution_dim_matches_per_delay_on_random_flows(self, bmag, bphase, cmag, cphase,
                                                             tau_max, dim):
        params = HamiltonianParams(from_polar(bmag, bphase), from_polar(cmag, cphase))
        self._assert_sized_as_per_delay(params, np.linspace(0.0, tau_max, 51), dim)

    def test_tail_mass_of_a_small_basis_is_its_top_level(self):
        # the top 10% of 4 levels rounds up to none; the band keeps level 3
        rho = thermal_rho(0.5, 4)
        sweep = oracle_sweep(rho, HamiltonianParams(), [0.0])
        assert sweep.tail_mass == rho[3, 3].real > 0.0


class TestSqueezeFrame:
    @staticmethod
    def _recorded_sweep(rho_or_state, params, taus, dim=None):
        """oracle_sweep of a rho, or sweep_state of a state, with each eigensolve's size and kind."""
        eigh = np.linalg.eigh
        solved = []

        def recording_eigh(matrix, *args, **kwargs):
            solved.append((matrix.shape[-1], "real" if np.isrealobj(matrix) else "complex"))
            return eigh(matrix, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", recording_eigh)
            if dim is None:
                return oracle_sweep(rho_or_state, params, taus), solved
            return sweep_state(rho_or_state, params, taus, dim), solved

    @pytest.mark.parametrize("big", [2, 3, 7, 8, 41])
    def test_chains_diagonalize_the_pair_terms(self, big):
        # V diag(w) V^T is |c| (a†² + a²) on big levels, with V real and
        # orthogonal, and each group of its columns on one parity
        w, v, groups = fock_oracle._chain_eigensystem(0.7, big)
        half = (big + 1) // 2
        assert groups == ((slice(0, half), slice(0, None, 2)), (slice(half, big), slice(1, None, 2)))
        assert not v[1::2, :half].any() and not v[0::2, half:].any()
        pair = hamiltonian_matrix(HamiltonianParams(0j, 0.7 + 0j), big)
        assert np.isrealobj(v) and np.isrealobj(w)
        np.testing.assert_allclose((v * w) @ v.T, pair.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(big), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nbar, r, theta, dim", [
        (0.4, 0.6, 1.0, 60),
        (0.0, 0.8, 0.0, 120),
        (1.0, 0.5, 2.5, 60),
    ])
    def test_squeezed_thermal_runs_two_real_chains_at_the_fock_size(self, nbar, r, theta, dim):
        # alpha = 0 puts the squeeze's centre, -beta, at the origin: the frame
        # is the number basis turned by a phase, so it runs at the Fock path's
        # N, as two real chains and no complex eigensolve
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(r, theta), nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        taus = np.linspace(0.0, 1.0, 6)
        fock, fock_solved = self._recorded_sweep(gaussian_rho(state, dim), params, taus)
        n = fock.working_dim
        assert fock_solved == [(n, "complex")] and n > dim  # the case is not vacuous
        sweep, solved = self._recorded_sweep(state, params, taus, dim)
        assert solved == [((n + 1) // 2, "real"), (n // 2, "real")]
        assert sweep.working_dim == n
        np.testing.assert_allclose(sweep.g2, fock.g2, rtol=1e-12, atol=0)
        assert (sweep.tail_mass, sweep.pair_tail) == (fock.tail_mass, fock.pair_tail)

    def test_frame_agrees_over_the_benchmark_hull(self):
        # 48 draws over the benchmark hull (nbar <= 1, r <= 0.8, |alpha| <=
        # 1.5, tau <= 1), every sixth at r = 0, where c = 0 and there is no
        # frame.  A draw ran in the frame when every eigensolve was real.  Its
        # g2 is within the two sweeps' evolution errors, 10x each leakage (see
        # LEAKAGE_TOL), of the Fock sweep, plus 1e-12 for roundoff, plus
        # pair_tail: the frame's rho crops the state to a disk about -beta
        # and the Fock sweep's to rho's dim levels, so they differ by up to
        # about the share of g2's numerator in rho's top levels (1.4e-6 at a
        # pair_tail of 9e-6 on one draw, where the frame is 2.5e-7 from the
        # closed form); and within the acceptance tolerance of the closed form
        rng = np.random.default_rng(2323)
        dim, taus, framed = 120, np.linspace(0.0, 1.0, 4), 0
        for draw in range(48):
            nbar, r, amag = rng.uniform(0.0, [1.0, 0.8, 1.5])
            theta, phi = rng.uniform(0.0, 2 * math.pi, 2)
            if draw % 6 == 5:
                r = 0.0
            state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, theta),
                                        nbar=nbar)
            params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
            sweep, solved = self._recorded_sweep(state, params, taus, dim)
            if not all(kind == "real" for _, kind in solved):
                continue
            assert params.c != 0
            framed += 1
            fock = oracle_sweep(gaussian_rho(state, dim), params, taus)
            bound = 10 * (sweep.leakage + fock.leakage) + fock.pair_tail + 1e-12
            np.testing.assert_allclose(sweep.g2, fock.g2, rtol=bound, atol=0)
            closed = coherence_grid(state, params.b, params.c, taus).g2
            np.testing.assert_allclose(sweep.g2, closed, rtol=1e-5, atol=0)
        assert framed >= 12  # the check is not vacuous

    @pytest.mark.parametrize("nbar, r, amag, phi", [
        (0.0, 0.0, 1.2, 0.3),  # c = 0: no frame
        (0.3, 0.4, 0.8, 0.0),  # |beta| = 2.4 is above 0.15 sqrt(N)
        (0.2, 0.3, 0.0, 0.0),  # N = 79 is not above dim
    ])
    def test_states_the_rule_keeps_sweep_as_oracle_sweep(self, nbar, r, amag, phi):
        # bit for bit, so the CLI prints the bytes it printed before the frame
        state = GaussianStateParams(alpha=from_polar(amag, phi), xi=SqueezeParam(r, 0.0),
                                    nbar=nbar)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        taus = np.linspace(0.0, 1.0, 5)
        sweep, solved = self._recorded_sweep(state, params, taus, 120)
        fock = oracle_sweep(gaussian_rho(state, 120), params, taus)
        assert [kind for _, kind in solved] == ["complex"]
        assert sweep.g2.tolist() == fock.g2.tolist()
        assert (sweep.mean_0, sweep.floor, sweep.leakage, sweep.working_dim) == (
            fock.mean_0, fock.floor, fock.leakage, fock.working_dim)


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
        # r 2.5 needs 6569 levels to hold 40 through its squeeze and 12761
        # to hold the doubled 80: refused at the cap
        state = GaussianStateParams(alpha=0j, xi=SqueezeParam(2.5, 0.0), nbar=0.0)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        with pytest.raises(TruncationError, match=f"cap of {_WORKING_DIM_CAP}"):
            convergence_check(state, params, 0.1, 40)

    def test_leakage_above_tolerance_is_not_converged(self, monkeypatch):
        state = GaussianStateParams(alpha=from_polar(0.8, 0.4),
                                    xi=SqueezeParam(0.4, 1.0), nbar=0.3)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        sized = convergence_check(state, params, 1.5, 60)
        assert sized.converged and sized.leakage < LEAKAGE_TOL
        monkeypatch.setattr(fock_oracle, "_evolution_dim", lambda *args: 70)
        report = convergence_check(state, params, 1.5, 60)
        assert report.working_dim == 70 and report.leakage > LEAKAGE_TOL
        assert not report.converged

    def test_leakage_at_the_tolerance_converges(self):
        # oracle_sweep and oracle mode keep a basis that leaks at most
        # LEAKAGE_TOL, and the doubling check accepts the same
        state = GaussianStateParams(alpha=from_polar(0.8, 0.4),
                                    xi=SqueezeParam(0.4, 1.0), nbar=0.3)
        params = hamiltonian_from_state(GenerationSpec(state=state, t=1.0))
        base = oracle_sweep(gaussian_rho(state, 60), params, [1.5])
        at_tol = dataclasses.replace(base, leakage=LEAKAGE_TOL)
        report = convergence_check(state, params, 1.5, 60, base=at_tol)
        assert report.leakage == LEAKAGE_TOL and report.converged

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
