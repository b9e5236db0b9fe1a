"""The closed form over a whole delay grid at once, against the per-delay reference.

`coherence_grid` must equal, bit for bit, what the per-delay functions in
`closed_form_reference.py` give one delay at a time: every column, signed
zeros included, and the same exception with the same message.

The golden files in `golden/` hold the stdout, stderr, exit status and
--output file of `python -m g2tau ARGV` for each case of `cases.json`, as
the last version that evaluated the closed form one delay at a time wrote
them.  The oracle and compare cases also depend on the LAPACK build that
recorded them (numpy 2.4 with OpenBLAS 0.3.31 on x86-64).
"""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import closed_form_reference as reference
from g2tau import (
    GaussianStateParams,
    GenerationSpec,
    SqueezeParam,
    UndefinedCoherenceError,
    from_polar,
    g2,
    hamiltonian_from_state,
)
from g2tau.gaussian_core import PAIR_COUPLING_EPS, coherence_grid
from g2tau.sweep_cli import main

GOLDEN = Path(__file__).parent / "golden"
COLUMNS = ("tau", "r_tau", "mean_n", "n_tau", "s_tau", "g2")


def bits(values) -> list[int]:
    """The IEEE bit patterns of float64 values, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def outcome(call):
    try:
        return call(), None
    except (ArithmeticError, ValueError) as exc:
        return None, (type(exc), str(exc))


def assert_grid_is_reference(state, b, c, taus):
    """The grid's columns equal the reference's rows bit for bit, or both raise alike."""
    rows, ref_error = outcome(lambda: [reference.coherence_sample(state, b, c, t) for t in taus])
    grid, error = outcome(lambda: coherence_grid(state, b, c, taus))
    assert error == ref_error
    if rows is None:
        return
    for name in COLUMNS:
        assert bits(getattr(grid, name)) == bits([getattr(row, name) for row in rows]), name
    amp = [row.A_tau for row in rows]
    assert bits(grid.A_tau.real) == bits([z.real for z in amp])
    assert bits(grid.A_tau.imag) == bits([z.imag for z in amp])
    assert grid.tau.tolist() == list(taus)


def delay_grid(tau_max, steps):
    return [tau_max * i / steps for i in range(steps + 1)]


def couplings(state, t_gen=1.0):
    return hamiltonian_from_state(GenerationSpec(state=state, t=t_gen))


def state_of(nbar=0.0, r=0.0, theta=0.0, alpha=0j):
    return GaussianStateParams(alpha=alpha, xi=SqueezeParam(r, theta), nbar=nbar)


class TestPinnedBranches:
    def test_zero_pair_coupling(self):
        # r = 0 gives c = 0 exactly: the state's own squeeze phase stands in
        state = state_of(nbar=0.7, theta=2.0, alpha=from_polar(0.8, 1.1))
        p = couplings(state)
        assert p.c == 0
        assert_grid_is_reference(state, p.b, p.c, delay_grid(2.0, 40))

    def test_pair_coupling_below_the_series_threshold(self):
        state = state_of(nbar=0.1, r=1e-9, theta=0.4, alpha=from_polar(0.3, 2.2))
        p = couplings(state)
        assert 0.0 < abs(p.c) < PAIR_COUPLING_EPS
        assert_grid_is_reference(state, p.b, p.c, delay_grid(1.5, 30))

    @pytest.mark.parametrize("r", [0.3, 1.2])
    def test_squeezed_vacuum(self, r):
        # alpha = 0 and nbar = 0: every displacement term is a signed zero
        state = state_of(r=r, theta=5.5)
        p = couplings(state)
        assert_grid_is_reference(state, p.b, p.c, delay_grid(1.0, 25))

    def test_subnormal_squeeze_is_the_vacuum(self):
        state = state_of(r=5e-324)
        with pytest.raises(UndefinedCoherenceError):
            coherence_grid(state, 0j, 0j, [0.0, 0.5])
        assert_grid_is_reference(state, 0j, 0j, [0.0, 0.5])

    def test_subnormal_squeeze_with_a_displacement(self):
        state = state_of(r=5e-324, alpha=0.4 + 0j)
        p = couplings(state)
        assert_grid_is_reference(state, p.b, p.c, delay_grid(1.0, 3))

    def test_means_divided_one_at_a_time(self):
        # nbar = |alpha|² = 7e153: mean0 * mean_n overflows while the
        # numerator does not, so g2(0) = 1 + 3x²/(2x)² = 1.75
        x = 7e153
        state = state_of(nbar=x, alpha=math.sqrt(x) + 0j)
        p = couplings(state)
        taus = delay_grid(0.2, 2)
        assert_grid_is_reference(state, p.b, p.c, taus)
        assert coherence_grid(state, p.b, p.c, taus).g2[0] == 1.75

    def test_first_non_finite_row_is_named(self):
        # the same state's numerator overflows from tau = 0.5 on
        x = 7e153
        state = state_of(nbar=x, alpha=math.sqrt(x) + 0j)
        p = couplings(state)
        with pytest.raises(OverflowError, match=r"at tau=0\.5: its numerator is inf"):
            coherence_grid(state, p.b, p.c, delay_grid(1.0, 4))
        assert_grid_is_reference(state, p.b, p.c, delay_grid(1.0, 4))

    def test_one_delay_calls_are_the_grid(self):
        state = state_of(nbar=0.3, r=0.5, theta=0.9, alpha=from_polar(1.1, 0.4))
        p = couplings(state, 1.3)
        taus = delay_grid(1.7, 9)
        grid = coherence_grid(state, p.b, p.c, taus)
        assert bits([g2(state, p.b, p.c, tau) for tau in taus]) == bits(grid.g2)

    def test_negative_delay_is_refused(self):
        state = state_of(nbar=0.3)
        with pytest.raises(ValueError, match="delay must be >= 0"):
            coherence_grid(state, 0j, 0.1j, [0.0, -0.5])


amplitude = st.floats(min_value=0.0, max_value=2.0)
angle = st.floats(min_value=0.0, max_value=2 * math.pi)
coupling = st.one_of(
    st.just(0j),
    st.builds(from_polar, st.floats(min_value=1e-12, max_value=0.99e-8), angle),
    st.builds(from_polar, st.floats(min_value=1e-8, max_value=1.5), angle),
)


@settings(max_examples=60, deadline=None)
@given(
    nbar=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0),
                   st.floats(min_value=1e150, max_value=1e300)),
    r=st.one_of(st.just(0.0), st.just(5e-324), st.floats(min_value=0.0, max_value=2.0)),
    theta=angle,
    alpha=st.builds(from_polar, st.one_of(st.just(0.0), amplitude), angle),
    drive=st.builds(from_polar, amplitude, angle),
    c=coupling,
    from_state=st.booleans(),
    tau_max=st.floats(min_value=1e-3, max_value=3.0),
    steps=st.integers(min_value=1, max_value=40),
)
def test_grid_equals_the_reference_bit_for_bit(nbar, r, theta, alpha, drive, c, from_state,
                                               tau_max, steps):
    # bounded so that no cosh or sinh argument leaves double range (they
    # stay at or below 2(r + r(tau)) <= 22): past it libm raises at a later
    # delay before the reference reaches it, and only the type would agree
    state = state_of(nbar=nbar, r=r, theta=theta, alpha=alpha)
    if from_state:
        p = couplings(state)
        drive, c = p.b, p.c
    assert_grid_is_reference(state, drive, c, delay_grid(tau_max, steps))


CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_bytes_match_the_golden_files(case, tmp_path, capsys):
    output = tmp_path / "out"
    argv = [arg.replace("{output}", str(output)) for arg in case["argv"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        status = main(argv)
    captured = capsys.readouterr()
    name = case["name"]
    assert status == case["status"]
    assert captured.out == (GOLDEN / f"{name}.stdout").read_text()
    assert captured.err == (GOLDEN / f"{name}.stderr").read_text()
    expected = GOLDEN / f"{name}.output"
    if expected.exists():
        assert output.read_bytes() == expected.read_bytes()
    else:
        assert not output.exists()
