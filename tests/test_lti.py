import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podlab._sim import zoh_lsim
from podlab.delaymodel import pade_approx
from podlab.errors import LtiError
from podlab.lti import (
    StateSpace,
    TransferFunction,
    _response,
    eigen,
    mode_report,
    phase_at,
    series,
    to_state_space,
    unwrapped_phase_deg,
)


def _ss_response(ss: StateSpace, s: complex) -> np.ndarray:
    """Transfer matrix C (sI - A)^-1 B + D at a single complex point."""
    if ss.order == 0:
        return ss.D.astype(complex)
    return ss.C @ np.linalg.solve(s * np.eye(ss.order) - ss.A, ss.B) + ss.D


class TestTransferFunction:
    def test_canonical_trims_trailing_zeros(self):
        tf = TransferFunction([1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
        assert tf.num == (1.0,)
        assert tf.den == (1.0, 1.0)

    def test_den_constant_normalized(self):
        tf = TransferFunction([2.0], [2.0, 4.0])
        assert tf.den[0] == 1.0
        assert tf.num == (1.0,)

    def test_zero_denominator_rejected(self):
        with pytest.raises(LtiError):
            TransferFunction([1.0], [0.0, 0.0])

    def test_improper_rejected(self):
        with pytest.raises(LtiError, match="improper"):
            TransferFunction([1.0, 2.0, 3.0], [1.0, 1.0])

    def test_equality_via_canonical_form(self):
        a = TransferFunction([1.0], [1.0, 1.0])
        b = TransferFunction([3.0], [3.0, 3.0])
        assert a == b


class TestFreqResponse:
    def test_first_order_corner(self):
        tf = TransferFunction([1.0], [1.0, 1.0])
        value = _response(tf, [1.0 / (2.0 * math.pi)])[0]
        assert value == pytest.approx((1 - 1j) / 2)
        assert abs(value) == pytest.approx(0.7071, abs=1e-4)
        assert math.degrees(np.angle(value)) == pytest.approx(-45.0)

    def test_unity(self):
        tf = TransferFunction.constant(1.0)
        for f in (0.01, 1.0, 50.0):
            assert _response(tf, [f])[0] == 1 + 0j

    def test_delay_surrogate_phase(self):
        tf = pade_approx(0.3, 4)
        exact = -360.0 * 0.5 * 0.3  # -54 degrees
        assert phase_at(tf, 2.0 * math.pi * 0.5) == pytest.approx(exact, abs=0.1)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(LtiError):
            _response(TransferFunction.constant(1.0), [0.0])

    def test_pole_on_axis_reported(self):
        # poles at +/- j*2*pi (1 Hz)
        tf = TransferFunction([1.0], [4.0 * math.pi**2, 0.0, 1.0])
        with pytest.raises(LtiError, match="1"):
            _response(tf, [1.0])

    @pytest.mark.parametrize("order", range(1, 12))
    def test_array_evaluation_matches_scalar_call(self, order):
        rng = np.random.default_rng(order)
        freqs = np.geomspace(1e-3, 1e2, 400)
        for _ in range(10):
            num = rng.normal(size=rng.integers(1, order + 2))
            tf = TransferFunction(num, rng.normal(size=order + 1))
            for f, value in zip(freqs.tolist(), _response(tf, freqs)):
                expect = tf(2j * math.pi * f)
                assert abs(value - expect) <= 1e-15 * abs(expect)

    @pytest.mark.parametrize(
        "evaluate", [_response, unwrapped_phase_deg], ids=["freq_response", "phase"]
    )
    def test_rejections_keep_their_messages(self, evaluate):
        tf = TransferFunction([1.0], [4.0 * math.pi**2, 0.0, 1.0])
        with pytest.raises(LtiError, match=r"^frequency must be positive, got -2\.0$"):
            evaluate(tf, [3.0, -2.0, 0.0])
        with pytest.raises(LtiError, match=r"^frequency must be positive, got 0\.0$"):
            evaluate(tf, [2.0, 0.0])
        with pytest.raises(LtiError, match=r"^pole on the imaginary axis at 1\.0 Hz$"):
            evaluate(tf, [0.5, 1.0, 2.0])

    def test_phase_rejects_zero_first_frequency_and_empty_grid(self):
        tf = TransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(LtiError, match=r"^frequency must be positive, got 0\.0$"):
            unwrapped_phase_deg(tf, [0.0, 1.0])
        with pytest.raises(LtiError, match=r"^frequency must be positive, got -1\.0$"):
            unwrapped_phase_deg(tf, np.array([-1.0]))
        with pytest.raises(LtiError, match=r"^no frequencies to evaluate$"):
            unwrapped_phase_deg(tf, np.array([]))

    @pytest.mark.parametrize(
        "freqs, named",
        [
            ([1.5, 0.1], "1.5 then 0.1"),
            ([0.1, 0.5, 0.5], "0.5 then 0.5"),
            ([0.1, 2.0, 1.0, 3.0], "2.0 then 1.0"),
        ],
        ids=["descending", "repeated", "one-step-down"],
    )
    def test_phase_rejects_a_grid_that_does_not_ascend(self, freqs, named):
        """Continued downwards from 1.5 Hz, a 1 s delay's Pade(8) phase at
        0.1 Hz read -396 deg against the true -36."""
        with pytest.raises(LtiError, match=rf"^frequencies must be strictly ascending, got {named} Hz$"):
            unwrapped_phase_deg(pade_approx(1.0, 8), freqs)

    def test_phase_on_an_ascending_grid_is_the_accumulated_phase(self):
        """Neighbours less than 180 deg apart give phase_at's accumulated
        phase; 0.1 to 1.5 Hz in one step, 504 deg, loses a whole turn."""
        tf = pade_approx(1.0, 8)
        freqs = np.linspace(0.1, 1.5, 50)
        dense = unwrapped_phase_deg(tf, freqs)
        assert dense == pytest.approx(-360.0 * freqs, abs=0.2)
        assert dense[-1] == pytest.approx(phase_at(tf, 2.0 * math.pi * 1.5), abs=1e-9)
        coarse = unwrapped_phase_deg(tf, [0.1, 1.5])
        assert coarse[0] == pytest.approx(dense[0], abs=1e-9)
        assert coarse[1] == pytest.approx(dense[-1] + 360.0, abs=1e-9)


class TestSeries:
    def test_identity(self):
        x = TransferFunction([1.0, 0.5], [1.0, 2.0, 1.0])
        assert series(TransferFunction.constant(1.0), x) == x

    def test_polynomial_product(self):
        a = TransferFunction([1.0], [1.0, 1.0])
        b = TransferFunction([0.5], [2.0, 1.0])  # 1/(s+2)
        out = series(a, b)
        assert out == TransferFunction([0.5], [2.0, 3.0, 1.0])

    def test_pointwise_product_three_factors(self):
        rng = np.random.default_rng(11)
        c = TransferFunction([1.0, 2.0], [1.0, 3.0, 1.0])
        d = pade_approx(0.3, 3)
        p = TransferFunction([1.0], [1.0, 0.4, 2.0])
        comp = series(c, series(d, p))
        for f in rng.uniform(0.05, 5.0, size=50):
            s = 2j * math.pi * f
            expect = c(s) * d(s) * p(s)
            assert abs(comp(s) - expect) <= 1e-10 * abs(expect)

    def test_associativity(self):
        a = TransferFunction([1.0, 1.0], [1.0, 2.0, 1.0])
        b = TransferFunction([2.0], [1.0, 0.3])
        c = TransferFunction([1.0], [1.0, 1.0, 1.0])
        left = series(series(a, b), c)
        right = series(a, series(b, c))
        for f in np.geomspace(0.01, 10.0, 30):
            s = 2j * math.pi * f
            assert abs(left(s) - right(s)) <= 1e-10 * abs(right(s))


class TestToStateSpace:
    def test_first_order(self):
        ss = to_state_space(TransferFunction([1.0], [1.0, 1.0]))
        assert ss.A == pytest.approx(np.array([[-1.0]]))
        assert ss.B == pytest.approx(np.array([[1.0]]))
        assert ss.C == pytest.approx(np.array([[1.0]]))
        assert ss.D == pytest.approx(np.array([[0.0]]))

    def test_static_gain(self):
        ss = to_state_space(TransferFunction.constant(3.5))
        assert ss.order == 0
        assert ss.D[0, 0] == 3.5
        assert _ss_response(ss, 1j)[0, 0] == 3.5

    def test_pade_eigenvalues_match_den_roots(self):
        tf = pade_approx(0.3, 4)
        ss = to_state_space(tf)
        assert ss.order == 4
        eigs = np.sort_complex(eigen(ss.A))
        roots = np.sort_complex(np.roots(np.asarray(tf.den)[::-1]))
        assert np.allclose(eigs, roots, atol=1e-8)

    def test_roundtrip_response(self):
        tf = TransferFunction([0.2, 1.0, 0.1], [1.0, 0.5, 2.0, 0.3])
        ss = to_state_space(tf)
        for f in np.geomspace(0.01, 10.0, 100):
            s = 2j * math.pi * f
            direct = tf(s)
            via_ss = _ss_response(ss, s)[0, 0]
            assert abs(via_ss - direct) <= 1e-9 * abs(direct)


class TestEigen:
    def test_diagonal(self):
        assert sorted(eigen(np.diag([-1.0, -2.0])).real) == [-2.0, -1.0]

    def test_rotation_block(self):
        w = 2.0 * math.pi * 0.45
        eigs = np.sort_complex(eigen(np.array([[0.0, w], [-w, 0.0]])))
        assert np.allclose(eigs, [-2.827433388j, 2.827433388j], atol=1e-6)

    def test_companion_of_quadratic(self):
        # s^2 + 0.2 s + 4
        A = np.array([[0.0, 1.0], [-4.0, -0.2]])
        eigs = np.sort_complex(eigen(A))
        roots = np.sort_complex(np.roots([1.0, 0.2, 4.0]))
        assert np.allclose(eigs, roots, atol=1e-10)

    def test_eigenvector_residual(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        for lam in eigen(A):
            M = A - lam * np.eye(8)
            _, _, vh = np.linalg.svd(M)
            v = vh[-1].conj()
            assert np.linalg.norm(A @ v - lam * v) / np.linalg.norm(v) < 1e-8

    def test_non_square_rejected(self):
        with pytest.raises(LtiError, match="square"):
            eigen(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        # an LtiError, not the LinAlgError of a solve that did not converge
        for bad in (np.nan, np.inf):
            with pytest.raises(LtiError, match="finite"):
                eigen(np.array([[0.0, 1.0], [bad, 0.0]]))

    def test_all_real_eigenvalues_stay_complex(self):
        # np.linalg.eigvals returns a real array when every eigenvalue is real
        stack = np.stack([np.diag([-1.0, -2.0]), np.array([[0.0, 1.0], [2.0, 1.0]])])
        for A in (stack, stack[0], np.zeros((0, 0)), np.zeros((3, 0, 0))):
            assert eigen(A).dtype == np.complex128
        assert np.sort_complex(eigen(stack)).tolist() == [[-2.0, -1.0], [-1.0, 2.0]]

    def test_stack_equals_rows_solved_alone(self):
        rng = np.random.default_rng(5)
        stack = rng.normal(size=(24, 12, 12))
        stack[7] = np.diag(rng.normal(size=12))  # all real in a complex stack
        got = eigen(stack)
        assert got.shape == (24, 12)
        for row, A in zip(got, stack):
            assert row.tobytes() == eigen(A).tobytes()


class TestSimulate:
    """Simulation runs on the one integrator, the exact ZOH recursion."""

    def test_zero_input_zero_state(self):
        ss = to_state_space(TransferFunction([1.0], [1.0, 1.0]))
        y = zoh_lsim(ss, np.zeros(100), 1e-3)
        assert np.all(y == 0.0)

    def test_first_order_step(self):
        # ZOH is exact for a step input
        ss = to_state_space(TransferFunction([1.0], [1.0, 1.0]))
        y = zoh_lsim(ss, np.ones(1001), 1e-3)
        assert y[1000] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_undamped_oscillator_amplitude(self):
        w = 2.0 * math.pi  # 1 Hz
        ss = StateSpace([[0.0, 1.0], [-w**2, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        dt = 1.0 / 200.0  # T/200
        n = int(round(10.0 / dt))  # 10 periods
        y = zoh_lsim(ss, np.zeros(n), dt, x0=[1.0, 0.0])
        last_period = y[-200:]
        assert abs(np.max(np.abs(last_period)) - 1.0) < 1e-3


class TestModeReport:
    def test_fields_from_eigenvalue(self):
        lam = complex(-0.057, 2.827)
        m = mode_report(lam)
        assert m.freq_hz == pytest.approx(abs(lam.imag) / (2.0 * math.pi))
        assert m.damping_ratio == pytest.approx(-lam.real / abs(lam))

    @given(
        st.floats(min_value=-10.0, max_value=-1e-3),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_damping_in_unit_interval_for_stable_modes(self, re, im):
        m = mode_report(complex(re, im))
        assert 0.0 < m.damping_ratio < 1.0


class TestPhase:
    def test_unity(self):
        assert phase_at(TransferFunction.constant(1.0), 1.0) == pytest.approx(0.0)

    def test_integrator(self):
        tf = TransferFunction([1.0], [0.0, 1.0])
        for w in (0.5, 1.0, 7.0):
            assert phase_at(tf, w) == pytest.approx(-90.0, abs=1e-6)

    def test_unwrap_continues_past_180(self):
        # two cascaded delay approximants accumulate well past -180 degrees
        tf = series(pade_approx(0.3, 4), pade_approx(0.3, 4))
        w = 2.0 * math.pi * 1.2
        assert phase_at(tf, w) == pytest.approx(-360.0 * 1.2 * 0.6, abs=1.0)

