import dataclasses
import math

import numpy as np
import pytest

from podlab import analysis
from podlab.analysis import (
    _closed_rows,
    _closed_stack,
    _ctrl_ss,
    _match_targets,
    bode_table,
    closed_loop_modes,
    closed_loop_modes_two,
    delay_sweep,
    loop_blocks,
    open_loop,
)
from podlab.delaymodel import pade_approx
from podlab.errors import AnalysisError
from podlab.lti import StateSpace, TransferFunction, eigen, series, to_state_space
from podlab.poddesign import leadlag_tf, washout


def controller_tf(design, gain=None):
    """gain * washout * lead-lag cascade (no delay model): the transfer-function
    form that the gain-free loop's realisation is checked against."""
    K = design.gain if gain is None else gain
    return series(
        TransferFunction.constant(K),
        series(design.washout_tf(), design.compensator_tf()),
    )


def _closed_A(plant_A, plant_Bs, plant_C, controllers):
    """State matrix of the loop where each input i receives ctrl_i(-y)."""
    A, B, Cu = loop_blocks(plant_A, plant_Bs, plant_C, controllers)
    return A + B @ Cu


class TestOpenLoop:
    def test_unity_elements(self):
        one = TransferFunction.constant(1.0)
        tf = open_loop(one, one, 1.0, one, one)
        assert tf(1j * 2.0) == pytest.approx(1.0)

    def test_zero_gain_is_zero(self):
        one = TransferFunction.constant(1.0)
        tf = open_loop(one, one, 0.0, one, one)
        for f in (0.1, 0.45, 2.0):
            assert tf(2j * math.pi * f) == 0.0

    def test_product_of_factors(self):
        comp = leadlag_tf(1.0, 0.2, 0.5, 0.1)
        wash = washout(5.0)
        pade = pade_approx(0.3, 3)
        plant = TransferFunction([1.0], [1.0, 0.4, 8.0])
        gain = 0.37
        tf = open_loop(comp, wash, gain, pade, plant)
        for f in np.geomspace(0.1, 2.0, 20):
            s = 2j * math.pi * f
            expect = gain * comp(s) * wash(s) * pade(s) * plant(s)
            assert tf(s) == pytest.approx(expect, rel=1e-9)


class TestControllerTf:
    def test_gain_override(self, loop_designs):
        d = loop_designs[0].design
        base = controller_tf(d)
        doubled = controller_tf(d, gain=2.0 * d.gain)
        s = 2j * math.pi * 0.45
        assert doubled(s) == pytest.approx(2.0 * base(s), rel=1e-12)


class TestLoopBlocks:
    def test_controllers_close_as_negative_feedback(self):
        # x' = -x + 2 u1 + u2, y = 3 x; u1 = 0.5 (-y); u2 = 1 / (1 + s) of -y
        ctrls = [
            to_state_space(TransferFunction.constant(0.5)),
            to_state_space(TransferFunction([1.0], [1.0, 1.0])),
        ]
        plant = (np.array([[-1.0]]), [np.array([[2.0]]), np.array([[1.0]])], np.array([[3.0]]))
        A, B, Cu = loop_blocks(*plant, ctrls)
        assert np.array_equal(A, [[-1.0, 0.0], [-3.0, -1.0]])
        assert np.array_equal(B, [[2.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(Cu, [[-1.5, 0.0], [0.0, 1.0]])
        assert np.array_equal(A + B @ Cu, [[-4.0, 1.0], [-3.0, -1.0]])


class TestClosedLoopModes:
    def test_zero_gain_reproduces_plant_modes(self, plant, surrogate, loop_designs):
        d = loop_designs[0].design
        res = closed_loop_modes(plant.p_path, d, surrogate, 0.0, (0.45, 0.90))
        for got, true in zip(res.target_modes, plant.true_modes):
            assert abs(got.freq_hz - true.freq_hz) < 1e-9
            assert abs(got.damping_ratio - true.damping_ratio) < 1e-9

    def test_designed_gain_improves_both_modes(self, plant, surrogate, loop_designs):
        for ld, path in zip(loop_designs, (None, None)):
            pass
        dp = loop_designs[0].design
        res = closed_loop_modes(plant.p_path, dp, surrogate, dp.gain, (0.45, 0.90))
        assert res.stable
        for got, true in zip(res.target_modes, plant.true_modes):
            assert got.damping_ratio > true.damping_ratio

    def test_mode_continuity_at_half_gain(self, plant, surrogate, loop_designs):
        d = loop_designs[0].design
        full = closed_loop_modes(plant.p_path, d, surrogate, d.gain, (0.45, 0.90))
        half = closed_loop_modes(plant.p_path, d, surrogate, 0.5 * d.gain, (0.45, 0.90))
        for a, b, base in zip(full.target_modes, half.target_modes, plant.true_modes):
            assert base.damping_ratio < b.damping_ratio < a.damping_ratio + 1e-12
            assert abs(a.freq_hz - b.freq_hz) < 0.05

    def test_target_ambiguity_rejected(self, surrogate, loop_designs):
        # two modes 2% apart cannot be matched unambiguously at 5% tolerance
        def pair(f_hz, zeta):
            wn = 2 * math.pi * f_hz
            return np.array([[0.0, 1.0], [-wn * wn, -2 * zeta * wn]])

        A = np.zeros((4, 4))
        A[:2, :2] = pair(0.45, 0.02)
        A[2:, 2:] = pair(0.46, 0.02)
        B = np.array([[0.0], [1.0], [0.0], [1.0]])
        C = np.array([[1.0, 0.0, 1.0, 0.0]])
        ss = StateSpace(A, B, C, np.zeros((1, 1)))
        d = loop_designs[0].design
        with pytest.raises(AnalysisError, match="ambig"):
            closed_loop_modes(ss, d, surrogate, 0.0, (0.45, 0.46))

    def test_one_oscillatory_eigenvalue_for_two_targets_rejected(self):
        # one mode left for two targets: an AnalysisError, not a raw StopIteration
        eigs = np.array([-0.1 + 2.8j, -0.1 - 2.8j, -3.0])
        with pytest.raises(AnalysisError, match="found 1 for 2"):
            _match_targets(eigs, (0.45, 0.9))
        with pytest.raises(AnalysisError, match="found 0 for 2"):
            _match_targets(np.array([-1.0, -3.0 + 0j]), (0.45, 0.9))

    def test_nonzero_feedthrough_rejected(self, surrogate, loop_designs):
        ss = StateSpace(
            np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[0.5]])
        )
        d = loop_designs[0].design
        with pytest.raises(AnalysisError):
            closed_loop_modes(ss, d, surrogate, 0.1, (0.45, 0.90))


class TestTwoLoop:
    def test_combined_loops_improve_damping(self, plant, surrogate, loop_designs):
        dp, dq = (ld.design for ld in loop_designs)
        res = closed_loop_modes_two(
            plant.A, plant.B_p, plant.B_q, plant.C, dp, dq, surrogate, (0.45, 0.90)
        )
        assert res.stable
        for got, true in zip(res.target_modes, plant.true_modes):
            assert got.damping_ratio > true.damping_ratio

    def test_zero_scale_reproduces_baseline(self, plant, surrogate, loop_designs):
        dp, dq = (ld.design for ld in loop_designs)
        res = closed_loop_modes_two(
            plant.A, plant.B_p, plant.B_q, plant.C, dp, dq, surrogate, (0.45, 0.90),
            gain_scale=0.0,
        )
        for got, true in zip(res.target_modes, plant.true_modes):
            assert abs(got.freq_hz - true.freq_hz) < 1e-9
            assert abs(got.damping_ratio - true.damping_ratio) < 1e-9


class TestDelaySweep:
    def test_four_cases_with_design_point_label(self, plant, surrogate, loop_designs):
        d = loop_designs[0].design
        study = delay_sweep(plant.p_path, d, surrogate, (0.45, 0.90))
        assert len(study.cases) == 4
        labels = [c.label for c in study.cases]
        assert sum("(design point)" in lab for lab in labels) == 1
        design_case = next(c for c in study.cases if "(design point)" in c.label)
        assert design_case.stable
        # off-design delay degrades the worst-mode damping
        worst = next(c for c in study.cases if c.label.startswith("delay=0.6"))
        assert min(m.damping_ratio for m in worst.target_modes) < min(
            m.damping_ratio for m in design_case.target_modes
        )
        d_dict = study.to_dict()
        assert len(d_dict["cases"]) == 4

    def test_baseline_matches_true_modes(self, plant, surrogate, loop_designs):
        d = loop_designs[0].design
        study = delay_sweep(plant.p_path, d, surrogate, (0.45, 0.90))
        for got, true in zip(study.baseline, plant.true_modes):
            assert got.freq_hz == pytest.approx(true.freq_hz, abs=1e-9)


class TestBodeTable:
    def test_header_and_unity_rows(self):
        text = bode_table(TransferFunction.constant(1.0), (0.1, 2.0), 5)
        assert text.endswith("\n")
        rows = text.splitlines()
        assert rows[0] == "freq_hz,mag_db,phase_deg"
        assert len(rows) == 6
        for row in rows[1:]:
            f, mag, ph = (float(v) for v in row.split(","))
            assert mag == pytest.approx(0.0, abs=1e-12)
            assert ph == pytest.approx(0.0, abs=1e-12)

    def test_exact_band_endpoints(self):
        rows = bode_table(TransferFunction.constant(2.0), (0.1, 2.0), 10).splitlines()
        freqs = [float(r.split(",")[0]) for r in rows[1:]]
        assert freqs[0] == pytest.approx(0.1)
        assert freqs[-1] == pytest.approx(2.0)

    def test_delay_phase_slope(self):
        theta = 0.3
        rows = bode_table(pade_approx(theta, 5), (0.1, 1.5), 40).splitlines()
        for row in rows[1:]:
            f, mag, ph = (float(v) for v in row.split(","))
            assert ph == pytest.approx(-360.0 * f * theta, abs=1.0)
            assert mag == pytest.approx(0.0, abs=0.05)

    def test_too_few_points_rejected(self):
        with pytest.raises(AnalysisError):
            bode_table(TransferFunction.constant(1.0), (0.1, 2.0), 1)

    def test_log_magnitude_additivity_of_series(self):
        a = leadlag_tf(1.0, 0.2, 0.5, 0.1)
        b = washout(5.0)
        rows_a = bode_table(a, (0.1, 2.0), 12).splitlines()[1:]
        rows_b = bode_table(b, (0.1, 2.0), 12).splitlines()[1:]
        from podlab.lti import series

        rows_ab = bode_table(series(a, b), (0.1, 2.0), 12).splitlines()[1:]
        for ra, rb, rab in zip(rows_a, rows_b, rows_ab):
            ma, mb, mab = (float(r.split(",")[1]) for r in (ra, rb, rab))
            # rows carry 9 significant digits, so allow formatting roundoff
            assert mab == pytest.approx(ma + mb, abs=1e-6)


def _companion_realisation(tf):
    """to_state_space in one piece, as it was before the memoised loop shared
    its companion-form parts: the reference for both."""
    n = tf.order
    den = np.asarray(tf.den, dtype=float)
    num = np.zeros(n + 1)
    num[: len(tf.num)] = tf.num
    a = den / den[-1]
    b = num / den[-1]
    d = b[n]
    if n == 0:
        return StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[d]])
    A = np.zeros((n, n))
    A[:-1, 1:] = np.eye(n - 1)
    A[-1, :] = -a[:n]
    B = np.zeros((n, 1))
    B[-1, 0] = 1.0
    C = (b[:n] - a[:n] * d).reshape(1, n)
    return StateSpace(A, B, C, [[d]])


def _hand_built_ctrl(design, d_tf, gain):
    return _companion_realisation(series(controller_tf(design, gain), d_tf))


def _same_ss(a, b):
    return all(
        getattr(a, m).shape == getattr(b, m).shape
        and getattr(a, m).tobytes() == getattr(b, m).tobytes()
        for m in "ABCD"
    )


class TestMemoisedLoop:
    """The gain-free loop is realised once per design in each stack; every
    gain and delay case still equals the assembly built from transfer
    functions."""

    def test_to_state_space_matches_reference(self):
        tfs = [
            TransferFunction.constant(2.5),
            TransferFunction([1.0], [1.0, 1.0]),
            TransferFunction([0.0, 2.0, 1.0], [3.0, 1.0, 0.5]),
            leadlag_tf(1.0, 0.2, 0.5, 0.1),
            series(washout(5.0), leadlag_tf(0.9, 0.3, 0.2, 0.05)),
        ] + [pade_approx(0.3, k) for k in (1, 3, 6)]
        for tf in tfs:
            assert _same_ss(to_state_space(tf), _companion_realisation(tf))

    def test_eigenvalues_match_hand_built_assembly(self, cfg, identified, surrogate, loop_designs):
        grid = cfg["design"]["gain_grid"]
        K = np.geomspace(grid["lo"], grid["hi"], grid["n"])
        delays = [TransferFunction.constant(1.0)] + [
            pade_approx(d, surrogate.order[0] or 4) for d in (0.15, 0.3, 0.6)
        ]
        for ident, ld in zip(identified, loop_designs):
            ss = to_state_space(ident.tf)
            cases = [(float(k), surrogate.pade) for k in (0.0, *K, *(2.0 * K))]
            cases += [(ld.design.gain, d_tf) for d_tf in delays]
            for gain, d_tf in cases:
                ctrl = _hand_built_ctrl(ld.design, d_tf, gain)
                ref = eigen(_closed_A(ss.A, [ss.B], ss.C, [ctrl]))
                (got,) = _closed_rows((ss.A, [ss.B], ss.C), [ld.design], [(d_tf, [(gain,)])])
                assert got.tobytes() == ref.tobytes()
            # select_gain's stacked closure: every matrix and eigenvalue row
            # equals its own hand-built assembly
            for k in K.tolist():
                gains = (0.0, k, 2.0 * k)
                stack = _closed_stack(
                    (ss.A, [ss.B], ss.C), [ld.design], surrogate.pade, [(g,) for g in gains]
                )
                assert stack.shape[0] == 3
                for M, row, gain in zip(stack, eigen(stack), gains):
                    ctrl = _hand_built_ctrl(ld.design, surrogate.pade, gain)
                    ref = _closed_A(ss.A, [ss.B], ss.C, [ctrl])
                    assert M.tobytes() == ref.tobytes()
                    assert row.tobytes() == eigen(ref).tobytes()

    def test_two_loop_eigenvalues_match_hand_built_assembly(self, plant, surrogate, loop_designs):
        """One scale per call, and all four scales as rows of one stacked
        call: every matrix and eigenvalue row is the hand-built one's."""
        dp, dq = (ld.design for ld in loop_designs)
        scales = (0.0, 0.5, 1.0, 2.0)
        two = (plant.A, [plant.B_p, plant.B_q], plant.C)
        gain_rows = [(dp.gain * scale, dq.gain * scale) for scale in scales]
        stack = _closed_stack(two, [dp, dq], surrogate.pade, gain_rows)
        rows = _closed_rows(two, [dp, dq], [(surrogate.pade, gain_rows)])
        assert len(rows) == len(scales)
        for scale, M, row in zip(scales, stack, rows):
            got = closed_loop_modes_two(
                plant.A, plant.B_p, plant.B_q, plant.C, dp, dq, surrogate, (0.45, 0.90),
                gain_scale=scale,
            ).eigenvalues
            ctrls = [_hand_built_ctrl(d, surrogate.pade, d.gain * scale) for d in (dp, dq)]
            ref_M = _closed_A(*two, ctrls)
            ref = eigen(ref_M)
            assert M.tobytes() == ref_M.tobytes()
            assert got.tobytes() == row.tobytes() == ref.tobytes()

    def test_delay_sweep_groups_equal_per_case_solves(
        self, identified, surrogate, loop_designs, monkeypatch
    ):
        """The baseline and the four delay cases are solved in one stacked
        eigen call per matrix order, and every row equals the solve of its
        own hand-built matrix."""
        calls = []
        real = analysis.eigen

        def counted(M):
            calls.append(np.shape(M))
            return real(M)

        delays = [pade_approx(d, surrogate.order[0] or 4) for d in analysis._SWEEP_DELAYS_S]
        for ident, ld in zip(identified, loop_designs):
            ss = to_state_space(ident.tf)
            modes_hz = tuple(w / (2.0 * math.pi) for w in ld.context.omegas)
            cases = [(surrogate.pade, 0.0)] + [(d_tf, ld.design.gain) for d_tf in delays]
            refs = [
                eigen(_closed_A(ss.A, [ss.B], ss.C, [_hand_built_ctrl(ld.design, d_tf, gain)]))
                for d_tf, gain in cases
            ]
            calls.clear()
            monkeypatch.setattr(analysis, "eigen", counted)
            study = delay_sweep(ss, ld.design, surrogate, modes_hz)
            monkeypatch.setattr(analysis, "eigen", real)
            assert len(calls) == len({ref.shape for ref in refs}) == 2
            assert sum(shape[0] for shape in calls) == len(cases)
            assert study.baseline == _match_targets(refs[0], modes_hz)
            for case, ref in zip(study.cases, refs[1:]):
                assert case.eigenvalues.tobytes() == ref.tobytes()
                assert case.target_modes == _match_targets(ref, modes_hz)

    def test_linalg_error_in_one_case_propagates(
        self, plant, surrogate, loop_designs, monkeypatch
    ):
        """A LinAlgError in one delay case, or in the two-loop study, is
        raised by the study: it is not skipped as select_gain skips a gain."""
        dp, dq = (ld.design for ld in loop_designs)
        ss = plant.p_path
        real = analysis.eigen

        def failing_on(bad):
            def eigen(M):
                M = np.asarray(M)
                if M.shape[-1] == bad.shape[-1] and any(
                    np.array_equal(m, bad) for m in M.reshape(-1, *bad.shape)
                ):
                    raise np.linalg.LinAlgError("injected: eigenvalues did not converge")
                return real(M)

            return eigen

        ctrl = _hand_built_ctrl(dp, pade_approx(0.3, surrogate.order[0] or 4), dp.gain)
        monkeypatch.setattr(analysis, "eigen", failing_on(_closed_A(ss.A, [ss.B], ss.C, [ctrl])))
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            delay_sweep(ss, dp, surrogate, (0.45, 0.90))
        ctrls = [_hand_built_ctrl(d, surrogate.pade, d.gain) for d in (dp, dq)]
        two = (plant.A, [plant.B_p, plant.B_q], plant.C)
        monkeypatch.setattr(analysis, "eigen", failing_on(_closed_A(*two, ctrls)))
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            closed_loop_modes_two(
                plant.A, plant.B_p, plant.B_q, plant.C, dp, dq, surrogate, (0.45, 0.90)
            )

    def test_designs_with_other_time_constants_get_their_own_loop(self, surrogate, loop_designs):
        d = loop_designs[0].design
        others = [
            dataclasses.replace(d, T1_s=d.T2_s, T2_s=d.T1_s),
            dataclasses.replace(d, T3_s=math.nextafter(d.T3_s, 0.0)),
        ]
        for other in others:
            for gain in (0.0, d.gain):
                assert _same_ss(
                    _ctrl_ss(other, surrogate.pade, gain),
                    _hand_built_ctrl(other, surrogate.pade, gain),
                )
