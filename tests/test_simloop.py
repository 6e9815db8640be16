import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from podlab import simloop
from podlab._sim import _BLOCK, zoh_discretize, zoh_lsim
from podlab.analysis import _ctrl_ss, loop_blocks
from podlab.channel import (
    ChannelConfig,
    ChannelInstance,
    DelayDistribution,
    default_delay_distribution,
    quantize,
)
from podlab.config import channel_config, scenario_config
from podlab.errors import ChannelError, SimulationError
from podlab.lti import TransferFunction
from podlab.refplant import DisturbanceScenario, apply_disturbance
from podlab.simloop import (
    Participation,
    damping_metric,
    ensemble,
    run_closed_loop,
)


@pytest.fixture(scope="module")
def designs(loop_designs):
    return tuple(ld.design for ld in loop_designs)


@pytest.fixture(scope="module")
def chan(cfg):
    return channel_config(cfg)


@pytest.fixture(scope="module")
def scenario(cfg):
    return scenario_config(cfg)


def _reference_run(model, chan, seed, duration_s, dt=1e-3):
    """The closed loop of ``model`` stepped one grid instant at a time
    through ChannelInstance.step: an independent oracle for the lockstep
    kernel."""
    Bd, Ad, C = model.M[:, :3], model.M[:, 3:], model.C[:, 3:]
    N = Ad.shape[0]
    dist = model.dist
    p_lim, q_lim = model.limits
    part = Participation()
    p_ch, q_ch = (
        [
            ChannelInstance(
                chan, duration_s, rng=np.random.default_rng(np.random.SeedSequence([seed, loop, i]))
            )
            for i in range(len(units))
        ]
        for loop, units in enumerate((part.p_units, part.q_units))
    )
    t_grid = np.arange(int(round(duration_s / dt))) * dt
    z = np.zeros(N)
    omega = np.empty(len(t_grid))
    kicked = False
    for k, t in enumerate(t_grid):
        if dist.pulse_target is None and not kicked and t >= dist.start_s:
            z[: model.n_plant] += dist.state_delta
            kicked = True
        y = C @ z
        omega[k] = y[0]
        ps = min(max(y[1], -p_lim), p_lim)
        qs = min(max(y[2], -q_lim), q_lim)
        pr = math.fsum(ch.step(t, ps) for ch in p_ch) / len(p_ch)
        qr = math.fsum(ch.step(t, qs) for ch in q_ch) / len(q_ch)
        on = dist.pulse_target is not None and dist.start_s <= t < dist.start_s + dist.duration_s
        z = Ad @ z + Bd @ (pr, qr, dist.magnitude if on else 0.0)
    applied = tuple(tuple(tuple(ch.applied_times) for ch in chs) for chs in (p_ch, q_ch))
    return omega, applied


KINDS = (
    default_delay_distribution(0.3),
    DelayDistribution.uniform(0.15, 0.45),
    DelayDistribution.truncated_normal(0.3, 0.075, 0.05, 1.5),
    DelayDistribution.point_mass(0.3),
)


class TestLockstepKernel:
    @pytest.mark.parametrize("delay", KINDS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("emission", ["jittered-periodic", "poisson"])
    @pytest.mark.parametrize("q", [0.0, 0.002])
    def test_matches_per_step_reference(self, plant, designs, scenario, delay, emission, q):
        dp, dq = designs
        chan = ChannelConfig(delay=delay, rate_hz=5.0, quantization_step=q, emission=emission)
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=11, duration_s=6.0)
        model = simloop._loop_model(plant, dp, dq, scenario, 1e-3)
        omega, applied = _reference_run(model, chan, seed=11, duration_s=6.0)
        assert (trace.p_applied_times, trace.q_applied_times) == applied
        err = np.max(np.abs(trace.omega_g_pu - omega))
        assert err <= 1e-12 * np.max(np.abs(omega))

    def test_pulse_scenario_matches_reference(self, plant, designs, chan):
        dp, dq = designs
        pulse = DisturbanceScenario(
            kind="input-step-pulse", magnitude=0.05, start_s=0.5, duration_s=0.2, target="p-input"
        )
        trace = run_closed_loop(plant, dp, dq, chan, pulse, seed=4, duration_s=4.0)
        model = simloop._loop_model(plant, dp, dq, pulse, 1e-3)
        omega, applied = _reference_run(model, chan, seed=4, duration_s=4.0)
        assert (trace.p_applied_times, trace.q_applied_times) == applied
        assert np.max(np.abs(trace.omega_g_pu - omega)) <= 1e-12 * np.max(np.abs(omega))

    def test_kick_on_measured_states_matches_reference(self, plant, designs, chan, scenario):
        # the reference impulse kicks states that omega_g does not read;
        # kick the read ones, so the outputs move at the kick step itself
        dp, dq = designs
        model = simloop._loop_model(plant, dp, dq, scenario, 1e-3)
        delta = 0.05 * model.C[0, 3 : 3 + model.n_plant]
        model = dataclasses.replace(model, dist=dataclasses.replace(model.dist, state_delta=delta))
        t_grid = np.arange(4000) * 1e-3
        schedules = simloop._schedules(simloop._channels(chan, 4.0, 3, Participation()), t_grid)
        omega = simloop._lockstep(model, t_grid, [schedules], chan.quantization_step)[0][:, 0]
        ref, _ = _reference_run(model, chan, seed=3, duration_s=4.0)
        k0 = int(np.searchsorted(t_grid, scenario.start_s))
        assert omega[k0 - 1] == 0.0 and omega[k0] != 0.0
        assert np.max(np.abs(omega - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_run_is_bitwise_independent_of_batch_width(self, plant, designs, chan, scenario):
        dp, dq = designs
        model = simloop._loop_model(plant, dp, dq, scenario, 1e-3)
        t_grid = np.arange(3000) * 1e-3
        runs = [
            simloop._schedules(simloop._channels(chan, 3.0, seed, Participation()), t_grid)
            for seed in range(50)
        ]

        def omega(rows):
            return simloop._lockstep(model, t_grid, rows, chan.quantization_step)[0]

        wide = omega(runs)
        block = omega(runs[3:10])
        for i in range(7):
            assert np.array_equal(block[:, i], wide[:, 3 + i])
        for i in (0, 5, 49):
            assert np.array_equal(omega(runs[i : i + 1])[:, 0], wide[:, i])

    def test_ensemble_run_past_first_block_matches_direct_call(
        self, plant, designs, chan, scenario
    ):
        dp, dq = designs
        n = simloop._BLOCK_RUNS + 2  # the baseline fills a row of the first block
        stats = ensemble(n, 5, plant, dp, dq, chan, scenario, (0.5, 3.0), duration_s=3.0)
        for i in (0, n - 2, n - 1):
            trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=5 + i, duration_s=3.0)
            assert stats.metrics[i] == damping_metric(trace, (0.5, 3.0))
        off = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=5, pod_on=False, duration_s=3.0
        )
        assert stats.baseline_metric == damping_metric(off, (0.5, 3.0))

    def test_events_only_for_applied_messages(self, chan):
        """A stale message, or one in flight at the end, is never read, so
        the kernel queues neither its send nor an apply."""
        t_grid = np.arange(10_000) * 1e-3
        schedules = [
            ChannelInstance(chan, 10.0, rng=np.random.default_rng(s)).schedule(t_grid)
            for s in range(4)
        ]
        ev_step, ev_msg, owner = simloop._events([None, [schedules[:3], schedules[3:]]])
        n_applied = sum(len(sch.applied) for sch in schedules)
        assert n_applied < sum(len(sch.send_steps) for sch in schedules)  # stale ones exist
        sends = {m: k for k, m in zip(ev_step, ev_msg) if m >= 0}
        applies = {~m: k for k, m in zip(ev_step, ev_msg) if m < 0}
        assert len(sends) == len(applies) == len(owner) == n_applied
        assert all(sends[m] <= applies[m] for m in sends)
        assert ev_step == sorted(ev_step)


class TestRunClosedLoop:
    def test_pod_off_equals_free_plant_response(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=0, pod_on=False, duration_s=10.0
        )
        dist = apply_disturbance(plant, scenario)
        dt = 1e-3
        n = len(trace.t_s)
        k0 = int(round(scenario.start_s / dt))
        y = np.zeros(n)
        y[k0:] = zoh_lsim(plant.p_path, np.zeros(n - k0), dt, x0=dist.state_delta)
        assert np.allclose(trace.omega_g_pu, y, atol=1e-9)
        assert np.all(trace.p_D_sent == 0.0) and np.all(trace.q_D_recv == 0.0)

    def test_transparent_channel_improves_damping(self, plant, designs, scenario):
        dp, dq = designs
        ideal = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=50.0, seed=0
        )
        # a 50 Hz channel needs a 0.2 ms grid to meet the sampling guard
        on = run_closed_loop(
            plant, dp, dq, ideal, scenario, seed=0, pod_on=True, duration_s=15.0, dt=2e-4
        )
        off = run_closed_loop(
            plant, dp, dq, ideal, scenario, seed=0, pod_on=False, duration_s=15.0, dt=2e-4
        )
        w = (scenario.start_s, 15.0)
        assert damping_metric(on, w) < damping_metric(off, w)

    def test_received_reference_updates_at_channel_rate(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=3, pod_on=True, duration_s=20.0
        )
        # each unit's applied-update count tracks the 3.5 msg/s channel rate
        for times in trace.p_applied_times + trace.q_applied_times:
            per_s = len(times) / 20.0
            assert 2.0 <= per_s <= 4.5

    def test_limiter_invariant(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=1, pod_on=True, duration_s=10.0
        )
        assert np.max(np.abs(trace.p_D_sent)) <= dp.limit_pu + 1e-12
        assert np.max(np.abs(trace.q_D_sent)) <= dq.limit_pu + 1e-12

    def test_small_limit_saturates(self, plant, designs, chan, scenario):
        dp, dq = designs
        tiny_p = dataclasses.replace(dp, limit_pu=1e-6)
        tiny_q = dataclasses.replace(dq, limit_pu=1e-6)
        trace = run_closed_loop(
            plant, tiny_p, tiny_q, chan, scenario, seed=1, pod_on=True, duration_s=10.0
        )
        assert np.max(np.abs(trace.p_D_sent)) <= 1e-6 + 1e-15
        assert np.isclose(np.max(np.abs(trace.p_D_sent)), 1e-6)

    def test_reproducible_bit_identical(self, plant, designs, chan, scenario):
        dp, dq = designs
        t1 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0)
        t2 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0)
        assert np.array_equal(t1.omega_g_pu, t2.omega_g_pu)
        assert np.array_equal(t1.p_D_recv, t2.p_D_recv)
        assert t1.p_applied_times == t2.p_applied_times

    def test_different_seeds_differ(self, plant, designs, chan, scenario):
        dp, dq = designs
        t1 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0)
        t2 = run_closed_loop(plant, dp, dq, chan, scenario, seed=8, duration_s=5.0)
        assert not np.array_equal(t1.p_D_recv, t2.p_D_recv)

    def test_coarse_step_rejected(self, plant, designs, chan, scenario):
        dp, dq = designs
        with pytest.raises(SimulationError, match="1 ms"):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=0, dt=5e-3)

    @pytest.mark.parametrize(
        "dt, duration_s, match",
        [
            (0.0, 2.0, "step 0 s outside"),
            (-1e-3, 2.0, "step -0.001 s outside"),
            (math.nan, 2.0, "step nan s outside"),
            (1e-3, 4e-4, "holds no step"),
        ],
    )
    def test_grid_without_steps_rejected(
        self, plant, designs, chan, scenario, dt, duration_s, match
    ):
        dp, dq = designs
        with pytest.raises(SimulationError, match=match):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=duration_s, dt=dt)
        with pytest.raises(SimulationError, match=match):
            ensemble(2, 0, plant, dp, dq, chan, scenario, (0.0, 1.0), duration_s=duration_s, dt=dt)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, plant, designs, chan, scenario, duration_s):
        # int(round(inf / dt)) would raise OverflowError
        dp, dq = designs
        with pytest.raises(SimulationError, match="must be finite and positive"):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=duration_s)
        with pytest.raises(SimulationError, match="must be finite and positive"):
            ensemble(2, 0, plant, dp, dq, chan, scenario, (0.0, 1.0), duration_s=duration_s)

    @pytest.mark.parametrize("pod_on", [True, False])
    def test_channel_faster_than_the_grid_rejected(self, plant, designs, scenario, pod_on):
        dp, dq = designs
        fast = ChannelConfig(delay=DelayDistribution.point_mass(0.1), rate_hz=20.0, seed=0)
        with pytest.raises(ChannelError, match="require >= 2000 Hz"):
            run_closed_loop(
                plant, dp, dq, fast, scenario, seed=0, pod_on=pod_on, duration_s=2.0, dt=1e-3
            )
        with pytest.raises(ChannelError, match="require >= 2000 Hz"):
            ensemble(2, 0, plant, dp, dq, fast, scenario, (0.5, 2.0), duration_s=2.0, dt=1e-3)

    def test_csv_rows_header(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=2.0)
        rows = trace.csv_rows()
        assert rows[0] == "t_s,omega_g_pu,pD_sent,pD_recv,qD_sent,qD_recv"
        assert len(rows) == len(trace.t_s) + 1


class TestDampingMetric:
    def test_zero_trace(self, plant, designs, chan, scenario):
        dp, dq = designs
        quiet = dataclasses.replace(scenario, magnitude=1e-12)
        trace = run_closed_loop(plant, dp, dq, chan, quiet, seed=0, duration_s=5.0)
        assert damping_metric(trace, (0.0, 5.0)) == pytest.approx(0.0, abs=1e-20)

    def test_decaying_exponential_analytic(self):
        from podlab.simloop import SimTrace

        t = np.arange(0.0, 20.0, 1e-3)
        a = 0.2
        y = np.exp(-a * t)
        trace = SimTrace(
            t_s=t, omega_g_pu=y, p_D_sent=np.zeros_like(t), p_D_recv=np.zeros_like(t),
            q_D_sent=np.zeros_like(t), q_D_recv=np.zeros_like(t),
            pod_enabled=False, seed=0,
        )
        got = damping_metric(trace, (0.0, 20.0))
        exact = (1.0 - np.exp(-2 * a * t[-1])) / (2 * a)
        assert got == pytest.approx(exact, rel=1e-3)

    def test_empty_window_rejected(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=2.0)
        with pytest.raises(SimulationError):
            damping_metric(trace, (5.0, 6.0))


class TestEnergyOracle:
    """The simulator against the eigen study's own block system.

    On a zero-delay channel without quantisation, and with a kick small
    enough that the limiter never acts, the simulated loop is the block
    system of ``loop_blocks`` closed through the channel's sample-and-hold.
    Its omega_g energy from the kick to the end is then predicted in closed
    form: x0' (P - e^{A'T} P e^{AT}) x0, where A'P + PA = -C'C.
    """

    DURATION_S = 10.0

    @staticmethod
    def _blocks(plant, designs):
        ctrls = [_ctrl_ss(d, TransferFunction.constant(1.0), d.gain) for d in designs]
        return loop_blocks(plant.A, [plant.B_p, plant.B_q], plant.C, ctrls)

    @pytest.mark.parametrize("target, column", [("p-input", 0), ("q-input", 1)])
    def test_simulator_discretises_the_blocks(self, plant, designs, target, column):
        """Inputs (p reference, q reference, pulse), outputs (omega_g, p, q)."""
        A, B, Cu = self._blocks(plant, designs)
        pulse = DisturbanceScenario("input-step-pulse", 0.1, 1.0, 0.5, target)
        model = simloop._loop_model(plant, *designs, pulse, 1e-3)
        Ad, Bd = zoh_discretize(A, np.column_stack([B, B[:, column]]), 1e-3)
        assert np.array_equal(model.M, np.hstack([Bd, Ad]))
        assert np.array_equal(model.C[1:, 3:], Cu)

    def _relative_errors(self, plant, designs, scenario, pod_on):
        kick = dataclasses.replace(scenario, magnitude=0.05 * scenario.magnitude)
        A, B, Cu = self._blocks(plant, designs)
        if pod_on:
            A = A + B @ Cu
        n = plant.A.shape[0]
        C = np.zeros((1, len(A)))
        C[0, :n] = plant.C[0]
        x0 = np.zeros(len(A))
        x0[:n] = apply_disturbance(plant, kick).state_delta
        P = scipy.linalg.solve_continuous_lyapunov(A.T, -C.T @ C)
        errors = {}
        for rate_hz, dt in ((50.0, 2e-4), (100.0, 1e-4)):
            chan = ChannelConfig(delay=DelayDistribution.point_mass(0.0), rate_hz=rate_hz)
            trace = run_closed_loop(
                plant, *designs, chan, kick, seed=3, pod_on=pod_on,
                duration_s=self.DURATION_S, dt=dt,
            )
            for sent, design in ((trace.p_D_sent, designs[0]), (trace.q_D_sent, designs[1])):
                assert np.max(np.abs(sent)) < 0.1 * design.limit_pu
            E = scipy.linalg.expm(A * (trace.t_s[-1] - kick.start_s))
            predicted = x0 @ (P - E.T @ P @ E) @ x0
            got = damping_metric(trace, (kick.start_s, self.DURATION_S))
            errors[rate_hz] = got / predicted - 1.0
        return errors

    def test_pod_off_energy_matches_the_plant_blocks(self, plant, designs, scenario):
        errors = self._relative_errors(plant, designs, scenario, pod_on=False)
        # measured: 1.3e-9 and 3.1e-10, the trapezoid's error
        assert max(abs(e) for e in errors.values()) <= 1e-8

    def test_pod_on_energy_approaches_the_closed_blocks(self, plant, designs, scenario):
        errors = self._relative_errors(plant, designs, scenario, pod_on=True)
        # measured: -4.2 % at 50 Hz and -2.2 % at 100 Hz; the gap is the
        # sample-and-hold, so it halves with the message interval
        assert abs(errors[100.0]) <= 0.05
        assert abs(errors[100.0]) < abs(errors[50.0])


class TestEnsemble:
    def test_single_run_matches_direct_call(self, plant, designs, chan, scenario):
        dp, dq = designs
        stats = ensemble(
            1, 42, plant, dp, dq, chan, scenario, metric_window=(1.0, 10.0),
            duration_s=10.0,
        )
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=42, duration_s=10.0)
        assert stats.metrics[0] == damping_metric(trace, (1.0, 10.0))
        assert stats.n_runs == 1

    def test_bit_identical_repetition(self, plant, designs, chan, scenario):
        dp, dq = designs
        a = ensemble(3, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0)
        b = ensemble(3, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0)
        assert a.metrics == b.metrics
        assert a.baseline_metric == b.baseline_metric

    def test_prefix_property(self, plant, designs, chan, scenario):
        # run i depends only on base_seed + i, so a short ensemble is a
        # prefix of a longer one
        dp, dq = designs
        small = ensemble(2, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0)
        big = ensemble(4, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0)
        assert big.metrics[:2] == small.metrics

    def test_pod_reduces_median_energy(self, plant, designs, chan, scenario):
        dp, dq = designs
        stats = ensemble(5, 42, plant, dp, dq, chan, scenario, (1.0, 15.0), duration_s=15.0)
        assert stats.median_ratio < 1.0

    def test_zero_runs_rejected(self, plant, designs, chan, scenario):
        dp, dq = designs
        with pytest.raises(SimulationError):
            ensemble(0, 42, plant, dp, dq, chan, scenario, (1.0, 10.0))

    def test_zero_delay_beats_design_delay(self, plant, designs, scenario):
        dp, dq = designs
        delayed = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=3.5, seed=0
        )
        instant = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=3.5, seed=0
        )
        s_inst = ensemble(3, 42, plant, dp, dq, instant, scenario, (1.0, 15.0), duration_s=15.0)
        s_del = ensemble(3, 42, plant, dp, dq, delayed, scenario, (1.0, 15.0), duration_s=15.0)
        # the compensator is designed for 0.3 s, but losing the delay still
        # cannot hurt much; both must damp, delayed within 3x of instant
        assert s_del.median_ratio < 1.0 and s_inst.median_ratio < 1.0
        assert s_del.median_ratio < 3.0 * max(s_inst.median_ratio, 1e-6)


class TestParticipation:
    def test_unit_lists_default(self):
        p = Participation()
        assert len(p.p_units) == 3 and len(p.q_units) == 3

    def test_single_unit_runs(self, plant, designs, chan, scenario):
        dp, dq = designs
        part = Participation(p_units=("battery",), q_units=("statcom",))
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=0, duration_s=5.0, participation=part
        )
        assert len(trace.p_applied_times) == 1
        assert len(trace.q_applied_times) == 1


class TestBlockEdges:
    """The block-lifted kernel against the per-step oracle where blocks are
    cut: the grid end, the kick, the pulse edges and same-step events."""

    def _assert_matches_reference(self, plant, designs, chan, scenario, duration_s, seed=6):
        dp, dq = designs
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=seed, duration_s=duration_s)
        model = simloop._loop_model(plant, dp, dq, scenario, 1e-3)
        omega, applied = _reference_run(model, chan, seed=seed, duration_s=duration_s)
        assert (trace.p_applied_times, trace.q_applied_times) == applied
        assert np.max(np.abs(trace.omega_g_pu - omega)) <= 1e-12 * np.max(np.abs(omega))
        return trace

    @pytest.mark.parametrize("duration_s", [1.601, 2.05, 2.111])
    def test_step_count_not_a_multiple_of_the_block(
        self, plant, designs, chan, scenario, duration_s
    ):
        n = int(round(duration_s / 1e-3))
        assert n % _BLOCK != 0
        self._assert_matches_reference(plant, designs, chan, scenario, duration_s)

    @pytest.mark.parametrize("kick_step", [0, 12 * _BLOCK, 12 * _BLOCK + 29])
    def test_kick_on_and_between_block_boundaries(self, plant, designs, chan, kick_step):
        kick = DisturbanceScenario(kind="state-impulse", magnitude=0.05, start_s=kick_step * 1e-3)
        t_grid = np.arange(2000) * 1e-3
        assert int(np.searchsorted(t_grid, kick.start_s)) == kick_step
        self._assert_matches_reference(plant, designs, chan, kick, 2.0)

    @pytest.mark.parametrize("target", ["p-input", "q-input"])
    @pytest.mark.parametrize("start_s, duration_s", [(0.65, 0.04), (0.641, 0.002)])
    def test_pulse_on_and_off_within_one_block(
        self, plant, designs, chan, target, start_s, duration_s
    ):
        pulse = DisturbanceScenario(
            kind="input-step-pulse", magnitude=0.05, start_s=start_s,
            duration_s=duration_s, target=target,
        )
        t_grid = np.arange(2000) * 1e-3
        on, off = np.searchsorted(t_grid, [start_s, start_s + duration_s])
        assert on // _BLOCK == off // _BLOCK and on % _BLOCK and off % _BLOCK
        self._assert_matches_reference(plant, designs, chan, pulse, 2.0)

    @pytest.mark.parametrize("q", [0.0, 0.002])
    def test_zero_delay_channel(self, plant, designs, scenario, q):
        zero = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=5.0, quantization_step=q
        )
        self._assert_matches_reference(plant, designs, zero, scenario, 3.0)

    def test_ensemble_wider_than_a_batch(self, plant, designs, chan, scenario):
        dp, dq = designs
        early = dataclasses.replace(scenario, start_s=0.3)
        n, window = simloop._BLOCK_RUNS + 3, (0.3, 1.5)
        stats = ensemble(n, 21, plant, dp, dq, chan, early, window, duration_s=1.5)
        model = simloop._loop_model(plant, dp, dq, early, 1e-3)
        t_grid = np.arange(1500) * 1e-3
        # the baseline takes row 0 of the first batch, so runs B - 2 and B - 1
        # straddle the first batch edge
        for i in (0, simloop._BLOCK_RUNS - 2, simloop._BLOCK_RUNS - 1, n - 1):
            omega, _ = _reference_run(model, chan, seed=21 + i, duration_s=1.5)
            ref = simloop._window_energy(t_grid, omega, window)
            assert abs(stats.metrics[i] - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("delay_s", [0.0, 0.3])
    @pytest.mark.parametrize("q", [0.0, 0.002])
    def test_received_reference_is_the_output_at_its_send_step(
        self, plant, designs, scenario, delay_s, q
    ):
        # one unit per loop, so the received mean is the held message itself
        dp, dq = designs
        part = Participation(p_units=("battery",), q_units=("statcom",))
        chan = ChannelConfig(
            delay=DelayDistribution.point_mass(delay_s), rate_hz=5.0, quantization_step=q
        )
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=2, duration_s=4.0, participation=part
        )
        (p_sch,), (q_sch,) = simloop._schedules(simloop._channels(chan, 4.0, 2, part), trace.t_s)
        for sch, sent, recv in (
            (p_sch, trace.p_D_sent, trace.p_D_recv),
            (q_sch, trace.q_D_sent, trace.q_D_recv),
        ):
            expect = np.zeros(len(trace.t_s))
            for msg, k in zip(sch.applied.tolist(), sch.apply_steps.tolist()):
                expect[k:] = quantize(float(sent[sch.send_steps[msg]]), q)
            assert np.count_nonzero(expect) > len(expect) // 2
            assert np.array_equal(recv, expect)
