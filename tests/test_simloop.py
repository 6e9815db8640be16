import dataclasses
import math
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

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
from podlab.errors import ChannelError, NyquistLimitError, SimulationError
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


@pytest.fixture
def own_pool():
    """Close the ensemble's worker pool around a test that patches simloop,
    so the test's workers fork under its patches and serve no later test."""
    simloop._close_pool()
    yield
    simloop._close_pool()


def _batches(rows: list, workers: int) -> list[list]:
    """The batches that ``ensemble`` runs ``rows`` in on ``workers``
    workers: each share's batches, as its share runner cuts them."""
    shares = simloop._cut(rows, workers)
    return [batch for share in shares for batch in simloop._run_share(lambda b: [b], share)]


def _worker_pids() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def _waited(done, timeout_s: float = 30.0) -> bool:
    """Whether ``done()`` became true within the timeout."""
    deadline = time.monotonic() + timeout_s
    while not done():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


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
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=11, duration_s=6.0, dt=1e-3)
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
        trace = run_closed_loop(plant, dp, dq, chan, pulse, seed=4, duration_s=4.0, dt=1e-3)
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
            for seed in range(51)
        ]

        def omega(rows):
            return simloop._lockstep(model, t_grid, rows, chan.quantization_step)[0]

        alone = [omega([run])[:, 0] for run in runs]
        # around the ensemble's 17-run batch, and one batch of every run; each
        # window start puts a run at another row of the batch
        for width in (16, 17, 18, 51):
            for start in range(len(runs) - width + 1):
                batch = omega(runs[start : start + width])
                for row in range(width):
                    assert np.array_equal(batch[:, row], alone[start + row]), (width, start, row)

    def test_ensemble_run_past_first_block_matches_direct_call(
        self, plant, designs, chan, scenario
    ):
        # the baseline takes row 0 of the first batch, so runs B - 2 and
        # 2B - 2 end a batch and runs B - 1 and 2B - 1 start the next
        dp, dq = designs
        B = simloop._BLOCK_RUNS
        stats = ensemble(2 * B, 5, plant, dp, dq, chan, scenario, (0.5, 3.0), duration_s=3.0, dt=1e-3)
        # and the runs on either side of each edge of the batches it ran
        rows = [None] * (2 * B + 1)
        batches = _batches(rows, simloop._pool_size(len(rows)))
        edges = np.cumsum([len(b) for b in batches])[:-1].tolist()
        fixed = {0, B - 2, B - 1, 2 * B - 2, 2 * B - 1}
        for i in sorted(fixed | {e - 2 for e in edges} | {e - 1 for e in edges}):
            trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=5 + i, duration_s=3.0, dt=1e-3)
            assert stats.metrics[i] == damping_metric(trace, (0.5, 3.0)), i
        off = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=5, pod_on=False, duration_s=3.0, dt=1e-3
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
            plant, dp, dq, chan, scenario, seed=0, pod_on=False, duration_s=10.0, dt=1e-3
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
            delay=DelayDistribution.point_mass(0.0), rate_hz=50.0, emission="jittered-periodic"
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
            plant, dp, dq, chan, scenario, seed=3, pod_on=True, duration_s=20.0, dt=1e-3
        )
        # each unit's applied-update count tracks the 3.5 msg/s channel rate
        for times in trace.p_applied_times + trace.q_applied_times:
            per_s = len(times) / 20.0
            assert 2.0 <= per_s <= 4.5

    def test_limiter_invariant(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=1, pod_on=True, duration_s=10.0, dt=1e-3
        )
        assert np.max(np.abs(trace.p_D_sent)) <= dp.limit_pu + 1e-12
        assert np.max(np.abs(trace.q_D_sent)) <= dq.limit_pu + 1e-12

    def test_small_limit_saturates(self, plant, designs, chan, scenario):
        dp, dq = designs
        tiny_p = dataclasses.replace(dp, limit_pu=1e-6)
        tiny_q = dataclasses.replace(dq, limit_pu=1e-6)
        trace = run_closed_loop(
            plant, tiny_p, tiny_q, chan, scenario, seed=1, pod_on=True, duration_s=10.0, dt=1e-3
        )
        assert np.max(np.abs(trace.p_D_sent)) <= 1e-6 + 1e-15
        assert np.isclose(np.max(np.abs(trace.p_D_sent)), 1e-6)

    def test_reproducible_bit_identical(self, plant, designs, chan, scenario):
        dp, dq = designs
        t1 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0, dt=1e-3)
        t2 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0, dt=1e-3)
        assert np.array_equal(t1.omega_g_pu, t2.omega_g_pu)
        assert np.array_equal(t1.p_D_recv, t2.p_D_recv)
        assert t1.p_applied_times == t2.p_applied_times

    def test_different_seeds_differ(self, plant, designs, chan, scenario):
        dp, dq = designs
        t1 = run_closed_loop(plant, dp, dq, chan, scenario, seed=7, duration_s=5.0, dt=1e-3)
        t2 = run_closed_loop(plant, dp, dq, chan, scenario, seed=8, duration_s=5.0, dt=1e-3)
        assert not np.array_equal(t1.p_D_recv, t2.p_D_recv)

    def test_coarse_step_rejected(self, plant, designs, chan, scenario):
        dp, dq = designs
        with pytest.raises(SimulationError, match="1 ms"):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=30.0, dt=5e-3)

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

    @pytest.mark.parametrize("seed", [-1, 2.0, None])
    def test_bad_seed_rejected(self, plant, designs, chan, scenario, seed):
        # a negative seed would reach numpy's SeedSequence and raise there
        dp, dq = designs
        with pytest.raises(SimulationError, match="seed must be a non-negative integer"):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=seed, duration_s=2.0, dt=1e-3)
        with pytest.raises(SimulationError, match="base_seed must be a non-negative integer"):
            ensemble(2, seed, plant, dp, dq, chan, scenario, (0.5, 2.0), duration_s=2.0, dt=1e-3)

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, plant, designs, chan, scenario, duration_s):
        # int(round(inf / dt)) would raise OverflowError
        dp, dq = designs
        with pytest.raises(SimulationError, match="must be finite and positive"):
            run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=duration_s, dt=1e-3)
        with pytest.raises(SimulationError, match="must be finite and positive"):
            ensemble(2, 0, plant, dp, dq, chan, scenario, (0.0, 1.0), duration_s=duration_s, dt=1e-3)

    @pytest.mark.parametrize("pod_on", [True, False])
    def test_channel_faster_than_the_grid_rejected(self, plant, designs, scenario, pod_on):
        dp, dq = designs
        fast = ChannelConfig(
            delay=DelayDistribution.point_mass(0.1), rate_hz=20.0, emission="jittered-periodic"
        )
        with pytest.raises(ChannelError, match="require >= 2000 Hz"):
            run_closed_loop(
                plant, dp, dq, fast, scenario, seed=0, pod_on=pod_on, duration_s=2.0, dt=1e-3
            )
        with pytest.raises(ChannelError, match="require >= 2000 Hz"):
            ensemble(2, 0, plant, dp, dq, fast, scenario, (0.5, 2.0), duration_s=2.0, dt=1e-3)

    def test_csv_rows_header(self, plant, designs, chan, scenario):
        dp, dq = designs
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=2.0, dt=1e-3)
        rows = trace.csv_rows()
        assert rows[0] == "t_s,omega_g_pu,pD_sent,pD_recv,qD_sent,qD_recv"
        assert len(rows) == len(trace.t_s) + 1
        assert rows == trace.csv_text().splitlines()
        assert trace.csv_text() == "\n".join(rows) + "\n"


class TestDampingMetric:
    def test_zero_trace(self, plant, designs, chan, scenario):
        dp, dq = designs
        quiet = dataclasses.replace(scenario, magnitude=1e-12)
        trace = run_closed_loop(plant, dp, dq, chan, quiet, seed=0, duration_s=5.0, dt=1e-3)
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
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=2.0, dt=1e-3)
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
            chan = ChannelConfig(
                delay=DelayDistribution.point_mass(0.0), rate_hz=rate_hz, emission="jittered-periodic"
            )
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
            duration_s=10.0, dt=1e-3,
        )
        trace = run_closed_loop(plant, dp, dq, chan, scenario, seed=42, duration_s=10.0, dt=1e-3)
        assert stats.metrics[0] == damping_metric(trace, (1.0, 10.0))
        assert stats.n_runs == 1

    def test_window_before_the_disturbance_rejected(self, plant, designs, chan, scenario):
        """A window that ends before the kick at 1 s holds no POD-off energy,
        so the ensemble has no ratio to report and says which window."""
        assert scenario.start_s == 1.0
        dp, dq = designs
        with pytest.raises(SimulationError, match=re.escape("metric window (0.0, 0.5) is 0")):
            ensemble(1, 42, plant, dp, dq, chan, scenario, (0.0, 0.5), duration_s=2.0, dt=1e-3)

    def test_bit_identical_repetition(self, plant, designs, chan, scenario):
        dp, dq = designs
        a = ensemble(3, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0, dt=1e-3)
        b = ensemble(3, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0, dt=1e-3)
        assert a.metrics == b.metrics
        assert a.baseline_metric == b.baseline_metric

    def test_prefix_property(self, plant, designs, chan, scenario):
        # run i depends only on base_seed + i, so a short ensemble is a
        # prefix of a longer one
        dp, dq = designs
        small = ensemble(2, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0, dt=1e-3)
        big = ensemble(4, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=10.0, dt=1e-3)
        assert big.metrics[:2] == small.metrics

    def test_pod_reduces_median_energy(self, plant, designs, chan, scenario):
        dp, dq = designs
        stats = ensemble(5, 42, plant, dp, dq, chan, scenario, (1.0, 15.0), duration_s=15.0, dt=1e-3)
        assert stats.median_ratio < 1.0

    def test_zero_runs_rejected(self, plant, designs, chan, scenario):
        dp, dq = designs
        with pytest.raises(SimulationError):
            ensemble(0, 42, plant, dp, dq, chan, scenario, (1.0, 10.0), duration_s=30.0, dt=1e-3)

    def test_zero_delay_beats_design_delay(self, plant, designs, scenario):
        dp, dq = designs
        delayed = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=3.5, emission="jittered-periodic"
        )
        instant = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=3.5, emission="jittered-periodic"
        )
        s_inst = ensemble(
            3, 42, plant, dp, dq, instant, scenario, (1.0, 15.0), duration_s=15.0, dt=1e-3
        )
        s_del = ensemble(
            3, 42, plant, dp, dq, delayed, scenario, (1.0, 15.0), duration_s=15.0, dt=1e-3
        )
        # the compensator is designed for 0.3 s, but losing the delay still
        # cannot hurt much; both must damp, delayed within 3x of instant
        assert s_del.median_ratio < 1.0 and s_inst.median_ratio < 1.0
        assert s_del.median_ratio < 3.0 * max(s_inst.median_ratio, 1e-6)


class TestEnsembleWorkers:
    """The batches of a wide ensemble run in worker processes."""

    B = simloop._BLOCK_RUNS

    @pytest.mark.parametrize(
        "n_rows, workers, sizes",
        [
            (51, 2, [13, 13, 13, 12]),
            (51, 1, [17, 17, 17]),
            (52, 2, [13, 13, 13, 13]),
            (18, 2, [9, 9]),
            (18, 1, [9, 9]),
            (17, 1, [17]),
            (35, 3, [12, 12, 11]),
            (5, 1, [5]),
        ],
    )
    def test_batches(self, n_rows, workers, sizes):
        rows = list(range(n_rows))
        batches = _batches(rows, workers)
        assert [len(b) for b in batches] == sizes
        assert [r for b in batches for r in b] == rows

    def test_pool_size(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        # one per usable CPU, at most one per batch of rows
        sizes = [simloop._pool_size(n) for n in (1, 17, 18, 51, 52, 69, 200)]
        assert sizes == [1, 1, 2, 3, 4, 4, 4]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert simloop._pool_size(51) == 1

    def test_no_pool_without_fork_or_in_a_daemon(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        assert simloop._pool_size(51) == 2
        with monkeypatch.context() as m:
            m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert simloop._pool_size(51) == 1
        with monkeypatch.context() as m:
            m.setattr(multiprocessing.process.BaseProcess, "daemon", property(lambda self: True))
            assert simloop._pool_size(51) == 1

    def test_serial_and_worker_runs_agree(self, plant, designs, chan, scenario, monkeypatch):
        dp, dq = designs
        args = (2 * self.B + 3, 9, plant, dp, dq, chan, scenario, (0.5, 2.0))
        wide = ensemble(*args, duration_s=2.0, dt=1e-3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ensemble(*args, duration_s=2.0, dt=1e-3) == wide

    def _wide(self, plant, designs, chan, scenario):
        """A 3-batch ensemble: 2 * B + 1 rows."""
        dp, dq = designs
        return ensemble(
            2 * self.B, 3, plant, dp, dq, chan, scenario, (0.5, 2.0), duration_s=2.0, dt=1e-3
        )

    def _serial(self, plant, designs, chan, scenario):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return self._wide(plant, designs, chan, scenario)

    def test_second_wide_ensemble_reuses_the_workers(self, plant, designs, chan, scenario):
        workers = simloop._pool_size(2 * self.B + 1)
        if workers == 1:
            pytest.skip("one usable CPU: no worker is forked")
        first = self._wide(plant, designs, chan, scenario)
        pids = _worker_pids()
        assert len(pids) == workers - 1
        assert self._wide(plant, designs, chan, scenario) == first
        assert _worker_pids() == pids
        assert first == self._serial(plant, designs, chan, scenario)

    def test_no_process_left_after_a_wide_ensemble(
        self, plant, designs, chan, scenario, tmp_path
    ):
        """A process that ran wide ensembles joins its workers when it exits."""
        workers = simloop._pool_size(2 * self.B + 1)
        if workers == 1:
            pytest.skip("one usable CPU: no worker is forked")
        inputs = tmp_path / "inputs.pkl"
        inputs.write_bytes(pickle.dumps((plant, *designs, chan, scenario)))
        code = (
            "import multiprocessing, pickle, sys\n"
            "from podlab.simloop import ensemble\n"
            "plant, dp, dq, chan, scenario = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "for seed in (3, 4):\n"
            f"    ensemble({2 * self.B}, seed, plant, dp, dq, chan, scenario, (0.5, 2.0),"
            " duration_s=2.0, dt=1e-3)\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        src = str(Path(simloop.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", code, str(inputs)], env=env, capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")  # nothing printed at exit either
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == workers - 1  # one pool served both ensembles
        assert not any(map(_alive, pids))

    def test_killed_worker_is_replaced(self, plant, designs, chan, scenario, own_pool):
        """A worker that died between calls: the next call forks a new pool."""
        if simloop._pool_size(2 * self.B + 1) == 1:
            pytest.skip("one usable CPU: no worker is forked")
        serial = self._serial(plant, designs, chan, scenario)
        assert self._wide(plant, designs, chan, scenario) == serial
        old = _worker_pids()
        for pid in old:
            os.kill(pid, signal.SIGKILL)
        # the pool's manager thread marks the pool broken, then reaps the worker
        assert _waited(lambda: not any(map(_alive, old)))
        assert self._wide(plant, designs, chan, scenario) == serial
        new = _worker_pids()
        assert new and not new & old

    def test_worker_killed_during_a_call(
        self, plant, designs, chan, scenario, monkeypatch, own_pool
    ):
        """A worker that dies during a call breaks that call; the next one
        forks a new pool."""
        if simloop._pool_size(2 * self.B + 1) == 1:
            pytest.skip("one usable CPU: no worker is forked")
        caller, lockstep = os.getpid(), simloop._lockstep

        def die_in_a_child(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return lockstep(*args)

        # the pool forks after this, so its worker dies on its first batch
        monkeypatch.setattr(simloop, "_lockstep", die_in_a_child)
        with pytest.raises(BrokenProcessPool):
            self._wide(plant, designs, chan, scenario)
        assert simloop._pool is None
        monkeypatch.undo()
        assert self._wide(plant, designs, chan, scenario) == self._serial(
            plant, designs, chan, scenario
        )

    def test_changed_affinity_joins_the_old_workers(
        self, plant, designs, chan, scenario, monkeypatch, own_pool
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = self._wide(plant, designs, chan, scenario)
        old = _worker_pids()
        assert len(old) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert self._wide(plant, designs, chan, scenario) == two
        assert not any(map(_alive, old))  # joined before the new pool forked
        new = _worker_pids()
        assert len(new) == 2 and not new & old
        assert two == self._serial(plant, designs, chan, scenario)

    def test_worker_error_reaches_the_caller(
        self, plant, designs, chan, scenario, monkeypatch, own_pool, tmp_path
    ):
        caller = os.getpid()
        pooled = simloop._pool_size(2 * self.B + 1) > 1
        started, done = tmp_path / "started", tmp_path / "done"

        def fail(*args):
            if os.getpid() == caller:
                # the caller's share raises while a worker's batch runs
                assert not pooled or _waited(started.exists)
            else:
                started.touch()
                time.sleep(0.2)
                done.touch()
            raise NyquistLimitError(0.9, 0.5)

        # the pool forks after this, so its workers call it too
        monkeypatch.setattr(simloop, "_lockstep", fail)
        with pytest.raises(NyquistLimitError, match="NY-LIMIT: mode at 0.9 Hz") as info:
            self._wide(plant, designs, chan, scenario)
        assert (info.value.mode_freq_hz, info.value.f_max_hz) == (0.9, 0.5)
        if pooled:
            # the running batch was waited for, and the pool stays up
            assert done.exists()
            assert len(_worker_pids()) == simloop._pool_size(2 * self.B + 1) - 1

    def test_error_in_a_forked_worker_reaches_the_caller(
        self, plant, designs, chan, scenario, monkeypatch, own_pool
    ):
        workers = simloop._pool_size(2 * self.B + 1)
        if workers == 1:
            pytest.skip("one usable CPU: no worker is forked")
        caller, lockstep = os.getpid(), simloop._lockstep

        def fail_in_a_child(*args):
            if os.getpid() != caller:
                raise NyquistLimitError(0.9, 0.5)
            return lockstep(*args)

        # the caller's own share runs; the forked worker's raises
        monkeypatch.setattr(simloop, "_lockstep", fail_in_a_child)
        with pytest.raises(NyquistLimitError) as info:
            self._wide(plant, designs, chan, scenario)
        assert (info.value.mode_freq_hz, info.value.f_max_hz) == (0.9, 0.5)
        assert len(_worker_pids()) == workers - 1  # the pool stays up

    def test_one_share_never_touches_the_pool(self, plant, designs, chan, scenario, monkeypatch):
        dp, dq = designs
        one_batch = (3, 3, plant, dp, dq, chan, scenario, (0.5, 2.0))
        with monkeypatch.context() as m:
            m.setattr(simloop, "_fork_pool", None)
            m.setattr(simloop, "_close_pool", None)
            serial = self._serial(plant, designs, chan, scenario)  # three batches, one CPU
            small = ensemble(*one_batch, duration_s=2.0, dt=1e-3)
        assert serial == self._wide(plant, designs, chan, scenario)
        assert small.metrics == serial.metrics[:3]

    def test_window_checked_before_any_batch(self, plant, designs, chan, scenario, monkeypatch):
        monkeypatch.setattr(simloop, "_cut", None)
        monkeypatch.setattr(simloop, "_run_share", None)
        dp, dq = designs
        with pytest.raises(SimulationError, match="fewer than two samples"):
            ensemble(
                2 * self.B, 3, plant, dp, dq, chan, scenario, (5.0, 6.0), duration_s=2.0, dt=1e-3
            )


class TestParticipation:
    def test_unit_lists_default(self):
        p = Participation()
        assert len(p.p_units) == 3 and len(p.q_units) == 3

    def test_single_unit_runs(self, plant, designs, chan, scenario):
        dp, dq = designs
        part = Participation(p_units=("battery",), q_units=("statcom",))
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=0, duration_s=5.0, dt=1e-3, participation=part
        )
        assert len(trace.p_applied_times) == 1
        assert len(trace.q_applied_times) == 1


class TestBlockEdges:
    """The block-lifted kernel against the per-step oracle where blocks are
    cut: the grid end, the kick, the pulse edges and same-step events."""

    def _assert_matches_reference(self, plant, designs, chan, scenario, duration_s, seed=6):
        dp, dq = designs
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=seed, duration_s=duration_s, dt=1e-3
        )
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
        kick = DisturbanceScenario(
            kind="state-impulse", magnitude=0.05, start_s=kick_step * 1e-3, duration_s=0.0,
            target="mode-states",
        )
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
            delay=DelayDistribution.point_mass(0.0), rate_hz=5.0, quantization_step=q,
            emission="jittered-periodic",
        )
        self._assert_matches_reference(plant, designs, zero, scenario, 3.0)

    def test_ensemble_wider_than_a_batch(self, plant, designs, chan, scenario):
        dp, dq = designs
        early = dataclasses.replace(scenario, start_s=0.3)
        n, window = simloop._BLOCK_RUNS + 3, (0.3, 1.5)
        stats = ensemble(n, 21, plant, dp, dq, chan, early, window, duration_s=1.5, dt=1e-3)
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
            delay=DelayDistribution.point_mass(delay_s), rate_hz=5.0, quantization_step=q,
            emission="jittered-periodic",
        )
        trace = run_closed_loop(
            plant, dp, dq, chan, scenario, seed=2, duration_s=4.0, dt=1e-3, participation=part
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
