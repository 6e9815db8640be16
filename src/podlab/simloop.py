"""Discrete-time closed-loop Monte-Carlo harness.

Plant plus POD controllers plus one stochastic channel instance per CIG
unit; single-transient traces and seeded 50-transient ensembles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvfmt import format_rows
from ._sim import _BLOCK, zoh_discretize
from .analysis import _ctrl_ss, loop_blocks
from .channel import ChannelConfig, ChannelInstance, ChannelSchedule, quantize, require_sample_rate
from .errors import SimulationError
from .lti import TransferFunction
from .poddesign import CompensatorDesign
from .refplant import AppliedDisturbance, DisturbanceScenario, PlantPair, apply_disturbance

__all__ = [
    "SimTrace",
    "EnsembleStats",
    "Participation",
    "run_closed_loop",
    "damping_metric",
    "ensemble",
]


@dataclass(frozen=True)
class Participation:
    """Units listening on each loop; mirrors the PV/battery/STATCOM roles."""

    p_units: tuple[str, ...] = ("pv1", "pv2", "battery")
    q_units: tuple[str, ...] = ("pv1", "pv2", "statcom")


@dataclass(frozen=True)
class SimTrace:
    t_s: np.ndarray
    omega_g_pu: np.ndarray
    p_D_sent: np.ndarray
    p_D_recv: np.ndarray
    q_D_sent: np.ndarray
    q_D_recv: np.ndarray
    pod_enabled: bool
    seed: int
    p_applied_times: tuple[tuple[float, ...], ...] = ()
    q_applied_times: tuple[tuple[float, ...], ...] = ()

    def csv_rows(self) -> list[str]:
        return format_rows(
            "t_s,omega_g_pu,pD_sent,pD_recv,qD_sent,qD_recv",
            self.t_s, self.omega_g_pu, self.p_D_sent, self.p_D_recv, self.q_D_sent, self.q_D_recv,
        )


@dataclass(frozen=True)
class EnsembleStats:
    n_runs: int
    metrics: tuple[float, ...]
    baseline_metric: float
    median_ratio: float

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "metrics": list(self.metrics),
            "baseline_metric": self.baseline_metric,
            "median_ratio": self.median_ratio,
        }


@dataclass(frozen=True)
class _LoopModel:
    """The discretised plant-plus-controllers loop, acting on rows [u, z].

    ``u`` = (received p reference, received q reference, disturbance pulse)
    and ``z`` is the combined state.  The next state is ``M [u, z]``; ``C``
    maps a row to y = (omega_g, p controller output, q controller output),
    which depend on ``z`` only.
    """

    M: np.ndarray
    C: np.ndarray
    n_plant: int
    limits: np.ndarray
    dist: AppliedDisturbance


def _loop_model(
    plant: PlantPair,
    design_p: CompensatorDesign,
    design_q: CompensatorDesign,
    scenario: DisturbanceScenario,
    dt: float,
) -> _LoopModel:
    dist = apply_disturbance(plant, scenario)
    # the controllers as the eigen study realises them, without a delay
    ctrls = [_ctrl_ss(d, TransferFunction.constant(1.0), d.gain) for d in (design_p, design_q)]
    A, B, Cu = loop_blocks(plant.A, [plant.B_p, plant.B_q], plant.C, ctrls)
    n = plant.A.shape[0]

    # the third input is the disturbance pulse, the first output omega_g
    pulse_B = {"p-input": B[:, 0], "q-input": B[:, 1]}.get(dist.pulse_target, np.zeros(len(A)))
    Ad, Bd = zoh_discretize(A, np.column_stack([B, pulse_B]), dt)
    Cz = np.vstack([np.zeros(len(A)), Cu])
    Cz[0, :n] = plant.C[0]
    return _LoopModel(
        M=np.hstack([Bd, Ad]),
        C=np.hstack([np.zeros((3, 3)), Cz]),
        n_plant=n,
        limits=np.array([design_p.limit_pu, design_q.limit_pu]),
        dist=dist,
    )


def _channels(
    channel_cfg: ChannelConfig, duration_s: float, seed: int, participation: Participation
) -> tuple[list[ChannelInstance], list[ChannelInstance]]:
    """The channel of unit i on loop l draws from SeedSequence([seed, l, i])."""
    return tuple(
        [
            ChannelInstance(
                channel_cfg,
                duration_s,
                rng=np.random.default_rng(np.random.SeedSequence([seed, loop, i])),
            )
            for i in range(len(units))
        ]
        for loop, units in enumerate((participation.p_units, participation.q_units))
    )


def _schedules(channels, t_grid: np.ndarray) -> tuple[list[ChannelSchedule], ...]:
    return tuple([ch.schedule(t_grid) for ch in chs] for chs in channels)


def _events(runs) -> tuple[list[int], list[int], list[tuple[int, int, int]]]:
    """Every channel event of a batch of runs, sorted by grid step.

    Only the messages the receivers apply take part: a stale message, or
    one still in flight at the end, is never read.  The batch's applied
    messages are numbered in one flat sequence, and ``owner[m]`` is the
    (row, loop, unit) that sends message m.  An event is its step and a
    signed message number: m for the send of m and ~m for its application.
    Within a step the sends come first; the applies of one unit keep their
    order.
    """
    steps, msgs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    owner = []
    for row, loops in enumerate(runs):
        for loop, schedules in enumerate(loops or ()):
            for unit, sch in enumerate(schedules):
                # an applied message arrives within the grid, so it was sent
                # within it: its index is below len(send_steps)
                base = len(owner)
                n_applied = len(sch.applied)
                owner.extend([(row, loop, unit)] * n_applied)
                steps += [sch.send_steps[sch.applied], sch.apply_steps]
                numbers = base + np.arange(n_applied)
                msgs += [numbers, ~numbers]
    step, msg = np.concatenate(steps), np.concatenate(msgs)
    order = np.lexsort((msg < 0, step))
    return step[order].tolist(), msg[order].tolist(), owner


def _lifted(model: _LoopModel, lengths) -> tuple[dict[int, np.ndarray], list[np.ndarray]]:
    """The loop lifted over up to ``_BLOCK`` steps of held input.

    ``E[m]`` = [S_m, Ad^m], with S_m = sum of Ad^i Bd over i < m, maps a row
    [u, z] to the state m steps on while u is held, and C E[j] gives its
    outputs at step j.  The product of a row with
    V_m = [C E[0]; ...; C E[m - 1]; E[m]] is the row's m outputs followed by
    its end state.  Returns V_m for each block length in ``lengths``, and
    ``step[m][l]``, column l of V_m (l < 2): the response of those outputs
    and that end state to a unit step on received reference l.
    """
    N = model.M.shape[0]
    Bd, Ad = model.M[:, :3], model.M[:, 3:]
    E = np.zeros((_BLOCK + 1, N, N + 3))
    E[0, :, 3:] = np.eye(N)
    for m in range(_BLOCK):
        np.matmul(Ad, E[m], out=E[m + 1])
        E[m + 1, :, :3] += Bd
    O = (model.C[:, 3:] @ E[:-1]).reshape(3 * _BLOCK, N + 3)
    V = {m: np.concatenate([O[: 3 * m], E[m]]) for m in lengths}
    step = [np.concatenate([O[: 3 * m, :2], E[m, :, :2]]).T.copy() for m in range(_BLOCK + 1)]
    return V, step


def _lockstep(
    model: _LoopModel,
    t_grid: np.ndarray,
    runs: list,
    quantization_step: float,
    record_io: bool = False,
):
    """Advance len(runs) closed loops together on ``t_grid``.

    ``runs[r]`` holds the (p, q) lists of run r's channel schedules, or is
    None for a POD-off run.  Row r of X holds run r's [u, z]: inputs and
    state.  The grid is cut into blocks of ``_BLOCK`` steps, and also at the
    kick and at the pulse edges, so the disturbance input is constant within
    a block.  A block of L steps is one product
    ``einsum('kj,ij->ki', X, V_L)`` (see ``_lifted``), giving every row's L
    outputs and end state for inputs held at their values at the block
    start.  The block's channel events then run in step order: a send
    captures the limited, quantized controller output of its run at its
    step; an apply updates the unit's held value and that run's received
    mean, and adds the change times the step response from that step on to
    the run's remaining outputs and end state.  Every operation acts on one
    row in a fixed order, so a run's numbers do not depend on the other
    rows: a run is bitwise the same alone or in any batch.

    Returns omega_g as (steps, runs) and, with ``record_io``, the limited
    and the received (p, q) references as (steps, runs, 2).
    """
    n_steps = len(t_grid)
    R = len(runs)
    N = model.M.shape[0]
    dist = model.dist
    lim = model.limits.tolist()

    # disturbance: a state kick added at the first step at or after the
    # start, or a pulse held on the third input over [start, start + duration)
    kick, pulse = {}, {}
    if dist.pulse_target is None:
        kick = {int(np.searchsorted(t_grid, dist.start_s, side="left")): dist.state_delta}
    else:
        t_on, t_off = dist.start_s, dist.start_s + dist.duration_s
        pulse = {int(np.searchsorted(t_grid, t_on, side="left")): dist.magnitude}
        pulse[int(np.searchsorted(t_grid, t_off, side="left"))] = 0.0
    cuts = sorted({k for k in (*range(0, n_steps, _BLOCK), *kick, *pulse) if k < n_steps})
    cuts.append(n_steps)

    V, step = _lifted(model, set(np.diff(cuts).tolist()))

    ev_step, ev_msg, owner = _events(runs)
    ev_step.append(n_steps)  # sentinel
    values = [0.0] * len(owner)
    held = [[[0.0] * len(s) for s in loops] if loops else None for loops in runs]
    mean = [[0.0, 0.0] for _ in runs]

    X = np.zeros((R, N + 3))
    # the outputs of every step: all three when recording, else omega_g only
    w = 3 if record_io else 1
    out = np.empty((n_steps, R, w))
    recv = np.zeros((n_steps, R, 2)) if record_io else None
    ptr = 0
    due = ev_step[0]
    for k0, k1 in zip(cuts[:-1], cuts[1:]):
        L = k1 - k0
        if k0 in kick:
            X[:, 3 : 3 + model.n_plant] += kick[k0]
        if k0 in pulse:
            X[:, 2] = pulse[k0]
        Y = np.einsum("kj,ij->ki", X, V[L], optimize=False)
        if record_io:
            recv[k0:k1] = X[:, :2]
        while due < k1:
            j = due - k0
            m = ev_msg[ptr]
            if m >= 0:
                r, loop, _ = owner[m]
                sent = min(max(Y.item(r, 3 * j + 1 + loop), -lim[loop]), lim[loop])
                values[m] = quantize(sent, quantization_step)
            else:
                r, loop, unit = owner[~m]
                h = held[r][loop]
                h[unit] = values[~m]
                new = math.fsum(h) / len(h)
                change = new - mean[r][loop]
                if change:
                    # the rest of the block sees the change from step j on
                    Y[r, 3 * j :] += change * step[L - j][loop]
                    mean[r][loop] = X[r, loop] = new
                    if record_io:
                        recv[due:k1, r, loop] = new
            ptr += 1
            due = ev_step[ptr]
        out[k0:k1] = Y[:, : 3 * L].reshape(R, L, 3)[:, :, :w].swapaxes(0, 1)
        X[:, 3:] = Y[:, 3 * L :]
    if not record_io:
        return out[:, :, 0], None, None
    sent = out[:, :, 1:]  # the controller outputs, limited in place
    np.clip(sent, -model.limits, model.limits, out=sent)
    return out[:, :, 0], sent, recv


def run_closed_loop(
    plant: PlantPair,
    design_p: CompensatorDesign,
    design_q: CompensatorDesign,
    channel_cfg: ChannelConfig,
    scenario: DisturbanceScenario,
    seed: int,
    pod_on: bool = True,
    duration_s: float = 30.0,
    dt: float = 1e-3,
    participation: Participation = Participation(),
) -> SimTrace:
    """One seeded closed-loop transient: the one-run case of the lockstep
    kernel.

    Per step: measure omega_g, run washout -> compensator -> gain -> limiter
    for each loop, transmit the central references through every unit's
    channel, and integrate the plant with the mean of the received
    references.  The POD branch closes as negative feedback on the measured
    frequency deviation; the limiter acts on the central side before
    transmission.
    """
    t_grid = _time_grid(duration_s, dt, channel_cfg)
    model = _loop_model(plant, design_p, design_q, scenario, dt)
    n = len(t_grid)
    if pod_on:
        channels = _channels(channel_cfg, duration_s, seed, participation)
        schedules = _schedules(channels, t_grid)
        omega, sent, recv = _lockstep(
            model, t_grid, [schedules], channel_cfg.quantization_step, record_io=True
        )
        sent, recv = sent[:, 0], recv[:, 0]
        applied = tuple(
            tuple(tuple(ch.t_arrive[s.applied].tolist()) for ch, s in zip(chs, schs))
            for chs, schs in zip(channels, schedules)
        )
    else:
        omega, _, _ = _lockstep(model, t_grid, [None], channel_cfg.quantization_step)
        sent, recv = np.zeros((n, 2)), np.zeros((n, 2))
        applied = ((),) * len(participation.p_units), ((),) * len(participation.q_units)
    return SimTrace(
        t_s=t_grid,
        omega_g_pu=omega[:, 0],
        p_D_sent=sent[:, 0],
        p_D_recv=recv[:, 0],
        q_D_sent=sent[:, 1],
        q_D_recv=recv[:, 1],
        pod_enabled=pod_on,
        seed=seed,
        p_applied_times=applied[0],
        q_applied_times=applied[1],
    )


def _time_grid(duration_s: float, dt: float, channel_cfg: ChannelConfig) -> np.ndarray:
    """The simulation instants k * dt over the duration, checked."""
    if not 0 < dt <= 1e-3:
        raise SimulationError(f"simulation step {dt:g} s outside (0, 1 ms]")
    if not 0 < duration_s < math.inf:
        raise SimulationError(f"duration {duration_s:g} s must be finite and positive")
    n = int(round(duration_s / dt))
    if n < 1:
        raise SimulationError(f"duration {duration_s:g} s holds no step of {dt:g} s")
    # POD off too: an on/off comparison runs both cases on one grid
    require_sample_rate(1.0 / dt, channel_cfg)
    return np.arange(n) * dt


def damping_metric(trace: SimTrace, window: tuple[float, float]) -> float:
    """Trapezoidal integral of omega_g^2 over the window (pu^2 * s)."""
    return _window_energy(trace.t_s, trace.omega_g_pu, window)


def _window_energy(t_s: np.ndarray, omega: np.ndarray, window: tuple[float, float]) -> float:
    t0, t1 = window
    mask = (t_s >= t0) & (t_s <= t1)
    if int(np.sum(mask)) < 2:
        raise SimulationError(f"window {window} selects fewer than two samples")
    return float(np.trapezoid(omega[mask] ** 2, t_s[mask]))


# runs advanced together per kernel call: a batch holds one omega history
# per run, so wider batches trade memory for fewer Python-level blocks
_BLOCK_RUNS = 17


def ensemble(
    n_runs: int,
    base_seed: int,
    plant: PlantPair,
    design_p: CompensatorDesign,
    design_q: CompensatorDesign,
    channel_cfg: ChannelConfig,
    scenario: DisturbanceScenario,
    metric_window: tuple[float, float],
    duration_s: float = 30.0,
    dt: float = 1e-3,
    participation: Participation = Participation(),
) -> EnsembleStats:
    """Seeded Monte-Carlo ensemble; run i uses seed base_seed + i.

    The POD-off baseline and the runs go through the lockstep kernel in
    batches of ``_BLOCK_RUNS``; each run's metric equals that of
    ``run_closed_loop`` with its seed, bit for bit.
    """
    if n_runs < 1:
        raise SimulationError("n_runs must be >= 1")
    t_grid = _time_grid(duration_s, dt, channel_cfg)
    model = _loop_model(plant, design_p, design_q, scenario, dt)
    seeds = [None] + [base_seed + i for i in range(n_runs)]  # None: the baseline
    energies = []
    for b in range(0, len(seeds), _BLOCK_RUNS):
        runs = [
            None if seed is None
            else _schedules(_channels(channel_cfg, duration_s, seed, participation), t_grid)
            for seed in seeds[b : b + _BLOCK_RUNS]
        ]
        omega = _lockstep(model, t_grid, runs, channel_cfg.quantization_step)[0]
        energies += [_window_energy(t_grid, w, metric_window) for w in omega.T]
        del omega  # free this batch's history before the next one is made
    baseline, metrics = energies[0], energies[1:]
    return EnsembleStats(
        n_runs=n_runs,
        metrics=tuple(metrics),
        baseline_metric=baseline,
        median_ratio=float(np.median(metrics)) / baseline,
    )
