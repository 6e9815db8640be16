"""Discrete-time closed-loop Monte-Carlo harness.

Plant plus POD controllers plus one stochastic channel instance per CIG
unit; single-transient traces and seeded 50-transient ensembles.
"""
from __future__ import annotations

import atexit
import functools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from ._csvfmt import format_text
from ._sim import _BLOCK, zoh_discretize
from .analysis import _ctrl_ss, loop_blocks
from .channel import (
    ChannelConfig,
    ChannelInstance,
    ChannelSchedule,
    quantize,
    require_sample_rate,
    require_seed,
)
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

    def csv_text(self) -> str:
        """The trace as CSV text, each row ending in a newline."""
        return format_text(
            "t_s,omega_g_pu,pD_sent,pD_recv,qD_sent,qD_recv",
            self.t_s, self.omega_g_pu, self.p_D_sent, self.p_D_recv, self.q_D_sent, self.q_D_recv,
        )

    def csv_rows(self) -> list[str]:
        """The lines of ``csv_text``, without their newlines."""
        return self.csv_text().splitlines()


@dataclass(frozen=True)
class EnsembleStats:
    n_runs: int
    metrics: tuple[float, ...]
    baseline_metric: float
    median_ratio: float

    def to_dict(self) -> dict:
        # metrics as a list, the type JSON reads back
        return {**asdict(self), "metrics": list(self.metrics)}


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
    its end state.  Returns ``VT[m]``, V_m.T made C-contiguous, for each
    block length m in ``lengths``, and ``step[m][l]``, column l of V_m
    (l < 2): the response of those outputs and that end state to a unit step
    on received reference l.
    """
    N = model.M.shape[0]
    Bd, Ad = model.M[:, :3], model.M[:, 3:]
    E = np.zeros((_BLOCK + 1, N, N + 3))
    E[0, :, 3:] = np.eye(N)
    for m in range(_BLOCK):
        np.matmul(Ad, E[m], out=E[m + 1])
        E[m + 1, :, :3] += Bd
    O = (model.C[:, 3:] @ E[:-1]).reshape(3 * _BLOCK, N + 3)
    VT = {m: np.concatenate([O[: 3 * m], E[m]]).T.copy() for m in lengths}
    step = [np.concatenate([O[: 3 * m, :2], E[m, :, :2]]).T.copy() for m in range(_BLOCK + 1)]
    return VT, step


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
    a block.  A block of L steps is one BLAS product per row,
    ``matmul(X[:, None, :], VT[L])`` with ``VT[L]`` = V_L.T (see
    ``_lifted``), giving every row's L outputs and end state for inputs held
    at their values at the block start.  The block's channel events then run
    in step order: a send captures the limited, quantized controller output
    of its run at its step; an apply updates the unit's held value and that
    run's received mean, and adds the change times the step response from
    that step on to the run's remaining outputs and end state.  Every
    operation, the product included, acts on one row in a fixed order: each
    row is its own (1, N + 3) @ (N + 3, 3L + N) call to the same BLAS
    routine, so a run's numbers do not depend on the other rows, and a run
    is bitwise the same alone or in any batch.

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

    VT, step = _lifted(model, set(np.diff(cuts).tolist()))

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
        Y = np.matmul(X[:, None, :], VT[L])[:, 0, :]
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
    *,
    duration_s: float,
    dt: float,
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
    require_seed(seed, "seed", SimulationError)
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


def _window(t_s: np.ndarray, window: tuple[float, float]) -> slice:
    """The indices of the ascending ``t_s`` inside the closed window."""
    t0, t1 = window
    i0, i1 = int(np.searchsorted(t_s, t0, side="left")), int(np.searchsorted(t_s, t1, side="right"))
    if i1 - i0 < 2:
        raise SimulationError(f"window {window} selects fewer than two samples")
    return slice(i0, i1)


def _window_energy(t_s: np.ndarray, omega: np.ndarray, window: tuple[float, float]) -> float:
    sl = _window(t_s, window)
    return float(np.trapezoid(omega[sl] ** 2, t_s[sl]))


# the most runs advanced together per kernel call: a batch holds one omega
# history per run, so wider batches trade memory for fewer Python-level blocks
_BLOCK_RUNS = 17


def _batch_energies(
    model: _LoopModel,
    t_grid: np.ndarray,
    window: slice,
    channel_cfg: ChannelConfig,
    duration_s: float,
    participation: Participation,
    seeds: list,
) -> list[float]:
    """The energy over ``t_grid[window]`` of each run in one batch; a seed
    of None is the POD-off baseline.  Only the energies leave it, so a
    worker sends back no omega history."""
    runs = [
        None if seed is None
        else _schedules(_channels(channel_cfg, duration_s, seed, participation), t_grid)
        for seed in seeds
    ]
    omega = _lockstep(model, t_grid, runs, channel_cfg.quantization_step)[0][window]
    return [float(np.trapezoid(w**2, t_grid[window])) for w in omega.T]


def _pool_size(n_rows: int) -> int:
    """Workers for an ensemble of ``n_rows`` rows, the caller included; 1
    runs it in-process.

    One per CPU this process may use (its affinity mask, which ``taskset``
    sets) and at most one per ``_BLOCK_RUNS`` rows.  A platform without the
    ``fork`` start method or ``os.sched_getaffinity``, and a daemonic caller,
    which may not have children, get 1.
    """
    n_batches = -(-n_rows // _BLOCK_RUNS)
    if n_batches == 1:
        return 1
    import multiprocessing  # on first use: most ensembles are one batch

    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or not hasattr(os, "sched_getaffinity")
        or multiprocessing.current_process().daemon
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), n_batches)


def _cut(rows: list, count: int) -> list[list]:
    """``rows`` cut into ``count`` near-equal consecutive parts, the first
    ``len(rows) % count`` of them one row longer."""
    size, extra = divmod(len(rows), count)
    starts = [i * size + min(i, extra) for i in range(count + 1)]
    return [rows[a:b] for a, b in zip(starts[:-1], starts[1:])]


def _run_share(run_batch, share: list) -> list[float]:
    """One worker's share of an ensemble's rows: ``run_batch`` over the
    share cut into near-equal batches of at most ``_BLOCK_RUNS`` rows, the
    energies in row order."""
    batches = _cut(share, -(-len(share) // _BLOCK_RUNS))
    return [e for batch in batches for e in run_batch(batch)]


# The process's fork pool, ((pid, workers), executor), or None.  It is
# shared, so one thread at a time may run a multi-batch ensemble, and
# concurrent.futures joins its workers when the interpreter exits.
_pool = None


def _fork_pool(workers: int):
    """The process's pool of ``workers - 1`` fork workers, the caller being
    the first worker.  It forks on first use and serves later calls while
    the pid and ``workers`` stay the same, so a warm worker runs the code
    as it was when it was forked; a pool of another worker count is joined
    first."""
    global _pool
    key = (os.getpid(), workers)
    if _pool is not None and _pool[0] != key:
        _close_pool()
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn: a spawned worker would import numpy and podlab
        # again, 0.7-1.2 s against some 10-20 ms for a forked pool on a
        # 2-core VM
        context = multiprocessing.get_context("fork")
        _pool = key, ProcessPoolExecutor(workers - 1, mp_context=context)
    return _pool[1]


def _close_pool() -> None:
    """Shut the pool down and join its workers.  A pool inherited through a
    fork belongs to the parent, which joins it; the child only drops it."""
    global _pool
    if _pool is not None:
        ((pid, _), executor), _pool = _pool, None
        if pid == os.getpid():
            executor.shutdown()


# the exit hook of concurrent.futures has joined the workers by then; this
# frees the executor while its module can still run its finaliser
atexit.register(_close_pool)


def _pooled(run_batch, shares: list[list]) -> list[float]:
    """Every row's energy, in row order: the caller runs share 0 and the
    pool's workers the others, so one share never touches the pool.  A
    pool whose worker died since the last call is replaced; one whose
    worker dies during this call is dropped and the error raised.  Any
    error cancels or waits for the call's other shares before it
    propagates; the pool stays up unless it broke."""
    # BrokenProcessPool's base: its own module imports multiprocessing,
    # which a one-share call never needs
    from concurrent.futures import BrokenExecutor, wait

    def submit():
        return [_fork_pool(len(shares)).submit(_run_share, run_batch, s) for s in shares[1:]]

    # The caller submits the other shares, forking the pool on first use,
    # before it runs its own, so its heap sees the same batch arrays as a
    # serial run.
    try:
        futures = submit()
    except BrokenExecutor:  # a worker died since the last call
        _close_pool()
        futures = submit()
    try:
        energies = _run_share(run_batch, shares[0])
        for future in futures:
            energies += future.result()
    except BaseException as exc:
        for future in futures:
            future.cancel()
        wait(futures)
        if isinstance(exc, BrokenExecutor):
            _close_pool()
        raise
    return energies


def ensemble(
    n_runs: int,
    base_seed: int,
    plant: PlantPair,
    design_p: CompensatorDesign,
    design_q: CompensatorDesign,
    channel_cfg: ChannelConfig,
    scenario: DisturbanceScenario,
    metric_window: tuple[float, float],
    duration_s: float,
    dt: float,
    participation: Participation = Participation(),
) -> EnsembleStats:
    """Seeded Monte-Carlo ensemble; run i uses seed base_seed + i.

    The POD-off baseline and the runs, 1 + n_runs rows, are cut into
    near-equal consecutive shares, one per worker (``_pool_size``: one per
    CPU the process may use), and each share into near-equal batches of at
    most ``_BLOCK_RUNS`` rows for the lockstep kernel (``_run_share``), so
    the energies come back in run order.  The caller runs share 0; the
    other shares go to ``fork`` workers that get the loop model, the grid
    and their share's seeds, and return only window energies.  One batch,
    one CPU, a platform without ``fork`` or a daemonic caller makes one
    share, which runs in-process.  Each run's metric equals that of
    ``run_closed_loop`` with its seed, bit for bit, however the rows are
    cut, as a run does not depend on its batch (see ``_lockstep``).  The
    workers form one pool per process, which later calls reuse and the
    interpreter joins at exit (``_fork_pool``); a changed worker count, as
    under a new affinity mask, or a dead worker replaces it (``_pooled``).
    """
    if n_runs < 1:
        raise SimulationError("n_runs must be >= 1")
    require_seed(base_seed, "base_seed", SimulationError)
    t_grid = _time_grid(duration_s, dt, channel_cfg)
    window = _window(t_grid, metric_window)
    model = _loop_model(plant, design_p, design_q, scenario, dt)
    run_batch = functools.partial(
        _batch_energies, model, t_grid, window, channel_cfg, duration_s, participation
    )
    rows = [None] + [base_seed + i for i in range(n_runs)]  # None: the baseline
    baseline, *metrics = _pooled(run_batch, _cut(rows, _pool_size(len(rows))))
    if baseline == 0.0:
        raise SimulationError(
            f"the POD-off energy over metric window {metric_window} is 0, as in a "
            "window that ends before the disturbance acts: median_ratio is undefined"
        )
    return EnsembleStats(
        n_runs=n_runs,
        metrics=tuple(metrics),
        baseline_metric=baseline,
        median_ratio=float(np.median(metrics)) / baseline,
    )
