"""Channel and limiter statistics derived from outside the simulator.

``simloop.run_closed_loop`` builds the channel of unit ``i`` on loop ``loop``
(0 = active, 1 = reactive) from ``SeedSequence([seed, loop, i])``.  Rebuilding
the same ``ChannelInstance`` gives its send and arrival schedule.  Which
message a unit holds at each grid step depends only on that schedule, never
on the values sent, so every count here follows from ``t_send`` and
``t_arrive`` alone and repeats exactly for a given seed.
"""
from __future__ import annotations

import math

import numpy as np

from podlab.channel import ChannelConfig, ChannelInstance

def rebuild(cfg: ChannelConfig, duration_s: float, seed: int, loop: int, unit: int) -> ChannelInstance:
    rng = np.random.default_rng(np.random.SeedSequence([seed, loop, unit]))
    return ChannelInstance(cfg, duration_s, rng=rng)


def applied_messages(t_send: np.ndarray, t_arrive: np.ndarray, t_last: float) -> tuple[np.ndarray, int]:
    """Indices of the applied messages in the order they were applied, and
    the number of arrivals discarded as stale.

    The receiver processes arrivals due by the last grid instant in arrival
    order and applies a message only if it was sent after the one it holds
    (latest-send-wins), so the applied messages are the running maxima of
    ``t_send`` taken in arrival order.
    """
    order = np.argsort(t_arrive, kind="stable")
    arrived = order[t_arrive[order] <= t_last]
    ts = t_send[arrived]
    prev_max = np.maximum.accumulate(np.concatenate([[-math.inf], ts[:-1]]))
    fresh = ts > prev_max
    return arrived[fresh], int(np.count_nonzero(~fresh))


class ChannelCounts:
    """Message counts, hold age and silent tail summed over instances."""

    def __init__(self):
        self.sent = 0
        self.applied = 0
        self.stale = 0
        self.hold_age_sum = 0.0
        self.hold_age_n = 0
        self.hold_age_max = 0.0
        self.tail_gap_max = 0.0

    def add(self, inst: ChannelInstance, t_grid: np.ndarray, duration_s: float) -> None:
        """Fold one instance in."""
        t_last = float(t_grid[-1])
        applied, stale = applied_messages(inst.t_send, inst.t_arrive, t_last)
        sent = inst.t_send[inst.t_send <= t_last]
        self.sent += len(sent)
        self.applied += len(applied)
        self.stale += stale
        last_send = float(sent[-1]) if len(sent) else 0.0
        self.tail_gap_max = max(self.tail_gap_max, duration_s - last_send)
        arrive = inst.t_arrive[applied]
        held = np.searchsorted(arrive, t_grid, side="right") - 1
        valid = held >= 0
        if np.any(valid):
            age = t_grid[valid] - inst.t_send[applied][held[valid]]
            self.hold_age_sum += float(np.sum(age))
            self.hold_age_n += int(age.size)
            self.hold_age_max = max(self.hold_age_max, float(np.max(age)))

    def metrics(self) -> dict[str, float]:
        return {
            "channel.messages_sent": self.sent,
            "channel.messages_applied": self.applied,
            "channel.stale_discarded": self.stale,
            "channel.hold_age_s_mean": self.hold_age_sum / max(self.hold_age_n, 1),
            "channel.hold_age_s_max": self.hold_age_max,
            "channel.tail_gap_s_max": self.tail_gap_max,
        }


def limiter_clips(trace, cfg: ChannelConfig, duration_s: float, limits: tuple[float, float]) -> tuple[int, int]:
    """(clipped, total) over the send steps of every unit of both loops.

    A send step is the first grid step at or after a send instant; the value
    captured there is the limiter output, which sits exactly on the bound
    when the limiter clipped.
    """
    t_grid = trace.t_s
    clipped = total = 0
    for loop, sent, lim, n_units in (
        (0, trace.p_D_sent, limits[0], len(trace.p_applied_times)),
        (1, trace.q_D_sent, limits[1], len(trace.q_applied_times)),
    ):
        for unit in range(n_units):
            inst = rebuild(cfg, duration_s, trace.seed, loop, unit)
            steps = np.searchsorted(t_grid, inst.t_send, side="left")
            steps = steps[steps < len(t_grid)]
            total += len(steps)
            clipped += int(np.count_nonzero(np.abs(sent[steps]) >= lim)) if lim > 0 else 0
    return clipped, total
