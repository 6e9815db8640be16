"""Event-driven emulator of the centralised controller's communication channel.

Models stochastic per-message delay, a limited message rate, optional value
quantization, and the measurement pipeline used to characterise the channel
(delay campaign and per-second throughput statistics).
"""
from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from ._csvfmt import format_text
from .errors import ChannelError

__all__ = [
    "DelayDistribution",
    "ChannelConfig",
    "DelayLog",
    "default_delay_distribution",
    "bin_probs",
    "sample_delay",
    "sample_delays",
    "quantize",
    "ChannelSchedule",
    "ChannelInstance",
    "require_sample_rate",
    "require_seed",
    "measure_campaign",
    "throughput_stats",
    "nyquist_limit",
]


@dataclass(frozen=True)
class DelayDistribution:
    """Delay PDF f(theta) with support [tau_min, tau_max] and mean theta."""

    kind: str  # empirical-histogram | uniform | truncated-normal | point-mass
    tau_min: float
    tau_max: float
    mean_s: float
    bin_edges: tuple[float, ...] = ()
    bin_probs: tuple[float, ...] = ()
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        fields = ("tau_min", "tau_max", "bin_edges", "bin_probs", "mu", "sigma", "mean_s")
        _require_finite(**{name: getattr(self, name) for name in fields})
        if self.kind not in ("empirical-histogram", "uniform", "truncated-normal", "point-mass"):
            raise ChannelError(f"unknown delay kind {self.kind!r}")
        if not (0 <= self.tau_min <= self.tau_max):
            raise ChannelError("require 0 <= tau_min <= tau_max")
        if self.kind == "empirical-histogram":
            total = sum(self.bin_probs)
            if abs(total - 1.0) > 1e-12:
                raise ChannelError(f"histogram mass {total} != 1")

    @classmethod
    def point_mass(cls, value: float) -> "DelayDistribution":
        return cls(kind="point-mass", tau_min=value, tau_max=value, mean_s=value)

    @classmethod
    def uniform(cls, low: float, high: float) -> "DelayDistribution":
        if not low < high:
            raise ChannelError("uniform delay requires low < high")
        return cls(kind="uniform", tau_min=low, tau_max=high, mean_s=0.5 * (low + high))

    @classmethod
    def empirical(cls, bin_edges, bin_probs) -> "DelayDistribution":
        edges = tuple(float(e) for e in bin_edges)
        probs = tuple(float(p) for p in bin_probs)
        if len(edges) != len(probs) + 1:
            raise ChannelError("need len(bin_edges) == len(bin_probs) + 1")
        if any(b < 0 for b in probs):
            raise ChannelError("negative bin probability")
        if any(e1 <= e0 for e0, e1 in zip(edges, edges[1:])):
            raise ChannelError("bin edges must be strictly increasing")
        centers = [0.5 * (e0 + e1) for e0, e1 in zip(edges, edges[1:])]
        mean = sum(p * c for p, c in zip(probs, centers))
        return cls(
            kind="empirical-histogram",
            tau_min=edges[0],
            tau_max=edges[-1],
            mean_s=mean,
            bin_edges=edges,
            bin_probs=probs,
        )

    @classmethod
    def truncated_normal(cls, mu: float, sigma: float, low: float, high: float) -> "DelayDistribution":
        _require_finite(mu=mu, sigma=sigma)
        if sigma <= 0 or not low < high:
            raise ChannelError("truncated normal requires sigma > 0 and low < high")
        a, b, s, p0, p1 = _truncnorm_cdfs(mu, sigma, low, high)
        mass = s * (p1 - p0)  # Phi(b) - Phi(a); it underflows about 37.5 sigma beyond mu
        if not mass >= np.finfo(float).tiny:
            raise ChannelError(f"N({mu:g}, {sigma:g}^2) mass underflows on [{low:g}, {high:g}]")
        # the closed form mu + sigma (phi(a) - phi(b)) / (Phi(b) - Phi(a))
        mean = mu + sigma * (math.exp(-a * a / 2) - math.exp(-b * b / 2)) / math.sqrt(math.tau) / mass
        return cls(
            kind="truncated-normal", tau_min=low, tau_max=high, mean_s=mean, mu=mu, sigma=sigma
        )


def _require_finite(**fields) -> None:
    """Raise ChannelError naming the first field (number or tuple) with a NaN or inf."""
    for name, value in fields.items():
        if not np.isfinite(value).all():
            raise ChannelError(f"{name} must be finite, got {value!r}")


def _truncnorm_cdfs(mu: float, sigma: float, low: float, high: float):
    """(a, b, s, Phi(s a), Phi(s b)) of [low, high]'s standard bounds; s = -1 reflects
    an interval above mu below it, where erfc keeps both CDFs' relative precision."""
    a, b = (low - mu) / sigma, (high - mu) / sigma
    s = -1.0 if a > 0 else 1.0
    p0, p1 = (0.5 * math.erfc(-s * z / math.sqrt(2.0)) for z in (a, b))
    return a, b, s, p0, p1


# the stand-in histogram's lognormal spread (coefficient of variation),
# support in seconds and bin count
_DEFAULT_SPREAD = 0.27
_DEFAULT_SUPPORT_S = (0.05, 1.5)
_DEFAULT_BINS = 20


def bin_probs(weights: np.ndarray) -> np.ndarray:
    """Histogram bin probabilities from non-negative bin weights: each
    weight over their total, with the rounding residual of the sum pushed
    into the modal bin so the mass is exactly one."""
    probs = weights / weights.sum()
    probs[int(np.argmax(probs))] += 1.0 - probs.sum()
    return probs


def default_delay_distribution(mean_s: float) -> DelayDistribution:
    """Right-skewed 20-bin stand-in histogram with an exactly pinned mean.

    The shape is a discretised lognormal; the location parameter is solved by
    bisection so the histogram mean (uniform-within-bin convention) equals
    ``mean_s`` to machine precision.
    """
    edges = np.linspace(*_DEFAULT_SUPPORT_S, _DEFAULT_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    s2 = math.log(1.0 + _DEFAULT_SPREAD**2)

    def hist_mean(mu: float) -> float:
        pdf = np.exp(-((np.log(centers) - mu) ** 2) / (2.0 * s2)) / centers
        probs = pdf / pdf.sum()
        return float(np.dot(probs, centers))

    lo, hi = math.log(mean_s) - 1.0, math.log(mean_s) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if hist_mean(mid) < mean_s else (lo, mid)
        if bracket == (lo, hi):
            # a fixed point: every later iteration would leave it as it is
            break
        lo, hi = bracket
    mu = 0.5 * (lo + hi)
    pdf = np.exp(-((np.log(centers) - mu) ** 2) / (2.0 * s2)) / centers
    return DelayDistribution.empirical(edges, bin_probs(pdf))


@dataclass(frozen=True)
class ChannelConfig:
    delay: DelayDistribution
    rate_hz: float
    emission: str  # jittered-periodic | poisson
    quantization_step: float = 0.0

    def __post_init__(self):
        _require_finite(rate_hz=self.rate_hz, quantization_step=self.quantization_step)
        if not self.rate_hz > 0:
            raise ChannelError("rate_hz must be positive")
        if self.quantization_step < 0:
            raise ChannelError("quantization_step must be non-negative")
        if self.emission not in ("jittered-periodic", "poisson"):
            raise ChannelError(f"unknown emission mode {self.emission!r}")


@dataclass(frozen=True, eq=False)
class DelayLog:
    """Send and receive times of a campaign's messages, in s."""

    t_sent: np.ndarray
    t_received: np.ndarray

    def __post_init__(self):
        if np.shape(self.t_sent) != np.shape(self.t_received):
            raise ChannelError("t_sent and t_received differ in shape")
        if np.any(np.less(self.t_received, self.t_sent)):
            raise ChannelError("negative delay in log")

    @property
    def delays(self) -> np.ndarray:
        return self.t_received - self.t_sent

    def csv_text(self) -> str:
        return format_text("t_sent_s,t_received_s", self.t_sent, self.t_received)


def sample_delay(dist: DelayDistribution, rng: np.random.Generator) -> float:
    """One delay draw; deterministic for a fixed generator state."""
    return float(sample_delays(dist, rng, 1)[0])


def sample_delays(dist: DelayDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n delay draws, bitwise equal to n successive ``sample_delay`` calls.

    The generator is advanced in the same order: the histogram kind draws a
    bin uniform and then a within-bin uniform per message, so both come from
    one interleaved block of 2n uniforms.
    """
    if dist.kind == "point-mass":
        return np.full(n, dist.mean_s)
    if dist.kind == "uniform":
        return rng.uniform(dist.tau_min, dist.tau_max, size=n)
    if dist.kind == "empirical-histogram":
        edges = np.asarray(dist.bin_edges)
        cum = np.cumsum(dist.bin_probs)
        d = rng.uniform(size=2 * n)
        u, v = d[0::2], d[1::2]
        i = np.searchsorted(cum, u * cum[-1], side="right")
        i = np.minimum(i, len(dist.bin_probs) - 1)
        # Generator.uniform(low, high) returns low + (high - low) * u
        return edges[i] + (edges[i + 1] - edges[i]) * v
    if dist.kind == "truncated-normal":
        # inverse CDF x = mu + s sigma Phi^-1((1 - u) Phi(s a) + u Phi(s b)), u oriented
        # as scipy's truncnorm.ppf; the clips hold p in (0, 1) and x on the support
        _, _, s, p0, p1 = _truncnorm_cdfs(dist.mu, dist.sigma, dist.tau_min, dist.tau_max)
        u = rng.uniform(size=n)
        p = np.clip((1.0 - u) * p0 + u * p1, 5e-324, 1.0 - 2**-53)
        z = np.array(list(map(statistics.NormalDist().inv_cdf, p.tolist())))
        return np.clip(dist.mu + s * dist.sigma * z, dist.tau_min, dist.tau_max)
    raise ChannelError(f"unknown delay kind {dist.kind!r}")


def _emission_times(cfg: ChannelConfig, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Message send instants over [0, duration].

    Intervals are drawn in blocks of ceil(duration * rate) + 4, and further
    blocks are drawn until the schedule passes the duration, so it is not
    cut short; a schedule that the first block covers does not depend on the
    later ones.
    """
    n = int(math.ceil(duration_s * cfg.rate_hz)) + 4
    period = 1.0 / cfg.rate_hz

    def block() -> np.ndarray:
        if cfg.emission == "jittered-periodic":
            return period * (1.0 + rng.uniform(-0.2, 0.2, size=n))
        return rng.exponential(period, size=n)

    intervals = block()
    t = np.cumsum(intervals)
    while t[-1] <= duration_s:
        intervals = np.concatenate([intervals, block()])
        t = np.cumsum(intervals)
    return t[t <= duration_s]


def quantize(value: float, step: float) -> float:
    """Round a sent value to the channel's quantization step (0 = off)."""
    if step > 0:
        return round(value / step) * step
    return value


@dataclass(frozen=True)
class ChannelSchedule:
    """A channel instance's events on a uniform simulation grid.

    ``send_steps[i]`` is the first grid step at or after ``t_send[i]``, for
    the messages sent within the grid.  ``applied`` lists the messages the
    receiver applies, in the order it applies them, and ``apply_steps`` the
    grid step at which each one is applied (non-decreasing).
    """

    send_steps: np.ndarray
    applied: np.ndarray
    apply_steps: np.ndarray


class ChannelInstance:
    """Single-owner event queue for one receiver.

    Send instants and per-message delays are drawn up-front from the
    instance's RNG stream; message payloads are captured online as simulated
    time passes each send instant.  Out-of-order arrivals older than the
    currently applied message are discarded (latest-timestamp-wins) and the
    receiver holds the last applied value.
    """

    def __init__(self, cfg: ChannelConfig, duration_s: float, rng: np.random.Generator):
        self.cfg = cfg
        self.t_send = _emission_times(cfg, duration_s, rng)
        self.t_arrive = self.t_send + sample_delays(cfg.delay, rng, len(self.t_send))
        self._values = np.zeros_like(self.t_send)
        self._arrival_order = np.argsort(self.t_arrive, kind="stable")
        self._send_ptr = 0
        self._arr_ptr = 0
        self._applied_send_t = -math.inf
        self._held = 0.0
        self.applied_times: list[float] = []

    def schedule(self, t_grid: np.ndarray) -> ChannelSchedule:
        """The events that ``step`` would process over ``t_grid``.

        Which message the receiver holds depends only on the send and arrival
        instants, never on the values sent: arrivals due by the last grid
        instant are taken in arrival order, and a message is applied only if
        it was sent after the one held, i.e. the applied messages are the
        running maxima of ``t_send`` in arrival order.
        """
        n = len(t_grid)
        send_steps = np.searchsorted(t_grid, self.t_send, side="left")
        order = self._arrival_order
        t_last = t_grid[-1] if n else -math.inf
        arrived = order[self.t_arrive[order] <= t_last]
        ts = self.t_send[arrived]
        fresh = ts > np.maximum.accumulate(np.concatenate(([-math.inf], ts[:-1])))
        applied = arrived[fresh]
        return ChannelSchedule(
            send_steps=send_steps[send_steps < n],
            applied=applied,
            apply_steps=np.searchsorted(t_grid, self.t_arrive[applied], side="left"),
        )

    def step(self, t: float, current_value: float) -> float:
        """Advance to time t, capturing sends and applying arrivals due by t."""
        while self._send_ptr < len(self.t_send) and self.t_send[self._send_ptr] <= t:
            self._values[self._send_ptr] = quantize(current_value, self.cfg.quantization_step)
            self._send_ptr += 1
        while self._arr_ptr < len(self._arrival_order):
            i = self._arrival_order[self._arr_ptr]
            if self.t_arrive[i] > t:
                break
            if i >= self._send_ptr:
                # not sent yet at this resolution (zero-delay edge); wait
                break
            self._arr_ptr += 1
            if self.t_send[i] > self._applied_send_t:
                self._applied_send_t = self.t_send[i]
                self._held = self._values[i]
                self.applied_times.append(float(self.t_arrive[i]))
        return self._held


def require_sample_rate(sample_rate_hz: float, cfg: ChannelConfig) -> None:
    """Raise ChannelError unless a grid sampling at ``sample_rate_hz`` takes
    at least 100 steps per message interval of the channel."""
    if sample_rate_hz < 100.0 * cfg.rate_hz:
        raise ChannelError(
            f"simulation rate {sample_rate_hz:g} Hz too low: require >= "
            f"{100.0 * cfg.rate_hz:g} Hz for rate_hz={cfg.rate_hz:g}"
        )


def require_seed(seed, name: str, error: type[Exception]) -> None:
    """Raise ``error`` unless ``seed`` is a non-negative integer, the only
    seed a numpy SeedSequence takes."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise error(f"{name} must be a non-negative integer, got {seed!r}")


def measure_campaign(cfg: ChannelConfig, n_messages: int, seed: int) -> DelayLog:
    """Delay-measurement campaign: one message per second, n_messages total,
    with the delays drawn from a generator seeded with ``seed``."""
    if n_messages < 1:
        raise ChannelError("n_messages must be >= 1")
    require_seed(seed, "seed", ChannelError)
    delays = sample_delays(cfg.delay, np.random.default_rng(seed), n_messages)
    t_sent = np.arange(n_messages, dtype=float)
    return DelayLog(t_sent, t_sent + delays)


_WINDOW_S = 1.0  # the counting window of throughput_stats, s


def throughput_stats(events) -> tuple[dict[int, float], int]:
    """Histogram of message counts per 1 s window, plus the modal count,
    over an array of event times."""
    times = np.asarray(events, dtype=float)
    if len(times) == 0:
        raise ChannelError("no events")
    span = times.max() - times.min()
    if span < 10.0 * _WINDOW_S:
        raise ChannelError(
            f"trace spans {span:g} s; need at least {10.0 * _WINDOW_S:g} s"
        )
    # anchor windows at whole seconds so "per second" means calendar
    # seconds, not offsets from the first arrival
    start = math.floor(times.min() / _WINDOW_S) * _WINDOW_S
    stop = math.ceil(times.max() / _WINDOW_S) * _WINDOW_S
    edges = np.arange(start, stop + 0.5 * _WINDOW_S, _WINDOW_S)
    counts = np.histogram(times, bins=edges)[0]
    vals, freq = np.unique(counts, return_counts=True)
    hist = {int(v): float(c) / counts.size for v, c in zip(vals, freq)}
    mode = int(vals[int(np.argmax(freq))])
    return hist, mode


def nyquist_limit(f_s: float) -> float:
    """Highest frequency conveyable by a channel sampling at f_s messages/s."""
    if not f_s > 0:
        raise ChannelError("message rate must be positive")
    return f_s / 2.0
