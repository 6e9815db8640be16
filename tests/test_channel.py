import math
import statistics

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from podlab.channel import (
    ChannelConfig,
    ChannelInstance,
    DelayDistribution,
    DelayLog,
    default_delay_distribution,
    measure_campaign,
    nyquist_limit,
    require_sample_rate,
    sample_delay,
    sample_delays,
    throughput_stats,
)
from podlab.errors import ChannelError

DELAY_KINDS = (
    default_delay_distribution(0.3),
    DelayDistribution.uniform(0.15, 0.45),
    DelayDistribution.truncated_normal(0.3, 0.075, 0.05, 1.5),
    DelayDistribution.point_mass(0.3),
)


def _transmit(u: np.ndarray, sample_rate_hz: float, cfg: ChannelConfig, seed: int) -> np.ndarray:
    """The receiver-side hold trace of ``u`` sent through one channel
    instance seeded with ``seed``, stepped once per sample."""
    dt = 1.0 / sample_rate_hz
    inst = ChannelInstance(cfg, duration_s=len(u) * dt, rng=np.random.default_rng(seed))
    return np.array([inst.step(k * dt, v) for k, v in enumerate(u)])


def _scalar_draw(dist, rng):
    """One delay per generator call sequence, written with scalar draws."""
    if dist.kind == "point-mass":
        return dist.mean_s
    if dist.kind == "uniform":
        return float(rng.uniform(dist.tau_min, dist.tau_max))
    if dist.kind == "empirical-histogram":
        cum = np.cumsum(dist.bin_probs)
        i = int(np.searchsorted(cum, rng.uniform() * cum[-1], side="right"))
        i = min(i, len(dist.bin_probs) - 1)
        return float(rng.uniform(dist.bin_edges[i], dist.bin_edges[i + 1]))
    # the truncated normal's documented scalar formula: with s = -1 for an
    # interval above mu, x = mu + s sigma Phi^-1((1 - u) Phi(s a) + u Phi(s b)),
    # Phi from erfc, p clipped to (0, 1) and x to the support
    def Phi(z):
        return 0.5 * math.erfc(-z / math.sqrt(2.0))

    a = (dist.tau_min - dist.mu) / dist.sigma
    b = (dist.tau_max - dist.mu) / dist.sigma
    s = -1.0 if a > 0 else 1.0
    u = rng.uniform()
    p = min(max((1.0 - u) * Phi(s * a) + u * Phi(s * b), 5e-324), 1.0 - 2**-53)
    x = dist.mu + s * dist.sigma * statistics.NormalDist().inv_cdf(p)
    return min(max(x, dist.tau_min), dist.tau_max)


def _reference_default_delay_distribution(mean_s):
    """default_delay_distribution with its bisection run for all 200
    iterations, as it was before it stopped at the fixed point."""
    from podlab.channel import _DEFAULT_BINS, _DEFAULT_SPREAD, _DEFAULT_SUPPORT_S, bin_probs

    edges = np.linspace(*_DEFAULT_SUPPORT_S, _DEFAULT_BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    s2 = math.log(1.0 + _DEFAULT_SPREAD**2)

    def hist_mean(mu):
        pdf = np.exp(-((np.log(centers) - mu) ** 2) / (2.0 * s2)) / centers
        return float(np.dot(pdf / pdf.sum(), centers))

    lo, hi = math.log(mean_s) - 1.0, math.log(mean_s) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hist_mean(mid) < mean_s:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    pdf = np.exp(-((np.log(centers) - mu) ** 2) / (2.0 * s2)) / centers
    return DelayDistribution.empirical(edges, bin_probs(pdf))


class TestDelayDistribution:
    def test_point_mass(self):
        d = DelayDistribution.point_mass(0.5)
        rng = np.random.default_rng(0)
        assert all(sample_delay(d, rng) == 0.5 for _ in range(100))

    def test_uniform_mean(self):
        d = DelayDistribution.uniform(0.2, 0.4)
        rng = np.random.default_rng(1)
        samples = [sample_delay(d, rng) for _ in range(10_000)]
        assert np.mean(samples) == pytest.approx(0.3, abs=0.005)

    def test_empirical_mean_within_2pct(self):
        d = default_delay_distribution(mean_s=0.3)
        rng = np.random.default_rng(2)
        samples = [sample_delay(d, rng) for _ in range(10_000)]
        assert abs(np.mean(samples) - 0.3) / 0.3 < 0.02

    def test_default_histogram_mean_pinned(self):
        d = default_delay_distribution(mean_s=0.3)
        assert d.kind == "empirical-histogram"
        assert len(d.bin_probs) == 20
        assert d.tau_min == 0.05 and d.tau_max == 1.5
        # mean of the uniform-within-bin mixture equals the pinned value
        centers = 0.5 * (np.array(d.bin_edges[:-1]) + np.array(d.bin_edges[1:]))
        assert float(np.dot(d.bin_probs, centers)) == pytest.approx(0.3, abs=1e-9)
        assert sum(d.bin_probs) == pytest.approx(1.0, abs=1e-12)

    def test_bisection_stops_at_its_fixed_point(self):
        """Stopping once an iteration leaves the bracket unchanged gives the
        histogram of all 200 iterations, bit for bit."""
        for mean_s in np.linspace(0.06, 1.4, 60).tolist():
            got = default_delay_distribution(mean_s)
            ref = _reference_default_delay_distribution(mean_s)
            assert got.bin_edges == ref.bin_edges
            assert np.array(got.bin_probs).tobytes() == np.array(ref.bin_probs).tobytes()

    def test_truncated_normal_support(self):
        d = DelayDistribution.truncated_normal(0.3, 0.1, 0.1, 0.6)
        rng = np.random.default_rng(3)
        samples = [sample_delay(d, rng) for _ in range(1000)]
        assert min(samples) >= 0.1 and max(samples) <= 0.6

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChannelError, match="unknown delay kind 'bogus'"):
            DelayDistribution(kind="bogus", tau_min=0.0, tau_max=1.0, mean_s=0.5)

    def test_bad_histogram_rejected(self):
        with pytest.raises(ChannelError):
            DelayDistribution.empirical([0.1, 0.2, 0.15], [0.5, 0.5])
        with pytest.raises(ChannelError):
            DelayDistribution.empirical([0.1, 0.2], [0.5, 0.5])

    @given(st.floats(min_value=0.01, max_value=1.0), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_uniform_samples_in_support(self, a, w):
        d = DelayDistribution.uniform(a, a + w)
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = sample_delay(d, rng)
            assert a <= v <= a + w


class TestVectorisedDraws:
    @pytest.mark.parametrize("dist", DELAY_KINDS, ids=lambda d: d.kind)
    def test_block_equals_sequential_draws(self, dist):
        for seed in range(12):
            n = 1 + 11 * seed
            ref_rng = np.random.default_rng(seed)
            ref = np.array([_scalar_draw(dist, ref_rng) for _ in range(n)])
            rng = np.random.default_rng(seed)
            assert np.array_equal(sample_delays(dist, rng, n), ref)
            one_rng = np.random.default_rng(seed)
            assert np.array_equal([sample_delay(dist, one_rng) for _ in range(n)], ref)
            # the generator is left where the sequential draws leave it
            assert rng.uniform() == ref_rng.uniform() == one_rng.uniform()


# (mu, sigma, low, high) with standard bounds a, b
TRUNCNORM_INTERVALS = {
    "interior": (0.3, 0.075, 0.05, 1.5),  # a = -3.3, b = 16
    "interior-wide": (0.3, 0.5, 0.05, 1.5),  # a = -0.5, b = 2.4
    "above": (0.2, 0.05, 0.3, 0.5),  # a = 2, b = 6
    "below": (0.5, 0.1, 0.05, 0.3),  # a = -4.5, b = -2
    "far-above": (0.3, 0.005, 0.45, 0.6),  # a = 30, b = 60
    "far-below": (1.0, 0.02, 0.1, 0.3),  # a = -45, b = -35
    "underflow-edge": (0.3, 0.005, 0.48, 0.49),  # a = 36, b = 38
}


class _FixedUniforms:
    """A generator stand-in whose uniforms are the given values."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def uniform(self, size):
        assert size == len(self.u)
        return self.u


def _truncnorm(mu, sigma, low, high):
    return scipy.stats.truncnorm((low - mu) / sigma, (high - mu) / sigma, loc=mu, scale=sigma)


@pytest.mark.parametrize("args", TRUNCNORM_INTERVALS.values(), ids=TRUNCNORM_INTERVALS)
class TestTruncatedNormalAgainstScipy:
    """scipy.stats.truncnorm is the reference for the closed-form mean and
    the inverse-CDF draws."""

    def test_mean(self, args):
        mean = DelayDistribution.truncated_normal(*args).mean_s
        assert mean == pytest.approx(_truncnorm(*args).mean(), rel=1e-12, abs=0)

    def test_draws_track_ppf(self, args):
        tails = np.geomspace(1e-6, 0.5, 400)
        u = np.concatenate([tails, np.linspace(0.0, 1.0, 1001)[1:-1], 1.0 - tails])
        x = sample_delays(DelayDistribution.truncated_normal(*args), _FixedUniforms(u), len(u))
        np.testing.assert_allclose(x, _truncnorm(*args).ppf(u), rtol=1e-10, atol=0)

    def test_ks_statistic(self, args):
        x = sample_delays(DelayDistribution.truncated_normal(*args), np.random.default_rng(11), 10_000)
        # 1.36 / sqrt(n): the KS test's 5% critical value
        assert scipy.stats.kstest(x, _truncnorm(*args).cdf).statistic < 0.0136

    def test_support(self, args):
        dist = DelayDistribution.truncated_normal(*args)
        edges = [0.0, 2**-1074, 1e-300, 1.0 - 2**-53]
        u = np.concatenate([edges, np.random.default_rng(12).uniform(size=1000)])
        x = sample_delays(dist, _FixedUniforms(u), len(u))
        assert np.all((dist.tau_min <= x) & (x <= dist.tau_max))


class TestNonFiniteParameters:
    """Each field must be finite: a NaN or an infinity once gave NaN or
    infinite means and delays, or a bare OverflowError."""

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: DelayDistribution.truncated_normal(math.nan, 0.1, 0.05, 1.5), "mu"),
            (lambda: DelayDistribution.truncated_normal(0.3, math.inf, 0.05, 1.5), "sigma"),
            (lambda: DelayDistribution.empirical([0.1, math.nan, 0.3], [0.5, 0.5]), "bin_edges"),
            (lambda: DelayDistribution.uniform(0.1, math.inf), "tau_max"),
            (lambda: DelayDistribution.point_mass(math.inf), "tau_min"),
        ],
    )
    def test_delay_distribution(self, build, field):
        with pytest.raises(ChannelError, match=f"^{field} must be finite"):
            build()

    @pytest.mark.parametrize("field", ["rate_hz", "quantization_step"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_channel_config(self, field, value):
        kwargs = {"rate_hz": 5.0, "quantization_step": 1e-3, field: value}
        with pytest.raises(ChannelError, match=f"^{field} must be finite"):
            ChannelConfig(delay=DelayDistribution.point_mass(0.1), emission="poisson", **kwargs)


def test_truncation_interval_without_normal_mass_refused():
    """From about 37.5 sigma beyond mu on, the interval's normal mass is
    below float64's smallest normal number, and neither its mean nor its
    draws would hold."""
    with pytest.raises(ChannelError, match=r"N\(0.3, 0.005\^2\).*\[0.6, 0.7\]"):
        DelayDistribution.truncated_normal(0.3, 0.005, 0.6, 0.7)
    with pytest.raises(ChannelError, match="underflows"):
        DelayDistribution.truncated_normal(1.0, 0.02, 0.1, 0.248)  # b = -37.6
    DelayDistribution.truncated_normal(1.0, 0.02, 0.1, 0.26)  # b = -37


class TestSchedule:
    @pytest.mark.parametrize("dist", DELAY_KINDS, ids=lambda d: d.kind)
    @pytest.mark.parametrize("emission", ["jittered-periodic", "poisson"])
    def test_schedule_matches_online_stepping(self, dist, emission):
        # the value sent at step k is k, so the held value names the step
        # that captured the held message
        cfg = ChannelConfig(delay=dist, rate_hz=6.0, emission=emission)
        t_grid = np.arange(20_000) * 1e-3
        for seed in range(3):
            online = ChannelInstance(cfg, 20.0, rng=np.random.default_rng(seed))
            held = np.array([online.step(t, float(k)) for k, t in enumerate(t_grid)])
            sch = ChannelInstance(cfg, 20.0, rng=np.random.default_rng(seed)).schedule(t_grid)
            assert online.applied_times == online.t_arrive[sch.applied].tolist()
            assert np.all(np.diff(sch.apply_steps) >= 0)
            assert np.all(np.diff(online.t_send[sch.applied]) > 0)
            j = np.searchsorted(sch.apply_steps, np.arange(len(t_grid)), side="right") - 1
            expect = np.where(j >= 0, sch.send_steps[sch.applied[j]], 0)
            assert np.array_equal(held, expect)


class TestEmissionSchedule:
    RATE, DURATION = 3.5, 30.0

    def _instance(self, emission, seed):
        cfg = ChannelConfig(
            delay=DelayDistribution.uniform(0.1, 0.5), rate_hz=self.RATE, emission=emission
        )
        return ChannelInstance(cfg, self.DURATION, rng=np.random.default_rng(seed))

    def test_poisson_schedule_runs_to_the_end(self):
        # the silent tail of a Poisson stream before the end of the window
        # is exponential at the message rate: P(tail >= 1 s) = exp(-3.5),
        # about 3 %, and P(tail >= 4 s) = exp(-14) per schedule
        tails = np.array(
            [self.DURATION - self._instance("poisson", s).t_send[-1] for s in range(2000)]
        )
        assert np.mean(tails >= 1.0) < 0.06
        assert tails.max() < 4.0

    def test_jittered_schedule_runs_to_the_end(self):
        # over 600 s the first block's sum wanders by about 1.5 s, more than
        # its 4-period margin; the silent tail of a jittered stream is at
        # most one interval, 1.2 periods
        cfg = ChannelConfig(
            delay=DelayDistribution.uniform(0.1, 0.5), rate_hz=self.RATE, emission="jittered-periodic"
        )
        duration = 600.0
        tails = [
            duration - ChannelInstance(cfg, duration, rng=np.random.default_rng(s)).t_send[-1]
            for s in range(500)
        ]
        assert max(tails) <= 1.2 / self.RATE

    @pytest.mark.parametrize("emission", ["jittered-periodic", "poisson"])
    def test_first_block_decides_the_schedules_it_covers(self, emission):
        n = math.ceil(self.DURATION * self.RATE) + 4
        period = 1.0 / self.RATE
        covered = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            if emission == "poisson":
                first = np.cumsum(rng.exponential(period, size=n))
            else:
                first = np.cumsum(period * (1.0 + rng.uniform(-0.2, 0.2, size=n)))
            inst = self._instance(emission, seed)
            k = int(np.count_nonzero(first <= self.DURATION))
            assert np.array_equal(inst.t_send[:k], first[:k])
            if first[-1] > self.DURATION:
                covered += 1
                assert len(inst.t_send) == k
                delays = rng.uniform(0.1, 0.5, size=k)
                assert np.array_equal(inst.t_arrive, inst.t_send + delays)
        assert covered > 100


class TestTransmit:
    def test_transparent_channel(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=50.0, emission="jittered-periodic"
        )
        fs = 5000.0
        t = np.arange(int(5 * fs)) / fs
        u = np.sin(2 * np.pi * 0.5 * t)
        y = _transmit(u, fs, cfg, seed=5)
        # received signal equals input to within one sampling/emission interval
        err = np.max(np.abs(y[int(fs):] - u[int(fs):]))
        assert err < 2 * np.pi * 0.5 * (1.2 / 50.0 + 1.0 / fs)

    def test_constant_input(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.1), rate_hz=5.0, emission="jittered-periodic"
        )
        y = _transmit(np.full(2000, 3.3), 1000.0, cfg, seed=6)
        assert np.all(np.isin(y, [0.0, 3.3]))
        assert np.all(y[500:] == 3.3)

    def test_cross_correlation_lag(self):
        # fast emission so the zero-order-hold interval does not bias the lag
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=35.0, emission="jittered-periodic"
        )
        fs = 3500.0
        t = np.arange(int(200 * fs)) / fs
        u = np.sin(2 * np.pi * 0.5 * t)
        y = _transmit(u, fs, cfg, seed=7)
        # restrict to steady portion and scan lags around the expected delay
        lags = np.arange(0, int(0.8 * fs))
        # corr[k] = dot(y[k:], u[:len(u) - k]), by one zero-padded FFT
        n_fft = 2 * len(u)
        corr = np.fft.irfft(np.fft.rfft(y, n_fft) * np.conj(np.fft.rfft(u, n_fft)), n_fft)[lags]
        lag_s = lags[int(np.argmax(corr))] / fs
        assert lag_s == pytest.approx(0.30, abs=0.05)

    def test_rate_guard(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.1), rate_hz=3.5, emission="jittered-periodic"
        )
        with pytest.raises(ChannelError, match="350"):
            require_sample_rate(100.0, cfg)

    def test_determinism(self):
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=3.5, emission="jittered-periodic"
        )
        u = np.sin(np.arange(20_000) * 0.001)
        y1 = _transmit(u, 1000.0, cfg, seed=42)
        y2 = _transmit(u, 1000.0, cfg, seed=42)
        assert np.array_equal(y1, y2)

    def test_causality_and_monotone_application(self):
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=3.5, emission="jittered-periodic"
        )
        inst = ChannelInstance(cfg, duration_s=60.0, rng=np.random.default_rng(9))
        for k in range(60_000):
            inst.step(k * 1e-3, float(k))
        applied = np.array(inst.applied_times)
        assert np.all(np.diff(applied) > 0)  # strictly increasing application
        assert np.all(inst.t_arrive >= inst.t_send)  # causality


class TestCampaign:
    def test_point_mass_delays(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.3), rate_hz=1.0, emission="jittered-periodic"
        )
        log = measure_campaign(cfg, 1200, seed=0)
        assert log.t_sent.shape == log.t_received.shape == (1200,)
        assert np.allclose(log.delays, 0.3, atol=1e-12)

    def test_zero_messages_rejected(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.3), rate_hz=1.0, emission="jittered-periodic"
        )
        with pytest.raises(ChannelError):
            measure_campaign(cfg, 0, seed=0)

    def test_histogram_total_variation(self):
        dist = default_delay_distribution(0.3)
        cfg = ChannelConfig(delay=dist, rate_hz=1.0, emission="jittered-periodic")
        log = measure_campaign(cfg, 1200, seed=11)
        counts, _ = np.histogram(log.delays, bins=np.array(dist.bin_edges))
        empirical = counts / counts.sum()
        tv = 0.5 * np.sum(np.abs(empirical - np.array(dist.bin_probs)))
        assert tv < 0.05

    def test_reproducible(self):
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=1.0, emission="jittered-periodic"
        )
        l1 = measure_campaign(cfg, 100, seed=21)
        l2 = measure_campaign(cfg, 100, seed=21)
        assert np.array_equal(l1.t_sent, l2.t_sent)
        assert np.array_equal(l1.t_received, l2.t_received)

    def test_times_match_per_message_arithmetic(self):
        """Message i is sent at float(i) and received at i + d, its delay
        r - s: the array log holds exactly these floats."""
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=1.0, emission="jittered-periodic"
        )
        log = measure_campaign(cfg, 500, seed=5)
        draws = sample_delays(cfg.delay, np.random.default_rng(5), 500).tolist()
        records = [(float(i), i + d) for i, d in enumerate(draws)]
        assert log.t_sent.tolist() == [s for s, _ in records]
        assert log.t_received.tolist() == [r for _, r in records]
        assert log.delays.tolist() == [r - s for s, r in records]

    def test_negative_delay_rejected_by_log(self):
        with pytest.raises(ChannelError, match="negative delay"):
            DelayLog(np.array([0.0, 1.0]), np.array([0.3, 0.5]))

    def test_log_columns_of_different_shapes_rejected(self):
        with pytest.raises(ChannelError, match="differ in shape"):
            DelayLog(np.array([0.0, 1.0]), np.array([0.3]))

    def test_csv_rows(self):
        """The rows of the log's CSV text."""
        log = DelayLog(np.array([0.0, 1.0]), np.array([0.3, 1.25]))
        assert log.csv_text() == "t_sent_s,t_received_s\n0,0.3\n1,1.25\n"

    def test_csv_rows_match_per_cell_format(self):
        """Each row of the log's CSV text against a per-cell ``%.9g``."""
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=1.0, emission="jittered-periodic"
        )
        log = measure_campaign(cfg, 500, seed=5)
        expect = [f"{s:.9g},{r:.9g}" for s, r in zip(log.t_sent.tolist(), log.t_received.tolist())]
        assert log.csv_text() == "\n".join(["t_sent_s,t_received_s", *expect]) + "\n"


class TestThroughput:
    def test_periodic_3p5_mass_on_3_and_4(self):
        cfg = ChannelConfig(
            delay=default_delay_distribution(0.3), rate_hz=3.5, emission="jittered-periodic"
        )
        inst = ChannelInstance(cfg, duration_s=300.0, rng=np.random.default_rng(30))
        hist, mode = throughput_stats(inst.t_arrive)
        assert hist.get(3, 0.0) + hist.get(4, 0.0) >= 0.8
        assert mode in (3, 4)

    def test_exact_periodic_rate_1(self):
        times = np.arange(100) + 0.5
        hist, mode = throughput_stats(times)
        assert mode == 1
        assert hist[1] == pytest.approx(1.0)

    def test_rate_10_mean_count(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.05), rate_hz=10.0, emission="jittered-periodic"
        )
        inst = ChannelInstance(cfg, duration_s=100.0, rng=np.random.default_rng(31))
        hist, _ = throughput_stats(inst.t_arrive)
        mean_count = sum(k * p for k, p in hist.items())
        assert mean_count == pytest.approx(10.0, abs=0.5)

    def test_short_trace_rejected(self):
        with pytest.raises(ChannelError):
            throughput_stats(np.linspace(0.0, 5.0, 20))


class TestNyquist:
    def test_default_rate(self):
        assert nyquist_limit(3.2) == 1.6

    def test_simple(self):
        assert nyquist_limit(10.0) == 5.0

    def test_zero_rejected(self):
        with pytest.raises(ChannelError):
            nyquist_limit(0.0)


class TestConfigValidation:
    def test_bad_rate(self):
        with pytest.raises(ChannelError):
            ChannelConfig(
                delay=DelayDistribution.point_mass(0.1), rate_hz=0.0, emission="jittered-periodic"
            )

    def test_bad_emission(self):
        with pytest.raises(ChannelError):
            ChannelConfig(
                delay=DelayDistribution.point_mass(0.1), rate_hz=1.0, emission="carrier-pigeon"
            )

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
    def test_bad_seed(self, seed):
        # numpy's SeedSequence would raise its own ValueError on a negative seed
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.1), rate_hz=1.0, emission="jittered-periodic"
        )
        with pytest.raises(ChannelError, match="seed must be a non-negative integer"):
            measure_campaign(cfg, 10, seed)

    def test_poisson_emission_runs(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.1), rate_hz=5.0, emission="poisson"
        )
        inst = ChannelInstance(cfg, duration_s=100.0, rng=np.random.default_rng(3))
        hist, _ = throughput_stats(inst.t_arrive)
        mean_count = sum(k * p for k, p in hist.items())
        assert mean_count == pytest.approx(5.0, abs=1.0)

    def test_quantization(self):
        cfg = ChannelConfig(
            delay=DelayDistribution.point_mass(0.0), rate_hz=5.0, emission="jittered-periodic",
            quantization_step=1e-3,
        )
        y = _transmit(np.full(5000, 0.12345), 1000.0, cfg, seed=4)
        applied = y[np.nonzero(y)]
        assert np.allclose(applied, 0.123)
