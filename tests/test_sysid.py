import math
import warnings

import numpy as np
import pytest
import scipy.signal

from podlab._sim import zoh_lsim
from podlab.config import prbs_config
from podlab.errors import SysidError
from podlab.lti import TransferFunction, mode_report, to_state_space
from podlab.sysid import (
    IdentifiedPlant,
    _spectra,
    PrbsConfig,
    estimate_frf,
    find_modes,
    fit_rational,
    gen_prbs,
    prbs_chips,
)


class TestPrbs:
    def test_period_length(self):
        assert len(prbs_chips(4)) == 15

    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_balance_property(self, n):
        chips = prbs_chips(n)
        assert abs(np.sum(chips)) == 1.0

    def test_two_level(self):
        chips = prbs_chips(6)
        assert set(np.unique(chips)) == {-1.0, 1.0}

    def test_maximal_length_no_repeat_within_period(self):
        chips = prbs_chips(5)
        # autocorrelation of an m-sequence is -1/N off-peak
        n = len(chips)
        for shift in range(1, n):
            r = np.dot(chips, np.roll(chips, shift))
            assert r == pytest.approx(-1.0)

    def test_no_taps_for_unknown_register(self):
        with pytest.raises(SysidError, match="primitive"):
            prbs_chips(17)

    def test_config_validation(self):
        with pytest.raises(SysidError):
            PrbsConfig(register_bits=2)
        with pytest.raises(SysidError):
            PrbsConfig(chip_period_s=0.0)

    def test_flat_spectrum_over_band(self):
        cfg = PrbsConfig(register_bits=10, chip_period_s=0.1, amplitude_pu=1.0,
                         duration_s=102.3)
        fs = 100.0
        u = gen_prbs(cfg, sample_rate_hz=fs)
        n = len(u)
        spec = np.abs(np.fft.rfft(u)) / n
        freqs = np.fft.rfftfreq(n, 1.0 / fs)
        band = (freqs >= 0.1) & (freqs <= 2.0)
        # PRBS line spectrum: compare only bins carrying the sequence harmonics
        f0 = 1.0 / cfg.period_s
        lines = band & (spec > 0.5 * np.median(spec[band]))
        mags_db = 20.0 * np.log10(spec[lines])
        assert np.max(mags_db) - np.min(mags_db) < 3.0
        assert f0 < 0.1  # harmonics cover the whole band

    def test_gen_prbs_holds_chips(self):
        cfg = PrbsConfig(register_bits=3, chip_period_s=0.5, amplitude_pu=2.0,
                         duration_s=4.0)
        u = gen_prbs(cfg, sample_rate_hz=10.0)
        assert len(u) == 40
        assert set(np.unique(u)) == {-2.0, 2.0}
        # each chip held for 5 samples
        assert np.all(u[:5] == u[0])

    def test_default_input_holds_whole_chips_and_repeats(self, cfg):
        """Every chip spans exactly chip_period_s * fs samples, so the input
        repeats once per PRBS period.  A time-based index put 1 990 of the
        60 000 default samples one chip early (at k = 30, 0.3 / 0.1 gives
        2.9999999999999996)."""
        pcfg = prbs_config(cfg)
        fs = cfg["identification"]["sample_rate_hz"]
        u = gen_prbs(pcfg, sample_rate_hz=fs)
        per_chip = 10
        assert per_chip == pcfg.chip_period_s * fs
        held = u.reshape(-1, per_chip)
        assert np.all(held == held[:, :1])
        period = pcfg.period_chips * per_chip
        chips = pcfg.amplitude_pu * prbs_chips(pcfg.register_bits)
        assert np.array_equal(held[: pcfg.period_chips, 0], chips)
        for start in range(period, len(u) - period + 1, period):
            assert np.array_equal(u[start : start + period], u[:period])

    def test_chip_of_fractional_samples_rejected(self):
        cfg = PrbsConfig(register_bits=5, chip_period_s=0.125, amplitude_pu=1.0, duration_s=10.0)
        with pytest.raises(SysidError, match="whole number of samples"):
            gen_prbs(cfg, sample_rate_hz=100.0)
        assert len(gen_prbs(cfg, sample_rate_hz=80.0)) == 800


class TestEstimateFrf:
    def _prbs(self, fs=100.0, duration=400.0):
        cfg = PrbsConfig(register_bits=10, chip_period_s=0.1, amplitude_pu=1.0,
                         duration_s=duration)
        return gen_prbs(cfg, sample_rate_hz=fs)

    def test_static_gain(self):
        u = self._prbs()
        _, H = estimate_frf(u, 2.0 * u, 100.0, (0.1, 2.0))
        for h in H:
            assert abs(h) == pytest.approx(2.0, abs=0.01)
            assert math.degrees(np.angle(h)) == pytest.approx(0.0, abs=1.0)

    def test_one_sample_delay_phase_slope(self):
        fs = 100.0
        u = self._prbs(fs)
        y = np.concatenate([[0.0], u[:-1]])
        freqs, H = estimate_frf(u, y, fs, (0.1, 2.0))
        for f, h in zip(freqs, H):
            expect = -360.0 * f / fs
            assert math.degrees(np.angle(h)) == pytest.approx(expect, abs=0.5)

    def test_first_order_system(self):
        fs = 100.0
        u = self._prbs(fs)
        ss = to_state_space(TransferFunction([1.0], [1.0, 1.0]))
        y = zoh_lsim(ss, u, 1.0 / fs)
        freqs, H = estimate_frf(u, y, fs, (0.1, 2.0))
        for f, h in zip(freqs, H):
            s = 2j * math.pi * f
            exact = 1.0 / (1.0 + s)
            assert 20 * math.log10(abs(h) / abs(exact)) == pytest.approx(0.0, abs=1.0)
            dphi = math.degrees(np.angle(h / exact))
            assert dphi == pytest.approx(0.0, abs=5.0)

    def test_length_mismatch(self):
        with pytest.raises(SysidError):
            estimate_frf(np.zeros(100), np.zeros(99), 100.0, (0.1, 2.0))

    def test_short_trace_rejected(self):
        with pytest.raises(SysidError, match="short"):
            estimate_frf(np.zeros(1000), np.zeros(1000), 100.0, (0.1, 2.0))

    # odd nperseg has no Nyquist bin, so it doubles bins [1:], not [1:-1]
    @pytest.mark.parametrize(
        "window,nperseg", [("hann", 1024), ("hann", 1023), ("boxcar", 1024), ("boxcar", 1023)]
    )
    # boxcar-1024's Nyquist bin has S_uu = 0: NaN coherence here and in scipy
    @pytest.mark.filterwarnings("ignore:invalid value encountered in divide")
    def test_spectra_equal_scipy_bitwise(self, window, nperseg):
        # one short-time FFT per signal gives welch's and csd's spectra, and
        # the coherence estimate_frf gates on is scipy.signal.coherence's
        # value, bit for bit, though built from the spectra it already has
        rng = np.random.default_rng(3)
        u = self._prbs()
        ss = to_state_space(TransferFunction([1.0], [1.0, 1.0]))
        y = zoh_lsim(ss, u, 0.01) + 0.05 * rng.normal(size=len(u))
        f, s_uu, s_uy, coh = _spectra(u, y, 100.0, window, nperseg)
        kw = dict(fs=100.0, window=window, nperseg=nperseg, noverlap=nperseg // 2, detrend=False)
        f_ref, coh_ref = scipy.signal.coherence(u, y, **kw)
        assert f.tobytes() == f_ref.tobytes()
        assert coh.tobytes() == coh_ref.tobytes()
        assert s_uu.tobytes() == scipy.signal.welch(u, **kw)[1].tobytes()
        assert s_uy.tobytes() == scipy.signal.csd(u, y, **kw)[1].tobytes()

    @pytest.mark.parametrize("nperseg", [0, 60001])
    def test_segment_outside_trace_rejected(self, nperseg):
        u = self._prbs()
        with pytest.raises(SysidError, match="nperseg"):
            estimate_frf(u, u, 100.0, (0.1, 2.0), nperseg=nperseg)

    def test_low_coherence_rejected(self):
        rng = np.random.default_rng(0)
        u = self._prbs()
        y = rng.normal(size=len(u))  # unrelated output
        with pytest.raises(SysidError, match="coherence"):
            estimate_frf(u, y, 100.0, (0.1, 2.0))


class TestFitRational:
    def _sample(self, tf, freqs):
        return freqs, np.array([tf(2j * math.pi * f) for f in freqs])

    def test_exact_recovery_fourth_order(self):
        poles = [
            complex(-0.1, 2.0), complex(-0.1, -2.0),
            complex(-0.3, 4.0), complex(-0.3, -4.0),
        ]
        den = np.real(np.poly(poles))[::-1]
        den = (den / den[0]).tolist()
        num = [1.0, 0.2, 0.05]
        tf = TransferFunction(num, den)
        freqs = np.geomspace(0.05, 3.0, 60)
        ident = fit_rational(*self._sample(tf, freqs), order=4)
        for f in freqs:
            s = 2j * math.pi * f
            assert abs(ident.tf(s) - tf(s)) <= 1e-6 * abs(tf(s))

    def test_under_modelling_reports_error(self, identified):
        # order-2 fit of a two-mode-pair plant cannot follow both resonances
        idp, _ = identified
        freqs = np.geomspace(0.1, 2.0, 60)
        low = fit_rational(*self._sample(idp.tf, freqs), order=2)
        assert low.frf_fit_mag_err_db > 3.0 or low.frf_fit_phase_err_deg > 15.0

    def test_unstable_poles_reflected(self):
        unstable = TransferFunction([1.0], [-1.0, 1.0])  # pole at +1
        freqs = np.geomspace(0.05, 3.0, 40)
        with pytest.warns(UserWarning, match="reflected"):
            ident = fit_rational(*self._sample(unstable, freqs), order=1)
        poles = np.roots(np.asarray(ident.tf.den)[::-1])
        assert np.all(poles.real < 0)

    def test_too_few_points(self):
        tf = TransferFunction([1.0], [1.0, 1.0])
        with pytest.raises(SysidError, match="points"):
            fit_rational(*self._sample(tf, np.geomspace(0.1, 1.0, 10)), order=4)

    def test_unequal_lengths_rejected(self):
        freqs, H = self._sample(TransferFunction([1.0], [1.0, 1.0]), np.geomspace(0.1, 1.0, 20))
        with pytest.raises(SysidError, match="20 frequencies for 19 response values"):
            fit_rational(freqs, H[:-1], order=2)

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_bad_frequency_rejected(self, bad):
        freqs, H = self._sample(TransferFunction([1.0], [1.0, 1.0]), np.geomspace(0.1, 1.0, 20))
        freqs[3] = bad
        with pytest.raises(SysidError, match="frequency must be finite and positive"):
            fit_rational(freqs, H, order=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 1.0)])
    def test_non_finite_response_rejected(self, bad, capfd):
        freqs, H = self._sample(TransferFunction([1.0], [1.0, 1.0]), np.geomspace(0.1, 1.0, 40))
        H[5] = bad
        with pytest.raises(SysidError, match="response must be finite"):
            fit_rational(freqs, H, order=2)
        # a NaN that reaches LAPACK prints "DLASCL parameter number 4" to stderr
        assert capfd.readouterr().err == ""

    def test_default_plant_modes_within_2pct(self, identified, plant):
        for ident in identified:
            got = sorted(m.freq_hz for m in ident.modes if 0.1 <= m.freq_hz <= 2.0)[:2]
            for g, m in zip(sorted(got), plant.true_modes):
                assert abs(g - m.freq_hz) / m.freq_hz < 0.02

    def test_fit_matches_frf_within_tolerance(self, identified):
        for ident in identified:
            assert ident.frf_fit_mag_err_db < 3.0
            assert ident.frf_fit_phase_err_deg < 15.0


class TestFindModes:
    def _plant_with_poles(self, poles):
        modes = tuple(mode_report(p) for p in poles if p.imag > 0)
        den = np.real(np.poly(poles))[::-1]
        return IdentifiedPlant(
            tf=TransferFunction([1.0], den),
            fit_band_hz=(0.1, 2.0),
            frf_fit_mag_err_db=0.0,
            frf_fit_phase_err_deg=0.0,
            modes=modes,
        )

    def test_lightly_damped_pair_selection(self):
        poles = [
            complex(-0.057, 2.827), complex(-0.057, -2.827),
            complex(-0.170, 5.655), complex(-0.170, -5.655),
            complex(-3.0, 0.0),
        ]
        w1, w2 = find_modes(self._plant_with_poles(poles))
        assert w1 == pytest.approx(2.827, abs=1e-3)
        assert w2 == pytest.approx(5.655, abs=1e-3)

    def test_single_mode_rejected(self):
        poles = [complex(-0.057, 2.827), complex(-0.057, -2.827), complex(-3.0, 0.0)]
        with pytest.raises(SysidError):
            find_modes(self._plant_with_poles(poles))

    def test_tie_breaks_to_lower_frequency(self):
        # three pairs with identical damping; the two lowest frequencies win
        def pole(f_hz, zeta):
            wn = 2 * math.pi * f_hz / math.sqrt(1 - zeta**2)
            return complex(-zeta * wn, wn * math.sqrt(1 - zeta**2))

        poles = []
        for f in (0.4, 0.8, 1.6):
            p = pole(f, 0.02)
            poles += [p, p.conjugate()]
        w1, w2 = find_modes(self._plant_with_poles(poles))
        assert w1 / (2 * math.pi) == pytest.approx(0.4, rel=1e-6)
        assert w2 / (2 * math.pi) == pytest.approx(0.8, rel=1e-6)

    def test_out_of_band_modes_ignored(self):
        def pole(f_hz, zeta):
            wn = 2 * math.pi * f_hz / math.sqrt(1 - zeta**2)
            return complex(-zeta * wn, wn * math.sqrt(1 - zeta**2))

        poles = []
        for f, z in ((0.05, 0.01), (0.45, 0.02), (0.9, 0.03)):
            p = pole(f, z)
            poles += [p, p.conjugate()]
        w1, w2 = find_modes(self._plant_with_poles(poles), band_hz=(0.1, 2.0))
        assert w1 / (2 * math.pi) == pytest.approx(0.45, rel=1e-6)
