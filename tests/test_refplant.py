import math
from dataclasses import replace

import numpy as np
import pytest

from podlab._sim import zoh_lsim
from podlab.config import plant_config
from podlab.errors import PlantError
from podlab.lti import eigen
from podlab.refplant import (
    DisturbanceScenario,
    apply_disturbance,
    build_reference_plant,
)

KICK = DisturbanceScenario(
    kind="state-impulse", magnitude=0.05, start_s=0.0, duration_s=0.0, target="mode-states"
)


def _path_response(path, s: complex) -> complex:
    """C (sI - A)^-1 B + D of a single-input, single-output path at s."""
    return (path.C @ np.linalg.solve(s * np.eye(path.order) - path.A, path.B) + path.D)[0, 0]


class TestBuild:
    def test_default_modes_exact(self, plant):
        (m1, m2) = plant.true_modes
        assert m1.freq_hz == pytest.approx(0.45, abs=1e-9)
        assert m1.damping_ratio == pytest.approx(0.02, abs=1e-9)
        assert m2.freq_hz == pytest.approx(0.90, abs=1e-9)
        assert m2.damping_ratio == pytest.approx(0.03, abs=1e-9)

    def test_out_of_band_mode_rejected(self, cfg):
        with pytest.raises(PlantError):
            build_reference_plant(replace(plant_config(cfg), mode_freqs_hz=(0.45, 2.5)))

    def test_overlapping_modes_rejected(self, cfg):
        with pytest.raises(PlantError, match="5%"):
            build_reference_plant(replace(plant_config(cfg), mode_freqs_hz=(0.90, 0.92)))

    def test_damping_out_of_range_rejected(self, cfg):
        with pytest.raises(PlantError):
            build_reference_plant(replace(plant_config(cfg), damping_ratios=(0.02, 0.2)))

    def test_paths_share_mode_pairs(self, plant):
        ep = np.sort_complex(eigen(plant.p_path.A))
        eq = np.sort_complex(eigen(plant.q_path.A))
        assert np.allclose(ep, eq)

    def test_residual_dynamics_well_damped(self, plant):
        eigs = eigen(plant.A)
        others = [lam for lam in eigs if abs(lam.imag) < 1e-9]
        assert others and all(lam.real < -1.0 for lam in others)

    def test_paths_have_distinct_residue_phases(self, plant):
        for m in plant.true_modes:
            s = m.eigenvalue.imag * 1j
            ph_p = np.angle(_path_response(plant.p_path, s))
            ph_q = np.angle(_path_response(plant.q_path, s))
            assert abs(math.degrees(ph_p - ph_q)) > 5.0

    def test_intermode_phase_separation_exceeds_60deg(self, plant):
        # the default residues force a genuinely multimode compensation problem
        for path in (plant.p_path, plant.q_path):
            phases = [
                math.degrees(np.angle(_path_response(path, 1j * m.eigenvalue.imag)))
                for m in plant.true_modes
            ]
            assert abs(phases[1] - phases[0]) > 60.0


class TestDisturbance:
    def test_zero_magnitude_rejected(self):
        with pytest.raises(PlantError):
            replace(KICK, magnitude=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(PlantError):
            replace(KICK, kind="lightning", magnitude=0.1)

    def test_pulse_needs_duration(self):
        with pytest.raises(PlantError):
            replace(KICK, kind="input-step-pulse", magnitude=0.1, target="p-input")

    def test_state_impulse_excites_both_modes(self, plant):
        scenario = KICK
        dist = apply_disturbance(plant, scenario)
        dt = 1e-3
        n = int(60.0 / dt)
        y = zoh_lsim(plant.p_path, np.zeros(n), dt, x0=dist.state_delta)
        spec = np.abs(np.fft.rfft(y * np.hanning(n)))
        freqs = np.fft.rfftfreq(n, dt)
        band = (freqs > 0.2) & (freqs < 1.5)
        # local maxima of the band spectrum sit at the two modal frequencies
        for f_mode in (0.45, 0.90):
            near = band & (np.abs(freqs - f_mode) < 0.05)
            far = band & (np.abs(freqs - 0.45) > 0.15) & (np.abs(freqs - 0.90) > 0.15)
            assert spec[near].max() > 5.0 * spec[far].max()

    def test_pulse_descriptor(self, plant):
        scenario = DisturbanceScenario(
            kind="input-step-pulse", magnitude=0.1, start_s=1.0, duration_s=0.2,
            target="p-input",
        )
        dist = apply_disturbance(plant, scenario)
        assert dist.pulse_target == "p-input"
        assert np.all(dist.state_delta == 0.0)
        assert dist.duration_s == 0.2

    def test_bad_pulse_target_rejected(self, plant):
        scenario = DisturbanceScenario(
            kind="input-step-pulse", magnitude=0.1, start_s=0.0, duration_s=0.2,
            target="mode-states",
        )
        with pytest.raises(PlantError):
            apply_disturbance(plant, scenario)

    def test_determinism(self, plant):
        scenario = KICK
        d1 = apply_disturbance(plant, scenario)
        d2 = apply_disturbance(plant, scenario)
        assert np.array_equal(d1.state_delta, d2.state_delta)


class TestFreeResponse:
    def test_decay(self, plant):
        scenario = KICK
        dist = apply_disturbance(plant, scenario)
        dt = 1e-3
        n = int(30.0 / dt)
        y = zoh_lsim(plant.p_path, np.zeros(n), dt, x0=dist.state_delta)
        t = np.arange(n) * dt
        early = np.max(np.abs(y[t < 10.0]))
        late = np.max(np.abs(y[t > 20.0]))
        assert late < early

    def test_fft_recovers_mode_frequencies(self, plant):
        scenario = KICK
        dist = apply_disturbance(plant, scenario)
        dt = 1e-3
        n = int(60.0 / dt)
        y = zoh_lsim(plant.q_path, np.zeros(n), dt, x0=dist.state_delta)
        spec = np.abs(np.fft.rfft(y * np.hanning(n)))
        freqs = np.fft.rfftfreq(n, dt)
        df = freqs[1] - freqs[0]
        for f_mode in (0.45, 0.90):
            window = (freqs > f_mode - 0.1) & (freqs < f_mode + 0.1)
            peak = freqs[window][np.argmax(spec[window])]
            assert abs(peak - f_mode) <= df
