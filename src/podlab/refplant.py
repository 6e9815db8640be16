"""Reduced linear surrogate of the benchmark transmission network.

Two lightly damped oscillatory modes in the 0.1-2 Hz range, exposed through
an active-power path and a reactive-power path that share the mode pair but
differ in residue phases, plus deterministic disturbance scenarios.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PlantError
from .lti import ModeReport, StateSpace, mode_report

__all__ = [
    "PlantConfig",
    "PlantPair",
    "DisturbanceScenario",
    "AppliedDisturbance",
    "build_reference_plant",
    "apply_disturbance",
]


@dataclass(frozen=True)
class PlantConfig:
    mode_freqs_hz: tuple[float, float]
    damping_ratios: tuple[float, float]
    # per-path phase of each modal term at its resonant frequency
    p_residue_phases_deg: tuple[float, float]
    q_residue_phases_deg: tuple[float, float]
    residual_corner_hz: float
    residual_gain: float


@dataclass(frozen=True)
class PlantPair:
    p_path: StateSpace
    q_path: StateSpace
    true_modes: tuple[ModeReport, ModeReport]
    config: PlantConfig

    @property
    def A(self) -> np.ndarray:
        return self.p_path.A

    @property
    def C(self) -> np.ndarray:
        return self.p_path.C

    @property
    def B_p(self) -> np.ndarray:
        return self.p_path.B

    @property
    def B_q(self) -> np.ndarray:
        return self.q_path.B


@dataclass(frozen=True)
class DisturbanceScenario:
    kind: str  # state-impulse | input-step-pulse
    magnitude: float
    start_s: float
    duration_s: float
    target: str  # p-input | q-input | mode-states

    def __post_init__(self):
        if self.magnitude == 0:
            raise PlantError("disturbance magnitude must be nonzero")
        if self.start_s < 0:
            raise PlantError("start_s must be >= 0")
        if self.kind not in ("state-impulse", "input-step-pulse"):
            raise PlantError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "input-step-pulse" and self.duration_s <= 0:
            raise PlantError("input-step-pulse requires duration_s > 0")


@dataclass(frozen=True)
class AppliedDisturbance:
    """Deterministic realization of a scenario for the simulator.

    ``state_delta`` is added to the plant state when simulated time crosses
    ``start_s``; the pulse (if any) adds ``magnitude`` to the named input over
    [start_s, start_s + duration_s).
    """

    state_delta: np.ndarray
    pulse_target: str | None
    magnitude: float
    start_s: float
    duration_s: float


def _mode_block(freq_hz: float, zeta: float) -> tuple[np.ndarray, float, float]:
    """A 2x2 modal block; returns (A_block, omega_d, omega_n)."""
    omega_d = 2.0 * math.pi * freq_hz
    omega_n = omega_d / math.sqrt(1.0 - zeta**2)
    A = np.array([[0.0, 1.0], [-omega_n**2, -2.0 * zeta * omega_n]])
    return A, omega_d, omega_n


def _mode_input(
    freq_hz: float, zeta: float, phase_deg: float
) -> np.ndarray:
    """B entries so the modal term has unit peak gain and the given phase.

    For the block with output x1, the input-to-output numerator is
    b1*s + (2*zeta*omega_n*b1 + b2); the entries are solved so that at the
    damped frequency the term's value is exp(j*phase).
    """
    _, omega_d, omega_n = _mode_block(freq_hz, zeta)
    den = complex(omega_n**2 - omega_d**2, 2.0 * zeta * omega_n * omega_d)
    target_num = abs(den) * np.exp(1j * (math.radians(phase_deg) + np.angle(den)))
    b1 = target_num.imag / omega_d
    b2 = target_num.real - 2.0 * zeta * omega_n * b1
    return np.array([b1, b2])


def build_reference_plant(cfg: PlantConfig) -> PlantPair:
    """Construct the two-mode surrogate with shared modes, distinct residues."""
    f1, f2 = cfg.mode_freqs_hz
    for f in (f1, f2):
        if not 0.1 < f < 2.0:
            raise PlantError(f"mode frequency {f} Hz outside (0.1, 2) Hz")
    if abs(f2 - f1) < 0.05 * max(f1, f2):
        raise PlantError(
            f"mode frequencies {f1} and {f2} Hz overlap within 5%; "
            "the two-mode design presumes separable modes"
        )
    for z in cfg.damping_ratios:
        if not 0.0 < z < 0.08:
            raise PlantError(f"damping ratio {z} outside (0, 0.08)")
    if not cfg.residual_corner_hz > 1.0 / (2.0 * math.pi):
        raise PlantError("residual corner must place its pole left of Re = -1")

    blocks = []
    modes = []
    for f, z in zip(cfg.mode_freqs_hz, cfg.damping_ratios):
        A_blk, omega_d, omega_n = _mode_block(f, z)
        blocks.append(A_blk)
        modes.append(mode_report(complex(-z * omega_n, omega_d)))
    p_res = 2.0 * math.pi * cfg.residual_corner_hz
    n = 5
    A = np.zeros((n, n))
    A[0:2, 0:2] = blocks[0]
    A[2:4, 2:4] = blocks[1]
    A[4, 4] = -p_res
    C = np.array([[1.0, 0.0, 1.0, 0.0, 1.0]])

    def build_B(phases: tuple[float, float]) -> np.ndarray:
        B = np.zeros((n, 1))
        B[0:2, 0] = _mode_input(f1, cfg.damping_ratios[0], phases[0])
        B[2:4, 0] = _mode_input(f2, cfg.damping_ratios[1], phases[1])
        B[4, 0] = cfg.residual_gain * p_res
        return B

    D = np.zeros((1, 1))
    p_path = StateSpace(A, build_B(cfg.p_residue_phases_deg), C, D)
    q_path = StateSpace(A, build_B(cfg.q_residue_phases_deg), C, D)
    return PlantPair(p_path=p_path, q_path=q_path, true_modes=tuple(modes), config=cfg)


def apply_disturbance(plant: PlantPair, scenario: DisturbanceScenario) -> AppliedDisturbance:
    """Map a scenario to an initial-state / exogenous-input description."""
    n = plant.A.shape[0]
    if scenario.kind == "state-impulse":
        if scenario.target != "mode-states":
            raise PlantError(
                f"state-impulse targets 'mode-states', got {scenario.target!r}"
            )
        delta = np.zeros(n)
        # velocity kick on both modal blocks, scaled so each mode's output
        # contribution peaks near the scenario magnitude
        for i, m in enumerate(plant.true_modes):
            delta[2 * i + 1] = scenario.magnitude * abs(m.eigenvalue)
        return AppliedDisturbance(
            state_delta=delta,
            pulse_target=None,
            magnitude=scenario.magnitude,
            start_s=scenario.start_s,
            duration_s=0.0,
        )
    if scenario.target not in ("p-input", "q-input"):
        raise PlantError(
            f"input-step-pulse targets 'p-input' or 'q-input', got {scenario.target!r}"
        )
    return AppliedDisturbance(
        state_delta=np.zeros(n),
        pulse_target=scenario.target,
        magnitude=scenario.magnitude,
        start_s=scenario.start_s,
        duration_s=scenario.duration_s,
    )
