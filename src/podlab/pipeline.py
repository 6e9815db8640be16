"""End-to-end pipeline stages shared by the CLI and the verification suite."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import poddesign, sysid
from ._sim import zoh_lsim
from .config import delay_distribution, plant_config, prbs_config
from .delaymodel import DelaySurrogate, build_surrogate
from .errors import DesignError
from .lti import to_state_space
from .refplant import PlantPair, build_reference_plant
from .sysid import IdentifiedPlant

__all__ = [
    "LoopDesign",
    "run_prbs_experiment",
    "identify_path",
    "identify_both",
    "surrogate_for",
    "design_surrogate",
    "design_loop",
    "design_both",
]


@dataclass(frozen=True)
class LoopDesign:
    design: poddesign.CompensatorDesign
    context: poddesign.DesignContext
    diagnostics: poddesign.DesignDiagnostics


def run_prbs_experiment(cfg: dict, plant: PlantPair) -> tuple[np.ndarray, np.ndarray, float]:
    """One PRBS excitation applied at the plant input, upstream of the
    channel, and the response of each power path to it.

    Returns (u, Y, sample_rate_hz), Y with the active path's output in row 0
    and the reactive path's in row 1.
    """
    fs = cfg["identification"]["sample_rate_hz"]
    u = sysid.gen_prbs(prbs_config(cfg), sample_rate_hz=fs)
    Y = np.stack([zoh_lsim(path, u, 1.0 / fs) for path in (plant.p_path, plant.q_path)])
    return u, Y, fs


def identify_path(cfg: dict, u: np.ndarray, Y: np.ndarray, fs: float) -> list[IdentifiedPlant]:
    """The identified plant of each row of Y, the outputs of one experiment
    driven by u, from one input spectrum."""
    ident = cfg["identification"]
    band = tuple(ident["band_hz"])
    pcfg = prbs_config(cfg)
    # segment length = one PRBS period so the Welch estimate is leakage-free;
    # the first period is discarded as settle time so the slowly decaying
    # start-up transient does not bias the estimate near response notches
    period_samples = int(round(pcfg.period_s * fs))
    if len(u) > 3 * period_samples:
        u = u[period_samples:]
        Y = Y[:, period_samples:]
    nperseg = min(period_samples, len(u) // 2)
    freqs, H = sysid.estimate_frf(u, Y, fs, band, nperseg=nperseg)
    return [sysid.fit_rational(freqs, h, order=ident["fit_order"]) for h in H]


def identify_both(cfg: dict, plant: PlantPair | None = None) -> tuple[IdentifiedPlant, IdentifiedPlant]:
    if plant is None:
        plant = build_reference_plant(plant_config(cfg))
    idp, idq = identify_path(cfg, *run_prbs_experiment(cfg, plant))
    return idp, idq


def surrogate_for(cfg: dict, mean_delay_s: float) -> DelaySurrogate:
    """The Pade surrogate of a mean delay under the config's design settings."""
    design = cfg["design"]
    return build_surrogate(
        mean_delay_s,
        band_hz=tuple(design["band_hz"]),
        max_phase_err_deg=design["max_phase_err_deg"],
        max_order=design["max_pade_order"],
    )


def design_surrogate(cfg: dict) -> DelaySurrogate:
    """The surrogate of the mean delay of the config's channel model."""
    return surrogate_for(cfg, delay_distribution(cfg).mean_s)


def design_loop(
    cfg: dict,
    identified: IdentifiedPlant,
    surrogate: DelaySurrogate,
    loop: str,
) -> LoopDesign:
    design_cfg = cfg["design"]
    n, lo, hi = (design_cfg["gain_grid"][key] for key in ("n", "lo", "hi"))
    if n < 1:
        raise DesignError(f"design.gain_grid.n must be at least 1, got {n}")
    if not lo > 0:
        raise DesignError(f"design.gain_grid.lo must be positive, got {lo}")
    if n > 1 and not hi > lo:
        raise DesignError(f"design.gain_grid.hi must exceed design.gain_grid.lo = {lo}, got {hi}")
    modes = sysid.find_modes(identified, band_hz=tuple(design_cfg["band_hz"]))
    limits = poddesign.power_limits(poddesign.LimitsInput(**design_cfg["limits"]))
    limit = limits[0] if loop == "active" else limits[1]
    design, ctx, diag = poddesign.design_compensator(
        identified,
        surrogate,
        modes,
        channel_rate_hz=cfg["channel"]["rate_hz"],
        loop=loop,
        washout_Tw_s=design_cfg["washout_Tw_s"],
        limit_pu=limit,
    )
    K_grid = np.geomspace(lo, hi, n)
    target_hz = tuple(w / (2.0 * math.pi) for w in modes)
    gain = poddesign.select_gain(
        to_state_space(identified.tf), design, surrogate, target_hz, K_grid
    )
    design = replace(design, gain=gain)
    return LoopDesign(design=design, context=ctx, diagnostics=diag)


def design_both(
    cfg: dict,
    identified_p: IdentifiedPlant,
    identified_q: IdentifiedPlant,
    surrogate: DelaySurrogate,
) -> tuple[LoopDesign, LoopDesign]:
    return (
        design_loop(cfg, identified_p, surrogate, "active"),
        design_loop(cfg, identified_q, surrogate, "reactive"),
    )
