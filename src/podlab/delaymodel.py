"""Design surrogate for the stochastic channel delay.

The time-varying delay is collapsed to its expected value theta; the exact
response e^{-s*theta} is approximated by a diagonal Pade rational function,
validated against the exact delay phase over the design band.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DelayModelError
from .lti import TransferFunction, _response, eigen, to_state_space, unwrapped_phase_deg

__all__ = [
    "DelaySurrogate",
    "pade_approx",
    "validate_surrogate",
    "build_surrogate",
]

_VALIDATION_POINTS = 200


@dataclass(frozen=True)
class DelaySurrogate:
    theta_s: float
    pade: TransferFunction
    order: tuple[int, int]
    band_hz: tuple[float, float]
    max_phase_err_deg: float

    def __post_init__(self):
        if isinstance(self.theta_s, bool):
            raise TypeError("theta_s must not be a bool")
        if [type(n) for n in self.order] != [int, int]:
            raise TypeError(f"order must be two integers, got {self.order!r}")
        if not 0 <= self.theta_s < math.inf:  # TypeError for a non-number
            raise DelayModelError(f"theta_s must be finite and non-negative, got {self.theta_s!r}")

    def to_dict(self) -> dict:
        return {
            "theta_s": self.theta_s,
            "order": list(self.order),
            "band_hz": list(self.band_hz),
            "max_phase_err_deg": self.max_phase_err_deg,
            "num": list(self.pade.num),
            "den": list(self.pade.den),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DelaySurrogate":
        return cls(
            theta_s=d["theta_s"],
            pade=TransferFunction(d["num"], d["den"]),
            order=tuple(d["order"]),
            band_hz=tuple(d["band_hz"]),
            max_phase_err_deg=d["max_phase_err_deg"],
        )


def pade_approx(theta_s: float, order: int) -> TransferFunction:
    """Diagonal Pade approximant of e^{-s*theta}."""
    if theta_s < 0:
        raise DelayModelError("theta_s must be non-negative")
    if not 1 <= order <= 8:
        raise DelayModelError(f"Pade order must be in [1, 8], got {order}")
    if theta_s == 0.0:
        return TransferFunction.constant(1.0)
    n = order
    num = np.empty(n + 1)
    den = np.empty(n + 1)
    for k in range(n + 1):
        c = (
            math.factorial(2 * n - k)
            * math.factorial(n)
            / (math.factorial(2 * n) * math.factorial(k) * math.factorial(n - k))
        )
        num[k] = c * (-theta_s) ** k
        den[k] = c * theta_s**k
    return TransferFunction(num, den)


def validate_surrogate(
    pade: TransferFunction, theta_s: float, band_hz: tuple[float, float]
) -> float:
    """Max phase error (deg) vs the exact delay on a 200-point log grid."""
    lo, hi = band_hz
    if not lo < hi:
        raise DelayModelError("band must satisfy low < high")
    freqs = np.geomspace(lo, hi, _VALIDATION_POINTS)
    approx = unwrapped_phase_deg(pade, freqs)
    exact = -360.0 * freqs * theta_s
    return float(np.max(np.abs(approx - exact)))


def build_surrogate(
    theta_s: float,
    band_hz: tuple[float, float],
    max_phase_err_deg: float,
    max_order: int,
) -> DelaySurrogate:
    """Escalate the Pade order of e^{-s*theta_s} until the phase criterion
    holds on the band."""
    theta = float(theta_s)
    if theta == 0.0:
        return DelaySurrogate(0.0, TransferFunction.constant(1.0), (0, 0), tuple(band_hz), 0.0)
    last_err = math.inf
    for order in range(1, max_order + 1):
        tf = pade_approx(theta, order)
        err = validate_surrogate(tf, theta, band_hz)
        if err < max_phase_err_deg:
            _check_surrogate(tf, band_hz)
            return DelaySurrogate(theta, tf, (order, order), tuple(band_hz), err)
        last_err = err
    raise DelayModelError(
        f"no Pade order up to {max_order} meets {max_phase_err_deg} deg on "
        f"{band_hz} (best {last_err:.2f} deg)"
    )


def _check_surrogate(tf: TransferFunction, band_hz: tuple[float, float]) -> None:
    freqs = np.geomspace(band_hz[0], band_hz[1], _VALIDATION_POINTS)
    mags = np.abs(_response(tf, freqs))
    if np.any(mags < 0.99) or np.any(mags > 1.01):
        raise DelayModelError("Pade surrogate deviates from all-pass by more than 1%")
    poles = eigen(to_state_space(tf).A)
    if np.any(poles.real >= 0):
        raise DelayModelError("Pade surrogate is unstable")
