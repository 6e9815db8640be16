"""PRBS-based identification of the plant transfer functions.

Maximal-length PRBS excitation, Welch cross-spectral frequency-response
estimation, and an iterated weighted least-squares (Sanathanan-Koerner)
rational fit.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SysidError
from .lti import ModeReport, TransferFunction, _response, mode_report

__all__ = [
    "PrbsConfig",
    "IdentifiedPlant",
    "gen_prbs",
    "estimate_frf",
    "fit_rational",
    "find_modes",
]

# taps of primitive polynomials for maximal-length LFSRs (1-indexed)
_PRIMITIVE_TAPS = {
    3: (3, 2),
    4: (4, 3),
    5: (5, 3),
    6: (6, 5),
    7: (7, 6),
    8: (8, 6, 5, 4),
    9: (9, 5),
    10: (10, 7),
    11: (11, 9),
    12: (12, 6, 4, 1),
    13: (13, 4, 3, 1),
    14: (14, 5, 3, 1),
    15: (15, 14),
    16: (16, 15, 13, 4),
}

_COHERENCE_LIMIT = 0.6
_FIT_ITERATIONS = 20
_FIT_TOL = 1e-8


@dataclass(frozen=True)
class PrbsConfig:
    register_bits: int
    chip_period_s: float
    amplitude_pu: float
    duration_s: float

    def __post_init__(self):
        if not 3 <= self.register_bits <= 16:
            raise SysidError("register_bits must be in [3, 16]")
        if self.chip_period_s <= 0 or self.amplitude_pu <= 0 or self.duration_s <= 0:
            raise SysidError("chip_period_s, amplitude_pu and duration_s must be positive")

    @property
    def period_chips(self) -> int:
        return 2**self.register_bits - 1

    @property
    def period_s(self) -> float:
        return self.period_chips * self.chip_period_s


@functools.lru_cache(maxsize=None)
def prbs_chips(register_bits: int) -> np.ndarray:
    """One period of the +/-1 maximal-length sequence, computed once per
    register length; the returned array is shared and read-only."""
    if register_bits not in _PRIMITIVE_TAPS:
        raise SysidError(f"no primitive polynomial tabulated for n={register_bits}")
    taps = _PRIMITIVE_TAPS[register_bits]
    state = [1] * register_bits
    chips = np.empty(2**register_bits - 1)
    for i in range(len(chips)):
        out = state[-1]
        chips[i] = 1.0 if out else -1.0
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        state = [fb] + state[:-1]
    chips.setflags(write=False)
    return chips


def gen_prbs(cfg: PrbsConfig, sample_rate_hz: float) -> np.ndarray:
    """Sampled PRBS: chips held for chip_period_s each, repeated to duration.

    A chip must span a whole number of samples.  Sample k then lies in chip
    k // samples_per_chip, so every chip holds the same count and the input
    repeats exactly once per PRBS period, as identify_path's leakage-free
    Welch segments require.
    """
    chips = prbs_chips(cfg.register_bits)
    n = int(round(cfg.duration_s * sample_rate_hz))
    per_chip = cfg.chip_period_s * sample_rate_hz
    samples_per_chip = round(per_chip)
    if samples_per_chip < 1 or abs(per_chip - samples_per_chip) > 1e-9 * per_chip:
        raise SysidError(
            f"chip_period_s = {cfg.chip_period_s:g} s spans {per_chip:g} samples at "
            f"{sample_rate_hz:g} Hz; it must span a whole number of samples"
        )
    idx = (np.arange(n) // samples_per_chip) % len(chips)
    return cfg.amplitude_pu * chips[idx]


def _spectra(
    u: np.ndarray, Y: np.ndarray, sample_rate_hz: float, nperseg: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Boxcar Welch spectra on 50%-overlap segments: the one-sided bins, S_uu,
    and S_uy and the coherence of each output row of Y.  One batched rfft per
    signal, u's shared by every output, then csd's steps on (bins x segments)
    arrays laid out as ShortTimeFFT's: each spectrum is scipy.signal.welch's
    or csd's, bit for bit, and the coherence is scipy.signal.coherence's."""
    scale = 1.0 / math.sqrt(nperseg / (1.0 / sample_rate_hz))  # ShortTimeFFT's fac_psd

    def transform(x):
        segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
        return np.ascontiguousarray(np.fft.rfft(segments * scale).T)

    def average(P):
        P[1 : -1 if nperseg % 2 == 0 else None] *= 2  # the one-sided doubling
        return P.mean(axis=-1)

    S_u = transform(u)
    s_uu = average(S_u.real**2 + S_u.imag**2)
    s_uy = np.empty((len(Y), len(s_uu)), dtype=complex)
    coh = np.empty(s_uy.shape)
    for k, y in enumerate(Y):
        S_y = transform(y)
        # csd's own expression: numpy forms it in the temporary conjugate's
        # buffer, as conj(S_u) * S_y, and its complex multiply is not bitwise
        # commutative, so a conjugate shared by the outputs rounds differently
        s_uy[k] = average(S_y * S_u.conj())
        # coherence's own formula; NaN where S_uu or S_yy is zero
        with np.errstate(divide="ignore", invalid="ignore"):
            coh[k] = np.abs(s_uy[k]) ** 2 / s_uu / average(S_y.real**2 + S_y.imag**2)
    return np.fft.rfftfreq(nperseg, 1.0 / sample_rate_hz), s_uu, s_uy, coh


def estimate_frf(
    u: np.ndarray, Y: np.ndarray, sample_rate_hz: float, band_hz: tuple[float, float], nperseg: int
) -> tuple[np.ndarray, np.ndarray]:
    """Welch cross-spectral FRF estimates H = S_uy / S_uu on the band, one row
    of H per output row of Y driven by u: returns (freqs_hz, H).  Raises when
    a trace is not finite, or when an output's coherence indicates
    insufficient excitation on more than 20% of the band points.
    """
    u = np.asarray(u, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != len(u):
        raise SysidError("output traces must be rows as long as the input trace")
    for name, v in (("input", u), ("output", Y)):
        if not np.isfinite(v).all():
            raise SysidError(f"{name} trace holds non-finite samples ({np.sum(~np.isfinite(v))})")
    lo, hi = band_hz
    duration = len(u) / sample_rate_hz
    if duration < 20.0 / lo:
        raise SysidError(
            f"trace of {duration:g} s too short; need >= {20.0 / lo:g} s for "
            f"band low {lo:g} Hz"
        )
    if not 1 <= nperseg <= len(u):
        raise SysidError(f"nperseg = {nperseg} outside [1, {len(u)}] samples")
    f, s_uu, s_uy, coh = _spectra(u, Y, sample_rate_hz, nperseg)
    mask = (f >= lo) & (f <= hi) & (s_uu > 0)
    if not np.any(mask):
        raise SysidError("no spectral points inside the band")
    n_band = int(np.sum(mask))
    n_low = int(np.max(np.sum(~(coh[:, mask] >= _COHERENCE_LIMIT), axis=1)))  # NaN is low
    if n_low > 0.2 * n_band:
        raise SysidError(
            f"low excitation: coherence < {_COHERENCE_LIMIT} on {n_low} of {n_band} band points"
        )
    return f[mask], s_uy[:, mask] / s_uu[mask]


@dataclass(frozen=True)
class IdentifiedPlant:
    tf: TransferFunction
    fit_band_hz: tuple[float, float]
    frf_fit_mag_err_db: float
    frf_fit_phase_err_deg: float
    modes: tuple[ModeReport, ...]

    def to_dict(self) -> dict:
        return {
            "num": list(self.tf.num),
            "den": list(self.tf.den),
            "fit_band_hz": list(self.fit_band_hz),
            "frf_fit_mag_err_db": self.frf_fit_mag_err_db,
            "frf_fit_phase_err_deg": self.frf_fit_phase_err_deg,
            "modes": [m.to_dict() for m in self.modes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IdentifiedPlant":
        return cls(
            tf=TransferFunction(d["num"], d["den"]),
            fit_band_hz=tuple(d["fit_band_hz"]),
            frf_fit_mag_err_db=d["frf_fit_mag_err_db"],
            frf_fit_phase_err_deg=d["frf_fit_phase_err_deg"],
            modes=tuple(
                mode_report(complex(m["eigenvalue_re"], m["eigenvalue_im"])) for m in d["modes"]
            ),
        )


def _poles_of(den_coeffs: np.ndarray) -> np.ndarray:
    return np.roots(den_coeffs[::-1])


def _den_from_poles(poles: np.ndarray) -> np.ndarray:
    desc = np.atleast_1d(np.poly(poles))
    asc = desc[::-1].real
    return asc / asc[0]


def fit_rational(freqs_hz: np.ndarray, H: np.ndarray, order: int) -> IdentifiedPlant:
    """Sanathanan-Koerner iterated weighted least-squares rational fit of the
    response ``H`` sampled at ``freqs_hz``.

    Fits a strictly proper model (numerator degree order-1) so that the
    resulting plant can always be closed in state-space block form.  Unstable
    fitted poles are reflected into the left half-plane with a warning.
    """
    if order < 1:
        raise SysidError("order must be >= 1")
    if len(freqs_hz) != len(H):
        raise SysidError(f"{len(freqs_hz)} frequencies for {len(H)} response values")
    if len(freqs_hz) < 4 * order:
        raise SysidError(f"need at least {4 * order} points for order {order}")
    bad = ~(np.isfinite(freqs_hz) & (freqs_hz > 0))
    if bad.any():
        raise SysidError(f"frequency must be finite and positive, got {freqs_hz[bad][0]}")
    bad = ~np.isfinite(H)
    if bad.any():
        raise SysidError(f"response must be finite, got {H[bad][0]} at {freqs_hz[bad][0]:g} Hz")
    omega = 2.0 * math.pi * freqs_hz
    omega0 = math.exp(float(np.mean(np.log(omega))))  # frequency scaling
    s_t = 1j * omega / omega0
    V = np.vander(s_t, order + 1, increasing=True)  # powers 0..order

    n_b = order  # numerator coefficients b_0..b_{order-1}
    weight = np.ones(len(H))
    coef = None
    prev = None
    for _ in range(_FIT_ITERATIONS):
        rows = np.hstack([
            V[:, :n_b],
            -(H[:, None] * V[:, 1 : order + 1]),
        ])
        rhs = H.copy()
        A_ls = np.vstack([np.real(rows * weight[:, None]), np.imag(rows * weight[:, None])])
        b_ls = np.concatenate([np.real(rhs * weight), np.imag(rhs * weight)])
        coef, _, rank, _ = np.linalg.lstsq(A_ls, b_ls, rcond=None)
        if rank < A_ls.shape[1]:
            raise SysidError("degenerate data: singular normal equations in rational fit")
        den_t = np.concatenate([[1.0], coef[n_b:]])
        weight = 1.0 / np.maximum(np.abs(V[:, : order + 1] @ den_t), 1e-12)
        if prev is not None and np.linalg.norm(coef - prev) <= _FIT_TOL * np.linalg.norm(coef):
            break
        prev = coef

    num_t = coef[:n_b]
    den_t = np.concatenate([[1.0], coef[n_b:]])
    # undo frequency scaling
    scale = omega0 ** -np.arange(order + 1)
    num = num_t * scale[:n_b]
    den = den_t * scale

    poles = _poles_of(den)
    if np.any(poles.real >= 0):
        warnings.warn("unstable fitted poles reflected into the left half-plane")
        poles = np.where(poles.real >= 0, -np.abs(poles.real) - 1e-6 + 1j * poles.imag, poles)
        den = _den_from_poles(poles)
        den_t2 = den * (omega0 ** np.arange(order + 1))
        w2 = 1.0 / np.maximum(np.abs(V[:, : order + 1] @ den_t2), 1e-12)
        rhs2 = H * (V[:, : order + 1] @ den_t2)
        A2 = np.vstack([np.real(V[:, :n_b] * w2[:, None]), np.imag(V[:, :n_b] * w2[:, None])])
        b2 = np.concatenate([np.real(rhs2 * w2), np.imag(rhs2 * w2)])
        num_t = np.linalg.lstsq(A2, b2, rcond=None)[0]
        num = num_t * scale[:n_b]

    tf = TransferFunction(num, den)
    fit = _response(tf, freqs_hz)
    mag_err = float(np.max(np.abs(20.0 * np.log10(np.abs(fit)) - 20.0 * np.log10(np.abs(H)))))
    dphi = np.angle(fit) - np.angle(H)
    dphi = np.degrees((dphi + np.pi) % (2.0 * np.pi) - np.pi)
    phase_err = float(np.max(np.abs(dphi)))
    modes = tuple(
        mode_report(p) for p in _poles_of(np.asarray(tf.den)) if p.imag > 0
    )
    return IdentifiedPlant(
        tf=tf,
        fit_band_hz=(float(freqs_hz.min()), float(freqs_hz.max())),
        frf_fit_mag_err_db=mag_err,
        frf_fit_phase_err_deg=phase_err,
        modes=modes,
    )


def find_modes(
    plant: IdentifiedPlant, band_hz: tuple[float, float] | None = None
) -> tuple[float, float]:
    """The two most lightly damped in-band mode pairs, ascending frequency.

    Returns angular frequencies (rad/s).  Ties in damping break toward the
    lower-frequency pair.
    """
    lo, hi = band_hz if band_hz is not None else plant.fit_band_hz
    cands = [
        m
        for m in plant.modes
        if 0.0 < m.damping_ratio < 1.0 and lo <= m.freq_hz <= hi and m.eigenvalue.imag != 0
    ]
    if len(cands) < 2:
        raise SysidError(
            f"found {len(cands)} underdamped in-band mode pair(s); the two-mode "
            "design needs at least two"
        )
    cands.sort(key=lambda m: (m.damping_ratio, m.freq_hz))
    chosen = sorted(cands[:2], key=lambda m: m.freq_hz)
    return (
        2.0 * math.pi * chosen[0].freq_hz,
        2.0 * math.pi * chosen[1].freq_hz,
    )
