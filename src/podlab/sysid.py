"""PRBS-based identification of the plant transfer functions.

Maximal-length PRBS excitation, Welch cross-spectral frequency-response
estimation, and an iterated weighted least-squares (Sanathanan-Koerner)
rational fit.
"""
from __future__ import annotations

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
    register_bits: int = 10
    chip_period_s: float = 0.1
    amplitude_pu: float = 0.05
    duration_s: float = 600.0

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


def prbs_chips(register_bits: int) -> np.ndarray:
    """One period of the +/-1 maximal-length sequence."""
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
    return chips


def gen_prbs(cfg: PrbsConfig, sample_rate_hz: float = 100.0) -> np.ndarray:
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
    u: np.ndarray, y: np.ndarray, sample_rate_hz: float, window: str, nperseg: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Welch spectra S_uu and S_uy on 50%-overlap segments, and the
    magnitude-squared coherence from them plus S_yy.

    One short-time FFT per signal, built as scipy.signal.csd builds its own,
    then csd's steps: auto terms re^2 + im^2, the cross term S_y conj(S_u),
    one-sided bins doubled, mean over segments.  Each spectrum equals what
    welch or csd returns, bit for bit, from two transforms where the three
    calls take four, and the coherence is scipy.signal.coherence's."""
    # imported on first use: scipy.signal, and the scipy.stats it loads, would
    # otherwise be most of the time taken by `import podlab.cli`
    import scipy.signal

    noverlap = nperseg // 2
    sft = scipy.signal.ShortTimeFFT(
        scipy.signal.get_window(window, nperseg), nperseg - noverlap, sample_rate_hz,
        fft_mode="onesided", mfft=nperseg, scale_to="psd", phase_shift=None,
    )
    p1 = (len(u) - noverlap) // sft.hop
    S_u, S_y = (
        sft.stft_detrend(v, None, p0=0, p1=p1, k_offset=nperseg // 2) for v in (u, y)
    )

    def average(P):
        P[1 : -1 if nperseg % 2 == 0 else None] *= 2  # the one-sided doubling
        return P.mean(axis=-1).astype(complex)

    s_uu = average(S_u.real**2 + S_u.imag**2).real
    s_yy = average(S_y.real**2 + S_y.imag**2).real
    s_uy = average(S_y * S_u.conj())
    # scipy.signal.coherence's own formula
    return sft.f, s_uu, s_uy, np.abs(s_uy) ** 2 / s_uu / s_yy


def estimate_frf(
    u: np.ndarray,
    y: np.ndarray,
    sample_rate_hz: float,
    band_hz: tuple[float, float],
    nperseg: int | None = None,
    window: str = "hann",
) -> tuple[np.ndarray, np.ndarray]:
    """Welch cross-spectral FRF estimate H = S_uy / S_uu on the band.

    Returns (freqs_hz, H).  Uses 50%-overlap segments; raises when the
    coherence indicates insufficient excitation on more than 20% of the band
    points.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(u) != len(y):
        raise SysidError("input and output traces must have equal length")
    lo, hi = band_hz
    duration = len(u) / sample_rate_hz
    if duration < 20.0 / lo:
        raise SysidError(
            f"trace of {duration:g} s too short; need >= {20.0 / lo:g} s for "
            f"band low {lo:g} Hz"
        )
    if nperseg is None:
        nperseg = 2 ** int(math.floor(math.log2(len(u) / 4)))
    if not 1 <= nperseg <= len(u):
        raise SysidError(f"nperseg = {nperseg} outside [1, {len(u)}] samples")
    f, s_uu, s_uy, coh = _spectra(u, y, sample_rate_hz, window, nperseg)
    mask = (f >= lo) & (f <= hi) & (s_uu > 0)
    if not np.any(mask):
        raise SysidError("no spectral points inside the band")
    n_low = int(np.sum(coh[mask] < _COHERENCE_LIMIT))
    if n_low > 0.2 * int(np.sum(mask)):
        raise SysidError(
            f"low excitation: coherence < {_COHERENCE_LIMIT} on {n_low} of "
            f"{int(np.sum(mask))} band points"
        )
    return f[mask], s_uy[mask] / s_uu[mask]


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
            "modes": [
                {
                    "eigenvalue_re": m.eigenvalue.real,
                    "eigenvalue_im": m.eigenvalue.imag,
                    "freq_hz": m.freq_hz,
                    "damping_ratio": m.damping_ratio,
                }
                for m in self.modes
            ],
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


def fit_rational(freqs_hz: np.ndarray, H: np.ndarray, order: int = 6) -> IdentifiedPlant:
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
