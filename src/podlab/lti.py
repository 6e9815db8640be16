"""Foundation types and numerics for linear time-invariant systems.

Rational transfer functions (ascending-power coefficient lists), state-space
models, frequency response with continuous phase and eigenvalues.  Time-domain
simulation is the exact zero-order-hold stepping in ``_sim``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import LtiError

__all__ = [
    "TransferFunction",
    "StateSpace",
    "ModeReport",
    "series",
    "to_state_space",
    "eigen",
    "unwrapped_phase_deg",
    "phase_at",
    "mode_report",
]


def _canonical(coeffs: Iterable[float]) -> tuple[float, ...]:
    """Trim trailing (highest-power) zero coefficients; keep at least one."""
    c = [float(v) for v in coeffs]
    while len(c) > 1 and c[-1] == 0.0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class TransferFunction:
    """Proper rational function of the Laplace variable s.

    Coefficients are stored in ascending powers of s.  The constant
    denominator coefficient is normalized to 1 when nonzero, which makes the
    representation unique and equality testable.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __init__(self, num: Sequence[float], den: Sequence[float]):
        num_c = _canonical(num)
        den_c = _canonical(den)
        if all(v == 0.0 for v in den_c):
            raise LtiError("denominator must have at least one nonzero coefficient")
        # normalize by the lowest-order nonzero denominator coefficient
        pivot = next(v for v in den_c if v != 0.0)
        num_c = _canonical(v / pivot for v in num_c)
        den_c = _canonical(v / pivot for v in den_c)
        if len(num_c) > len(den_c) and any(v != 0.0 for v in num_c[len(den_c):]):
            raise LtiError(
                f"improper transfer function: numerator degree {len(num_c) - 1} "
                f"exceeds denominator degree {len(den_c) - 1}"
            )
        object.__setattr__(self, "num", num_c)
        object.__setattr__(self, "den", den_c)

    @classmethod
    def constant(cls, k: float) -> "TransferFunction":
        return cls([k], [1.0])

    @property
    def order(self) -> int:
        return len(self.den) - 1

    def __call__(self, s: complex) -> complex:
        return _polyval(self.num, s) / _polyval(self.den, s)


def _polyval(coeffs: Sequence[float], s: complex | np.ndarray) -> complex | np.ndarray:
    """Horner's rule at a complex point or elementwise over an array of them."""
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc


@dataclass(frozen=True)
class StateSpace:
    """Real state-space model (A, B, C, D)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __init__(self, A, B, C, D):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        B = np.atleast_2d(np.asarray(B, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        D = np.atleast_2d(np.asarray(D, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise LtiError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != n:
            raise LtiError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise LtiError(f"C has {C.shape[1]} columns, expected {n}")
        if D.shape != (C.shape[0], B.shape[1]):
            raise LtiError(f"D shape {D.shape} inconsistent with B/C")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def order(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class ModeReport:
    """Oscillatory-mode summary derived from one eigenvalue."""

    eigenvalue: complex
    freq_hz: float
    damping_ratio: float

    def to_dict(self) -> dict:
        return {
            "eigenvalue_re": self.eigenvalue.real,
            "eigenvalue_im": self.eigenvalue.imag,
            "freq_hz": self.freq_hz,
            "damping_ratio": self.damping_ratio,
        }


def mode_report(eigenvalue: complex) -> ModeReport:
    lam = complex(eigenvalue)
    freq = abs(lam.imag) / (2.0 * math.pi)
    zeta = -lam.real / abs(lam) if lam != 0 else 0.0
    return ModeReport(eigenvalue=lam, freq_hz=freq, damping_ratio=zeta)


def _response(tf: TransferFunction, freqs_hz: Sequence[float] | np.ndarray) -> np.ndarray:
    """tf(j 2 pi f) on an array of frequencies: Horner over the coefficients,
    vectorised over the frequencies."""
    f = np.asarray(freqs_hz, dtype=float)
    bad = ~(f > 0)
    if bad.any():
        raise LtiError(f"frequency must be positive, got {f[bad][0]}")
    s = 2j * math.pi * f
    den = _polyval(tf.den, s)
    on_axis = den == 0
    if on_axis.any():
        raise LtiError(f"pole on the imaginary axis at {f[on_axis][0]} Hz")
    return _polyval(tf.num, s) / den


def series(a: TransferFunction, b: TransferFunction) -> TransferFunction:
    """Cascade composition a(s) * b(s)."""
    num = np.convolve(a.num, b.num)
    den = np.convolve(a.den, b.den)
    return TransferFunction(num, den)


def _companion(den: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A and B of the controllable-canonical form for the denominator ``den``
    (ascending powers), and ``den`` made monic."""
    n = len(den) - 1
    a = den / den[-1]
    A = np.zeros((n, n))
    B = np.zeros((n, 1))
    if n:
        A[:-1, 1:] = np.eye(n - 1)
        A[-1, :] = -a[:n]
        B[-1, 0] = 1.0
    return A, B, a


def _output_row(num: Sequence[float], den_last: float, a: np.ndarray) -> tuple[np.ndarray, list]:
    """C and D that realise ``num`` over the companion form of ``_companion``;
    ``den_last`` is the denominator's leading coefficient, ``a`` its monic form."""
    n = len(a) - 1
    b = np.zeros(n + 1)
    b[: len(num)] = num
    b = b / den_last
    d = b[n]
    return (b[:n] - a[:n] * d).reshape(1, n), [[d]]


def to_state_space(tf: TransferFunction) -> StateSpace:
    """Controllable-canonical realization of a proper transfer function."""
    den = np.asarray(tf.den, dtype=float)
    if den[-1] == 0.0:
        raise LtiError("denominator leading coefficient is zero after trimming")
    A, B, a = _companion(den)
    C, D = _output_row(tf.num, den[-1], a)
    return StateSpace(A, B, C, D)


def eigen(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a square real matrix, or of each matrix of a
    ``(..., N, N)`` stack, one row per matrix (LAPACK's dense QR routine).

    The result is complex even where every eigenvalue is real, when
    ``np.linalg.eigvals`` returns a real array.  Non-finite entries raise
    LtiError, so they are never mistaken for a solve that did not converge
    (``LinAlgError``).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[-1] != A.shape[-2]:
        raise LtiError(f"eigen requires a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise LtiError("eigen requires finite entries")
    return np.linalg.eigvals(A).astype(complex, copy=False)


def unwrapped_phase_deg(tf: TransferFunction, freqs_hz: np.ndarray) -> np.ndarray:
    """Phase of tf along a strictly ascending grid, continued by
    nearest-multiple-of-360.

    The continuation is anchored near DC so that the result is the true
    accumulated phase, not the principal value.  It holds only while
    neighbouring grid points lie less than 180 deg of phase apart; a coarser
    grid loses whole turns.  Raises ``LtiError`` unless the grid strictly
    ascends.
    """
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    if freqs_hz.size == 0:
        raise LtiError("no frequencies to evaluate")
    f_lo = freqs_hz[0]
    if not f_lo > 0:
        # the anchor grid below needs f_lo > 0; _response checks the rest
        raise LtiError(f"frequency must be positive, got {f_lo}")
    # extend the grid down two decades to anchor the unwrap at quasi-DC;
    # dense enough that a lightly damped resonance cannot alias the unwrap
    anchor = np.geomspace(f_lo / 100.0, f_lo, 600, endpoint=False)
    grid = np.concatenate([anchor, freqs_hz])
    response = _response(tf, grid)  # first, so a bad frequency keeps its message
    down = np.flatnonzero(np.diff(freqs_hz) <= 0)
    if down.size:
        a, b = freqs_hz[down[0] : down[0] + 2]
        raise LtiError(f"frequencies must be strictly ascending, got {a} then {b} Hz")
    ph = np.unwrap(np.angle(response))
    return np.degrees(ph[len(anchor):])


def phase_at(tf: TransferFunction, omega: float) -> float:
    """Unwrapped phase in degrees at a single angular frequency (rad/s)."""
    if not omega > 0:
        raise LtiError("omega must be positive")
    f = omega / (2.0 * math.pi)
    return float(unwrapped_phase_deg(tf, np.array([f]))[0])
