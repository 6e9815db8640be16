"""Open-loop Bode assembly and closed-loop eigenvalue/damping studies."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._csvfmt import format_rows
from .delaymodel import DelaySurrogate, pade_approx
from .errors import AnalysisError
from .lti import (
    ModeReport,
    StateSpace,
    TransferFunction,
    _companion,
    _output_row,
    _response,
    eigen,
    mode_report,
    series,
    unwrapped_phase_deg,
)
from .poddesign import CompensatorDesign, leadlag_tf, washout

__all__ = [
    "EigenStudy",
    "ClosedLoopResult",
    "open_loop",
    "controller_tf",
    "loop_blocks",
    "closed_loop_modes",
    "closed_loop_modes_two",
    "delay_sweep",
    "bode_table",
]

_SWEEP_DELAYS_S = (0.0, 0.15, 0.3, 0.6)


@dataclass(frozen=True)
class ClosedLoopResult:
    label: str
    gain: float
    eigenvalues: np.ndarray
    target_modes: tuple[ModeReport, ModeReport]
    stable: bool


@dataclass(frozen=True)
class EigenStudy:
    baseline: tuple[ModeReport, ModeReport]
    cases: tuple[ClosedLoopResult, ...]

    def to_dict(self) -> dict:
        return {
            "baseline": [m.to_dict() for m in self.baseline],
            "cases": [
                {
                    "label": c.label,
                    "gain": c.gain,
                    "stable": c.stable,
                    "target_modes": [m.to_dict() for m in c.target_modes],
                }
                for c in self.cases
            ],
        }


def controller_tf(design: CompensatorDesign, gain: float | None = None) -> TransferFunction:
    """gain * washout * lead-lag cascade (no delay model)."""
    K = design.gain if gain is None else gain
    return series(
        TransferFunction.constant(K),
        series(design.washout_tf(), design.compensator_tf()),
    )


def open_loop(
    compensator: TransferFunction,
    wash: TransferFunction,
    gain: float,
    surrogate: TransferFunction,
    plant: TransferFunction,
) -> TransferFunction:
    """Series composition gain * washout * C * D' * P in canonical form."""
    out = TransferFunction.constant(gain)
    for part in (wash, compensator, surrogate, plant):
        out = series(out, part)
    return out


def loop_blocks(
    plant_A: np.ndarray,
    plant_Bs: list[np.ndarray],
    plant_C: np.ndarray,
    controllers: list[StateSpace],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plant plus the controllers, each driven by -y, inputs left open.

    Returns (A, B, Cu) on the state [plant, controller 1, controller 2, ...]:
    column i of B feeds plant input i, and row i of Cu is controller i's
    output, its -D C feedthrough included.  Closing input i on controller i
    gives ``A + B @ Cu``; the plant must be strictly proper so no algebraic
    loop can arise.
    """
    n = plant_A.shape[0]
    N = n + sum(c.order for c in controllers)
    A = np.zeros((N, N))
    A[:n, :n] = plant_A
    B = np.zeros((N, len(plant_Bs)))
    Cu = np.zeros((len(controllers), N))
    off = n
    for i, (B_i, ctrl) in enumerate(zip(plant_Bs, controllers)):
        m = ctrl.order
        A[off : off + m, :n] = -ctrl.B @ plant_C
        A[off : off + m, off : off + m] = ctrl.A
        B[:n, i] = B_i[:, 0]
        Cu[i, :n] = -float(ctrl.D[0, 0]) * plant_C[0]
        Cu[i, off : off + m] = ctrl.C[0]
        off += m
    return A, B, Cu


def _match_targets(
    eigs: np.ndarray, target_freqs_hz: tuple[float, float]
) -> tuple[ModeReport, ModeReport]:
    """The eigenvalue of one row nearest each target frequency, each used once.

    Raises AnalysisError when the row has fewer oscillatory eigenvalues than
    targets, or more than one within 5 % of a target.
    """
    cands = eigs[eigs.imag > 0]
    if len(cands) < len(target_freqs_hz):
        raise AnalysisError(
            "need an oscillatory eigenvalue per target mode: found "
            f"{len(cands)} for {len(target_freqs_hz)}"
        )
    freqs = (cands.imag / (2.0 * math.pi)).tolist()
    picked = []
    free = list(range(len(cands)))
    for f_t in target_freqs_hz:
        dist = [abs(f - f_t) for f in freqs]
        close = [i for i, d in enumerate(dist) if d <= 0.05 * f_t]
        if len(close) > 1:
            listing = ", ".join(f"{cands[i]:.4f}" for i in close)
            raise AnalysisError(
                f"mode-matching ambiguity near {f_t:g} Hz: candidates {listing}"
            )
        # the nearest not yet used; a tie goes to the first in eigenvalue order
        i = min(free, key=dist.__getitem__)
        free.remove(i)
        picked.append(mode_report(complex(cands[i])))
    return tuple(picked)


class _GainFreeLoop(NamedTuple):
    """washout * lead-lag * delay without the gain, on its companion form.

    Every array is read-only: one instance serves every gain of a design.
    """

    wl_num: np.ndarray  # washout * lead-lag numerator
    delay_num: np.ndarray
    den_last: float
    a: np.ndarray  # monic denominator
    A: np.ndarray
    B: np.ndarray


@functools.lru_cache(maxsize=64)
def _gain_free_loop(
    time_constants: tuple[float, float, float, float],
    washout_Tw_s: float,
    delay_tf: TransferFunction,
) -> _GainFreeLoop:
    wl = series(washout(washout_Tw_s), leadlag_tf(*time_constants))
    # the gain scales the numerator only; the denominator is the same for all
    den = np.asarray(series(wl, delay_tf).den)
    A, B, a = _companion(den)
    loop = _GainFreeLoop(np.array(wl.num), np.array(delay_tf.num), den[-1], a, A, B)
    for arr in (loop.wl_num, loop.delay_num, a, A, B):
        arr.setflags(write=False)
    return loop


def _ctrl_row(loop: _GainFreeLoop, gain: float) -> tuple[np.ndarray, list]:
    """C and D of gain * washout * lead-lag * delay on the companion form of
    ``loop``; the numerator is formed as the two series() products form it,
    in their order."""
    num = np.convolve(np.convolve([gain], loop.wl_num), loop.delay_num)
    return _output_row(num, loop.den_last, loop.a)


def _ctrl_ss(design: CompensatorDesign, surrogate_tf: TransferFunction, gain: float) -> StateSpace:
    """State space of gain * washout * lead-lag * delay: the realisation of
    ``series(controller_tf(design, gain), surrogate_tf)``, bit for bit."""
    loop = _gain_free_loop(design.time_constants, design.washout_Tw_s, surrogate_tf)
    return StateSpace(loop.A, loop.B, *_ctrl_row(loop, gain))


def _closed(A: np.ndarray, B: np.ndarray, Cu: np.ndarray) -> np.ndarray:
    """``loop_blocks``' system closed as ``A + B @ Cu``, or a stack of them."""
    if A.shape[0] > 100:
        raise AnalysisError(f"composed system order {A.shape[0]} exceeds 100")
    return A + B @ Cu


def _closed_stack(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate_tf: TransferFunction,
    gains,
) -> np.ndarray:
    """The single loop closed at each of ``gains``: a ``(len(gains), N, N)``
    stack of ``A + B @ Cu``.

    ``A`` and ``B`` do not depend on the gain, so ``loop_blocks`` assembles
    them once; each gain forms only its ``Cu`` row, from the ``C`` and ``D``
    that ``_ctrl_ss`` realises.  Every matrix equals the one that
    ``loop_blocks`` builds for that gain alone, bit for bit.
    """
    if np.any(plant_ss.D != 0):
        raise AnalysisError("plant must be strictly proper for block feedback")
    ctrl = _ctrl_ss(design, surrogate_tf, 0.0)
    A, B, _ = loop_blocks(plant_ss.A, [plant_ss.B], plant_ss.C, [ctrl])
    loop = _gain_free_loop(design.time_constants, design.washout_Tw_s, surrogate_tf)
    n = plant_ss.order
    Cu = np.empty((len(gains), 1, A.shape[0]))
    for row, gain in zip(Cu, gains):
        C, D = _ctrl_row(loop, gain)
        # loop_blocks' output row of the controller, -D C feedthrough included
        row[0, :n] = -float(D[0][0]) * plant_ss.C[0]
        row[0, n:] = C[0]
    return _closed(A, B, Cu)


def _loop_result(
    eigs: np.ndarray, target_modes_hz: tuple[float, float], label: str, gain: float
) -> ClosedLoopResult:
    """The study of one row of closed-loop eigenvalues: its two target modes
    and whether every eigenvalue lies in the open left half-plane."""
    return ClosedLoopResult(
        label=label,
        gain=gain,
        eigenvalues=eigs,
        target_modes=_match_targets(eigs, target_modes_hz),
        stable=bool(np.all(eigs.real < 0)),
    )


def _gain_eigenvalues(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    gains,
) -> list:
    """Closed-loop eigenvalues of the single loop at each gain, one row per
    gain, from one stacked eigen solve.

    Where that solve raises LinAlgError, each matrix is solved alone, and
    the row of a matrix whose own solve raises holds its LinAlgError.
    """
    stack = _closed_stack(plant_ss, design, surrogate.pade, gains)
    try:
        return list(eigen(stack))
    except np.linalg.LinAlgError:
        rows = []
        for M in stack:
            try:
                rows.append(eigen(M))
            except np.linalg.LinAlgError as exc:
                rows.append(exc)
        return rows


def closed_loop_modes(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    gain: float,
    target_modes_hz: tuple[float, float],
    label: str = "",
    surrogate_tf: TransferFunction | None = None,
) -> ClosedLoopResult:
    """Single-loop closed-loop eigenvalue case with the delay surrogate."""
    d_tf = surrogate.pade if surrogate_tf is None else surrogate_tf
    eigs = eigen(_closed_stack(plant_ss, design, d_tf, [gain]))[0]
    return _loop_result(eigs, target_modes_hz, label or f"gain={gain:g}", gain)


def closed_loop_modes_two(
    plant_A: np.ndarray,
    plant_B_p: np.ndarray,
    plant_B_q: np.ndarray,
    plant_C: np.ndarray,
    design_p: CompensatorDesign,
    design_q: CompensatorDesign,
    surrogate: DelaySurrogate,
    target_modes_hz: tuple[float, float],
    gain_scale: float = 1.0,
    label: str = "",
) -> ClosedLoopResult:
    """Both power loops closed simultaneously on the shared-state plant."""
    ctrl_p = _ctrl_ss(design_p, surrogate.pade, design_p.gain * gain_scale)
    ctrl_q = _ctrl_ss(design_q, surrogate.pade, design_q.gain * gain_scale)
    A, B, Cu = loop_blocks(plant_A, [plant_B_p, plant_B_q], plant_C, [ctrl_p, ctrl_q])
    eigs = eigen(_closed(A, B, Cu))
    return _loop_result(eigs, target_modes_hz, label or "both-loops", gain_scale)


def delay_sweep(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    target_modes_hz: tuple[float, float],
) -> EigenStudy:
    """Locus of the target modes over constant-delay cases.

    The surrogate's own average delay is marked as the design point.
    """
    baseline = closed_loop_modes(
        plant_ss, design, surrogate, 0.0, target_modes_hz, label="baseline"
    )
    cases = []
    for d in _SWEEP_DELAYS_S:
        d_tf = pade_approx(d, surrogate.order[0] or 4)
        label = f"delay={d:g}s"
        if abs(d - surrogate.theta_s) < 1e-12:
            label += " (design point)"
        cases.append(
            closed_loop_modes(
                plant_ss, design, surrogate, design.gain, target_modes_hz,
                label=label, surrogate_tf=d_tf,
            )
        )
    return EigenStudy(baseline=baseline.target_modes, cases=tuple(cases))


def bode_table(tf: TransferFunction, band_hz: tuple[float, float], n_points: int) -> list[str]:
    """CSV rows of the Bode response on a log grid including both endpoints."""
    if n_points < 2:
        raise AnalysisError("need at least 2 points")
    lo, hi = band_hz
    if not 0 < lo < hi:
        raise AnalysisError("band must satisfy 0 < low < high")
    freqs = np.geomspace(lo, hi, n_points)
    freqs[0], freqs[-1] = lo, hi
    with np.errstate(divide="ignore"):
        mags = 20.0 * np.log10(np.abs(_response(tf, freqs)))
    phases = unwrapped_phase_deg(tf, freqs)
    return format_rows("freq_hz,mag_db,phase_deg", freqs, mags, phases)
