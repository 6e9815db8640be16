"""Open-loop Bode assembly and closed-loop eigenvalue/damping studies."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ._csvfmt import format_text
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

if TYPE_CHECKING:
    from .poddesign import CompensatorDesign

__all__ = [
    "EigenStudy",
    "ClosedLoopResult",
    "open_loop",
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
    """washout * lead-lag * delay without the gain, on its companion form:
    one instance serves every gain of a design."""

    wl_num: np.ndarray  # washout * lead-lag numerator
    delay_num: np.ndarray
    den_last: float
    a: np.ndarray  # monic denominator
    A: np.ndarray
    B: np.ndarray


def _gain_free_loop(design: CompensatorDesign, delay_tf: TransferFunction) -> _GainFreeLoop:
    wl = series(design.washout_tf(), design.compensator_tf())
    # the gain scales the numerator only; the denominator is the same for all
    den = np.asarray(series(wl, delay_tf).den)
    A, B, a = _companion(den)
    return _GainFreeLoop(np.array(wl.num), np.array(delay_tf.num), den[-1], a, A, B)


def _ctrl_row(loop: _GainFreeLoop, gain: float) -> tuple[np.ndarray, list]:
    """C and D of gain * washout * lead-lag * delay on the companion form of
    ``loop``; the numerator is formed as the two series() products form it,
    in their order."""
    num = np.convolve(np.convolve([gain], loop.wl_num), loop.delay_num)
    return _output_row(num, loop.den_last, loop.a)


def _ctrl_ss(design: CompensatorDesign, surrogate_tf: TransferFunction, gain: float) -> StateSpace:
    """State space of gain * washout * lead-lag * delay: the realisation of
    ``series(series(constant(gain), series(washout, lead-lag)), surrogate_tf)``,
    bit for bit."""
    loop = _gain_free_loop(design, surrogate_tf)
    return StateSpace(loop.A, loop.B, *_ctrl_row(loop, gain))


def _closed_stack(
    plant: tuple, designs: list[CompensatorDesign], delay_tf: TransferFunction, gain_rows
) -> np.ndarray:
    """The plant (A, [B per loop], C) with one controller per loop, gain *
    washout * lead-lag * ``delay_tf``, closed at each row of ``gain_rows``
    (one gain per loop): a ``(len(gain_rows), N, N)`` stack of ``A + B @ Cu``.

    ``A`` and ``B`` do not depend on the gains, so ``loop_blocks`` assembles
    them once from each design's gain-free loop; each row forms only its
    ``Cu``, from the ``C`` and ``D`` that loop gives at that row's gain.
    Every matrix equals the one that ``loop_blocks`` builds for that row
    alone, bit for bit.
    """
    plant_A, _, plant_C = plant
    loops = [_gain_free_loop(d, delay_tf) for d in designs]
    ctrls = [StateSpace(loop.A, loop.B, *_ctrl_row(loop, 0.0)) for loop in loops]
    A, B, _ = loop_blocks(*plant, ctrls)
    if A.shape[0] > 100:
        raise AnalysisError(f"composed system order {A.shape[0]} exceeds 100")
    n = plant_A.shape[0]
    Cu = np.zeros((len(gain_rows), len(designs), A.shape[0]))
    off = n
    for i, loop in enumerate(loops):
        m = loop.A.shape[0]
        for row, gains in zip(Cu, gain_rows):
            C, D = _ctrl_row(loop, gains[i])
            # loop_blocks' output row of controller i, -D C feedthrough included
            row[i, :n] = -float(D[0][0]) * plant_C[0]
            row[i, off : off + m] = C[0]
        off += m
    return A + B @ Cu


def _closed_rows(plant: tuple, designs: list[CompensatorDesign], cases: list) -> list:
    """Closed-loop eigenvalues of the plant (A, [B per loop], C) with one
    controller per loop: one row per gain row of each ``(delay_tf,
    gain_rows)`` case, in case order.

    The cases' ``_closed_stack`` matrices are grouped by order, one stacked
    eigen solve per order.  Where a solve raises LinAlgError, its matrices
    are solved one at a time, and the row of a matrix whose own solve raises
    holds its LinAlgError, which ``_loop_result`` re-raises.
    """
    stacks = [_closed_stack(plant, designs, d_tf, gain_rows) for d_tf, gain_rows in cases]
    solved = {}
    for N in dict.fromkeys(s.shape[-1] for s in stacks):
        group = np.concatenate([s for s in stacks if s.shape[-1] == N])
        try:
            rows = list(eigen(group))
        except np.linalg.LinAlgError:
            rows = []
            for M in group:
                try:
                    rows.append(eigen(M))
                except np.linalg.LinAlgError as exc:
                    rows.append(exc)
        solved[N] = iter(rows)
    return [next(solved[s.shape[-1]]) for s in stacks for _ in s]


def _single_loop(plant_ss: StateSpace) -> tuple:
    """``_closed_rows``' plant (A, [B], C) for one loop closed on ``plant_ss``."""
    if np.any(plant_ss.D != 0):
        raise AnalysisError("plant must be strictly proper for block feedback")
    return plant_ss.A, [plant_ss.B], plant_ss.C


def _loop_result(
    eigs: np.ndarray, target_modes_hz: tuple[float, float], label: str, gain: float
) -> ClosedLoopResult:
    """The study of one row of closed-loop eigenvalues: its two target modes
    and whether every eigenvalue lies in the open left half-plane.  A row
    that holds the LinAlgError of its solve re-raises it."""
    if isinstance(eigs, np.linalg.LinAlgError):
        raise eigs
    return ClosedLoopResult(
        label=label,
        gain=gain,
        eigenvalues=eigs,
        target_modes=_match_targets(eigs, target_modes_hz),
        stable=bool(np.all(eigs.real < 0)),
    )


def closed_loop_modes(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    gain: float,
    target_modes_hz: tuple[float, float],
    label: str = "",
) -> ClosedLoopResult:
    """Single-loop closed-loop eigenvalue case with the delay surrogate."""
    (eigs,) = _closed_rows(_single_loop(plant_ss), [design], [(surrogate.pade, [(gain,)])])
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
    gains = (design_p.gain * gain_scale, design_q.gain * gain_scale)
    plant = (plant_A, [plant_B_p, plant_B_q], plant_C)
    (eigs,) = _closed_rows(plant, [design_p, design_q], [(surrogate.pade, [gains])])
    return _loop_result(eigs, target_modes_hz, label or "both-loops", gain_scale)


def delay_sweep(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    target_modes_hz: tuple[float, float],
) -> EigenStudy:
    """Locus of the target modes over constant-delay cases.

    The surrogate's own average delay is marked as the design point.  The
    baseline and the cases are solved together, one eigen solve per order.
    """
    cases = [(surrogate.pade, [(0.0,)])]
    labels = []
    for d in _SWEEP_DELAYS_S:
        cases.append((pade_approx(d, surrogate.order[0] or 4), [(design.gain,)]))
        labels.append(f"delay={d:g}s")
        if abs(d - surrogate.theta_s) < 1e-12:
            labels[-1] += " (design point)"
    base, *rows = _closed_rows(_single_loop(plant_ss), [design], cases)
    baseline = _loop_result(base, target_modes_hz, "baseline", 0.0)
    return EigenStudy(
        baseline=baseline.target_modes,
        cases=tuple(
            _loop_result(eigs, target_modes_hz, label, design.gain)
            for eigs, label in zip(rows, labels)
        ),
    )


def bode_table(tf: TransferFunction, band_hz: tuple[float, float], n_points: int) -> str:
    """CSV text of the Bode response on a log grid including both endpoints."""
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
    return format_text("freq_hz,mag_db,phase_deg", freqs, mags, phases)
