"""Multimode POD compensator design.

Phase budgets for the two target modes, the normalized two-mode residual
system, cascaded lead-lag parametrization, a Powell dogleg trust-region
solver, washout filter, power limits and closed-loop gain selection.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .channel import nyquist_limit
from .delaymodel import DelaySurrogate
from .errors import AnalysisError, DesignError, InfeasibleOperatingPointError, NyquistLimitError
from .lti import StateSpace, TransferFunction, phase_at
from .sysid import IdentifiedPlant

__all__ = [
    "PhaseBudget",
    "CompensatorDesign",
    "LimitsInput",
    "DesignContext",
    "DoglegResult",
    "leadlag_tf",
    "leadlag_phase_deg",
    "wrap_phase_deg",
    "residual_F",
    "dogleg_solve",
    "design_compensator",
    "washout",
    "power_limits",
    "select_gain",
]

T_MIN = 0.01
T_MAX = 10.0
_DOGLEG_TOL = 1e-10
_RADIUS_FLOOR = 1e-12
_JACOBIAN_REL_STEP = 1e-6
_N_STARTS = 8
# the clamp box as 0-d arrays: a Python float bound is converted on every call
_T_MIN_0D = np.array(T_MIN)
_T_MAX_0D = np.array(T_MAX)


@dataclass(frozen=True)
class PhaseBudget:
    """Per-mode open-loop phase decomposition (degrees)."""

    phi_P_deg: tuple[float, float]
    phi_D_deg: tuple[float, float]
    phi_C_deg: tuple[float, float]

    @property
    def phi_G_deg(self) -> tuple[float, float]:
        return tuple(
            c + d + p
            for c, d, p in zip(self.phi_C_deg, self.phi_D_deg, self.phi_P_deg)
        )


@dataclass(frozen=True)
class CompensatorDesign:
    T1_s: float
    T2_s: float
    T3_s: float
    T4_s: float
    gain: float
    washout_Tw_s: float
    limit_pu: float
    loop: str  # active | reactive

    def __post_init__(self):
        for name in ("T1_s", "T2_s", "T3_s", "T4_s"):
            v = getattr(self, name)
            if not (T_MIN <= v <= T_MAX):
                raise DesignError(f"{name}={v:g} outside [{T_MIN}, {T_MAX}] s")
        if self.gain < 0:
            raise DesignError("gain must be >= 0")
        if self.limit_pu < 0:
            raise DesignError("limit_pu must be >= 0")
        if self.loop not in ("active", "reactive"):
            raise DesignError(f"loop must be 'active' or 'reactive', got {self.loop!r}")

    @property
    def time_constants(self) -> tuple[float, float, float, float]:
        return (self.T1_s, self.T2_s, self.T3_s, self.T4_s)

    def compensator_tf(self) -> TransferFunction:
        return leadlag_tf(*self.time_constants)

    def washout_tf(self) -> TransferFunction:
        return washout(self.washout_Tw_s)

    def to_dict(self) -> dict:
        return {
            "T1_s": self.T1_s, "T2_s": self.T2_s, "T3_s": self.T3_s, "T4_s": self.T4_s,
            "gain": self.gain, "washout_Tw_s": self.washout_Tw_s,
            "limit_pu": self.limit_pu, "loop": self.loop,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CompensatorDesign":
        """The design of ``d``; keys that are not fields (diagnostics) are ignored."""
        return cls(**{f.name: d[f.name] for f in fields(cls)})


@dataclass(frozen=True)
class LimitsInput:
    k: float
    p_R: float
    q_R: float
    S_n: float

    def __post_init__(self):
        if not 0 <= self.k <= 1:
            raise DesignError("margin k must be in [0, 1]")
        if self.S_n <= 0:
            raise DesignError("rated power S_n must be positive")
        if self.p_R < 0:
            raise DesignError("p_R must be >= 0")


def leadlag_tf(T1: float, T2: float, T3: float, T4: float) -> TransferFunction:
    """(1 + s T1)(1 + s T3) / ((1 + s T2)(1 + s T4))."""
    for name, T in (("T1", T1), ("T2", T2), ("T3", T3), ("T4", T4)):
        if not T > 0:
            raise DesignError(f"{name} must be positive, got {T}")
    return TransferFunction(
        np.convolve([1.0, T1], [1.0, T3]),
        np.convolve([1.0, T2], [1.0, T4]),
    )


def wrap_phase_deg(phi: float) -> float:
    """Wrap a phase angle into (-180, 180] degrees."""
    out = math.fmod(phi + 180.0, 360.0)
    if out <= 0.0:
        out += 360.0
    return out - 180.0


def leadlag_phase_deg(Ts, omega: float) -> float:
    """Compensator phase at omega from the closed-form angle sum."""
    T1, T2, T3, T4 = Ts
    return math.degrees(
        math.atan(omega * T1) + math.atan(omega * T3)
        - math.atan(omega * T2) - math.atan(omega * T4)
    )


@dataclass(frozen=True)
class DesignContext:
    """Fixed (non-compensator) phases at the two target modes.

    ``fixed_phase_deg`` holds phi_P + phi_D per mode, plus any other fixed
    loop elements the designer chooses to fold in (e.g. the washout).
    """

    omegas: tuple[float, float]
    fixed_phase_deg: tuple[float, float]


def residual_F(x: np.ndarray, ctx: DesignContext) -> np.ndarray:
    """Normalized two-mode phase residuals.

    ``x`` carries the logarithms of T1..T4, shape ``(4,)`` for one point or
    ``(4, k)`` for k points, one per column; the result is ``(2,)`` or
    ``(2, k)``.  Time constants are clamped to [T_MIN, T_MAX] inside.  Each
    mode's phase error is divided by the magnitude of the other mode's fixed
    open-loop phase; when a denominator falls under 1 degree the residuals
    fall back to the unnormalized form.
    """
    x = np.ascontiguousarray(x, dtype=float)
    # one np.exp over every point, not math.exp: the two round differently
    # on some inputs
    Ts = np.exp(x)
    np.maximum(Ts, _T_MIN_0D, out=Ts)
    np.minimum(Ts, _T_MAX_0D, out=Ts)
    (w1, w2), (p1, p2) = ctx.omegas, ctx.fixed_phase_deg
    d1, d2 = -p2, -p1  # cross-mode denominators for F1 and F2
    if abs(d1) <= 1.0 or abs(d2) <= 1.0:
        warnings.warn(
            "cross-mode phase denominator under 1 degree; using unnormalized residuals"
        )
        d1 = d2 = 1.0
    if x.ndim == 1:
        T = Ts.tolist()
        return np.array(
            [(leadlag_phase_deg(T, w1) + p1) / d1, (leadlag_phase_deg(T, w2) + p2) / d2]
        )
    points = Ts.T.tolist()
    return np.array([
        [(leadlag_phase_deg(T, w1) + p1) / d1 for T in points],
        [(leadlag_phase_deg(T, w2) + p2) / d2 for T in points],
    ])


@dataclass(frozen=True)
class DoglegResult:
    x: np.ndarray
    fnorm: float
    converged: bool
    iterations: int


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, as np.linalg.norm computes it."""
    return math.sqrt(v.dot(v))


def _jacobian(fun, x: np.ndarray) -> np.ndarray:
    """Central differences from one ``fun`` call on the 2n points x ± h e_j."""
    n = len(x)
    h = _JACOBIAN_REL_STEP * np.maximum(1.0, np.abs(x))
    X = x[:, None].repeat(2 * n, axis=1)  # columns x + h_j e_j, then x - h_j e_j
    j = np.arange(n)
    X[j, j] += h
    X[j, n + j] -= h
    F = fun(X)
    # C-contiguous whatever order fun returns: the BLAS products in
    # dogleg_solve round differently on a Fortran-ordered J
    J = np.ascontiguousarray((F[:, :n] - F[:, n:]) / (2.0 * h))
    if not np.all(np.isfinite(J)):
        raise DesignError("Jacobian evaluation failed (non-finite entries)")
    return J


def dogleg_solve(fun, x0, max_iter: int = 200) -> DoglegResult:
    """Powell dogleg trust-region solve of fun(x) = 0 in the least-squares sense.

    Central-difference Jacobian; returns the best-found point with a
    non-convergence flag instead of raising when the tolerance is not met.
    ``fun`` maps a point of shape ``(n,)`` to its ``m`` residuals, and an
    ``(n, k)`` array of k points, one per column, to an ``(m, k)`` array of
    their residuals, column for column: each Jacobian is one call on 2n
    points.
    """
    x = np.asarray(x0, dtype=float).copy()
    F = np.atleast_1d(fun(x))
    fnorm = _norm(F)
    radius = 1.0
    it = 0
    J = None
    while it < max_iter:
        it += 1
        if fnorm <= _DOGLEG_TOL:
            return DoglegResult(x, fnorm, True, it - 1)
        if J is None:
            # the linear model at x; a rejected step keeps x and so reuses it
            J = _jacobian(fun, x)
            g = J.T @ F
            gn = np.linalg.lstsq(J, -F, rcond=None)[0]  # minimum-norm Gauss-Newton
            gnorm = _norm(g)
        if gnorm == 0.0:
            break
        if _norm(gn) <= radius:
            p = gn
        else:
            t = gnorm**2 / _norm(J @ g) ** 2
            p_sd = -t * g
            if _norm(p_sd) >= radius:
                p = -radius * g / gnorm
            else:
                d = gn - p_sd
                a = float(d @ d)
                b = 2.0 * float(p_sd @ d)
                c = float(p_sd @ p_sd) - radius**2
                tau = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
                p = p_sd + tau * d
        F_new = np.atleast_1d(fun(x + p))
        fnorm_new = _norm(F_new)
        pred = fnorm**2 - _norm(F + J @ p) ** 2
        actual = fnorm**2 - fnorm_new**2
        rho = actual / pred if pred > 0 else -1.0
        if rho > 1e-4:
            x = x + p
            F = F_new
            fnorm = fnorm_new
            J = None
        pnorm = _norm(p)
        if rho < 0.25:
            radius = 0.25 * pnorm
        elif rho > 0.75 and abs(pnorm - radius) < 1e-10 * radius + 1e-14:
            radius = min(2.0 * radius, 1e6)
        elif rho > 0.75:
            radius = max(radius, 2.0 * pnorm)
        if radius < _RADIUS_FLOOR:
            break
    return DoglegResult(x, fnorm, fnorm <= _DOGLEG_TOL, it)


def washout(Tw_s: float) -> TransferFunction:
    """High-pass washout s*Tw / (1 + s*Tw)."""
    if not Tw_s > 0:
        raise DesignError("washout time constant must be positive")
    return TransferFunction([0.0, Tw_s], [1.0, Tw_s])


def power_limits(inp: LimitsInput) -> tuple[float, float]:
    """Active/reactive POD power limits from the operating point."""
    p_l = inp.k * inp.p_R
    head = inp.S_n**2 - (p_l + inp.p_R) ** 2
    if head < 0:
        raise InfeasibleOperatingPointError(
            f"(1 + k) * p_R = {p_l + inp.p_R:g} exceeds rated power {inp.S_n:g}"
        )
    q_avail = math.sqrt(head)
    if inp.q_R > q_avail:
        raise InfeasibleOperatingPointError(
            f"q_R = {inp.q_R:g} exceeds available headroom {q_avail:g}"
        )
    return p_l, q_avail - inp.q_R


@dataclass(frozen=True)
class DesignDiagnostics:
    residual_norms: tuple[float, ...]
    converged: tuple[bool, ...]
    selected_start: int
    fnorm: float
    fnorm_inf: float
    budget: PhaseBudget


def _gain_slope(Ts, band_hz=(0.1, 2.0)) -> float:
    tf = leadlag_tf(*Ts)
    lo = abs(tf(2j * math.pi * band_hz[0]))
    hi = abs(tf(2j * math.pi * band_hz[1]))
    return abs(math.log10(hi) - math.log10(lo))


def design_compensator(
    plant: IdentifiedPlant,
    surrogate: DelaySurrogate,
    modes: tuple[float, float],
    channel_rate_hz: float,
    loop: str = "active",
    washout_Tw_s: float = 5.0,
    limit_pu: float = 0.0,
) -> tuple[CompensatorDesign, DesignContext, DesignDiagnostics]:
    """Solve for the lead-lag time constants that zero the open-loop phases.

    The fixed phase at each mode combines the identified plant, the Pade
    delay surrogate and the washout, so the composed loop phase lands on
    zero.  Gain and limits are filled by the companion operations
    (``select_gain``, ``power_limits``); the returned design carries
    ``gain=0`` and the given limit.
    """
    f_max = nyquist_limit(channel_rate_hz)
    for omega in modes:
        f = omega / (2.0 * math.pi)
        if f >= f_max:
            raise NyquistLimitError(f, f_max)
    wash = washout(washout_Tw_s)
    phi_P = [phase_at(plant.tf, w) for w in modes]
    phi_D = [phase_at(surrogate.pade, w) for w in modes]
    # the phase criterion is modular: only the angle of each loop element
    # matters, not its accumulated unwrapped value, so wrap to principal range
    fixed = tuple(
        wrap_phase_deg(p + d + phase_at(wash, w)) for p, d, w in zip(phi_P, phi_D, modes)
    )
    ctx = DesignContext(omegas=tuple(modes), fixed_phase_deg=fixed)

    # asymmetric stage scalings break the T1=T3, T2=T4 symmetry of the
    # start, which otherwise confines the iterates to a subfamily that can
    # run out of the [T_MIN, T_MAX] box before reaching a zero
    starts = [
        (v, scale)
        for v in np.geomspace(0.05, 5.0, _N_STARTS)
        for scale in (1.0, 0.25, 4.0)
    ]
    results = []
    for v, scale in starts:
        x0 = np.log(np.array([v, v / 3.0, v * scale, v * scale / 3.0]))
        results.append(dogleg_solve(lambda x: residual_F(x, ctx), x0))
    norms = tuple(r.fnorm for r in results)
    best_norm = min(norms)
    if not any(r.converged for r in results):
        raise DesignError(
            "no dogleg start converged; best residual norms: "
            + ", ".join(f"{n:.3e}" for n in norms)
        )
    # among near-best starts prefer the flattest compensator gain slope,
    # then the lowest start index
    near = [i for i, r in enumerate(results) if r.fnorm <= best_norm + 1e-8]
    sel = min(
        near,
        key=lambda i: (
            round(_gain_slope(np.clip(np.exp(results[i].x), T_MIN, T_MAX)), 9),
            i,
        ),
    )
    r = results[sel]
    Ts = np.clip(np.exp(r.x), T_MIN, T_MAX)
    design = CompensatorDesign(
        T1_s=float(Ts[0]), T2_s=float(Ts[1]), T3_s=float(Ts[2]), T4_s=float(Ts[3]),
        gain=0.0, washout_Tw_s=washout_Tw_s, limit_pu=limit_pu, loop=loop,
    )
    budget = PhaseBudget(
        phi_P_deg=tuple(wrap_phase_deg(p) for p in phi_P),
        phi_D_deg=tuple(wrap_phase_deg(d) for d in phi_D),
        phi_C_deg=tuple(leadlag_phase_deg(Ts, w) for w in modes),
    )
    F = residual_F(r.x, ctx)
    diag = DesignDiagnostics(
        residual_norms=norms,
        converged=tuple(r.converged for r in results),
        selected_start=sel,
        fnorm=r.fnorm,
        fnorm_inf=float(np.max(np.abs(F))),
        budget=budget,
    )
    return design, ctx, diag


def select_gain(
    plant_ss: StateSpace,
    design: CompensatorDesign,
    surrogate: DelaySurrogate,
    target_modes_hz: tuple[float, float],
    K_grid: np.ndarray | None = None,
) -> float:
    """Pick the gain maximizing the minimum target-mode damping ratio.

    Feasible gains keep every closed-loop eigenvalue strictly in the left
    half-plane with a 6 dB gain margin (the loop at twice the gain must also
    be stable).  K = 0 is the always-feasible fallback.  The 2K study runs
    only for a candidate that decides: stable at K and better than the best
    so far.  A candidate whose eigen study raises AnalysisError or
    LinAlgError is skipped; a 2K study that is not run cannot skip its
    candidate.  DesignError is raised when every non-zero candidate is
    skipped.
    """
    from .analysis import closed_loop_modes  # local import avoids a cycle

    if K_grid is None:
        K_grid = np.geomspace(1e-2, 1e2, 40)
    K_grid = np.asarray(K_grid, dtype=float)
    if np.any(K_grid < 0) or np.any(np.diff(K_grid) <= 0):
        raise DesignError("K_grid must be ascending and non-negative")

    best_k = 0.0
    base = closed_loop_modes(plant_ss, design, surrogate, 0.0, target_modes_hz)
    best_score = min(m.damping_ratio for m in base.target_modes)
    candidates = K_grid[K_grid != 0.0]
    skipped = []
    for K in candidates:
        try:
            cur = closed_loop_modes(plant_ss, design, surrogate, float(K), target_modes_hz)
            if not cur.stable:
                continue
            score = min(m.damping_ratio for m in cur.target_modes)
            if not score > best_score:
                continue
            margin = closed_loop_modes(
                plant_ss, design, surrogate, 2.0 * float(K), target_modes_hz
            )
        except (AnalysisError, np.linalg.LinAlgError) as exc:
            # an eigen study that cannot match the target modes rules the
            # candidate out; any other failure is a fault and propagates
            skipped.append(f"K={K:g}: {exc}")
            continue
        if margin.stable:
            best_score = score
            best_k = float(K)
    if len(candidates) and len(skipped) == len(candidates):
        raise DesignError(
            f"all {len(skipped)} non-zero gain candidates failed their eigen study; "
            f"first: {skipped[0]}"
        )
    return best_k
