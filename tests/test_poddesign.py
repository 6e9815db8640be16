import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest

from podlab import pipeline, poddesign
from podlab.errors import (
    AnalysisError,
    DesignError,
    InfeasibleOperatingPointError,
    NyquistLimitError,
)
from podlab.lti import phase_at, series, to_state_space
from podlab.poddesign import (
    T_MAX,
    T_MIN,
    CompensatorDesign,
    DesignContext,
    DoglegResult,
    LimitsInput,
    PhaseBudget,
    design_compensator,
    dogleg_solve,
    leadlag_phase_deg,
    leadlag_tf,
    power_limits,
    residual_F,
    select_gain,
    washout,
    wrap_phase_deg,
)
from podlab.sysid import find_modes


class TestLeadLag:
    def test_identity_when_all_equal(self):
        tf = leadlag_tf(1.0, 1.0, 1.0, 1.0)
        for f in (0.1, 0.45, 2.0):
            assert tf(2j * math.pi * f) == pytest.approx(1.0)

    def test_phase_atan_formula(self):
        # one active stage, second stage cancelled (T3 == T4)
        Ts = (1.0, 0.1, 0.5, 0.5)
        expect = math.degrees(math.atan(1.0) - math.atan(0.1))
        assert leadlag_phase_deg(Ts, 1.0) == pytest.approx(expect)
        assert expect == pytest.approx(39.2894, abs=1e-3)

    def test_phase_matches_tf_angle(self):
        Ts = (0.8, 0.2, 0.3, 1.5)
        tf = leadlag_tf(*Ts)
        for w in (0.5, 2.827, 5.655):
            assert leadlag_phase_deg(Ts, w) == pytest.approx(
                math.degrees(np.angle(tf(1j * w))), abs=1e-9
            )

    def test_classic_lead_maximum_phase(self):
        T1, T2 = 1.0, 0.1
        Ts = (T1, T2, 0.5, 0.5)
        w_max = 1.0 / math.sqrt(T1 * T2)
        phi_max = math.degrees(math.asin((T1 - T2) / (T1 + T2)))
        assert leadlag_phase_deg(Ts, w_max) == pytest.approx(phi_max, abs=1e-9)
        for w in (0.5 * w_max, 2.0 * w_max):
            assert leadlag_phase_deg(Ts, w) < phi_max

    def test_nonpositive_time_constant_rejected(self):
        with pytest.raises(DesignError):
            leadlag_tf(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(DesignError):
            leadlag_tf(1.0, 1.0, -0.5, 1.0)


class TestWrapPhase:
    @pytest.mark.parametrize(
        "phi,expect",
        [(0.0, 0.0), (180.0, 180.0), (-180.0, 180.0), (-285.0, 75.0),
         (365.0, 5.0), (-540.0, 180.0), (75.0, 75.0)],
    )
    def test_values(self, phi, expect):
        assert wrap_phase_deg(phi) == pytest.approx(expect)

    def test_range(self):
        for phi in np.linspace(-1000.0, 1000.0, 401):
            w = wrap_phase_deg(phi)
            assert -180.0 < w <= 180.0
            # same angle modulo 360
            assert math.isclose(math.cos(math.radians(w)), math.cos(math.radians(phi)), abs_tol=1e-12)


class TestResidual:
    def test_zero_when_compensator_cancels(self):
        # T1=T2, T3=T4 gives zero compensator phase; zero fixed phase -> zero residual
        ctx = DesignContext(omegas=(2.827, 5.655), fixed_phase_deg=(-30.0, -60.0))
        # unit compensator phase contributions cancel:
        x = np.log(np.array([1.0, 1.0, 1.0, 1.0]))
        F = residual_F(x, ctx)
        assert F[0] == pytest.approx(-30.0 / 60.0)
        assert F[1] == pytest.approx(-60.0 / 30.0)

    def test_cross_mode_normalization(self):
        ctx = DesignContext(omegas=(1.0, 2.0), fixed_phase_deg=(-10.0, -40.0))
        x = np.log(np.array([1.0, 1.0, 1.0, 1.0]))
        F = residual_F(x, ctx)
        assert F[0] == pytest.approx(-10.0 / 40.0)
        assert F[1] == pytest.approx(-40.0 / 10.0)

    def test_stage_swap_equivariance(self):
        ctx = DesignContext(omegas=(2.827, 5.655), fixed_phase_deg=(-30.0, -60.0))
        x = np.log(np.array([0.7, 0.2, 1.4, 0.4]))
        x_sw = np.log(np.array([1.4, 0.4, 0.7, 0.2]))
        assert np.allclose(residual_F(x, ctx), residual_F(x_sw, ctx))

    def test_small_denominator_falls_back_unnormalized(self):
        ctx = DesignContext(omegas=(1.0, 2.0), fixed_phase_deg=(-0.5, -30.0))
        x = np.log(np.array([1.0, 1.0, 1.0, 1.0]))
        with pytest.warns(UserWarning, match="unnormalized"):
            F = residual_F(x, ctx)
        assert F[0] == pytest.approx(-0.5)
        assert F[1] == pytest.approx(-30.0)

    def test_clamping_inside_bounds_box(self):
        ctx = DesignContext(omegas=(1.0, 2.0), fixed_phase_deg=(-30.0, -60.0))
        huge = np.log(np.array([1e6, 1e-6, 1e6, 1e-6]))
        clamped = np.log(np.array([10.0, 0.01, 10.0, 0.01]))
        assert np.allclose(residual_F(huge, ctx), residual_F(clamped, ctx))


# Unit problems for the solver.  Indexed by row, each also maps an (n, k)
# array of k points to their (m, k) residuals, as dogleg_solve requires.
def _linear(x):
    return np.array([x[0] + x[1] - 3.0, x[0] - x[1] - 1.0])


def _rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


_PHASE_CTX = DesignContext(omegas=(2.827, 5.655), fixed_phase_deg=(-130.0, -110.0))


def _phase_residual(x):
    return residual_F(x, _PHASE_CTX)


class TestDogleg:
    def test_linear_system(self):
        res = dogleg_solve(_linear, np.zeros(2))
        assert res.converged
        assert np.allclose(res.x, [2.0, 1.0], atol=1e-8)

    def test_rosenbrock_residuals(self):
        res = dogleg_solve(_rosenbrock, np.array([-1.2, 1.0]))
        assert res.converged
        assert res.fnorm < 1e-8
        assert res.iterations <= 200
        assert np.allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_recovers_achievable_phase_targets(self):
        Ts_true = np.array([1.8, 0.25, 0.9, 0.12])
        omegas = (2.827, 5.655)
        fixed = tuple(-leadlag_phase_deg(Ts_true, w) for w in omegas)
        ctx = DesignContext(omegas=omegas, fixed_phase_deg=fixed)
        res = dogleg_solve(lambda x: residual_F(x, ctx), np.log([0.5, 0.17, 2.0, 0.7]))
        assert res.converged
        Ts = np.clip(np.exp(res.x), 0.01, 10.0)
        for w, target in zip(omegas, fixed):
            assert leadlag_phase_deg(Ts, w) == pytest.approx(-target, abs=0.1)

    def test_returns_best_point_when_not_converged(self):
        def fun(x):
            return np.array([x[0] ** 2 + 1.0])  # no real root

        res = dogleg_solve(fun, np.array([3.0]), max_iter=50)
        assert not res.converged
        assert res.fnorm <= float(np.linalg.norm(fun(np.array([3.0]))))


class TestWashout:
    def test_dc_rejection(self):
        assert washout(5.0)(0.0) == 0.0

    def test_corner_magnitude(self):
        Tw = 5.0
        assert abs(washout(Tw)(1j / Tw)) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_small_phase_in_band(self):
        tf = washout(5.0)
        w = 2.0 * math.pi * 0.45
        assert 0.0 < math.degrees(np.angle(tf(1j * w))) < 5.0

    def test_nonpositive_rejected(self):
        with pytest.raises(DesignError):
            washout(0.0)


class TestPowerLimits:
    def test_nominal_fixture(self):
        p_l, q_l = power_limits(LimitsInput(k=0.1, p_R=0.5, q_R=0.0, S_n=1.0))
        assert p_l == pytest.approx(0.05)
        assert q_l == pytest.approx(0.8352, abs=1e-4)

    def test_zero_active_operating_point(self):
        p_l, q_l = power_limits(LimitsInput(k=0.2, p_R=0.0, q_R=0.3, S_n=1.0))
        assert p_l == 0.0
        assert q_l == pytest.approx(0.7)

    def test_active_headroom_infeasible(self):
        with pytest.raises(InfeasibleOperatingPointError):
            power_limits(LimitsInput(k=0.5, p_R=0.8, q_R=0.0, S_n=1.0))

    def test_reactive_setpoint_infeasible(self):
        with pytest.raises(InfeasibleOperatingPointError):
            power_limits(LimitsInput(k=0.1, p_R=0.5, q_R=0.9, S_n=1.0))

    def test_input_validation(self):
        with pytest.raises(DesignError):
            LimitsInput(k=1.5, p_R=0.5, q_R=0.0, S_n=1.0)
        with pytest.raises(DesignError):
            LimitsInput(k=0.1, p_R=0.5, q_R=0.0, S_n=0.0)
        with pytest.raises(DesignError):
            LimitsInput(k=0.1, p_R=-0.5, q_R=0.0, S_n=1.0)


class TestCompensatorDesignDataclass:
    def test_bounds_enforced(self):
        with pytest.raises(DesignError):
            CompensatorDesign(T1_s=0.001, T2_s=1.0, T3_s=1.0, T4_s=1.0,
                              gain=0.1, washout_Tw_s=5.0, limit_pu=0.05, loop="active")
        with pytest.raises(DesignError):
            CompensatorDesign(T1_s=1.0, T2_s=11.0, T3_s=1.0, T4_s=1.0,
                              gain=0.1, washout_Tw_s=5.0, limit_pu=0.05, loop="active")

    def test_negative_gain_rejected(self):
        with pytest.raises(DesignError):
            CompensatorDesign(T1_s=1.0, T2_s=1.0, T3_s=1.0, T4_s=1.0,
                              gain=-0.1, washout_Tw_s=5.0, limit_pu=0.05, loop="active")

    def test_unknown_loop_rejected(self):
        with pytest.raises(DesignError):
            CompensatorDesign(T1_s=1.0, T2_s=1.0, T3_s=1.0, T4_s=1.0,
                              gain=0.1, washout_Tw_s=5.0, limit_pu=0.05, loop="tertiary")

    def test_tf_construction(self):
        d = CompensatorDesign(T1_s=1.0, T2_s=0.2, T3_s=0.5, T4_s=0.1,
                              gain=0.3, washout_Tw_s=5.0, limit_pu=0.05, loop="active")
        assert d.compensator_tf() == leadlag_tf(1.0, 0.2, 0.5, 0.1)
        assert d.washout_tf() == washout(5.0)
        assert d.to_dict()["loop"] == "active"


class TestPhaseBudget:
    def test_composition_identity(self):
        b = PhaseBudget(phi_P_deg=(-30.0, -60.0), phi_D_deg=(-48.6, -97.2),
                        phi_C_deg=(78.6, 157.2))
        assert b.phi_G_deg[0] == pytest.approx(0.0, abs=1e-9)
        assert b.phi_G_deg[1] == pytest.approx(0.0, abs=1e-9)


class TestDesignCompensator:
    def test_nyquist_guard(self, identified, surrogate):
        idp, _ = identified
        modes = (2.0 * math.pi * 0.45, 2.0 * math.pi * 1.9)
        with pytest.raises(NyquistLimitError, match="NY-LIMIT"):
            design_compensator(idp, surrogate, modes, channel_rate_hz=3.2)

    def test_default_paths_zero_composed_phase(self, identified, surrogate, loop_designs):
        for ident, ld in zip(identified, loop_designs):
            assert ld.diagnostics.fnorm_inf < 1e-6
            comp = series(ld.design.compensator_tf(), ld.design.washout_tf())
            for w in ld.context.omegas:
                total = wrap_phase_deg(
                    phase_at(ident.tf, w)
                    + phase_at(surrogate.pade, w)
                    + math.degrees(np.angle(comp(1j * w)))
                )
                assert abs(total) < 1e-4

    def test_budget_within_five_degrees(self, loop_designs):
        for ld in loop_designs:
            for phi in ld.diagnostics.budget.phi_G_deg:
                assert abs(phi) < 5.0

    def test_time_constants_within_bounds(self, loop_designs):
        for ld in loop_designs:
            for T in ld.design.time_constants:
                assert 0.01 <= T <= 10.0

    def test_gain_selected_positive(self, loop_designs):
        for ld in loop_designs:
            assert ld.design.gain > 0.0


class TestSelectGain:
    def test_bad_grid_rejected(self, plant, surrogate, loop_designs):
        ld = loop_designs[0]
        with pytest.raises(DesignError):
            select_gain(plant.p_path, ld.design, surrogate, (0.45, 0.90),
                        K_grid=np.array([2.0, 1.0]))

    def test_all_infeasible_grid_falls_back_to_zero(self, plant, surrogate, loop_designs):
        ld = loop_designs[0]
        K = select_gain(plant.p_path, ld.design, surrogate, (0.45, 0.90),
                        K_grid=np.array([1e5, 1e6]))
        assert K == 0.0

    def test_unexpected_error_propagates(self, plant, surrogate, loop_designs, monkeypatch):
        from podlab import analysis

        real = analysis.closed_loop_modes

        def broken(plant_ss, design, surrogate, gain, targets):
            if gain > 0.0:
                raise RuntimeError("injected fault")
            return real(plant_ss, design, surrogate, gain, targets)

        monkeypatch.setattr(analysis, "closed_loop_modes", broken)
        with pytest.raises(RuntimeError, match="injected fault"):
            select_gain(plant.p_path, loop_designs[0].design, surrogate, (0.45, 0.90),
                        K_grid=np.array([0.1, 1.0]))

    def test_all_candidates_skipped_raises(self, plant, surrogate, loop_designs, monkeypatch):
        from podlab import analysis

        real = analysis.closed_loop_modes

        def ambiguous(plant_ss, design, surrogate, gain, targets):
            if gain > 0.0:
                raise AnalysisError("mode-matching ambiguity")
            return real(plant_ss, design, surrogate, gain, targets)

        monkeypatch.setattr(analysis, "closed_loop_modes", ambiguous)
        with pytest.raises(DesignError, match="all 2 non-zero gain candidates"):
            select_gain(plant.p_path, loop_designs[0].design, surrogate, (0.45, 0.90),
                        K_grid=np.array([0.0, 0.1, 1.0]))

    def test_selected_gain_in_grid_improves_damping(self, plant, surrogate, loop_designs):
        from podlab.analysis import closed_loop_modes

        ld = loop_designs[0]
        grid = np.geomspace(1e-2, 1e1, 16)
        K = select_gain(plant.p_path, ld.design, surrogate, (0.45, 0.90), K_grid=grid)
        assert K in grid or K == 0.0
        base = closed_loop_modes(plant.p_path, ld.design, surrogate, 0.0, (0.45, 0.90))
        tuned = closed_loop_modes(plant.p_path, ld.design, surrogate, K, (0.45, 0.90))
        assert min(m.damping_ratio for m in tuned.target_modes) >= min(
            m.damping_ratio for m in base.target_modes
        )


# The array-based residual, Jacobian and np.linalg.norm dogleg that the lean
# solver path replaced, kept as its bitwise reference.
def _reference_residual_F(x, ctx):
    Ts = np.clip(np.exp(np.asarray(x, dtype=float)), T_MIN, T_MAX)
    e1 = leadlag_phase_deg(Ts, ctx.omegas[0]) + ctx.fixed_phase_deg[0]
    e2 = leadlag_phase_deg(Ts, ctx.omegas[1]) + ctx.fixed_phase_deg[1]
    d1 = -ctx.fixed_phase_deg[1]
    d2 = -ctx.fixed_phase_deg[0]
    if abs(d1) <= 1.0 or abs(d2) <= 1.0:
        warnings.warn(
            "cross-mode phase denominator under 1 degree; using unnormalized residuals"
        )
        return np.array([e1, e2])
    return np.array([e1 / d1, e2 / d2])


def _reference_jacobian(fun, x, rel_step=1e-6):
    f0 = np.atleast_1d(fun(x))
    J = np.empty((len(f0), len(x)))
    for j in range(len(x)):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h)
    if not np.all(np.isfinite(J)):
        raise DesignError("Jacobian evaluation failed (non-finite entries)")
    return J


def _reference_dogleg_solve(fun, x0, max_iter=200, tol=1e-10, radius_floor=1e-12):
    x = np.asarray(x0, dtype=float).copy()
    F = np.atleast_1d(fun(x))
    fnorm = float(np.linalg.norm(F))
    radius = 1.0
    it = 0
    while it < max_iter:
        it += 1
        if fnorm <= tol:
            return DoglegResult(x, fnorm, True, it - 1)
        J = _reference_jacobian(fun, x)
        g = J.T @ F
        gn = np.linalg.lstsq(J, -F, rcond=None)[0]
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            break
        if np.linalg.norm(gn) <= radius:
            p = gn
        else:
            t = gnorm**2 / float(np.linalg.norm(J @ g) ** 2)
            p_sd = -t * g
            if np.linalg.norm(p_sd) >= radius:
                p = -radius * g / gnorm
            else:
                d = gn - p_sd
                a = float(d @ d)
                b = 2.0 * float(p_sd @ d)
                c = float(p_sd @ p_sd) - radius**2
                tau = (-b + math.sqrt(max(b * b - 4.0 * a * c, 0.0))) / (2.0 * a)
                p = p_sd + tau * d
        F_new = np.atleast_1d(fun(x + p))
        fnorm_new = float(np.linalg.norm(F_new))
        pred = fnorm**2 - float(np.linalg.norm(F + J @ p) ** 2)
        actual = fnorm**2 - fnorm_new**2
        rho = actual / pred if pred > 0 else -1.0
        if rho > 1e-4:
            x = x + p
            F = F_new
            fnorm = fnorm_new
        if rho < 0.25:
            radius = 0.25 * float(np.linalg.norm(p))
        elif rho > 0.75 and abs(np.linalg.norm(p) - radius) < 1e-10 * radius + 1e-14:
            radius = min(2.0 * radius, 1e6)
        elif rho > 0.75:
            radius = max(radius, 2.0 * float(np.linalg.norm(p)))
        if radius < radius_floor:
            break
    return DoglegResult(x, fnorm, fnorm <= tol, it)


def _bits(o):
    """``o`` with every float spelled exactly, for bitwise comparison."""
    if isinstance(o, float):
        return o.hex()
    if isinstance(o, np.ndarray):
        return (o.dtype.str, o.shape, o.tobytes())
    if isinstance(o, (tuple, list)):
        return [_bits(v) for v in o]
    if dataclasses.is_dataclass(o):
        return {f.name: _bits(getattr(o, f.name)) for f in dataclasses.fields(o)}
    return o


def _drawn_configs(base, n, seed):
    """Plant and channel draws over the ranges the design-sweep benchmark uses."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        cfg = copy.deepcopy(base)
        cfg["channel"]["delay"] = {"kind": "default-histogram", "mean_s": float(rng.uniform(0.29, 0.335))}
        cfg["channel"]["rate_hz"] = float(rng.uniform(2.5, 10.0))
        scale = float(rng.uniform(0.95, 1.05))
        cfg["plant"]["mode_freqs_hz"] = [f * scale for f in cfg["plant"]["mode_freqs_hz"]]
        cfg["plant"]["damping_ratios"] = [float(rng.uniform(0.015, 0.03)), float(rng.uniform(0.02, 0.04))]
        out.append(cfg)
    return out


def _dogleg_starts(n_starts=8):
    """The start points design_compensator tries, in its order."""
    return [
        np.log(np.array([v, v / 3.0, v * scale, v * scale / 3.0]))
        for v in np.geomspace(0.05, 5.0, n_starts)
        for scale in (1.0, 0.25, 4.0)
    ]


@pytest.fixture(scope="module")
def drawn_cases(cfg, identified, surrogate):
    """The default config and three drawn ones: (config, identified paths, surrogate)."""
    cases = [(cfg, identified, surrogate)]
    for drawn in _drawn_configs(cfg, 3, seed=13):
        cases.append((drawn, pipeline.identify_both(drawn), pipeline.design_surrogate(drawn)))
    return cases


# The eager gain search that ran the 2K study for every candidate, kept as the
# reference of select_gain.  It also returns the candidates whose 2K study
# decides (stable at K and better than the best so far) and the number of
# candidates it skipped.
def _reference_select_gain(plant_ss, design, surrogate, target_modes_hz, K_grid):
    from podlab.analysis import closed_loop_modes

    def study(K):
        try:
            return closed_loop_modes(plant_ss, design, surrogate, K, target_modes_hz)
        except (AnalysisError, np.linalg.LinAlgError):
            return None

    best_k = 0.0
    base = closed_loop_modes(plant_ss, design, surrogate, 0.0, target_modes_hz)
    best_score = min(m.damping_ratio for m in base.target_modes)
    decisive, skipped = [], 0
    for K in K_grid[K_grid != 0.0].tolist():
        cur = study(K)
        if cur is None:
            skipped += 1
            continue
        score = min(m.damping_ratio for m in cur.target_modes)
        if cur.stable and score > best_score:
            decisive.append(K)
        margin = study(2.0 * K)
        if margin is None:
            skipped += 1
            continue
        if not (cur.stable and margin.stable):
            continue
        if score > best_score:
            best_score = score
            best_k = K
    return best_k, decisive, skipped


class TestBitwiseReference:
    """The lean residual, Jacobian and norms reproduce the array-based
    solver path bit for bit: same iterates, same norms, same designs."""

    def test_residual_matches_reference(self):
        rng = np.random.default_rng(11)
        ctxs = [
            DesignContext(omegas=(2.827, 5.655), fixed_phase_deg=(-130.0, -110.0)),
            DesignContext(omegas=(1.3, 7.1), fixed_phase_deg=(-0.5, -30.0)),  # unnormalized
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ctx in ctxs:
                # spans the clamp box on both sides
                for x in rng.uniform(-7.0, 4.0, size=(200, 4)):
                    assert _bits(residual_F(x, ctx)) == _bits(_reference_residual_F(x, ctx))

    def test_dogleg_matches_reference(self, loop_designs):
        rng = np.random.default_rng(12)
        ctxs = [ld.context for ld in loop_designs] + [
            DesignContext(
                omegas=(float(rng.uniform(2.0, 3.5)), float(rng.uniform(5.0, 7.0))),
                fixed_phase_deg=(float(rng.uniform(-170.0, -20.0)), float(rng.uniform(-170.0, -20.0))),
            )
            for _ in range(3)
        ]
        for ctx in ctxs:
            for x0 in _dogleg_starts():
                got = dogleg_solve(lambda x: residual_F(x, ctx), x0)
                ref = _reference_dogleg_solve(lambda x: _reference_residual_F(x, ctx), x0)
                assert _bits(got) == _bits(ref)

    def test_rejected_steps_reuse_the_jacobian(self, loop_designs, monkeypatch):
        """A rejected step leaves x where it was, so the solver keeps the
        Jacobian it has: each iterate's Jacobian is built once, the result is
        unchanged, and fewer Jacobians are built than iterations run."""
        points = []

        def spy(fun, x, *args):
            points.append(x.tobytes())
            return jacobian(fun, x, *args)

        jacobian = poddesign._jacobian
        monkeypatch.setattr(poddesign, "_jacobian", spy)
        n_jac = n_iter = 0
        for ctx in (ld.context for ld in loop_designs):
            for x0 in _dogleg_starts():
                points.clear()
                got = dogleg_solve(lambda x: residual_F(x, ctx), x0)
                ref = _reference_dogleg_solve(lambda x: _reference_residual_F(x, ctx), x0)
                assert _bits(got) == _bits(ref)
                assert len(set(points)) == len(points)
                n_jac += len(points)
                n_iter += got.iterations
        assert n_jac < n_iter

    def test_design_compensator_matches_reference(self, drawn_cases, monkeypatch):
        def designs():
            out = []
            for c, idents, sur in drawn_cases:
                for ident in idents:
                    modes = find_modes(ident, band_hz=tuple(c["design"]["band_hz"]))
                    out.append(
                        design_compensator(ident, sur, modes, c["channel"]["rate_hz"], limit_pu=0.05)
                    )
            return out

        got = designs()
        monkeypatch.setattr(poddesign, "residual_F", _reference_residual_F)
        monkeypatch.setattr(poddesign, "dogleg_solve", _reference_dogleg_solve)
        ref = designs()
        assert len(got) == 8
        assert _bits(got) == _bits(ref)

    def test_residual_columns_match_single_points(self):
        """An (4, k) call gives, column for column, the k single-point residuals."""
        rng = np.random.default_rng(14)
        ctxs = [
            DesignContext(omegas=(2.827, 5.655), fixed_phase_deg=(-130.0, -110.0)),
            DesignContext(omegas=(1.3, 7.1), fixed_phase_deg=(-0.5, -30.0)),  # unnormalized
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for ctx in ctxs:
                for k in (1, 8, 13):
                    X = rng.uniform(-7.0, 4.0, size=(4, k))
                    F = residual_F(X, ctx)
                    assert F.shape == (2, k)
                    for j in range(k):
                        ref = _reference_residual_F(X[:, j].copy(), ctx)
                        assert _bits(F[:, j].copy()) == _bits(ref)

    @pytest.mark.parametrize(
        "fun, centre, spread",
        [(_linear, [0.0, 0.0], 3.0), (_rosenbrock, [-1.2, 1.0], 3.0), (_phase_residual, [-1.5] * 4, 5.5)],
        ids=["linear", "rosenbrock", "residual_F"],
    )
    def test_jacobian_is_one_call(self, fun, centre, spread):
        """Each Jacobian is one fun call on the 2n points, bitwise equal to
        the per-point central differences, and C-contiguous."""
        rng = np.random.default_rng(15)
        points = np.asarray(centre) + rng.uniform(-spread, spread, size=(50, len(centre)))
        calls = []

        def counted(x):
            calls.append(x.shape)
            return fun(x)

        for x in points:
            calls.clear()
            J = poddesign._jacobian(counted, x)
            assert calls == [(len(x), 2 * len(x))]
            assert J.flags.c_contiguous
            assert _bits(J) == _bits(_reference_jacobian(fun, x))

    def test_select_gain_matches_eager_reference(self, drawn_cases, monkeypatch):
        """The gain is the eager search's, and the 2K study runs exactly once
        for each decisive candidate and for no other."""
        from podlab import analysis

        real = analysis.closed_loop_modes
        gains = []

        raised = []

        def spy(plant_ss, design, surrogate, gain, targets):
            gains.append(gain)
            try:
                return real(plant_ss, design, surrogate, gain, targets)
            except AnalysisError:
                raised.append(gain)
                raise

        n_decisive = n_candidates = n_skipped = 0
        for c, idents, sur in drawn_cases:
            grid_cfg = c["design"]["gain_grid"]
            K_grid = np.geomspace(grid_cfg["lo"], grid_cfg["hi"], grid_cfg["n"])
            for ld, ident in zip(pipeline.design_both(c, *idents, sur), idents):
                target_hz = tuple(w / (2.0 * math.pi) for w in ld.context.omegas)
                plant_ss = to_state_space(ident.tf)
                ref, decisive, skipped = _reference_select_gain(
                    plant_ss, ld.design, sur, target_hz, K_grid
                )
                n_skipped += skipped
                monkeypatch.setattr(analysis, "closed_loop_modes", spy)
                gains.clear()
                got = select_gain(plant_ss, ld.design, sur, target_hz, K_grid)
                monkeypatch.setattr(analysis, "closed_loop_modes", real)
                assert _bits(got) == _bits(ref) == _bits(ld.design.gain)
                expect = [0.0]
                for K in K_grid.tolist():
                    expect += [K, 2.0 * K] if K in decisive else [K]
                assert gains == expect
                n_decisive += len(decisive)
                n_candidates += len(K_grid)
        assert 0 < n_decisive < n_candidates
        # a 2K study that could not change the answer is not run, so it cannot
        # skip its candidate: the lazy search never skips more
        assert len(raised) <= n_skipped
