import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import podlab
from podlab import simloop, sysid
from podlab._sim import _BLOCK, _THETA13, _expm, zoh_discretize, zoh_lsim
from podlab.config import channel_config, scenario_config
from podlab.config import prbs_config
from podlab.lti import StateSpace, TransferFunction, to_state_space


def _reference_lsim(ss, u, dt, x0=None):
    """The ZOH recursion stepped one sample at a time: an independent oracle
    for the block-lifted simulator."""
    u2 = np.atleast_2d(np.asarray(u, dtype=float))
    if u2.shape[0] == 1 and ss.B.shape[1] == 1:
        u2 = u2.T
    Ad, Bd = zoh_discretize(ss.A, ss.B, dt)
    x = np.zeros(ss.order) if x0 is None else np.asarray(x0, dtype=float).copy()
    y = np.empty((u2.shape[0], ss.C.shape[0]))
    for k in range(u2.shape[0]):
        y[k] = ss.C @ x + ss.D @ u2[k]
        x = Ad @ x + Bd @ u2[k]
    return y[:, 0] if y.shape[1] == 1 else y


def _assert_matches_reference(ss, u, dt, x0=None):
    y = zoh_lsim(ss, u, dt, x0=x0)
    ref = _reference_lsim(ss, u, dt, x0=x0)
    assert y.shape == ref.shape
    if ref.size:
        assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))


def _stable_tf(rng, order):
    """Random proper TF whose poles lie in 0.1..3 Hz, lightly to well damped."""
    poles = []
    while len(poles) < order:
        w = 2.0 * math.pi * rng.uniform(0.1, 3.0)
        if order - len(poles) >= 2 and rng.random() < 0.7:
            zeta = rng.uniform(0.02, 0.5)
            p = complex(-zeta * w, w * math.sqrt(1.0 - zeta**2))
            poles += [p, p.conjugate()]
        else:
            poles.append(-w)
    den = np.real(np.poly(poles))[::-1]
    num = rng.normal(size=rng.integers(1, order + 2))
    return TransferFunction(num, den)


def _random_miso(rng, n=6, m=3, p=2):
    A = rng.normal(size=(n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    return StateSpace(A, rng.normal(size=(n, m)), rng.normal(size=(p, n)), rng.normal(size=(p, m)))


class TestZohLsim:
    @pytest.mark.parametrize("loop", ["active", "reactive"])
    def test_reference_plant_prbs_matches_per_step(self, cfg, plant, loop):
        fs = cfg["identification"]["sample_rate_hz"]
        u = sysid.gen_prbs(prbs_config(cfg), sample_rate_hz=fs)
        path = plant.p_path if loop == "active" else plant.q_path
        _assert_matches_reference(path, u, 1.0 / fs)

    @pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
    def test_companion_form_matches_per_step(self, order):
        rng = np.random.default_rng(order)
        ss = to_state_space(_stable_tf(rng, order))
        _assert_matches_reference(ss, rng.normal(size=3000), 0.01)

    def test_miso_matches_per_step(self):
        rng = np.random.default_rng(5)
        _assert_matches_reference(_random_miso(rng), rng.normal(size=(1000, 3)), 0.01)

    def test_initial_state_with_zero_input_matches_per_step(self, plant):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=plant.p_path.order)
        _assert_matches_reference(plant.p_path, np.zeros(5000), 0.01, x0=x0)

    def test_static_gain_matches_per_step(self):
        ss = to_state_space(TransferFunction.constant(3.5))
        assert ss.order == 0
        u = np.random.default_rng(7).normal(size=300)
        _assert_matches_reference(ss, u, 0.01)
        assert np.array_equal(zoh_lsim(ss, u, 0.01), 3.5 * u)

    @pytest.mark.parametrize("K", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_lengths_around_one_block(self, K):
        rng = np.random.default_rng(K)
        ss = to_state_space(_stable_tf(rng, 4))
        _assert_matches_reference(ss, rng.normal(size=K), 0.01, x0=rng.normal(size=4))
        miso = _random_miso(rng)
        _assert_matches_reference(miso, rng.normal(size=(K, 3)), 0.01)

    def test_repeat_calls_are_bitwise_equal(self, plant):
        u = np.random.default_rng(8).normal(size=10_000)
        assert np.array_equal(zoh_lsim(plant.q_path, u, 0.01), zoh_lsim(plant.q_path, u, 0.01))


def _augmented(A, B, dt):
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    return M * dt


def _expm_rel_err(M):
    ref = scipy.linalg.expm(M)
    return np.max(np.abs(_expm(M) - ref)) / np.max(np.abs(ref))


class TestExpm:
    """The numpy-only Pade(13) exponential against scipy's expm as oracle."""

    @pytest.mark.parametrize("dt", [0.01, 1e-3])
    @pytest.mark.parametrize("loop", ["active", "reactive"])
    def test_plant_paths_match_scipy(self, plant, loop, dt):
        path = plant.p_path if loop == "active" else plant.q_path
        # measured: <= 2.2e-16 (one ulp of the largest entry)
        assert _expm_rel_err(_augmented(path.A, path.B, dt)) <= 1e-15

    def test_loop_model_matches_scipy(self, cfg, plant, loop_designs, monkeypatch):
        seen = []

        def spy(A, B, dt):
            seen.append(_augmented(A, B, dt))
            return zoh_discretize(A, B, dt)

        monkeypatch.setattr(simloop, "zoh_discretize", spy)
        dp, dq = (ld.design for ld in loop_designs)
        simloop._loop_model(plant, dp, dq, scenario_config(cfg), 1e-3)
        (M,) = seen
        # measured: <= 2.2e-16
        assert _expm_rel_err(M) <= 1e-15

    def test_random_matrices_match_scipy(self):
        rng = np.random.default_rng(11)
        norms = np.geomspace(1e-6, 50.0, 12)
        worst = 0.0
        for n in range(1, 21):
            for norm in norms:
                M = rng.normal(size=(n, n))
                M *= norm / np.abs(M).sum(axis=0).max()
                worst = max(worst, _expm_rel_err(M))
        # the largest norms take the squaring branch (s = 4 at 50)
        assert norms[-1] > 8 * _THETA13
        # measured: <= 2.3e-13, relative to the largest entry of exp(M)
        assert worst <= 1e-12

    def test_zero_matrix_is_identity(self):
        for n in (1, 3, 14):
            assert np.array_equal(scipy.linalg.expm(np.zeros((n, n))), np.eye(n))
            # the solve divides b_0 I by itself, which may round by one ulp
            assert _expm_rel_err(np.zeros((n, n))) <= np.finfo(float).eps


class TestNoScipyLapack:
    """The simulators stay off scipy's LAPACK: its OpenBLAS worker pool
    slows the single-threaded Python that follows each call."""

    def test_simulators_run_without_scipy_linalg(
        self, cfg, plant, loop_designs, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.linalg called from a simulator")

        for name in ("expm", "solve", "lu_factor"):
            monkeypatch.setattr(scipy.linalg, name, refuse)
        dp, dq = (ld.design for ld in loop_designs)
        chan, scenario = channel_config(cfg), scenario_config(cfg)
        zoh_lsim(plant.p_path, np.ones(500), 0.01)
        simloop.run_closed_loop(plant, dp, dq, chan, scenario, seed=0, duration_s=2.0, dt=1e-3)
        simloop.ensemble(2, 0, plant, dp, dq, chan, scenario, (0.5, 2.0), duration_s=2.0, dt=1e-3)

    def test_package_calls_no_scipy_linalg(self):
        """lti.eigen solves with np.linalg.eigvals: no scipy.linalg function
        is imported or called anywhere in the package."""
        called = set()
        for path in Path(podlab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
                    called.update(f"{path.name}:{a.name}" for a in node.names)
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg"
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "scipy"
                ):
                    called.add(f"{path.name}:{node.attr}")
        assert called == set()
