import copy
import dataclasses
import math

import numpy as np
import pytest

from podlab.channel import DelayDistribution, default_delay_distribution
from podlab.delaymodel import (
    pade_approx,
    validate_surrogate,
)
from podlab.pipeline import surrogate_for
from podlab.errors import DelayModelError
from podlab.lti import TransferFunction, eigen, to_state_space, unwrapped_phase_deg


class TestExpectedDelay:
    def test_uniform(self):
        assert DelayDistribution.uniform(0.2, 0.4).mean_s == pytest.approx(0.3)

    def test_point_mass(self):
        assert DelayDistribution.point_mass(0.5).mean_s == 0.5

    def test_default_histogram(self):
        assert default_delay_distribution(0.3).mean_s == pytest.approx(0.3, abs=1e-9)


class TestPadeApprox:
    def test_zero_theta_is_unity(self):
        assert pade_approx(0.0, 4) == TransferFunction.constant(1.0)

    def test_first_order_formula(self):
        tf = pade_approx(0.3, 1)
        assert tf == TransferFunction([1.0, -0.15], [1.0, 0.15])

    def test_order4_phase_at_half_hz(self):
        tf = pade_approx(0.3, 4)
        ph = unwrapped_phase_deg(tf, np.array([0.5]))[0]
        assert ph == pytest.approx(-54.0, abs=0.1)

    def test_order_out_of_range(self):
        with pytest.raises(DelayModelError):
            pade_approx(0.3, 0)
        with pytest.raises(DelayModelError):
            pade_approx(0.3, 9)

    def test_negative_theta_rejected(self):
        with pytest.raises(DelayModelError):
            pade_approx(-0.1, 2)


class TestValidateSurrogate:
    def test_order4_passes_ten_degrees(self):
        err = validate_surrogate(pade_approx(0.3, 4), 0.3, (0.1, 2.0))
        assert err < 10.0

    def test_order1_fails_ten_degrees(self):
        err = validate_surrogate(pade_approx(0.3, 1), 0.3, (0.1, 2.0))
        assert err > 10.0

    def test_zero_theta_zero_error(self):
        err = validate_surrogate(TransferFunction.constant(1.0), 0.0, (0.1, 2.0))
        assert err == 0.0

    def test_monotone_improvement_in_order(self):
        errs = [
            validate_surrogate(pade_approx(0.3, n), 0.3, (0.1, 2.0)) for n in range(1, 6)
        ]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_bad_band_rejected(self):
        with pytest.raises(DelayModelError):
            validate_surrogate(pade_approx(0.3, 2), 0.3, (2.0, 0.1))


class TestSurrogateProperties:
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_all_pass_within_one_percent(self, order):
        tf = pade_approx(0.3, order)
        for f in np.geomspace(0.1, 2.0, 50):
            assert abs(tf(2j * math.pi * f)) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_stability(self, order):
        poles = eigen(to_state_space(pade_approx(0.3, order)).A)
        assert np.all(poles.real < 0)


class TestBuildSurrogate:
    def test_escalation_meets_criterion(self, cfg):
        sur = surrogate_for(cfg, 0.3)
        assert sur.max_phase_err_deg < 10.0
        assert sur.order[0] == sur.order[1] <= 4
        assert sur.theta_s == 0.3

    def test_from_distribution(self, cfg):
        sur = surrogate_for(cfg, default_delay_distribution(0.3).mean_s)
        assert sur.theta_s == pytest.approx(0.3, abs=1e-9)

    def test_zero_theta(self, cfg):
        sur = surrogate_for(cfg, 0.0)
        assert sur.pade == TransferFunction.constant(1.0)
        assert sur.max_phase_err_deg == 0.0

    def test_unreachable_criterion_reported(self, cfg):
        # a 5 s delay over a 2-decade band cannot be matched by order <= 2
        low = copy.deepcopy(cfg)
        low["design"]["max_pade_order"] = 2
        with pytest.raises(DelayModelError, match="order"):
            surrogate_for(low, 5.0)

    @pytest.mark.parametrize(
        "change, error, match",
        [
            ({"theta_s": True}, TypeError, "theta_s must not be a bool"),
            ({"theta_s": "0.3"}, TypeError, "not supported"),
            ({"theta_s": -0.1}, DelayModelError, "finite and non-negative"),
            ({"theta_s": math.inf}, DelayModelError, "finite and non-negative"),
            ({"order": (2,)}, TypeError, "order must be two integers"),
            ({"order": (2.0, 2)}, TypeError, "order must be two integers"),
            ({"order": (True, 2)}, TypeError, "order must be two integers"),
        ],
        ids=["theta-bool", "theta-str", "theta-negative", "theta-inf", "order-one-int",
             "order-float", "order-bool"],
    )
    def test_surrogate_fields_checked(self, cfg, change, error, match):
        sur = surrogate_for(cfg, 0.3)
        with pytest.raises(error, match=match):
            dataclasses.replace(sur, **change)

    def test_to_dict_roundtrip_fields(self, cfg):
        sur = surrogate_for(cfg, 0.3)
        d = sur.to_dict()
        assert d["theta_s"] == 0.3
        assert TransferFunction(d["num"], d["den"]) == sur.pade
