"""Shared fixtures: the expensive pipeline stages run once per session."""
import copy

import numpy as np
import pytest

from podlab import pipeline
from podlab.config import default_config, plant_config
from podlab.refplant import build_reference_plant


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def drawn_configs(cfg):
    """Three plant and channel draws over the ranges the design-sweep benchmark uses."""
    rng = np.random.default_rng(13)
    out = []
    for _ in range(3):
        drawn = copy.deepcopy(cfg)
        drawn["channel"]["delay"] = {"kind": "default-histogram", "mean_s": float(rng.uniform(0.29, 0.335))}
        drawn["channel"]["rate_hz"] = float(rng.uniform(2.5, 10.0))
        scale = float(rng.uniform(0.95, 1.05))
        drawn["plant"]["mode_freqs_hz"] = [f * scale for f in drawn["plant"]["mode_freqs_hz"]]
        drawn["plant"]["damping_ratios"] = [float(rng.uniform(0.015, 0.03)), float(rng.uniform(0.02, 0.04))]
        out.append(drawn)
    return out


@pytest.fixture(scope="session")
def plant(cfg):
    return build_reference_plant(plant_config(cfg))


@pytest.fixture(scope="session")
def identified(cfg, plant):
    """(active-path, reactive-path) identified plants from the PRBS pipeline."""
    return pipeline.identify_both(cfg, plant)


@pytest.fixture(scope="session")
def surrogate(cfg):
    return pipeline.design_surrogate(cfg)


@pytest.fixture(scope="session")
def loop_designs(cfg, identified, surrogate):
    """(active, reactive) LoopDesign results with selected gains."""
    idp, idq = identified
    return pipeline.design_both(cfg, idp, idq, surrogate)
