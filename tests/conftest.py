"""Shared fixtures: the expensive pipeline stages run once per session."""
import pytest

from podlab import pipeline
from podlab.config import default_config, plant_config
from podlab.refplant import build_reference_plant


@pytest.fixture(scope="session")
def cfg():
    return default_config()


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
