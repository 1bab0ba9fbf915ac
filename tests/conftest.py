import numpy as np
import pytest

from epifront import InfectionResponse, InitialData, ModelParams


@pytest.fixture(scope="session")
def unit_params() -> ModelParams:
    """All rates, the diffusivity, and the half-width equal to 1."""
    return ModelParams(d=1.0, a11=1.0, a12=1.0, a22=1.0, mu=1.0, h0=1.0)


@pytest.fixture(scope="session")
def monod2() -> InfectionResponse:
    return InfectionResponse.monod(2.0)


@pytest.fixture(scope="session")
def cosine_init(unit_params) -> InitialData:
    return InitialData.cosine(1.0)


def zero_response() -> InfectionResponse:
    """G identically zero: decouples the bacteria equation in solver tests."""
    return InfectionResponse(lambda z: 0.0 * z, lambda z: 0.0 * z)


def linear_response(slope: float) -> InfectionResponse:
    return InfectionResponse(lambda z: slope * z, lambda z: slope * np.ones_like(np.asarray(z, dtype=float)))
