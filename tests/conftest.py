import pytest

from affine_kit import presets


@pytest.fixture
def brownian():
    return presets.brownian(2)


@pytest.fixture
def cir():
    return presets.cir()


@pytest.fixture
def parabola():
    return presets.parabola()
