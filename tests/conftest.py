import pytest

from clawforge.corpus import builtin_models


@pytest.fixture(scope="session")
def models():
    return builtin_models()


@pytest.fixture(scope="session")
def kdv(models):
    return models["kdv"]


@pytest.fixture(scope="session")
def fw(models):
    return models["fw"]


@pytest.fixture(scope="session")
def sp(models):
    return models["sp"]


@pytest.fixture(scope="session")
def gas1d(models):
    return models["gas1d"]


@pytest.fixture(scope="session")
def gas3d(models):
    return models["gas3d"]
