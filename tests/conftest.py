import pytest
from hypothesis import settings

from quadricpoints import FieldCtx

# Every run draws the same examples, with no example database and no
# per-example deadline; a test's own @settings still overrides this.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def F3():
    return FieldCtx(3)


@pytest.fixture(scope="session")
def F5():
    return FieldCtx(5)


@pytest.fixture(scope="session")
def F9():
    return FieldCtx(3, 2)
