import pytest
from hypothesis import settings

from bglab import suite

# No deadline (example timings vary with machine load, so none is bounded)
# and derandomized draws, so every run checks the same examples.
settings.register_profile("bglab", deadline=None, derandomize=True)
settings.load_profile("bglab")


@pytest.fixture(scope="session")
def workbench():
    return suite.Workbench()


def _named(name):
    @pytest.fixture(scope="session", name=name)
    def fixture(workbench):
        return workbench.get(name)
    return fixture


# One session fixture per named algebra of the suite (s3, b21_mul, ps3, ...).
for _name in [*suite.FIXTURES, *suite.SERIES]:
    globals()[_name] = _named(_name)
