import pytest
from hypothesis import settings

from bglab import constructions
from bglab.core import mult_reduct

# No deadline (example timings vary with machine load, so none is bounded)
# and derandomized draws, so every run checks the same examples.
settings.register_profile("bglab", deadline=None, derandomize=True)
settings.load_profile("bglab")


@pytest.fixture(scope="session")
def s3():
    return constructions.symmetric_group(3)


@pytest.fixture(scope="session")
def q8():
    return constructions.quaternion_group()


@pytest.fixture(scope="session")
def z2():
    return constructions.cyclic_group(2)


@pytest.fixture(scope="session")
def z4():
    return constructions.cyclic_group(4)


@pytest.fixture(scope="session")
def trivial_group():
    return constructions.cyclic_group(1)


@pytest.fixture(scope="session")
def b21():
    return constructions.brandt_monoid_b21()


@pytest.fixture(scope="session")
def b21_mul(b21):
    return mult_reduct(b21)


@pytest.fixture(scope="session")
def b2(trivial_group):
    return constructions.brandt_semigroup(trivial_group, 2)


@pytest.fixture(scope="session")
def b3(trivial_group):
    return constructions.brandt_semigroup(trivial_group, 3)


@pytest.fixture(scope="session")
def bz2(z2):
    return constructions.brandt_semigroup(z2, 2)


@pytest.fixture(scope="session")
def ps3(s3):
    return constructions.power_semiring(s3)


@pytest.fixture(scope="session")
def ps3_mul(ps3):
    return mult_reduct(ps3)


@pytest.fixture(scope="session")
def ips3(s3):
    return constructions.involution_power(s3)


@pytest.fixture(scope="session")
def hall2():
    return constructions.hall_semiring(2)


@pytest.fixture(scope="session")
def hall3():
    return constructions.hall_semiring(3)


@pytest.fixture(scope="session")
def kad21():
    return constructions.kadourek_semigroup(2, 1)
