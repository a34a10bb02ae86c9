import math

import numpy as np
import pytest
from hypothesis import strategies as st

from orthoglide.synthesis import prototype_design, prototype_synthesis


@pytest.fixture(scope="session")
def proto():
    """Synthesis of the reduced-scale prototype (200 mm cube, bounds 0.5/2)."""
    return prototype_synthesis()


@pytest.fixture(scope="session")
def design():
    return prototype_design()


@pytest.fixture()
def rng():
    return np.random.default_rng(20020901)


def random_cube_poses(result, rng, n):
    """Uniform poses inside the synthesized cube (all reachable by design)."""
    lo = result.q1
    hi = result.q2
    return lo + (hi - lo) * rng.random((n, 3))


def grid_xyz(axes):
    """(N, 3) coordinates of every node of a grid with these x, y and z
    axes, in x-major grid order."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


@st.composite
def matrices3(draw):
    """3x3 float matrices of four kinds: random entries; the inverse
    Jacobian of a diagonal pose, ones on the diagonal and a elsewhere, with
    its singular a = 1 and a = -1/2 drawn often; rank 0, 1 or 2, as sums of
    outer products; and entries scaled by 1e-150 to 1e150, so that products
    overflow to inf or NaN, or underflow."""
    kind = draw(st.sampled_from(("random", "diagonal", "rank", "scaled")))
    unit = st.floats(-10.0, 10.0)
    vector = st.lists(unit, min_size=3, max_size=3).map(np.array)
    if kind == "diagonal":
        a = draw(st.sampled_from((1.0, -0.5)) | st.floats(-1.0, 1.0))
        return np.full((3, 3), a) + (1.0 - a) * np.eye(3)
    if kind == "rank":
        m = np.zeros((3, 3))
        for _ in range(draw(st.integers(0, 2))):
            m += np.outer(draw(vector), draw(vector))
        return m
    m = np.array(draw(st.lists(unit, min_size=9, max_size=9))).reshape(3, 3)
    if kind == "scaled":
        power = st.sampled_from((-150, 150)) | st.integers(-150, 150)
        powers = draw(st.lists(power, min_size=9, max_size=9))
        m *= np.reshape([10.0**k for k in powers], (3, 3))
    return m


def same_bits(a, b) -> bool:
    """a and b are the same float, the sign of a zero included, or both NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
