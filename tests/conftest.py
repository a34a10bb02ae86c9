import numpy as np
import pytest

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
