import numpy as np
import pytest

import eitlab as el
from eitlab.forward import Admittivity

_GAMMA = (1.2 + 0.3j, 1.9 - 0.5j, 0.8 + 0.1j, 1.5 + 0.2j)
_OFFSET = (0.1, -0.2, 2.0, 1.1)
_UNIT = (0.0, 0.0, 1.0, 1.0)
# (strips, rectangle, extension strip, h): dyadic grids, then grids whose node
# columns are not evenly spaced in floating point
_STRIP_MESHES = {
    **{f"{ext}-{h}": (3, _UNIT, ext, h) for h in (1 / 32, 1 / 64) for ext in (False, True)},
    **{f"{n}-strips-h-1/{k}{'-ext' if ext else ''}": (n, _UNIT, ext, 1 / k)
       for n in (3, 4) for k in (24, 30) for ext in (False, True)},
    "offset-rect": (3, _OFFSET, False, 1 / 16),
    "offset-rect-ext": (3, _OFFSET, True, 1 / 40),
}


@pytest.fixture(scope="session")
def strips2_mesh64():
    p = el.build_partition(2)
    return p, el.generate_mesh(p, 1 / 64)


@pytest.fixture(scope="session")
def strips3_mesh64():
    p = el.build_partition(3)
    return p, el.generate_mesh(p, 1 / 64)


@pytest.fixture(scope="session")
def disk_mesh64():
    return el.generate_disk_mesh(1 / 64)


@pytest.fixture(scope="session")
def disk_mesh32():
    return el.generate_disk_mesh(1 / 32)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240831)


@pytest.fixture(params=list(_STRIP_MESHES.values()), ids=list(_STRIP_MESHES))
def strip_mesh(request):
    """A `generate_mesh` strip mesh and an admittivity with one value per strip."""
    n, rect, with_extension, h = request.param
    p = el.build_partition(n, rect=rect, with_extension=with_extension)
    return el.generate_mesh(p, h), Admittivity(_GAMMA[:n])
