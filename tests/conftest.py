"""Suite-wide setup: pin the numeric libraries to one thread, and the
fixtures that several test modules share.

The acceptance runtime budgets are stated for single-threaded execution;
setting the knobs here (before numpy/scipy load) makes the measured wall
times a faithful single-thread bound and keeps timings reproducible.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import copy

import pytest

# Two rectangles of which the first's right wall ends on the second's bottom
# edge: the shared node (2, 1) lies on a Dirichlet wall of sub-domain 1 only.
_ONE_SIDED_CONFIG = {
    "geometry": {"rects": [[[0.0, 2.0], [0.0, 1.0]], [[1.0, 3.0], [1.0, 3.0]]]},
    "mesh": {"h1": 0.25, "h2": 0.25},
    "field": {"d1": 2, "d2": 2},
    "pc": {"p1": 2, "p2": 2},
}


@pytest.fixture()
def one_sided_config():
    """An L-shaped diffusion config with a one-sided Dirichlet interface node."""
    return copy.deepcopy(_ONE_SIDED_CONFIG)


@pytest.fixture(scope="module")
def profile_problem():
    """Built-in profiles by name, each built once for the module."""
    from sepfeti import problems

    built = {}

    def get(name):
        if name not in built:
            built[name] = problems.build_from_config(problems.profile_config(name))
        return built[name]

    return get
