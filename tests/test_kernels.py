"""Known values of the shared numeric kernels."""

import math

import numpy as np

from sepgeom import _kernels


def test_gap_profile_known_values():
    # two unit intervals around 0 and 3 leave a gap of 1 along the x axis
    args = (
        np.array([0.0, 3.0]),
        np.array([0.0, 0.0]),
        np.array([1.0, 1.0]),
        np.array([1.0, 1.0]),
        np.array([1.0, 1.0]),
        np.array([1.0]),
        np.array([0.0]),
    )
    assert _kernels.gap_profile(*args)[0] == 1.0


def test_sweep_gaps_known_values():
    # per column: a gap of 1 after [1.5, 2]; nested intervals overlapping by
    # at least 5; three intervals that only touch
    los = np.array([[0.0, 0.0, 0.0], [3.0, 2.0, 1.0], [1.5, 5.0, 2.0]])
    his = np.array([[1.0, 10.0, 1.0], [4.0, 3.0, 2.0], [2.0, 6.0, 2.5]])
    assert _kernels.sweep_gaps(los, his).tolist() == [1.0, -5.0, 0.0]


def test_simplex_covered_known_values():
    # equal weights put every sample at the centroid (1/3, 1/3, 1/3), at
    # distance sqrt(6)/3 < 1 from each vertex of eye(3), and at distance
    # sqrt(6) > 1 from each vertex of 3 * eye(3)
    u = np.full((8, 3), 0.5)
    assert _kernels.simplex_covered(np.eye(3), u) == 8
    assert _kernels.simplex_covered(3.0 * np.eye(3), u) == 0


def test_pole_margins_known_values():
    centers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]])
    sinr = np.array([0.25, 0.5, 0.125])
    poles = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.48, 0.6, 0.64]])
    margins, split = _kernels.pole_margins(poles, centers, sinr)
    # |p . c_i| - sinr_i: (-0.25, -0.5, 0.875), (0.75, -0.5, -0.125) and
    # (0.23, 0.1, 0.515); only the last pole has centers on both sides
    assert margins[:2].tolist() == [-0.5, -0.5]
    assert abs(margins[2] - 0.1) < 1e-15
    assert split.tolist() == [False, False, True]
