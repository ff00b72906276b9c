"""Known values of the shared numeric kernels."""

import itertools
import math

import numpy as np
import pytest

from helpers import random_convex_polygon, spanning_dual
from sepgeom import _kernels
from sepgeom.bodies import polygon_facets


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
    assert _kernels.gap_profile(*args)[3].max(axis=-1)[0] == 1.0


def test_sweep_gaps_known_values():
    # per column: a gap of 1 after [1.5, 2]; nested intervals overlapping by
    # at least 5; three intervals that only touch
    los = np.array([[0.0, 0.0, 0.0], [3.0, 2.0, 1.0], [1.5, 5.0, 2.0]])
    his = np.array([[1.0, 10.0, 1.0], [4.0, 3.0, 2.0], [2.0, 6.0, 2.5]])
    assert _kernels.sweep(los.T, his.T)[1].max(axis=-1).tolist() == [1.0, -5.0, 0.0]


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


def test_triple_blocks_match_combinations():
    """The blocks list itertools.combinations(range(n), 3) in its order, each
    block holds whole runs of one first index, and a block ends with the
    first run that brings it to 2^15 rows; n from 60 on gives several."""
    several = 0
    for n in range(0, 101):
        blocks = list(_kernels.triple_blocks(n))
        want = np.array(list(itertools.combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3)
        got = np.vstack(blocks) if blocks else np.empty((0, 3), dtype=np.intp)
        assert np.array_equal(got, want), n
        for block, after in zip(blocks, blocks[1:]):
            assert block[-1, 0] < after[0, 0]  # a run is never split
            last_run = int((block[:, 0] == block[-1, 0]).sum())
            assert len(block) - last_run < 1 << 15 <= len(block)
        several += len(blocks) > 1
    assert several == 41  # n = 60 .. 100


def test_sweep_gathers_as_take_along_axis(rng):
    """The flat-index gathers of sweep give np.take_along_axis's arrays to the
    bit, on 1-D, 2-D and 3-D inputs with ties, C- and Fortran-ordered."""
    for shape in ((1,), (7,), (4, 9), (9, 4), (3, 5, 6), (2, 1, 3), (3, 0)):
        for _ in range(5):
            los = rng.integers(0, 4, shape).astype(float)
            his = los + rng.integers(0, 3, shape)
            for lo, hi in ((los, his), (los.T.copy().T, his.T.copy().T)):
                order, gaps = _kernels.sweep(lo, hi)
                want = np.argsort(lo, axis=-1, kind="stable")
                cover = np.maximum.accumulate(np.take_along_axis(hi, want, axis=-1), axis=-1)
                gathered = np.take_along_axis(lo, want, axis=-1)[..., 1:] - cover[..., :-1]
                assert np.array_equal(order, want)
                assert gaps.shape == gathered.shape and gaps.tobytes() == gathered.tobytes()


def _ccw_normals(rng, k: int) -> np.ndarray:
    """k unit normals in ccw order, consecutive ones 0.05 to pi - 0.05 apart."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        gaps = np.diff(np.append(ang, ang[0] + 2.0 * math.pi))
        if 0.05 < gaps.min() and gaps.max() < math.pi - 0.05:
            return np.column_stack([np.cos(ang), np.sin(ang)])


def _check_collapse(m, c, w, want: float) -> None:
    """collapse gives the largest lam, to round-off of the inputs' size, and
    a point of its set."""
    lam, x = _kernels.collapse(m, c, w)
    size = float(np.abs(c).max() + np.abs(w).max() * max(1.0, abs(want)))
    assert abs(lam - want) <= 1e-12 * size
    assert (m @ x - (c - lam * w)).max() <= 1e-12 * size * max(1.0, float(np.abs(x).max()))


def test_collapse_is_the_dual_minimum(rng):
    """On 3-16 lines with random offsets, against the enumerated dual;
    {m . x <= w} is the polygon with those normals tangent to the unit
    circle, or a random polygon about its vertex mean."""
    for trial in range(150):
        if trial % 2:
            body = random_convex_polygon(rng, int(rng.integers(3, 25)))
            m, w = polygon_facets(body.translate(-body.vertices.mean(axis=0)))
        else:
            m = _ccw_normals(rng, int(rng.integers(3, 17)))
            w = np.ones(len(m))
        c = rng.normal(size=len(m)) * rng.uniform(0.1, 10.0)
        _check_collapse(m, c, w, spanning_dual(m, c, w))


def test_collapse_ties():
    """Every event at once: regular k-gons whose lines all meet at the
    optimum (at 0 when they all pass through the origin), and squares and
    rectangles whose optimum is a segment."""
    for k in (3, 4, 5, 6, 8, 12, 16, 64, 512):
        ang = 2.0 * math.pi * np.arange(k) / k
        m = np.column_stack([np.cos(ang), np.sin(ang)])
        for scale in (0.0, 1.0, 3.0):
            _check_collapse(m, np.full(k, scale), np.ones(k), scale)
        _check_collapse(m, 2.0 + m @ np.array([0.25, -0.5]), np.ones(k), 2.0)
    square = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    for half_w, half_h in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0), (1e6, 1.0)):
        c = np.array([half_w, half_h, half_w, half_h])
        lam, x = _kernels.collapse(square, c, np.ones(4))
        # a point of the long midline within |half_w - half_h| of the center
        assert lam == min(half_w, half_h)
        long_axis = int(half_h > half_w)
        assert x[1 - long_axis] == 0.0 and abs(x[long_axis]) <= abs(half_w - half_h)
        w = 1.0 + square @ np.array([0.5, 0.25])
        _check_collapse(square, c, w, spanning_dual(square, c, w))
