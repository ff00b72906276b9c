"""Shared numeric kernels and helpers, all vectorized numpy.

One home for the pieces several modules use: the interval sweep behind
every gap computation over directions, the golden-section maximiser, the
Fibonacci sphere, the blocks of index triples behind the enclosing disk and
cap, the homothet gap profile, the sample count of Rogers' simplex density
and the pole margins of the spherical checks.
"""

import math

import numpy as np


def sweep_gaps(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Per column, widest gap left open by the union of intervals.

    Row i of column k is the interval [los[i, k], his[i, k]]; the gap is
    negative (an overlap depth) when the union is connected.
    """
    order = np.argsort(los, axis=0, kind="stable")
    lo_s = np.take_along_axis(los, order, axis=0)
    hi_s = np.take_along_axis(his, order, axis=0)
    cover = np.maximum.accumulate(hi_s, axis=0)
    return (lo_s[1:] - cover[:-1]).max(axis=0)


def golden_max(f, a: float, b: float, tol: float = 1e-13) -> tuple[float, float]:
    """Golden-section maximum (x, f(x)) of a unimodal scalar f on [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def fibonacci_sphere(m: int) -> np.ndarray:
    """m nearly uniform points on the unit sphere."""
    i = np.arange(m, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / m
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def triple_blocks(n: int):
    """Index triples i < j < k of n items, i-major, as (m, 3) arrays of whole
    runs of one first index, each about 2^15 rows, so memory stays O(n^2)."""
    i, j = np.triu_indices(n, 1)
    rows, count = [], 0
    for first in range(n - 2):
        rest = i > first
        rows.append(np.column_stack([np.full(int(rest.sum()), first), i[rest], j[rest]]))
        count += len(rows[-1])
        if count >= 1 << 15 or first == n - 3:
            yield np.vstack(rows)
            rows, count = [], 0


def gap_profile(cx, cy, tau, hplus, hminus, cos_t, sin_t):
    """Widest gap of a planar homothet family along each direction angle.

    Member i projects onto u = (cos_t[k], sin_t[k]) as the interval
    [c_i . u - tau_i * hminus[k], c_i . u + tau_i * hplus[k]], where hplus
    and hminus are the reference supports h_K(u) and h_K(-u). A positive
    value certifies a strict separation perpendicular to u.
    """
    proj = np.outer(cx, cos_t) + np.outer(cy, sin_t)  # (n, m)
    return sweep_gaps(proj - tau[:, None] * hminus[None, :], proj + tau[:, None] * hplus[None, :])


def simplex_covered(verts, uniform01):
    """How many sample points of the simplex lie within distance 1 of a vertex.

    Row s of uniform01, shape (samples, d + 1), becomes the Dirichlet weights
    -log(u) / sum(-log(u)) of the vertices verts, shape (d + 1, d).
    """
    w = -np.log(uniform01)
    w /= w.sum(axis=1, keepdims=True)
    pts = w @ verts  # (n, d)
    diff = pts[:, None, :] - verts[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    return int((dist2.min(axis=1) <= 1.0).sum())


def pole_margins(poles, centers, sinr):
    """Margin min_i(|p . c_i| - sinr_i) of each candidate pole p, and whether
    the cap centers fall on both sides of its great circle.

    A pole with positive margin carries a great circle avoiding every cap.
    """
    dots = poles @ centers.T  # (m, n)
    margins = (np.abs(dots) - sinr[None, :]).min(axis=1)
    split = (dots > 0.0).any(axis=1) & (dots < 0.0).any(axis=1)
    return margins, split
