"""Shared numeric kernels and helpers, all vectorized numpy.

One home for the pieces several modules use: the interval sweep behind
every gap computation over directions, the Fibonacci sphere of the sampled
d >= 3 searches, the blocks of index triples behind the spherical support
sets, the exact 3-variable linear programs of the cover and the inradius, the
homothet gap profile, the sample count of Rogers' simplex density and the
pole margins of the spherical checks.
"""

import math

import numpy as np

from .bodies import GeometryError


def sweep(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval sweep: per row, the intervals [los, his] along the last
    axis sorted by lo, and the gap after each prefix of that order, the next
    lo less the running max of hi (an overlap depth where negative).

    A line between the prefix and the rest misses every interval exactly
    where the gap is positive; its widest value is the best such line.
    """
    order = np.argsort(los, axis=-1, kind="stable")
    cover = np.maximum.accumulate(np.take_along_axis(his, order, axis=-1), axis=-1)
    return order, np.take_along_axis(los, order, axis=-1)[..., 1:] - cover[..., :-1]


def sweep_gaps(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """Per column, widest gap left open by the union of intervals.

    Row i of column k is the interval [los[i, k], his[i, k]]; the gap is
    negative (an overlap depth) when the union is connected.
    """
    return sweep(los.T, his.T)[1].max(axis=-1)


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


# rows violated by more than this, relative to |a| . |x| + |b|, join the working set
_LP_TOL = 1e-12


def _cross(u, v) -> np.ndarray:
    """Row-wise cross products of 3-vectors (np.cross without its axis handling)."""
    return u[..., [1, 2, 0]] * v[..., [2, 0, 1]] - u[..., [2, 0, 1]] * v[..., [1, 2, 0]]


def _excess(a, b, x) -> np.ndarray:
    """Violation beyond round-off (where positive) of each row of a x <= b at
    each point x, shape (3,) or (p, 3); rows last."""
    return x @ a.T - b - _LP_TOL * (np.abs(x) @ np.abs(a).T + np.abs(b))


def lp3(c, a, b, lo, hi) -> np.ndarray:
    """A minimiser of c . x subject to a x <= b, x in R^3, at a vertex.

    lo <= x <= hi must hold at some minimiser. Those six bounds seed the
    working set, so every sub-program is bounded and its minimum sits at a
    vertex where three independent rows are tight. The most violated row
    joins the set until none is violated; the vertex is then optimal for the
    whole program. The new minimum lies on the row r2 that joined (the
    segment to the old minimum crosses it), so only the triples of two rows
    r0, r1 of the set with r2 are solved, by Cramer's rule: x = (b0 r1 x r2 +
    b1 r2 x r0 + b2 r0 x r1) / r0 . (r1 x r2), skipping determinants that
    are zero to rounding (parallel facets). The products r0 x r1 carry over
    from round to round. A row violated at the current vertex is not in the
    set, so this ends within len(b) rounds. Each column of a is divided by
    its largest entry, and x scaled back, so that test sees balanced rows
    whatever the units of the three variables.
    """
    a = np.asarray(a, dtype=float)
    scale = np.abs(a).max(axis=0, initial=0.0)
    scale[scale == 0.0] = 1.0
    c = np.asarray(c, dtype=float) / scale
    lo, hi = np.asarray(lo, dtype=float) * scale, np.asarray(hi, dtype=float) * scale
    eye = np.eye(3)
    a = np.vstack([eye, -eye, a / scale])
    b = np.concatenate([hi, -lo, b])
    size = np.linalg.norm(a, axis=1)
    x, work = np.where(c > 0.0, lo, hi), list(range(6))
    # the pairs p < q of positions in work, and a[work[p]] x a[work[q]]
    p, q = np.triu_indices(6, 1)
    pair = _cross(a[p], a[q])
    while True:
        excess = _excess(a, b, x)
        k = int(np.argmax(excess))
        if excess[k] <= 0.0:
            return x / scale
        w = np.array(work)
        side = _cross(a[w], a[k])  # a[work[p]] x a[k]
        det = pair @ a[k]
        ok = np.abs(det) > 1e-12 * size[w[p]] * size[w[q]] * size[k]
        cand = b[w[p], None] * side[q] - b[w[q], None] * side[p] + b[k] * pair
        cand = cand[ok] / det[ok, None]
        work.append(k)
        cand = cand[(_excess(a[work], b[work], cand) <= 0.0).all(axis=1)]
        if not len(cand):
            raise GeometryError("linear program has no vertex inside its bounds")
        x = cand[int(np.argmin(cand @ c))]
        p, q = np.append(p, np.arange(len(w))), np.append(q, np.full(len(w), len(w)))
        pair = np.vstack([pair, side])


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
