"""Shared numeric kernels and helpers, vectorized numpy but for one event loop.

One home for the pieces several modules use, so that each module imports
only what it reads: ``measures`` and ``covering`` take their feature,
projection and fan helpers from here, not from ``separability``, and
nothing here imports ``bodies``. Here are the sort-based distinct values,
the feature points of members, the tolerance of a bounding box, the
projection of members onto directions, the interval sweep behind every gap
computation over directions, the cells of normal fans and arcs, the Fibonacci
sphere of the sampled d = 3 searches, the blocks of index triples behind
the spherical support sets, the kinetic collapse of facet lines behind the
exact cover and inradius, the homothet gap profile, the sample count of
Rogers' simplex density and the pole margins of the spherical checks.
"""

import heapq
import math
import operator

import numpy as np

from ._errors import GeometryError

TWO_PI = 2.0 * math.pi
# pair and projection temporaries are built in blocks of about this many entries
_BLOCK = 1 << 16
_MACHINE_EPS = np.finfo(float).eps
# round-off allowed per unit of the largest |coordinate| in a tolerance
_ROUND_OFF = 64.0 * float(_MACHINE_EPS)


def distinct(a) -> np.ndarray:
    """The distinct values of a 1-D array, or the distinct rows of a 2-D one,
    sorted (rows lexicographically, first column first): np.unique(a), and
    np.unique(a, axis=0), on values free of NaN.

    np.unique without return flags, np.union1d and np.setdiff1d import
    numpy.ma on first use (about 14 ms and 1.3 MB in a cold process). A 1-D
    array is sorted as np.unique sorts it, so the result is the same to the
    bit. Of rows equal but for the sign of a zero the first in a is kept,
    where np.unique may keep another.
    """
    a = np.asarray(a)
    if a.ndim == 1:
        a = np.sort(a)
        new = a[1:] != a[:-1]
    else:
        a = a[np.lexsort(a.T[::-1])]
        new = (a[1:] != a[:-1]).any(axis=1)
    return a[np.concatenate([[True], new])] if len(a) else a


def _member_features(bodies) -> tuple[np.ndarray, np.ndarray]:
    """Feature points per member, (n, k, d), and each member's radius
    (ConvexBody.points, ConvexBody.radius).

    Members with fewer than k features repeat their first one, which leaves
    every max and min over a member's features unchanged.
    """
    feats = [b.points for b in bodies]
    pts = np.empty((len(feats), max(map(len, feats)), feats[0].shape[1]))
    try:
        for row, f in zip(pts, feats):
            row[: len(f)], row[len(f) :] = f, f[0]
    except ValueError:
        raise GeometryError("members must share one dimension") from None
    return pts, np.array([b.radius for b in bodies])


def _box_tol(lo: np.ndarray, hi: np.ndarray, tol: float) -> float:
    """tol times min(1, longest side of the bounding box [lo, hi]), plus the
    round-off of its largest |coordinate|, which outgrows tol alone above
    unit extent."""
    lo, hi = lo.tolist(), hi.tolist()
    extent = max(map(operator.sub, hi, lo))
    return tol * min(1.0, extent) + _ROUND_OFF * max(max(hi), -min(lo))


def _project(u, pts, rad) -> tuple[np.ndarray, np.ndarray]:
    """Intervals lo, hi, each (D, ...), of the members with features pts
    (..., k, d) and radii rad (...) along the unit directions u (D, d).

    Summed coordinate by coordinate, elementwise, so a direction's intervals
    do not depend on the other directions; directions go in blocks of about
    _BLOCK feature entries.
    """
    lo = np.empty((len(u),) + rad.shape)
    hi = np.empty_like(lo)
    v = u.reshape((len(u),) + (1,) * (pts.ndim - 1) + (u.shape[1],))
    step = max(1, _BLOCK // pts[..., 0].size)
    for s in range(0, len(u), step):
        w = v[s : s + step]
        proj = w[..., 0] * pts[..., 0]
        for c in range(1, pts.shape[-1]):
            proj += w[..., c] * pts[..., c]
        lo[s : s + step] = proj.min(axis=-1) - rad
        hi[s : s + step] = proj.max(axis=-1) + rad
    return lo, hi


def sweep(los: np.ndarray, his: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The interval sweep: per row, the intervals [los, his] along the last
    axis sorted by lo, and the gap after each prefix of that order, the next
    lo less the running max of hi (an overlap depth where negative).

    A line between the prefix and the rest misses every interval exactly
    where the gap is positive; its widest value is the best such line.
    """
    order = np.argsort(los, axis=-1, kind="stable")
    # one flat index gathers both, as np.take_along_axis would along the last axis
    rows = math.prod(los.shape[:-1])
    flat = order + (los.shape[-1] * np.arange(rows)).reshape(los.shape[:-1] + (1,))
    cover = np.maximum.accumulate(np.take(his, flat), axis=-1)
    return order, np.take(los, flat)[..., 1:] - cover[..., :-1]


def _inward_rays(v: np.ndarray) -> np.ndarray:
    """Angles of the inward edge normals of the counter-clockwise polygon v,
    the rays of the normal fan of -v."""
    edges = np.diff(v, axis=0, append=v[:1])
    return np.arctan2(edges[:, 0], -edges[:, 1])


def _cells(angles, period: float) -> tuple[np.ndarray, np.ndarray]:
    """The distinct angles mod period, sorted, and the midpoint after each,
    the last one past period: one angle inside each cell between them (of
    the common refinement of normal fans, given their rays mod 2 pi)."""
    ends = distinct(np.remainder(angles, period))
    return ends, 0.5 * (ends + np.append(ends[1:], ends[:1] + period))


def fibonacci_sphere(m: int) -> np.ndarray:
    """m nearly uniform points on the unit sphere."""
    i = np.arange(m, dtype=float) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / m
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def triple_blocks(n: int):
    """Index triples i < j < k of n items, i-major, as (m, 3) arrays of whole
    runs of one first index, each about 2^15 rows, so memory stays O(n^2).

    The triples with first index f are f followed by the pairs j < k with
    j > f, a suffix of the i-major pair list, so each block gathers its
    suffixes with one index array. A block ends after the first run that
    brings it to 2^15 rows."""
    a = np.arange(n)
    i, j = np.nonzero(a[:, None] < a)
    # the suffix of first index f starts at the pairs of f + 1
    start = np.searchsorted(i, a[1 : n - 1])
    cum = np.concatenate([[0], np.cumsum(len(i) - start)])
    lo = 0
    while lo < n - 2:
        hi = min(int(np.searchsorted(cum, cum[lo] + (1 << 15))), n - 2)
        size = cum[lo + 1 : hi + 1] - cum[lo:hi]
        pos = np.arange(cum[lo], cum[hi]) + np.repeat(start[lo:hi] - cum[lo:hi], size)
        yield np.column_stack([np.repeat(a[lo:hi], size), i[pos], j[pos]])
        lo = hi


def collapse(m, c, w) -> tuple[float, np.ndarray]:
    """The largest lam for which {x : m_j . x <= c_j - lam w_j} is nonempty,
    and a point of that set.

    The rows m_j are in ccw order, and {x : m . x <= w} must have every line
    as a facet. Then every line bounds the set for lam low enough, and the
    set shrinks as lam grows: a kinetic collapse of the lines, the last node
    of a weighted straight skeleton (Aichholzer et al. 1995; Eppstein and
    Erickson 1999). While the edge on line b keeps its neighbours a and d,
    its length is affine in lam and reaches 0 where the three lines meet, at
    lam = (y . c) / (y . w) over the three, with the cofactor weights
    y = (m_b x m_d, m_d x m_a, m_a x m_b) (y . m = 0). The edge that reaches 0
    first leaves, and a and d become adjacent; a line that left stays
    implied by its neighbours' wedge. A heap orders the events. The collapse
    ends at an edge whose neighbours are pi or more apart, or with three
    lines left: those lines span the plane positively, so no larger lam is
    feasible, and the set is a point or a segment holding the point where
    the three lines meet. O(k log k) time and O(k) memory, in Python scalars.
    """
    mx, my = (np.asarray(m, dtype=float).T).tolist()
    c, w = np.asarray(c, dtype=float).tolist(), np.asarray(w, dtype=float).tolist()
    k = len(c)
    prev, nxt = [k - 1, *range(k - 1)], [*range(1, k), 0]

    def cross(i, j):
        return mx[i] * my[j] - my[i] * mx[j]

    def event(a, b, d):
        ya, yb, yd = cross(b, d), cross(d, a), cross(a, b)
        den = ya * w[a] + yb * w[b] + yd * w[d]
        lam = (ya * c[a] + yb * c[b] + yd * c[d]) / den if den > 0.0 else math.inf
        return lam, b, a, d

    heap = [event(prev[b], b, nxt[b]) for b in range(k)]
    heapq.heapify(heap)
    left = k
    while heap:
        lam, b, a, d = heapq.heappop(heap)
        if prev[b] != a or nxt[b] != d:
            continue  # b left, or its neighbours changed since this event
        if lam == math.inf:
            break
        if left == 3 or cross(a, d) <= 0.0:
            # the point on the two of the three lines that meet at the widest angle
            i, j = max(((a, b), (b, d), (a, d)), key=lambda p: abs(cross(*p)) / (
                math.hypot(mx[p[0]], my[p[0]]) * math.hypot(mx[p[1]], my[p[1]])))
            ei, ej, det = c[i] - lam * w[i], c[j] - lam * w[j], cross(i, j)
            return lam, np.array([(ei * my[j] - ej * my[i]) / det, (mx[i] * ej - mx[j] * ei) / det])
        nxt[a], prev[d], prev[b], nxt[b] = d, a, -1, -1
        left -= 1
        heapq.heappush(heap, event(prev[a], a, d))
        heapq.heappush(heap, event(a, d, nxt[d]))
    raise GeometryError("the lines do not collapse: {m . x <= w} misses a facet")


def gap_profile(cx, cy, tau, hplus, hminus, cos_t, sin_t):
    """The interval sweep of a planar homothet family along each direction.

    Member i projects onto u = (cos_t[k], sin_t[k]) as the interval
    [c_i . u - tau_i * hminus[k], c_i . u + tau_i * hplus[k]], where hplus
    and hminus are the reference supports h_K(u) and h_K(-u). Returns the
    intervals lo, hi (m, n) and their sweep, order and gaps: a positive gap
    certifies a strict separation perpendicular to u, a negative one is an
    overlap depth.
    """
    proj = np.outer(cos_t, cx) + np.outer(sin_t, cy)  # (m, n)
    lo, hi = proj - hminus[:, None] * tau, proj + hplus[:, None] * tau
    return (lo, hi) + sweep(lo, hi)


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
