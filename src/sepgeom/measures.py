"""Size functionals of planar convex bodies.

Covers the classical quantities (area, perimeter, diameter, circumradius,
inradius, minimal width, mean width), the smallest circumscribed
parallelogram and the separable packing density it gives, mixed areas, and
parallel-body areas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bodies import (
    EPS,
    ConvexBody,
    GeometryError,
    _derived,
    _freeze,
    _strict_hull,
    polygon_facets,
    raw_support,
    support_batch,
)
from ._kernels import _BLOCK, TWO_PI, _cells, _inward_rays, _member_features, collapse, distinct


def polygon_area(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    # shoelace about the first vertex, which does not cancel far from the origin
    x, y = v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def polygon_perimeter(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


def _require_flat(body: ConvexBody, op: str) -> None:
    """Raise for a polytope, the one kind that lies in no plane (a segment
    lies in one in any dimension)."""
    if body.kind == "polytope":
        raise GeometryError(f"{op} supports planar bodies only")


def area(body: ConvexBody) -> float:
    """Area of the hull of the feature points plus pi r^2: 0 for a segment.
    A polytope raises GeometryError."""
    _require_flat(body, "area")
    return abs(polygon_area(body.points)) + math.pi * body.radius**2


def perimeter(body: ConvexBody) -> float:
    """Perimeter of the closed polygon through the feature points plus
    2 pi r: twice the length of a segment. A polytope raises GeometryError."""
    _require_flat(body, "perimeter")
    return polygon_perimeter(body.points) + TWO_PI * body.radius


# ---------------------------------------------------------------------------
# smallest enclosing disk of disks (exact, support set of size <= 3)
# ---------------------------------------------------------------------------


def _tangent_disks(pts, rad, k: int, basis: list, scale: float, tol: float):
    """The disks internally tangent to member k and to at most two members
    of basis, as (support set, x, y, radius) in Python floats: the singleton
    first, then the pairs, then the triples, root (-b - sqrt) / 2a first.

    A pair's center lies on the segment of the two. A triple solves
    |c - m_a| = R - r_a, linearized pairwise as a 2 x 2 system with
    c(R) = p + R q by Cramer's rule, then R from |c(R) - m_k| = R - r_k.
    Determinants and the linear case are measured against scale, the extent
    of the members.
    """
    (xk, yk), rk = pts[k], rad[k]
    yield [k], xk, yk, rk
    for j in basis:
        dx, dy = pts[j][0] - xk, pts[j][1] - yk
        d = math.sqrt(dx * dx + dy * dy)
        if d > tol:
            big = 0.5 * (d + rk + rad[j])
            yield [k, j], xk + (big - rk) * (dx / d), yk + (big - rk) * (dy / d), big
    s0 = xk * xk + yk * yk
    for i, j in itertools.combinations(basis, 2):
        (x1, y1), (x2, y2), r1, r2 = pts[i], pts[j], rad[i], rad[j]
        a, b, c, d = 2.0 * (x1 - xk), 2.0 * (y1 - yk), 2.0 * (x2 - xk), 2.0 * (y2 - yk)
        det = a * d - b * c
        if not abs(det) > 1e-12 * scale * scale:
            continue
        u1, u2 = x1 * x1 + y1 * y1 - s0 + rk * rk - r1 * r1, x2 * x2 + y2 * y2 - s0 + rk * rk - r2 * r2
        v1, v2 = -2.0 * (rk - r1), -2.0 * (rk - r2)
        px, py = (d * u1 - b * u2) / det, (a * u2 - c * u1) / det
        qx, qy = (d * v1 - b * v2) / det, (a * v2 - c * v1) / det
        wx, wy = px - xk, py - yk
        aa = qx * qx + qy * qy - 1.0
        bb = 2.0 * (wx * qx + wy * qy + rk)
        cc = wx * wx + wy * wy - rk * rk
        if abs(aa) < 1e-14:
            roots = [-cc / bb] if abs(bb) > 1e-14 * scale else []
        else:
            disc = bb * bb - 4 * aa * cc
            roots = [(-bb - math.sqrt(disc)) / (2 * aa), (-bb + math.sqrt(disc)) / (2 * aa)] if disc >= 0 else []
        for big in roots:
            if big > max(rk, r1, r2) - tol:
                yield [k, i, j], px + big * qx, py + big * qy, big


def enclosing_disk_of_disks(centers, radii) -> tuple[np.ndarray, float]:
    """Smallest disk containing every disk (c_i, r_i). Points allowed (r=0).

    An LP-type problem (Welzl 1991; Matousek, Sharir and Welzl 1996): the
    optimum is internally tangent to a basis of at most three members, and
    the optimum of a set with one member more than a basis, that member
    protruding from the basis's disk, has the new member on its boundary.
    So, from the largest member alone, each round takes the member that
    protrudes most (one numpy pass over all members) and keeps the smallest
    disk tangent to it and to at most two basis members (_tangent_disks: one
    singleton, up to three pairs and six triple roots) that covers the basis
    and the new member, the first listed among equal radii; its support set
    is the next basis. That step handles at most ten candidates against four
    members, so it runs in Python floats. In exact arithmetic the radius
    grows strictly from round to round, so no basis comes back; in floating
    point a step may grow it by less than one ulp, so the radii are not
    compared and a basis that comes back is what ends a search that cannot
    settle. The loop ends when no member protrudes by more than tol.
    Coordinates are taken about the middle of the members' bounding box and
    tol is 1e-11 times its extent, so the disk scales and moves with the
    input. Memory O(n).
    """
    cs = np.atleast_2d(np.asarray(centers, dtype=float))
    rs = np.atleast_1d(np.asarray(radii, dtype=float))
    lo, hi = (cs - rs[:, None]).min(axis=0), (cs + rs[:, None]).max(axis=0)
    mid = 0.5 * (lo + hi)
    cs = cs - mid
    scale = float((hi - lo).max())
    tol = 1e-11 * scale
    pts, rad = cs.tolist(), rs.tolist()
    basis = [int(np.argmax(rs))]
    (bx, by), best_r = pts[basis[0]], rad[basis[0]]
    seen = {frozenset(basis)}
    while True:
        out = np.linalg.norm(cs - (bx, by), axis=1) + rs - best_r
        k = int(np.argmax(out))
        if not out[k] > tol:
            return mid + (bx, by), best_r
        held, pick = [(*pts[h], rad[h]) for h in basis + [k]], None
        for cand in _tangent_disks(pts, rad, k, basis, scale, tol):
            _, x, y, big = cand
            if (pick is None or big < pick[3]) and all(
                math.sqrt((hx - x) * (hx - x) + (hy - y) * (hy - y)) + hr <= big + tol for hx, hy, hr in held
            ):
                pick = cand
        if pick is None:
            raise GeometryError("enclosing disk search failed")
        basis, bx, by, best_r = pick
        if frozenset(basis) in seen:
            raise GeometryError("enclosing disk search failed")
        seen.add(frozenset(basis))


def inscribed_disk(body: ConvexBody) -> tuple[np.ndarray, float]:
    """Chebyshev center and inradius; for polygons exactly, the largest r
    with n . x <= h - r feasible on every facet, where the facet lines moved
    in by r collapse (_kernels.collapse)."""
    if body.kind == "disk":
        return np.array(body.center), body.radius
    normals, _ = polygon_facets(body)
    # about the vertex mean o, which keeps the collapse well scaled
    o = body.vertices.mean(axis=0)
    h = np.einsum("ij,ij->i", normals, body.vertices - o)
    r, x = collapse(normals, h, np.ones(len(h)))
    return o + x, r


# ---------------------------------------------------------------------------
# size report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SizeReport:
    area: float
    perimeter: float
    diameter: float
    circumradius: float
    inradius: float
    min_width: float
    mean_width: float


def size_report(body: ConvexBody) -> SizeReport:
    body.require_full_dimensional("size_report")
    _require_flat(body, "size_report")
    per = perimeter(body)
    if body.kind == "disk":
        r = body.radius
        return SizeReport(math.pi * r * r, per, 2 * r, r, r, 2 * r, per / math.pi)
    _, inr = inscribed_disk(body)
    normals, _ = polygon_facets(body)
    widths = support_width(body, normals)
    return SizeReport(
        area=area(body),
        perimeter=per,
        diameter=hull_diameter([body]),
        circumradius=hull_circumradius([body])[1],
        inradius=inr,
        min_width=float(widths.min()),
        mean_width=per / math.pi,
    )


def support_width(body: ConvexBody, dirs: np.ndarray) -> np.ndarray:
    """Width h(u) + h(-u) for an array of unit directions."""
    return support_batch(body, dirs) + support_batch(body, -dirs)


# ---------------------------------------------------------------------------
# smallest circumscribed parallelogram
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParallelogramFit:
    """Circumscribed parallelogram {x : lo_k <= <n_k, x> <= hi_k, k = 1, 2},
    its arrays read-only."""

    normals: np.ndarray  # (2, 2) unit rows
    los: np.ndarray
    his: np.ndarray
    area: float

    provenance: ClassVar[dict] = {"method": "edge-normal-pairs", "exact": True}

    def __post_init__(self):
        for name in ("normals", "los", "his"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    def corners(self) -> np.ndarray:
        n1, n2 = self.normals
        pts = []
        for a in (self.los[0], self.his[0]):
            for b in (self.los[1], self.his[1]):
                pts.append(np.linalg.solve(np.stack([n1, n2]), [a, b]))
        pts = np.array(pts)
        return _strict_hull(pts)

    def contains(self, body: ConvexBody, tol: float = EPS) -> bool:
        for k in range(2):
            hi = raw_support(body, self.normals[k])
            lo = -raw_support(body, -self.normals[k])
            if hi > self.his[k] + tol or lo < self.los[k] - tol:
                return False
        return True


def min_area_parallelogram(body: ConvexBody) -> ParallelogramFit:
    """Smallest-area circumscribed parallelogram, exact for polygons.

    With unit side normals n1, n2 the area is w(n1) w(n2) / |sin(n1, n2)|,
    w the width. For a fixed n1 it has the form A cot + B between the angles
    where the antipodal vertex pair of n2 changes, so it is monotone there,
    and some optimum has both side pairs flush with polygon edges
    (Schwarz, Teich, Vainshtein, Welzl and Evans, SoCG 1995). Every pair of
    edge normals with |sin| above 1e-12 is tried. The fit is computed once
    per body.
    """
    body.require_full_dimensional("min_area_parallelogram")
    return _derived(body, "_parallelogram", _parallelogram)


def _parallelogram(body: ConvexBody) -> ParallelogramFit:
    if body.kind == "disk":
        c, r = body.center, body.radius
        normals = np.array([[1.0, 0.0], [0.0, 1.0]])
        los = np.array([c[0] - r, c[1] - r])
        his = np.array([c[0] + r, c[1] + r])
        return ParallelogramFit(normals, los, his, 4.0 * r * r)
    if body.kind != "polygon":
        raise GeometryError("min_area_parallelogram supports planar bodies")

    normals, _ = polygon_facets(body)
    widths = support_width(body, normals)
    # sin of the counterclockwise turn from n1 (rows) to n2 (columns)
    sin = normals[:, None, 0] * normals[None, :, 1] - normals[:, None, 1] * normals[None, :, 0]
    areas = np.full(sin.shape, math.inf)
    turn = sin > 1e-12
    areas[turn] = (widths[:, None] * widths[None, :])[turn] / sin[turn]
    k1, k2 = np.unravel_index(int(np.argmin(areas)), areas.shape)
    pair = normals[[k1, k2]]
    his = np.array([raw_support(body, n) for n in pair])
    los = np.array([-raw_support(body, -n) for n in pair])
    return ParallelogramFit(pair, los, his, float(areas[k1, k2]))


def separable_packing_density(body: ConvexBody) -> float:
    """Largest density of a totally separable packing by translates of K.

    Equals area(K) divided by the area of the smallest parallelogram
    circumscribed about K; a disk gives pi/4.
    """
    body.require_full_dimensional("packing density")
    return area(body) / min_area_parallelogram(body).area


# ---------------------------------------------------------------------------
# Minkowski sums, mixed area, parallel bodies
# ---------------------------------------------------------------------------


def minkowski_sum_polygons(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Vertices of P + Q, counter-clockwise, for counter-clockwise convex
    polygons p and q (as ConvexBody stores them).

    Along u the lowest point of P + Q is the sum of the lowest points of P
    and Q, a pair constant on each cell of the common refinement of the
    normal fans of -P and -Q (as in _pair_table). One direction inside each
    cell, taken counter-clockwise, gives the at most k1 + k2 vertices in
    order. No hull is taken: the chain of a hull of all k1 k2 sums can drop
    a true vertex of a thin polygon, or of a small polygon added to a large
    one.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    mids = _cells(np.concatenate([_inward_rays(p), _inward_rays(q)]), TWO_PI)[1]
    u = np.stack([np.cos(mids), np.sin(mids)], axis=1)
    rows = np.stack([(u @ p.T).argmin(axis=1), (u @ q.T).argmin(axis=1)], axis=1)
    # a cell thinner than rounding (near-parallel edges) can repeat its
    # neighbour's pair, or put a sum on an edge, which no area notices
    rows = rows[(rows != np.roll(rows, 1, axis=0)).any(axis=1)]
    return p[rows[:, 0]] + q[rows[:, 1]]


def sum_area(q: ConvexBody, k: ConvexBody) -> float:
    """Area of the Minkowski sum Q + K."""
    if q.kind == "disk" and k.kind == "disk":
        return math.pi * (q.radius + k.radius) ** 2
    if k.kind == "disk":
        return area(q) + k.radius * perimeter(q) + math.pi * k.radius**2
    if q.kind == "disk":
        return area(k) + q.radius * perimeter(k) + math.pi * q.radius**2
    return abs(polygon_area(minkowski_sum_polygons(q.vertices, k.vertices)))


def mixed_area(q: ConvexBody, k: ConvexBody) -> float:
    """A(Q, K) = (area(Q + K) - area(Q) - area(K)) / 2."""
    return 0.5 * (sum_area(q, k) - area(q) - area(k))


# ---------------------------------------------------------------------------
# hull of several bodies: perimeter / diameter / circumradius
# ---------------------------------------------------------------------------


def _hull_features(bodies) -> tuple[np.ndarray, np.ndarray]:
    """_member_features of the bodies, one row (m, 2) and radius per feature."""
    pts, rad = _member_features(list(bodies))
    return pts.reshape(-1, 2), np.repeat(rad, pts.shape[1])


def hull_perimeter(bodies) -> float:
    """Perimeter of conv(union) by Cauchy's formula, the integral of its
    support function h(t) = max_q(<u(t), p_q> + r_q) over the features.

    h follows one feature between the angles where another rises above it,
    so it is integrated in closed form piece by piece. At angle t the top
    feature q is the highest, then the steepest, then the widest: the one on
    top just after t. Its piece ends at the first angle after t where some
    feature b rises through it, <u, p_b - p_q> = r_q - r_b. Each piece costs
    O(m), and memory is O(m).
    """
    p, r = _hull_features(bodies)
    p = p - 0.5 * (p.min(axis=0) + p.max(axis=0))  # the perimeter does not move
    tol = 1e-12 * float(np.abs(p).max() + r.max())
    t, total = 0.0, 0.0
    for _ in range(4 * len(p) + 4):
        h = p @ np.array([math.cos(t), math.sin(t)]) + r
        tied = np.flatnonzero(h >= h.max() - tol)
        slope = p[tied] @ np.array([-math.sin(t), math.cos(t)])
        steep = tied[slope >= slope.max() - tol]
        q = int(steep[np.argmax(r[steep])])
        d, c = p - p[q], r[q] - r
        size = np.hypot(d[:, 0], d[:, 1])
        ratio = np.divide(c, size, out=np.ones_like(c), where=size > c)
        gap = np.arctan2(d[:, 1], d[:, 0]) - np.arccos(np.clip(ratio, -1.0, 1.0)) - t
        gap = np.where(size > c, np.remainder(gap, TWO_PI), math.inf)
        # a feature tied at t and not on top does not rise through q there
        gap[tied[(gap[tied] < 1e-9) | (gap[tied] > TWO_PI - 1e-9)]] = math.inf
        end = min(t + float(gap.min()), TWO_PI)
        # the integral of <u, p_q> + r_q from t to end
        rise = np.array([math.sin(end) - math.sin(t), math.cos(t) - math.cos(end)])
        total += p[q] @ rise + r[q] * (end - t)
        if end >= TWO_PI:
            return total
        t = end
    raise GeometryError("hull perimeter sweep did not close")


def hull_diameter(bodies) -> float:
    """Largest |p_a - p_b| + r_a + r_b over pairs of features, a feature
    paired with itself too: a lone disk gives 2r. The pairs are taken in
    row blocks of about _BLOCK entries, so memory is O(m + _BLOCK)."""
    p, r = _hull_features(bodies)
    step = max(1, _BLOCK // len(p))
    best = -math.inf
    for i in range(0, len(p), step):
        d = p[i:i + step, None, :] - p[None, :, :]
        best = max(best, float((np.hypot(d[..., 0], d[..., 1]) + r[i:i + step, None] + r[None, :]).max()))
    return best


def hull_circumradius(bodies) -> tuple[np.ndarray, float]:
    return enclosing_disk_of_disks(*_hull_features(bodies))


def hull_of_centers(points: np.ndarray) -> np.ndarray:
    """Convex hull vertex cycle (CCW); may degenerate to 1 or 2 points."""
    pts = distinct(np.asarray(points, dtype=float))
    if len(pts) <= 2:
        return pts
    hull = _strict_hull(pts)
    if len(hull) >= 3:
        return hull
    # all collinear: return the two extremes
    d = pts - pts[0]
    t = d @ d[np.argmax(np.linalg.norm(d, axis=1))]
    return np.array([pts[np.argmin(t)], pts[np.argmax(t)]])


# ---------------------------------------------------------------------------
# disk in a box (window densities)
# ---------------------------------------------------------------------------


def _corner_area(x: float, y: float, r: float) -> float:
    """Area of the part of the disk |z| <= r with z_1 <= x and z_2 <= y.

    Over a column at z_1 = t the disk spans |z_2| <= s(t) = sqrt(r^2 - t^2),
    of which s(t) + clip(y, -s(t), s(t)) lies below y; min(|y|, s(t)) is s(t)
    where |t| >= w = sqrt(r^2 - y^2), and |y| between. Each piece integrates
    to circular-segment terms S(t) = (t s(t) + r^2 asin(t/r)) / 2.
    """
    def seg(t):
        return 0.5 * (t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r))

    x = min(max(x, -r), r)
    w = min(math.sqrt(max(r * r - y * y, 0.0)), r)
    low = seg(min(x, -w)) - seg(-r) + abs(y) * (min(max(x, -w), w) + w) + seg(max(x, w)) - seg(w)
    return seg(x) - seg(-r) + math.copysign(low, y)


def disk_box_area(center, radius: float, lo, hi) -> float:
    """Area of disk intersect axis box, exact: inclusion and exclusion of
    _corner_area over the box's corners, which cancel to 0 for a disk
    outside the box; a disk inside it takes a path of its own."""
    (x0, y0), (x1, y1) = np.asarray(lo, dtype=float) - center, np.asarray(hi, dtype=float) - center
    if min(-x0, -y0, x1, y1) >= radius:
        return math.pi * radius * radius
    corners = ((1.0, x1, y1), (-1.0, x0, y1), (-1.0, x1, y0), (1.0, x0, y0))
    return max(sum(sign * _corner_area(x, y, radius) for sign, x, y in corners), 0.0)
