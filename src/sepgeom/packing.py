"""Packing checks: area bounds, contact counts, density estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .bodies import (
    EPS,
    ConvexBody,
    GeometryError,
    _finite,
    _gauges,
    unit,
)
from .bounds import crystallization_bound
from .measures import (
    area,
    disk_box_area,
    hull_of_centers,
    min_area_parallelogram,
    mixed_area,
    polygon_area,
    polygon_perimeter,
    sum_area,
)
from .separability import (
    TSResult,
    _difference_body,
    _separation_test,
    _translate_gauges,
    is_sns,
    is_ts_packing,
)
from ._kernels import _BLOCK, TWO_PI, distinct, simplex_covered, triple_blocks

PI = math.pi


# ---------------------------------------------------------------------------
# translate packings and their gauge
# ---------------------------------------------------------------------------


def difference_body(body: ConvexBody) -> ConvexBody:
    """Central symmetral K + (-K), an o-symmetric body at the origin, built
    once per body from at most 2k vertex differences."""
    return _difference_body(body)


def translate_gauge(reference: ConvexBody, delta) -> float:
    """Normalized distance between two translates of K offset by delta.

    Equals 2 exactly when x + K and x + delta + K touch, > 2 when they are
    disjoint, < 2 when their interiors overlap. For o-symmetric K this is the
    Minkowski norm |delta|_K.
    """
    delta = _finite(delta, "offset")
    return 2.0 * float(_gauges(difference_body(reference), delta[None, :])[0])


@dataclass(frozen=True)
class TranslatePacking:
    """Translates reference + c for each row c of centers."""

    reference: ConvexBody
    centers: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.centers, dtype=float)
        if c.ndim != 2 or c.shape[1] != 2:
            raise GeometryError("centers must be an (n, 2) array")
        object.__setattr__(self, "centers", c)

    def __len__(self) -> int:
        return len(self.centers)

    def bodies(self) -> list[ConvexBody]:
        return [self.reference.translate(c) for c in self.centers]

    def validate(self, tol: float = EPS) -> None:
        """Raise if any two translates have overlapping interiors."""
        _translate_gauges(self.reference, self.centers, 1.0, tol)

    def contact_graph(self, tol: float = EPS) -> "ContactGraph":
        return contact_graph(self.reference, self.centers, tol)


# ---------------------------------------------------------------------------
# density of disks in a window
# ---------------------------------------------------------------------------


def window_density(centers, radius: float, lo, hi) -> float:
    """Covered fraction of the window [lo, hi] for disks clipped to it."""
    lo, hi = _finite(lo, "window corners"), _finite(hi, "window corners")
    c = _finite(centers, "disk centers")
    radius = float(_finite(radius, "disk radius"))
    box = float((hi - lo).prod())
    if box <= 0.0:
        raise GeometryError("window must have positive area")
    near = ((c > lo - radius) & (c < hi + radius)).all(axis=1)
    return sum(disk_box_area(p, radius, lo, hi) for p in c[near]) / box


# ---------------------------------------------------------------------------
# hull area bound for totally separable packings
# ---------------------------------------------------------------------------


def _centrally_symmetric(body: ConvexBody, tol: float = 1e-7) -> bool:
    return body.translate(-body.centroid()).is_origin_symmetric(tol)


@dataclass(frozen=True)
class AreaBoundReport:
    n: int
    lhs: float
    rhs: float
    slack: float
    symmetric: bool
    pgram_area: float
    hull_area: float
    ts: TSResult
    holds: bool


def area_bound_check(reference: ConvexBody, centers, tol: float = EPS) -> AreaBoundReport:
    """Lower bound on area(conv(centers) + K) for totally separable packings.

    With n translates and C = conv of the centers, the sum C + K has area at
    least (2/3)(n-1) * pgram + area(K) + area(C)/3 where pgram is the smallest
    circumscribed parallelogram of K; if K or C is centrally symmetric the
    stronger bound (n-1) * pgram + area(K) applies.
    """
    c = _finite(centers, "centers")
    reference.require_full_dimensional("area bound")
    n = len(c)
    ts = is_ts_packing([reference.translate(p) for p in c], tol)
    if not ts.is_ts:
        raise GeometryError("the translates do not form a totally separable packing")

    hv = hull_of_centers(c)
    if len(hv) == 1:
        hull_area = 0.0
        lhs = area(reference)
        csym = True
    elif len(hv) == 2:
        hull_area = 0.0
        lhs = sum_area(ConvexBody.segment(hv[0], hv[1]), reference)
        csym = True
    else:
        cbody = ConvexBody.polygon(hv)
        hull_area = area(cbody)
        lhs = sum_area(cbody, reference)
        csym = _centrally_symmetric(cbody)

    pg = min_area_parallelogram(reference).area
    symmetric = csym or _centrally_symmetric(reference)
    if symmetric:
        rhs = (n - 1) * pg + area(reference)
    else:
        rhs = (2.0 / 3.0) * (n - 1) * pg + area(reference) + hull_area / 3.0
    return AreaBoundReport(n, lhs, rhs, lhs - rhs, symmetric, pg, hull_area, ts, lhs - rhs >= -tol)


# ---------------------------------------------------------------------------
# norm length, the Oler inequality and the mixed-area inequality
# ---------------------------------------------------------------------------


def minkowski_length(reference: ConvexBody, points, closed: bool = True) -> float:
    """Length of a polygonal path in the norm whose unit ball is K."""
    pts = _finite(points, "path vertices")
    if pts.ndim != 2 or len(pts) == 0:
        raise GeometryError("path needs an (m, 2) array of vertices")
    steps = np.roll(pts, -1, axis=0) - pts if closed else pts[1:] - pts[:-1]
    steps = steps[(steps * steps).sum(axis=1) > 0.0]
    if len(steps) == 0:
        return 0.0
    if not reference.is_origin_symmetric():
        raise GeometryError("norm requires o-symmetric body")
    return float(_gauges(reference, steps).sum())


def _segments_cross(a, b, c, d, eps: float) -> bool:
    """True when [a,b] and [c,d] share a point (endpoints included), a point
    within eps of a line counting as on it."""

    def orient(p, q, r):
        v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
        if abs(v) <= eps * (abs(q[0] - p[0]) + abs(q[1] - p[1]) + abs(r[0] - p[0]) + abs(r[1] - p[1])):
            return 0
        return 1 if v > 0 else -1

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4:
        return True

    def on(p, q, r):
        return orient(p, q, r) == 0 and min(p[0], q[0]) - eps <= r[0] <= max(
            p[0], q[0]
        ) + eps and min(p[1], q[1]) - eps <= r[1] <= max(p[1], q[1]) + eps

    return on(a, b, c) or on(a, b, d) or on(c, d, a) or on(c, d, b)


def _loop_is_simple(poly: np.ndarray, eps: float) -> bool:
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        for j in range(i + 1, m):
            if j == i or (j + 1) % m == i or (i + 1) % m == j:
                continue
            if _segments_cross(a, b, poly[j], poly[(j + 1) % m], eps):
                return False
    return True


def _seg_dists(p, a, b) -> np.ndarray:
    """Distances (n, m) from the points p (n, 2) to the segments [a, b], each
    of a and b (m, 2); a segment with a = b is a point."""
    d = b - a
    dd = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
    w = p[:, None, :] - a
    t = np.zeros(w.shape[:2])
    np.divide(w[..., 0] * d[:, 0] + w[..., 1] * d[:, 1], dd, out=t, where=dd != 0.0)
    off = p[:, None, :] - (a + np.clip(t, 0.0, 1.0)[..., None] * d)
    return np.sqrt(off[..., 0] * off[..., 0] + off[..., 1] * off[..., 1])


def _in_loop(p, poly: np.ndarray, tol: float) -> np.ndarray:
    """Membership of the points p (n, 2) in the closed region bounded by a
    simple loop: within tol of an edge, or inside by the parity of the edges
    crossing the ray from the point to +x."""
    a, b = poly, np.roll(poly, -1, axis=0)
    near = (_seg_dists(p, a, b) <= tol).any(axis=1)
    x, y = p[:, :1], p[:, 1:]
    (x1, y1), (x2, y2) = a.T, b.T
    spans = (y1 > y) != (y2 > y)
    xs = x1 + (y - y1) * (x2 - x1) / np.where(spans, y2 - y1, 1.0)
    return near | ((spans & (xs > x)).sum(axis=1) % 2 == 1)


@dataclass(frozen=True)
class OlerReport:
    n: int
    enclosed_area: float
    norm_length: float
    pgram_area: float
    lhs: float
    slack: float
    degenerate: bool
    holds: bool

    provenance: ClassVar[dict] = {"method": "closed-form"}


def oler_check(reference: ConvexBody, centers, loop, tol: float = EPS) -> OlerReport:
    """Verify the closed-curve packing inequality for an o-symmetric body.

    centers must be pairwise at norm distance >= 2 and all lie in the region
    bounded by the closed polygonal curve through centers[loop]; then
    area / pgram + length / 4 + 1 >= n. The curve's flatness, simplicity
    and membership tolerances are relative to the extent of the loop, so
    the verdict does not change under scaling.
    """
    reference.require_full_dimensional("norm inequality")
    if not reference.is_origin_symmetric(1e-9):
        raise GeometryError("the norm inequality needs an o-symmetric body")
    c = np.asarray(centers, dtype=float)
    n = len(c)
    idx = np.asarray(loop, dtype=int)
    if idx.ndim != 1 or len(idx) < 1 or idx.min() < 0 or idx.max() >= n:
        raise GeometryError("loop must index rows of centers")
    _translate_gauges(reference, c, 1.0, tol)

    poly = c[idx]
    span = poly - poly[0]
    extent = float(np.abs(span).max())
    cross = np.abs(span[:, None, 0] * span[None, :, 1] - span[:, None, 1] * span[None, :, 0])
    degenerate = bool(cross.max() <= 1e-9 * extent * extent)

    if degenerate:
        # out-and-back curve along a segment: zero area, membership on the hull
        hv = hull_of_centers(poly)
        a, b = (hv[0], hv[0]) if len(hv) == 1 else (hv[0], hv[-1])
        if (_seg_dists(c, a[None], b[None]) > 1e-7 * extent).any():
            raise GeometryError("all centers must lie in the region bounded by the curve")
        enclosed = 0.0
    else:
        if not _loop_is_simple(poly, 1e-12 * extent):
            raise GeometryError("the curve must be simple")
        enclosed = abs(polygon_area(poly))
        step = max(1, _BLOCK // len(poly))
        if not all(_in_loop(c[s : s + step], poly, 1e-7 * extent).all() for s in range(0, n, step)):
            raise GeometryError("all centers must lie in the region bounded by the curve")

    pg = min_area_parallelogram(reference).area
    length = minkowski_length(reference, poly, closed=True)
    lhs = enclosed / pg + length / 4.0 + 1.0
    return OlerReport(n, enclosed, length, pg, lhs, lhs - n, degenerate, lhs - n >= -tol)


@dataclass(frozen=True)
class MixedAreaReport:
    mixed: float
    pgram_area: float
    norm_length: float
    lhs: float
    slack: float
    holds: bool


def radon_mixed_area_check(reference: ConvexBody, q_vertices, tol: float = EPS) -> MixedAreaReport:
    """Check 8 A(Q, K) / pgram >= length of bd Q in the norm of K."""
    reference.require_full_dimensional("mixed area")
    if not reference.is_origin_symmetric(1e-9):
        raise GeometryError("the mixed-area inequality needs an o-symmetric body")
    q = ConvexBody.polygon(q_vertices)
    pg = min_area_parallelogram(reference).area
    mx = mixed_area(q, reference)
    length = minkowski_length(reference, q.vertices, closed=True)
    lhs = 8.0 * mx / pg
    return MixedAreaReport(mx, pg, length, lhs, lhs - length, lhs - length >= -tol)


# ---------------------------------------------------------------------------
# perimeter of successively attachable unit-disk families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPerimeterReport:
    n: int
    ordering: tuple[int, ...]
    perimeter: float
    bound: float
    slack: float
    mean_width: float
    mean_width_bound: float
    equality: bool


def sns_perimeter_check(centers, ordering=None, tol: float = EPS) -> ChainPerimeterReport:
    """Perimeter bound 2 pi + 4n - 4 for successively attachable unit disks.

    Each disk after the first must intersect the hull of its predecessors;
    equality needs collinear centers spaced exactly 2 apart. The mean width
    bound 2 + (4n - 4) / pi is the same statement via per = pi * mw.

    A disk meets the hull of other disks exactly when no line separates it
    from them, so the ordering is is_sns's on the unit disks, and a given
    ordering is checked with the same separation test, at its tolerance.
    """
    c = np.asarray(centers, dtype=float)
    n = len(c)
    if n < 1:
        raise GeometryError("need at least one disk")
    disks = [ConvexBody.disk(p, 1.0) for p in c]
    if ordering is None:
        found = is_sns(disks, tol)
        if not found.is_sns:
            raise GeometryError("no ordering attaches every disk to the previous hull")
        ordering = found.ordering
    else:
        ordering = tuple(int(i) for i in ordering)
        if sorted(ordering) != list(range(n)):
            raise GeometryError("ordering must be a permutation of the disks")
        separable = _separation_test(disks, tol)
        for k in range(1, n):
            if separable(list(ordering[:k]), [ordering[k]]):
                raise GeometryError(
                    f"ordering is not successive: disk {ordering[k]} misses the previous hull"
                )
    per = TWO_PI + polygon_perimeter(hull_of_centers(c))
    bound = TWO_PI + 4.0 * n - 4.0
    slack = bound - per
    return ChainPerimeterReport(
        n=n,
        ordering=ordering,
        perimeter=per,
        bound=bound,
        slack=slack,
        mean_width=per / PI,
        mean_width_bound=2.0 + (4.0 * n - 4.0) / PI,
        equality=abs(slack) <= tol,
    )


# ---------------------------------------------------------------------------
# extremal hulls of three pairwise non-splittable unit disks
# ---------------------------------------------------------------------------


def three_disk_non_separable(centers, tol: float = EPS) -> bool:
    """No line misses three unit disks and splits them.

    Holds exactly when each center is within 2 of the segment joining the
    other two.
    """
    c = _finite(centers, "disk centers")
    if c.shape != (3, 2):
        raise GeometryError("expected three centers")
    # each center against the segment joining the other two
    dist = _seg_dists(c, np.roll(c, -1, axis=0), np.roll(c, -2, axis=0)).diagonal()
    return bool((dist <= 2.0 + tol).all())


def three_disk_hull_metrics(centers) -> tuple[float, float, float, float]:
    """Area, perimeter, min width and inradius of the hull of three unit disks.

    The hull is conv(centers) + unit disk, so area, perimeter, width and
    inradius all reduce to triangle quantities.
    """
    c = _finite(centers, "disk centers")
    if c.shape != (3, 2):
        raise GeometryError("expected three centers")
    hv = hull_of_centers(c)
    # a point or a segment (its perimeter counted twice) has no area, width or inradius
    t_area, t_per, t_w, t_r = abs(polygon_area(hv)), polygon_perimeter(hv), 0.0, 0.0
    if len(hv) > 2:
        sides = np.linalg.norm(np.roll(hv, -1, axis=0) - hv, axis=1)
        t_w = 2.0 * t_area / sides.max()
        t_r = 2.0 * t_area / t_per
    return (PI + t_area + t_per, TWO_PI + t_per, 2.0 + t_w, 1.0 + t_r)


def _obtuse_branch(g: np.ndarray) -> dict[str, np.ndarray]:
    # apex angle g in [pi/2, pi], both enclosing sides of length 2
    per_t = 4.0 + 4.0 * np.sin(g / 2.0)
    area_t = 2.0 * np.sin(g)
    return {
        "area": PI + area_t + per_t,
        "perimeter": TWO_PI + per_t,
        "width": 2.0 + 2.0 * np.cos(g / 2.0),
        "inradius": 1.0 + np.sin(g) / (1.0 + np.sin(g / 2.0)),
    }


def _acute_branch(g: np.ndarray) -> dict[str, np.ndarray]:
    # apex angle g in [pi/3, pi/2], the two heights through the base equal 2
    per_t = 4.0 / np.sin(g) + 2.0 / np.cos(g / 2.0)
    area_t = 2.0 / np.sin(g)
    return {
        "area": PI + area_t + per_t,
        "perimeter": TWO_PI + per_t,
        "width": 2.0 + 1.0 / np.sin(g / 2.0),
        "inradius": 1.0 + 1.0 / (1.0 + np.sin(g / 2.0)),
    }


@dataclass(frozen=True)
class BranchExtremum:
    quantity: str
    value: float
    gamma: float
    branch: str


@dataclass(frozen=True)
class ThreeDiskReport:
    area: BranchExtremum
    perimeter: BranchExtremum
    width: BranchExtremum
    inradius: BranchExtremum
    flags: tuple[str, ...]

    provenance: ClassVar[dict] = {"method": "closed-form", "exact": True}


def three_disk_extrema() -> ThreeDiskReport:
    """Maxima of hull area, perimeter, width and inradius over such families.

    Maximizers live on two one-parameter families of the apex angle g: an
    obtuse apex with both enclosing sides of length 2, g in [pi/2, pi], or
    an acute apex with the two base heights equal to 2, g in [pi/3, pi/2].
    Each branch function is monotone, or has one interior critical point:
    the obtuse area 2 sin g + 4 sin(g/2) peaks at g = 2 pi/3 (cos g =
    -cos(g/2)), and the convex acute area 6/sin g + 2/cos(g/2) and
    perimeter 4/sin g + 2/cos(g/2) have only an interior minimum. So each
    maximum is at a branch end or at 2 pi/3, the only angles evaluated.
    """
    branches = (
        ("obtuse", _obtuse_branch, (PI / 2.0, 2.0 * PI / 3.0, PI)),
        ("acute", _acute_branch, (PI / 3.0, PI / 2.0)),
    )
    out = {}
    for qty in ("area", "perimeter", "width", "inradius"):
        cands = [(v, g, name) for name, fn, angles in branches
                 for g, v in zip(angles, fn(np.array(angles))[qty])]
        value, gamma, branch = max(cands, key=lambda c: c[0])  # the first of equal values
        out[qty] = BranchExtremum(qty, float(value), gamma, branch)
    flags = (
        "hull area peaks at pi + 16*sqrt(3)/3 = {:.6f} (regular triangle, heights 2); "
        "the obtuse branch only reaches pi + 4 + 3*sqrt(3) = {:.6f}".format(
            PI + 16.0 * math.sqrt(3.0) / 3.0, PI + 4.0 + 3.0 * math.sqrt(3.0)
        ),
        "hull inradius is the triangle inradius plus 1, so its maximum is 5/3",
    )
    return ThreeDiskReport(**out, flags=flags)


# ---------------------------------------------------------------------------
# contact graphs and contact-number bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContactGraph:
    edges: tuple[tuple[int, int], ...]
    count: int
    degrees: np.ndarray

    provenance: ClassVar[dict] = {"method": "gauge-distance"}


def contact_graph(reference: ConvexBody, centers, tol: float = EPS) -> ContactGraph:
    """Touching pairs among the translates reference + c."""
    c = np.asarray(centers, dtype=float)
    i, j, g = _translate_gauges(reference, c, 1.0, tol)
    touch = g <= 2.0 + tol
    edges = tuple(zip(i[touch].tolist(), j[touch].tolist()))
    degrees = np.bincount(np.concatenate([i[touch], j[touch]]), minlength=len(c)).astype(np.int64)
    return ContactGraph(edges, len(edges), degrees)


def ulam_spiral(n: int) -> np.ndarray:
    """First n lattice points of the counterclockwise square spiral."""
    if n < 1:
        raise GeometryError("need n >= 1")
    pts = np.zeros((n, 2), dtype=np.int64)
    dirs = ((1, 0), (0, 1), (-1, 0), (0, -1))
    x = y = 0
    di = 0
    run = 1
    i = 1
    while i < n:
        for _ in range(2):
            dx, dy = dirs[di]
            for _ in range(run):
                x += dx
                y += dy
                pts[i] = (x, y)
                i += 1
                if i == n:
                    return pts
            di = (di + 1) % 4
        run += 1
    return pts


@dataclass(frozen=True)
class SpiralPacking:
    centers: np.ndarray
    contacts: int
    bound: int
    tight: bool


def polyomino_packing(n: int) -> SpiralPacking:
    """Square-spiral packing of n unit-diameter disks meeting the contact bound."""
    pts = ulam_spiral(n)
    cells = {(int(p[0]), int(p[1])) for p in pts}
    contacts = sum(((x + 1, y) in cells) + ((x, y + 1) in cells) for x, y in cells)
    bound = crystallization_bound(n, 2)
    return SpiralPacking(pts.astype(float), contacts, bound, contacts == bound)


# ---------------------------------------------------------------------------
# simplex density by Monte Carlo
# ---------------------------------------------------------------------------


def simplex_vertices(d: int) -> np.ndarray:
    """Vertices of a regular d-simplex with edge length 2, centered at o."""
    if d < 1:
        raise GeometryError("need d >= 1")
    x = np.eye(d + 1) * math.sqrt(2.0)
    x -= x.mean(axis=0)
    _, _, vt = np.linalg.svd(x, full_matrices=False)
    return x @ vt[:d].T


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    samples: int
    seed: int

    @property
    def provenance(self) -> dict:
        return {"method": "monte-carlo", "samples": self.samples, "seed": self.seed}


def rogers_sigma(d: int, samples: int = 2_000_000, seed: int = 0) -> MonteCarloEstimate:
    """Fraction of a regular edge-2 simplex covered by unit balls at its vertices.

    Monte Carlo with Dirichlet sampling; stderr is the binomial estimate. The
    planar value is pi / sqrt(12) and d = 3 gives about 0.7797.
    """
    if samples < 1:
        raise GeometryError("need samples >= 1")
    if seed < 0:
        raise GeometryError("seed must be >= 0")
    verts = np.ascontiguousarray(simplex_vertices(d))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < samples:
        m = min(1_000_000, samples - done)
        hits += int(simplex_covered(verts, rng.random((m, d + 1))))
        done += m
    p = hits / samples
    return MonteCarloEstimate(p, math.sqrt(max(p * (1.0 - p), 0.0) / samples), samples, seed)


# ---------------------------------------------------------------------------
# guillotine partitions of a cube
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneCut:
    cell: int
    normal: np.ndarray
    offset: float


@dataclass(frozen=True)
class GuillotinePartition:
    lo: np.ndarray
    hi: np.ndarray
    cuts: tuple
    balls: tuple


@dataclass(frozen=True)
class PartitionReport:
    n_cells: int
    ball_radius: float
    total_surface: float
    surface_bound: float
    volume: float
    volume_bound: float
    cell_volumes: tuple
    holds_surface: bool
    holds_volume: bool

    provenance: ClassVar[dict] = {"method": "vertex-enumeration", "exact": True}


def _cell_measures(normals: np.ndarray, offsets: np.ndarray, center) -> tuple[float, float]:
    """Surface and volume of the cell {x : n . x <= offset} of unit normals n
    around a point center inside it, or zero volume when it is degenerate.

    Its vertices are the feasible solutions of every three of its planes,
    solved about center in the blocks of triple_blocks. A plane's face
    is the polygon of the vertices on it, sorted by angle in the plane, and
    the cell is the union of the pyramids from center over its faces.
    """
    height = offsets - normals @ center
    tol = 1e-9 * float(height.max())
    found = []
    for triple in triple_blocks(len(height)):
        m = normals[triple]
        keep = np.abs(np.linalg.det(m)) > 1e-12
        x = np.linalg.solve(m[keep], height[triple[keep]][..., None])[..., 0]
        found.append(x[(x @ normals.T <= height + tol).all(axis=1)])
    x = np.concatenate(found)
    if len(x) < 4:
        return 0.0, 0.0
    surface = volume = 0.0
    for n, h in zip(normals, height):
        face = x[np.abs(x @ n - h) <= tol]
        if len(face) < 3:
            continue
        d = face - face.mean(axis=0)
        e1 = d[np.argmax((d * d).sum(axis=1))]
        d = d[np.argsort(np.arctan2(d @ np.cross(n, e1), d @ e1))]
        area = 0.5 * float(np.cross(d, np.roll(d, -1, axis=0)).sum(axis=0) @ n)
        surface += area
        volume += area * h / 3.0
    return surface, volume


def kertesz_check(partition: GuillotinePartition, tol: float = 1e-7) -> PartitionReport:
    """Surface and volume bounds for ball-carrying guillotine partitions.

    A cube split by successive plane cuts into N convex cells, each containing
    a ball of radius r, has total cell surface at least 24 N r^2 and volume at
    least 8 N r^3.

    Each cell is measured exactly from its vertices (_cell_measures), and a
    cell with fewer than 4 of them or no volume is degenerate. tol is
    relative to the cube's side s: a ball may leave its cell by tol s, and
    the surface and volume bounds hold to tol s^2 and tol s^3.
    """
    lo = np.asarray(partition.lo, dtype=float)
    hi = np.asarray(partition.hi, dtype=float)
    side = hi - lo
    if lo.shape != (3,) or (side <= 0).any():
        raise GeometryError("box corners must give a positive 3d box")
    if np.abs(side - side[0]).max() > 1e-9 * side[0]:
        raise GeometryError("the container must be a cube")

    cells: list[list[tuple[np.ndarray, float]]] = [[]]
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        cells[0].append((e.copy(), hi[k]))
        cells[0].append((-e, -lo[k]))
    for cut in partition.cuts:
        idx = int(cut.cell)
        if not 0 <= idx < len(cells):
            raise GeometryError(f"cut refers to missing cell {idx}")
        u = unit(np.asarray(cut.normal, dtype=float))
        off = float(cut.offset) / float(np.linalg.norm(cut.normal))
        below = cells[idx] + [(u, off)]
        above = cells[idx] + [(-u, -off)]
        cells[idx] = below
        cells.append(above)

    n_cells = len(cells)
    balls = [(np.asarray(c, dtype=float), float(r)) for c, r in partition.balls]
    if len(balls) != n_cells:
        raise GeometryError(f"{n_cells} cells need {n_cells} balls, got {len(balls)}")
    if any(r <= 0 for _, r in balls):
        raise GeometryError("balls need positive radius")

    s = float(side[0])
    t = tol * s

    def ball_inside(cell, center, r):
        return all(a @ center + r <= b + t for a, b in cell)

    owner = [-1] * n_cells
    for bi, (center, r) in enumerate(balls):
        homes = [ci for ci in range(n_cells) if ball_inside(cells[ci], center, r)]
        if len(homes) != 1:
            raise GeometryError(f"ball {bi} must sit in exactly one cell")
        if owner[homes[0]] != -1:
            raise GeometryError(f"cell {homes[0]} holds more than one ball")
        owner[homes[0]] = bi

    volumes = []
    surfaces = []
    for ci, cell in enumerate(cells):
        planes = distinct(np.array([[*a, b] for a, b in cell]))
        surface, volume = _cell_measures(planes[:, :3], planes[:, 3], balls[owner[ci]][0])
        if volume <= 0.0:
            raise GeometryError(f"cell {ci} is degenerate")
        volumes.append(volume)
        surfaces.append(surface)

    vol = float(side.prod())
    if abs(sum(volumes) - vol) > 1e-6 * vol:
        raise GeometryError("cell volumes do not add up to the cube volume")
    r = min(r for _, r in balls)
    surf = float(sum(surfaces))
    sb = 24.0 * n_cells * r * r
    vb = 8.0 * n_cells * r**3
    return PartitionReport(
        n_cells=n_cells,
        ball_radius=r,
        total_surface=surf,
        surface_bound=sb,
        volume=vol,
        volume_bound=vb,
        cell_volumes=tuple(volumes),
        holds_surface=surf >= sb - t * s,
        holds_volume=vol >= vb - t * s * s,
    )
