"""Critical triangles and density bounds for lambda-separable disk packings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import GeometryError

PI = math.pi

GEOMETRIES = ("euclidean", "spherical", "hyperbolic")


def _asin(x: float) -> float:
    return math.asin(min(1.0, max(-1.0, x)))


def _acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


# ---------------------------------------------------------------------------
# triangles in the three constant-curvature planes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Triangle given by side lengths; angles are opposite the same-index side."""

    geometry: str
    sides: tuple[float, float, float]
    angles: tuple[float, float, float]
    area: float


def _lhuilier(f, sides) -> float:
    """4 atan sqrt(f(s/2) f((s-a)/2) f((s-b)/2) f((s-c)/2)) for the half
    perimeter s of sides (a, b, c): the spherical excess for f = tan, the
    hyperbolic defect for f = tanh."""
    a, b, c = sides
    halves = (0.25 * (a + b + c), 0.25 * (b + c - a), 0.25 * (a + c - b), 0.25 * (a + b - c))
    return 4.0 * math.atan(math.sqrt(math.prod(map(f, halves))))


def triangle_from_sides(geometry: str, a: float, b: float, c: float) -> Triangle:
    """Solve a triangle from its side lengths.

    The curved areas come from the sides, not from the angle sum, whose
    arccos angles lose the excess of a small triangle to round-off:
    L'Huilier's tan(E/4)^2 = tan(s/2) tan((s-a)/2) tan((s-b)/2) tan((s-c)/2)
    on the sphere, and the same with tanh for the defect in the hyperbolic
    plane, s the half perimeter and s - a taken as (b + c - a)/2.
    """
    if geometry not in GEOMETRIES:
        raise GeometryError(f"unknown geometry {geometry!r}")
    s = (float(a), float(b), float(c))
    if min(s) <= 0.0:
        raise GeometryError("sides must be positive")
    for k in range(3):
        if s[k] >= s[(k + 1) % 3] + s[(k + 2) % 3]:
            raise GeometryError("sides must satisfy the strict triangle inequality")
    if geometry == "euclidean":
        a, b, c = s
        ang = (
            _acos((b * b + c * c - a * a) / (2.0 * b * c)),
            _acos((a * a + c * c - b * b) / (2.0 * a * c)),
            _acos((a * a + b * b - c * c) / (2.0 * a * b)),
        )
        p = sum(s) / 2.0
        area = math.sqrt(max(0.0, p * (p - a) * (p - b) * (p - c)))
        return Triangle(geometry, s, ang, area)
    if geometry == "spherical":
        if max(s) >= PI:
            raise GeometryError("spherical sides must stay below pi")
        if sum(s) >= 2.0 * PI:
            raise GeometryError("spherical perimeter must stay below 2*pi")
        ca, cb, cc = (math.cos(v) for v in s)
        sa, sb, sc = (math.sin(v) for v in s)
        ang = (
            _acos((ca - cb * cc) / (sb * sc)),
            _acos((cb - ca * cc) / (sa * sc)),
            _acos((cc - ca * cb) / (sa * sb)),
        )
        return Triangle(geometry, s, ang, _lhuilier(math.tan, s))
    ca, cb, cc = (math.cosh(v) for v in s)
    sa, sb, sc = (math.sinh(v) for v in s)
    ang = (
        _acos((cb * cc - ca) / (sb * sc)),
        _acos((ca * cc - cb) / (sa * sc)),
        _acos((ca * cb - cc) / (sa * sb)),
    )
    return Triangle(geometry, s, ang, _lhuilier(math.tanh, s))


def isosceles_triangle(geometry: str, base: float, leg: float) -> Triangle:
    """Triangle with the base first: sides (base, leg, leg)."""
    return triangle_from_sides(geometry, base, leg, leg)


def regular_triangle(geometry: str, side: float) -> Triangle:
    return triangle_from_sides(geometry, side, side, side)


def triangle_vertices(tri: Triangle) -> np.ndarray:
    """Vertex coordinates: plane points, sphere unit vectors, or hyperboloid
    points with the time coordinate last."""
    a, b, c = tri.sides
    alpha = tri.angles[0]
    if tri.geometry == "euclidean":
        return np.array(
            [[0.0, 0.0], [c, 0.0], [b * math.cos(alpha), b * math.sin(alpha)]]
        )
    if tri.geometry == "spherical":
        return np.array(
            [
                [0.0, 0.0, 1.0],
                [math.sin(c), 0.0, math.cos(c)],
                [math.sin(b) * math.cos(alpha), math.sin(b) * math.sin(alpha), math.cos(b)],
            ]
        )
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [math.sinh(c), 0.0, math.cosh(c)],
            [math.sinh(b) * math.cos(alpha), math.sinh(b) * math.sin(alpha), math.cosh(b)],
        ]
    )


# ---------------------------------------------------------------------------
# legs of the critical isosceles triangles
# ---------------------------------------------------------------------------


def short_leg_sphere(y: float, lam: float) -> float:
    """Half leg length of the tight spherical isosceles triangle, short branch."""
    if not 0.0 <= lam < PI / 4.0:
        raise GeometryError("need 0 <= lambda < pi/4")
    if math.sin(y) < math.tan(lam) - 1e-12 or y > PI / 2.0 + 1e-12:
        raise GeometryError("need arcsin(tan(lambda)) <= y <= pi/2")
    # sin^2 y - sin^2 lam = sin(y - lam) sin(y + lam), stable near the left end
    prod = math.sin(y - lam) * math.sin(y + lam)
    if prod <= 0.0:
        return PI / 4.0
    arg = math.cos(lam) * math.sin(y) ** 2 / math.sqrt(prod)
    if arg >= 1.0 - 1e-14:
        return PI / 4.0
    return 0.5 * math.asin(arg)


def long_leg_sphere(y: float, lam: float) -> float:
    """Half leg length of the tight spherical isosceles triangle, long branch."""
    return PI / 2.0 - short_leg_sphere(y, lam)


def leg_hyper(y: float, lam: float) -> float:
    """Half leg length of the tight hyperbolic isosceles triangle."""
    if lam < 0.0 or y <= lam:
        raise GeometryError("need 0 <= lambda < y")
    prod = math.sinh(y - lam) * math.sinh(y + lam)
    return 0.5 * math.asinh(math.cosh(lam) * math.sinh(y) ** 2 / math.sqrt(prod))


def leg_euclid(y: float, lam: float) -> float:
    """Half leg length of the tight Euclidean isosceles triangle."""
    if lam < 0.0 or y <= lam:
        raise GeometryError("need 0 <= lambda < y")
    return y * y / (2.0 * math.sqrt((y - lam) * (y + lam)))


def _bisect(f, lo: float, hi: float, target: float, increasing: bool) -> float:
    """200 halvings of [lo, hi] towards where f, monotone there, meets target."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (f(mid) < target) if increasing else (f(mid) > target):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def short_leg_sphere_inverse(rho: float, lam: float, increasing: bool = False) -> float:
    """Base half-length whose short leg equals rho.

    The short leg runs from pi/4 down to lambda and back up as y sweeps
    [arcsin(tan(lambda)), arcsin(sqrt(2) sin(lambda)), pi/2]; the flag picks
    the monotone piece.
    """
    if not 0.0 < lam < PI / 4.0:
        raise GeometryError("need 0 < lambda < pi/4")
    if not lam <= rho <= PI / 4.0 + 1e-12:
        raise GeometryError("need lambda <= rho <= pi/4")
    if rho >= PI / 4.0 - 1e-12:
        # the leg meets pi/4 exactly at the ends, where its slope blows up
        return PI / 2.0 if increasing else _asin(math.tan(lam))
    knee = _asin(math.sqrt(2.0) * math.sin(lam))
    lo, hi = (knee, PI / 2.0) if increasing else (_asin(math.tan(lam)), knee)
    return _bisect(lambda y: short_leg_sphere(y, lam), lo, hi, rho, increasing)


def leg_hyper_inverse(rho: float, lam: float, increasing: bool = False) -> float:
    """Base half-length whose hyperbolic leg equals rho (two monotone pieces)."""
    if lam <= 0.0:
        raise GeometryError("need lambda > 0")
    if rho < lam:
        raise GeometryError("need rho >= lambda")
    knee = math.asinh(math.sqrt(2.0) * math.sinh(lam))
    if increasing:
        hi = knee + 1.0
        while leg_hyper(hi, lam) < rho:
            hi = 2.0 * hi
        return _bisect(lambda y: leg_hyper(y, lam), knee, hi, rho, True)
    # decreasing piece: shrink the bracket toward lambda until it straddles
    # rho; the leg blows up there, so stop once floats cannot get closer
    lo = lam + 0.5 * (knee - lam)
    while leg_hyper(lo, lam) < rho:
        step = 0.5 * (lo - lam)
        if step <= 4e-16 * max(lam, 1.0):
            return lo
        lo = lam + step
    return _bisect(lambda y: leg_hyper(y, lam), lo, knee, rho, False)


def regular_base_sphere(lam: float) -> tuple[float, float] | None:
    """Base half-lengths where the tight spherical triangle turns regular.

    Returns the (small, big) pair, or None when sin(lambda) > 3/5 and the
    defining quadratic has no real root.
    """
    if lam < 0.0:
        raise GeometryError("need lambda >= 0")
    s = math.sin(lam) ** 2
    disc = 9.0 - 34.0 * s + 25.0 * s * s
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return (
        _asin(math.sqrt((3.0 + 5.0 * s - root) / 8.0)),
        _asin(math.sqrt((3.0 + 5.0 * s + root) / 8.0)),
    )


def regular_base_hyper(lam: float) -> float:
    """Base half-length where the tight hyperbolic triangle turns regular."""
    if lam < 0.0:
        raise GeometryError("need lambda >= 0")
    s = math.sinh(lam) ** 2
    root = math.sqrt(25.0 * s * s + 34.0 * s + 9.0)
    return math.asinh(math.sqrt(max(5.0 * s - 3.0 + root, 0.0) / 8.0))


# ---------------------------------------------------------------------------
# density of three vertex disks inside a triangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleDensity:
    value: float
    triangle: Triangle
    rho: float


def _roots01(a: float, b: float, c: float) -> list[float]:
    """Roots of a t^2 + 2 b t + c strictly between 0 and 1, ascending."""
    disc = b * b - a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b))
    roots = ([c / q] if q != 0.0 else []) + ([q / a] if a != 0.0 else [])
    return sorted(t for t in roots if 0.0 < t < 1.0)


class _Model:
    """A plane of constant curvature eps in R^3 with the form <x, y> = x1 y1
    + x2 y2 + eps x3 y3: the Euclidean plane lifted to z = 1 (eps = 0), the
    unit sphere (eps = 1) or the hyperboloid <x, x> = -1 (eps = -1). Its
    geodesics are planes through the origin, and <p - w, p - w> grows with
    the distance from p to w: at distance rho it is twice sector, the area
    of the disk's sector per radian."""

    def __init__(self, geometry: str, rho: float):
        self.eps = {"euclidean": 0.0, "spherical": 1.0, "hyperbolic": -1.0}[geometry]
        self.metric = np.array([1.0, 1.0, self.eps])
        self.sector = {0.0: rho * rho / 2.0, 1.0: 1.0 - math.cos(rho), -1.0: math.cosh(rho) - 1.0}[self.eps]

    def dot(self, p, q) -> float:
        return float(p @ (self.metric * q))

    def unit(self, p):
        return p / math.sqrt(self.eps * self.dot(p, p)) if self.eps else p

    def nearer(self, p, w, v) -> float:
        """Linear in p, and positive where p is nearer to w than to v (the
        last term vanishes on the curved planes, where <w, w> = eps)."""
        return self.dot(p, w - v) - 0.5 * (self.dot(w, w) - self.dot(v, v)) * p[2]

    def within(self, w, p) -> bool:
        return self.dot(p - w, p - w) <= 2.0 * self.sector

    def crossings(self, w, a, b) -> list[float]:
        """Where the point at a + t (b - a) is at distance rho from w. On the
        curved planes that is <p, w>^2 = kappa^2 eps <p, p> for kappa = eps -
        sector, squared, so a root may also be where <p, w> = -kappa."""
        d, e = b - a, a - w
        if not self.eps:
            return _roots01(self.dot(d, d), self.dot(e, d), self.dot(e, e) - 2.0 * self.sector)
        k2 = self.eps * (self.eps - self.sector) ** 2
        aw, dw = self.dot(a, w), self.dot(d, w)
        return _roots01(dw * dw - k2 * self.dot(d, d), aw * dw - k2 * self.dot(a, d),
                        aw * aw - k2 * self.dot(a, a))

    def piece(self, w, p, q) -> tuple[float, float]:
        """Area of the geodesic triangle wpq, and its angle at w between the
        tangents p - lam w, lam = 1 on the plane and eps <p, w> otherwise."""
        det = abs(float(w @ np.cross(p, q)))
        wp, wq = (x[2] if not self.eps else self.eps * self.dot(x, w) for x in (p, q))
        angle = math.atan2(det, self.dot(p - wp * w, q - wq * w))
        if not self.eps:
            return 0.5 * det, angle
        rest = 1.0 + self.eps * (self.dot(w, p) + self.dot(p, q) + self.dot(q, w))
        return 2.0 * math.atan2(det, rest), angle


def _clip(poly: list, side, unit) -> list:
    """The part of the convex polygon poly where the linear functional side
    is >= 0 (Sutherland-Hodgman), starting at poly[0] when that stays."""
    s = [side(p) for p in poly]
    out = []
    for a, b, sa, sb in zip(poly, poly[1:] + poly[:1], s, s[1:] + s[:1]):
        if sa >= 0.0:
            out.append(a)
        if sa * sb < 0.0:
            out.append(unit((sa * b - sb * a) / (sa - sb)))
    return out


def triangle_disk_density(tri: Triangle, rho: float) -> TriangleDensity:
    """Fraction of the triangle covered by disks of radius rho at its vertices.

    Exact in all three geometries. A point is covered exactly when it lies
    within rho of its nearest vertex, so the triangle splits into the
    Voronoi cells of its vertices. Every geodesic is a plane through the
    origin of R^3 (_Model), so a cell is the triangle clipped by two linear
    bisector functionals. It is a fan of triangles (w, a, b) about its
    vertex w. Each is split where ab is at distance rho from w, a quadratic
    in the chord parameter, and a piece adds its own area inside the disk
    and its sector at w outside it.
    """
    if rho <= 0.0:
        raise GeometryError("need rho > 0")
    geo = _Model(tri.geometry, rho)
    v = triangle_vertices(tri)
    v = list(np.c_[v, np.ones(3)] if v.shape[1] == 2 else v)
    covered = total = 0.0
    for k, w in enumerate(v):
        cell = v[k:] + v[:k]
        for other in cell[1:]:
            cell = _clip(cell, lambda p: geo.nearer(p, w, other), geo.unit)
        for a, b in zip(cell[1:], cell[2:]):
            ts = [0.0, *geo.crossings(w, a, b), 1.0]
            pts = [a, *(geo.unit(a + t * (b - a)) for t in ts[1:-1]), b]
            for t0, t1, p, q in zip(ts, ts[1:], pts, pts[1:]):
                area, angle = geo.piece(w, p, q)
                total += area
                inside = geo.within(w, geo.unit(a + 0.5 * (t0 + t1) * (b - a)))
                covered += area if inside else geo.sector * angle
    return TriangleDensity(covered / total, tri, rho)


# ---------------------------------------------------------------------------
# the three density bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityBound:
    value: float
    branch: str
    density: TriangleDensity
    rho: float
    lam: float


def density_bound_euclid(lam: float) -> DensityBound:
    """Largest density of lambda-separable packings of unit disks.

    pi/sqrt(12) up to lambda = sqrt(3)/2 (hexagonal extremal packing), then
    pi/(4 lambda) with a squeezed isosceles extremal triangle.
    """
    if not 0.0 <= lam <= 1.0:
        raise GeometryError("need 0 <= lambda <= 1")
    if lam <= math.sqrt(3.0) / 2.0:
        tri = regular_triangle("euclidean", 2.0)
        return DensityBound(PI / math.sqrt(12.0), "regular", triangle_disk_density(tri, 1.0), 1.0, lam)
    y = math.sqrt(2.0 - 2.0 * math.sqrt(1.0 - lam * lam))
    tri = isosceles_triangle("euclidean", 2.0 * y, 2.0 * leg_euclid(y, lam))
    return DensityBound(PI / (4.0 * lam), "squeezed", triangle_disk_density(tri, 1.0), 1.0, lam)


def density_bound_sphere(rho: float, lam: float) -> DensityBound:
    """Upper density bound for lambda-separable packings of caps of radius rho.

    Three regimes: a short-leg isosceles Delaunay triangle with legs 2 rho, a
    regular triangle of side 2 rho between the two switch values, and a
    long-leg triangle with base 2 rho past pi/4.
    """
    if not 0.0 < rho < PI / 2.0:
        raise GeometryError("need 0 < rho < pi/2")
    if not 0.0 <= lam <= rho:
        raise GeometryError("need 0 <= lambda <= rho")
    if lam > PI / 2.0 - rho + 1e-15:
        raise GeometryError("need lambda <= pi/2 - rho")
    switch = regular_base_sphere(lam)
    if switch is None:
        small, big = None, None
    else:
        small, big = switch
    if lam > 0.0 and rho <= (PI / 4.0 if small is None else min(small, PI / 4.0)) + 1e-15:
        y = short_leg_sphere_inverse(min(rho, PI / 4.0), lam)
        tri = isosceles_triangle("spherical", 2.0 * y, 2.0 * rho)
        branch = "short-leg"
    elif small is not None and small <= rho <= big:
        tri = regular_triangle("spherical", 2.0 * rho)
        branch = "regular"
    elif rho > PI / 4.0:
        tri = isosceles_triangle("spherical", 2.0 * rho, 2.0 * long_leg_sphere(rho, lam))
        branch = "long-leg"
    else:
        # lambda = 0 below pi/4 falls to the regular triangle as well
        tri = regular_triangle("spherical", 2.0 * rho)
        branch = "regular"
    dens = triangle_disk_density(tri, rho)
    return DensityBound(dens.value, branch, dens, rho, lam)


def density_bound_hyper(rho: float, lam: float) -> DensityBound:
    """Upper density bound for lambda-separable packings of hyperbolic disks."""
    if rho <= 0.0:
        raise GeometryError("need rho > 0")
    if not 0.0 <= lam <= rho:
        raise GeometryError("need 0 <= lambda <= rho")
    if lam > 0.0 and rho <= regular_base_hyper(lam):
        y = leg_hyper_inverse(rho, lam)
        tri = isosceles_triangle("hyperbolic", 2.0 * y, 2.0 * rho)
        branch = "short-leg"
    else:
        tri = regular_triangle("hyperbolic", 2.0 * rho)
        branch = "regular"
    dens = triangle_disk_density(tri, rho)
    return DensityBound(dens.value, branch, dens, rho, lam)
