"""Critical triangles and density bounds for lambda-separable disk packings.

Each formula is written once for the planes of curvature eps = 0, 1, -1, in
their sine, cosine and arcsine S, C, S^-1 = (x, 1, x), (sin, cos, arcsin),
(sinh, cosh, arcsinh) (_PLANES). The leg inverses are closed-form roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from ._errors import GeometryError

PI = math.pi


def _asin(x: float) -> float:
    return math.asin(min(1.0, max(-1.0, x)))


class _Plane(NamedTuple):
    """A plane of constant curvature eps and its sine, cosine and arcsine."""

    eps: float
    S: Callable[[float], float]
    C: Callable[[float], float]
    Sinv: Callable[[float], float]


_PLANES = {
    "euclidean": _Plane(0.0, lambda x: x, lambda x: 1.0, lambda x: x),
    "spherical": _Plane(1.0, math.sin, math.cos, _asin),
    "hyperbolic": _Plane(-1.0, math.sinh, math.cosh, math.asinh),
}
_FLAT, _SPHERE, _HYPER = _PLANES.values()

GEOMETRIES = tuple(_PLANES)


def _roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a t^2 + 2 b t + c, ascending (one when a = 0), each
    from the form that does not cancel."""
    disc = b * b - a * c
    if disc < 0.0:
        return []
    q = -(b + math.copysign(math.sqrt(disc), b))
    return sorted(([c / q] if q != 0.0 else []) + ([q / a] if a != 0.0 else []))


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


def triangle_from_sides(geometry: str, a: float, b: float, c: float) -> Triangle:
    """Solve a triangle from its side lengths.

    With p the half perimeter and p - a taken as (b + c - a)/2, each angle
    is sin^2(alpha/2) = S(p - b) S(p - c) / (S(b) S(c)), and the area is
    4 G(sqrt(T(p/2) T((p - a)/2) T((p - b)/2) T((p - c)/2))) for T = S/C
    and G the identity on the plane and arctan otherwise (Heron; L'Huilier
    for the spherical excess and the hyperbolic defect). Both keep a small
    or thin triangle, which arccos angles and the angle sum lose to round-off.
    """
    plane = _PLANES.get(geometry)
    if plane is None:
        raise GeometryError(f"unknown geometry {geometry!r}")
    s = (float(a), float(b), float(c))
    if min(s) <= 0.0:
        raise GeometryError("sides must be positive")
    d = tuple(0.5 * (s[k - 2] + s[k - 1] - s[k]) for k in range(3))
    if min(d) <= 0.0:
        raise GeometryError("sides must satisfy the strict triangle inequality")
    if plane.eps > 0.0:
        if max(s) >= PI:
            raise GeometryError("spherical sides must stay below pi")
        if sum(s) >= 2.0 * PI:
            raise GeometryError("spherical perimeter must stay below 2*pi")
    S = plane.S
    angles = tuple(
        2.0 * _asin(math.sqrt(S(d[k - 2]) * S(d[k - 1]) / (S(s[k - 2]) * S(s[k - 1]))))
        for k in range(3)
    )
    r = math.sqrt(math.prod(S(h) / plane.C(h) for h in (0.25 * sum(s), *(0.5 * x for x in d))))
    return Triangle(geometry, s, angles, 4.0 * (math.atan(r) if plane.eps else r))


def isosceles_triangle(geometry: str, base: float, leg: float) -> Triangle:
    """Triangle with the base first: sides (base, leg, leg)."""
    return triangle_from_sides(geometry, base, leg, leg)


def regular_triangle(geometry: str, side: float) -> Triangle:
    return triangle_from_sides(geometry, side, side, side)


def triangle_vertices(tri: Triangle) -> np.ndarray:
    """Vertex coordinates (0, 0, 1), (S(c), 0, C(c)) and (S(b) cos(alpha),
    S(b) sin(alpha), C(b)): sphere unit vectors, hyperboloid points with the
    time coordinate last, or plane points without their last coordinate 1."""
    plane = _PLANES[tri.geometry]
    _, b, c = tri.sides
    alpha = tri.angles[0]
    v = np.array(
        [
            [0.0, 0.0, 1.0],
            [plane.S(c), 0.0, plane.C(c)],
            [plane.S(b) * math.cos(alpha), plane.S(b) * math.sin(alpha), plane.C(b)],
        ]
    )
    return v if plane.eps else v[:, :2]


# ---------------------------------------------------------------------------
# legs of the critical isosceles triangles
# ---------------------------------------------------------------------------


def _leg(plane: _Plane, y: float, lam: float) -> float:
    """Half leg 1/2 S^-1(C(lam) S(y)^2 / sqrt(S(y - lam) S(y + lam))) of the
    tight isosceles triangle on the base 2 y; the product under the root is
    S(y)^2 - S(lam)^2, without its cancellation near y = lam."""
    prod = plane.S(y - lam) * plane.S(y + lam)
    arg = plane.C(lam) * plane.S(y) ** 2 / math.sqrt(prod) if prod > 0.0 else math.inf
    if plane.eps > 0.0 and arg >= 1.0 - 1e-14:
        # the spherical short leg meets pi/4 at both ends of its window
        return PI / 4.0
    return 0.5 * plane.Sinv(arg)


def short_leg_sphere(y: float, lam: float) -> float:
    """Half leg length of the tight spherical isosceles triangle, short branch."""
    if not 0.0 <= lam < PI / 4.0:
        raise GeometryError("need 0 <= lambda < pi/4")
    if math.sin(y) < math.tan(lam) - 1e-12 or y > PI / 2.0 + 1e-12:
        raise GeometryError("need arcsin(tan(lambda)) <= y <= pi/2")
    return _leg(_SPHERE, y, lam)


def long_leg_sphere(y: float, lam: float) -> float:
    """Half leg length of the tight spherical isosceles triangle, long branch."""
    return PI / 2.0 - short_leg_sphere(y, lam)


def leg_hyper(y: float, lam: float) -> float:
    """Half leg length of the tight hyperbolic isosceles triangle."""
    if lam < 0.0 or y <= lam:
        raise GeometryError("need 0 <= lambda < y")
    return _leg(_HYPER, y, lam)


def leg_euclid(y: float, lam: float) -> float:
    """Half leg length of the tight Euclidean isosceles triangle."""
    if lam < 0.0 or y <= lam:
        raise GeometryError("need 0 <= lambda < y")
    return _leg(_FLAT, y, lam)


def _leg_inverse(plane: _Plane, rho: float, lam: float, increasing: bool) -> float:
    """Base half-length y whose leg is rho, where the leg falls to lambda at
    the knee S(y) = sqrt(2) S(lam) or, if increasing, rises from it.

    s = S(y)^2 solves C(lam)^2 s^2 - S(2 rho)^2 s + S(2 rho)^2 S(lam)^2 = 0,
    whose roots are S(2 rho)^2 (1 -+ r) / (2 C(lam)^2) for r^2 = S(2 rho -
    2 lam) S(2 rho + 2 lam) / S(2 rho)^2. The small one is their product
    over the big one, so neither cancels, and nothing is squared past
    S(2 rho). A y that rounds to lambda becomes the next float above it.
    """
    w = plane.S(2.0 * rho)
    r = math.sqrt(plane.S(2.0 * (rho - lam)) / w) * math.sqrt(plane.S(2.0 * (rho + lam)) / w)
    small = 2.0 * plane.S(lam) ** 2 / (1.0 + r)
    if not increasing:
        return max(plane.Sinv(math.sqrt(small)), math.nextafter(lam, math.inf))
    root = w * math.sqrt(0.5 * (1.0 + r)) / plane.C(lam)
    if plane.eps > 0.0:
        # cos^2 y = 1 - root^2 = cos^2(2 rho) / (1 - small), which keeps the
        # small cosine near y = pi/2 that 1 - root^2 cancels away
        return math.atan2(root, math.cos(2.0 * rho) / math.sqrt(1.0 - small))
    return plane.Sinv(root)


def short_leg_sphere_inverse(rho: float, lam: float, increasing: bool = False) -> float:
    """Base half-length whose short leg equals rho.

    The short leg runs from pi/4 down to lambda and back up as y sweeps
    [arcsin(tan(lambda)), arcsin(sqrt(2) sin(lambda)), pi/2]; the flag picks
    the monotone piece. The answer is a closed-form root, to a few ulps of
    y, and meets the ends arcsin(tan(lambda)) and pi/2 at rho = pi/4.
    """
    if not 0.0 < lam < PI / 4.0:
        raise GeometryError("need 0 < lambda < pi/4")
    if not lam <= rho <= PI / 4.0 + 1e-12:
        raise GeometryError("need lambda <= rho <= pi/4")
    return _leg_inverse(_SPHERE, min(rho, PI / 4.0), lam, increasing)


def leg_hyper_inverse(rho: float, lam: float, increasing: bool = False) -> float:
    """Base half-length whose hyperbolic leg equals rho (two monotone pieces).

    The answer is a closed-form root, to a few ulps of y. On the decreasing
    piece a large rho puts y within a few ulps of lambda, where the leg
    blows up and one ulp of y moves it visibly (lambda = 2.6e-4, rho = 3.9:
    the y returned gives back rho to 2.4e-4); a y that rounds to lambda
    becomes the next float above it.
    """
    if lam <= 0.0:
        raise GeometryError("need lambda > 0")
    if rho < lam:
        raise GeometryError("need rho >= lambda")
    return _leg_inverse(_HYPER, rho, lam, increasing)


def _regular_bases(plane: _Plane, lam: float) -> list[float]:
    """Base half-lengths, ascending, where the tight triangle turns regular:
    the roots s = S(y)^2 >= 0 of 4 eps s^2 - (3 + 5 eps S(lam)^2) s + 4
    S(lam)^2 = 0."""
    if lam < 0.0:
        raise GeometryError("need lambda >= 0")
    sl = plane.S(lam) ** 2
    roots = _roots(4.0 * plane.eps, -0.5 * (3.0 + 5.0 * plane.eps * sl), 4.0 * sl)
    return [plane.Sinv(math.sqrt(s)) for s in roots if s >= 0.0]


def regular_base_sphere(lam: float) -> tuple[float, float] | None:
    """Base half-lengths where the tight spherical triangle turns regular.

    Returns the (small, big) pair, or None when sin(lambda) > 3/5 and the
    defining quadratic has no real root.
    """
    return tuple(_regular_bases(_SPHERE, lam)) or None


def regular_base_hyper(lam: float) -> float:
    """Base half-length where the tight hyperbolic triangle turns regular."""
    return _regular_bases(_HYPER, lam)[-1]


# ---------------------------------------------------------------------------
# density of three vertex disks inside a triangle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleDensity:
    value: float
    triangle: Triangle
    rho: float


class _Model:
    """A plane of constant curvature eps in R^3 with the form <x, y> = x1 y1
    + x2 y2 + eps x3 y3: the Euclidean plane lifted to z = 1 (eps = 0), the
    unit sphere (eps = 1) or the hyperboloid <x, x> = -1 (eps = -1). Its
    geodesics are planes through the origin, and <p - w, p - w> grows with
    the distance from p to w: at distance rho it is 4 S(rho/2)^2, twice
    sector, the area of the disk's sector per radian."""

    def __init__(self, geometry: str, rho: float):
        plane = _PLANES[geometry]
        self.eps = plane.eps
        self.metric = np.array([1.0, 1.0, self.eps])
        self.sector = 2.0 * plane.S(0.5 * rho) ** 2

    def dot(self, p, q) -> float:
        return float(p @ (self.metric * q))

    def unit(self, p):
        return p / math.sqrt(self.eps * self.dot(p, p)) if self.eps else p

    def nearer(self, p, w, v) -> float:
        """Linear in p, and positive where p is nearer to w than to v. The
        plane's last term is left out on the curved planes, where <w, w> =
        <v, v> = eps: there it holds only the round-off of <v, v>, about
        7e-11 at distance 7 on the hyperboloid, which moves the bisector."""
        if self.eps:
            return self.dot(p, w - v)
        return self.dot(p, w - v) - 0.5 * (self.dot(w, w) - self.dot(v, v)) * p[2]

    def within(self, w, p) -> bool:
        return self.dot(p - w, p - w) <= 2.0 * self.sector

    def crossings(self, w, a, b) -> list[float]:
        """Where the point at a + t (b - a) is at distance rho from w. On the
        curved planes that is <p, w>^2 = kappa^2 eps <p, p> for kappa = eps -
        sector, squared, so a root may also be where <p, w> = -kappa."""
        d, e = b - a, a - w
        if not self.eps:
            roots = _roots(self.dot(d, d), self.dot(e, d), self.dot(e, e) - 2.0 * self.sector)
        else:
            k2 = self.eps * (self.eps - self.sector) ** 2
            aw, dw = self.dot(a, w), self.dot(d, w)
            roots = _roots(dw * dw - k2 * self.dot(d, d), aw * dw - k2 * self.dot(a, d),
                           aw * aw - k2 * self.dot(a, a))
        return [t for t in roots if 0.0 < t < 1.0]

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
    and its sector at w outside it. Each cell is summed with its vertex at
    the apex (0, 0, 1), where the hyperboloid's coordinates are smallest:
    a vertex at distance 7 has coordinates near 550, which cost the angles
    of its pieces up to 7e-11 of their value.
    """
    if rho <= 0.0:
        raise GeometryError("need rho > 0")
    geo = _Model(tri.geometry, rho)
    covered = total = 0.0
    for k in range(3):
        turned = (t[k:] + t[:k] for t in (tri.sides, tri.angles))
        v = triangle_vertices(Triangle(tri.geometry, *turned, tri.area))
        cell = list(np.c_[v, np.ones(3)] if v.shape[1] == 2 else v)
        w = cell[0]
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

    provenance: ClassVar[dict] = {"method": "voronoi-fan", "exact": True}


def density_bound_euclid(lam: float) -> DensityBound:
    """Largest density of lambda-separable packings of unit disks.

    pi/sqrt(12) up to lambda = sqrt(3)/2 (hexagonal extremal packing), then
    pi/(4 lambda) with a squeezed isosceles extremal triangle: legs 2 on the
    base 2 y whose tight leg is 1, on the piece where the leg falls.
    """
    if not 0.0 <= lam <= 1.0:
        raise GeometryError("need 0 <= lambda <= 1")
    if lam <= math.sqrt(3.0) / 2.0:
        tri = regular_triangle("euclidean", 2.0)
        return DensityBound(PI / math.sqrt(12.0), "regular", triangle_disk_density(tri, 1.0), 1.0, lam)
    y = _leg_inverse(_FLAT, 1.0, lam, False)
    tri = isosceles_triangle("euclidean", 2.0 * y, 2.0)
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
    small, big = regular_base_sphere(lam) or (None, None)
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


# the fan's hyperboloid coordinates grow like cosh(2 rho), and its error with
# them: against the sector closed form it is 5e-10 at rho = 8 and 2e-9 at 9
_HYPER_RHO_MAX = 8.0


def density_bound_hyper(rho: float, lam: float) -> DensityBound:
    """Upper density bound for lambda-separable packings of hyperbolic disks.

    Refused past rho = 8, where the fan of triangle_disk_density can no
    longer hold the bound to 1e-9."""
    if rho <= 0.0:
        raise GeometryError("need rho > 0")
    if rho > _HYPER_RHO_MAX:
        raise GeometryError(f"need rho <= {_HYPER_RHO_MAX:g}: beyond it the density loses 1e-9 to round-off")
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
