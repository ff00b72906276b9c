"""Covering bounds for non-separable families of homothets.

Weighted-centroid covers for symmetric bodies, exact minimal covering
homothets, the three-triangle family beating ratio 1, facet-parallel simplex
covers, and the Hadwiger perimeter, diameter, and circumradius bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import _box_tol, _project, collapse, sweep
from .bodies import (
    EPS,
    ConvexBody,
    GeometryError,
    HomothetFamily,
    _derived,
    _require_planar,
    polygon_facets,
)
from .measures import (
    enclosing_disk_of_disks,
    hull_circumradius,
    hull_diameter,
    hull_perimeter,
    perimeter,
)

SQRT3 = math.sqrt(3.0)
_HULL_SLACK = 1e-6  # round-off allowed in the Hadwiger hull bounds; tol is for the NS test


@dataclass(frozen=True)
class CoverHomothet:
    """A covering homothet center + ratio*K with containment diagnostics."""

    center: np.ndarray
    ratio: float
    normalized: float
    method: str
    contains_all: bool
    violation: float

    @property
    def provenance(self) -> dict:
        return {"method": self.method, "exact": True}


def _containment_violation(family: HomothetFamily, center, ratio: float) -> float:
    """Largest signed protrusion of a member outside center + ratio*K, exact.

    For a polygon K every member is tested against every facet in one pass."""
    k, centers, ratios = family.reference, family.centers, family.ratios
    if k.kind == "disk":
        mem_c = centers + ratios[:, None] * k.center
        cov_c = center + ratio * k.center
        d = np.linalg.norm(mem_c - cov_c, axis=1)
        return float((d + ratios * k.radius - ratio * k.radius).max())
    normals, offsets = polygon_facets(k)
    lhs = centers @ normals.T + ratios[:, None] * offsets
    return float((lhs - (normals @ center + ratio * offsets)).max())


def _cover(family: HomothetFamily, center, ratio: float, normalized: float, method: str,
           tol: float) -> CoverHomothet:
    """The cover center + ratio*K and its violation, the largest protrusion
    of a member. It contains every member when the violation is at most
    _family_tol."""
    viol = _containment_violation(family, center, ratio)
    return CoverHomothet(center, ratio, normalized, method, bool(viol <= _family_tol(family, tol)), viol)


def _family_tol(family: HomothetFamily, tol: float) -> float:
    """_box_tol of the family: tol times min(1, extent of the family) plus
    the round-off of the family's largest coordinate."""
    lo_k, hi_k = _derived(family.reference, "_bounding_box", _bounding_box)
    c, tau = family.centers, family.ratios[:, None]
    return _box_tol((c + tau * lo_k).min(axis=0), (c + tau * hi_k).max(axis=0), tol)


def _bounding_box(k: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corner of the bounding box of K."""
    return k.points.min(axis=0) - k.radius, k.points.max(axis=0) + k.radius


def goodman_goodman_cover(family: HomothetFamily, tol: float = EPS) -> CoverHomothet:
    """Cover at the ratio-weighted center with ratio sum(tau).

    For an origin-symmetric reference this covers every non-separable family
    of positive homothets; containment is validated exactly and reported.
    """
    k = family.reference
    _require_planar([k], "goodman_goodman_cover")
    if not k.is_origin_symmetric(1e-9):
        raise GeometryError("weighted-centroid cover requires an o-symmetric reference")
    ratios = family.ratios
    total = float(ratios.sum())
    x = (ratios[:, None] * family.centers).sum(axis=0) / total
    return _cover(family, x, total, 1.0, "weighted-centroid", tol)


def min_cover_ratio(family: HomothetFamily, tol: float = EPS) -> CoverHomothet:
    """Smallest ratio homothet of the reference covering the whole family.

    For a polygon reference, t + mu K covers member x + tau K exactly when
    n . t + mu h_K(n) >= n . x + tau h_K(n) on every facet normal n of K:
    the cover's facet lines, moving in as mu falls, must stay outside the
    members. The least mu is where those lines collapse to a point or a
    segment (_kernels.collapse), found exactly in O(k log k) for k facets.
    Disk references reduce to the exact smallest disk enclosing the member
    disks.
    """
    k = family.reference
    _require_planar([k], "min_cover_ratio")
    k.require_full_dimensional("min_cover_ratio")
    centers, ratios = family.centers, family.ratios
    total = float(ratios.sum())

    if k.kind == "disk":
        mem_c = centers + ratios[:, None] * k.center
        c_star, r_star = enclosing_disk_of_disks(mem_c, ratios * k.radius)
        mu = r_star / k.radius
        t = c_star - mu * k.center
        return _cover(family, t, float(mu), float(mu / total), "enclosing-disk", tol)

    # about the vertex mean g of K and the mean o of the members' copies of
    # g, which keeps the collapse well scaled: t' + mu (K - g) covers member
    # c + tau K when -n . t' <= mu h - n . (c + tau g - o) - tau h on every
    # facet, h = h_K(n) - n . g > 0; the least such mu is -lam of the collapse
    g = k.vertices.mean(axis=0)
    normals, _ = polygon_facets(k)
    h = np.einsum("ij,ij->i", normals, k.vertices - g)
    # the copies of g less o, summed so that nothing large cancels
    c_mean, tau_mean = centers.mean(axis=0), ratios.mean()
    anchors = centers - c_mean + (ratios - tau_mean)[:, None] * g
    o = c_mean + tau_mean * g
    need = (anchors @ normals.T + ratios[:, None] * h).max(axis=0)
    lam, x = collapse(-normals, -need, h)
    mu = -lam
    t = o + x - mu * g
    return _cover(family, t, mu, mu / total, "facet-vertices", tol)


def build_triangle_counterexample(n: int = 3) -> HomothetFamily:
    """Three unit triangles on the sides of a side 2 + 2/sqrt(3) triangle.

    The hull of any two members touches the third, so the family is
    non-separable, yet the smallest covering homothet has normalized ratio
    2/3 + 2/(3 sqrt(3)) > 1. For n > 3, tiny members near the incenter keep
    both properties.
    """
    if n < 3:
        raise GeometryError("the construction needs at least 3 members")
    big = 2.0 + 2.0 / SQRT3
    a = 2.0 / 3.0 + 1.0 / SQRT3
    k = ConvexBody.polygon([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    corner_b = np.array([big, 0.0])
    corner_c = np.array([big / 2.0, big * SQRT3 / 2.0])
    dir_bc = np.array([-0.5, SQRT3 / 2.0])
    dir_ca = np.array([-0.5, -SQRT3 / 2.0])
    centers = [
        np.array([a, 0.0]),
        corner_b + a * dir_bc - np.array([1.0, 0.0]),
        corner_c + a * dir_ca - np.array([0.5, SQRT3 / 2.0]),
    ]
    ratios = [1.0, 1.0, 1.0]
    inc = np.array([big / 2.0, big / (2.0 * SQRT3)])  # incenter of the big triangle
    for m in range(n - 3):
        ang = 2.0 * math.pi * m / max(n - 3, 1)
        centers.append(inc + 0.05 * np.array([math.cos(ang), math.sin(ang)]))
        ratios.append(1e-3)
    return HomothetFamily(k, np.array(centers), np.array(ratios))


@dataclass(frozen=True)
class HadwigerReport:
    """Hull per/diam/R against the member sums for a non-separable system."""

    perimeter_hull: float
    perimeter_sum: float
    diameter_hull: float
    diameter_sum: float
    circumradius_hull: float
    circumradius_sum: float
    holds: bool

    def slacks(self) -> tuple[float, float, float]:
        return (
            self.perimeter_sum - self.perimeter_hull,
            self.diameter_sum - self.diameter_hull,
            self.circumradius_sum - self.circumradius_hull,
        )


def hadwiger_check(family, tol: float = EPS) -> HadwigerReport:
    """Compare hull perimeter, diameter, and circumradius with member sums.

    The family must be planar and non-separable, otherwise the bounds do
    not apply and this raises. All three hull measures are exact.
    """
    # the covers read no separability, so only this check loads it
    from .separability import is_non_separable

    homothets = isinstance(family, HomothetFamily)
    bodies = family.bodies() if homothets else list(family)
    _require_planar(bodies, "hadwiger_check")
    if not is_non_separable(family if homothets else bodies, tol=tol).non_separable:
        raise GeometryError("family is separable, the hull bounds need a non-separable system")
    per_sum = sum(perimeter(b) for b in bodies)
    diam_sum = sum(hull_diameter([b]) for b in bodies)
    r_sum = sum(hull_circumradius([b])[1] for b in bodies)
    per_hull, diam_hull = hull_perimeter(bodies), hull_diameter(bodies)
    r_hull = hull_circumradius(bodies)[1]
    holds = min(per_sum - per_hull, diam_sum - diam_hull, r_sum - r_hull) >= -_HULL_SLACK
    return HadwigerReport(per_hull, per_sum, diam_hull, diam_sum, r_hull, r_sum, holds)


@dataclass(frozen=True)
class FacetParallelReport:
    facet_gaps: tuple[float, ...]
    condition_holds: bool
    cover: CoverHomothet
    bound: float
    within_bound: bool


def facet_parallel_cover_check(family: HomothetFamily, tol: float = EPS) -> FacetParallelReport:
    """Check the facet-parallel covering bound for simplex homothets.

    Hypothesis: every hyperplane parallel to a facet of the reference simplex
    that meets the hull of the family meets a member. Per facet normal this
    is a gap check on the projection intervals. Under the hypothesis the
    minimal cover has normalized ratio at most (d + 1) / 2.
    """
    k = family.reference
    d = k.dim
    if k.kind != "polygon" or len(k.vertices) != d + 1:
        raise GeometryError("reference must be a simplex")
    normals, _ = polygon_facets(k)
    pts = family.centers[:, None, :] + family.ratios[:, None, None] * k.vertices
    lo, hi = _project(normals, pts, np.zeros(len(pts)))
    gaps = sweep(lo, hi)[1].max(axis=1).tolist() if len(pts) > 1 else [-math.inf] * len(normals)
    condition = max(gaps) <= _family_tol(family, tol)
    cover = min_cover_ratio(family, tol)
    bound = (d + 1) / 2.0
    return FacetParallelReport(
        facet_gaps=tuple(gaps),
        condition_holds=condition,
        cover=cover,
        bound=bound,
        within_bound=cover.normalized <= bound + tol,
    )
