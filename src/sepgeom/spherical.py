"""Spherical caps and zones: splitting circles, covers, cap packings."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import GeometryError
from ._kernels import fibonacci_sphere, pole_margins

PI = math.pi


def _unit3(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n == 0.0 or v.shape != (3,):
        raise GeometryError("need a nonzero 3-vector")
    out = v / n
    out.setflags(write=False)
    return out


def angular_distance(a, b) -> float:
    """Geodesic distance between two unit vectors."""
    d = float(np.clip(np.asarray(a) @ np.asarray(b), -1.0, 1.0))
    return math.acos(d)


@dataclass(frozen=True)
class Cap:
    """Closed spherical cap of angular radius r about a unit center."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _unit3(self.center))
        if not 0.0 < self.radius < PI:
            raise GeometryError("cap radius must lie in (0, pi)")

    def contains_point(self, x, tol: float = 0.0) -> bool:
        return angular_distance(self.center, x) <= self.radius + tol


@dataclass(frozen=True)
class Zone:
    """Points within angular half_width of the great circle with this pole."""

    pole: np.ndarray
    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "pole", _unit3(self.pole))
        if not 0.0 < self.half_width <= PI / 2.0:
            raise GeometryError("zone half-width must lie in (0, pi/2]")

    @property
    def width(self) -> float:
        return 2.0 * self.half_width

    def contains_point(self, x, tol: float = 0.0) -> bool:
        return abs(float(self.pole @ np.asarray(x))) <= math.sin(self.half_width) + tol


def circle_avoids_cap(pole, cap: Cap, tol: float = 0.0) -> bool:
    """True when the great circle misses the open cap (touching counts)."""
    if cap.radius > PI / 2.0:
        return False
    return abs(float(np.asarray(pole) @ cap.center)) >= math.sin(cap.radius) - tol


def _cap_arrays(caps) -> tuple[np.ndarray, np.ndarray]:
    centers = np.ascontiguousarray([c.center for c in caps], dtype=float)
    radii = np.array([c.radius for c in caps], dtype=float)
    return centers, radii


def _pair_tangent_poles(ci, cj, si: float, sj: float) -> list[np.ndarray]:
    """Poles of great circles tangent to two caps (4 sign patterns)."""
    d = float(ci @ cj)
    cross = np.cross(ci, cj)
    c2 = float(cross @ cross)
    if c2 < 1e-18:
        return []
    out = []
    for ei in (si, -si):
        for ej in (sj, -sj):
            det = 1.0 - d * d
            a = (ei - ej * d) / det
            b = (ej - ei * d) / det
            base = a * ci + b * cj
            t2 = (1.0 - float(base @ base)) / c2
            if t2 < -1e-12:
                continue
            t = math.sqrt(max(t2, 0.0))
            out.append(base + t * cross)
            if t > 1e-12:
                out.append(base - t * cross)
    return out


def _candidate_poles(centers: np.ndarray, sinr: np.ndarray, samples: int) -> np.ndarray:
    pool = [fibonacci_sphere(max(samples, 64))]
    n = len(centers)
    extra = []
    for i in range(n):
        for j in range(i + 1, n):
            extra.extend(_pair_tangent_poles(centers[i], centers[j], sinr[i], sinr[j]))
    if extra:
        e = np.array(extra)
        e /= np.linalg.norm(e, axis=1)[:, None]
        pool.append(e)
    return np.ascontiguousarray(np.vstack(pool))


def _tangent_frame(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.array([1.0, 0.0, 0.0]) if abs(p[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(p, a)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(p, e1)


def _refine_pole(p: np.ndarray, objective) -> np.ndarray:
    """Nelder-Mead polish of a pole on a local tangent chart."""
    from scipy.optimize import minimize

    e1, e2 = _tangent_frame(p)

    def lift(st):
        v = p + st[0] * e1 + st[1] * e2
        return v / np.linalg.norm(v)

    res = minimize(
        lambda st: -objective(lift(st)),
        np.zeros(2),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
    )
    return lift(res.x)


@dataclass(frozen=True)
class SphericalSplitDecision:
    non_separable: bool
    pole: np.ndarray | None
    margin: float
    poles_checked: int
    approximate: bool


def caps_non_separable(caps, samples: int = 10000, tol: float = 1e-9) -> SphericalSplitDecision:
    """Decide whether some great circle misses every cap and splits the family.

    A split pole with positive margin is an exact refutation; the converse
    verdict rests on the sampled pole pool plus tangency candidates and local
    refinement, so it is flagged approximate.
    """
    caps = list(caps)
    if len(caps) < 2:
        raise GeometryError("separation needs at least two caps")
    if any(c.radius >= PI / 2.0 for c in caps):
        # such a cap meets every great circle, so no circle can split
        return SphericalSplitDecision(True, None, -math.inf, 0, False)
    centers, radii = _cap_arrays(caps)
    sinr = np.sin(radii)
    poles = _candidate_poles(centers, sinr, samples)
    margins, split = pole_margins(poles, centers, sinr)
    usable = np.where(split)[0]
    if len(usable):
        k = usable[np.argmax(margins[usable])]

        def objective(u):
            m, s = pole_margins(u[None, :], centers, sinr)
            return m[0] if s[0] else -1.0

        best = _refine_pole(poles[k], objective)
        m, s = pole_margins(best[None, :], centers, sinr)
        if s[0] and m[0] > tol:
            return SphericalSplitDecision(False, best, float(m[0]), len(poles), False)
        if margins[k] > tol:
            return SphericalSplitDecision(
                False, poles[k], float(margins[k]), len(poles), False
            )
    best_split = float(margins[split].max()) if split.any() else -math.inf
    return SphericalSplitDecision(True, None, best_split, len(poles), True)


# ---------------------------------------------------------------------------
# smallest enclosing cap and the total-radius cover bound
# ---------------------------------------------------------------------------


def _slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Point at angle t from a along the arc toward b."""
    d = angular_distance(a, b)
    if d < 1e-15:
        return a
    return (math.sin(d - t) * a + math.sin(t) * b) / math.sin(d)


def _cap_covers_all(u: np.ndarray, r: float, centers, radii, tol: float) -> bool:
    ang = np.arccos(np.clip(centers @ u, -1.0, 1.0))
    return bool((ang + radii <= r + tol).all())


def _triple_cap_roots(ci, cj, ck, ri, rj, rk, r_lo: float) -> list[tuple[np.ndarray, float]]:
    m = np.array([ci, cj, ck])
    if abs(np.linalg.det(m)) < 1e-12:
        return []
    minv = np.linalg.inv(m)
    rr = np.array([ri, rj, rk])

    def g(r):
        u = minv @ np.cos(r - rr)
        return float(u @ u) - 1.0

    from scipy.optimize import brentq

    out = []
    grid = np.linspace(r_lo, PI / 2.0, 128)
    vals = [g(r) for r in grid]
    for a, b, ga, gb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if ga == 0.0:
            root = a
        elif ga * gb < 0.0:
            root = brentq(g, a, b, xtol=1e-14)
        else:
            continue
        u = minv @ np.cos(root - rr)
        nu = float(np.linalg.norm(u))
        if nu > 0.0:
            out.append((u / nu, float(root)))
    return out


def enclosing_cap(caps, tol: float = 1e-9) -> tuple[np.ndarray, float]:
    """Smallest cap containing every given cap (at most three support caps)."""
    caps = list(caps)
    centers, radii = _cap_arrays(caps)
    n = len(caps)
    cands: list[tuple[np.ndarray, float]] = [(centers[i], radii[i]) for i in range(n)]
    max_r = float(radii.max())
    for i in range(n):
        for j in range(i + 1, n):
            d = angular_distance(centers[i], centers[j])
            r = 0.5 * (d + radii[i] + radii[j])
            if r <= max(radii[i], radii[j]) + 1e-15:
                continue
            cands.append((_slerp(centers[i], centers[j], r - radii[i]), r))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                cands.extend(
                    _triple_cap_roots(
                        centers[i], centers[j], centers[k], radii[i], radii[j], radii[k], max_r
                    )
                )
    cands.sort(key=lambda t: t[1])
    for u, r in cands:
        if _cap_covers_all(u, r, centers, radii, tol):
            return np.asarray(u), float(r)
    raise GeometryError("no enclosing cap of radius at most pi/2 was found")


@dataclass(frozen=True)
class CapCoverReport:
    total_radius: float
    center: np.ndarray
    radius: float
    slack: float
    split_check: SphericalSplitDecision

    def holds(self, tol: float = 1e-9) -> bool:
        return self.slack >= -tol


def cap_cover_check(caps, samples: int = 10000, tol: float = 1e-9) -> CapCoverReport:
    """No splitting circle and total radius below pi/2 force a small cover.

    The family must then fit in a single cap whose radius is at most the sum
    of the radii.
    """
    caps = list(caps)
    dec = caps_non_separable(caps, samples=samples, tol=tol)
    if not dec.non_separable:
        raise GeometryError("a great circle splits the caps; the cover bound needs none")
    total = float(sum(c.radius for c in caps))
    if total >= PI / 2.0:
        raise GeometryError("the cover bound needs total radius below pi/2")
    center, radius = enclosing_cap(caps, tol)
    return CapCoverReport(total, center, radius, total - radius, dec)


@dataclass(frozen=True)
class ZoneCoverReport:
    total_width: float
    covers: bool
    witness: np.ndarray | None
    slack: float
    samples: int

    def holds(self, tol: float = 1e-9) -> bool:
        return (not self.covers) or self.slack >= -tol


def zones_cover_check(zones, samples: int = 200000) -> ZoneCoverReport:
    """Zones that cover the sphere have total width at least pi.

    Coverage is tested on a Fibonacci sample, so a positive covers verdict is
    approximate; the width sum itself is exact.
    """
    zones = list(zones)
    if not zones:
        raise GeometryError("need at least one zone")
    pts = fibonacci_sphere(samples)
    uncovered = np.ones(len(pts), dtype=bool)
    for z in zones:
        uncovered &= np.abs(pts @ z.pole) > math.sin(z.half_width)
        if not uncovered.any():
            break
    covers = not uncovered.any()
    witness = None if covers else pts[int(np.argmax(uncovered))]
    total = float(sum(z.width for z in zones))
    return ZoneCoverReport(total, covers, witness, total - PI, samples)


# ---------------------------------------------------------------------------
# totally separable cap packings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CapTSResult:
    is_ts: bool
    certificates: dict
    unresolved: tuple
    refuted: tuple
    poles_checked: int


def is_ts_cap_packing(caps, samples: int = 20000, tol: float = 1e-9) -> CapTSResult:
    """Hunt a separating great circle for every pair of caps.

    Tangency poles plus a Fibonacci pool plus local refinement resolve every
    pair in the packings built here. For a tangent pair the separator is
    forced through the touching point, so its failure refutes total
    separability outright; any other pair left unresolved refutes at the
    pool resolution only.
    """
    caps = list(caps)
    centers, radii = _cap_arrays(caps)
    n = len(caps)
    i, j = np.triu_indices(n, 1)
    ang = np.arccos(np.clip(np.einsum("ij,ij->i", centers[i], centers[j]), -1.0, 1.0))
    overlap = np.flatnonzero(ang < radii[i] + radii[j] - tol)
    if len(overlap):
        k = overlap[0]
        raise GeometryError(f"not a packing: caps {i[k]} and {j[k]} overlap")
    if n == 1:
        return CapTSResult(True, {}, (), (), 0)
    sinr = np.sin(radii)
    poles = _candidate_poles(centers, sinr, samples)
    dots = poles @ centers.T
    avoid_all = (np.abs(dots) >= sinr[None, :] - tol).all(axis=1)

    certificates = {}
    unresolved = []
    refuted = []
    for i in range(n):
        for j in range(i + 1, n):
            plus = avoid_all & (dots[:, i] >= sinr[i] - tol) & (dots[:, j] <= -(sinr[j] - tol))
            minus = avoid_all & (dots[:, j] >= sinr[j] - tol) & (dots[:, i] <= -(sinr[i] - tol))
            rows = np.where(plus | minus)[0]
            if len(rows):
                score = np.abs(dots[rows][:, [i, j]]) - sinr[[i, j]]
                k = rows[int(np.argmax(np.minimum(score[:, 0], score[:, 1])))]
                pole = poles[k] if dots[k, i] > 0 else -poles[k]
                certificates[(i, j)] = pole
                continue

            def objective(u, i=i, j=j):
                d = centers @ u
                others = np.abs(d) - sinr
                others[i] = d[i] - sinr[i]
                others[j] = -d[j] - sinr[j]
                return float(others.min())

            seed_scores = np.minimum(
                dots[:, i] - sinr[i], -(dots[:, j] + sinr[j])
            )
            seed = poles[int(np.argmax(seed_scores))]
            best = _refine_pole(seed, objective)
            if objective(best) >= -tol:
                certificates[(i, j)] = best
                continue
            flipped = _refine_pole(-seed, objective)
            if objective(flipped) >= -tol:
                certificates[(i, j)] = flipped
                continue
            gap = angular_distance(centers[i], centers[j]) - (radii[i] + radii[j])
            if gap <= tol:
                # tangent pair: the only separator is the common tangent
                # circle at the touching point, so check it and conclude
                forced = [_unit3(p) for p in _pair_tangent_poles(
                    centers[i], centers[j], sinr[i], sinr[j]
                )]
                if forced and max(
                    objective(s * p) for p in forced for s in (1.0, -1.0)
                ) < -tol:
                    refuted.append((i, j))
                    continue
            unresolved.append((i, j))
    return CapTSResult(
        not unresolved and not refuted,
        certificates,
        tuple(unresolved),
        tuple(refuted),
        len(poles),
    )


# ---------------------------------------------------------------------------
# the two optimal cap packings and the separable Tammes table
# ---------------------------------------------------------------------------


def octahedral_packing() -> list[Cap]:
    """Eight caps inscribed in the octants cut by three orthogonal circles."""
    r = math.asin(1.0 / math.sqrt(3.0))
    caps = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                caps.append(Cap(np.array([sx, sy, sz]) / math.sqrt(3.0), r))
    return caps


def cuboctahedral_packing() -> list[Cap]:
    """Six caps inscribed in the isosceles triangles cut by the side circles
    of a regular spherical triangle with side arccos(1/4)."""
    ct = math.sqrt(0.5)
    st = math.sqrt(0.5)
    verts = np.array(
        [
            [st * math.cos(2.0 * PI * k / 3.0), st * math.sin(2.0 * PI * k / 3.0), ct]
            for k in range(3)
        ]
    )
    poles = np.array(
        [np.cross(verts[(k + 1) % 3], verts[(k + 2) % 3]) for k in range(3)]
    )
    poles /= np.linalg.norm(poles, axis=1)[:, None]
    caps = []
    for signs in (
        (1, 1, -1),
        (1, -1, 1),
        (-1, 1, 1),
        (-1, -1, 1),
        (-1, 1, -1),
        (1, -1, -1),
    ):
        m = poles * np.array(signs, dtype=float)[:, None]
        u = np.linalg.solve(m, np.ones(3))
        sinr = 1.0 / float(np.linalg.norm(u))
        caps.append(Cap(u * sinr, math.asin(sinr)))
    return caps


@dataclass(frozen=True)
class TammesEntry:
    k: int
    radius: float | None
    exact: bool
    lower: float
    upper: float
    note: str


_TAMMES_EXACT = {
    2: PI / 2.0,
    3: PI / 4.0,
    4: PI / 4.0,
    5: math.atan(0.75),
    6: math.atan(0.75),
    7: math.asin(1.0 / math.sqrt(3.0)),
    8: math.asin(1.0 / math.sqrt(3.0)),
}


def separable_tammes(k: int) -> TammesEntry:
    """Largest radius of k caps in a totally separable packing.

    Known exactly through k = 8 (pairs share values: an odd k matches k + 1);
    beyond that only bounds are available and the lower constant 0.793/sqrt(k)
    is asymptotic.
    """
    if k < 2:
        raise ValueError("need k >= 2")
    if k in _TAMMES_EXACT:
        r = _TAMMES_EXACT[k]
        return TammesEntry(k, r, True, r, r, "exact")
    upper = math.acos(1.0 / (math.sqrt(2.0) * math.sin(k / (k - 2.0) * PI / 4.0)))
    lower = 0.793 / math.sqrt(k)
    return TammesEntry(
        k, None, False, lower, upper, "lower bound asymptotic, valid for large k"
    )
