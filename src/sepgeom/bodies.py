"""Convex body primitives: disks, convex polygons, polytopes, homothets.

Bodies are immutable value objects. All operations are pure functions; the
default absolute tolerance is EPS = 1e-9 unless an operation states its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._errors import GeometryError
from ._kernels import distinct

EPS = 1e-9
# first-order error of a cross product of differences of rounded
# coordinates, per unit of largest |coordinate| times extent
_ROUNDING = 4.0 * float(np.finfo(float).eps)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


def _derived(body: "ConvexBody", name: str, build):
    """build(body), computed on the first call for name and kept in the
    body's __dict__ under name. A body is frozen and its arrays are
    read-only, so a value derived from the body alone stays valid for the
    body's life. Arrays in the value, alone or in a tuple, are made
    read-only, so no caller can change what the next one reads."""
    value = body.__dict__.get(name)
    if value is None:
        value = build(body)
        for a in value if isinstance(value, tuple) else (value,):
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        body.__dict__[name] = value
    return value


def _finite(a, what: str) -> np.ndarray:
    """a as a float array; NaN or infinite entries are rejected."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise GeometryError(f"{what} must be finite")
    return a


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = float(np.linalg.norm(v))
    if n <= 1e-300:
        raise GeometryError("degenerate direction")
    return v / n


def perp(v) -> np.ndarray:
    """Rotate a planar vector by +90 degrees."""
    return np.array([-v[1], v[0]], dtype=float)


def _strict_hull(points: np.ndarray) -> np.ndarray:
    """CCW convex hull with collinear points dropped (monotone chain).

    Each orientation is measured from a point of the chain, never from the
    origin. A turn counts only above 1e-12 times the squared extent of the
    points about the first of them, and above the error that rounding
    coordinates of their magnitude can put into it, so a polygon keeps its
    vertices when it is scaled or moved, and points that are collinear up to
    that rounding are dropped wherever they lie.
    """
    pts = distinct(np.asarray(points, dtype=float))  # sorted by x, then y
    if len(pts) < 3:
        return pts
    scale = float(np.abs(pts - pts[0]).max())
    size = float(np.abs(pts).max())
    t = scale * (1e-12 * scale + _ROUNDING * size)

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= t:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


@dataclass(frozen=True, eq=False)
class ConvexBody:
    """A convex body: planar disk, strictly convex CCW polygon, polytope,
    or degenerate segment. Every kind is the hull of its feature points
    grown by its radius (points, radius), which is 0 but for a disk.

    Degenerate bodies are only accepted by support evaluation, area and
    perimeter; everything else rejects them.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float = 0.0
    vertices: np.ndarray | None = None

    @staticmethod
    def disk(center, radius: float) -> "ConvexBody":
        center = _freeze(np.atleast_1d(_finite(center, "disk center")))
        if center.shape != (2,):
            raise GeometryError("disk center must be planar")
        if not math.isfinite(radius):
            raise GeometryError("disk radius must be finite")
        if radius <= 0:
            raise GeometryError("disk radius must be positive")
        return ConvexBody(kind="disk", center=center, radius=float(radius))

    @staticmethod
    def polygon(vertices) -> "ConvexBody":
        verts = _finite(vertices, "polygon vertices")
        if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
            raise GeometryError("polygon needs at least 3 planar vertices")
        hull = _strict_hull(verts)
        if len(hull) < 3:
            raise GeometryError("polygon degenerate: vertices collinear")
        if len(hull) != len(distinct(verts)):
            raise GeometryError("polygon not strictly convex: collinear or interior vertex")
        return ConvexBody(kind="polygon", vertices=_freeze(hull))

    @staticmethod
    def polytope(vertices) -> "ConvexBody":
        verts = _finite(vertices, "polytope vertices")
        if verts.ndim != 2 or verts.shape[1] < 3:
            raise GeometryError("polytope needs vertices in dimension >= 3")
        return ConvexBody(kind="polytope", vertices=_freeze(verts))

    @staticmethod
    def segment(a, b) -> "ConvexBody":
        verts = _finite([a, b], "segment endpoints")
        if np.linalg.norm(verts[1] - verts[0]) <= 0:
            raise GeometryError("segment endpoints coincide")
        return ConvexBody(kind="segment", vertices=_freeze(verts))

    # -- basic queries ------------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        """Feature points (k, d), read-only: a disk's center, else the vertices."""
        return self.center[None, :] if self.kind == "disk" else self.vertices

    @property
    def degenerate(self) -> bool:
        """Whether the body is a segment, the one kind not full-dimensional."""
        return self.kind == "segment"

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def require_full_dimensional(self, op: str) -> None:
        if self.degenerate:
            raise GeometryError(f"{op}: not full-dimensional")

    def centroid(self) -> np.ndarray:
        if self.kind == "polygon":
            # shoelace sums about the first vertex: about the origin they cancel
            # for polygons far from it
            v = self.vertices
            x, y = v[:, 0] - v[0, 0], v[:, 1] - v[0, 1]
            xr, yr = np.roll(x, -1), np.roll(y, -1)
            cross = x * yr - xr * y
            a = cross.sum() / 2.0
            cx = ((x + xr) * cross).sum() / (6.0 * a)
            cy = ((y + yr) * cross).sum() / (6.0 * a)
            return v[0] + np.array([cx, cy])
        return self.points.mean(axis=0)

    def translate(self, t) -> "ConvexBody":
        t = np.asarray(t, dtype=float)
        if self.kind == "disk":
            return ConvexBody.disk(self.center + t, self.radius)
        return ConvexBody(kind=self.kind, vertices=_freeze(self.vertices + t))

    def transform(self, matrix, t=None) -> "ConvexBody":
        """Apply x -> M x + t, t the zero vector by default. Disks only admit
        similarities."""
        m = np.asarray(matrix, dtype=float)
        t = np.zeros(self.dim) if t is None else np.asarray(t, dtype=float)
        if self.kind == "disk":
            s2 = np.abs(np.linalg.det(m))
            mtm = m.T @ m
            if not np.allclose(mtm, np.eye(2) * mtm[0, 0], atol=1e-12 * max(1.0, mtm[0, 0])):
                raise GeometryError("disk transform must be a similarity")
            return ConvexBody.disk(m @ self.center + t, self.radius * math.sqrt(s2))
        verts = self.vertices @ m.T + t
        if self.kind == "polygon":
            return ConvexBody.polygon(verts)
        return ConvexBody(kind=self.kind, vertices=_freeze(verts))

    def is_origin_symmetric(self, tol: float = EPS) -> bool:
        """Whether the body equals its reflection in the origin: a disk
        centred within tol of it, or vertices -v_i each within 10 tol times
        max(1, largest |coordinate|) of a distinct vertex, matched greedily
        (_symmetry_gap, computed once per body)."""
        if self.kind == "disk":
            return bool(np.linalg.norm(self.center) <= tol * max(1.0, self.radius))
        if self.kind in ("polygon", "segment", "polytope"):
            scale, worst = _derived(self, "_symmetry_gap", _symmetry_gap)
            return bool(worst <= tol * scale * 10)
        return False


def _symmetry_gap(body: ConvexBody) -> tuple[float, float]:
    """max(1, largest |coordinate|) of the body's vertices, and the largest
    distance of the greedy matching of every -v_i, in order, with the
    nearest vertex not matched yet. The matching does not depend on a
    tolerance, so one pass answers is_origin_symmetric for any tol."""
    v = body.vertices
    used, worst = [False] * len(v), 0.0
    # row i of the distances |v_j - (-v_i)|
    for row in np.linalg.norm(v[:, None, :] + v[None, :, :], axis=2).tolist():
        d, j = min((d, j) for j, d in enumerate(row) if not used[j])
        used[j] = True
        if d > worst:
            worst = d
    return max(1.0, float(np.abs(v).max())), worst


# ---------------------------------------------------------------------------
# support arithmetic
# ---------------------------------------------------------------------------


def raw_support(body: ConvexBody, u: np.ndarray) -> float:
    """Support value h(u) = max(points . u) + radius |u| without normalizing
    u (positively homogeneous)."""
    u = np.asarray(u, dtype=float)
    h = (body.points @ u).max()
    # a body with no radius skips the norm, which keeps the sign of a zero
    return float(h + body.radius * np.linalg.norm(u) if body.radius else h)


def support(body: ConvexBody, u) -> float:
    """h_body(u/|u|). Zero directions are rejected."""
    return raw_support(body, unit(u))


def support_batch(body: ConvexBody, dirs: np.ndarray) -> np.ndarray:
    """Support values for an (m, d) array of directions (not normalized)."""
    h = (dirs @ body.points.T).max(axis=1)
    return h + body.radius * np.linalg.norm(dirs, axis=1) if body.radius else h


def _gauges(body: ConvexBody, deltas) -> np.ndarray:
    """Gauges |x|_K of the rows x of an (m, 2) array; the caller has checked
    that K is o-symmetric. Each row is evaluated on its own, so a row's
    gauge does not depend on the other rows."""
    d = np.asarray(deltas, dtype=float)
    if body.dim != 2 or d.shape[1] != 2:
        raise GeometryError("the gauge supports planar bodies only")
    if body.kind == "disk":
        return np.hypot(d[:, 0], d[:, 1]) / body.radius
    normals, offsets = polygon_facets(body)
    vals = (d[:, :1] * normals[:, 0] + d[:, 1:] * normals[:, 1]) / offsets
    return np.maximum(0.0, vals.max(axis=1))


def minkowski_norm(body: ConvexBody, x) -> float:
    """Gauge |x|_K of an o-symmetric body K (unit ball of the induced norm)."""
    if not body.is_origin_symmetric():
        raise GeometryError("norm requires o-symmetric body")
    return float(_gauges(body, np.asarray(x, dtype=float)[None, :])[0])


def _require_planar(bodies, op: str) -> None:
    """Raise unless every body is planar."""
    if any(b.dim != 2 for b in bodies):
        raise GeometryError(f"{op} supports planar bodies only")


def polygon_facets(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """Outward unit edge normals and support offsets h(n) of a polygon.

    The polygon is {x : normals @ x <= offsets} when the origin is interior.
    Both arrays are computed once per body and are read-only.
    """
    if body.kind != "polygon":
        raise GeometryError("facets need a polygon")
    return _derived(body, "_facets", _facets)


def _facets(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    v = body.vertices
    edges = np.roll(v, -1, axis=0) - v
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = np.einsum("ij,ij->i", normals, v)
    return normals, offsets


# ---------------------------------------------------------------------------
# homothets
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Homothet:
    """A positive homothet x + tau * K of a reference body K."""

    center: np.ndarray
    ratio: float
    reference: ConvexBody

    def __post_init__(self):
        object.__setattr__(self, "center", _freeze(np.atleast_1d(self.center)))
        if self.ratio <= 0:
            raise GeometryError("homothety ratio must be positive")

    def as_body(self) -> ConvexBody:
        k = self.reference
        if k.kind == "disk":
            return ConvexBody.disk(self.center + self.ratio * k.center, self.ratio * k.radius)
        # a positive ratio keeps the vertices strictly convex and counter-clockwise
        verts = _freeze(_finite(self.center + self.ratio * k.vertices, "homothet vertices"))
        return ConvexBody(kind=k.kind, vertices=verts)


@dataclass(frozen=True, eq=False)
class HomothetFamily:
    """Finitely many positive homothets x_i + tau_i * K of one reference."""

    reference: ConvexBody
    centers: np.ndarray
    ratios: np.ndarray = field(default=None)

    def __post_init__(self):
        centers = np.atleast_2d(_finite(self.centers, "homothet centers"))
        if centers.ndim != 2 or centers.shape[1] != self.reference.dim:
            raise GeometryError(f"homothet centers must be an (n, {self.reference.dim}) array")
        ratios = (
            np.ones(len(centers))
            if self.ratios is None
            else np.atleast_1d(_finite(self.ratios, "homothety ratios"))
        )
        if len(ratios) != len(centers):
            raise GeometryError("one ratio per center required")
        if (ratios <= 0).any():
            raise GeometryError("homothety ratio must be positive")
        object.__setattr__(self, "centers", _freeze(centers))
        object.__setattr__(self, "ratios", _freeze(ratios))

    def __len__(self) -> int:
        return len(self.centers)

    def member(self, i: int) -> Homothet:
        return Homothet(self.centers[i], float(self.ratios[i]), self.reference)

    def bodies(self) -> list[ConvexBody]:
        return [self.member(i).as_body() for i in range(len(self))]

    def transform(self, matrix, t=None) -> "HomothetFamily":
        """Apply x -> M x + t to every member, t the zero vector by default."""
        m = np.asarray(matrix, dtype=float)
        t = np.zeros(self.reference.dim) if t is None else np.asarray(t, dtype=float)
        return HomothetFamily(
            reference=self.reference.transform(m),
            centers=self.centers @ m.T + t,
            ratios=np.array(self.ratios),
        )


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def body_to_json(body: ConvexBody) -> dict:
    if body.kind == "disk":
        return {"type": "disk", "center": body.center.tolist(), "radius": body.radius}
    if body.kind == "polygon":
        return {"type": "polygon", "vertices": body.vertices.tolist()}
    if body.kind == "segment":
        return {"type": "segment", "vertices": body.vertices.tolist()}
    return {"type": "polytope", "vertices": body.vertices.tolist()}


def body_from_json(obj: dict) -> ConvexBody:
    try:
        kind = obj["type"]
        if kind == "disk":
            return ConvexBody.disk(obj["center"], obj["radius"])
        if kind == "polygon":
            return ConvexBody.polygon(obj["vertices"])
        if kind == "segment":
            return ConvexBody.segment(*obj["vertices"])
        if kind == "polytope":
            return ConvexBody.polytope(obj["vertices"])
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed body object: {exc}") from exc
    raise GeometryError(f"unknown body type {kind!r}")


def family_to_json(family: HomothetFamily) -> dict:
    return {
        "reference": body_to_json(family.reference),
        "members": [
            {"center": c.tolist(), "ratio": float(t)}
            for c, t in zip(family.centers, family.ratios)
        ],
    }


def family_from_json(obj: dict) -> HomothetFamily:
    try:
        ref = body_from_json(obj["reference"])
        centers = [m["center"] for m in obj["members"]]
        ratios = [m.get("ratio", 1.0) for m in obj["members"]]
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed family object: {exc}") from exc
    return HomothetFamily(reference=ref, centers=np.array(centers), ratios=np.array(ratios))
