"""Separation tests for families and packings of convex bodies.

Decides strict separation of two families, non-separability of a family of
homothets, successively non-separable orderings, and the totally separable,
locally separable, and rho-separable hierarchy for packings.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ._kernels import (
    _BLOCK,
    _MACHINE_EPS,
    _ROUND_OFF,
    TWO_PI,
    _box_tol,
    _cells,
    _inward_rays,
    _member_features,
    _project,
    distinct,
    fibonacci_sphere,
    gap_profile,
    sweep,
)
from .bodies import (
    EPS,
    ConvexBody,
    GeometryError,
    HomothetFamily,
    _derived,
    _finite,
    _freeze,
    _gauges,
    _require_planar,
    _strict_hull,
    perp,
    polygon_facets,
    raw_support,
    unit,
)

_SAMPLES = 4096  # sphere points of the sampled d = 3 searches by default


@dataclass(frozen=True)
class Hyperplane:
    """Oriented line or plane {x : <normal, x> = offset}, unit normal."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        nn = float(np.linalg.norm(n))
        if nn < EPS:
            raise GeometryError("degenerate direction")
        object.__setattr__(self, "normal", n / nn)
        object.__setattr__(self, "offset", float(self.offset) / nn)

    def signed(self, x) -> float:
        return float(np.dot(np.asarray(x, dtype=float), self.normal) - self.offset)


@dataclass(frozen=True)
class SeparationCertificate:
    """Members in left satisfy <n, x> <= offset, members in right >= offset."""

    plane: Hyperplane
    left: tuple[int, ...]
    right: tuple[int, ...]
    margin: float


@dataclass(frozen=True)
class NSDecision:
    non_separable: bool
    witness: SeparationCertificate | None
    directions_checked: int
    approximate: bool

    @property
    def provenance(self) -> dict:
        """The method that decided: exact pair arcs in the plane, else a
        search over the directions_checked sampled and candidate directions."""
        if self.approximate:
            return {"method": "direction-search", "samples": self.directions_checked}
        return {"method": "pair-arc", "exact": True}


@dataclass(frozen=True)
class SNSResult:
    is_sns: bool
    ordering: tuple[int, ...] | None


@dataclass(frozen=True)
class TSResult:
    is_ts: bool
    certificates: Mapping
    unresolved: tuple[tuple[int, int], ...]
    lines_checked: int

    provenance: ClassVar[dict] = {"method": "critical-directions", "exact": True}


@dataclass(frozen=True)
class LSResult:
    is_ls: bool
    failing_members: tuple[int, ...]
    neighborhoods: dict

    provenance: ClassVar[dict] = {"method": "neighbourhood-ts", "exact": True}


@dataclass(frozen=True)
class RhoSeparabilityResult:
    separable: bool
    rho: float
    failing_member: int | None
    neighborhoods: dict

    provenance: ClassVar[dict] = {"method": "neighbourhood-ts", "exact": True}


def _as_bodies(family) -> list[ConvexBody]:
    if isinstance(family, HomothetFamily):
        return family.bodies()
    if isinstance(family, ConvexBody):
        raise GeometryError("expected a sequence of bodies")
    return list(family)


def candidate_directions(family1, family2=None) -> np.ndarray:
    """The distinct unit differences of feature points (disk centers,
    vertices, _member_features) of family2 less those of family1, or of
    family1 with itself: directions that the sampled d = 3 searches try
    besides their sphere points. Margins are often best along some of them,
    but the list does not hold every locally optimal normal.
    """
    f1 = _as_bodies(family1)
    f2 = f1 if family2 is None else _as_bodies(family2)
    pts1, pts2 = (_member_features(f)[0].reshape(-1, f1[0].dim) for f in (f1, f2))
    diffs = (pts2[None, :, :] - pts1[:, None, :]).reshape(-1, pts1.shape[1])
    lens = np.linalg.norm(diffs, axis=1)
    # shorter than the features' round-off, a difference has no direction
    keep = lens > _ROUND_OFF * max(np.abs(pts1).max(), np.abs(pts2).max())
    return distinct(diffs[keep] / lens[keep, None])


def separation_margin(plane: Hyperplane, left_bodies, right_bodies) -> float:
    """Smallest clearance of any member from the plane, on its assigned side."""
    n = plane.normal
    m = math.inf
    for b in _as_bodies(left_bodies):
        m = min(m, plane.offset - raw_support(b, n))
    for b in _as_bodies(right_bodies):
        m = min(m, -raw_support(b, -n) - plane.offset)
    return float(m)


def strictly_separates(plane, left_bodies, right_bodies, tol: float = EPS) -> bool:
    return separation_margin(plane, left_bodies, right_bodies) > tol


def _reference_features(body: ConvexBody) -> tuple[np.ndarray, np.ndarray]:
    """_member_features([body]) of a reference, computed once per body."""
    return _derived(body, "_member_features", lambda b: _member_features([b]))


def _reference_table(body: ConvexBody) -> np.ndarray:
    """_pair_table of a planar reference's feature points, computed once per
    body."""
    return _derived(body, "_pair_table", lambda b: _pair_table(b.points))


def _difference_body(body: ConvexBody) -> ConvexBody:
    """Central symmetral K + (-K) of a planar reference, an o-symmetric body
    at the origin, computed once per body.

    For a polygon it is the hull of the differences v_b - v_a at the rows
    (a, b) of _pair_table only: at most 2k of them, among which are all the
    vertices of K - K, in place of all k^2. Their hull is strictly convex
    already, so ConvexBody.polygon does not take it a second time.
    """
    _require_planar([body], "difference body")
    body.require_full_dimensional("difference body")
    return _derived(body, "_difference_body", _symmetral)


def _symmetral(body: ConvexBody) -> ConvexBody:
    if body.kind == "disk":
        return ConvexBody.disk((0.0, 0.0), 2.0 * body.radius)
    v = body.vertices
    rows = _reference_table(body)
    return ConvexBody(kind="polygon", vertices=_freeze(_strict_hull(v[rows[:, 1]] - v[rows[:, 0]])))


def _scaled_tol(pts: np.ndarray, rad: np.ndarray, tol: float) -> float:
    """_box_tol of the members' union."""
    hi = (pts.max(axis=1) + rad[:, None]).max(axis=0)
    lo = (pts.min(axis=1) - rad[:, None]).min(axis=0)
    return _box_tol(lo, hi, tol)


def _certificates(u, lo, hi, left) -> list[SeparationCertificate]:
    """One line per row of u (c, d), with the members flagged in that row of
    left (c, n) below it and the others above; lo, hi (c, n) are the members'
    intervals along the row. The line runs midway between the top of the
    left side and the bottom of the right side, its margin half their gap.
    """
    top = np.where(left, hi, -np.inf).max(axis=1).tolist()
    bottom = np.where(left, np.inf, lo).min(axis=1).tolist()
    return [
        SeparationCertificate(
            Hyperplane(uk, 0.5 * (tk + bk)), tuple(np.flatnonzero(lk).tolist()),
            tuple(np.flatnonzero(~lk).tolist()), 0.5 * (bk - tk),
        )
        for uk, tk, bk, lk in zip(u, top, bottom, left)
    ]


def _differences(pts, i, j, table=None) -> np.ndarray:
    """Feature differences b - a, a of member i[p] and b of member j[p]:
    row p of the (len(i), k k, d) result runs over (a, b), a-major, or over
    the rows (a, b) of table (_pair_table) only, in its order."""
    k, d = pts.shape[1:]
    if table is not None:
        # one np.take of flat feature rows gathers 1.5-2 times faster than
        # fancy indexing per member and per feature
        flat, i, j = pts.reshape(-1, d), np.asarray(i)[:, None] * k, np.asarray(j)[:, None] * k
        return np.take(flat, j + table[:, 1], axis=0) - np.take(flat, i + table[:, 0], axis=0)
    return (pts[j][:, None, :, :] - pts[i][:, :, None, :]).reshape(len(i), k * k, d)


def _pair_table(ref: np.ndarray) -> np.ndarray:
    """Rows (a, b), a-major, of feature indices of a planar reference with
    features ref (k, 2) such that every vertex of tau' K - tau K, for any
    ratios tau, tau' > 0, is tau' ref[b] - tau ref[a]: at most 2k rows.

    Along u the support point of tau' K - tau K is tau' argmax_K(u) - tau
    argmin_K(u). That pair (argmin, argmax) is constant on each cell of the
    common refinement of the normal fans of K and -K, whose rays are the
    edge normals of K and their opposites, and positive ratios change
    neither fan. One direction inside each cell gives its pair.
    """
    k = len(ref)
    rays = _inward_rays(ref)
    mids = _cells(np.concatenate([rays, rays + math.pi]), TWO_PI)[1]
    proj = np.cos(mids)[:, None] * ref[:, 0] + np.sin(mids)[:, None] * ref[:, 1]
    return np.stack(np.divmod(distinct(proj.argmin(axis=1) * k + proj.argmax(axis=1)), k), axis=1)


def _arcs(p: np.ndarray, rad) -> tuple[np.ndarray, np.ndarray]:
    """Per row of p (m, k, 2), the open arc (lo, hi) of angles of unit u with
    <u, p_i> > rad_i for every i; the arc is empty when lo >= hi.

    Each constraint holds on the arc of half-width acos(rad/|p|) around the
    angle phi of p, so the intersection is (max(phi + asin(rad/|p|)) - pi/2,
    min(phi - asin(rad/|p|)) + pi/2). Every p and the row sum lie within
    pi/2 of a feasible u, so angles unwrapped around the sum's angle are
    consistent whenever the arc is not empty. A constraint with |p| <= rad
    holds nowhere, and its row's arc is lo = hi, not the round-off of
    phi + pi/2 - pi/2 against phi - pi/2 + pi/2.
    """
    norm = np.hypot(p[..., 0], p[..., 1])
    feasible = norm > rad
    ratio = np.ones_like(norm)
    np.divide(rad, norm, out=ratio, where=feasible)
    half = np.arcsin(ratio)
    s = p.sum(axis=1)
    ref = np.arctan2(s[:, 1], s[:, 0])[:, None]
    phi = ref + np.remainder(np.arctan2(p[..., 1], p[..., 0]) - ref + math.pi, TWO_PI) - math.pi
    lo = (phi + half).max(axis=1) - 0.5 * math.pi
    hi = (phi - half).min(axis=1) + 0.5 * math.pi
    return lo, np.where(feasible.all(axis=1), hi, lo)


def _pair_arcs(pts, rad, i, j, thr: float, table=None) -> tuple[np.ndarray, np.ndarray]:
    """Arc (lo, hi) of each member pair (i[p], j[p]), empty when lo >= hi:
    the angles of unit u along which member j[p] lies more than thr above
    member i[p] (_arcs of their _differences, over the rows of table if
    given), in blocks of about _BLOCK feature differences."""
    lo, hi = np.empty(len(i)), np.empty(len(i))
    step = max(1, _BLOCK // (pts.shape[1] ** 2 if table is None else len(table)))
    for s in range(0, len(i), step):
        a, b = i[s : s + step], j[s : s + step]
        lo[s : s + step], hi[s : s + step] = _arcs(_differences(pts, a, b, table), (rad[a] + rad[b] + thr)[:, None])
    return lo, hi


def _meet(lo, width, start) -> tuple[np.ndarray, np.ndarray]:
    """The intersection (lo, hi) of each run of open arcs (lo, lo + width),
    each at most pi wide, run r holding arcs start[r] to start[r + 1] - 1;
    empty when lo >= hi. Arcs that meet at u all start within pi below u,
    so within pi of the run's first: unwrapped about it, they meet on the
    line exactly where they meet on the circle, in one arc."""
    first = np.zeros(len(lo), dtype=int)
    first[start] = start
    first = lo[np.maximum.accumulate(first)]
    lo = first + np.remainder(lo - first + math.pi, TWO_PI) - math.pi
    return np.maximum.reduceat(lo, start), np.minimum.reduceat(lo + width, start)


def _best_angle(p, r, lo: float, hi: float) -> float:
    """The angle t in [lo, hi] where min_q(<u(t), p_q> - r_q) is largest,
    every row positive on the arc (lo, hi), the meet of the rows' pair arcs
    (find_separating_hyperplane).

    There each row is within pi/2 of its peak, the angle of p_q, so the rows
    and their minimum are strictly concave, and the maximum rests on at most
    two rows: at a row's peak, a crossing <u, p_a - p_b> = r_a - r_b, or an
    arc end. An LP-type working set finds it, as in enclosing_disk_of_disks:
    the row lowest at the current angle joins, the new maximum is the best
    of its peak, its crossings with the working rows and the arc ends, and
    the rows active there with the largest and the smallest slope are the
    next set. The value falls from round to round, so only rounding
    can bring a set back; that, or no row below the value by more than
    round-off, ends the loop. The row minimum over every pair is one numpy
    pass; a round's at most seven angles on at most three rows are Python
    floats.
    """
    slack = 4.0 * _MACHINE_EPS * (np.hypot(p[:, 0], p[:, 1]) + np.abs(r))
    theta, work, seen = 0.5 * (lo + hi), [], set()
    while True:
        g = p @ np.array([math.cos(theta), math.sin(theta)]) - r
        k = int(np.argmin(g + slack))
        if not g[k] + slack[k] < min((g[w] for w in work), default=math.inf):
            return theta
        rows = work + [k]
        pts, rad = p[rows].tolist(), r[rows].tolist()
        (xk, yk), rk = pts[-1], rad[-1]
        cross = []  # the crossings <u, p_w - p_k> = r_w - r_k, at psi -+ turn
        for (x, y), rw in zip(pts[:-1], rad):
            size = math.hypot(x - xk, y - yk)
            ratio = (rw - rk) / size if size > 0.0 else 0.0
            cross.append((math.atan2(y - yk, x - xk), math.acos(min(max(ratio, -1.0), 1.0))))
        cand = [math.atan2(yk, xk)] + [a - t for a, t in cross] + [a + t for a, t in cross]
        cand = [c for c in (lo + (c - lo) % TWO_PI for c in cand) if c <= hi] + [lo, hi]
        vals = [[math.cos(c) * x + math.sin(c) * y - rw for (x, y), rw in zip(pts, rad)] for c in cand]
        low = [min(v) for v in vals]
        best = low.index(max(low))
        theta = cand[best]
        # a crossing's angle carries the round-off of arccos, its rows' values a few ulps more
        bound = low[best] + 16.0 * float(slack[rows].max())
        sin, cos = math.sin(theta), math.cos(theta)
        slope = {w: x * -sin + y * cos for (x, y), v, w in zip(pts, vals[best], rows) if v <= bound}
        work = sorted({max(slope, key=slope.get), min(slope, key=slope.get)})
        if tuple(work) in seen:
            return theta
        seen.add(tuple(work))


def _sphere(d: int, samples: int) -> np.ndarray:
    """At least 1024 sphere points (fibonacci_sphere) for the sampled search,
    which applies in dimension 3 only: others raise GeometryError."""
    if d != 3:
        raise GeometryError(f"the sampled search supports dimension 3 only, not {d}")
    return fibonacci_sphere(max(samples, 1024))


def find_separating_hyperplane(
    family1,
    family2,
    tol: float = EPS,
    samples: int = _SAMPLES,
) -> SeparationCertificate | None:
    """Best-margin hyperplane with family1 left of family2, None if margin <= tol.

    tol is scaled by min(1, extent of the two families) (_scaled_tol). In
    the plane the answer is exact: the directions with a gap above 2 tol
    form one arc, the meet (_meet) of the arcs of all member pairs across
    the families (_pair_arcs), and _best_angle finds the best margin on it
    from its critical angles.
    ``samples`` only applies in d = 3, where the search is sampled and None
    means no direction found, not a proof; d >= 4 raises GeometryError.
    """
    f1 = _as_bodies(family1)
    f2 = _as_bodies(family2)
    if not f1 or not f2:
        raise GeometryError("separation needs a member on both sides")
    n1 = len(f1)
    pts, rad = _member_features(f1 + f2)
    thr = 2.0 * _scaled_tol(pts, rad, tol)
    if f1[0].dim == 2:
        i, j = np.repeat(np.arange(n1), len(f2)), np.tile(np.arange(n1, len(pts)), n1)
        lo, hi = _pair_arcs(pts, rad, i, j, thr)
        lo, hi = _meet(lo, hi - lo, [0])
        if not lo[0] < hi[0]:
            return None
        r = np.repeat(rad[i] + rad[j], pts.shape[1] ** 2)
        theta = _best_angle(_differences(pts, i, j).reshape(-1, 2), r, float(lo[0]), float(hi[0]))
        u = np.array([[math.cos(theta), math.sin(theta)]])
    else:
        dirs = np.vstack([candidate_directions(f1, f2), _sphere(f1[0].dim, samples)])
        lo, hi = _project(dirs, pts, rad)
        u = dirs[[int(np.argmax(lo[:, n1:].min(axis=1) - hi[:, :n1].max(axis=1)))]]
    cert = _certificates(u, *_project(u, pts, rad), (np.arange(len(pts)) < n1)[None])[0]
    return cert if 2.0 * cert.margin > thr else None


def _separation_test(bodies, tol: float):
    """Decision-only test "members left strictly separable from members
    right" for index lists into bodies, at the tolerance of the whole, each
    member priced once. In the plane: the arc of every pair a < b
    (_pair_arcs), b above a turned by pi, gathered per test, left member
    first, and met (_meet). In d = 3: every member projected onto the
    directions of is_non_separable, a superset of find_separating_hyperplane's."""
    pts, rad = _member_features(bodies)
    thr = 2.0 * _scaled_tol(pts, rad, tol)
    if pts.shape[2] != 2:
        dirs = np.vstack([_sphere(pts.shape[2], _SAMPLES), candidate_directions(bodies)])
        lo, hi = (np.ascontiguousarray(a.T) for a in _project(dirs, pts, rad))
        return lambda left, right: bool((lo[right].min(axis=0) - hi[left].max(axis=0)).max() > thr)
    n = len(bodies)
    i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
    lo, hi = _pair_arcs(pts, rad, i, j, thr)
    start, width = np.zeros((n, n)), np.zeros((n, n))
    start[i, j], start[j, i] = lo, lo + math.pi
    width[i, j] = width[j, i] = hi - lo

    def planar(left, right) -> bool:
        a, b = np.asarray(left)[:, None], np.asarray(right)
        s_lo, s_hi = _meet(start[a, b].ravel(), width[a, b].ravel(), [0])
        return bool(s_lo[0] < s_hi[0])

    return planar


@dataclass(frozen=True)
class KirchbergerResult:
    separable: bool
    witness: tuple[tuple[int, ...], tuple[int, ...]] | None
    subfamilies_checked: int


def kirchberger_reduce(family1, family2, tol: float = EPS) -> KirchbergerResult:
    """Decide strict separability from subfamilies with at most d + 2 members.

    The two families are strictly separable exactly when every subfamily
    with d + 2 members in total is, so only those are tested; a failing
    subfamily is returned as the witness.
    """
    f1 = _as_bodies(family1)
    f2 = _as_bodies(family2)
    if not f1 or not f2:
        return KirchbergerResult(True, None, 0)
    d = f1[0].dim
    n1, n = len(f1), len(f1) + len(f2)
    separable = _separation_test(f1 + f2, tol)
    checked = 0
    for combo in itertools.combinations(range(n), min(n, d + 2)):
        left = [c for c in combo if c < n1]
        right = [c for c in combo if c >= n1]
        if not left or not right:
            continue  # one-sided subfamilies are separable outright
        checked += 1
        if not separable(left, right):
            return KirchbergerResult(False, (tuple(left), tuple(c - n1 for c in right)), checked)
    return KirchbergerResult(True, None, checked)


# ---------------------------------------------------------------------------
# non-separable families
# ---------------------------------------------------------------------------


def _homothet_features(family: HomothetFamily):
    """_member_features of a planar homothet family, formed from the
    reference as Homothet.as_body forms each member, with no member body;
    and the reference's own features and radius."""
    ref, ref_rad = _reference_features(family.reference)
    centers, ratios = family.centers, family.ratios
    pts = _finite(centers[:, None] + ratios[:, None, None] * ref[0], "homothet vertices")
    rad = ratios * ref_rad[0]
    if family.reference.kind == "disk" and not (rad > 0.0).all():
        raise GeometryError("disk radius must be positive")
    return pts, rad, ref, ref_rad


def _merge(comp: np.ndarray, i, j) -> np.ndarray:
    """comp, each member's label, the smallest member of its component,
    after the edges (i[p], j[p]) join components.

    Min-label propagation with pointer jumping on the components' labels:
    while an edge has ends with different labels, every edge lowers the
    labels of its ends and of their labels' owners to the other end's
    label, and then every label jumps to its owner's until it is its own. A
    label only falls and stays in its component, so the rounds end with
    every component on its smallest member.
    """
    a, b = comp[i], comp[j]
    lab = np.arange(len(comp))
    while True:
        la, lb = lab[a], lab[b]
        if (la == lb).all():
            return lab[comp]
        np.minimum.at(lab, np.concatenate([a, b, la, lb]), np.concatenate([lb, la, lb, la]))
        while not (lab[lab] == lab).all():
            lab = lab[lab]


def _reference_axes(body: ConvexBody) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit axes (m, 2) along which two homothets of a planar polygon or
    segment reference meet exactly when their projections do, and per axis
    the index of a vertex of the reference highest and lowest along it,
    computed once per body: a polygon's edge normals, or a segment's normal
    and its direction."""

    def build(b):
        v = b.vertices
        if b.kind == "segment":
            d = unit(v[1] - v[0])
            axes = np.stack([perp(d), d])
        else:
            axes = polygon_facets(b)[0]
        proj = v @ axes.T
        return axes, proj.argmax(axis=0), proj.argmin(axis=0)

    return _derived(body, "_reference_axes", build)


def _meeting(reference: ConvexBody, pts: np.ndarray, rad: np.ndarray):
    """meets(a, b): whether members a[p] and b[p] of a planar homothet
    family of this reference, with member features pts and radii rad
    (_homothet_features), meet, each pair flagged only when its facet
    values are at most 0 (is_non_separable). Polygons and segments whose
    bounding boxes are apart are not tested further."""
    if reference.kind == "disk":
        x, y = pts[:, 0].T.copy()

        def meets(a, b):
            return np.hypot(x[b] - x[a], y[b] - y[a]) <= rad[a] + rad[b]

        return meets
    (x_lo, y_lo), (x_hi, y_hi) = pts.min(axis=1).T.copy(), pts.max(axis=1).T.copy()
    axes, top, bottom = _reference_axes(reference)
    hi = pts[:, top, 0] * axes[:, 0] + pts[:, top, 1] * axes[:, 1]
    lo = pts[:, bottom, 0] * axes[:, 0] + pts[:, bottom, 1] * axes[:, 1]

    def meets(a, b):
        out = (x_lo[b] <= x_hi[a]) & (x_lo[a] <= x_hi[b]) & (y_lo[b] <= y_hi[a]) & (y_lo[a] <= y_hi[b])
        near = np.flatnonzero(out)
        a, b = a[near], b[near]
        out[near] = ((lo[b] <= hi[a]) & (lo[a] <= hi[b])).all(axis=1)
        return out

    return meets


def is_non_separable(family, samples: int = _SAMPLES, tol: float = EPS) -> NSDecision:
    """Decide whether no hyperplane splits the family while missing every member.

    A family is separable when some hyperplane disjoint from the union has
    members strictly on both sides, with a gap above tol scaled by
    min(1, extent of the family) (_scaled_tol).

    Planar families are decided exactly. Member j lies above member i by a
    gap above tol along the directions of one open arc, at most pi wide
    (_arcs), and i above j along its opposite; a pair whose arc is empty is
    never split. A cut with a gap above tol puts every pair across it above
    one another, so it never crosses a never-split pair: it is a union of
    whole components of the never-split graph. One component means NS, with
    no direction swept. Otherwise, along u component B lies above component
    A exactly on S(A, B), the intersection of the arcs of all pairs across
    them, oriented from A to B: one arc or none (_meet). The cuts along u
    are fixed by which S(A, B) and S(A, B) + pi hold u, which stays
    the same between consecutive ends of the S arcs taken mod pi, and a cut
    holds on an open set, so the gap at the midpoints between those ends
    decides the question; the witness is the cut at the first midpoint
    where the gap is widest, from the sweep that found it.
    ``directions_checked`` is at most c(c - 1) for c components, and 0 when
    every S is empty. The arcs are built, and the directions swept, in
    blocks of about _BLOCK entries; the components grow block by block
    (_merge), and a block prices only its pairs not yet inside one
    component, since no such pair is a cross pair.

    A planar HomothetFamily is priced through its reference K with no
    member body: a pair's arc reads only the vertices of tau_j K - tau_i K
    (_pair_table, at most 2k differences, not k^2), and along u member i
    covers c_i . u + tau_i [lo_K, hi_K], with K projected once. Members
    that meet are never split, and they merge before any arc of their
    block is priced: tau_i K + c_i meets tau_j K + c_j exactly when c_j -
    c_i lies in tau_i K - tau_j K, a polygon whose edge normals are those
    of K and -K, so the members meet exactly when their projections onto
    every edge normal n of K meet (_reference_axes), and those projections
    read h_K(n) and h_K(-n) only. The largest facet value, the largest gap
    between the projections, is below the distance of the members outside
    a vertex of tau_i K - tau_j K, so a pair merges at a facet value of at
    most 0, never at most tol: the facet values carry a few ulps of the
    largest coordinate, under the round-off in tol, and a touching pair
    that they miss merges by its empty arc. Disks meet when their center
    distance is at most their radius sum, compared as the arc compares it,
    since support values along finitely many axes would only test a
    polygon around each disk. For a segment reference tau_i K - tau_j K is
    a segment: its normal alone bounds a strip, so the segment's direction
    is an axis too. A family that the pairs that meet connect is NS with
    no arc priced. A list of bodies has no reference to read supports
    from, and prices every arc.

    ``samples`` only applies in dimension 3, where directions are sampled
    and the decision is flagged approximate; dimension 4 and up raise
    GeometryError (_sphere).
    """
    homothets = isinstance(family, HomothetFamily) and family.reference.dim == 2
    bodies = None if homothets else _as_bodies(family)
    n = len(family if homothets else bodies)
    if n < 2:
        raise GeometryError("non-separability needs at least 2 members")
    if homothets:
        pts, rad, ref, ref_rad = _homothet_features(family)
        # a disk's one feature gives one difference either way
        table = _reference_table(family.reference) if ref.shape[1] > 1 else None
        meets = _meeting(family.reference, pts, rad)
    else:
        pts, rad = _member_features(bodies)
        table = meets = None
    sampled = pts.shape[2] != 2
    if sampled:
        t = _scaled_tol(pts, rad, tol)
        dirs = np.vstack([_sphere(pts.shape[2], samples), candidate_directions(bodies)])
    else:
        t = None
        # the pairs i < j in np.triu_indices order, at a fifth of its cost for small n
        i, j = np.nonzero(np.arange(n)[:, None] < np.arange(n))
        lo, hi = np.empty(len(i)), np.empty(len(i))
        comp = np.arange(n)
        step = max(1, _BLOCK // (pts.shape[1] ** 2 if table is None else len(table)))
        for s in range(0, len(i), step):
            # a pair inside one component so far is never a cross pair: it
            # needs neither the overlap test nor its arc
            q = s + np.flatnonzero(comp[i[s : s + step]] != comp[j[s : s + step]])
            if meets is not None and len(q):
                meet = meets(i[q], j[q])
                if meet.any():
                    comp = _merge(comp, i[q[meet]], j[q[meet]])
                    q = q[comp[i[q]] != comp[j[q]]]
            a, b = i[q], j[q]
            if len(a):
                if t is None:
                    t = _scaled_tol(pts, rad, tol)
                lo[q], hi[q] = _pair_arcs(pts, rad, a, b, t, table)
                never = ~(lo[q] < hi[q])
                if never.any():
                    comp = _merge(comp, a[never], b[never])
        root = comp == np.arange(n)
        c = int(root.sum())
        if c == 1:
            return NSDecision(True, None, 0, False)
        comp = (np.cumsum(root) - 1)[comp]
        # the arcs across components, all priced above, each oriented from the
        # lower label to the higher and met per component pair
        ci, cj = comp[i], comp[j]
        cross = np.flatnonzero(ci != cj)
        flip = ci[cross] > cj[cross]
        key = np.minimum(ci[cross], cj[cross]) * c + np.maximum(ci[cross], cj[cross])
        order = np.argsort(key, kind="stable")
        cross, flip, key = cross[order], flip[order], key[order]
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        s_lo, s_hi = _meet(lo[cross] + math.pi * flip, hi[cross] - lo[cross], np.flatnonzero(new))
        some = s_lo < s_hi
        if not some.any():
            return NSDecision(True, None, 0, False)
        _, mids = _cells(np.concatenate([s_lo[some], s_hi[some]]), math.pi)
        mids = np.remainder(mids + 0.5 * math.pi, math.pi) - 0.5 * math.pi
        dirs = np.stack([np.cos(mids), np.sin(mids)], axis=1)

    def profile(u):
        if not homothets:
            lo, hi = _project(u, pts, rad)
            return (lo, hi) + sweep(lo, hi)
        lo_k, hi_k = _project(u, ref, ref_rad)
        cx, cy = family.centers.T
        return gap_profile(cx, cy, family.ratios, hi_k[:, 0], -lo_k[:, 0], u[:, 0], u[:, 1])

    # the widest gap along each direction, directions in blocks of about
    # _BLOCK intervals; the first direction where it is widest keeps its
    # intervals and sweep for the witness
    widest, best = -math.inf, None
    step = max(1, _BLOCK // n)
    for s in range(0, len(dirs), step):
        lo, hi, order, gaps = profile(dirs[s : s + step])
        row = gaps.max(axis=1)
        k = int(np.argmax(row))
        if row[k] > widest:
            widest, best = float(row[k]), (s + k, lo[k], hi[k], order[k], gaps[k])
    if not widest > t:
        return NSDecision(True, None, len(dirs), sampled)
    k, lo, hi, order, gaps = best
    left = np.zeros((1, n), dtype=bool)
    left[0, order[: int(gaps.argmax()) + 1]] = True
    return NSDecision(False, _certificates(dirs[k : k + 1], lo[None], hi[None], left)[0], len(dirs), sampled)


def is_sns(family, tol: float = EPS) -> SNSResult:
    """Search for an ordering where each member is non-separable from its prefix.

    Greedy extension from every possible first member is complete: a member
    non-separable from a subfamily stays non-separable from any superset, so
    whenever a valid ordering exists the greedy run from its first element
    cannot get stuck.
    """
    bodies = _as_bodies(family)
    n = len(bodies)
    if n == 0:
        raise GeometryError("empty family")
    if n == 1:
        return SNSResult(True, (0,))
    separable = _separation_test(bodies, tol)
    for start in range(n):
        chosen = [start]
        rest = [k for k in range(n) if k != start]
        while rest:
            for pos, j in enumerate(rest):
                if not separable(chosen, [j]):
                    chosen.append(j)
                    rest.pop(pos)
                    break
            else:
                break
        if not rest:
            return SNSResult(True, tuple(chosen))
    return SNSResult(False, None)


# ---------------------------------------------------------------------------
# packings: totally / locally / rho separable
# ---------------------------------------------------------------------------


# the near-pair sweep projects the members onto the two axes and the two
# diagonals: on boxes alone the diagonal neighbours of a square lattice, whose
# boxes meet at a corner, would double the pairs priced
_H = math.sqrt(0.5)
_AXES = np.array([[1.0, 0.0], [0.0, 1.0], [_H, _H], [_H, -_H]])


def _near_pairs(lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Pairs i < j, in np.triu_indices order, whose projections [lo, hi]
    (rows of (n, m) arrays) meet on every column once each is enlarged by tol
    and by the round-off of the coordinates.

    Only such near pairs can overlap or touch: a gap above 2 tol along one
    column is a lower bound on the pair's one-line clearance. One sweep over
    the members sorted by the first column finds, with np.searchsorted, the
    later ones starting before a member ends, and the other columns filter
    them, in blocks of about _BLOCK candidates: O(n log n + candidates).
    """
    n, m = lo.shape
    if n < 2:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    reach = 2.0 * tol + _ROUND_OFF * max(hi.max(), -lo.min())
    order = lo[:, 0].argsort()
    # rows of [lo, -hi] over members in sweep order: two intervals meet when the
    # larger lo plus the larger -hi is at most reach
    box = np.concatenate([lo, -hi], axis=1)[order].T.copy()
    # sweep position p meets positions p + 1 .. p + size[p] on the first column
    size = box[0].searchsorted(reach - box[m], side="right") - np.arange(1, n + 1)
    cum = np.concatenate([[0], size.cumsum()])
    keys, p = [], 0
    while p < n:
        q = max(p + 1, int(cum.searchsorted(cum[p] + _BLOCK, side="right")) - 1)
        a = np.arange(p, q).repeat(size[p:q])
        b = np.arange(1 + cum[p], 1 + cum[q]) + (a - cum[a])
        both = np.maximum(box.take(a, axis=1), box.take(b, axis=1))
        keep = (both[:m] + both[m:] <= reach).all(axis=0)
        oa, ob = order[a[keep]], order[b[keep]]
        keys.append(np.minimum(oa, ob) * n + np.maximum(oa, ob))
        p = q
    key = np.concatenate(keys)
    key.sort()
    return np.divmod(key, n)


def _translate_gauges(reference: ConvexBody, centers: np.ndarray, reach: float, tol: float):
    """The pairs i < j, in np.triu_indices order, of the translates
    reference + c that can lie within translate gauge 2 reach + tol of each
    other, and their translate gauges 2 |c_j - c_i|_D, D = K - K
    (_difference_body): 2 exactly when the two translates touch, above 2
    when they are apart, below 2 when their interiors overlap, which raises
    at 2 - tol. For an o-symmetric K the gauge is |c_j - c_i|_K.

    The pairs are the _near_pairs of the centers' projections onto _AXES,
    each enlarged by D's extents (computed once per body) at reach / 2, so
    every pair at gauge 2 reach + tol or less is among them.
    """
    diff = _difference_body(reference)
    if centers.ndim != 2 or centers.shape[1] != 2:
        raise GeometryError("centers must be an (n, 2) array")
    _finite(centers, "centers")
    h = 0.5 * reach * _derived(diff, "_axis_extents", _axis_extents)
    proj = centers @ _AXES.T
    i, j = _near_pairs(proj - h, proj + h, tol * float(h.max()))
    gauges = 2.0 * _gauges(diff, centers[j] - centers[i])
    _require_disjoint(i, j, gauges < 2.0 - tol)
    return i, j, gauges


def _axis_extents(body: ConvexBody) -> np.ndarray:
    """Largest |<a, x>| over the body, one per row a of _AXES."""
    return np.abs(body.points @ _AXES.T).max(axis=0) + body.radius


def _x_units(shape) -> np.ndarray:
    """Unit directions (1, 0), shape (..., 2): the default where none is defined."""
    out = np.zeros(shape)
    out[..., 0] = 1.0
    return out


def _pair_gaps(feats, i, j, rows=None) -> tuple[np.ndarray, np.ndarray]:
    """One-line clearance of the pairs (i[p], j[p]) of members, with its unit
    direction u: along u member j[p] lies above member i[p] by the
    clearance, which is negative on overlap. feats is _member_features of
    the members.

    Along a unit u the gap is min over feature pairs of <u, b - a> - r_i -
    r_j, and its maximum over u is attained along a vertex b - a of the
    pair's difference body or an edge normal of either member, so only those
    directions and their opposites are evaluated, from one projection onto
    each direction: along -u a member's top is minus its minimum along u.
    The projection runs over (pair, feature, direction), so the max and min
    over features are elementwise passes. The edge normals come from
    the padded feature rows; directions that are not defined (coincident
    features, the zero edges of padding) are set to (1, 0), and any unit
    direction only gives a lower gap. Without rows every feature pair is
    evaluated (k^2 of them). With rows, _pair_table of their reference, the
    members are translates of one body: the vertices of c_j + K - (c_i + K)
    are the differences at the rows only (at most 2k), and member i's edge
    normals are member j's as well.

    The packing checks price the near pairs (_near_pairs) only. Any other
    pair has a positive clearance, so it can neither overlap nor touch, and
    _refine needs no best direction of it.
    """
    pts, rad = feats
    i, j = np.asarray(i, dtype=int), np.asarray(j, dtype=int)
    gaps, dirs = np.empty(len(i)), np.empty((len(i), 2))
    if len(i) == 0:
        return gaps, dirs
    k = pts.shape[1]
    normals = np.empty((len(pts), 0, 2))
    if k > 1:
        edges = np.roll(pts, -1, axis=1) - pts
        normals = np.stack([edges[..., 1], -edges[..., 0]], axis=2)
        length = np.linalg.norm(normals, axis=2, keepdims=True)
        normals = np.divide(normals, length, out=_x_units(normals.shape), where=length > 0.0)
    cands = k * k + 2 * normals.shape[1] if rows is None else len(rows) + normals.shape[1]
    step = max(1, _BLOCK // (2 * cands * k))
    for lo in range(0, len(i), step):
        bi, bj = i[lo : lo + step], j[lo : lo + step]
        p = _differences(pts, bi, bj, rows)
        length = np.hypot(p[..., 0], p[..., 1])[..., None]
        u = np.divide(p, length, out=_x_units(p.shape), where=length > 0.0)
        u = np.concatenate([u, normals[bi]] + ([normals[bj]] if rows is None else []), axis=1)
        # projections (2, pairs, k, candidates) of both members
        proj = pts[np.concatenate([bi, bj])].reshape(2, len(bi), k, 2) @ u.transpose(0, 2, 1)
        most, least = proj.max(axis=2), proj.min(axis=2)
        hi = np.concatenate([most[0], -least[0]], axis=1) + rad[bi, None]
        top = np.concatenate([least[1], -most[1]], axis=1) - rad[bj, None]
        gap = top - hi
        best = np.argmax(gap, axis=1)
        at = np.arange(len(bi))
        gaps[lo : lo + step] = gap[at, best]
        dirs[lo : lo + step] = np.concatenate([u, -u], axis=1)[at, best]
    return gaps, dirs


def _require_disjoint(i, j, overlap: np.ndarray) -> None:
    """Raise naming the first pair (i[p], j[p]) flagged in overlap."""
    if overlap.any():
        p = int(np.argmax(overlap))
        raise GeometryError(f"not a packing: members {i[p]} and {j[p]} overlap")


def _packing_pairs(bodies, tol: float):
    """_member_features of bodies, tol scaled to them (_scaled_tol), and their
    near pairs (i, j) with the _pair_gaps data of each, raising unless there
    is a member and the interiors are disjoint."""
    if len(bodies) == 0:
        raise GeometryError("empty packing")
    _require_planar(bodies, "packing checks")
    feats = _member_features(bodies)
    t = _scaled_tol(*feats, tol)
    proj, rad = feats[0] @ _AXES.T, feats[1][:, None]
    i, j = _near_pairs(proj.min(axis=1) - rad, proj.max(axis=1) + rad, t)
    pairs = (i, j) + _pair_gaps(feats, i, j)
    _require_disjoint(i, j, pairs[2] < -t)
    return feats, t, pairs


def pair_separation(a: ConvexBody, b: ConvexBody) -> float:
    """Largest one-line clearance between two bodies, negative on overlap."""
    _require_planar([a, b], "packing checks")
    return float(_pair_gaps(_member_features([a, b]), [0], [1])[0][0])


def _cuts(u, pts, rad, table, tol: float):
    """Intervals lo, hi, (D, H, m), of the members in each row of table
    along unit directions u (_project), and each member's block, the number
    of free cuts below it: after the first p members by lo, the cut is free
    (a line there misses every interior) when its gap (sweep) is at least
    -tol. Padding (-1) sits at lo = +inf, hi = -inf: last, covering nothing.
    Each member in table is projected once and its intervals gathered into
    the rows it is in. Elementwise, so batch-independent."""
    used = np.zeros(len(pts), dtype=bool)
    used[table] = True  # padding marks the last member, masked below
    lo, hi = _project(u, pts[used], rad[used])
    at = (np.cumsum(used) - 1)[table]
    valid = table >= 0
    lo, hi = np.where(valid, lo[:, at], np.inf), np.where(valid, hi[:, at], -np.inf)
    order, gaps = sweep(lo, hi)
    block = np.zeros_like(order)
    np.cumsum(gaps >= -tol, axis=2, out=block[..., 1:])
    ids = np.empty_like(block)  # back to the order of table
    ids.reshape(-1)[order + np.arange(0, order.size, order.shape[2]).reshape(order.shape[:2] + (1,))] = block
    return lo, hi, ids


def _critical_angles(pts, rad, i, j, best, rows=None) -> np.ndarray:
    """Angles mod pi of the threshold-0 arc ends of the pairs (i, j), the
    members' edge normals and best, and the midpoints between them. With
    rows (_pair_table), the members are translates of one body: a pair's arc
    is that of its difference body's vertices, the differences at the rows,
    and every member has the first one's edge normals (_pair_arcs)."""
    lo, hi = _pair_arcs(pts, rad, i, j, 0.0, rows)
    arc = lo < hi
    members = distinct(np.concatenate([i, j])) if rows is None else i[:1]
    edges = (np.roll(pts, -1, axis=1) - pts)[members].reshape(-1, 2)
    normals = np.arctan2(-edges[:, 0], edges[:, 1])[(edges != 0.0).any(axis=1)]
    ends, mids = _cells(np.concatenate([lo[arc], hi[arc], normals, best]), math.pi)
    return distinct(np.concatenate([ends, np.remainder(mids, math.pi)]))


def _row_pairs(table, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct pairs (i, j), i < j, of the n members that share a row of
    table (padding -1), sorted by i n + j."""
    a, c = np.triu_indices(table.shape[1], 1)
    x, y = table[:, a].ravel(), table[:, c].ravel()
    both = (x >= 0) & (y >= 0)
    x, y = x[both], y[both]
    return np.divmod(distinct(np.minimum(x, y) * n + np.maximum(x, y)), n)


def _refine(feats, table, pairs, tol: float, rows=None):
    """Partition refinement of subfamilies of a packing by member labels over
    critical directions.

    Row h of table lists the members of subfamily h of a packing, padded with
    -1; feats is its _member_features and pairs (i, j, gaps, dirs) some of
    its pairs, sorted by i n + j, with their _pair_gaps. Every pair of a row
    at a clearance of 0 or less must be among them: the near pairs of
    _packing_pairs and of _translate_gauges hold every such pair, since
    their boxes carry the round-off allowance. Two members are split by a
    line missing every interior exactly when the free cuts (_cuts) of some
    direction put them in different blocks. The directions splitting a pair
    form a closed set, at whose ends two members' projections touch: an end
    of a threshold-0 pair arc, the best direction of a touching pair, or an
    edge normal bounding the normal cone of a corner-to-corner contact.
    These and the midpoints between them decide every pair. Only a pair at
    a clearance of 0 or less needs its best direction: its split set can be
    that one direction. A pair at a positive clearance has an open
    threshold-0 arc, whose ends are critical angles and a midpoint between
    which is swept. So the best directions are those of the given pairs
    only.

    Every entry of a row carries a label, at first one per row (and one per
    padding entry). A block of directions relabels the entries of the rows
    not yet settled by the rank of (label, block along each direction of
    the block), one lexicographic sort: two members of a row share a label
    exactly when no direction so far puts them in different blocks. A row
    is settled when its labels are distinct, and the sweep stops once every
    row is. No pair is tracked: besides the labels, a block's intervals take
    O(entries) per direction, and only the directions that split a label
    keep theirs, for the TS certificates.

    The first stage sweeps those best directions and the normal of each
    touching pair's offset (the difference of the two members' first
    feature rows; for translates, the translation between them), the ones
    most of the given pairs give first. Touching members in a row
    along a lattice vector share that normal, and it is the direction of the
    free lines between the rows, so the first stage settles a lattice block,
    where the best direction of a corner-to-corner contact is only the first
    tied candidate and splits nothing. The second stage sweeps the rest of
    the critical directions (_critical_angles) of every pair of the rows
    still unsettled. Any free cut splits its pair, whatever its direction,
    and a pair is left unsplit only after every critical direction, so the
    extra normals keep the check exact; they only change which free cut is
    found first. Directions go in blocks of about _BLOCK entries.

    rows, if given, is the _pair_table of a reference of which the members
    are translates (_critical_angles).

    Returns the rows left unsettled, the final labels (H, m), the number of
    directions swept, and per block the directions that split some label,
    with their intervals and blocks (_cuts, (D, rows, m)) in the rows that
    were unsettled before the block.
    """
    pts, rad = feats
    (n, k), (h, m) = pts.shape[:2], table.shape
    i, j, gaps, dirs = pairs
    best = np.remainder(np.arctan2(dirs[:, 1], dirs[:, 0]), math.pi)
    touch = gaps <= tol
    off = pts[j[touch], 0] - pts[i[touch], 0]
    normals = np.remainder(np.arctan2(off[:, 0], -off[:, 1]), math.pi)
    angles = np.concatenate([best, normals])
    theta = distinct(angles)
    count = np.bincount(theta.searchsorted(angles), minlength=len(theta))
    theta = tried = theta[np.argsort(-count, kind="stable")]
    valid = table >= 0
    lab = np.arange(h)[:, None] * (m + 1) + np.where(valid, 0, np.arange(1, m + 1))
    live = np.flatnonzero(valid.sum(axis=1) > 1)
    swept, cuts = 0, []
    for stage in range(2):
        if stage == 1 and len(live):
            a, b = _row_pairs(table[live], n)
            priced, want = np.append(i * n + j, n * n), a * n + b
            pos = priced.searchsorted(want)
            theta = _critical_angles(pts, rad, a, b, best[pos[priced[pos] == want]], rows)
            theta = theta[~np.isin(theta, tried)]
        while len(theta) and len(live):
            step = max(1, _BLOCK // (len(live) * m * k))
            u = np.empty((len(theta[:step]), 2))
            u[:, 0], u[:, 1] = np.cos(theta[:step]), np.sin(theta[:step])
            lo, hi, ids = _cuts(u, pts, rad, table[live], tol)
            keys = np.concatenate([lab[live][None], ids]).reshape(len(u) + 1, -1)
            order = np.lexsort(keys[::-1])
            # apart[d, q]: key d tells the entries at sorted positions q, q + 1 apart
            apart = np.diff(keys[:, order], axis=1) != 0
            new = np.empty_like(order)
            new[order] = np.concatenate([[0], np.cumsum(apart.any(axis=0))])
            lab[live] = new.reshape(len(live), m)
            split = np.bincount(apart.argmax(axis=0), minlength=len(u) + 1)[1:] > 0
            cuts.append((u[split], lo[split], hi[split], ids[split]))
            settled = (np.bincount(new)[new] == 1).reshape(len(live), m).all(axis=1)
            live, theta, swept = live[~settled], theta[step:], swept + len(u)
    return live, lab, swept, cuts


def _neighbourhoods(n: int, i, j):
    """Rows of each member and its neighbours, padded with -1, and the neighbours
    as a dict of tuples, from the edges (i[p], j[p])."""
    a, b = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((b, a))
    a, b = a[order], b[order]
    deg = np.bincount(a, minlength=n)
    table = np.full((n, 1 + deg.max(initial=0)), -1)
    table[:, 0] = np.arange(n)
    table[a, 1 + np.arange(len(a)) - np.repeat(np.cumsum(deg) - deg, deg)] = b
    nbs, ends = b.tolist(), np.cumsum(deg).tolist()
    hoods = {m: tuple(nbs[e - d : e]) for m, (e, d) in enumerate(zip(ends, deg.tolist()))}
    return table, hoods


def _label_pairs(label):
    """The pairs (i, j), i < j, in np.triu_indices order, of members whose
    labels are equal."""
    for i in range(len(label) - 1):
        j = np.flatnonzero(label[i + 1 :] == label[i]) + (i + 1)
        yield from zip(itertools.repeat(i), j.tolist())


class _PairLines(Mapping):
    """The certificates of a TS check: (i, j) -> SeparationCertificate for
    every split pair i < j, in np.triu_indices order, all built in one
    vectorized pass on the first read.

    From the directions u (U, 2) of _refine that split a label, with the
    members' intervals lo, hi and blocks ids (U, n) along each: a pair's
    line is the cut after the smaller of its two blocks along the first of
    them that puts the pair in different blocks, the first swept direction
    that does, and the pairs on one cut share its certificate. label (n,)
    holds the members' final labels, shared exactly by the pairs that no
    line splits, which are absent. Until the first read the mapping keeps
    O(n U) numbers, and then one entry per split pair.
    """

    def __init__(self, label, u, lo, hi, ids):
        self._cuts = label, u, lo, hi, ids
        self._lines = None

    def _built(self) -> dict:
        if self._lines is None:
            label, u, lo, hi, ids = self._cuts
            n = len(label)
            i, j = np.triu_indices(n, 1)
            keep = label[i] != label[j]
            i, j = i[keep], j[keep]
            self._lines, self._cuts = {}, None
            if len(i):
                f = (ids[:, i] != ids[:, j]).argmax(axis=0)
                cut, which = np.unique(f * n + np.minimum(ids[f, i], ids[f, j]), return_inverse=True)
                f, c = np.divmod(cut, n)
                lines = _certificates(u[f], lo[f], hi[f], ids[f] <= c[:, None])
                self._lines = dict(zip(zip(i.tolist(), j.tolist()), map(lines.__getitem__, which.tolist())))
        return self._lines

    def __len__(self) -> int:
        return len(self._built())

    def __iter__(self):
        return iter(self._built())

    def __getitem__(self, key) -> SeparationCertificate:
        try:
            pair = tuple(map(operator.index, key))
        except TypeError:
            raise KeyError(key) from None
        return self._built()[pair]

    def items(self):
        return self._built().items()


def is_ts_packing(bodies, tol: float = EPS) -> TSResult:
    """Check total separability: every pair split by a line missing all interiors.

    Decided exactly over the critical directions (_refine), ``lines_checked``
    of them, by refining member labels. The first stage sweeps the near
    pairs' best directions and the normals of the touching pairs' offsets,
    which settles the blocks of a totally separable lattice; the rest of the
    critical directions are swept only while two members still share a
    label. A free cut along any direction is a valid split, and a pair is
    refuted only after every critical direction, so the verdict is exact.
    ``certificates`` is a read-only mapping of each split pair's line, the
    first free cut splitting it; the lines are built in one pass on the
    first read (_PairLines), and until then the result keeps O(n) numbers
    per direction that split a label. No such line splits a pair in
    unresolved, a refutation at tol (scaled by min(1, extent of the
    packing)).
    """
    bodies = _as_bodies(bodies)
    n = len(bodies)
    feats, t, pairs = _packing_pairs(bodies, tol)
    live, lab, swept, cuts = _refine(feats, np.arange(n)[None, :], pairs, t)
    if cuts:
        u, lo, hi, ids = (np.concatenate(x) for x in zip(*cuts))
    else:
        u, lo, hi, ids = (np.empty((0, 2)),) + (np.empty((0, 1, n), int),) * 3
    unresolved = tuple(_label_pairs(lab[0])) if len(live) else ()
    certificates = _PairLines(lab[0], u, lo[:, 0], hi[:, 0], ids[:, 0])
    return TSResult(not unresolved, certificates, unresolved, swept)


def tangency_pairs(bodies, tol: float = EPS) -> list[tuple[int, int]]:
    """Pairs of members at zero distance (touching, interiors disjoint), at
    tol scaled by min(1, extent of the packing)."""
    _, t, (i, j, gaps, _) = _packing_pairs(bodies, tol)
    touch = gaps <= t
    return list(zip(i[touch].tolist(), j[touch].tolist()))


def is_ls_packing(bodies, tol: float = EPS) -> LSResult:
    """Check local separability: each member plus its touching neighbours is
    TS, at tol scaled by min(1, extent of the packing). The neighbourhoods
    are the rows of one label refinement (_refine); a failing member is one
    whose row keeps two members on one label."""
    bodies = _as_bodies(bodies)
    n = len(bodies)
    feats, t, pairs = _packing_pairs(bodies, tol)
    touch = pairs[2] <= t
    table, hoods = _neighbourhoods(n, pairs[0][touch], pairs[1][touch])
    failing = tuple(_refine(feats, table, pairs, t)[0].tolist())
    return LSResult(not failing, failing, hoods)


def is_rho_separable(
    reference: ConvexBody, centers, rho: float, tol: float = EPS
) -> RhoSeparabilityResult:
    """Check rho-separability of a translate packing of a symmetric body.

    The packing is rho-separable when, for each member, the sub-packing of
    members contained in the rho-enlarged copy around it is totally
    separable. Containment reduces to gauge distance at most rho - 1, so
    only the pairs of _translate_gauges with reach max(1, (rho - 1) / 2) get
    a gauge, and only these near pairs a clearance (_refine). The
    members are priced through the reference K: a pair's clearance and arc
    read only the at most 2k vertices of K - K (_pair_table), not k^2
    feature differences. The neighbourhoods are the rows of one label
    refinement (_refine), which cuts at tol scaled by min(1, extent of the
    packing) as is_ts_packing does; the gauges are scale-free and compare
    with tol itself. The failing member is the first whose row keeps two
    members on one label.
    """
    if not 1.0 <= rho < math.inf:
        raise GeometryError("rho must be finite and at least 1")
    _require_planar([reference], "rho-separability")
    if not reference.is_origin_symmetric(1e-9):
        raise GeometryError("rho-separability requires an origin-symmetric reference")
    cs = np.atleast_2d(np.asarray(centers, dtype=float))
    n = len(cs)
    i, j, gauge = _translate_gauges(reference, cs, max(1.0, 0.5 * (rho - 1.0)), tol)
    edge = gauge <= rho - 1.0 + tol
    table, hoods = _neighbourhoods(n, i[edge], j[edge])
    if rho < 3.0:
        # neighbourhoods are singletons below rho = 3, nothing to separate
        return RhoSeparabilityResult(True, rho, None, hoods)
    pts, rad = _reference_features(reference)
    rows = _reference_table(reference)
    feats = pts[0] + cs[:, None, :], np.repeat(rad, n)
    t = _scaled_tol(*feats, tol)
    failing = _refine(feats, table, (i, j) + _pair_gaps(feats, i, j, rows), t, rows)[0].tolist()
    return RhoSeparabilityResult(not failing, rho, failing[0] if failing else None, hoods)
