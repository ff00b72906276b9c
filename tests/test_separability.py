"""NS / SNS decisions, separation certificates, TS / LS / rho packings."""

import itertools
import math
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _plain_features,
    disk_bodies,
    house7_centers,
    move_bodies,
    ns_family,
    ns_pair_sweep,
    pair_clearance_reference,
    point_inside,
    random_convex_polygon,
    random_reference,
    random_symmetric_polygon,
    thirteen_pentagon_centers,
    thirteen_ts_centers,
    touching_packing,
    ts_lattice_subset,
    ts_reference,
)
from sepgeom.bodies import EPS, ConvexBody, GeometryError, HomothetFamily, _strict_hull, raw_support
from sepgeom.covering import build_triangle_counterexample
from sepgeom import separability
from sepgeom.packing import contact_graph, polyomino_packing
from sepgeom.separability import (
    _BLOCK,
    Hyperplane,
    _critical_angles,
    _member_features,
    _merge,
    _near_pairs,
    _pair_gaps,
    _pair_table,
    _scaled_tol,
    candidate_directions,
    find_separating_hyperplane,
    is_ls_packing,
    is_non_separable,
    is_rho_separable,
    is_sns,
    is_ts_packing,
    kirchberger_reduce,
    pair_separation,
    separation_margin,
    strictly_separates,
    tangency_pairs,
)

# three mutually tangent unit disks, the classic non-TS triple
HEX_TRIPLE = 2.0 * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def unit_disks(centers):
    return disk_bodies(centers, 1.0)


def test_hyperplane_normalizes():
    h = Hyperplane((3.0, 4.0), 10.0)
    assert np.linalg.norm(h.normal) == pytest.approx(1.0, abs=1e-12)
    assert h.signed((1.2, 0.0)) == pytest.approx(1.2 * 0.6 - 2.0, abs=1e-12)


def test_tangent_chain_is_ns():
    fam = unit_disks([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    dec = is_non_separable(fam)
    assert dec.non_separable and not dec.approximate
    assert dec.witness is None


def test_split_family_has_certificate():
    fam = unit_disks([(0.0, 0.0), (5.0, 0.0)])
    dec = is_non_separable(fam)
    assert not dec.non_separable
    cert = dec.witness
    assert cert is not None and cert.margin > 0.0
    left = [fam[i] for i in cert.left]
    right = [fam[i] for i in cert.right]
    assert strictly_separates(cert.plane, left, right)


def test_find_separating_hyperplane_margin():
    a = [ConvexBody.disk((0.0, 0.0), 1.0)]
    b = [ConvexBody.disk((4.0, 1.0), 1.0)]
    cert = find_separating_hyperplane(a, b)
    assert cert is not None
    assert cert.margin == pytest.approx((math.sqrt(17.0) - 2.0) / 2.0, abs=1e-6)
    assert find_separating_hyperplane(a, [ConvexBody.disk((1.5, 0.0), 1.0)]) is None


def test_ns_oracle_agreement(rng):
    # brute-force direction sweep as an independent oracle
    for _ in range(60):
        n = int(rng.integers(2, 7))
        centers = rng.uniform(-3.0, 3.0, (n, 2))
        radii = rng.uniform(0.3, 1.2, n)
        fam = [ConvexBody.disk(c, r) for c, r in zip(centers, radii)]
        dec = is_non_separable(fam, samples=2048)

        t = np.linspace(0.0, math.pi, 20000, endpoint=False)
        dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
        los = dirs @ centers.T - radii[None, :]
        his = dirs @ centers.T + radii[None, :]
        gap = 0.0
        for k in range(len(dirs)):
            order = np.argsort(los[k])
            run = his[k][order[0]]
            for idx in order[1:]:
                gap = max(gap, los[k][idx] - run)
                run = max(run, his[k][idx])
        oracle_ns = gap <= 1e-9
        if abs(gap) > 1e-6:
            assert dec.non_separable == oracle_ns


def test_generated_ns_families_verify(rng):
    for _ in range(40):
        fam = ns_family(rng, random_reference(rng), int(rng.integers(2, 9)))
        assert is_non_separable(fam, samples=512).non_separable


def test_sns_chain_and_counterexample():
    chain = unit_disks([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0)])
    res = is_sns(chain)
    assert res.is_sns and res.ordering is not None and len(res.ordering) == 3
    single = is_sns([ConvexBody.disk((0, 0), 1.0)])
    assert single.is_sns and single.ordering == (0,)

    tri = build_triangle_counterexample(3)
    assert is_non_separable(tri, samples=512).non_separable
    assert not is_sns(tri).is_sns


def test_sns_families_are_ns(rng):
    from helpers import sns_disk_centers

    for _ in range(10):
        centers = sns_disk_centers(rng, int(rng.integers(3, 8)))
        fam = unit_disks(centers)
        assert is_sns(fam).is_sns
        assert is_non_separable(fam, samples=512).non_separable


def test_kirchberger_matches_direct(rng):
    agree = 0
    for _ in range(50):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f1 = [ConvexBody.disk(rng.uniform(-2, 2, 2), rng.uniform(0.2, 0.8)) for _ in range(n1)]
        f2 = [ConvexBody.disk(rng.uniform(-2, 2, 2), rng.uniform(0.2, 0.8)) for _ in range(n2)]
        direct = find_separating_hyperplane(f1, f2) is not None
        red = kirchberger_reduce(f1, f2)
        assert red.separable == direct
        agree += 1
    assert agree == 50


def test_pair_separation_and_validate():
    a = ConvexBody.disk((0.0, 0.0), 1.0)
    b = ConvexBody.disk((3.0, 0.0), 1.0)
    assert pair_separation(a, b) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(GeometryError, match="members 0 and 1 overlap"):
        tangency_pairs([a, ConvexBody.disk((0.5, 0.0), 1.0)])


def test_ts_grid_and_hex_triple():
    grid = unit_disks([(x, y) for x in (0.0, 2.0) for y in (0.0, 2.0)])
    res = is_ts_packing(grid)
    assert res.is_ts and not res.unresolved
    for (i, j), cert in res.certificates.items():
        assert cert.plane.signed(grid[i].center) * cert.plane.signed(grid[j].center) < 0

    hexres = is_ts_packing(unit_disks(HEX_TRIPLE))
    assert not hexres.is_ts and hexres.unresolved


def test_ts_overlap_rejected():
    with pytest.raises(GeometryError):
        is_ts_packing(unit_disks([(0.0, 0.0), (1.0, 0.0)]))


def test_ls_square_lattice_and_hex():
    piece = unit_disks([(2 * i, 2 * j) for i in range(3) for j in range(2)])
    assert is_ls_packing(piece).is_ls
    hexres = is_ls_packing(unit_disks(HEX_TRIPLE))
    assert not hexres.is_ls and hexres.failing_members


def test_half_diameter_fixtures():
    house = disk_bodies(house7_centers(), 0.5)
    assert is_ls_packing(house).is_ls
    assert not is_ts_packing(house).is_ts

    ts13 = disk_bodies(thirteen_ts_centers(), 0.5)
    assert is_ts_packing(ts13).is_ts

    pent13 = disk_bodies(thirteen_pentagon_centers(), 0.5)
    assert is_ls_packing(pent13).is_ls
    assert not is_ts_packing(pent13).is_ts


def test_rho_separable_thresholds():
    disk = ConvexBody.disk((0.0, 0.0), 1.0)
    square_lattice = [(2.0 * i, 2.0 * j) for i in range(3) for j in range(3)]
    assert is_rho_separable(disk, square_lattice, 2.0).separable
    assert is_rho_separable(disk, square_lattice, 3.0).separable
    hex_lattice = [
        (2.0 * i + j, math.sqrt(3.0) * j) for i in range(3) for j in range(3)
    ]
    assert is_rho_separable(disk, hex_lattice, 2.0).separable
    res = is_rho_separable(disk, hex_lattice, 3.0)
    assert not res.separable and res.failing_member is not None
    with pytest.raises(GeometryError):
        is_rho_separable(disk, square_lattice, 0.5)
    tri = ConvexBody.polygon([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(GeometryError):
        is_rho_separable(tri, square_lattice, 2.0)


def test_rho_verdicts_do_not_change_at_small_scales(rng):
    """is_rho_separable cuts at tol scaled by min(1, extent of the packing),
    as the TS and LS checks do, so a touching lattice block of K keeps its
    verdict, failing member and neighbourhoods when K and the block shrink
    by 1e-6 or 1e-9. The gauges are scale-free and keep the raw tol. Half
    the blocks have their last member moved a row up, over two members of
    the top row, which is not rho-separable at rho = 3: with an absolute
    1e-9 as the cut tolerance, the block at 1e-9 was judged separable."""
    seen = set()
    for t in range(24):
        ref = ConvexBody.disk((0.0, 0.0), 1.0) if t % 5 == 4 else random_symmetric_polygon(rng)
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        centers = ts_lattice_subset(rng, ref, rows, cols)
        if t % 2:
            u, v = centers[1] - centers[0], centers[cols] - centers[0]
            centers[-1] += v - float(rng.uniform(0.2, 0.8)) * u
        for rho in (3.0, 4.5):
            res = is_rho_separable(ref, centers, rho)
            seen.add(res.separable)
            for s in (1e-6, 1e-9):
                small = is_rho_separable(ref.transform(np.eye(2) * s), centers * s, rho)
                assert (small.separable, small.failing_member, small.neighborhoods) == (
                    res.separable, res.failing_member, res.neighborhoods), (t, rho, s)
    assert seen == {True, False}


def test_packing_answers_do_not_change_at_large_scales():
    """Above unit extent the packing tolerance is tol plus the round-off of
    the largest coordinate (_scaled_tol), so 30 touching lattice blocks of
    random o-symmetric polygons and disks (every fifth), and each block with
    its last member moved a row up over two members of the top row, keep
    their TS verdict and unresolved pairs and their rho = 3 verdict, failing
    member and neighbourhoods when K and the block grow by 1e6. With tol
    alone two scaled blocks were taken for overlapping, and 8 TS and 9 rho
    answers changed."""
    rng = np.random.default_rng(5)
    seen = set()
    for t in range(30):
        ref = ConvexBody.disk((0.0, 0.0), 1.0) if t % 5 == 4 else random_symmetric_polygon(rng)
        rows, cols = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        block = ts_lattice_subset(rng, ref, rows, cols)
        moved = block.copy()
        moved[-1] += block[cols] - block[0] - 0.5 * (block[1] - block[0])
        big = ref.transform(np.eye(2) * 1e6)

        def answers(k, centers):
            ts, rho = is_ts_packing([k.translate(c) for c in centers]), is_rho_separable(k, centers, 3.0)
            return ts.is_ts, ts.unresolved, rho.separable, rho.failing_member, rho.neighborhoods

        for centers in (block, moved):
            want = answers(ref, centers)
            assert answers(big, centers * 1e6) == want, t
            seen.add((want[0], want[2]))
    assert seen == {(True, True), (False, True), (False, False)}


def test_tangency_pairs_grid():
    grid = unit_disks([(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (0.0, 5.0)])
    pairs = tangency_pairs(grid)
    assert set(pairs) == {(0, 1), (1, 2)}


@pytest.mark.parametrize("check", [tangency_pairs, is_ts_packing, is_ls_packing])
def test_empty_packing_is_refused(check):
    with pytest.raises(GeometryError, match="empty packing"):
        check([])


def test_homothet_family_input():
    ref = ConvexBody.disk((0.0, 0.0), 1.0)
    fam = HomothetFamily(ref, [(0.0, 0.0), (1.5, 0.0)], [1.0, 1.0])
    assert is_non_separable(fam, samples=512).non_separable


def test_tiny_disks_are_separable():
    # the tolerance scales with the family, so disks of radius 1e-12 three
    # radii apart are split like unit disks three radii apart
    fam = [ConvexBody.disk((0.0, 0.0), 1e-12), ConvexBody.disk((3e-12, 0.0), 1e-12)]
    dec = is_non_separable(fam)
    assert not dec.non_separable
    cert = dec.witness
    assert strictly_separates(
        cert.plane, [fam[i] for i in cert.left], [fam[i] for i in cert.right], tol=0.0
    )
    direct = find_separating_hyperplane(fam[:1], fam[1:])
    assert direct is not None
    assert direct.margin == pytest.approx(0.5e-12, rel=1e-9)
    assert kirchberger_reduce(fam[:1], fam[1:]).separable


def test_narrow_separating_arc_is_found():
    # the lines splitting the two thin triangles tilt by at most ~5e-6 rad
    # from the x-axis, far below an angle grid of 2 pi / 4096
    rot = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    below = ConvexBody.polygon(np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, -0.1)]) @ rot.T)
    above = ConvexBody.polygon(np.array([(-1.0, 1e-5), (1.0, 1e-5), (0.0, 0.1)]) @ rot.T)
    far = ConvexBody.disk(rot @ np.array([0.0, -0.1]), 0.05)  # overlaps `below`
    fam = [below, above, far]
    dec = is_non_separable(fam)
    assert not dec.non_separable and not dec.approximate
    cert = dec.witness
    assert {cert.left, cert.right} == {(0, 2), (1,)}
    assert strictly_separates(
        cert.plane, [fam[i] for i in cert.left], [fam[i] for i in cert.right]
    )
    direct = find_separating_hyperplane([below, far], [above])
    assert direct is not None
    assert direct.margin == pytest.approx(0.5e-5, rel=1e-6)
    assert strictly_separates(direct.plane, [below, far], [above])
    assert kirchberger_reduce([below, far], [above]).separable
    # pushed together by 2e-5 the triangles overlap and the family is non-separable
    touching = ConvexBody.polygon(np.array([(-1.0, -1e-5), (1.0, -1e-5), (0.0, 0.1)]) @ rot.T)
    assert is_non_separable([below, touching, far]).non_separable


def test_planar_directions_checked_bounded(rng):
    for _ in range(40):
        n = int(rng.integers(2, 9))
        fam = []
        for c in rng.uniform(-3.0, 3.0, (n, 2)):
            if rng.random() < 0.5:
                fam.append(ConvexBody.disk(c, float(rng.uniform(0.2, 1.0))))
            else:
                fam.append(random_convex_polygon(rng, k=6, scale=0.5).translate(c))
        dec = is_non_separable(fam)
        assert dec.directions_checked <= n * (n - 1)
        assert not dec.approximate


def _witness_clearance(bodies, w) -> float:
    """Clearance of the witness line from the members, in plain Python from
    raw coordinates: the least distance of a left member below it or a right
    member above it, after checking that the sides partition the family."""
    assert w.left and w.right and sorted(w.left + w.right) == list(range(len(bodies)))
    nx, ny = (float(v) for v in w.plane.normal)
    s = float(w.plane.offset)
    gap = math.inf
    for side, members in ((-1.0, w.left), (1.0, w.right)):
        for m in members:
            vs, r, _ = _plain_features(bodies[m])
            gap = min(gap, min(side * (nx * x + ny * y - s) for x, y in vs) - r)
    return gap


def _clusters(rng, anchors) -> list:
    """Two to four overlapping disks and polygons of size about 1 around each
    anchor: one never-split component per anchor when the anchors are far apart."""
    fam = []
    for a in anchors:
        for c in a + rng.uniform(-0.4, 0.4, (int(rng.integers(2, 5)), 2)):
            if rng.random() < 0.5:
                fam.append(ConvexBody.disk(c, float(rng.uniform(0.8, 1.0))))
            else:
                fam.append(ConvexBody.polygon(c + 0.9 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], float)))
    return fam


def test_merge_labels_components_by_their_smallest_member(rng):
    """_merge, fed the edges of a random graph in chunks as is_non_separable
    feeds it the never-split pairs of each block, labels every member with
    the smallest member of its component, as a plain union-find does; paths
    in scrambled order need several rounds of pointer jumping."""
    for trial in range(60):
        n = int(rng.integers(1, 60))
        if trial % 3 == 0:
            perm = rng.permutation(n)
            edges = np.column_stack([perm[:-1], perm[1:]]) if n > 1 else np.empty((0, 2), int)
        else:
            edges = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
        edges = edges[rng.permutation(len(edges))]
        root = list(range(n))

        def find(a):
            while root[a] != a:
                a = root[a]
            return a

        for a, b in edges.tolist():
            root[max(find(a), find(b))] = min(find(a), find(b))
        comp = np.arange(n)
        for chunk in np.array_split(edges, int(rng.integers(1, 4))):
            comp = _merge(comp, chunk[:, 0], chunk[:, 1])
        assert comp.tolist() == [find(a) for a in range(n)], trial


def test_ns_components_match_the_pair_sweep(rng):
    """is_non_separable sweeps only the ends of the arcs S(A, B) between
    components of the never-split graph; the parent's sweep over the ends of
    every pair arc (helpers.ns_pair_sweep) gives the same verdict on random
    disks, polygons, mixed bodies and homothets. A ring of overlapping disks
    around a free one is NS with two components and no direction swept; three
    far clusters are split by a cut grouping two of them. Every witness
    clears the members from raw coordinates by its margin, and at most
    c(c - 1) directions are swept for c components."""
    fams = []
    for trial in range(64):
        n = int(rng.integers(2, 10))
        centers = rng.uniform(-1.0, 1.0, (n, 2)) * rng.uniform(1.0, 5.0)
        kind = trial % 4
        if kind == 3:
            fams.append(("any", HomothetFamily(random_reference(rng), centers, rng.uniform(0.3, 1.2, n))))
            continue
        fam = []
        for c in centers:
            if kind == 0 or (kind == 2 and rng.random() < 0.5):
                fam.append(ConvexBody.disk(c, float(rng.uniform(0.3, 1.2))))
            else:
                fam.append(random_convex_polygon(rng, k=int(rng.integers(3, 8)), scale=0.8).translate(c))
        fams.append(("any", fam))
    for m in (6, 9, 14):
        ang = 2.0 * math.pi * np.arange(m) / m
        ring = 3.0 * np.column_stack([np.cos(ang), np.sin(ang)])
        radius = 0.6 * 6.0 * math.sin(math.pi / m)  # 1.2 half chords: neighbours overlap
        fams.append(("ring", disk_bodies(ring, radius) + [ConvexBody.disk((0.1, -0.2), 0.5)]))
    for trial in range(12):
        if trial % 2:
            anchors = np.array([[0.0, 0.0], [8.0, 0.0], [16.0, 0.0]])
        else:
            anchors = np.array([[0.0, 0.0], [8.0, 0.0], [4.0, 7.0]])
        fams.append(("three", _clusters(rng, anchors + rng.normal(size=2))))
    kinds = {"ns": 0, "split": 0}
    for tag, fam in fams:
        dec = is_non_separable(fam)
        bodies = fam.bodies() if isinstance(fam, HomothetFamily) else fam
        ns, _, widest, c = ns_pair_sweep(fam)
        assert not dec.approximate and dec.directions_checked <= c * (c - 1)
        t = separability._scaled_tol(*_member_features(bodies), 1e-9)
        if abs(widest - t) > 1e-9:
            assert dec.non_separable == ns, (tag, widest)
        if tag == "ring":
            assert dec.non_separable and c == 2 and dec.directions_checked == 0
        if tag == "three":
            assert not dec.non_separable and c == 3
        if dec.witness is None:
            kinds["ns"] += 1
            continue
        kinds["split"] += 1
        assert dec.witness.margin > 0.0
        clearance = _witness_clearance(bodies, dec.witness)
        assert clearance >= dec.witness.margin * (1.0 - 1e-9) - 1e-12
    assert min(kinds.values()) >= 10, kinds


def _similarity(fam, angle: float, scale: float, shift) -> object:
    """fam under x -> scale (R(angle) x + shift): a HomothetFamily through
    its transform, a list of bodies member by member."""
    c, s = math.cos(angle), math.sin(angle)
    m = scale * np.array([[c, -s], [s, c]])
    t = scale * np.asarray(shift, dtype=float)
    if isinstance(fam, HomothetFamily):
        return fam.transform(m, t)
    return [b.transform(m, t) for b in fam]


def _spread(rng, fam: HomothetFamily) -> list:
    """The members of fam, those above the median along a random u moved up
    until a slab of width 0.5 across u parts them from the rest."""
    bodies = fam.bodies()
    a = float(rng.uniform(0.0, 2.0 * math.pi))
    u = np.array([math.cos(a), math.sin(a)])
    lo, hi = (np.array([f(x @ u for x in _plain_features(b)[0]) for b in bodies]) for f in (min, max))
    rad = np.array([_plain_features(b)[1] for b in bodies])
    lo, hi = lo - rad, hi + rad
    up = fam.centers @ u > np.median(fam.centers @ u)
    shift = hi[~up].max() - lo[up].min() + 0.5
    return [b.translate(shift * u) if k else b for b, k in zip(bodies, up)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    split=st.booleans(),
    angle=st.floats(0.0, 2.0 * math.pi),
    log_scale=st.floats(-6.0, 6.0),
    shift=st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)),
)
def test_ns_verdicts_do_not_change_under_similarities(seed, split, angle, log_scale, shift):
    """A family whose members overlap a neighbour (NS) or that a slab of
    width 0.5 parts (separable) keeps its verdict under rotation, scaling
    by 1e-6 to 1e6 and translation by up to 1e6 in its own units: every
    clearance that decides it is far above the tolerance."""
    rng = np.random.default_rng(seed)
    fam = ns_family(rng, random_reference(rng), int(rng.integers(2, 9)))
    if split:
        fam = _spread(rng, fam)
    assert is_non_separable(fam).non_separable == (not split)
    moved = _similarity(fam, angle, 10.0**log_scale, shift)
    assert is_non_separable(moved).non_separable == (not split)


def test_two_disk_margin_is_exact(rng):
    for _ in range(50):
        c1, c2 = rng.uniform(-5.0, 5.0, (2, 2))
        r1, r2 = rng.uniform(0.1, 1.0, 2)
        gap = float(np.linalg.norm(c2 - c1)) - r1 - r2
        cert = find_separating_hyperplane(
            [ConvexBody.disk(c1, r1)], [ConvexBody.disk(c2, r2)]
        )
        if gap <= 1e-6:
            assert cert is None
            continue
        assert cert.margin == pytest.approx(0.5 * gap, abs=1e-12)


def test_kirchberger_matches_direct_mixed_bodies(rng):
    separable = 0
    for _ in range(60):
        bodies = []
        for c in rng.uniform(0.0, 3.0, (int(rng.integers(3, 6)), 2)):
            kind = rng.random()
            if kind < 0.4:
                bodies.append(ConvexBody.disk(c, float(rng.uniform(0.2, 0.5))))
            elif kind < 0.8:
                bodies.append(random_convex_polygon(rng, k=6, scale=0.4).translate(c))
            else:
                bodies.append(ConvexBody.segment(c, c + rng.uniform(-0.6, 0.6, 2)))
        n1 = int(rng.integers(1, len(bodies)))
        direct = find_separating_hyperplane(bodies[:n1], bodies[n1:])
        red = kirchberger_reduce(bodies[:n1], bodies[n1:])
        assert red.separable == (direct is not None)
        if direct is not None:
            assert strictly_separates(direct.plane, bodies[:n1], bodies[n1:])
        separable += red.separable
    assert 0 < separable < 60


def _critical_angle_scan(p, r, lo: float, hi: float) -> float:
    """The largest min_q(<u(t), p_q> - r_q) over every critical angle in
    [lo, hi]: each row's peak, both crossings of each pair of rows and the
    arc ends, listed one at a time in plain Python."""
    rows = [(float(x), float(y), float(w)) for (x, y), w in zip(p, r)]
    angles = [lo, hi] + [math.atan2(y, x) for x, y, _ in rows]
    for a, (xa, ya, ra) in enumerate(rows):
        for xb, yb, rb in rows[a + 1 :]:
            size = math.hypot(xa - xb, ya - yb)
            if size > abs(ra - rb):
                psi, turn = math.atan2(ya - yb, xa - xb), math.acos((ra - rb) / size)
                angles += [psi - turn, psi + turn]
    best = -math.inf
    for t in angles:
        t = lo + (t - lo) % (2.0 * math.pi)
        if t <= hi:
            best = max(best, min(math.cos(t) * x + math.sin(t) * y - w for x, y, w in rows))
    return best


def test_best_angle_matches_a_scan_of_every_critical_angle(rng):
    """On random polygon and disk families split by a line, the margin at
    _best_angle equals the best over every critical angle of the arc to
    1e-12 relative to the rows' size."""
    compared = 0
    for _ in range(80):
        bodies = []
        for _ in range(int(rng.integers(2, 5))):
            if rng.random() < 0.4:
                bodies.append(ConvexBody.disk(rng.normal(size=2), float(rng.uniform(0.1, 1.0))))
            else:
                bodies.append(random_convex_polygon(rng, int(rng.integers(3, 7)), 0.6).translate(rng.normal(size=2)))
        n1 = int(rng.integers(1, len(bodies)))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        shift = float(rng.uniform(2.0, 6.0)) * np.array([math.cos(ang), math.sin(ang)])
        bodies[n1:] = [b.translate(shift) for b in bodies[n1:]]
        pts, rad = _member_features(bodies)
        # every feature of a left member against every feature of a right
        # member, one row of _arcs: the arc where the right side lies above
        i, j = np.repeat(np.arange(n1), len(bodies) - n1), np.tile(np.arange(n1, len(bodies)), n1)
        p = separability._differences(pts, i, j).reshape(-1, 2)
        r = np.repeat(rad[i] + rad[j], pts.shape[1] ** 2)
        lo, hi = (float(x[0]) for x in separability._arcs(p[None], r[None]))
        if not lo < hi:
            continue
        theta = separability._best_angle(p, r, lo, hi)
        assert lo <= theta <= hi
        got = float((p @ np.array([math.cos(theta), math.sin(theta)]) - r).min())
        size = float(np.hypot(p[:, 0], p[:, 1]).max() + np.abs(r).max())
        assert abs(got - _critical_angle_scan(p, r, lo, hi)) <= 1e-12 * size
        compared += 1
    assert compared >= 40, compared


def _flat_separation_test(bodies, tol: float = EPS):
    """The planar separation test with one row of _arcs per subfamily: every
    feature of a left member against every feature of a right member, each
    feature taken as a member of its own, at the tolerance of the whole."""
    pts, rad = _member_features(bodies)
    thr = 2.0 * _scaled_tol(pts, rad, tol)
    k = pts.shape[1]
    flat, frad = pts.reshape(-1, 2), np.repeat(rad, k)

    def separable(left, right) -> bool:
        i, j = ((np.asarray(side)[:, None] * k + np.arange(k)).ravel() for side in (left, right))
        i, j = np.repeat(i, len(j)), np.tile(j, len(i))
        lo, hi = separability._arcs((flat[j] - flat[i])[None], (frad[i] + frad[j])[None] + thr)
        return bool(lo[0] < hi[0])

    return separable


def _meet_family(rng, n: int):
    """Random disks and polygons, split into two sides pulled apart,
    overlapping at random, or touching (touching_packing), scaled by 1e-6, 1
    or 1e6; and the kind drawn."""
    kind = ("split", "overlapping", "touching")[int(rng.integers(3))]
    if kind == "touching":
        shapes = [ConvexBody.disk((0.0, 0.0), 1.0), random_convex_polygon(rng, int(rng.integers(3, 7)), 1.0)]
        bodies = touching_packing(rng, shapes, n)
    else:
        bodies = []
        for c in rng.uniform(0.0, 3.0, (n, 2)):
            if rng.random() < 0.5:
                bodies.append(ConvexBody.disk(c, float(rng.uniform(0.2, 0.6))))
            else:
                bodies.append(random_convex_polygon(rng, int(rng.integers(3, 7)), 0.6).translate(c))
        if kind == "split":
            ang = float(rng.uniform(0.0, 2.0 * math.pi))
            shift = 6.0 * np.array([math.cos(ang), math.sin(ang)])
            cut = int(rng.integers(1, n))
            bodies[cut:] = [b.translate(shift) for b in bodies[cut:]]
    scale = 10.0 ** float(rng.choice([-6.0, 0.0, 6.0]))
    return [b.transform(scale * np.eye(2)) for b in bodies], kind


def test_meet_of_pair_arcs_matches_one_arc_per_subfamily(rng, monkeypatch):
    """_separation_test meets member-pair arcs priced once; on random planar
    families it answers every subfamily as one _arcs row over the
    subfamily's feature pairs does, and kirchberger_reduce and is_sns give
    the verdicts, witnesses, counts and orderings of that row test. Neither
    calls the direct separation: the reduction decides from its
    subfamilies."""

    def direct(*args, **kwargs):
        raise AssertionError("the planar reduction called find_separating_hyperplane")

    monkeypatch.setattr(separability, "find_separating_hyperplane", direct)
    seen, verdicts = set(), set()
    for _ in range(300):
        bodies, kind = _meet_family(rng, int(rng.integers(3, 8)))
        n = len(bodies)
        if n < 2:
            continue
        flat, meet = _flat_separation_test(bodies), separability._separation_test(bodies, EPS)
        for _ in range(10):
            order = rng.permutation(n)
            cut = int(rng.integers(1, n))
            left, right = order[:cut].tolist(), order[cut:].tolist()
            left, right = left[: int(rng.integers(1, len(left) + 1))], right[: int(rng.integers(1, len(right) + 1))]
            assert meet(left, right) == flat(left, right), (kind, left, right)
        n1 = int(rng.integers(1, n))
        want, checked = (True, None), 0
        for combo in itertools.combinations(range(n), min(n, 4)):
            left, right = [c for c in combo if c < n1], [c for c in combo if c >= n1]
            if left and right:
                checked += 1
                if not flat(left, right):
                    want = (False, (tuple(left), tuple(c - n1 for c in right)))
                    break
        assert kirchberger_reduce(bodies[:n1], bodies[n1:]) == separability.KirchbergerResult(*want, checked)
        sns = separability.SNSResult(False, None)
        for start in range(n):
            chosen, rest = [start], [k for k in range(n) if k != start]
            while rest:
                step = next((j for j in rest if not flat(chosen, [j])), None)
                if step is None:
                    break
                chosen.append(step)
                rest.remove(step)
            if not rest:
                sns = separability.SNSResult(True, tuple(chosen))
                break
        assert is_sns(bodies) == sns
        seen.add(kind)
        verdicts.add((want[0], sns.is_sns))
    assert seen == {"split", "overlapping", "touching"}
    assert {(True, False), (False, True)} <= verdicts, verdicts


def _mixed_packing_family(rng, n: int) -> list:
    """Disks and polygons at random, some overlapping, with touching pairs:
    each disk after the first touches the member before it when that is a
    disk too."""
    bodies = []
    for k in range(n):
        c = rng.uniform(-4.0, 4.0, 2)
        if rng.random() < 0.5:
            r = float(rng.uniform(0.3, 1.2))
            if k and bodies[-1].kind == "disk" and rng.random() < 0.5:
                ang = float(rng.uniform(0.0, 2.0 * math.pi))
                step = (bodies[-1].radius + r) * np.array([math.cos(ang), math.sin(ang)])
                c = bodies[-1].center + step
            bodies.append(ConvexBody.disk(c, r))
        else:
            bodies.append(random_convex_polygon(rng, int(rng.integers(3, 9))).translate(c))
    return bodies


def test_pair_gaps_match_plain_python(rng):
    kinds = set()
    for _ in range(60):
        bodies = _mixed_packing_family(rng, int(rng.integers(2, 8)))
        i, j = np.triu_indices(len(bodies), 1)
        gaps, dirs = _pair_gaps(_member_features(bodies), i, j)
        want = np.array([pair_clearance_reference(bodies[a], bodies[b]) for a, b in zip(i, j)])
        assert np.abs(gaps - want).max() <= 1e-12
        for p, (a, b) in enumerate(zip(i, j)):
            # the line along the returned direction, midway between the top
            # of the first member and the bottom of the second, splits the
            # pair with half the clearance
            u = dirs[p]
            plane = Hyperplane(u, 0.5 * (raw_support(bodies[a], u) - raw_support(bodies[b], -u)))
            assert separation_margin(plane, [bodies[a]], [bodies[b]]) == pytest.approx(
                0.5 * gaps[p], abs=1e-12
            )
        kinds |= {int(np.sign(np.round(g, 12))) for g in gaps}
    assert kinds == {-1, 0, 1}


def test_packing_checks_name_the_same_overlap(rng):
    named = 0
    for _ in range(40):
        bodies = _mixed_packing_family(rng, int(rng.integers(2, 7)))
        n = len(bodies)
        first = next(
            ((a, b) for a in range(n) for b in range(a + 1, n)
             if pair_clearance_reference(bodies[a], bodies[b]) < -1e-9),
            None,
        )
        if first is None:
            assert tangency_pairs(bodies) == [
                (a, b) for a in range(n) for b in range(a + 1, n)
                if pair_clearance_reference(bodies[a], bodies[b]) <= 1e-9
            ]
            continue
        named += 1
        msg = f"members {first[0]} and {first[1]} overlap"
        for check in (tangency_pairs, is_ts_packing, is_ls_packing):
            with pytest.raises(GeometryError, match=msg):
                check(bodies)
    assert named >= 10


def test_ts_corner_contact_needs_the_edge_line():
    """Three polygons meet at (0, 1), the triangles' edges from there
    collinear: the rectangle is split from the upper triangle only by that
    common edge line, a bound of their normal cone."""
    bodies = [
        ConvexBody.polygon([(0, 0), (2, 0), (2, 1), (0, 1)]),
        ConvexBody.polygon([(-3, 0), (0, 1), (-2, 2)]),
        ConvexBody.polygon([(0, 1), (3, 2), (1, 3)]),
    ]
    res = is_ts_packing(bodies)
    assert res.is_ts
    assert abs(res.certificates[(0, 2)].plane.normal @ (3.0, 1.0)) < 1e-12


def test_ts_verdict_does_not_rest_on_rounding(rng):
    """Spread packings, clearances above 1e-6, have the same pairs refuted
    at tol 0 as at 1e-9: every interval of free directions is tried inside,
    not only at its ends, where a line touches a member up to rounding."""
    for _ in range(120):
        bodies = []
        for _ in range(200):
            c = rng.uniform(-4.0, 4.0, 2)
            b = (ConvexBody.disk(c, float(rng.uniform(0.3, 1.5))) if rng.random() < 0.5
                 else random_convex_polygon(rng, 6, 0.8).translate(c))
            if all(pair_separation(b, o) > 1e-6 for o in bodies):
                bodies.append(b)
            if len(bodies) == 7:
                break
        assert is_ts_packing(bodies, 0.0).unresolved == is_ts_packing(bodies).unresolved


def _plain_gauge(body: ConvexBody, x: float, y: float) -> float:
    """Gauge of (x, y) in an o-symmetric disk or polygon, in plain Python."""
    if body.kind == "disk":
        return math.hypot(x, y) / body.radius
    pts, _, normals = _plain_features(body)
    return max(
        0.0, max((nx * x + ny * y) / max(nx * p + ny * q for p, q in pts) for nx, ny in normals)
    )


def _reference_failing(bodies, hoods) -> list:
    """Members whose neighbourhood is not TS by the plain tangent-line pool."""
    return [
        m for m, nb in enumerate(hoods)
        if nb and not ts_reference([bodies[m]] + [bodies[q] for q in nb])[0]
    ]


def test_ts_ls_rho_match_the_tangent_line_pool(rng):
    """Packings with touching pairs (tangent disks, squares edge to edge and
    corner to corner, polygons on disks) get the answers of the plain pool
    of edge lines, common tangents and pair best lines."""
    square = ConvexBody.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    seen = set()
    for t in range(60):
        poly = random_convex_polygon(rng, 6, 0.6)
        shapes = [square, ConvexBody.disk((0.0, 0.0), 0.5),
                  ConvexBody.disk((0.0, 0.0), float(rng.uniform(0.3, 0.9))),
                  poly.translate(-poly.centroid())]
        use = (shapes[:1], shapes[1:2], shapes)[t % 3]
        bodies = move_bodies(rng, touching_packing(rng, use, int(rng.integers(3, 9))))
        n = len(bodies)
        is_ts, unresolved = ts_reference(bodies)
        res = is_ts_packing(bodies)
        assert (res.is_ts, sorted(res.unresolved)) == (is_ts, unresolved), t
        hoods = [
            [q for q in range(n) if q != m and pair_clearance_reference(bodies[m], bodies[q]) <= 1e-9]
            for m in range(n)
        ]
        failing = _reference_failing(bodies, hoods)
        assert is_ls_packing(bodies).failing_members == tuple(failing), t

        ref = random_symmetric_polygon(rng) if t % 2 else ConvexBody.disk((0.0, 0.0), 1.0)
        members = touching_packing(rng, [ref], int(rng.integers(3, 9)))
        centers = [b.center if b.kind == "disk" else b.vertices[0] - ref.vertices[0] for b in members]
        rho = float(rng.choice([3.0, 3.5, 4.5]))
        hoods = [
            [q for q, d in enumerate(centers) if q != m and _plain_gauge(ref, *(d - c)) <= rho - 1.0 + 1e-9]
            for m, c in enumerate(centers)
        ]
        bad = _reference_failing([ref.translate(c) for c in centers], hoods)
        res = is_rho_separable(ref, centers, rho)
        assert (res.separable, res.failing_member) == (not bad, bad[0] if bad else None), t
        seen |= {("ts", is_ts), ("ls", not failing), ("rho", not bad)}
    assert len(seen) == 6


def test_a_non_ts_packing_still_reaches_the_critical_angles(rng, monkeypatch):
    """Random packings of polygons and disks that the tangent-line pool
    judges not TS are refuted only after the second stage of _refine, the
    critical angles, and leave the pool's pairs unresolved."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _critical_angles(*args)

    monkeypatch.setattr(separability, "_critical_angles", counted)
    refuted = 0
    for _ in range(20):
        poly = random_convex_polygon(rng, 6, 0.6)
        shapes = [ConvexBody.disk((0.0, 0.0), 0.5), poly.translate(-poly.centroid())]
        bodies = move_bodies(rng, touching_packing(rng, shapes, int(rng.integers(4, 9))))
        is_ts, unresolved = ts_reference(bodies)
        if is_ts:
            continue
        calls.clear()
        res = is_ts_packing(bodies)
        assert calls and (res.is_ts, sorted(res.unresolved)) == (False, unresolved)
        refuted += 1
    assert refuted >= 3


def _plain_clearance(cert, bodies) -> float:
    """Smallest clearance of the certificate's left members below its line
    and right members above it, in plain Python."""
    (nx, ny), s = map(float, cert.plane.normal), cert.plane.offset
    out = math.inf
    for members, below in ((cert.left, True), (cert.right, False)):
        for m in members:
            pts, r, _ = _plain_features(bodies[m])
            proj = [nx * x + ny * y for x, y in pts]
            out = min(out, (s - max(proj) if below else min(proj) - s) - r)
    return out


def test_ts_certificates_act_like_a_dict(rng, monkeypatch):
    """TSResult.certificates is a read-only mapping that acts like a dict of
    one line per split pair i < j in np.triu_indices order. On random
    touching packings and packings of members apart, some certified or
    refuted only in the second stage of _refine, len, iteration, keys,
    items() and dict() give the keys reconstructed in plain Python from the
    unresolved pairs; a lookup gives the line that items() gives, and that
    line splits its pair with its margin. (j, i), unresolved pairs and any
    other key, one with a float entry too, raise KeyError."""
    calls = []

    def counted(*args):
        calls.append(1)
        return _critical_angles(*args)

    monkeypatch.setattr(separability, "_critical_angles", counted)
    seen = {"TS in stage two": 0, "refuted": 0}
    for t in range(36):
        poly = random_convex_polygon(rng, 6, 0.6)
        shapes = [ConvexBody.disk((0.0, 0.0), 0.5), poly.translate(-poly.centroid())]
        if t % 3 < 2:
            bodies = move_bodies(rng, touching_packing(rng, shapes[t % 2 :], int(rng.integers(3, 9))))
        else:
            # apart: pairs that are not near get no best direction
            bodies = []
            for c in rng.uniform(-3.0, 3.0, (40, 2)):
                b = shapes[int(rng.integers(2))].translate(c)
                if len(bodies) < 7 and all(pair_separation(b, o) > 1e-6 for o in bodies):
                    bodies.append(b)
        n = len(bodies)
        calls.clear()
        res = is_ts_packing(bodies)
        seen["TS in stage two"] += res.is_ts and bool(calls)
        seen["refuted"] += not res.is_ts
        certs = res.certificates
        keys = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in res.unresolved]
        assert isinstance(certs, Mapping) and not isinstance(certs, dict), t
        assert len(certs) == len(keys) and list(certs) == keys and list(certs.keys()) == keys, t
        # lookups first, then items(): every line is built in one pass on the first read
        looked = dict(certs)
        items = certs.items()
        assert list(looked) == keys and len(items) == len(keys) and [key for key, _ in items] == keys, t
        assert res.is_ts == (len(certs) == n * (n - 1) // 2), t
        for (i, j), cert in items:
            got = looked[i, j]
            assert (got.plane.normal == cert.plane.normal).all() and got.plane.offset == cert.plane.offset, t
            assert (got.left, got.right, got.margin) == (cert.left, cert.right, cert.margin), t
            assert (i in cert.left) != (j in cert.left) and sorted(cert.left + cert.right) == list(range(n))
            assert abs(_plain_clearance(cert, bodies) - cert.margin) <= 1e-9, t
            assert (i, j) in certs and (j, i) not in certs
            with pytest.raises(KeyError):
                certs[j, i]
        for key in list(res.unresolved) + [(0, n), (-1, 0), (0, 0), (n - 1, n), (0, 1, 2), "01", 0, (0.5, 1), (1.0, 2)]:
            assert key not in certs, (t, key)
            with pytest.raises(KeyError):
                certs[key]
    assert min(seen.values()) >= 4, seen


def test_rho_separability_matches_ts_of_each_neighbourhood(rng):
    """is_rho_separable prices pairs through the reference (_pair_table);
    each member's neighbourhood, by plain-Python gauges, handed to
    is_ts_packing as bodies (every feature pair priced) gives the same
    verdict, failing member and neighbourhoods. Blocks of the lattice of K
    are TS; in the next kind of packing the block's last member sits a row
    up, moved along the row by part of a step, over two members of the top
    row; the third kind is translates attached at random (touching_packing)."""
    seen = set()
    for t in range(72):
        ref = ConvexBody.disk((0.0, 0.0), 1.0) if t % 5 == 4 else random_symmetric_polygon(rng)
        rows, cols = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        centers = ts_lattice_subset(rng, ref, rows, cols)
        if t % 3 == 1:
            u, v = centers[1] - centers[0], centers[cols] - centers[0]
            centers[-1] += v - float(rng.uniform(0.2, 0.8)) * u
        elif t % 3 == 2:
            members = touching_packing(rng, [ref], rows * cols)
            centers = np.array([b.center if b.kind == "disk" else b.vertices[0] - ref.vertices[0] for b in members])
        rho = (3.0, 4.0, 5.0)[t // 3 % 3]
        hoods = {
            m: tuple(q for q, d in enumerate(centers)
                     if q != m and _plain_gauge(ref, *(d - c)) <= rho - 1.0 + 1e-9)
            for m, c in enumerate(centers)
        }
        failing = [
            m for m, nb in hoods.items()
            if nb and not is_ts_packing([ref.translate(centers[q]) for q in (m,) + nb]).is_ts
        ]
        res = is_rho_separable(ref, centers, rho)
        assert (res.separable, res.failing_member) == (not failing, failing[0] if failing else None), t
        assert res.neighborhoods == hoods, t
        seen.add(res.separable)

        pts, rad = _member_features([ref])
        feats = pts[0] + centers[:, None, :], np.repeat(rad, len(centers))
        i, j = np.triu_indices(len(centers), 1)
        extent = float((feats[0].max(axis=(0, 1)) - feats[0].min(axis=(0, 1))).max() + 2.0 * rad[0])
        table = _pair_table(pts[0])
        gaps = _pair_gaps(feats, i, j, table)[0]
        assert np.abs(gaps - _pair_gaps(feats, i, j)[0]).max() <= 1e-12 * extent, t
        # the critical angles from the table are those from every feature pair,
        # to rounding: each angle of either set lies next to one of the other
        few, every = (_critical_angles(*feats, i, j, np.empty(0), r) for r in (table, None))
        apart = np.abs(np.remainder(few[:, None] - every[None, :] + 0.5 * math.pi, math.pi) - 0.5 * math.pi)
        assert max(apart.min(axis=0).max(), apart.min(axis=1).max()) <= 1e-12, t
    assert seen == {True, False}


def test_rho_prices_only_its_near_pairs(rng, monkeypatch):
    """At rho = 3 on a block of the lattice of a regular 12-gon,
    is_rho_separable prices (_pair_gaps) at most the near pairs of
    _translate_gauges, not every pair sharing a neighbourhood."""
    ang = np.arange(12) * math.pi / 6.0
    ref = ConvexBody.polygon(np.column_stack([np.cos(ang), np.sin(ang)]))
    centers = ts_lattice_subset(rng, ref, 12, 12)
    priced = []
    pair_gaps = separability._pair_gaps

    def counted(feats, i, j, rows=None):
        priced.append(len(i))
        return pair_gaps(feats, i, j, rows)

    monkeypatch.setattr(separability, "_pair_gaps", counted)
    assert is_rho_separable(ref, centers, 3.0).separable
    near = len(separability._translate_gauges(ref, centers, 1.0, EPS)[0])
    assert 0 < sum(priced) <= near


def test_rho_needs_no_clearance_of_a_pair_apart_by_less_than_tol(rng):
    """A square of diameter 1e-3 in a 2 x 1420 block of its lattice, wider
    than 1, so the cut tolerance t is about 1e-9 while gauges compare with
    1e-9 itself. The last corner member, moved up or right by a clearance
    inside (0, t], is no neighbour of the member below or left of it, and
    not near it, but the two share a neighbourhood. is_rho_separable, which
    prices the near pairs only, gives the verdict of _refine handed every
    pair sharing a neighbourhood."""
    side = 1e-3 / math.sqrt(2.0)
    ref = ConvexBody.polygon(0.5 * side * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
    cols = 1420
    grid = side * np.stack(np.meshgrid(np.arange(cols), np.arange(2.0)), axis=-1).reshape(-1, 2)
    pts, rad = _member_features([ref])
    rows = _pair_table(pts[0])
    for t in range(6):
        centers, up = grid.copy(), t % 2
        centers[-1, up] += float(rng.uniform(0.1, 0.9)) * EPS
        feats = pts[0] + centers[:, None, :], np.repeat(rad, len(centers))
        tol = _scaled_tol(*feats, EPS)
        apart = len(centers) - 1 - (cols if up else 1), len(centers) - 1
        gap = _pair_gaps(feats, [apart[0]], [apart[1]], rows)[0][0]
        assert 0.0 < gap <= tol, t
        i, j, gauge = separability._translate_gauges(ref, centers, 1.0, EPS)
        table, hoods = separability._neighbourhoods(len(centers), *(x[gauge <= 2.0 + EPS] for x in (i, j)))
        a, b = separability._row_pairs(table, len(centers))
        shared = set(zip(a.tolist(), b.tolist()))
        assert apart in shared - set(zip(i.tolist(), j.tolist())), t
        live = separability._refine(feats, table, (a, b) + _pair_gaps(feats, a, b, rows), tol, rows)[0]
        res = is_rho_separable(ref, centers, 3.0)
        assert (res.separable, res.failing_member) == (not len(live), int(live[0]) if len(live) else None), t
        assert res.neighborhoods == hoods, t


def _brute_near(lo, hi, tol: float) -> list:
    """Pairs a < b whose rows of projections meet on every column once each
    is enlarged by tol and by the round-off allowance of _near_pairs."""
    if len(lo) < 2:
        return []
    reach = 2.0 * tol + 64.0 * np.finfo(float).eps * max(np.abs(lo).max(), np.abs(hi).max())
    lo, hi = lo.tolist(), hi.tolist()
    return [
        (a, b) for a in range(len(lo)) for b in range(a + 1, len(lo))
        if all(lo[b][c] <= hi[a][c] + reach and lo[a][c] <= hi[b][c] + reach for c in range(len(lo[a])))
    ]


def test_near_pairs_match_a_brute_force_box_test(rng):
    tol = 1e-3
    cases = [np.zeros((0, 2)), np.zeros((1, 2)), np.array([[0.0, 0.0], [1.0 + 2.0 * tol, 0.5]])]
    for t in range(60):
        n = int(rng.integers(2, 40))
        cols = 2 if t % 2 else 4
        lo = rng.uniform(0.0, 6.0, (n, cols))
        if t % 3 == 0:
            lo[:, 0] = np.round(lo[:, 0])  # ties in the sweep column
        cases.append(lo)
    # boxes exactly tol apart, in a row and in a column, and one chain 3 tol apart
    step = np.arange(6.0)[:, None] * (1.0 + tol)
    cases += [np.hstack([step, np.zeros((6, 1))]), np.hstack([np.zeros((6, 1)), step]),
              np.arange(6.0)[:, None].repeat(2, axis=1) * (1.0 + 3.0 * tol)]
    for lo in cases:
        for shift in (0.0, 1e6):
            lo_s, hi_s = lo + shift, lo + shift + 1.0
            i, j = _near_pairs(lo_s, hi_s, tol)
            assert list(zip(i.tolist(), j.tolist())) == _brute_near(lo_s, hi_s, tol)
    # boxes tol apart meet once each is enlarged by tol; 3 tol apart do not
    i, j = _near_pairs(cases[-3] + 1.0, cases[-3] + 2.0, tol)
    assert list(zip(i.tolist(), j.tolist())) == [(a, a + 1) for a in range(5)]
    assert len(_near_pairs(cases[-1], cases[-1] + 1.0, tol)[0]) == 0
    # more candidates than one block of the sweep
    lo = np.column_stack([rng.uniform(0.0, 1.0, 420), rng.uniform(0.0, 60.0, 420)])
    hi = lo + (2.0, 1.0)
    assert (420 * 419) // 2 > _BLOCK
    i, j = _near_pairs(lo, hi, tol)
    assert list(zip(i.tolist(), j.tolist())) == _brute_near(lo, hi, tol)


def test_ls_on_a_ten_thousand_disk_spiral_prices_o_n_pairs(monkeypatch):
    centers = polyomino_packing(10_000).centers
    n = len(centers)
    bodies = [ConvexBody.disk(c, 0.5) for c in centers]
    priced = []
    pair_gaps = separability._pair_gaps

    def counted(feats, i, j):
        priced.append(len(i))
        return pair_gaps(feats, i, j)

    monkeypatch.setattr(separability, "_pair_gaps", counted)
    res = is_ls_packing(bodies)
    assert res.is_ls and not res.failing_members
    assert 0 < sum(priced) <= 3 * n
    edges = contact_graph(ConvexBody.disk((0.0, 0.0), 0.5), centers).edges
    nbs = {m: [] for m in range(n)}
    for a, b in edges:
        nbs[a].append(b)
        nbs[b].append(a)
    assert res.neighborhoods == {m: tuple(sorted(q)) for m, q in nbs.items()}
    assert tangency_pairs(bodies) == list(edges)


def _scaled_bodies(bodies, s: float) -> list:
    return [ConvexBody.disk(b.center * s, b.radius * s) if b.kind == "disk"
            else ConvexBody.polygon(b.vertices * s) for b in bodies]


def test_packing_verdicts_do_not_change_at_scale_two_to_the_minus_twenty(rng):
    """Scaling by 2^-20 is exact in binary, and the packing tolerances scale
    with the packing below unit extent, so every verdict stays the same. The
    grid's last column is 1e-4 clear of the others: with an absolute 1e-9
    that gap would count as a contact at 2^-20."""
    grid = [ConvexBody.disk((x, y), 0.5) for x in (0.0, 1.0, 2.0 + 1e-4) for y in range(3)]
    spiral = [ConvexBody.disk(c, 0.5) for c in polyomino_packing(30).centers]
    packings = [grid, spiral]
    while len(packings) < 22:
        poly = random_convex_polygon(rng, 6, 0.6)
        packings.append(touching_packing(rng, [poly.translate(-poly.centroid())], int(rng.integers(3, 9))))
    for bodies in packings:
        small = _scaled_bodies(bodies, 2.0**-20)
        ts, ts_small = is_ts_packing(bodies), is_ts_packing(small)
        assert (ts.is_ts, ts.unresolved) == (ts_small.is_ts, ts_small.unresolved)
        ls, ls_small = is_ls_packing(bodies), is_ls_packing(small)
        assert (ls.failing_members, ls.neighborhoods) == (ls_small.failing_members, ls_small.neighborhoods)
        assert tangency_pairs(bodies) == tangency_pairs(small)
        assert len(tangency_pairs(bodies)) >= len(bodies) - 1


def _homothet_reference(rng, trial: int) -> ConvexBody:
    """A disk, an o-symmetric polygon or a polygon with 3 to 12 vertices."""
    if trial % 3 == 0:
        return ConvexBody.disk(rng.normal(size=2) * 0.3, float(rng.uniform(0.5, 1.5)))
    if trial % 3 == 1:
        return random_symmetric_polygon(rng, int(rng.integers(2, 7)))
    return random_convex_polygon(rng, int(rng.integers(3, 13)))


def test_homothet_path_matches_member_bodies(rng):
    """A planar HomothetFamily is decided through its reference and the pair
    table; its member bodies go through every k^2 feature difference. The
    verdict, directions_checked and witness sides are the same, and the
    witness lines agree to 1e-12. The table has at most 2k rows and holds
    every vertex of tau' K - tau K."""
    for trial in range(150):
        ref = _homothet_reference(rng, trial)
        n = int(rng.integers(2, 41))
        if trial % 2:
            fam = ns_family(rng, ref, n)
        else:
            fam = HomothetFamily(ref, rng.normal(size=(n, 2)) * rng.uniform(1.0, 6.0), rng.uniform(0.2, 1.5, n))
        feats = _member_features([ref])[0][0]
        table = separability._pair_table(feats)
        assert len(table) <= 2 * len(feats)
        tau = rng.uniform(0.2, 1.5, 2)
        every = (tau[1] * feats[None, :, :] - tau[0] * feats[:, None, :]).reshape(-1, 2)
        kept = tau[1] * feats[table[:, 1]] - tau[0] * feats[table[:, 0]]
        hull = _strict_hull(every) if len(every) > 2 else every
        assert all((np.abs(kept - v).max(axis=1) == 0.0).any() for v in hull), trial
        a, b = is_non_separable(fam), is_non_separable(fam.bodies())
        assert (a.non_separable, a.directions_checked) == (b.non_separable, b.directions_checked), trial
        assert (a.witness is None) == (b.witness is None), trial
        if a.witness is not None:
            assert (a.witness.left, a.witness.right) == (b.witness.left, b.witness.right), trial
            assert np.abs(a.witness.plane.normal - b.witness.plane.normal).max() <= 1e-12, trial
            assert a.witness.plane.offset == pytest.approx(b.witness.plane.offset, rel=1e-12, abs=1e-12)


def _thin_polygon(rng) -> ConvexBody:
    """A random polygon squeezed by a factor 1e-1 to 1e-4 across a random
    direction, or a parallelogram sheared to an angle of 1e-1 to 1e-3."""
    if rng.random() < 0.5:
        a = float(rng.uniform(0.0, math.pi))
        turn = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        squeeze = np.diag([1.0, 10.0 ** -rng.uniform(1.0, 4.0)])
        return random_convex_polygon(rng, int(rng.integers(3, 9))).transform(turn @ squeeze @ turn.T)
    s = 10.0 ** -rng.uniform(1.0, 3.0)
    return ConvexBody.polygon([[0.0, 0.0], [1.0, s], [2.0, 3.0 * s], [1.0, 2.0 * s]])


def _scaled_family(k: ConvexBody, centers, ratios, scale: float, shift: float) -> HomothetFamily:
    """The family tau_i K + x_i scaled by scale about the origin, then moved by (shift, shift)."""
    if k.kind == "disk":
        k = ConvexBody.disk(k.center * scale, k.radius * scale)
    elif scale != 1.0:
        k = k.transform(scale * np.eye(2))
    return HomothetFamily(k, centers * scale + shift, ratios)


def test_overlap_step_merges_only_members_that_meet(rng):
    """is_non_separable merges two homothets before pricing their arc when
    their projections meet on every edge normal of K (disks: center
    distance at most the radius sum). Each pair it flags meets up to the
    round-off that tol carries (_scaled_tol at tol 0), so its arc is empty:
    pair_separation is at most that round-off. It misses no pair that
    overlaps by more. The pairs are drawn near touching, x_b = x_a + s (p -
    q) with p in tau_a K, q in tau_b K and s around 1, or p and q vertices
    and s = 1, and each is repeated scaled by 1e-6 and 1e6 and moved by
    1e6."""
    flagged = missed = 0
    for trial in range(600):
        kind = trial % 3
        if kind == 0:
            k = ConvexBody.disk(rng.normal(size=2) * 3.0, float(rng.uniform(0.3, 1.5)))
        else:
            k = random_convex_polygon(rng, int(rng.integers(3, 13))) if kind == 1 else _thin_polygon(rng)
        ratios = rng.uniform(0.2, 1.5, 2)
        if k.kind == "polygon" and trial % 2:
            p, q = (r * k.vertices[rng.integers(len(k.vertices))] for r in ratios)
            s = 1.0
        else:
            p, q = (r * point_inside(rng, k) for r in ratios)
            s = float(rng.uniform(0.5, 1.5))
        centers = np.array([[0.0, 0.0], s * (p - q)])
        for scale, shift in ((1.0, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e6)):
            fam = _scaled_family(k, centers, ratios, scale, shift)
            pts, rad, _, _ = separability._homothet_features(fam)
            meets = bool(separability._meeting(fam.reference, pts, rad)(np.array([0]), np.array([1]))[0])
            gap = pair_separation(*fam.bodies())
            round_off = _scaled_tol(pts, rad, 0.0)
            if meets:
                flagged += 1
                assert gap <= round_off, (trial, scale, shift, gap, round_off)
            else:
                missed += gap <= 0.0
                assert gap >= -round_off, (trial, scale, shift, gap, round_off)
    assert flagged >= 1500 and missed <= flagged // 10, (flagged, missed)


def _ns_heavy_families(rng):
    """Families that the overlaps decide: chains where each member overlaps
    an earlier one, off-origin disk chains, exactly touching unit-square
    lattices (whole, or with a column moved off by 1e-3, then split), and
    chains scaled by 1e-6 or moved by 1e6."""
    square = ConvexBody.polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for trial in range(120):
        kind = trial % 4
        if kind == 0:
            rows, cols = (int(v) for v in rng.integers(1, 6, 2))
            centers = np.array([[x, y] for x in range(cols + 1) for y in range(rows)], dtype=float)
            if trial % 8 == 4:
                centers[centers[:, 0] == cols, 0] += 1e-3
            yield HomothetFamily(square, centers)
            continue
        if kind == 1:
            k = ConvexBody.disk(rng.normal(size=2) * 3.0, float(rng.uniform(0.5, 1.5)))
        else:
            k = random_convex_polygon(rng, int(rng.integers(3, 13))) if kind == 2 else _thin_polygon(rng)
        fam = ns_family(rng, k, int(rng.integers(2, 41)))
        yield fam
        yield _scaled_family(k, fam.centers, fam.ratios, *((1e-6, 0.0) if trial % 2 else (1.0, 1e6)))


def test_overlap_step_answers_as_every_arc(rng):
    """On families that the overlaps decide, the homothet path (overlaps
    first) and the list-of-bodies path (every arc priced) give the same
    verdict, directions_checked and witness; a family that the overlaps
    connect is NS with no direction swept."""
    decided = 0
    for fam in _ns_heavy_families(rng):
        a, b = is_non_separable(fam), is_non_separable(fam.bodies())
        assert (a.non_separable, a.directions_checked) == (b.non_separable, b.directions_checked)
        assert (a.witness is None) == (b.witness is None)
        if a.witness is not None:
            assert (a.witness.left, a.witness.right) == (b.witness.left, b.witness.right)
            assert np.abs(a.witness.plane.normal - b.witness.plane.normal).max() <= 1e-12
            assert a.witness.plane.offset == pytest.approx(b.witness.plane.offset, rel=1e-12, abs=1e-12)
        decided += a.non_separable and a.directions_checked == 0
    assert decided >= 150


def test_connected_overlaps_price_no_arc(rng, monkeypatch):
    """A homothet family whose members that meet connect it is NS before
    any arc is priced or the tolerance is scaled; a split one prices arcs
    only across the components that the overlaps leave."""
    fams = [ns_family(rng, k, 32) for k in (random_symmetric_polygon(rng, 12), ConvexBody.disk((1.0, 2.0), 1.0))]
    fams.append(HomothetFamily(ConvexBody.segment((0.0, 0.0), (1.0, 0.0)), [[0.0, 0.0], [0.5, 0.0], [1.2, 0.0]]))

    def refuse(*args, **kwargs):
        raise AssertionError("arc priced")

    with monkeypatch.context() as m:
        m.setattr(separability, "_arcs", refuse)
        m.setattr(separability, "_scaled_tol", refuse)
        for fam in fams:
            assert is_non_separable(fam) == separability.NSDecision(True, None, 0, False)
    rows = []
    arcs = separability._arcs
    monkeypatch.setattr(separability, "_arcs", lambda p, rad: rows.append(len(p)) or arcs(p, rad))
    k = random_symmetric_polygon(rng, 12)
    halves = [ns_family(rng, k, 16) for _ in range(2)]
    shift = 2.0 * (np.abs(halves[0].centers).max() + np.abs(halves[1].centers).max()) + 8.0 * np.abs(k.vertices).max()
    fam = HomothetFamily(k, np.vstack([halves[0].centers, halves[1].centers + [shift, 0.0]]),
                         np.concatenate([halves[0].ratios, halves[1].ratios]))
    dec = is_non_separable(fam)
    assert not dec.non_separable and set(dec.witness.left) in ({*range(16)}, {*range(16, 32)})
    assert sum(rows) == 16 * 16


def test_segment_references_answer_as_recorded():
    """Segment references, whose two vertices are the only features: the
    overlap step tests the segment's normal and its direction, so collinear
    segments that are apart stay split. The answers are those recorded
    before the overlap step."""
    unit_x, tilted = ConvexBody.segment((0.0, 0.0), (1.0, 0.0)), ConvexBody.segment((0.0, 0.0), (1.0, 0.2))
    apart = is_non_separable(HomothetFamily(unit_x, [[0.0, 0.0], [2.0, 0.0]]))
    assert (apart.non_separable, apart.directions_checked) == (False, 2)
    assert apart.witness.margin == pytest.approx(0.5, abs=1e-12)
    assert is_non_separable(HomothetFamily(unit_x, [[0.0, 0.0], [0.5, 0.0]])).non_separable
    three = is_non_separable(HomothetFamily(tilted, [[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]]))
    assert (three.non_separable, three.directions_checked) == (False, 6)
    assert is_non_separable(HomothetFamily(tilted, [[0.0, 0.0], [0.5, 0.1]])).non_separable


def test_sampled_searches_refuse_dimension_four():
    """The sampled searches draw their sphere points in 3-D, so two
    4-simplices raise GeometryError in every search that reaches them, not a
    numpy shape error."""
    low = ConvexBody.polytope(np.eye(4))
    high = low.translate(np.full(4, 5.0))
    for search in (lambda: is_non_separable([low, high]),
                   lambda: is_non_separable(HomothetFamily(low, [np.zeros(4), np.full(4, 5.0)])),
                   lambda: find_separating_hyperplane([low], [high]),
                   lambda: kirchberger_reduce([low], [high]),
                   lambda: is_sns([low, high])):
        with pytest.raises(GeometryError, match="dimension 3 only, not 4"):
            search()


def test_three_dimensional_segments_are_decided():
    """Segments in space are priced by their endpoints alone: two parallel
    unit segments 2 apart along z are split along their offset, 1 clear of
    each, and two that cross are NS."""
    low, high = ConvexBody.segment((0, 0, 0), (1, 0, 0)), ConvexBody.segment((0, 0, 2), (1, 0, 2))
    dec = is_non_separable([low, high])
    assert not dec.non_separable and dec.approximate
    assert {dec.witness.left, dec.witness.right} == {(0,), (1,)}
    assert dec.witness.margin == pytest.approx(1.0, abs=1e-12)
    cert = find_separating_hyperplane([low], [high])
    assert cert is not None and strictly_separates(cert.plane, [low], [high])
    assert cert.margin == pytest.approx(1.0, abs=1e-12)
    assert kirchberger_reduce([low], [high]).separable
    assert not is_sns([low, high]).is_sns

    a, b = ConvexBody.segment((-1, 0, 0), (1, 0, 0)), ConvexBody.segment((0, -1, 0), (0, 1, 0))
    dec = is_non_separable([a, b])
    assert dec.non_separable and dec.witness is None and dec.approximate
    assert find_separating_hyperplane([a], [b]) is None
    red = kirchberger_reduce([a], [b])
    assert not red.separable and red.witness == ((0,), (0,))
    assert is_sns([a, b]) == separability.SNSResult(True, (0, 1))


def test_three_dimensional_verdicts_do_not_change_with_scale():
    """The sampled searches compare with tol scaled by min(1, extent of the
    family) as the planar ones do: two unit cubes 0.5 apart are split, and
    two touching ones are not, at every scale 2^k."""
    unit_cube = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
    for k in (-40, -20, 0, 20):
        s = 2.0**k
        cube = ConvexBody.polytope(s * unit_cube)
        apart, touching = cube.translate((1.5 * s, 0.0, 0.0)), cube.translate((s, 0.0, 0.0))
        cert = find_separating_hyperplane([cube], [apart])
        assert cert is not None and cert.margin == pytest.approx(0.25 * s, rel=1e-12), k
        dec = is_non_separable([cube, apart])
        assert not dec.non_separable and dec.witness.margin == pytest.approx(0.25 * s, rel=1e-12), k
        assert find_separating_hyperplane([cube], [touching]) is None, k
        assert is_non_separable([cube, touching]).non_separable, k


# five tetrahedra that find_separating_hyperplane splits at margin 3.92e-3,
# the first two on the left
FIVE_TETRAHEDRA = [
    [[-0.19, -0.304, 1.369], [0.52, 0.183, 2.056], [-0.155, 0.434, 1.44], [-0.042, 0.976, 1.919]],
    [[0.068, 2.124, 2.045], [0.512, 1.838, 2.256], [0.662, 2.991, 1.917], [0.157, 1.797, 2.544]],
    [[0.852, 0.332, 2.399], [0.563, -0.327, 2.204], [0.329, 0.256, 1.786], [0.991, 0.22, 1.838]],
    [[2.567, 0.272, 0.594], [2.174, 0.101, 0.616], [2.961, 0.542, 0.14], [2.747, 0.887, 0.955]],
    [[3.117, 1.737, -0.33], [2.595, 1.913, 0.318], [3.154, 2.019, 0.564], [2.308, 2.212, 1.013]],
]


def test_three_dimensional_reduction_reads_no_direct_test(monkeypatch):
    """In d = 3 the separation test behind kirchberger_reduce and is_sns
    projects each member once and never calls find_separating_hyperplane:
    the five tetrahedra reduce separable, as the direct test splits them,
    and of two chains of touching unit cubes 1e3 apart each chain is SNS
    and the pair of chains is not, but is split by the reduction."""
    bodies = [ConvexBody.polytope(t) for t in FIVE_TETRAHEDRA]
    assert find_separating_hyperplane(bodies[:2], bodies[2:]).margin == pytest.approx(3.92e-3, abs=1e-5)

    def direct(*args, **kwargs):
        raise AssertionError("the d = 3 reduction called find_separating_hyperplane")

    monkeypatch.setattr(separability, "find_separating_hyperplane", direct)
    assert kirchberger_reduce(bodies[:2], bodies[2:]) == separability.KirchbergerResult(True, None, 1)
    cube = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
    chain = [ConvexBody.polytope(cube + (i, 0.0, 0.0)) for i in range(4)]
    far = [b.translate((1e3, 0.0, 0.0)) for b in chain]
    assert is_sns(chain) == separability.SNSResult(True, (0, 1, 2, 3))
    assert is_sns(chain + far) == separability.SNSResult(False, None)
    assert kirchberger_reduce(chain, far) == separability.KirchbergerResult(True, None, 56)
    assert kirchberger_reduce(chain[:2], chain[2:]) == separability.KirchbergerResult(False, ((0, 1), (0, 1)), 1)


def test_three_dimensional_reduction_splits_wherever_the_direct_test_does(rng):
    """The d = 3 separation test reads every direction of
    find_separating_hyperplane at its default, at the same threshold, so on
    random families of 5-7 tetrahedra kirchberger_reduce is separable
    wherever the direct test finds a plane."""
    planes = 0
    for _ in range(300):
        n = int(rng.integers(5, 8))
        bodies = [ConvexBody.polytope(c + 0.5 * rng.normal(size=(4, 3))) for c in rng.uniform(0.0, 3.0, (n, 3))]
        n1 = int(rng.integers(1, n))
        if find_separating_hyperplane(bodies[:n1], bodies[n1:]) is not None:
            planes += 1
            assert kirchberger_reduce(bodies[:n1], bodies[n1:]).separable
    assert planes >= 50, planes


def test_candidate_directions_do_not_change_with_scale():
    """Feature differences are dropped below the round-off of the features,
    not below an absolute length, so the candidate directions of two random
    tetrahedra are the same to the bit at every scale 2^k."""
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    want = candidate_directions([ConvexBody.polytope(a), ConvexBody.polytope(b)])
    assert len(want) == 56
    for k in (-45, -20, 0, 20):
        got = candidate_directions([ConvexBody.polytope(2.0**k * a), ConvexBody.polytope(2.0**k * b)])
        assert np.array_equal(got, want), k


def test_mixed_dimensions_are_refused():
    """Members of different dimensions are refused where their features are
    built, not with a numpy broadcast error."""
    disk = ConvexBody.disk((0.0, 0.0), 1.0)
    cube = ConvexBody.polytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    for search in (lambda: find_separating_hyperplane([disk], [cube]),
                   lambda: is_non_separable([disk, cube]),
                   lambda: kirchberger_reduce([disk], [cube]),
                   lambda: is_sns([cube, disk])):
        with pytest.raises(GeometryError, match="members must share one dimension"):
            search()
