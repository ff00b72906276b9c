"""The benchmark's workloads: seeded batches of verdicts and their checks.

Each workload is split in two steps so set-up can be timed on its own:
``make_<workload>(seed)`` draws the raw inputs in plain Python, and
``build_<workload>(raw)`` imports sepgeom and turns them into program
objects and a list of ``Op``s. An op is one decision: a zero-argument call
into the program plus a check that raises ``checker.CheckError`` when the
returned verdict is wrong.
"""

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import checker as ck
import inputs as gen

# Fixed size schedules; shapes come from gen.shapes, and the seed picks only rigid motions.
NS_SIZES = (3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 28, 32)
SPREAD_SIZES = (4, 8, 16, 24)
KIRCHBERGER_SIZES = (4, 4, 5, 5) * 3
SNS_SIZES = (4, 5, 6)
CAP_CHAIN_SIZES = (3, 4, 5, 6)
SPIRAL_SIZES = (6, 12, 20, 30, 49, 100)
LATTICE_BLOCKS = ((2, 2, 3), (2, 3, 4), (3, 3, 5), (2, 4, 6), (3, 4, 3), (4, 4, 4))
CAP_ROTATIONS = 5
# rho = 3 puts exactly the touching neighbours into each neighbourhood (diagonal
# neighbours sit at gauge distance > 2), so the work does not depend on the seed.
RHO = 3.0


@dataclass
class Op:
    name: str
    call: Callable
    check: Callable  # check(result) raises checker.CheckError on a wrong verdict
    known_fault: bool = False
    meta: dict = field(default_factory=dict)


def _raw_member_bodies(fam: dict) -> list:
    return [ck.homothet(fam["ref"], c, t) for c, t in zip(fam["centers"], fam["ratios"])]


# ---------------------------------------------------------------------------
# ns-arrangements
# ---------------------------------------------------------------------------


def make_ns(seed: int) -> dict:
    shape, rng = gen.shapes("ns-arrangements"), random.Random(f"ns-arrangements/{seed}")
    fams = []
    for n in NS_SIZES:
        for kind in ("disk", "poly"):
            fams.append(gen.ns_family(shape, gen.reference(shape, kind, 3 + n % 4), n))
    for n in SPREAD_SIZES:
        for kind in ("disk", "poly"):
            fams.append(gen.spread_family(shape, gen.reference(shape, kind, 3 + n % 4), n))
    fams = [gen.move_family(gen.rigid_motion(rng), f) for f in fams]
    kb = []
    for i, n in enumerate(KIRCHBERGER_SIZES):
        m = gen.rigid_motion(rng)
        bodies = [gen.move_body(m, b) for b in gen.mixed_bodies(shape, n, i % 2 == 0)]
        kb.append((bodies, 2, i % 2 == 0))
    sns = []
    for n in SNS_SIZES:
        m = gen.rigid_motion(rng)
        sns.append([gen.move_point(m, c) for c in gen.sns_disk_chain(shape, n)])
    chains = [gen.rotate_caps(gen.random_rotation(rng), gen.tangent_cap_chain(shape, k)) for k in CAP_CHAIN_SIZES]
    return {"families": fams, "kirchberger": kb, "sns": sns, "chains": chains}


def _body(sg, raw):
    if raw[0] == "disk":
        return sg.ConvexBody.disk(raw[1], raw[2])
    return sg.ConvexBody.polygon(raw[1])


def _family(sg, np, fam):
    return sg.HomothetFamily(_body(sg, fam["ref"]), np.array(fam["centers"]), np.array(fam["ratios"]))


def _check_ns(fam):
    bodies = _raw_member_bodies(fam)

    def check(dec):
        ck.require(not dec.approximate, "planar decision flagged approximate")
        if fam["ns"]:
            ck.require(dec.non_separable, "non-separable family judged separable")
            ck.require(dec.witness is None, "non-separable verdict carries a witness")
            return
        ck.require(not dec.non_separable, "spread family judged non-separable")
        w = dec.witness
        ck.require(w is not None, "separable verdict without a witness line")
        ck.check_split(tuple(w.plane.normal), w.plane.offset, bodies, w.left, w.right, w.margin)

    return check


def _check_gg(fam):
    ref, cs, ts = fam["ref"], fam["centers"], fam["ratios"]
    tot = sum(ts)
    scale = ck.scale_of(_raw_member_bodies(fam))

    def check(cov):
        ck.require(abs(cov.ratio - tot) <= 1e-12 * tot, f"ratio {cov.ratio} is not the ratio sum {tot}")
        want = (sum(t * c[0] for c, t in zip(cs, ts)) / tot, sum(t * c[1] for c, t in zip(cs, ts)) / tot)
        ck.require(
            math.dist(tuple(cov.center), want) <= 1e-12 * scale, "center is not the weighted centroid"
        )
        p = ck.cover_protrusion(ref, cs, ts, tuple(cov.center), cov.ratio)
        if fam["ns"]:
            ck.require(cov.contains_all, "weighted-centre cover of an NS family reported not covering")
            ck.require(p <= 1e-9 * scale, f"weighted-centre cover misses a member by {p:.3e}")
        elif abs(p) > 1e-7 * scale:
            ck.require(cov.contains_all == (p <= 0.0), "containment flag disagrees with the protrusion")

    return check


def _check_min_cover(fam):
    ref, cs, ts = fam["ref"], fam["centers"], fam["ratios"]
    tot = sum(ts)
    scale = ck.scale_of(_raw_member_bodies(fam))
    lower = ck.cover_lower_bound(ref, cs, ts)
    upper = ck.cover_upper_bound(ref, cs, ts)

    def check(cov):
        p = ck.cover_protrusion(ref, cs, ts, tuple(cov.center), cov.ratio)
        ck.require(cov.contains_all, "smallest cover reported not covering")
        ck.require(p <= 1e-7 * scale, f"smallest cover misses a member by {p:.3e}")
        ck.require(cov.ratio >= lower - 1e-7 * lower, f"ratio {cov.ratio} below width bound {lower}")
        ck.require(cov.ratio <= upper + 1e-7 * upper, f"ratio {cov.ratio} above a known cover {upper}")
        ck.require(abs(cov.normalized - cov.ratio / tot) <= 1e-12 * cov.normalized, "normalized ratio")
        if fam["ns"]:
            ck.require(cov.normalized <= 1.0 + 1e-7, f"NS family needs ratio {cov.normalized} > 1")

    return check


def _check_direct(bodies, n1, separable):
    def check(cert):
        if not separable:
            ck.require(cert is None, "bodies whose interiors meet given a separating line")
            return
        ck.require(cert is not None, "separable bodies given no separating line")
        ck.require(list(cert.left) == list(range(n1)), "first family not on the left of the line")
        n = tuple(cert.plane.normal)
        ck.check_split(n, cert.plane.offset, bodies, cert.left, cert.right, cert.margin)
        # the built-in slab gives a line with margin >= want; the program polishes
        # its best margin between candidate directions and was seen 5e-5 short
        want = 0.5 * gen.KIRCHBERGER_SLAB
        ck.require(cert.margin >= want * (1.0 - 1e-3), f"best margin {cert.margin} well below the built-in {want}")

    return check


def _check_kirchberger(bodies, n1, separable):
    n = len(bodies)
    refuted = {}  # witness -> sampled gap, computed once per run

    def check(red):
        ck.require(red.separable == separable, f"reduction says separable={red.separable}, built {separable}")
        if separable:
            ck.require(red.witness is None, "separable verdict carries a witness")
            return
        a, b = red.witness
        ck.require(a and b and len(a) + len(b) <= 4, "witness is not a small two-sided subfamily")
        ck.require(all(0 <= i < n1 for i in a) and all(0 <= j < n - n1 for j in b), "witness index")
        key = (tuple(a), tuple(b))
        if key not in refuted:
            refuted[key] = ck.sampled_gap([bodies[i] for i in a], [bodies[n1 + j] for j in b])
        ck.require(refuted[key] <= 1e-9, f"witness subfamily is separable (gap {refuted[key]:.3e})")

    return check


def _check_sns(centers, radius):
    def check(res):
        ck.require(res.is_sns, "tangent-attached chain judged not SNS")
        order = list(res.ordering)
        ck.require(sorted(order) == list(range(len(centers))), "ordering is not a permutation")
        for k in range(1, len(order)):
            d = ck.hull_distance(centers[order[k]], [centers[i] for i in order[:k]])
            ck.require(d <= 2.0 * radius + 1e-9, f"member {order[k]} is separable from its prefix")

    return check


def _check_cap_cover(caps):
    total = sum(r for _, r in caps)

    def check(rep):
        ck.require(rep.split_check.non_separable, "tangent cap chain judged separable")
        ck.require(abs(rep.total_radius - total) <= 1e-12, "total radius")
        ck.check_enclosing_cap(tuple(rep.center), rep.radius, caps)
        ck.require(rep.slack >= 0.0, f"cap-cover slack {rep.slack} < 0")
        ck.require(abs(rep.slack - (total - rep.radius)) <= 1e-12, "slack is not total - radius")

    return check


def build_ns(raw: dict) -> list:
    import numpy as np

    import sepgeom as sg

    ops = []
    for i, fam in enumerate(raw["families"]):
        f = _family(sg, np, fam)
        tag = f"{fam['ref'][0]}{len(fam['centers'])}{'' if fam['ns'] else '-spread'}#{i}"
        ops.append(Op(f"is_non_separable/{tag}", lambda f=f: sg.is_non_separable(f), _check_ns(fam)))
        ops.append(Op(f"goodman_goodman_cover/{tag}", lambda f=f: sg.goodman_goodman_cover(f), _check_gg(fam)))
        ops.append(Op(f"min_cover_ratio/{tag}", lambda f=f: sg.min_cover_ratio(f), _check_min_cover(fam)))
    for i, (bodies, n1, separable) in enumerate(raw["kirchberger"]):
        objs = [_body(sg, b) for b in bodies]
        first, second = objs[:n1], objs[n1:]
        tag = f"{len(bodies)}{'' if separable else '-overlap'}#{i}"
        ops.append(
            Op(
                f"find_separating_hyperplane/{tag}",
                lambda a=first, b=second: sg.find_separating_hyperplane(a, b),
                _check_direct(bodies, n1, separable),
            )
        )
        ops.append(
            Op(
                f"kirchberger_reduce/{tag}",
                lambda a=first, b=second: sg.kirchberger_reduce(a, b),
                _check_kirchberger(bodies, n1, separable),
            )
        )
    for i, centers in enumerate(raw["sns"]):
        objs = [sg.ConvexBody.disk(c, 1.0) for c in centers]
        ops.append(Op(f"is_sns/{len(centers)}#{i}", lambda b=objs: sg.is_sns(b), _check_sns(centers, 1.0)))
    for i, caps in enumerate(raw["chains"]):
        objs = [sg.Cap(np.array(c), r) for c, r in caps]
        ops.append(Op(f"cap_cover_check/{len(caps)}#{i}", lambda c=objs: sg.cap_cover_check(c), _check_cap_cover(caps)))
    return ops


# ---------------------------------------------------------------------------
# ts-packings
# ---------------------------------------------------------------------------


def make_ts(seed: int) -> dict:
    shape, rng = gen.shapes("ts-packings"), random.Random(f"ts-packings/{seed}")
    spirals = [gen.moved_spiral(rng, n) for n in SPIRAL_SIZES]
    blocks = [
        gen.move_block(gen.grid_motion(rng), gen.lattice_block(shape, rows, cols, k))
        for rows, cols, k in LATTICE_BLOCKS
    ]
    caps = []
    for base in (gen.octahedral_caps(), gen.cuboctahedral_caps()):
        for _ in range(CAP_ROTATIONS):
            caps.append(gen.rotate_caps(gen.random_rotation(rng), base))
    return {"spirals": spirals, "blocks": blocks, "caps": caps}


def _check_ls(centers):
    edges = ck.unit_contacts(centers)
    nbs = {i: [] for i in range(len(centers))}
    for i, j in edges:
        nbs[i].append(j)
        nbs[j].append(i)

    def check(res):
        ck.require(res.is_ls and not res.failing_members, "spiral packing judged not locally separable")
        for i in range(len(centers)):
            ck.require(list(res.neighborhoods[i]) == sorted(nbs[i]), f"neighbourhood of member {i}")

    return check


def _check_contacts(edges, want=None):
    def check(g):
        got = sorted(tuple(map(int, e)) for e in g.edges)
        ck.require(g.count == len(got), "count disagrees with the edge list")
        ck.require(got == edges, f"contact edges differ: {len(got)} reported, {len(edges)} recomputed")
        if want is not None:
            ck.require(g.count == want, f"{g.count} contacts, expected {want}")

    return check


def _check_ts(bodies):
    n = len(bodies)
    tol = 1e-9 * ck.scale_of(bodies)

    def check(res):
        ck.require(res.is_ts and not res.unresolved, f"TS lattice block judged not TS {res.unresolved[:3]}")
        ck.require(len(res.certificates) == n * (n - 1) // 2, "missing pair certificates")
        for (i, j), cert in res.certificates.items():
            ck.check_pair_line(tuple(cert.plane.normal), cert.plane.offset, bodies, i, j, tol)

    return check


def _check_rho(poly, centers, rho):
    n = len(centers)
    want = {
        i: tuple(
            j
            for j in range(n)
            if j != i
            and ck.gauge(poly, centers[j][0] - centers[i][0], centers[j][1] - centers[i][1]) <= rho - 1.0 + 1e-9
        )
        for i in range(n)
    }

    def check(res):
        ck.require(res.separable, f"TS lattice block judged not {rho}-separable")
        ck.require(dict(res.neighborhoods) == want, "rho-neighbourhoods differ")

    return check


def _check_oler(block, loop):
    poly, centers = block["poly"], block["centers"]
    pts = [centers[i] for i in loop]
    enclosed = abs(ck.signed_area(pts))
    length = sum(
        ck.gauge(poly, pts[(i + 1) % len(pts)][0] - pts[i][0], pts[(i + 1) % len(pts)][1] - pts[i][1])
        for i in range(len(pts))
    )
    body_area = abs(ck.signed_area(poly))

    def check(rep):
        ck.require(rep.slack >= -1e-9, f"Oler slack {rep.slack} < -1e-9")
        ck.require(abs(rep.enclosed_area - enclosed) <= 1e-9 * enclosed, "enclosed area")
        ck.require(abs(rep.norm_length - length) <= 1e-9 * length, "norm length of the loop")
        ck.require(rep.pgram_area >= body_area * (1.0 - 1e-9), "parallelogram smaller than the body")
        ck.require(rep.pgram_area <= block["cell_area"] * (1.0 + 1e-9), "parallelogram larger than the lattice tile")
        lhs = rep.enclosed_area / rep.pgram_area + rep.norm_length / 4.0 + 1.0
        ck.require(abs(rep.lhs - lhs) <= 1e-9 * lhs and abs(rep.slack - (lhs - len(centers))) <= 1e-9 * lhs, "lhs")

    return check


def _check_cap_ts(caps):
    n = len(caps)

    def check(res):
        ck.require(res.is_ts and not res.unresolved and not res.refuted, "cap packing judged not TS")
        ck.require(len(res.certificates) == n * (n - 1) // 2, "missing pair circles")
        for (i, j), pole in res.certificates.items():
            ck.check_cap_pair_circle(tuple(pole), caps, i, j, 1e-8)

    return check


def build_ts(raw: dict) -> list:
    import numpy as np

    import sepgeom as sg

    ops = []
    half = sg.ConvexBody.disk((0.0, 0.0), 0.5)
    for i, centers in enumerate(raw["spirals"]):
        n = len(centers)
        arr = np.array(centers)
        bodies = [sg.ConvexBody.disk(c, 0.5) for c in arr]
        ops.append(Op(f"is_ls_packing/spiral{n}#{i}", lambda b=bodies: sg.is_ls_packing(b), _check_ls(centers)))
        ops.append(
            Op(
                f"contact_graph/spiral{n}#{i}",
                lambda c=arr: sg.contact_graph(half, c),
                _check_contacts(ck.unit_contacts(centers), ck.spiral_bound(n)),
            )
        )
    for i, blk in enumerate(raw["blocks"]):
        k = sg.ConvexBody.polygon(blk["poly"])
        arr = np.array(blk["centers"])
        bodies = [k.translate(c) for c in arr]
        raw_bodies = [ck.translate(("poly", blk["poly"]), c) for c in blk["centers"]]
        tag = f"{blk['rows']}x{blk['cols']}k{len(blk['poly'])}#{i}"
        rows, cols = blk["rows"], blk["cols"]
        hull = ck.convex_hull(blk["centers"])
        loop = [blk["centers"].index(p) for p in hull]
        ops.append(Op(f"is_ts_packing/{tag}", lambda b=bodies: sg.is_ts_packing(b), _check_ts(raw_bodies)))
        ops.append(
            Op(
                f"contact_graph/{tag}",
                lambda k=k, c=arr: sg.contact_graph(k, c),
                _check_contacts(ck.gauge_contacts(blk["poly"], blk["centers"]), rows * (cols - 1) + cols * (rows - 1)),
            )
        )
        ops.append(
            Op(
                f"is_rho_separable/{tag}",
                lambda k=k, c=arr: sg.is_rho_separable(k, c, RHO),
                _check_rho(blk["poly"], blk["centers"], RHO),
            )
        )
        ops.append(Op(f"oler_check/{tag}", lambda k=k, c=arr, l=loop: sg.oler_check(k, c, l), _check_oler(blk, loop)))
    for i, caps in enumerate(raw["caps"]):
        objs = [sg.Cap(np.array(c), r) for c, r in caps]
        ops.append(Op(f"is_ts_cap_packing/{len(caps)}#{i}", lambda c=objs: sg.is_ts_cap_packing(c), _check_cap_ts(caps)))
    return ops


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

# A family with a NaN center. Non-finite input should be refused with exit
# code 3; it does not depend on the seed.
NAN_FAMILY = {
    "body": {"type": "disk", "center": [0.0, 0.0], "radius": 1.0},
    "centers": [[0.0, 0.0], [float("nan"), 0.0], [1.5, 0.0]],
}


def _poly_json(poly) -> dict:
    return {"type": "polygon", "vertices": [list(p) for p in poly]}


def _family_json(fam) -> dict:
    ref = fam["ref"]
    body = {"type": "disk", "center": list(ref[1]), "radius": ref[2]} if ref[0] == "disk" else _poly_json(ref[1])
    return {
        "reference": body,
        "members": [{"center": list(c), "ratio": t} for c, t in zip(fam["centers"], fam["ratios"])],
    }


def make_cli(seed: int) -> dict:
    shape, rng = gen.shapes("cli-cold"), random.Random(f"cli-cold/{seed}")
    ns = gen.ns_family(shape, gen.reference(shape, "poly", 4), 8)
    cover = gen.ns_family(shape, gen.reference(shape, "disk", 0), 8)
    return {
        "ns": gen.move_family(gen.rigid_motion(rng), ns),
        "cover": gen.move_family(gen.rigid_motion(rng), cover),
        "ts": gen.move_block(gen.rigid_motion(rng), gen.lattice_block(shape, 2, 3, 4)),
        "spiral": gen.moved_spiral(rng, 16),
        "contact": gen.move_block(gen.rigid_motion(rng), gen.lattice_block(shape, 3, 3, 4)),
        "chain": gen.rotate_caps(gen.random_rotation(rng), gen.tangent_cap_chain(shape, 4)),
    }


def _payload(out: str, rc: int, want_rc: int) -> dict:
    ck.require(rc == want_rc, f"exit code {rc}, expected {want_rc}")
    return json.loads(out)


def _cli_checks(raw: dict) -> list:
    """(name, argv, stdin object or None, check(rc, stdout), known_fault) per call."""
    ns, cover = raw["ns"], raw["cover"]
    ts_poly, ts_centers = raw["ts"]["poly"], raw["ts"]["centers"]
    ts_bodies = [ck.translate(("poly", ts_poly), c) for c in ts_centers]
    ct_poly, ct_centers = raw["contact"]["poly"], raw["contact"]["centers"]
    ct_edges = ck.gauge_contacts(ct_poly, ct_centers)
    chain = raw["chain"]
    cover_scale = ck.scale_of(_raw_member_bodies(cover))

    def check_ns(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["non_separable"] is True and p["witness"] is None, "NS family judged separable")
        ck.require(p["approximate"] is False, "planar decision flagged approximate")

    def check_cover(rc, out):
        p = _payload(out, rc, 0)
        gg, best = p["goodman_goodman"], p["smallest"]
        ck.require(gg["contains_all"] and best["contains_all"], "a cover misses a member")
        ck.require(abs(gg["ratio"] - sum(cover["ratios"])) <= 1e-12 * gg["ratio"], "weighted-centre ratio")
        prot = ck.cover_protrusion(cover["ref"], cover["centers"], cover["ratios"], best["center"], best["ratio"])
        ck.require(prot <= 1e-7 * cover_scale, f"smallest cover misses a member by {prot:.3e}")
        ck.require(best["normalized"] <= 1.0 + 1e-7, "NS family needs normalized ratio > 1")

    def check_ts(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["is_ts"] and not p["unresolved"], "TS lattice block judged not TS")
        n = len(ts_centers)
        ck.require(len(p["certificates"]) == n * (n - 1) // 2, "missing pair certificates")
        tol = 1e-9 * ck.scale_of(ts_bodies)
        for key, plane in p["certificates"].items():
            i, j = map(int, key.split(","))
            ck.check_pair_line(tuple(plane["normal"]), plane["offset"], ts_bodies, i, j, tol)

    def check_ls(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["is_ls"] is True and p["failing_members"] == [], "spiral judged not locally separable")

    def check_contact(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["contacts"] == 12 and sorted(map(tuple, p["edges"])) == ct_edges, "contact edges")
        ck.require(p["within_bound"] is True, "3x3 block reported above the contact bound")

    def check_caps(rc, out):
        p = _payload(out, rc, 0)["cover"]
        ck.require(p["applicable"] and p["holds"] and p["slack"] >= 0.0, "cap cover bound")
        ck.check_enclosing_cap(tuple(p["center"]), p["radius"], chain)

    def check_tammes(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["exact"] and abs(p["radius"] - math.asin(1.0 / math.sqrt(3.0))) <= 1e-12, "tammes k=8")

    def check_density(rc, out):
        p = _payload(out, rc, 0)
        ck.require(abs(p["separable_density"] - 1.0) <= 1e-9, f"square density {p['separable_density']}")

    def check_lattice(rc, out):
        p = _payload(out, rc, 0)
        ck.require(p["max_contacts"] == 12 and p["brute_force_max"]["9"] == 12, "9 cells give 12 contacts")

    def check_nan(rc, out):
        ck.require(rc == 3, f"NaN center answered with exit code {rc}, expected 3")

    spiral_json = {"body": {"type": "disk", "center": [0.0, 0.0], "radius": 0.5}, "centers": raw["spiral"]}
    return [
        ("check-ns", ["check-ns", "-"], _family_json(ns), check_ns, False),
        ("cover", ["cover", "-"], _family_json(cover), check_cover, False),
        ("verify-ts", ["verify-ts", "-"], {"body": _poly_json(ts_poly), "centers": ts_centers}, check_ts, False),
        ("verify-ls", ["verify-ls", "-"], spiral_json, check_ls, False),
        ("contact", ["contact", "-"], {"body": _poly_json(ct_poly), "centers": ct_centers}, check_contact, False),
        (
            "caps --check cover",
            ["caps", "-", "--check", "cover"],
            {"caps": [{"center": list(c), "radius_rad": r} for c, r in chain]},
            check_caps,
            False,
        ),
        ("tammes --k 8", ["tammes", "--k", "8"], None, check_tammes, False),
        ("density --body square", ["density", "--body", "square"], None, check_density, False),
        ("lattice --n 9 --brute", ["lattice", "--n", "9", "--brute"], None, check_lattice, False),
        ("check-ns nan-center", ["check-ns", "-"], NAN_FAMILY, check_nan, True),
    ]


def cli_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def build_cli(raw: dict, src: str) -> list:
    """Ops that each start one ``python -m sepgeom.cli`` process.

    The main process still imports sepgeom and parses every input with the
    program's own readers, so set-up covers the same work as in the other
    workloads.
    """
    import numpy as np

    import sepgeom as sg

    env = cli_env(src)
    ops = []
    for name, argv, obj, check, fault in _cli_checks(raw):
        text = None if obj is None else json.dumps(obj)
        if obj is not None and not fault:
            if "caps" in obj:
                for c in obj["caps"]:
                    sg.Cap(np.array(c["center"]), c["radius_rad"])
            elif "members" in obj:
                sg.family_from_json(obj)
            else:
                sg.HomothetFamily(sg.body_from_json(obj["body"]), np.array(obj["centers"]))

        def call(argv=argv, text=text):
            p = subprocess.run(
                [sys.executable, "-m", "sepgeom.cli", *argv],
                input=text,
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            return p.returncode, p.stdout, p.stderr

        ops.append(
            Op(name, call, lambda r, c=check: c(r[0], r[1]), known_fault=fault, meta={"argv": argv, "stdin": text})
        )
    return ops


def in_process(ops) -> list:
    """The cli-cold ops, run through ``sepgeom.cli.main`` in this process."""
    import contextlib
    import io

    from sepgeom import cli

    def run(argv, text):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.main(argv)
                    rc = 0
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.stdin = stdin
        return rc, out.getvalue(), err.getvalue()

    return [
        Op(op.name, lambda a=op.meta["argv"], t=op.meta["stdin"]: run(a, t), op.check, op.known_fault, op.meta)
        for op in ops
    ]
