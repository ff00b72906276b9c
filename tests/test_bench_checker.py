"""Every spherical, total-separability, non-separability and separating-line
certificate passes the benchmark's independent checker."""

import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np

from helpers import (
    disk_bodies,
    random_reference,
    random_symmetric_polygon,
    tangent_cap_chain,
    thirteen_ts_centers,
    ts_lattice_subset,
)
from sepgeom.bodies import ConvexBody
from sepgeom.packing import polyomino_packing
from sepgeom.separability import find_separating_hyperplane, is_non_separable, is_ts_packing
from sepgeom.spherical import (
    Cap,
    cap_cover_check,
    cuboctahedral_packing,
    enclosing_cap,
    is_ts_cap_packing,
    octahedral_packing,
)

BENCH = Path(__file__).resolve().parents[1] / "verdictbench"


def _bench_module(name: str):
    """verdictbench/<name>.py loaded by path under its own name, which is how
    the benchmark's modules import each other: load a module's imports first."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


def _raw(caps) -> list:
    return [(tuple(map(float, c.center)), c.radius) for c in caps]


def test_spherical_certificates_pass_the_checker(rng):
    ck = _bench_module("checker")
    for packing in (octahedral_packing(), cuboctahedral_packing()):
        for _ in range(5):
            q, r = np.linalg.qr(rng.normal(size=(3, 3)))
            rot = q * np.sign(np.diag(r))
            caps = [Cap(rot @ c.center, c.radius) for c in packing]
            raw = _raw(caps)
            res = is_ts_cap_packing(caps)
            assert res.is_ts and len(res.certificates) == len(caps) * (len(caps) - 1) // 2
            for (i, j), pole in res.certificates.items():
                ck.check_cap_pair_circle(tuple(map(float, pole)), raw, i, j, 1e-8)
    for k in range(3, 8):
        caps = tangent_cap_chain(rng, k)
        rep = cap_cover_check(caps)
        ck.check_enclosing_cap(tuple(map(float, rep.center)), rep.radius, _raw(caps))
        center, radius = enclosing_cap(caps[1:])
        ck.check_enclosing_cap(tuple(map(float, center)), radius, _raw(caps[1:]))


def _raw_body(body: ConvexBody):
    if body.kind == "disk":
        return ("disk", tuple(map(float, body.center)), body.radius)
    return ("poly", [tuple(map(float, v)) for v in body.vertices])


def test_ts_certificates_pass_the_checker(rng):
    ck, gen, wl = (_bench_module(name) for name in ("checker", "inputs", "workloads"))
    packings = [
        disk_bodies([(2.0 * i, 2.0 * j) for i in range(3) for j in range(3)], 1.0),
        disk_bodies(thirteen_ts_centers(), 0.5),
        disk_bodies(polyomino_packing(30).centers, 0.5),
    ]
    for _ in range(4):
        ref = random_symmetric_polygon(rng)
        packings.append([ref.translate(c) for c in ts_lattice_subset(rng, ref, 3, 4)])
    motion = random.Random(0)
    for blk in wl.make_ts(1)["blocks"]:
        for moved in (blk, gen.move_block(gen.rigid_motion(motion), blk)):
            k = ConvexBody.polygon(moved["poly"])
            packings.append([k.translate(c) for c in np.array(moved["centers"])])
    for bodies in packings:
        n, raw = len(bodies), [_raw_body(b) for b in bodies]
        tol = 1e-9 * ck.scale_of(raw)
        res = is_ts_packing(bodies)
        assert res.is_ts and len(res.certificates) == n * (n - 1) // 2
        for (i, j), cert in res.certificates.items():
            normal, offset = tuple(map(float, cert.plane.normal)), cert.plane.offset
            ck.check_pair_line(normal, offset, raw, i, j, tol)
            assert sorted(cert.left + cert.right) == list(range(n))
            assert (i in cert.left) != (j in cert.left)
            # left members below the line, right members above it
            clearance = ck.line_clearance(
                normal, offset, [raw[m] for m in cert.left], [raw[m] for m in cert.right]
            )
            assert clearance >= -tol and abs(clearance - cert.margin) <= tol


def _moved(rng, bodies) -> list:
    """The bodies under a random rotation and a translation by 1e3."""
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    shift = 1e3 * np.array([math.cos(2.0 * ang), math.sin(2.0 * ang)])
    return [b.transform(rot, shift) for b in bodies]


def test_split_certificates_pass_the_checker(rng):
    """NS witnesses and separating lines of random disk and polygon families,
    rotated and moved by 1e3, pass checker.check_split."""
    ck = _bench_module("checker")
    witnesses = lines = 0
    for _ in range(60):
        ref, n = random_reference(rng), int(rng.integers(2, 13))
        # members spread so that some families are separable and some not
        centers = rng.uniform(0.0, 1.2 * math.sqrt(n), size=(n, 2))
        bodies = [ref.transform(np.eye(2) * rng.uniform(0.3, 1.0), c) for c in centers]
        for fam in (bodies, _moved(rng, bodies)):
            dec = is_non_separable(fam)
            if dec.witness is not None:
                w = dec.witness
                ck.check_split(tuple(w.plane.normal), w.plane.offset, [_raw_body(b) for b in fam],
                               w.left, w.right, w.margin)
                witnesses += 1
        # the members above a random line, lifted clear of the rest along its normal
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        u = np.array([math.cos(ang), math.sin(ang)])
        above = centers @ u > np.median(centers @ u)
        if above.all() or not above.any():
            continue
        lifted = [b.translate(4.0 * u) if up else b for b, up in zip(bodies, above)]
        order = [m for m in range(n) if not above[m]] + [m for m in range(n) if above[m]]
        pair = _moved(rng, [lifted[m] for m in order])
        n1 = int((~above).sum())
        cert = find_separating_hyperplane(pair[:n1], pair[n1:])
        assert cert is not None and list(cert.left) == list(range(n1))
        ck.check_split(tuple(cert.plane.normal), cert.plane.offset, [_raw_body(b) for b in pair],
                       cert.left, cert.right, cert.margin)
        lines += 1
    assert 40 <= witnesses <= 100 and lines >= 30
