"""Every spherical and total-separability certificate passes the
benchmark's independent checker."""

import importlib.util
import random
import sys
from pathlib import Path

import numpy as np

from helpers import (
    disk_bodies,
    random_symmetric_polygon,
    tangent_cap_chain,
    thirteen_ts_centers,
    ts_lattice_subset,
)
from sepgeom.bodies import ConvexBody
from sepgeom.packing import polyomino_packing
from sepgeom.separability import is_ts_packing
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
