"""Every spherical certificate passes the benchmark's independent checker."""

import importlib.util
from pathlib import Path

import numpy as np

from helpers import tangent_cap_chain
from sepgeom.spherical import (
    Cap,
    cap_cover_check,
    cuboctahedral_packing,
    enclosing_cap,
    is_ts_cap_packing,
    octahedral_packing,
)

CHECKER = Path(__file__).resolve().parents[1] / "verdictbench" / "checker.py"


def _checker():
    spec = importlib.util.spec_from_file_location("verdictbench_checker", CHECKER)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    return checker


def _raw(caps) -> list:
    return [(tuple(map(float, c.center)), c.radius) for c in caps]


def test_spherical_certificates_pass_the_checker(rng):
    ck = _checker()
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
