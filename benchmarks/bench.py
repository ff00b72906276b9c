"""Committed performance numbers for sepgeom, written to a BENCH_<n>.json.

Run from the root of a checkout:

    python3 benchmarks/bench.py --out BENCH_14.json --label change
    python3 benchmarks/bench.py --out BENCH_14.json --label parent --src ../parent

``--src`` names the checkout to measure (by default the one holding this
script). Each run stores its rows under its label and keeps the other
labels of the file, so a parent and a change sit side by side. Rows:

- ``workload/<name>``: the last line of ``verdictbench/run.py`` of the
  measured checkout for each workload, at seed SEED for SECONDS seconds;
- ``<call>/<input>/<n>``: one library call on one input of size n, each in
  a fresh interpreter, the best of 3 ``perf_counter`` wall times, with the
  interpreter's peak RSS; inputs are drawn by ``verdictbench/inputs.py``
  of this checkout. The best of 3 reuses one input, so a reference body's
  derived geometry is built in the first try only; the ``-cold`` rows
  rebuild the reference inside each timed call;
- ``cli/<command>``: the wall time of one ``python -m sepgeom.cli`` process
  per call, best of 3, on the inputs of the ``cli-cold`` workload;
- ``import``: ``import sepgeom.cli`` in a fresh interpreter, best of 3:
  what a CLI call loads before its subcommand imports its own submodules;
- ``import/all``: ``import sepgeom; from sepgeom import *``, the whole
  library, in a fresh interpreter, best of 3.

Each run also records whether the interpreters could use bytecode caches:
``sys.dont_write_bytecode`` and whether ``src/sepgeom/__pycache__`` of the
measured checkout existed when the run started. Without caches every fresh
interpreter compiles each module it imports, which the cli rows include.

``--smallest`` runs each call row at its smallest size, one try each, and
each workload for 1 s: a check that the script runs, not a measurement.
"""

import argparse
import functools
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
BENCH = HERE / "verdictbench"
WORKLOADS = ("ns-arrangements", "ts-packings", "cli-cold")
SEED = 1
SECONDS = 40.0
TRIES = 3


def _family(sg, np, fam):
    ref = fam["ref"]
    body = sg.ConvexBody.disk(ref[1], ref[2]) if ref[0] == "disk" else sg.ConvexBody.polygon(ref[1])
    return sg.HomothetFamily(body, np.array(fam["centers"]), np.array(fam["ratios"]))


def _homothets(kind: str, spread: bool):
    """A family of n homothets of a 24-gon (an o-symmetric polygon of 2 x 12
    vertices) or a disk from verdictbench's generators (random.Random(3)):
    non-separable, or split and pulled apart."""

    def draw(sg, np, gen, n):
        rng = random.Random(3)
        ref = gen.reference(rng, kind, 12)
        return _family(sg, np, (gen.spread_family if spread else gen.ns_family)(rng, ref, n))

    return draw


def _segments(sg, np, gen, n):
    rng = np.random.default_rng(3)
    return [sg.ConvexBody.segment(*rng.normal(size=(2, 2))) for _ in range(n // 2)]


def _spiral(sg, np, gen, n):
    return [sg.ConvexBody.disk(c, 0.5) for c in gen.square_spiral(n)]


def _polyominoes(sg, np, gen, n):
    return [sg.ConvexBody.disk(c, 0.5) for c in sg.packing.polyomino_packing(n).centers]


def _lattice(sg, np, gen, n):
    """(K, centers): an r x r block (n = r^2) of translates of a 12-gon
    lattice cell from verdictbench's generators (random.Random(3))."""
    r = round(n**0.5)
    blk = gen.lattice_block(random.Random(3), r, r, 6)
    return sg.ConvexBody.polygon(blk["poly"]), np.array(blk["centers"])


def _lattice_bodies(sg, np, gen, n):
    """The members of _lattice's block as bodies."""
    k, centers = _lattice(sg, np, gen, n)
    return [k.translate(c) for c in centers]


def _regular(sg, np, gen, n):
    """The regular n-gon of circumradius 1, a vertex on the x axis."""
    ang = 2.0 * np.pi * np.arange(n) / n
    return sg.ConvexBody.polygon(np.column_stack([np.cos(ang), np.sin(ang)]))


def _caps(name: str):
    """The octahedral or cuboctahedral cap packing of sepgeom.spherical."""
    return lambda sg, np, gen, n: getattr(sg, f"{name}_packing")()


def _random_caps(sg, np, gen, n):
    """n caps of radius 0.01 about seeded unit centers (default_rng(3)),
    spread over a third of the sphere, so that an enclosing cap exists."""
    rng = np.random.default_rng(3)
    return [sg.Cap(c, 0.01) for c in np.array([0.0, 0.0, 1.0]) + 0.5 * rng.normal(size=(n, 3))]


def _mixed(sg, np, gen, n):
    """(first, second): verdictbench's separable mixed_bodies instance of n
    disks and polygons (random.Random(3)), its first two bodies on one side."""
    bodies = [
        sg.ConvexBody.disk(b[1], b[2]) if b[0] == "disk" else sg.ConvexBody.polygon(b[1])
        for b in gen.mixed_bodies(random.Random(3), n, True)
    ]
    return bodies[:2], bodies[2:]


def _two_chains(sg, np, gen, n):
    """Two SNS chains of n / 2 unit disks each (random.Random(3)), 1e4 apart,
    so the family is not SNS and every start is tried."""
    chain = np.array(gen.sns_disk_chain(random.Random(3), n // 2))
    return [sg.ConvexBody.disk(c, 1.0) for c in np.vstack([chain, chain + [1e4, 0.0]])]


def _tetrahedra(sg, np, gen, n):
    """(first, second): n unit corner tetrahedra 3 apart along x, the first
    n / 2 on one side, so the families are split and every subfamily of
    d + 2 = 5 members is tested."""
    corner = np.vstack([np.zeros(3), np.eye(3)])
    bodies = [sg.ConvexBody.polytope(corner + (3.0 * i, 0.0, 0.0)) for i in range(n)]
    return bodies[: n // 2], bodies[n // 2 :]


def _cube_chains(sg, np, gen, n):
    """Two chains of n / 2 touching unit cubes along x, 1e3 apart along y,
    so the family is not SNS and every start is tried."""
    cube = np.array([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=float)
    return [sg.ConvexBody.polytope(cube + (i, y, 0.0)) for y in (0.0, 1e3) for i in range(n // 2)]


def _unpacked(path: str, *extra):
    """The call sepgeom.<path>(*arg, *extra) on a tuple input arg, for CALLS."""
    return lambda sg: lambda arg: functools.reduce(getattr, path.split("."), sg)(*arg, *extra)


def _fresh(sg, k):
    """A body equal to k built afresh, with none of k's derived geometry."""
    return sg.ConvexBody.disk(k.center, k.radius) if k.kind == "disk" else sg.ConvexBody.polygon(k.vertices)


def _cold(path: str, *extra):
    """_unpacked on a (K, centers) input, or sepgeom.<path>(family), with the
    reference K rebuilt from its vertices inside the timed call: what a
    one-shot call pays, derived geometry of K included."""

    def call(sg):
        func = functools.reduce(getattr, path.split("."), sg)

        def cold(arg):
            if isinstance(arg, tuple):
                return func(_fresh(sg, arg[0]), *arg[1:], *extra)
            return func(sg.HomothetFamily(_fresh(sg, arg.reference), arg.centers, arg.ratios), *extra)

        return cold

    return call


# name -> (sizes, input builder (sg, np, gen, n), the call: an attribute path in
# sepgeom, called on the input, or _unpacked)
CALLS = {
    "is_non_separable/ns-24gon": ((32, 128, 256, 512), _homothets("poly", False), "is_non_separable"),
    "is_non_separable/spread-24gon": ((32, 128, 256, 512), _homothets("poly", True), "is_non_separable"),
    "is_non_separable/ns-disk": ((32, 128, 256, 512), _homothets("disk", False), "is_non_separable"),
    "is_non_separable/spread-disk": ((32, 128, 256, 512), _homothets("disk", True), "is_non_separable"),
    "min_cover_ratio/ns-disk": ((32, 128, 256), _homothets("disk", False), "min_cover_ratio"),
    "min_cover_ratio/ns-24gon": ((32, 128, 256), _homothets("poly", False), "min_cover_ratio"),
    "inscribed_disk/regular": ((12, 512), _regular, "measures.inscribed_disk"),
    "hull_circumradius/points": ((64, 192, 400), _segments, "measures.hull_circumradius"),
    "is_ts_packing/polyomino": ((1000, 2000), _polyominoes, "is_ts_packing"),
    "is_ts_packing/spiral": ((1000, 10000), _spiral, "is_ts_packing"),
    "is_ts_packing/lattice-12gon": ((100, 256), _lattice_bodies, "is_ts_packing"),
    "is_ts_cap_packing/octahedral": ((8,), _caps("octahedral"), "is_ts_cap_packing"),
    "is_ts_cap_packing/cuboctahedral": ((6,), _caps("cuboctahedral"), "is_ts_cap_packing"),
    "caps_non_separable/random": ((8, 64, 160), _random_caps, "caps_non_separable"),
    "enclosing_cap/random": ((8, 64, 160), _random_caps, "enclosing_cap"),
    "is_ls_packing/spiral": ((10000,), _spiral, "is_ls_packing"),
    "is_rho_separable/lattice-12gon": ((900, 3600), _lattice, _unpacked("is_rho_separable", 3.0)),
    "contact_graph/lattice-12gon": ((10000,), _lattice, _unpacked("contact_graph")),
    "is_rho_separable/lattice-12gon-cold": ((16, 900), _lattice, _cold("is_rho_separable", 3.0)),
    "contact_graph/lattice-12gon-cold": ((16, 10000), _lattice, _cold("contact_graph")),
    "min_cover_ratio/ns-24gon-cold": ((8, 32), _homothets("poly", False), _cold("min_cover_ratio")),
    "kirchberger_reduce/mixed": ((16, 48), _mixed, _unpacked("kirchberger_reduce")),
    "is_sns/two-chains": ((16, 64), _two_chains, "is_sns"),
    "kirchberger_reduce/tetra3d": ((8, 16), _tetrahedra, _unpacked("kirchberger_reduce")),
    "is_sns/cube-chains3d": ((8, 24), _cube_chains, "is_sns"),
}


def _env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _child(name: str, n: int, tries: int) -> None:
    """Time one call row in this interpreter and print its JSON row."""
    sys.path.insert(0, str(BENCH))
    import numpy as np

    import inputs as gen
    import sepgeom as sg

    _, build, call = CALLS[name]
    arg = build(sg, np, gen, n)
    func = call(sg) if callable(call) else functools.reduce(getattr, call.split("."), sg)
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        func(arg)
        best = min(best, time.perf_counter() - t0)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"seconds": best, "peak_rss_mb": rss}))


IMPORTS = {
    "import": "import sepgeom.cli",
    "import/all": "import sepgeom; from sepgeom import *",
}


def _run(argv, src: Path, stdin=None, stderr=None) -> str:
    p = subprocess.run(
        argv, input=stdin, stdout=subprocess.PIPE, stderr=stderr, text=True, env=_env(src), cwd=src, check=True
    )
    return p.stdout


def measure(src: Path, smallest: bool) -> dict:
    rows = {}
    for w in WORKLOADS:
        out = _run([sys.executable, "verdictbench/run.py", "--workload", w, "--seed", str(SEED),
                    "--seconds", str(1.0 if smallest else SECONDS)], src)
        rows[f"workload/{w}"] = json.loads(out.strip().splitlines()[-1])
    tries = 1 if smallest else TRIES
    for name, (sizes, _, _) in CALLS.items():
        for n in sizes[:1] if smallest else sizes:
            out = _run([sys.executable, __file__, "--child", name, str(n), str(tries)], src)
            rows[f"{name}/{n}"] = json.loads(out)
    sys.path.insert(0, str(BENCH))
    import workloads as wl

    for name, argv, obj, _, fault in wl._cli_checks(wl.make_cli(SEED)):
        if fault:
            continue
        stdin = None if obj is None else json.dumps(obj)
        best = float("inf")
        for _ in range(tries):
            t0 = time.perf_counter()
            _run([sys.executable, "-m", "sepgeom.cli", *argv], src, stdin, subprocess.DEVNULL)
            best = min(best, time.perf_counter() - t0)
        rows[f"cli/{name}"] = {"seconds": best}
    for row, stmt in IMPORTS.items():
        code = f"import time; t = time.perf_counter(); {stmt}; print(time.perf_counter() - t)"
        rows[row] = {"seconds": min(float(_run([sys.executable, "-c", code], src)) for _ in range(tries))}
    return rows


def machine() -> dict:
    import numpy

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.exists() else []
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "cpu_model": next((s.split(":", 1)[1].strip() for s in lines if s.startswith("model name")), platform.processor()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "system": platform.platform(),
    }


def _commit(src: Path):
    p = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=src, capture_output=True, text=True)
    return p.stdout.strip() if p.returncode == 0 else None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="BENCH_<n>.json to write or extend (required)")
    ap.add_argument("--label", help="name of this run in the file, e.g. parent or change (required)")
    ap.add_argument("--src", type=Path, default=HERE, help="root of the checkout to measure")
    ap.add_argument("--smallest", action="store_true", help="smallest sizes, one try, 1 s workloads")
    ap.add_argument("--child", nargs=3, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        _child(args.child[0], int(args.child[1]), int(args.child[2]))
        return
    if not args.out or not args.label:
        ap.error("--out and --label are required")
    src = args.src.resolve()
    out = Path(args.out)
    report = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    report["machine"] = machine()
    report["runs"][args.label] = {
        "commit": _commit(src),
        "bytecode": {
            "dont_write_bytecode": sys.dont_write_bytecode,
            "pycache": (src / "src" / "sepgeom" / "__pycache__").is_dir(),
        },
        "seed": SEED,
        "seconds": 1.0 if args.smallest else SECONDS,
        "tries": 1 if args.smallest else TRIES,
        "rows": measure(src, args.smallest),
    }
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
