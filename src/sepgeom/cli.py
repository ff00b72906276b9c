"""Command line checks for separability, covering, packing, and density.

This module loads neither numpy nor ``bodies``: each subcommand imports
what it reads when it runs (see the note above the subcommands).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Mapping
from dataclasses import fields, is_dataclass

from ._errors import GeometryError

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 3


def _load(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GeometryError(f"cannot read {path}: {exc}") from exc


def _family(obj: dict):
    """The HomothetFamily of an input object."""
    import numpy as np

    from .bodies import HomothetFamily, body_from_json, family_from_json

    if "members" in obj:
        return family_from_json(obj)
    if "body" in obj and "centers" in obj:
        return HomothetFamily(
            reference=body_from_json(obj["body"]),
            centers=np.asarray(obj["centers"], dtype=float),
            ratios=np.asarray(obj["ratios"], dtype=float) if "ratios" in obj else None,
        )
    raise GeometryError('input needs either "members" or "body" plus "centers"')


def _translates(obj: dict):
    """The HomothetFamily of an input object whose members are translates."""
    fam = _family(obj)
    if not (fam.ratios == 1.0).all():
        raise GeometryError("the members must be translates: every ratio must be 1")
    return fam


def _caps(obj: dict) -> list:
    import numpy as np

    from .spherical import Cap

    try:
        return [Cap(np.asarray(c["center"], dtype=float), float(c["radius_rad"]))
                for c in obj["caps"]]
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed caps object: {exc}") from exc


def _jsonify(x):
    """x as JSON values. A report (a dataclass) gives its fields in order,
    then the provenance it records, when it has one. A numpy array or
    scalar gives its .tolist(), Python values, with no numpy import here."""
    if is_dataclass(x):
        out = {f.name: _jsonify(getattr(x, f.name)) for f in fields(x)}
        if hasattr(x, "provenance"):
            out["provenance"] = _jsonify(x.provenance)
        return out
    if hasattr(x, "tolist"):
        return x.tolist()
    if isinstance(x, Mapping):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    return x


def _emit(args, report, drawing=None, by=None, **keys) -> None:
    """Write report as strict JSON and, for svg output, the figure that
    drawing(svg) builds from the svg module, imported only then.

    report is a library report, or a dict of reports that takes the
    provenance of the report by. keys are added to its fields, or replace
    them where the printed shape differs from the report's.
    """
    payload = _jsonify(report) | _jsonify(keys)
    if by is not None:
        payload["provenance"] = _jsonify(by.provenance)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    if fmt in ("json", "both"):
        if out and fmt == "json":
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
    if fmt in ("svg", "both"):
        if drawing is None:
            raise GeometryError("this command has no drawing; use --format json")
        from . import svg

        body = drawing(svg).to_svg()
        if out:
            path = out if fmt == "svg" else out + ".svg"
            with open(path, "w") as fh:
                fh.write(body)
        else:
            print(body)
    if fmt == "both" and out:
        with open(out + ".json", "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# Each subcommand imports the submodules it reads, and no others, and numpy
# only through them. A cold process with no bytecode cache compiles every
# module it imports, so lattice and tammes, which read only the closed forms
# of bounds, load no numpy, and density and cover load no separability.
# The submodules come before the input is read: compiled first, their
# scratch memory is reused by the numpy modules that building the input
# loads, which lowers a cold call's peak RSS by up to 1.5 MB.


def cmd_check_ns(args) -> int:
    from . import separability

    fam = _family(_load(args.input))
    dec = separability.is_non_separable(fam, samples=args.samples, tol=args.tolerance)
    sns = {"sns": separability.is_sns(fam, tol=args.tolerance)} if args.sns else {}
    drawing = (lambda svg: svg.family_drawing(fam)) if fam.reference.dim == 2 else None
    _emit(args, dec, drawing, **sns)
    return EXIT_OK if dec.non_separable else EXIT_VIOLATED


def cmd_cover(args) -> int:
    from . import covering
    from .bodies import Homothet

    fam = _family(_load(args.input))
    gg = covering.goodman_goodman_cover(fam, tol=args.tolerance)
    best = covering.min_cover_ratio(fam, tol=args.tolerance)
    cover = Homothet(best.center, best.ratio, fam.reference)
    _emit(args, {"goodman_goodman": gg, "smallest": best},
          lambda svg: svg.family_drawing(fam, cover=cover.as_body()), by=best)
    return EXIT_OK if gg.contains_all and best.contains_all else EXIT_VIOLATED


def cmd_verify_ts(args) -> int:
    from . import separability

    fam = _family(_load(args.input))
    res = separability.is_ts_packing(fam.bodies(), tol=args.tolerance)
    planes = {f"{i},{j}": cert.plane for (i, j), cert in sorted(res.certificates.items())}
    _emit(args, res, lambda svg: svg.family_drawing(fam), certificates=planes)
    return EXIT_OK if res.is_ts else EXIT_VIOLATED


def cmd_verify_ls(args) -> int:
    from . import separability

    fam = _family(_load(args.input))
    res = separability.is_ls_packing(fam.bodies(), tol=args.tolerance)
    _emit(args, res, lambda svg: svg.family_drawing(fam))
    return EXIT_OK if res.is_ls else EXIT_VIOLATED


def cmd_rho_sep(args) -> int:
    from . import separability

    fam = _translates(_load(args.input))
    res = separability.is_rho_separable(fam.reference, fam.centers, args.rho, tol=args.tolerance)
    _emit(args, res, lambda svg: svg.family_drawing(fam))
    return EXIT_OK if res.separable else EXIT_VIOLATED


def cmd_oler(args) -> int:
    import numpy as np

    from . import packing

    obj = _load(args.input)
    fam = _translates(obj)
    if "loop" not in obj:
        raise GeometryError('input needs a "loop" list of center indices')
    rep = packing.oler_check(fam.reference, fam.centers, obj["loop"], tol=args.tolerance)

    def drawing(svg):
        dr = svg.family_drawing(fam)
        dr.polygon(fam.centers[np.asarray(obj["loop"], dtype=int)], stroke="#d62728", dash="on")
        return dr

    _emit(args, rep, drawing)
    return EXIT_OK if rep.holds else EXIT_VIOLATED


def _named_body(name: str):
    """The ConvexBody that --body names."""
    from .bodies import ConvexBody, body_from_json

    if name == "disk":
        return ConvexBody.disk((0.0, 0.0), 1.0)
    if name == "square":
        return ConvexBody.polygon([[1, 1], [-1, 1], [-1, -1], [1, -1]])
    if name == "triangle":
        return ConvexBody.polygon([[1, 0], [-0.5, math.sqrt(3) / 2], [-0.5, -math.sqrt(3) / 2]])
    if name.endswith(".json"):
        return body_from_json(_load(name))
    raise GeometryError("body must be disk, square, triangle, or a JSON file")


def cmd_density(args) -> int:
    from .bodies import body_to_json
    from .measures import area, min_area_parallelogram, separable_packing_density

    body = _named_body(args.body)
    fit = min_area_parallelogram(body)
    _emit(args, {"body": body_to_json(body), "area": area(body), "pgram_area": fit.area,
                 "separable_density": separable_packing_density(body)}, by=fit)
    return EXIT_OK


def cmd_contact(args) -> int:
    from . import packing
    from .bounds import crystallization_bound

    fam = _translates(_load(args.input))
    g = packing.contact_graph(fam.reference, fam.centers, tol=args.tolerance)
    n = len(fam)
    bound = crystallization_bound(n) if n >= 1 else 0
    _emit(args, g, lambda svg: svg.family_drawing(fam, contacts=g.edges), n=n, contacts=g.count,
          square_lattice_bound=bound, within_bound=g.count <= bound)
    return EXIT_OK if g.count <= bound else EXIT_VIOLATED


def cmd_lattice(args) -> int:
    from . import bounds

    lb = bounds.lattice_contact_bounds(args.d, args.n)
    payload: dict = {"n": args.n, "d": args.d, "lattice_bounds": lb}
    by = lb
    if args.d == 2:
        payload["max_contacts"] = bounds.crystallization_bound(args.n)
        if args.brute:
            if args.n > 12:
                raise GeometryError("exhaustive search is limited to 12 cells")
            by = bounds.brute_force_lattice_contact(args.n)
            payload["brute_force_max"] = by.max_contacts
            payload["polyomino_counts"] = by.counts
    elif (args.mode or bounds.crystallization_mode(args.d)) == "rogers":
        # the one branch that samples, and so the one that loads numpy
        from .packing import rogers_sigma

        by = rogers_sigma(args.d, samples=args.samples, seed=args.seed)
        payload["simplex_density"] = by
        payload["max_contacts"] = bounds.crystallization_bound(
            args.n, d=args.d, mode="rogers", density=by.value
        )
    else:
        payload["max_contacts"] = bounds.crystallization_bound(args.n, d=args.d, mode="hales")
    _emit(args, payload, by=by)
    return EXIT_OK


def cmd_kertesz(args) -> int:
    import numpy as np

    from . import packing

    obj = _load(args.input)
    try:
        box = obj["box"]
        cuts = tuple(
            packing.PlaneCut(int(c["cell"]), np.asarray(c["normal"], dtype=float), float(c["offset"]))
            for c in obj["cuts"]
        )
        balls = tuple((np.asarray(b["center"], dtype=float), float(b["r"])) for b in obj["balls"])
        part = packing.GuillotinePartition(
            lo=np.asarray(box["lo"], dtype=float), hi=np.asarray(box["hi"], dtype=float),
            cuts=cuts, balls=balls,
        )
    except (KeyError, TypeError) as exc:
        raise GeometryError(f"malformed partition object: {exc}") from exc
    rep = packing.kertesz_check(part, tol=args.tolerance)
    _emit(args, rep)
    return EXIT_OK if rep.holds_surface and rep.holds_volume else EXIT_VIOLATED


def cmd_caps(args) -> int:
    from . import spherical

    caps = _caps(_load(args.input))
    payload: dict = {"n": len(caps)}
    rc = EXIT_OK
    if args.check in ("ns", "all"):
        by = dec = spherical.caps_non_separable(caps, tol=args.tolerance)
        payload["non_separable"] = {
            "value": dec.non_separable,
            "margin": None if math.isinf(dec.margin) else dec.margin,
            "pole": dec.pole,
        }
        if not dec.non_separable:
            rc = max(rc, EXIT_VIOLATED)
    if args.check in ("ts", "all"):
        by = res = spherical.is_ts_cap_packing(caps, tol=args.tolerance)
        payload["totally_separable"] = {
            "value": res.is_ts,
            "unresolved": res.unresolved,
            "refuted": res.refuted,
            "poles_checked": res.poles_checked,
        }
        if res.refuted:
            rc = max(rc, EXIT_VIOLATED)
    if args.check in ("cover", "all"):
        try:
            rep = spherical.cap_cover_check(caps, tol=args.tolerance)
        except GeometryError as exc:
            if args.check == "cover":
                raise
            payload["cover"] = {"applicable": False, "reason": str(exc)}
        else:
            by = rep
            payload["cover"] = {
                "applicable": True,
                "total_radius": rep.total_radius,
                "center": rep.center,
                "radius": rep.radius,
                "slack": rep.slack,
                "holds": rep.holds,
            }
            if not rep.holds:
                rc = max(rc, EXIT_VIOLATED)
    _emit(args, payload, lambda svg: svg.caps_drawing(caps), by=by)
    return rc


def cmd_tammes(args) -> int:
    from .bounds import separable_tammes

    _emit(args, separable_tammes(args.k))
    return EXIT_OK


def cmd_lambda_density(args) -> int:
    from . import lambda_density

    geom = args.geometry
    if geom != "euclidean" and args.rho is None:
        raise GeometryError(f"{geom} bound needs --rho")
    if geom == "euclidean":
        bound = lambda_density.density_bound_euclid(args.lam)
    elif geom == "spherical":
        bound = lambda_density.density_bound_sphere(args.rho, args.lam)
    else:
        bound = lambda_density.density_bound_hyper(args.rho, args.lam)
    _emit(args, bound, geometry=geom, triangle_sides=bound.density.triangle.sides,
          **{"lambda": args.lam})
    return EXIT_OK


def cmd_extremal_3disks(args) -> int:
    import numpy as np

    from . import packing

    rep = packing.three_disk_extrema()
    more = {}
    if args.centers:
        try:
            c = np.asarray(json.loads(args.centers), dtype=float)
        except (TypeError, ValueError) as exc:
            raise GeometryError(f"--centers must be a JSON list of three centers: {exc}") from exc
        triple = more["triple"] = {"non_separable": packing.three_disk_non_separable(c)}
        if triple["non_separable"]:
            a, p, w, r = packing.three_disk_hull_metrics(c)
            triple.update({"area": a, "perimeter": p, "width": w, "inradius": r})
    _emit(args, rep, **more)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _checked(convert, ok, what: str):
    """An argparse type: convert, then reject values failing ok (exit 3)."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{what}, not {text}")
        return value
    return parse


_TOLERANCE = _checked(float, lambda v: math.isfinite(v) and v >= 0.0,
                      "tolerance must be finite and >= 0")
_SAMPLES = _checked(int, lambda v: v >= 1, "samples must be at least 1")


def _command(sub, name: str, func, about: str, needs_input=True, samples=None, seed=False):
    """Subcommand name running func, with only the options it reads: an input
    with the tolerance of its checks, a sample count, a seed, and where and
    how to write."""
    p = sub.add_parser(name, help=about)
    if needs_input:
        p.add_argument("input", help="input JSON file, or - for stdin")
        p.add_argument("--tolerance", type=_TOLERANCE, default=1e-9)
    if samples is not None:
        p.add_argument("--samples", type=_SAMPLES, default=samples)
    if seed:
        p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output file (basename for --format both)")
    p.add_argument("--format", choices=("json", "svg", "both"), default="json")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sepgeom",
        description="Verification toolkit for separability in discrete geometry.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = _command(sub, "check-ns", cmd_check_ns,
                 "decide if a homothet family admits no splitting line", samples=4096)
    p.add_argument("--sns", action="store_true", help="also search for a successive ordering")
    _command(sub, "cover", cmd_cover, "smallest concentric homothet covering a family")
    _command(sub, "verify-ts", cmd_verify_ts, "certify total separability of a packing")
    _command(sub, "verify-ls", cmd_verify_ls, "certify local separability of a packing")
    p = _command(sub, "rho-sep", cmd_rho_sep, "check rho-separability of a translate packing")
    p.add_argument("--rho", type=float, required=True)
    _command(sub, "oler", cmd_oler, "closed-curve norm inequality for a translate packing")
    p = _command(sub, "density", cmd_density, "separable packing density of a convex body",
                 needs_input=False)
    p.add_argument("--body", default="disk", help="disk, square, triangle, or a JSON file")
    _command(sub, "contact", cmd_contact, "contact graph of a translate packing")
    p = _command(sub, "lattice", cmd_lattice, "contact-number bounds for lattice packings",
                 needs_input=False, samples=2_000_000, seed=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--mode", choices=("hales", "rogers"))
    p.add_argument("--brute", action="store_true", help="exhaustive polyomino search (d=2, n<=12)")
    _command(sub, "kertesz", cmd_kertesz, "surface and volume bounds for a cut cube with balls")
    p = _command(sub, "caps", cmd_caps, "spherical cap checks: splitting circle, TS, cover")
    p.add_argument("--check", choices=("ns", "ts", "cover", "all"), default="all")
    p = _command(sub, "tammes", cmd_tammes, "separable Tammes radius for k caps", needs_input=False)
    p.add_argument("--k", type=int, required=True)
    p = _command(sub, "lambda-density", cmd_lambda_density,
                 "density bound for lambda-separable packings", needs_input=False)
    p.add_argument("--geometry", choices=("euclidean", "spherical", "hyperbolic"), required=True)
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--rho", type=float)
    p = _command(sub, "extremal-3disks", cmd_extremal_3disks,
                 "extremal hulls of three non-separable unit disks", needs_input=False)
    p.add_argument("--centers", help="JSON list of three centers to test")
    return ap


def main(argv=None) -> None:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, reported here as malformed input
        sys.exit(EXIT_INPUT if exc.code == 2 else exc.code)
    t0 = time.perf_counter()
    try:
        rc = args.func(args)
    except GeometryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT)
    print(f"elapsed {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    sys.exit(rc)


if __name__ == "__main__":
    main()
