"""Per-layer tracing by wrapping sepgeom's public functions from outside.

Several modules bind these functions with ``from ... import``, so a wrapper
replaces the name in every loaded ``sepgeom`` module that holds the same
function object, and the original bindings come back on exit. A span's self
time is its duration minus the duration of traced calls made inside it.
"""

import contextlib
import functools
import importlib
import sys
import time

# "module.function": the fields reported for it, in order. A field is
# "calls", "self_ms" or (count name, count taken from (args, result) per call).
LAYERS = {
    "bodies.support_batch": ("calls", ("rows", lambda a, r: len(a[1])), "self_ms"),
    "bodies.minkowski_norm": ("calls", "self_ms"),
    "_kernels.gap_profile": ("calls", ("columns", lambda a, r: len(a[5])), "self_ms"),
    "_kernels.pole_margins": ("calls", "self_ms"),
    "separability.candidate_directions": ("calls", ("directions", lambda a, r: len(r)), "self_ms"),
    "separability.is_non_separable": ("calls", ("directions_checked", lambda a, r: r.directions_checked), "self_ms"),
    "separability.find_separating_hyperplane": ("calls", "self_ms"),
    "separability.kirchberger_reduce": (("subfamilies", lambda a, r: r.subfamilies_checked), "self_ms"),
    "separability.is_sns": ("self_ms",),
    "separability.pair_separation": ("calls", "self_ms"),
    "separability.tangency_pairs": ("self_ms",),
    "separability.is_ts_packing": ("calls", ("lines_checked", lambda a, r: r.lines_checked), "self_ms"),
    "separability.is_ls_packing": ("self_ms",),
    "separability.is_rho_separable": ("self_ms",),
    "covering.goodman_goodman_cover": ("self_ms",),
    "covering.min_cover_ratio": ("self_ms",),
    "measures.min_area_parallelogram": ("calls", "self_ms"),
    "measures.enclosing_disk_of_disks": ("self_ms",),
    "packing.contact_graph": ("self_ms",),
    "packing.oler_check": ("self_ms",),
    "spherical.caps_non_separable": (("poles_checked", lambda a, r: r.poles_checked), "self_ms"),
    "spherical.is_ts_cap_packing": (("poles_checked", lambda a, r: r.poles_checked), "self_ms"),
    "spherical.enclosing_cap": ("self_ms",),
}


def _count(fields):
    """The layer's count function, or None when it reports no count."""
    return next((f[1] for f in fields if isinstance(f, tuple)), None)


class Tracer:
    """Aggregates calls, self time and counts per layer while installed."""

    def __init__(self):
        self.stats = {}
        self._stack = []

    def reset(self) -> None:
        self.stats = {key: {"calls": 0, "self_s": 0.0, "count": 0} for key in LAYERS}
        self._stack = []

    def _wrap(self, key, fn, count):
        stats = self.stats
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                st = stats[key]
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if count is not None:
                stats[key]["count"] += int(count(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every binding of a traced function for its wrapper."""
        self.reset()
        modules = [m for name, m in list(sys.modules.items()) if name == "sepgeom" or name.startswith("sepgeom.")]
        undo = []
        try:
            for key, spec in LAYERS.items():
                mod, name = key.split(".")
                fn = getattr(importlib.import_module(f"sepgeom.{mod}"), name)
                wrapper = self._wrap(key, fn, _count(spec))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, fn))
            yield self
        finally:
            for m, attr, fn in undo:
                setattr(m, attr, fn)

    def metrics(self) -> dict:
        """Every field of LAYERS as {name: (value, unit)}.

        Metric names must start with a letter, so the ``_kernels`` layer
        reports as ``kernels``.
        """
        out = {}
        for key, fields in LAYERS.items():
            st, name = self.stats[key], key.lstrip("_")
            for field in fields:
                if field == "self_ms":
                    out[f"{name}.self_ms"] = (st["self_s"] * 1e3, "ms")
                elif field == "calls":
                    out[f"{name}.calls"] = (st["calls"], "count")
                else:
                    out[f"{name}.{field[0]}"] = (st["count"], "count")
        return out
