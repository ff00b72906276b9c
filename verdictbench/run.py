"""Verdict-throughput benchmark for sepgeom.

Run from the root of a checkout:

    python3 verdictbench/run.py --workload ns-arrangements --seed 1 --seconds 40 --trace 0

The workload's batch of decisions is drawn from the seed, built once (the
timed set-up) and run once; then each decision runs again within the
``--seconds`` budget, the short ones many times and the long ones a few
(``plan_tries``), in passes pinned to each usable CPU in turn. Each decision
is timed by the median of its tries. Set-up is timed again in four fresh
interpreters spread over the run, and the median of the five is reported. Every decision is checked every time by
``checker``, which recomputes from the raw coordinates.
The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A fuller report goes to ``.verdictbench/`` in the checkout.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy can load, here and in every
# child process: helper threads running beside the caller make CPU time and
# wall time drift apart from run to run.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".verdictbench"

WORKLOADS = ("ns-arrangements", "ts-packings", "cli-cold")
SETUP_PROBES = 4  # fresh interpreters timed besides this process, spread over the run
MIN_TRIES = 5
MAX_TRIES = 100
NEAR = 3.0  # see plan_tries

# Successive passes (and set-up probes) run pinned to the CPUs this process
# may use in turn. On a shared host each virtual CPU runs mostly at one
# speed, with bursts of up to 1.7 times that speed lasting tens of
# milliseconds and coming more or less often from minute to minute. The
# fastest of a decision's tries depends on whether a burst came, so it jumps
# between two levels from run to run; the median of many tries spread over
# the run and over the CPUs does not.
CPUS = sorted(os.sched_getaffinity(0))


def _fail(msg: str) -> None:
    print(f"verdictbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _prepare(workload: str, seed: int):
    """Draw the raw inputs, then time the import of sepgeom and the building
    of the program's objects from them. Returns (ops, setup seconds)."""
    import workloads as wl

    if workload == "ns-arrangements":
        raw = wl.make_ns(seed)
        t0 = time.perf_counter()
        ops = wl.build_ns(raw)
    elif workload == "ts-packings":
        raw = wl.make_ts(seed)
        t0 = time.perf_counter()
        ops = wl.build_ts(raw)
    else:
        raw = wl.make_cli(seed)
        t0 = time.perf_counter()
        ops = wl.build_cli(raw, str(SRC))
    return ops, time.perf_counter() - t0


def _probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter running --setup-only."""
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if p.returncode != 0:
        _fail(f"set-up probe failed: {p.stderr.strip()}")
    return float(p.stdout.strip().splitlines()[-1])


class Round:
    """One pass over a schedule: (name, seconds) per call, the seconds of
    each call and its check, and failures by name."""

    def __init__(self):
        self.times = []
        self.costs = []
        self.failures = {}
        self.wall = 0.0


def run_round(schedule, cpu=None) -> Round:
    """Run and check every op of the schedule, pinned to ``cpu`` when given.

    A call that raises, or output the check cannot read, counts as a failed
    decision like a wrong verdict does.
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    rnd = Round()
    t_round = time.perf_counter()
    for op in schedule:
        t0 = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:
            t1 = time.perf_counter()
            rnd.failures[op.name] = f"{type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            try:
                op.check(res)
            except Exception as exc:
                rnd.failures[op.name] = f"{type(exc).__name__}: {exc}"
        rnd.times.append((op.name, t1 - t0))
        rnd.costs.append(time.perf_counter() - t0)
    rnd.wall = time.perf_counter() - t_round
    return rnd


def _tally(ops, rounds):
    attempted = sum(len(r.times) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    unexpected = sorted(
        {name for r in rounds for name in r.failures} - {op.name for op in ops if op.known_fault}
    )
    for r in rounds[:1]:
        for name, why in sorted(r.failures.items()):
            print(f"failed: {name}: {why}", file=sys.stderr)
    return attempted, failed, unexpected


def plan_tries(times: list, costs: list, budget: float) -> list:
    """Further tries per op, after a first pass whose calls took ``times``
    and whose calls and checks took ``costs``, to fill ``budget`` seconds.

    ``latency_p50_ms`` is decided by the ops whose time is near the median,
    so those within a factor NEAR of the median time share the budget
    equally, at most MAX_TRIES tries in all; every other op gets MIN_TRIES.
    """
    med = statistics.median(times)
    near = [med / NEAR <= t <= NEAR * med for t in times]
    lo_k, hi_k = MIN_TRIES - 1, MAX_TRIES - 1
    rest = budget - sum(lo_k * c for c, n in zip(costs, near) if not n)

    def spent(share):
        return sum(min(max(share, lo_k * c), hi_k * c) for c, n in zip(costs, near) if n)

    lo, hi = 0.0, hi_k * max(costs)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if spent(mid) < rest else (lo, mid)
    return [min(hi_k, max(lo_k, round(lo / c))) if n else lo_k for c, n in zip(costs, near)]


def passes(tries: list) -> list:
    """Passes over the ops: op i runs tries[i] times, spread evenly over them."""
    n = max(tries)
    return [[i for i, k in enumerate(tries) if (p + 1) * k // n > p * k // n] for p in range(n)]


def measure(workload: str, seed: int, seconds: float, ops, setup_s: float) -> dict:
    """Run every op once, then more tries of each within the run's budget.

    cli-cold runs whole rounds, every call as often as the others, so that its
    known fault is the same share of ``attempted`` in every run.
    """
    t_start = time.perf_counter()
    rounds = [run_round(ops, CPUS[0])]
    # peak memory of set-up plus one pass over the batch: later passes only
    # add allocator fragmentation, which grows with the number of tries
    usage = resource.RUSAGE_CHILDREN if workload == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    t_probe = time.perf_counter()
    setups = [setup_s, _probe_setup(workload, seed)]
    t_probe = time.perf_counter() - t_probe
    budget = seconds - (time.perf_counter() - t_start) - (SETUP_PROBES - 1) * t_probe
    if workload == "cli-cold":
        tries = [max(1, int(budget / rounds[0].wall))] * len(ops)
    else:
        tries = plan_tries([t for _, t in rounds[0].times], rounds[0].costs, budget)
    plan = passes(tries)
    for k, idx in enumerate(plan):
        # the plan follows the first pass's speed; a host that slows down
        # later ends the run at the deadline with fewer tries, not later
        if time.perf_counter() - t_start > seconds:
            break
        # set-up probes spread evenly over the run, between passes
        while len(setups) - 1 < SETUP_PROBES * (k + 1) // len(plan):
            os.sched_setaffinity(0, {CPUS[len(setups) % len(CPUS)]})
            setups.append(_probe_setup(workload, seed))
        rounds.append(run_round([ops[i] for i in idx], CPUS[(k + 1) % len(CPUS)]))
    while len(setups) - 1 < SETUP_PROBES:
        os.sched_setaffinity(0, {CPUS[len(setups) % len(CPUS)]})
        setups.append(_probe_setup(workload, seed))
    os.sched_setaffinity(0, CPUS)

    failed_names = {name for r in rounds for name in r.failures}
    tries_s = {}
    for r in rounds:
        for name, t in r.times:
            if name not in failed_names:
                tries_s.setdefault(name, []).append(t)
    typical = {name: statistics.median(ts) for name, ts in tries_s.items()}
    attempted, failed, unexpected = _tally(ops, rounds)
    metrics = {
        "verdicts_per_s": (len(typical) / sum(typical.values()), "1/s"),
        "latency_p50_ms": (statistics.median(typical.values()) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {
        "passes": len(rounds),
        "tries": {op.name: k + 1 for op, k in zip(ops, tries)},
        "run_wall_s": time.perf_counter() - t_start,
        "setup_samples_s": setups,
        "median_ms": {name: t * 1e3 for name, t in typical.items()},
        "failures": {name: why for r in rounds[:1] for name, why in r.failures.items()},
    }
    return {"attempted": attempted, "failed": failed, "unexpected": unexpected, "metrics": metrics, "report": report}


def _cli_probe(code: str, reps: int) -> float:
    """Fastest wall seconds of ``python -c code`` with sepgeom importable."""
    import workloads as wl

    env = wl.cli_env(str(SRC))
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
        best = min(best, time.perf_counter() - t0)
    return best


def _cli_layers(workload: str, ops) -> dict:
    """Split a cold CLI call into interpreter start, import, work and rest.

    Interpreter and import times are the fastest of a few bare ``python -c``
    processes. For cli-cold, each call also runs twice more as its own
    process and keeps its faster run: work is the CLI's ``elapsed`` line and
    rest is what the other three leave of the call's wall time, both averaged
    over the calls. The library workloads start no CLI, so their work and
    rest read 0.
    """
    interp = _cli_probe("pass", 5)
    imp = _cli_probe("import sepgeom", 3) - interp
    work = rest = 0.0
    if workload == "cli-cold":
        walls, works = [], []
        for op in ops:
            runs = []
            for _ in range(2):
                t0 = time.perf_counter()
                _, _, err = op.call()
                lines = [ln for ln in err.splitlines() if ln.startswith("elapsed ")]
                runs.append((time.perf_counter() - t0, float(lines[-1].split()[1].rstrip("s")) if lines else 0.0))
            wall, w = min(runs)
            walls.append(wall)
            works.append(w)
        work = statistics.fmean(works)
        rest = statistics.fmean(walls) - interp - imp - work
    return {
        "cli.interpreter_ms": (interp * 1e3, "ms"),
        "cli.import_ms": (imp * 1e3, "ms"),
        "cli.work_ms": (work * 1e3, "ms"),
        "cli.rest_ms": (rest * 1e3, "ms"),
    }


def measure_traced(workload: str, seconds: float, ops) -> dict:
    """Alternate untraced and traced rounds; report the fastest traced round.

    cli-cold runs its subcommands in this process through ``sepgeom.cli.main``
    so that the library layers under each subcommand can be traced.
    """
    import tracing
    import workloads as wl

    if workload == "cli-cold":
        ops = wl.in_process(ops)
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    rounds = [run_round(ops)]  # warm-up, checked like the others
    plain, traced, stats = [], [], None
    while True:
        cpu = CPUS[len(plain) % len(CPUS)]
        rounds.append(run_round(ops, cpu))
        plain.append(rounds[-1].wall)
        with tracer.installed():
            rounds.append(run_round(ops, cpu))
        traced.append(rounds[-1].wall)
        if stats is None or traced[-1] <= min(traced):
            stats = tracer.metrics()
        if time.perf_counter() + plain[-1] + traced[-1] > deadline:
            break
    os.sched_setaffinity(0, CPUS)
    attempted, failed, unexpected = _tally(ops, rounds)
    metrics = dict(stats)
    metrics["trace.untraced_round_ms"] = (min(plain) * 1e3, "ms")
    metrics["trace.traced_round_ms"] = (min(traced) * 1e3, "ms")
    metrics["trace.overhead_pct"] = ((min(traced) / min(plain) - 1.0) * 100.0, "%")
    return {
        "attempted": attempted,
        "failed": failed,
        "unexpected": unexpected,
        "metrics": metrics,
        "report": {"rounds": len(rounds), "untraced_round_s": plain, "traced_round_s": traced},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="print the set-up time and exit")
    args = ap.parse_args()

    if not (SRC / "sepgeom" / "__init__.py").is_file():
        _fail(f"no sepgeom sources at {SRC}; run from the root of a sepgeom checkout")
    sys.path.insert(0, str(SRC))

    ops, setup_s = _prepare(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return

    if args.trace:
        out = measure_traced(args.workload, args.seconds, ops)
        out["metrics"].update(_cli_layers(args.workload, ops))
    else:
        out = measure(args.workload, args.seed, args.seconds, ops, setup_s)

    OUT.mkdir(exist_ok=True)
    report = dict(out["report"], workload=args.workload, seed=args.seed, trace=args.trace)
    report["metrics"] = {k: v[0] for k, v in out["metrics"].items()}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name in out["unexpected"]:
        print(f"unexpected failure: {name}", file=sys.stderr)
    result = {
        "correct": not out["unexpected"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
