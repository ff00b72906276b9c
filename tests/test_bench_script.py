"""benchmarks/bench.py at its smallest size: it runs and writes every row."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import bench  # noqa: E402

METRICS = {"verdicts_per_s", "latency_p50_ms", "setup_s", "peak_rss_mb"}


def test_bench_smallest_writes_every_row(tmp_path):
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": {"parent": {"rows": {}}}}))
    cmd = [sys.executable, str(ROOT / "benchmarks" / "bench.py"), "--out", str(out), "--label", "smoke", "--smallest"]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    report = json.loads(out.read_text())
    assert set(report) == {"machine", "runs"}
    assert set(report["machine"]) == {"cpus", "cpu_model", "python", "numpy", "system"}
    assert set(report["runs"]) == {"parent", "smoke"}  # other labels are kept
    run = report["runs"]["smoke"]
    assert set(run) == {"commit", "bytecode", "seed", "seconds", "tries", "rows"}
    assert set(run["bytecode"]) == {"dont_write_bytecode", "pycache"}
    assert all(isinstance(v, bool) for v in run["bytecode"].values())
    rows = run["rows"]
    calls = {f"{name}/{sizes[0]}" for name, (sizes, _, _) in bench.CALLS.items()}
    workloads = {f"workload/{w}" for w in bench.WORKLOADS}
    cli = {k for k in rows if k.startswith("cli/")}
    assert {"cli/check-ns", "cli/cover", "cli/verify-ts", "cli/verify-ls"} <= cli
    assert set(rows) == calls | workloads | cli | {"import", "import/all"}
    for key in workloads:
        assert rows[key]["correct"] is True and set(rows[key]["metrics"]) == METRICS
    for key in calls:
        assert rows[key]["seconds"] > 0.0 and rows[key]["peak_rss_mb"] > 0.0
    for key in cli | {"import", "import/all"}:
        assert rows[key]["seconds"] > 0.0
