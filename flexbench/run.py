"""flexcurve benchmark: one workload, one seed, one result line.

    python3 flexbench/run.py --workload pair_compare --seed 1 --seconds 25 --trace 0

Run from the root of a flexcurve checkout; the library is imported from
its ``src``.  The run is one fresh worker process (``worker.py``): a
single client in a closed loop that, after a short warm-up, sends the next
operation when the previous one returns, until the operations have taken
``--seconds`` of time (and at least 100 have run).  Between operations,
outside the timed region, it checks each result and starts, one at a
time, the fresh set-up probes (``setup_s``) and the shell-style
``python -m flexcurve.cli ce`` calls (``cli_cold_ms``).

With ``--trace 1`` the worker instead runs a fixed number of operations,
each once untraced and once with spans around every traced layer.  Either
way it ends by running, once and untimed, the workload's defect
operations: inputs that reproduce the known defects, kept out of the
measured operations, which are all expected to succeed.  The
next-to-last stdout line is the full report (input properties, failures
by kind, which known defects still reproduce, sample counts); the last
line is the result the metrics in BENCHMARK.json are read from.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Each child is stopped after this long; the whole run must end in 180 s.
CHILD_TIMEOUT_S = 150.0

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # One client on one core: no BLAS/OpenMP pool competes with it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, workdir: Path) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", "run", "--workdir", str(workdir),
        "--spawned-at", repr(time.monotonic()),
    ]
    # On timeout the worker is killed and reaped before the error propagates.
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    # Workloads and metric names and units are read from BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "flexcurve" / "__init__.py").is_file():
        print(f"error: no flexcurve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must be in (0, 60]", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    report = _worker(args, workdir)
    outcomes = report["outcomes"]
    if args.trace == 0:
        lat = report["latency"]
        figures = {
            "ops_per_s": lat["ops_per_s"],
            "op_p50_ms": lat["p50_ms"],
            "op_p90_ms": lat["p90_ms"],
            "setup_s": report["setup_s"],
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ratio": (outcomes["attempted"] - outcomes["failed"]) / outcomes["attempted"],
            "cli_cold_ms": report["cli_cold_ms"],
        }
        listed = spec["end_to_end"]
    else:
        figures = report["per_layer"]
        listed = spec["per_layer"]
    result_metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in listed}

    report.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  fail_ratio=outcomes["failed"] / outcomes["attempted"])
    (workdir / "report.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps({
        "correct": outcomes["failed"] == 0,
        "attempted": outcomes["attempted"],
        "failed": outcomes["failed"],
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
