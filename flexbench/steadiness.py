"""Steadiness report: run every workload on ten seeds, summarise the spread.

    python3 flexbench/steadiness.py --out flexbench/results/steadiness-set1.json
    python3 flexbench/steadiness.py --compare-to flexbench/results/steadiness-set1.json \
        --out flexbench/results/steadiness.json

For each workload in BENCHMARK.json and each end-to-end metric it gives the
median over ``SEEDS``, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the bound in BENCHMARK.json.  It also runs each
workload traced twice on ``TRACED_SEED`` and reports whether every
per-layer count came out identical, with the tracing overhead of both
runs.  ``--compare-to REPORT`` adds, for every median, how much worse it
is than in an earlier report (the same check as a regression bound).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Per-layer metrics that are counts or ratios of counts, so must repeat
# exactly; the tracing overhead is a ratio of times.
EXACT_UNITS = ("count", "ratio")
TIMED_RATIOS = ("trace.overhead_share",)
# Seeds the benchmark was not tuned on.
SEEDS = list(range(601, 611))
TRACED_SEED = 7


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-1500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare-to", type=Path, default=None, metavar="REPORT",
                        help="an earlier report: add each median's change against it")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            detail, result = run(workload, seed, spec["run_seconds"], 0)
            runs.append({
                "seed": seed,
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failures_by_kind": detail["outcomes"]["failures_by_kind"],
                "defects_shown": detail["defects_shown"],
                "latency_samples": detail["latency"]["samples"],
                "properties": detail["properties"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[metric] = {
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0,
                "bound": bound,
            }
            print(f"  {metric:12s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {summary[metric]['spread']:.4f}  bound {bound}", flush=True)
        _, ra = run(workload, TRACED_SEED, spec["run_seconds"], 1)
        _, rb = run(workload, TRACED_SEED, spec["run_seconds"], 1)
        differing = [
            k for k, unit in units.items()
            if unit in EXACT_UNITS and k not in TIMED_RATIOS
            and ra["metrics"][k]["value"] != rb["metrics"][k]["value"]
        ]
        entry = {"summary": summary, "runs": runs, "traced_twice": {
            "seed": TRACED_SEED,
            "counts_identical": not differing,
            "differing": differing,
            "overhead_share": [ra["metrics"]["trace.overhead_share"]["value"], rb["metrics"]["trace.overhead_share"]["value"]],
            "per_layer": {k: v["value"] for k, v in ra["metrics"].items()},
        }}
        print(f"  traced twice: counts identical {not differing} {differing}", flush=True)
        report["workloads"][workload] = entry
    if args.compare_to is not None:
        earlier = json.loads(args.compare_to.read_text())
        report["compared_to"] = {"seeds": earlier["seeds"]}
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        for workload, entry in report["workloads"].items():
            for metric, s in entry["summary"].items():
                before = earlier["workloads"][workload]["summary"][metric]["median"]
                change = (s["median"] - before) / before if before else 0.0
                worse = -change if better[metric] == "higher" else change
                s["earlier_median"] = before
                s["worse_by"] = worse
                s["within_bound"] = worse <= s["bound"]
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    args.out.with_suffix(".md").write_text(markdown(report))
    return 0


def markdown(report: dict) -> str:
    compared = "worse_by" in next(iter(report["workloads"].values()))["summary"]["ops_per_s"]
    lines = [
        f"Seeds {report['seeds'][0]}-{report['seeds'][-1]}, {report['run_seconds']} s per run.",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound |" + (" earlier median | worse by |" if compared else ""),
        "|---|---|---|---|---|---|---|" + ("---|---|" if compared else ""),
    ]
    for workload, entry in report["workloads"].items():
        for metric, s in entry["summary"].items():
            row = (
                f"| {workload} | {metric} | {s['median']:.4g} | {s['q1']:.4g} | {s['q3']:.4g} "
                f"| {s['spread']:.3f} | {s['bound']} |"
            )
            if compared:
                row += f" {s['earlier_median']:.4g} | {s['worse_by']:+.3f} |"
            lines.append(row)
    for workload, entry in report["workloads"].items():
        twice = entry["traced_twice"]
        lines.append("")
        lines.append(
            f"{workload}: two traced runs on seed {twice['seed']}: counts identical "
            f"{twice['counts_identical']}, tracing overhead "
            + " and ".join(f"{x:.1%}" for x in twice["overhead_share"])
        )
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
