"""One benchmark process: set up a workload, run it closed-loop, check it.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src``.  ``--mode setup`` stops once the workload's objects
are built and reports how long that took; ``--mode run`` goes on to the
timed loop (``--trace 0``) or to an untraced and a traced pass over the
same fixed operations (``--trace 1``).  The last stdout line is JSON.
"""

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

# A p90 needs at least ten samples above it.
MIN_OPS = 100
# Fresh processes per run for setup_s (plus the worker itself) and for
# cli_cold_ms.
SETUP_PROBES = 5
COLD_CALLS = 9
# Operations run before timing starts, so the CPU clock has ramped up and
# the interpreter's caches are warm; they are still checked and counted.
WARMUP_S = 1.0
# Wall-clock cap on the timed loop, so a slow program still lets the whole
# run end well inside its time limit.
LOOP_WALL_CAP_S = 120.0


def _probe(lib, workload, workdir: Path):
    """Call every traced layer once on a tiny model, so no layer reads 0 s.

    Returns (calls, failures) with failures as (kind, detail) pairs.
    """
    model = {
        "prospects": {
            "x": {"kind": "discrete", "points": [[0, 0.5], [100, 0.5]]},
            "d": {"kind": "discrete", "points": [[10, 1.0]]},
            "g": {"kind": "gaussian", "mean": 10, "variance": 4},
        },
        "tree": {
            "root": "root",
            "nodes": {
                "root": {"kind": "decision", "children": [["sure", "t"], ["risk", "c"]]},
                "t": {"kind": "terminal", "payoff": 10},
                "c": {"kind": "chance", "children": [[0.5, "lo"], [0.5, "hi"]]},
                "lo": {"kind": "terminal", "payoff": 0},
                "hi": {"kind": "terminal", "payoff": 100},
            },
        },
        "defaults": {"r": 0.01, "k": "1:10:5"},
    }
    path = workdir / "probe.json"
    path.write_text(json.dumps(model))
    m = str(path)
    argvs = [
        ["ce", "--model", m, "--id", "x"],
        ["curve", "--model", m, "--ids", "x,root"],
        ["compare", "--model", m, "--a", "x", "--b", "d"],
        ["envelope", "--model", m, "--ids", "x,d,g"],
        ["rollback", "--model", m],
        ["policies", "--model", m],
    ]
    failures = []
    for argv in argvs:
        code, out, err = workload.run_cli(lib, argv)
        if code != 0 or not out:
            failures.append((f"probe:{argv[0]}", err.strip()[:200]))
    x = lib.prospects.make_discrete([(0, 0.5), (100, 0.5)])
    d = lib.prospects.add_independent(lib.prospects.make_discrete([(4, 1.0)]), lib.prospects.make_discrete([(6, 1.0)]))
    # d = 10 for sure wins the far tail; x is ahead at k = 1.
    if lib.orders.find_threshold(d, x, 0.01) is None:
        failures.append(("probe:find_threshold", "no threshold for a pair that crosses"))
    S = lib.scenarios
    S.stigler_scenario(S.StiglerSpec(((1.0, 0.5), (2.0, 0.5)), {1.0: 1.0, 2.0: 2.0}, {1.0: 0.5, 2.0: 3.0}))
    S.adaptive_template(S.AdaptiveSpec(
        (S.Commitment("flex", 1.0, True), S.Commitment("fix", 0.0, False, "a")),
        [("lo", 0.5), ("hi", 0.5)], ("a", "b"),
        {(c, o, a): v for c in ("flex", "fix") for o, v in (("lo", 0.0), ("hi", 10.0)) for a in ("a", "b")},
    ))
    return len(argvs) + 1, failures


class Outcomes:
    """Failure bookkeeping; checks are memoised per (operation, result)."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.kinds = Counter()
        self.examples = {}
        self._memo = {}

    def problem(self, op, result, exc):
        """(kind, detail) of a failed operation, or None."""
        if exc is not None:
            return self.wl.classify_exception(op, exc)
        key = (op["index"], self.wl.key(result))
        if key not in self._memo:
            self._memo[key] = self.wl.check(op, result)
        return self._memo[key]

    def record(self, op, result, exc):
        self.attempted += 1
        problem = self.problem(op, result, exc)
        if problem is not None:
            self.add(*problem)

    def add(self, kind, detail):
        self.kinds[kind] += 1
        self.examples.setdefault(kind, detail)

    @property
    def failed(self):
        return sum(self.kinds.values())

    def report(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures_by_kind": dict(sorted(self.kinds.items())),
            "failure_examples": self.examples,
        }


def _defect_pass(wl, lib, objs, outcomes: Outcomes) -> dict:
    """Run each defect operation once, untimed, and report what it shows.

    Per category: how many operations ran, how many showed each known
    defect kind they are there to show, and how many showed none (the
    defect is gone).  Any other failure is a failure of the run.
    """
    shown: dict = {}
    for op in wl.defect_ops:
        _, result, exc = _timed(wl, lib, objs, op)
        problem = outcomes.problem(op, result, exc)
        counts = shown.setdefault(op["category"], Counter({"ops": 0, "not_reproduced": 0}))
        counts["ops"] += 1
        if problem is None:
            counts["not_reproduced"] += 1
        elif problem[0] in op["reproduces"]:
            counts[problem[0]] += 1
        else:
            outcomes.attempted += 1
            outcomes.add(*problem)
    return {category: dict(counts) for category, counts in shown.items()}


class _ColdCli:
    """``python -m flexcurve.cli ce`` on the workload's smallest model.

    Each call is an operation: it must exit 0 and print exactly what the
    same argv printed in-process, which must match the oracle.
    """

    def __init__(self, lib, wl, workdir: Path, outcomes: "Outcomes"):
        # Loaded by main() after flexcurve, so that import_s is flexcurve's.
        import oracle
        import workloads

        doc, argv, reference = wl.cold_model()
        path = workdir / "cold.json"
        path.write_text(json.dumps(doc))
        self.argv = argv + ["--model", str(path)]
        self.reference = reference
        code, self.stdout, _ = workloads.run_cli(lib, self.argv)
        try:
            self.in_process_ok = code == 0 and oracle.close(float(self.stdout), reference)
        except ValueError:
            self.in_process_ok = False
        self.outcomes = outcomes
        self.ms = []

    def call(self) -> None:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "flexcurve.cli"] + self.argv,
                              capture_output=True, text=True, timeout=60)
        self.ms.append((time.monotonic() - start) * 1e3)
        self.outcomes.attempted += 1
        if proc.returncode != 0 or proc.stdout != self.stdout:
            self.outcomes.add("cli_cold_mismatch", f"exit {proc.returncode}: {proc.stdout[:80]!r} vs in-process {self.stdout[:80]!r}")
        elif not self.in_process_ok:
            self.outcomes.add("oracle:cli_cold", f"printed {self.stdout[:80]!r}, reference {self.reference!r}")


def _setup_probe(args) -> dict:
    """A fresh interpreter that only imports flexcurve and builds the workload."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", "setup", "--workdir", args.workdir,
           "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup"]


def _timed(wl, lib, objs, op):
    start = time.perf_counter()
    try:
        result, exc = wl.run(lib, objs, op), None
    except Exception as error:  # every exception is an outcome to check
        result, exc = None, error
    return time.perf_counter() - start, result, exc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import flexcurve as lib
    import flexcurve.cli  # noqa: F401  (not imported by the package itself)
    import_s = time.perf_counter() - t0

    import workloads  # imports numpy, already loaded by flexcurve

    gen0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    generate_s = time.perf_counter() - gen0
    t1 = time.perf_counter()
    objs = wl.build(lib)
    build_s = time.perf_counter() - t1
    startup_s = STARTED - args.spawned_at
    setup = {
        "setup_s": startup_s + import_s + build_s,
        "startup_s": startup_s,
        "import_s": import_s,
        "build_s": build_s,
        "generate_s": generate_s,
    }
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    workdir = Path(args.workdir)
    wl.prepare(lib, objs, workdir)
    outcomes = Outcomes(wl)

    ops = wl.ops
    out = {"setup": setup, "properties": wl.properties(), "known_defects": workloads.KNOWN_DEFECTS}
    if args.trace == 0:
        cold = _ColdCli(lib, wl, workdir, outcomes)
        # Set-up probes and cold CLI calls run one at a time between timed
        # operations, spread over the run, so their medians see the same
        # machine conditions as the loop does.
        samples = ["cold"] * (SETUP_PROBES + COLD_CALLS)
        for k in range(SETUP_PROBES):
            samples[int((k + 0.5) * len(samples) / SETUP_PROBES)] = "setup"
        setups = [setup]

        def take_sample(kind):
            if kind == "cold":
                cold.call()
            else:
                setups.append(_setup_probe(args))

        i = 0
        warm_stop = time.monotonic() + WARMUP_S
        while time.monotonic() < warm_stop:
            op = ops[i % len(ops)]
            i += 1
            outcomes.record(op, *_timed(wl, lib, objs, op)[1:])
        warmup_ops = i
        lat = []
        busy = 0.0
        wall_stop = time.monotonic() + min(LOOP_WALL_CAP_S, 3.0 * args.seconds + 30.0)
        while (busy < args.seconds or len(lat) < MIN_OPS) and time.monotonic() < wall_stop:
            op = ops[i % len(ops)]
            i += 1
            dt, result, exc = _timed(wl, lib, objs, op)
            lat.append(dt)
            busy += dt
            outcomes.record(op, result, exc)
            while samples and busy >= args.seconds * (1.0 - (len(samples) - 0.5) / (SETUP_PROBES + COLD_CALLS)):
                take_sample(samples.pop(0))
        for kind in samples:
            take_sample(kind)
        p90 = statistics.quantiles(lat, n=10)[8]
        out["latency"] = {
            "samples": len(lat),
            "samples_above_p90": sum(1 for x in lat if x > p90),
            "busy_s": busy,
            "warmup_ops": warmup_ops,
            "rounds": len(lat) / len(ops),
            "p50_ms": statistics.median(lat) * 1e3,
            "p90_ms": p90 * 1e3,
            "ops_per_s": len(lat) / busy,
        }
        out["setup_samples"] = setups
        out["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        out["cli_cold"] = {"argv": cold.argv, "ms_samples": cold.ms}
        out["cli_cold_ms"] = statistics.median(cold.ms)
    else:
        from tracer import Tracer

        n = max(8, round(wl.traced_ops_per_second * args.seconds))
        chosen = [ops[i % len(ops)] for i in range(n)]
        tracer = Tracer()
        tracer.install(lib)
        try:
            traced_objs = wl.build(lib)
        finally:
            tracer.uninstall()
        # Each operation runs untraced, then traced, so both sides see the
        # same warm state; the difference in rate is the tracing overhead.
        untraced_s = traced_s = 0.0
        for j, op in enumerate(chosen):
            untraced_s += _timed(wl, lib, objs, op)[0]
            tracer.op = j
            tracer.install(lib)
            try:
                dt, result, exc = _timed(wl, lib, traced_objs, op)
            finally:
                tracer.uninstall()
            traced_s += dt
            outcomes.record(op, result, exc)
        tracer.op = "probe"
        tracer.install(lib)
        try:
            probe_calls, probe_failures = _probe(lib, workloads, workdir)
        finally:
            tracer.uninstall()
        outcomes.attempted += probe_calls
        for kind, detail in probe_failures:
            outcomes.add(kind, detail)
        tracer.write(workdir / "spans.tsv")
        out["per_layer"] = tracer.per_layer(n / untraced_s, n / traced_s, n)
        out["spans_file"] = str(workdir / "spans.tsv")
    # After peak_rss_mb is read, so that it covers the measured operations only.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["defects_shown"] = _defect_pass(wl, lib, objs, outcomes)
    out["peak_rss_mb"] = rss_mb
    out["outcomes"] = outcomes.report()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
