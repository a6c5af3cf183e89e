"""Benchmark for tametorus: seeded single-process workloads against the
public API, with end-to-end metrics from untraced runs and per-layer
metrics from a separate traced run.

    python3 bench/run.py --workload lattice_tower --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See bench/README.md for
the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99)


def import_package():
    """Import tametorus from this checkout's src/, never from elsewhere."""
    if not (SRC / "tametorus" / "__init__.py").is_file():
        print(f"bench: no tametorus package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import tametorus
    import tametorus.cli  # noqa: F401  (binds every layer as an attribute)
    if Path(tametorus.__file__).resolve().parent != (SRC / "tametorus").resolve():
        print(f"bench: imported tametorus from {tametorus.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return tametorus


def clear_caches(T) -> None:
    """Empty every process-lifetime cache (lru_cache) in the package."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == T.__name__ or name.startswith(T.__name__ + ".")):
            continue
        for obj in list(vars(module).values()):
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


class Runner:
    """Runs passes over one workload's fixed query set and checks answers."""

    def __init__(self, T, workload):
        self.T = T
        self.wl = workload
        self.reference: list = [None] * len(workload.queries)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run_pass(self, tracer=None) -> list[float]:
        """One pass; returns per-query latencies in seconds."""
        clear_caches(self.T)
        gc.collect()
        latencies = []
        for qi, q in enumerate(self.wl.queries):
            if self.wl.cold_per_query:
                clear_caches(self.T)
            if tracer:
                tracer.begin_query(qi)
            t0 = time.perf_counter()
            try:
                out = q.run()
                error = None
            except Exception as exc:  # an unexpected raise counts as a failed query
                error = f"{q.kind}: raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer:
                tracer.end_query()
            latencies.append(dt)
            self.attempted += 1
            if error is None:
                error = self._verify(qi, q, out)
            if error is not None:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(error)
        return latencies

    def _verify(self, qi, q, out):
        summary = q.summarize(out)
        if self.reference[qi] is None:
            # First pass: check against the independent reference, then keep
            # a fingerprint that later passes must reproduce.
            reason = q.check(summary)
            self.reference[qi] = ("bad", reason) if reason else ("ok", hash(summary))
            return f"{q.kind}: {reason}" if reason else None
        status, value = self.reference[qi]
        if status == "bad":
            return f"{q.kind}: {value}"
        return None if hash(summary) == value else f"{q.kind}: answer changed between passes"


def per_query_best(passes: list[list[float]]) -> list[float]:
    """Each query's lowest latency over the passes.  Every pass does the
    same work from cold caches, so the lowest reading is the one least
    disturbed by whatever else the machine was running at the time."""
    return [min(lat) for lat in zip(*passes)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(level, latency) at the highest listed percentile with at least ten
    of the query set's latencies beyond it (nearest rank)."""
    n = len(latencies)
    level = max((q for q in TAIL_LEVELS if n * (100 - q) / 100 >= 10), default=50)
    rank = max(1, math.ceil(n * level / 100))
    return level, sorted(latencies)[rank - 1]


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import tametorus and
    build this workload's inputs, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode())
            raise SystemExit("bench: setup probe failed")
    return statistics.median(times)


def end_to_end(args, T, wl) -> tuple[Runner, dict]:
    setup = setup_seconds(args)
    runner = Runner(T, wl)
    passes: list[list[float]] = []
    t_end = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(runner.run_pass())
    latencies = per_query_best(passes)
    level, tail_value = tail(latencies)
    print(f"{len(latencies)} queries per pass, {len(passes)} passes; query latency is the "
          f"lowest over passes; query_tail_ms is p{level} "
          f"({len(latencies) - math.ceil(len(latencies) * level / 100)} queries beyond)")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "queries_per_s": (len(latencies) / sum(latencies), "1/s"),
        "query_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "query_tail_ms": (tail_value * 1e3, "ms"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    return runner, metrics


def per_layer(args, T, wl) -> tuple[Runner, dict]:
    runner = Runner(T, wl)
    tracer = spans.Tracer(T)
    plain_walls, traced_walls, plain_lat, aggs = [], [], [], []
    t_end = time.perf_counter() + args.seconds
    while not aggs or time.perf_counter() < t_end:
        lat = runner.run_pass()
        plain_walls.append(sum(lat))
        plain_lat.append(lat)
        tracer.clear()
        tracer.install()
        try:
            traced_walls.append(sum(runner.run_pass(tracer)))
        finally:
            tracer.uninstall()
        agg = tracer.aggregate()
        agg["elements"] = tracer.elements
        aggs.append(agg)
        if len(aggs) == 1:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"trace_{wl.name}.json")  # the latest run's only
    tracer.clear()
    overhead = min(traced_walls) / min(plain_walls)
    return runner, layer_metrics(wl, aggs, per_query_best(plain_lat), overhead)


def layer_metrics(wl, aggs, plain_lat, overhead) -> dict:
    npass = len(aggs)

    def stat(name, key):
        return sum(a["spans"].get(name, {}).get(key, 0) for a in aggs) / npass

    def layer(prefix, key):
        return sum(v[key] for a in aggs for k, v in a["spans"].items()
                   if k.startswith(prefix + ".")) / npass

    def per_component_query(name):
        """Calls per component_group + h1_frobenius query (ROADMAP's "per query")."""
        ids = [i for i, q in enumerate(wl.queries) if q.kind == "component_group"]
        calls = sum(len(a["by_query"].get((i, name), ())) for a in aggs for i in ids)
        return calls / (npass * len(ids)) if ids else 0.0

    def latency_per_point(kind):
        points = sum(q.info["points"] for q in wl.queries if q.kind == kind)
        spent = sum(t for t, q in zip(plain_lat, wl.queries) if q.kind == kind)
        return spent / points * 1e6 if points else 0.0

    cold, warm = 0.0, []
    for a in aggs:
        for i, q in enumerate(wl.queries):
            durations = a["by_query"].get((i, "padic.oracle"), [])
            if q.info.get("cold") or wl.cold_per_query:
                cold += sum(durations)
            else:
                warm += durations

    def computed(name):
        fn = wl.computed.get(name)
        return fn() if fn else 0

    m = {}
    for prefix in spans.LAYERS:
        m[f"{prefix}.calls"] = (layer(prefix, "calls"), "count")
        m[f"{prefix}.self_s"] = (layer(prefix, "self_s"), "s")
    m.update({
        "lattice.snf.calls": (stat("lattice.snf", "calls"), "count"),
        "lattice.snf.self_s": (stat("lattice.snf", "self_s"), "s"),
        "lattice.snf.max_transform_bits": (computed("lattice.snf.max_transform_bits"), "bits"),
        "lattice.unimodular_inverse.calls": (stat("lattice.unimodular_inverse", "calls"), "count"),
        "lattice.solve.calls": (stat("lattice.solve", "calls"), "count"),
        "lattice.quotient.self_s": (stat("lattice.quotient", "self_s"), "s"),
        "galois.close_group.calls": (stat("galois.close_group", "calls"), "count"),
        "galois.close_group.elements": (sum(a["elements"] for a in aggs) / npass, "count"),
        "galois.close_group.self_s": (stat("galois.close_group", "self_s"), "s"),
        "galois.module_init.self_s": (stat("galois.module_init", "self_s"), "s"),
        "galois.cyclic_h1.self_s": (stat("galois.cyclic_h1", "self_s"), "s"),
        "torus.component_group.self_s": (stat("torus.component_group", "self_s"), "s"),
        "torus.snf_per_query": (per_component_query("lattice.snf"), "count"),
        "torus.closures_per_query": (per_component_query("galois.close_group"), "count"),
        "padic.context.self_s": (stat("padic.context", "self_s"), "s"),
        "padic.eth_power_class.calls": (stat("padic.eth_power_class", "calls"), "count"),
        "padic.eth_power_class.self_s": (stat("padic.eth_power_class", "self_s"), "s"),
        "padic.oracle.cold_s": (cold / npass, "s"),
        "padic.oracle.candidates": (computed("padic.oracle.candidates"), "count"),
        "padic.oracle.warm_us": (statistics.median(warm) * 1e6 if warm else 0.0, "us"),
        "torsor.verify.us_per_point": (latency_per_point("verify"), "us"),
        "torsor.verify.skipped_ratio": (computed("torsor.verify.skipped_ratio"), "ratio"),
        "torsor.evaluate.calls": (stat("torsor.evaluate", "calls"), "count"),
        "torsor.evaluate.self_s": (stat("torsor.evaluate", "self_s"), "s"),
        "torsor.special_eval.calls": (stat("torsor.special_eval", "calls"), "count"),
        "torsor.special_eval.self_s": (stat("torsor.special_eval", "self_s"), "s"),
        "torsor.constancy.us_per_point": (latency_per_point("constancy"), "us"),
        "cli.main.calls": (stat("cli.main", "calls"), "count"),
        "cli.main.self_s": (stat("cli.main", "self_s"), "s"),
        "cli.build_parser.self_s": (stat("cli.build_parser", "self_s"), "s"),
        "cli.exit_nonzero.count": (computed("cli.exit_nonzero.count"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def report(runner: Runner, metrics: dict) -> dict:
    for reason in runner.reasons:
        print(f"FAILED {reason}")
    print(f"failed_ratio = {runner.failed / max(runner.attempted, 1):.6f} "
          f"({runner.failed} of {runner.attempted} queries)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=900)
        if proc.returncode:
            print(proc.stdout, end="")
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, then exit (set-up time probe)")
    args = parser.parse_args()

    T = import_package()
    if args.workload == "all":
        return run_all(args)
    wl = workloads.BUILDERS[args.workload](T, args.seed)
    if args.setup_only:
        return 0
    runner, metrics = (per_layer if args.trace else end_to_end)(args, T, wl)
    print(json.dumps(report(runner, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
