"""The permbinom benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; it imports permbinom from ./src. A run
repeats the workload's seeded operation list in passes for about --seconds.
With --trace 0 it reports the end-to-end metrics of BENCHMARK.json, tracing
off. Other tenants of a shared machine slow it by tens of percent for
seconds to minutes at a time, so every timing is scaled to a reference
machine speed (see SpeedRef), and each operation counts with the fastest
of its passes, as timeit does. The raw figures go in the metadata line.
With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics (per traced pass) and the tracing overhead.
Every output is checked against pinned.json. The last stdout line is the
JSON result; the exit code is 1 when any check failed, and 2, with no
result, when the checkout cannot be benchmarked at all.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
OUT = HERE / "out"
SETUP_REPEATS = 5  # at the start of a run and again at its end
REF_CMD = [sys.executable, "-I", "-S", "-c", "pass"]
REF_LOOP = 40_000
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0

# Workload-neutral names, as BENCHMARK.json requires every metric on every
# workload; the names a reader of each workload expects are printed beside them.
E2E_UNITS = {"setup_s": "s", "work_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}
ALIASES = {
    "sweep": {"work_per_s": "cells_per_s", "op_p50_ms": "sweep_p50_ms", "op_p90_ms": "sweep_p90_ms"},
    "deep-scan": {"work_per_s": "elements_per_s", "op_p50_ms": "scan_p50_ms", "op_p90_ms": "scan_p90_ms"},
    "exact-trace": {"work_per_s": "ops_per_s", "op_p50_ms": "probe_p50_ms", "op_p90_ms": "probe_p90_ms"},
    "cli-oneshot": {"work_per_s": "queries_per_s", "op_p50_ms": "query_p50_ms", "op_p90_ms": "query_p90_ms"},
}


class NotBenchmarkable(Exception):
    pass


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "permbinom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class SpeedRef:
    """The machine's current speed, from a fixed reference task timed often.

    On a shared machine other tenants slow a vCPU by 30-60 % for seconds to
    minutes at a time; raw timings of the same code then move by as much
    between runs. A timing taken from start to end is scaled by the
    reference's nominal time over the mean of the reference runs just before
    start and just after end, which reports it at one fixed machine speed.
    The reference is the same kind of work as what it scales: spawning a
    bare interpreter (`python -I -S -c pass`) for timings of child
    processes, a small-integer loop for timings inside this process. Neither
    touches permbinom, so no change to it moves the reference.
    """

    NOMINAL_S = {"spawn": 0.010, "loop": 0.0025}

    def __init__(self, kind: str):
        self.kind = kind
        self.at: list[float] = []
        self.took: list[float] = []

    def take(self) -> None:
        started = time.perf_counter()
        if self.kind == "spawn":
            subprocess.run(REF_CMD, capture_output=True, timeout=60, check=True)
        else:
            x = 0
            for i in range(REF_LOOP):
                x += i * i
        self.at.append(started)
        self.took.append(time.perf_counter() - started)

    def maybe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= REF_EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """Nominal over the median reference from the last one before start
        to the first one after end, widened by REF_WINDOW_S on each side:
        one reference run alone jitters by tens of percent."""
        lo = min(bisect.bisect_right(self.at, start) - 1, bisect.bisect_left(self.at, start - REF_WINDOW_S))
        hi = max(bisect.bisect_left(self.at, end), bisect.bisect_right(self.at, end + REF_WINDOW_S) - 1)
        return self.NOMINAL_S[self.kind] / statistics.median(self.took[lo:hi + 1])

    def summary(self) -> dict:
        return {"kind": self.kind, "nominal_s": self.NOMINAL_S[self.kind], "samples": len(self.took),
                "median_s": statistics.median(self.took)}


def measure_setup(wl, seed: int, repeats: int, ref: SpeedRef) -> list[tuple[float, float]]:
    """(raw, scaled) spawn-to-exit times of fresh interpreters doing the workload's set-up."""
    from workloads import CHILD, child_env

    fields = ",".join(f"{p}^{k}" for p, k in wl.setup_fields(seed))
    cmd = [sys.executable, str(CHILD), "setup", ",".join(wl.modules), fields]
    spans = []
    for _ in range(repeats):
        ref.take()
        started = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, cwd=ROOT, timeout=120)
        spans.append((started, time.perf_counter()))
        if proc.returncode != 0:
            raise NotBenchmarkable(f"set-up failed: {proc.stderr.decode(errors='replace')[-500:]}")
    ref.take()
    return [(end - start, (end - start) * ref.scale(start, end)) for start, end in spans]


class Runner:
    def __init__(self, wl, pinned: dict, ref: SpeedRef):
        self.wl = wl
        self.pinned = pinned
        self.ref = ref
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[int, list[tuple[float, float]]] = {}  # operation index -> untraced (start, end)
        self.works: dict[int, int] = {}
        self.stats: dict = {}
        self.spans: list = []
        self.process_s = 0.0

    def _check(self, op, output) -> str | None:
        wl = self.wl
        key = wl.pin_key(op)
        if key is not None:
            expected = self.pinned.get(key)
            if expected is None:
                return f"no pinned output for {key!r}"
            got = wl.digest(op, output)
            if got != expected:
                return f"output of {key!r} differs from the pinned one ({got[:16]} != {expected[:16]})"
        return wl.verify(op, output)

    def run_pass(self, ops: list[tuple], traced: bool) -> float:
        """Run and check every operation once; returns the summed operation time."""
        from tracing import Tracer, merge_stats, spans_to_json, stats_to_json

        wl = self.wl
        tracer = Tracer() if traced and wl.in_process else None
        outputs, errors, busy = [], [], 0.0
        if tracer:
            tracer.install()
        try:
            for i, op in enumerate(ops):
                if not traced:
                    self.ref.maybe()
                started = time.perf_counter()
                try:
                    if traced and not wl.in_process:
                        output, payload = wl.run_traced(op)
                    else:
                        output = wl.run(op)
                    err = None
                except Exception as exc:  # a raised PermBinomError is a failed operation
                    output, err = None, f"{op}: raised {type(exc).__name__}: {exc}"
                ended = time.perf_counter()
                elapsed = ended - started
                busy += elapsed
                if traced and not wl.in_process and err is None:
                    merge_stats(self.stats, payload.get("stats", {}))
                    self.spans.append({"op": list(op), "spans": payload.get("spans", [])})
                    self.process_s += elapsed - payload.get("stats", {}).get("cli.main", {}).get("total_s", 0.0)
                if not traced and err is None:
                    self.times.setdefault(i, []).append((started, ended))
                    self.works[i] = wl.work(op, output)
                outputs.append(output)
                errors.append(err)
        finally:
            if tracer:
                tracer.uninstall()
        if not traced:
            self.ref.take()
        if tracer:
            merge_stats(self.stats, stats_to_json(tracer))
            self.spans.append({"spans": spans_to_json(tracer)})
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if errors[i] is None:
                errors[i] = self._check(op, output)
        for i, msg in wl.verify_pass(ops, outputs):
            errors[i] = errors[i] or msg
        self.attempted += len(ops)
        self.failures += [e for e in errors if e]
        return busy


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict, dict]:
    if not (SRC / "permbinom" / "__init__.py").is_file():
        raise NotBenchmarkable(f"no permbinom sources under {SRC}")
    if not PINNED.is_file():
        raise NotBenchmarkable(f"missing {PINNED}")
    sys.path.insert(0, str(SRC))
    import importlib

    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](scale)
    pinned = json.loads(PINNED.read_text())[scale][workload]
    if hasattr(os, "sched_setaffinity"):
        # one vCPU for the run and its children, so the speed reference and
        # the timings it scales are taken on the same CPU
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_ref = SpeedRef("spawn")
    measure_setup(wl, seed, 1, setup_ref)  # the first spawn may compile bytecode; not counted
    setup = measure_setup(wl, seed, SETUP_REPEATS, setup_ref)
    for name in wl.modules:
        importlib.import_module(name)
    if wl.in_process:
        from permbinom.fields import make_field

        for p, k in wl.setup_fields(seed):
            make_field(p, k).alpha

    ops = wl.ops(seed)
    ref = SpeedRef("loop" if wl.in_process else "spawn")
    runner = Runner(wl, pinned, ref)
    started = time.perf_counter()
    passes, traced_s, untraced_s = 0, 0.0, 0.0
    while True:
        untraced_s += runner.run_pass(ops, traced=False)
        if trace:
            traced_s += runner.run_pass(ops, traced=True)
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes > seconds:
            break
    measured_s = time.perf_counter() - started
    setup += measure_setup(wl, seed, SETUP_REPEATS, setup_ref)

    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "scale": scale,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "mpmath": _mpmath_version(), "git_sha": git_sha(), "src_sha256": src_sha256(),
        "operations": len(ops), "passes": passes, "measured_s": round(measured_s, 3),
        "setup_samples_s": [raw for raw, _ in setup],
        "speed_ref": {"operations": ref.summary(), "setup": setup_ref.summary()},
    }
    if trace:
        cov = layers.coverage_failures(workload, runner.stats)
        runner.attempted += 1
        runner.failures += cov
        overhead = traced_s / untraced_s - 1 if untraced_s else 0.0
        values = layers.layer_metrics(runner.stats, passes, overhead, runner.process_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        if wl.in_process:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

        def e2e(scaled: bool) -> dict[str, float]:
            best = {
                i: min((end - start) * (ref.scale(start, end) if scaled else 1.0) for start, end in spans)
                for i, spans in runner.times.items()
            }
            latencies = [t for i, t in best.items() if wl.is_latency_sample(ops[i])]
            busy = sum(best.values())
            return {
                "setup_s": statistics.median(pair[scaled] for pair in setup),
                "work_per_s": sum(runner.works[i] for i in best) / busy if busy else 0.0,
                "op_p50_ms": statistics.median(latencies) * 1000 if latencies else 0.0,
                "op_p90_ms": percentile(latencies, 90) * 1000 if latencies else 0.0,
                "peak_rss_mb": peak_kb / 1024,
            }

        values = e2e(scaled=True)
        meta["raw"] = e2e(scaled=False)
        n_latency = sum(1 for i in runner.times if wl.is_latency_sample(ops[i]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        meta["samples"] = {
            "op_p50_ms": n_latency, "op_p90_ms": n_latency, "setup_s": len(setup),
            "timings_per_operation": passes,
        }
    failed = len(runner.failures)
    meta["failed_frac"] = failed / runner.attempted
    meta["failures"] = [msg[:300] for msg in runner.failures[:20]]
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    timings = [
        {"op": list(ops[i]), "raw_s": [end - start for start, end in spans],
         "scaled_s": [(end - start) * ref.scale(start, end) for start, end in spans]}
        for i, spans in sorted(runner.times.items())
    ]
    return result, meta, {"timings": timings, "spans": runner.spans}


def _mpmath_version() -> str | None:
    try:
        import mpmath
    except ImportError:
        return None
    return mpmath.__version__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(ALIASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    try:
        result, meta, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    except NotBenchmarkable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    aliases = ALIASES[args.workload]
    for name, m in result["metrics"].items():
        alias = aliases.get(name)
        print(f"{name:48s} {m['value']:.6g} {m['unit']}" + (f"   ({alias})" if alias else ""))
    if "raw" in meta:
        print("raw, unscaled: " + "  ".join(f"{k} {v:.6g}" for k, v in meta["raw"].items()))
    print(f"{'failed_frac':48s} {meta['failed_frac']:.6g} ratio   ({result['failed']}/{result['attempted']})")
    for msg in meta["failures"]:
        print(f"FAIL {msg}")
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "result": result, **detail}))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
