"""Run the benchmark over several seeds and summarise it as a BENCH file.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/BENCH_baseline.json

For each workload it makes one untraced run per seed and reports, for every
end-to-end metric, the median, the quartiles and the spread (q3 - q1) /
median next to the metric's bound in BENCHMARK.json. With --trace-seed it
adds one traced run per workload for the per-layer numbers. Without --out it
only prints the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
              "workloads": {}}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs, started = [], time.time()
        for seed in report["seeds"]:
            runs.append(one_run(workload, seed, args.seconds, 0))
        entry = {"wall_s_per_run": (time.time() - started) / len(runs), "end_to_end": {}}
        for name, bound in bounds.items():
            s = spread([result["metrics"][name]["value"] for _, result in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] < bound / 3 else "   <-- above bound/3"
            print(f"{workload:12s} {name:12s} median {s['median']:12.5g}  spread {s['spread']:.4f}  bound {bound}{flag}",
                  flush=True)
        entry["failed"] = sum(result["failed"] for _, result in runs)
        entry["attempted"] = sum(result["attempted"] for _, result in runs)
        entry["samples_per_run"] = [meta.get("samples") for meta, _ in runs]
        report["meta"] = {k: runs[0][0][k] for k in ("nproc", "python", "mpmath", "git_sha", "src_sha256")}
        if args.trace_seed is not None:
            meta, result = one_run(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "passes": meta["passes"], "correct": result["correct"],
                                  "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        report["workloads"][workload] = entry
        print(f"{workload:12s} {entry['wall_s_per_run']:.1f} s per run, failed {entry['failed']}/{entry['attempted']}",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
