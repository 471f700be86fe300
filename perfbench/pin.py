"""Write pinned.json: the expected output digest of every pool operation.

    python3 perfbench/pin.py [--scale full|tiny] [--workload NAME]

Run this only at a commit whose outputs are trusted; the benchmark fails
any later run whose outputs differ. Every operation is also put through
the workload's cross-route checks here, so nothing wrong gets pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

PINNED = HERE / "pinned.json"


def pin(name: str, scale: str) -> dict[str, str]:
    wl = WORKLOADS[name](scale)
    if "sharpness" in " ".join(wl.modules):
        import permbinom.sharpness  # noqa: F401
    pinned: dict[str, str] = {}
    for op in wl.pool():
        key = wl.pin_key(op)
        output = wl.run(op)
        problem = wl.verify(op, output)
        if problem:
            raise SystemExit(f"refusing to pin {key}: {problem}")
        digest = wl.digest(op, output)
        if pinned.setdefault(key, digest) != digest:
            raise SystemExit(f"two pool operations disagree on {key}")
    return pinned


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", choices=("full", "tiny"), action="append")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), action="append")
    args = parser.parse_args()
    data = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for scale in args.scale or ("full", "tiny"):
        for name in args.workload or WORKLOADS:
            data.setdefault(scale, {})[name] = pin(name, scale)
            print(f"{scale} {name}: {len(data[scale][name])} pinned", flush=True)
    tmp = PINNED.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, PINNED)  # benchmark runs may be reading it


if __name__ == "__main__":
    main()
