"""Child processes the benchmark spawns from the checkout root.

    python3 perfbench/child.py setup MODULES FIELDS
        Import the comma-separated MODULES and build every field in FIELDS
        ("p^k,p^k,...") with its generator alpha, then exit. The parent
        times this from spawn to exit as the workload's set-up.

    python3 perfbench/child.py cli ARGV...
        Install the tracer, run permbinom.cli.main(ARGV), and append the
        layer stats and spans to stderr after a marker line. Exits with the
        CLI's own exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def setup(modules: str, fields: str) -> int:
    for name in modules.split(","):
        importlib.import_module(name)
    from permbinom.fields import make_field

    for item in filter(None, fields.split(",")):
        p, k = item.split("^")
        make_field(int(p), int(k)).alpha
    return 0


def cli(argv: list[str]) -> int:
    import permbinom.cli

    if argv and argv[0] == "sharpness":
        import permbinom.sharpness  # noqa: F401  (imported lazily by the CLI; patch it first)
    from tracing import STATS_MARKER, Tracer, spans_to_json, stats_to_json

    tracer = Tracer()
    tracer.install()
    try:
        rc = permbinom.cli.main(argv)
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    payload = {"stats": stats_to_json(tracer), "spans": spans_to_json(tracer)}
    sys.stderr.buffer.write(STATS_MARKER + json.dumps(payload).encode())
    sys.stderr.flush()
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(setup(*rest) if mode == "setup" else cli(rest))
