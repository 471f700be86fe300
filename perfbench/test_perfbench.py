"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import permbinom.fields  # noqa: E402
import layers  # noqa: E402
from run import Runner, SpeedRef  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_named_metric_is_printed_with_its_unit(workload, trace):
    rc, stdout = _tiny_run(workload, trace)
    result = json.loads(stdout.strip().splitlines()[-1])
    assert rc == 0, stdout
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert any(line.startswith(m["name"] + " ") and f" {m['unit']}" in line for line in stdout.splitlines())


def test_per_layer_list_matches_benchmark_json():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("workload", ["sweep", "deep-scan", "exact-trace"])
def test_gate_fails_against_a_wrong_pinned_digest(workload):
    wl = WORKLOADS[workload]("tiny")
    pinned = json.loads((HERE / "pinned.json").read_text())["tiny"][workload]
    ops = wl.ops(0)

    good = Runner(wl, pinned, SpeedRef("loop"))
    good.run_pass(ops, traced=False)
    assert good.failures == []

    wrong = Runner(wl, {key: "0" * 64 for key in pinned}, SpeedRef("loop"))
    wrong.run_pass(ops, traced=False)
    assert wrong.failures and all("differs from the pinned" in f or "power sum" in f for f in wrong.failures)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_same_seed_generates_the_same_inputs(workload):
    def ops(seed):
        return WORKLOADS[workload]("full").ops(seed)

    assert ops(11) == ops(11)
    assert ops(11) != ops(12)


def test_tracer_restores_every_binding():
    import permbinom.cli  # noqa: F401
    import permbinom.sharpness  # noqa: F401

    mods = [m for n, m in list(sys.modules.items()) if n == "permbinom" or n.startswith("permbinom.")]
    classes = (permbinom.fields.FieldElement, permbinom.fields.FieldSpec)

    def snapshot():
        return [dict(vars(m)) for m in mods] + [dict(vars(c)) for c in classes]

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    assert "permbinom.sweep.enumerate_perm_binomials" in tracer.installed_wrappers()
    tracer.uninstall()
    assert snapshot() == before
    assert tracer.installed_wrappers() == []


def test_coverage_check_names_a_layer_without_calls():
    stats = {layer: {"calls": 1} for layer in layers.EXPECTED_WORK}
    assert layers.coverage_failures("sweep", stats) == []
    del stats["sweep.run_verify_sweep"]
    assert layers.coverage_failures("sweep", stats) == [
        "layer sweep.run_verify_sweep recorded no calls on sweep; is a binding of it left unpatched?"
    ]



def test_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (bench / "pinned.json").write_bytes((HERE / "pinned.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
