"""The benchmark's required layers still record calls, checked here rather than first in a benchmark run.

perfbench/layers.py EXPECTED_WORK names, per workload, the layers that
must record calls in a traced pass, and perfbench/tracing.py's Tracer
counts them. A refactor that drops a call some workload requires fails
this test. The benchmark files are used as they are.
"""

from pathlib import Path

import pytest

import permbinom.sharpness  # noqa: F401  loaded before the tracer installs, so their bindings get wrapped and restored
import permbinom.sweep  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


@pytest.mark.parametrize("workload", ["sweep", "deep-scan", "exact-trace"])
def test_a_traced_tiny_pass_records_every_required_layer(perfbench, workload):
    layers, tracing, workloads = perfbench
    wl = workloads.WORKLOADS[workload]("tiny")
    ops = wl.ops(1)
    for op in ops:  # an untraced pass first, as the benchmark runs one before each traced pass
        assert wl.verify(op, wl.run(op)) is None, op
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [wl.run(op) for op in ops]
    finally:
        tracer.uninstall()
    assert [wl.verify(op, out) for op, out in zip(ops, outputs)] == [None] * len(ops)
    assert layers.coverage_failures(workload, tracing.stats_to_json(tracer)) == []


def test_a_traced_tiny_cli_pass_records_every_required_layer(perfbench):
    # each query runs in a child interpreter under perfbench/child.py, as the benchmark's traced pass runs it
    layers, tracing, workloads = perfbench
    wl = workloads.WORKLOADS["cli-oneshot"]("tiny")
    stats = {}
    for op in wl.ops(1):
        output, payload = wl.run_traced(op)
        assert wl.verify(op, output) is None, op
        tracing.merge_stats(stats, payload.get("stats", {}))
    assert layers.coverage_failures("cli-oneshot", stats) == []
