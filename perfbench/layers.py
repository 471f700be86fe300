"""Per-layer metrics of the traced run, and where each layer must show work.

Every value is per traced pass, so counts repeat exactly for a given seed
and do not grow with run length.
"""

from __future__ import annotations

SWEEP, DEEP, EXACT, CLI = "sweep", "deep-scan", "exact-trace", "cli-oneshot"

# (metric, unit, better)
PER_LAYER = (
    ("permtest.bruteforce.calls", "count", "lower"),
    ("permtest.bruteforce.self_s", "s", "lower"),
    ("permtest.bruteforce.calls_per_field", "count", "lower"),
    ("permtest.criterion.calls", "count", "lower"),
    ("permtest.criterion.self_s", "s", "lower"),
    ("permtest.wanlidl.calls", "count", "lower"),
    ("permtest.wanlidl.self_s", "s", "lower"),
    ("fields.FieldElement.mul.calls", "count", "lower"),
    ("fields.FieldElement.add.calls", "count", "lower"),
    ("fields.FieldElement.pow.calls", "count", "lower"),
    ("fields.make_field.calls", "count", "lower"),
    ("fields.make_field.total_s", "s", "lower"),
    ("fields.FieldSpec.alpha.total_s", "s", "lower"),
    ("primes.prime_powers_upto.calls", "count", "lower"),
    ("primes.prime_powers_upto.total_s", "s", "lower"),
    ("primes.factorize.calls", "count", "lower"),
    ("primes.factorize.total_s", "s", "lower"),
    ("characters.quadratic_char.calls", "count", "lower"),
    ("characters.quadratic_char.total_s", "s", "lower"),
    ("characters.cubic_char.calls", "count", "lower"),
    ("characters.cubic_char.total_s", "s", "lower"),
    ("characters.cubic_roots_of_unity.calls_per_field", "count", "lower"),
    ("characters.power_sum.total_s", "s", "lower"),
    ("curves.pi_trace.calls", "count", "lower"),
    ("curves.pi_trace.total_s", "s", "lower"),
    ("curves.pi_trace.repeat_frac", "ratio", "lower"),
    ("curves.compute_kappa.hit_frac", "ratio", "higher"),
    ("curves.count_points_prime.total_s", "s", "lower"),
    ("curves.count_points_extension.total_s", "s", "lower"),
    ("counts.closed_count_r2.calls", "count", "lower"),
    ("counts.closed_count_r2.total_s", "s", "lower"),
    ("counts.closed_count_r3.calls", "count", "lower"),
    ("counts.closed_count_r3.total_s", "s", "lower"),
    ("counts.masuda_zieve_bounds.calls", "count", "lower"),
    ("counts.masuda_zieve_bounds.total_s", "s", "lower"),
    ("counts.refined_bounds_r3.calls", "count", "lower"),
    ("counts.refined_bounds_r3.total_s", "s", "lower"),
    ("counts.build_count_report.calls", "count", "lower"),
    ("counts.build_count_report.total_s", "s", "lower"),
    ("sharpness.sharpness_probe.self_s", "s", "lower"),
    ("sharpness.deviation_bounds.calls", "count", "lower"),
    ("sharpness.deviation_bounds.self_s", "s", "lower"),
    ("sharpness.decimal_string.total_s", "s", "lower"),
    ("sweep.run_verify_sweep.self_s", "s", "lower"),
    ("sweep.cells", "count", "higher"),
    ("cli.main.total_s", "s", "lower"),
    ("cli.process_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Layers that must record calls on these workloads. Zero calls there means a
# binding the tracer failed to patch (or a workload that lost its traffic).
EXPECTED_WORK = {
    "permtest.bruteforce": (SWEEP, CLI),
    "permtest.criterion": (SWEEP, DEEP, CLI),
    "permtest.wanlidl": (DEEP, CLI),
    "fields.FieldElement.mul": (SWEEP, DEEP, CLI),
    "fields.FieldElement.add": (SWEEP, DEEP, CLI),
    "fields.FieldElement.pow": (SWEEP, DEEP, CLI),
    "fields.make_field": (SWEEP, CLI),
    "fields.FieldSpec.alpha": (SWEEP, DEEP, CLI),
    "primes.prime_powers_upto": (SWEEP,),
    "primes.factorize": (SWEEP, EXACT, CLI),
    "characters.quadratic_char": (SWEEP, DEEP, CLI),
    "characters.cubic_char": (SWEEP, DEEP, CLI),
    "characters.cubic_roots_of_unity": (SWEEP, DEEP, CLI),
    "characters.power_sum": (DEEP, CLI),
    "curves.pi_trace": (SWEEP, EXACT, CLI),
    "curves.compute_kappa": (SWEEP, EXACT, CLI),
    "curves.count_points_prime": (CLI,),
    "curves.count_points_extension": (DEEP, CLI),
    "counts.closed_count_r2": (SWEEP, CLI),
    "counts.closed_count_r3": (SWEEP, EXACT, CLI),
    "counts.masuda_zieve_bounds": (SWEEP, CLI),
    "counts.refined_bounds_r3": (SWEEP, EXACT, CLI),
    "counts.build_count_report": (CLI,),
    "sharpness.sharpness_probe": (EXACT, CLI),
    "sharpness.deviation_bounds": (EXACT, CLI),
    "sharpness.decimal_string": (EXACT, CLI),
    "sweep.run_verify_sweep": (SWEEP,),
    "cli.main": (CLI,),
}


def coverage_failures(workload: str, stats: dict) -> list[str]:
    return [
        f"layer {layer} recorded no calls on {workload}; is a binding of it left unpatched?"
        for layer, workloads in EXPECTED_WORK.items()
        if workload in workloads and stats.get(layer, {}).get("calls", 0) == 0
    ]


def layer_metrics(stats: dict, passes: int, overhead_frac: float, process_s: float) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric from merged tracer stats."""
    def get(layer, key):
        return stats.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "sweep.cells": get("sweep.run_verify_sweep", "cells") / passes,
        "cli.process_s": process_s / passes,
        "trace.overhead_frac": overhead_frac,
        "curves.pi_trace.repeat_frac": ratio(get("curves.pi_trace", "repeats"), get("curves.pi_trace", "calls")),
        "curves.compute_kappa.hit_frac": ratio(
            get("curves.compute_kappa", "kappa_hits"),
            get("curves.compute_kappa", "kappa_hits") + get("curves.compute_kappa", "kappa_misses"),
        ),
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        layer, stat = name.rsplit(".", 1)
        if stat == "calls_per_field":
            out[name] = ratio(get(layer, "calls"), get(layer, "fields"))
        else:
            out[name] = get(layer, stat) / passes
    return out
