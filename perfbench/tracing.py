"""Per-layer tracing of permbinom from outside the package.

A Tracer wraps the public functions of each src/permbinom module, in every
module that binds them (``from .x import f`` copies the binding, so the
defining module alone is not enough), and restores the originals on
uninstall. Wrapped functions get call counts and busy time; coarse ones
(whole enumerations, probes, sweeps, CLI entry) also record spans
(name, start, end, parent) kept in memory. Self time is a call's duration
minus the time of the wrapped calls made inside it. The per-element
FieldElement dunders run millions of times per sweep, so they only count.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

# (layer, module, attribute, records spans). permtest.enumerate_perm_binomials
# is split by method into permtest.criterion / .bruteforce / .wanlidl.
FUNCTION_LAYERS = (
    ("fields.make_field", "permbinom.fields", "make_field", True),
    ("primes.prime_powers_upto", "permbinom.primes", "prime_powers_upto", False),
    ("primes.factorize", "permbinom.primes", "factorize", False),
    ("characters.quadratic_char", "permbinom.characters", "quadratic_char", False),
    ("characters.cubic_char", "permbinom.characters", "cubic_char", False),
    ("characters.cubic_roots_of_unity", "permbinom.characters", "cubic_roots_of_unity", False),
    ("characters.power_sum", "permbinom.characters", "power_sum", True),
    ("permtest", "permbinom.permtest", "enumerate_perm_binomials", True),
    ("curves.pi_trace", "permbinom.curves", "pi_trace", False),
    ("curves.compute_kappa", "permbinom.curves", "compute_kappa", False),
    ("curves.count_points_prime", "permbinom.curves", "count_points_prime", True),
    ("curves.count_points_extension", "permbinom.curves", "count_points_extension", True),
    ("counts.closed_count_r2", "permbinom.counts", "closed_count_r2", False),
    ("counts.closed_count_r3", "permbinom.counts", "closed_count_r3", False),
    ("counts.masuda_zieve_bounds", "permbinom.counts", "masuda_zieve_bounds", False),
    ("counts.refined_bounds_r3", "permbinom.counts", "refined_bounds_r3", False),
    ("counts.build_count_report", "permbinom.counts", "build_count_report", True),
    ("sharpness.sharpness_probe", "permbinom.sharpness", "sharpness_probe", True),
    ("sharpness.deviation_bounds", "permbinom.sharpness", "deviation_bounds", True),
    ("sharpness.decimal_string", "permbinom.sharpness", "decimal_string", False),
    ("sweep.run_verify_sweep", "permbinom.sweep", "run_verify_sweep", True),
    ("cli.main", "permbinom.cli", "main", True),
)

# FieldElement dunders, counted only; __rmul__/__radd__ count as mul/add.
COUNTED_DUNDERS = (
    ("fields.FieldElement.mul", "__mul__"),
    ("fields.FieldElement.mul", "__rmul__"),
    ("fields.FieldElement.add", "__add__"),
    ("fields.FieldElement.add", "__radd__"),
    ("fields.FieldElement.pow", "__pow__"),
)

ALPHA_LAYER = "fields.FieldSpec.alpha"

STATS_MARKER = b"\n@@perfbench-stats@@"  # precedes a traced CLI child's stats on stderr


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    fields: set = field(default_factory=set)  # distinct FieldSpecs seen
    keys: set = field(default_factory=set)  # distinct argument keys seen
    repeats: int = 0  # calls whose key was already seen
    kappa_hits: int = 0
    kappa_misses: int = 0
    cells: int = 0


class Tracer:
    """Install with install(), run the code, then uninstall()."""

    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self._stack: list[list] = []  # frames: [child_time, span_id or inherited parent span]
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def stat(self, name: str) -> LayerStat:
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = LayerStat()
        return s

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, spans: bool):
        stack = self._stack
        clock = time.perf_counter
        record = self.spans.append
        layer_name = _namer(name)
        note = _NOTES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            lname = layer_name(args, kwargs)
            st = tracer.stat(lname)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if spans:
                span_id = tracer._next_span
                tracer._next_span += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st.calls += 1
                st.total_s += d
                st.self_s += d - frame[0]
                if parent is not None:
                    parent[0] += d
                if spans:
                    record((span_id, lname, t0, t1, parent_span))
            if note is not None:
                note(st, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        self._wrappers.add(id(wrapper))
        return wrapper

    def _counted(self, name: str, fn):
        st = self.stat(name)

        def wrapper(self_, other):
            st.calls += 1
            return fn(self_, other)

        self._wrappers.add(id(wrapper))
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer in every loaded permbinom module that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._kappa_start = _kappa_cache_info()
        mods = _permbinom_modules()
        for name, modname, attr, spans in FUNCTION_LAYERS:
            home = sys.modules.get(modname)
            if home is None:
                continue  # module not imported in this process, nothing can call it
            original = getattr(home, attr)
            wrapper = self._timed(name, original, spans)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        fields = sys.modules["permbinom.fields"]
        for name, dunder in COUNTED_DUNDERS:
            self._set(fields.FieldElement, dunder, self._counted(name, fields.FieldElement.__dict__[dunder]))
        alpha = fields.FieldSpec.__dict__["alpha"]
        self._set(fields.FieldSpec, "alpha", property(self._timed(ALPHA_LAYER, alpha.fget, False)))

    def uninstall(self) -> None:
        """Restore every original binding, then prove none of ours is left."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        hits, misses = _kappa_cache_info()
        st = self.stat("curves.compute_kappa")
        st.kappa_hits += hits - self._kappa_start[0]
        st.kappa_misses += misses - self._kappa_start[1]
        leftover = self.installed_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers still installed after uninstall: {leftover}")

    def installed_wrappers(self) -> list[str]:
        found = []
        for mod in _permbinom_modules():
            for key, value in vars(mod).items():
                if id(value) in self._wrappers:
                    found.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    for ckey, cvalue in vars(value).items():
                        fget = getattr(cvalue, "fget", None)
                        if id(cvalue) in self._wrappers or id(fget) in self._wrappers:
                            found.append(f"{mod.__name__}.{key}.{ckey}")
        return found


def _permbinom_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "permbinom" or n.startswith("permbinom."))]


def _kappa_cache_info() -> tuple[int, int]:
    info = sys.modules["permbinom.curves"].compute_kappa.cache_info()
    return info.hits, info.misses


def _namer(name: str):
    if name == "permtest":
        def by_method(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "criterion")
            return f"permtest.{method}"
        return by_method
    return lambda args, kwargs: name


def _note_field(st, args, kwargs, result):
    st.fields.add(args[0])


def _note_pi_trace(st, args, kwargs, result):
    key = (args[0], args[1]) if len(args) > 1 else (args[0], kwargs["j"])
    if key in st.keys:
        st.repeats += 1
    else:
        st.keys.add(key)


def _note_sweep(st, args, kwargs, result):
    st.cells += len(result.cells)


_NOTES = {
    "permtest": _note_field,
    "characters.cubic_roots_of_unity": _note_field,
    "curves.pi_trace": _note_pi_trace,
    "sweep.run_verify_sweep": _note_sweep,
}


def stats_to_json(tracer: Tracer) -> dict:
    """Plain-data form of the stats, for crossing a process boundary."""
    return {
        name: {
            "calls": s.calls, "total_s": s.total_s, "self_s": s.self_s,
            "fields": len(s.fields), "repeats": s.repeats,
            "kappa_hits": s.kappa_hits, "kappa_misses": s.kappa_misses, "cells": s.cells,
        }
        for name, s in tracer.stats.items()
    }


def spans_to_json(tracer: Tracer) -> list[list]:
    return [list(span) for span in tracer.spans]


def merge_stats(into: dict, part: dict) -> None:
    """Add one stats_to_json() dict into an accumulator of the same shape.

    Distinct-field counts add up across processes: each CLI child builds its
    own FieldSpec objects, so a field met in two children is two set-ups.
    """
    for name, s in part.items():
        acc = into.setdefault(name, dict.fromkeys(s, 0))
        for key, value in s.items():
            acc[key] += value
