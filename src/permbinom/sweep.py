"""Cross-validation sweep: closed form vs criterion vs Wan-Lidl vs brute force.

One cell per (q, n, r) with q a prime power admissible for r and n coprime
to (q-1)/r. The admissible-a set depends on n only through n mod 2 (r = 2)
or 2n mod 3 (r = 3), so the criterion and Wan-Lidl enumerations run once
per residue class of n and every cell is compared against its class set;
the closed form is evaluated per cell. Brute force confirms every cell
with q <= BRUTE_FULL_MAX and a fixed-seed BRUTE_SAMPLE_RATE share above
that, at about q shifts of q-bit masks per cell, as it evaluates one a per
orbit of a -> a^p and a -> omega a (omega^r = 1). Every sweep runs all
four routes.

counts.class_failures and counts.cell_failures make every comparison, as
for count --verify. The sweep keeps the policy: which cells brute force
samples, and which are ok. It records each disagreement as a SweepFailure
and raises none, so one bad cell cannot mask others.
merge_results alone sets the report order, cells by (q, n, r) and failures
sorted, for every sweep and for selftest --report: reports are byte-identical
across runs and worker counts, and elapsed_ms is the one field that varies.
"""

from __future__ import annotations

import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import chain
from math import gcd
from operator import index
from typing import NamedTuple

from .counts import bound_pairs, cell_failures, checked_pairs, class_failures, closed_count, epsilons, render
from .curves import pi_trace
from .errors import DivisibilityViolationError, SweepConfigError, int_text
from .fields import ensure_enumerable, make_field
from .permtest import enumerate_perm_binomials, field_admits
from .primes import prime_power_decompose, prime_powers_upto

BRUTE_FULL_MAX = 100  # brute force confirms every cell with q up to this
BRUTE_SAMPLE_RATE = 0.1  # and this seeded share of the cells above it


class SweepConfig(NamedTuple):
    """Which cells one verification sweep covers, and how it runs.

    Every admissible (q, n, r) with q <= q_max and r in r_set is checked
    by all four routes. seed picks the brute-force sample above
    BRUTE_FULL_MAX; jobs > 1 distributes whole (q, r) blocks across
    processes, at most one per CPU (os.cpu_count()).
    """

    q_max: int = 343
    r_set: tuple[int, ...] = (2, 3)
    seed: int = 0
    jobs: int = 1


class SweepFailure(NamedTuple):
    q: int
    n: int
    r: int
    route_a: str
    route_b: str
    diff: str


class SweepResult(NamedTuple):
    cells: tuple[dict, ...]
    failures: tuple[SweepFailure, ...]
    elapsed_ms: int


def valid_exponents(q: int, r: int) -> list[int]:
    """All n in [1, q-1] with gcd(n, (q-1)/r) = 1, ascending."""
    d = (q - 1) // r
    return [n for n in range(1, q) if gcd(n, d) == 1]


def _field_task(config: SweepConfig, p: int, k: int, r: int) -> SweepResult:
    """All cells and failures for one (q, r) block, elapsed_ms 0. Top level so it pickles."""
    q = p**k
    spec = make_field(p, k)
    cells: list[dict] = []
    failures: list[SweepFailure] = []
    ns = valid_exponents(q, r)

    class_sets: dict[int, frozenset[int]] = {}
    for n in ns:
        if n % r not in class_sets:
            class_sets[n % r], found = class_failures(spec, n, r)
            failures += [SweepFailure(q, n, r, *f) for f in found]

    disputed = {f.n % r for f in failures}  # classes where Wan-Lidl disagrees
    # what every cell of the block shares, formed once
    mz_lo, mz_hi, cor_lo, cor_hi = bounds = bound_pairs(q, r)
    pairs = checked_pairs(*bounds)
    mz_lower, mz_upper = str(mz_lo), str(mz_hi)
    s_k = str(pi_trace(p, k)) if r == 3 else None
    rng = random.Random(f"{index(config.seed)}:{q}:{r}")  # True samples as 1 does

    for n in ns:
        crit_set = class_sets[n % r]
        recorded = len(failures)
        e1, e2 = epsilons(q, n) if r == 3 else (None, None)
        closed: int | None = None
        try:
            closed = closed_count(p, k, n, r)
        except DivisibilityViolationError as exc:
            failures.append(SweepFailure(q, n, r, "closed", "divisibility", str(exc)))
        brute = None
        if q <= BRUTE_FULL_MAX or rng.random() < BRUTE_SAMPLE_RATE:
            brute = frozenset(enumerate_perm_binomials(spec, n, r, method="bruteforce", encoded=True))
        failures += [SweepFailure(q, n, r, *f) for f in cell_failures(closed, crit_set, brute, pairs)]

        cells.append(
            {
                "q": q,
                "p": p,
                "k": k,
                "n": n,
                "r": r,
                "epsilon1": e1,
                "epsilon2": e2,
                "s_k": s_k,
                "closed_count": closed,
                "criterion_count": len(crit_set),
                "brute_count": None if brute is None else len(brute),
                "mz_lower": mz_lower,
                "mz_upper": mz_upper,
                "cor_lower": cor_lo,
                "cor_upper": cor_hi,
                "ok": len(failures) == recorded and n % r not in disputed,
            }
        )
    return SweepResult(tuple(cells), tuple(failures), 0)


def merge_results(results: list[SweepResult]) -> SweepResult:
    """One report from several, in the report order: cells by (q, n, r), failures sorted; elapsed_ms summed."""
    cells = sorted((c for res in results for c in res.cells), key=lambda c: (c["q"], c["n"], c["r"]))
    failures = sorted(f for res in results for f in res.failures)
    return SweepResult(tuple(cells), tuple(failures), sum(res.elapsed_ms for res in results))


def validate_config(config: SweepConfig) -> None:
    """Raise SweepConfigError, or EnumerationGuardError above the guard, before any work starts."""
    try:
        for value in (config.q_max, config.seed, config.jobs, *config.r_set):
            index(value)
    except TypeError:
        raise SweepConfigError("q_max, seed, jobs and each entry of r_set must be integers") from None
    if config.q_max < 2:
        raise SweepConfigError("q_max must be at least 2")
    ensure_enumerable(config.q_max)
    if not config.r_set:
        raise SweepConfigError("r_set must be a non-empty subset of {2, 3}, got ()")
    for r in config.r_set:
        if r not in (2, 3):
            raise SweepConfigError(f"r_set must be a non-empty subset of {{2, 3}}, got an entry {int_text(r)}")
    # the seed keys the brute-force sample by its decimal text, which the interpreter's digit limit bounds
    seed, limit = index(config.seed), sys.get_int_max_str_digits()
    if limit and abs(seed) >= 10**limit:
        raise SweepConfigError(f"seed = {int_text(seed)} has more than {limit} digits, the interpreter's int-to-str digit limit")
    if config.jobs < 1:
        raise SweepConfigError("jobs must be positive")
    # the pool starts all its workers at once, so the cap comes before it exists
    cpus = os.cpu_count() or 1
    if config.jobs > cpus:
        raise SweepConfigError(f"jobs = {int_text(config.jobs)} exceeds the {cpus} CPUs of this machine")


def run_verify_sweep(config: SweepConfig) -> SweepResult:
    """Sweep all admissible (q, n, r) cells up to config.q_max."""
    started = time.monotonic()
    validate_config(config)
    tasks = []
    for q in prime_powers_upto(config.q_max):
        p, k = prime_power_decompose(q)
        tasks += [(config, p, k, r) for r in sorted(set(config.r_set)) if field_admits(q, r)]
    if config.jobs > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            parts = list(pool.map(_field_task, *zip(*tasks)))  # one iterable per parameter
    else:
        parts = [_field_task(*t) for t in tasks]
    return merge_results(parts)._replace(elapsed_ms=int((time.monotonic() - started) * 1000))


CSV_COLUMNS = (
    "q", "p", "k", "n", "r", "closed_count", "criterion_count", "brute_count",
    "epsilon1", "epsilon2", "s_k", "mz_lower", "mz_upper", "cor_lower", "cor_upper", "ok",
)


def emit_report(result: SweepResult, fmt: str = "json") -> bytes:
    """A sweep result rendered in fmt: s_k and the Masuda-Zieve bounds ride as strings, q and counts as numbers."""
    payload = {
        "cells": list(result.cells),
        "failures": [f._asdict() for f in result.failures],
        "elapsed_ms": result.elapsed_ms,
    }
    rows = chain([CSV_COLUMNS], (["" if cell[col] is None else cell[col] for col in CSV_COLUMNS] for cell in result.cells))
    lines = [f"cells={len(result.cells)} failures={len(result.failures)} elapsed_ms={result.elapsed_ms}"]
    blocks: dict[tuple[int, int], list[dict]] = {}
    for cell in result.cells:
        blocks.setdefault((cell["q"], cell["r"]), []).append(cell)
    for (q, r), group in sorted(blocks.items()):
        n_ok = sum(1 for c in group if c["ok"])
        n_brute = sum(1 for c in group if c["brute_count"] is not None)
        counts = sorted({c["criterion_count"] for c in group})
        lines.append(f"q={q} r={r} cells={len(group)} ok={n_ok} brute={n_brute} counts={counts}")
    for f in result.failures:
        lines.append(f"FAIL q={f.q} n={f.n} r={f.r} {f.route_a} vs {f.route_b}: {f.diff}")
    return render(fmt, payload, "\n".join(lines) + "\n", rows)
