"""The four workloads: seeded inputs, the operations they run, and the checks.

Every workload draws its inputs from a fixed pool, so that each output can
be compared with a value pinned in pinned.json (written by pin.py). The
seed chooses which pool entries a run uses and in what order; the make-up
(the fields, primes or query kinds) is the same for every seed. A run
repeats the seeded operation list in passes.

Operations are plain tuples; ``run`` executes one, ``digest`` reduces its
output to the pinned form, and ``verify`` applies the cross-route checks
that need no pinned value.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import permbinom as pb
from permbinom.primes import is_prime
from tracing import STATS_MARKER

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jdigest(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same per-process hashing, hence cost, on every spawn
    return env


class Workload:
    name = ""
    in_process = True
    modules = ("permbinom",)

    def __init__(self, scale: str):
        self.scale = scale

    def setup_fields(self, seed: int) -> list[tuple[int, int]]:
        return []

    def ops(self, seed: int) -> list[tuple]:
        """The seeded list of operations one pass runs."""
        raise NotImplementedError

    def pool(self) -> list[tuple]:
        """Operations whose outputs cover every pin key ops() can produce."""
        raise NotImplementedError

    def run(self, op: tuple):
        raise NotImplementedError

    def work(self, op: tuple, output) -> int:
        return 1

    def is_latency_sample(self, op: tuple) -> bool:
        return True

    def pin_key(self, op: tuple) -> str | None:
        raise NotImplementedError

    def digest(self, op: tuple, output) -> str:
        raise NotImplementedError

    def verify(self, op: tuple, output) -> str | None:
        return None

    def verify_pass(self, ops: list[tuple], outputs: list) -> list[tuple[int, str]]:
        """Checks across the operations of a pass, as (operation index, message)."""
        return []


# ---------------------------------------------------------------------------


class Sweep(Workload):
    """run_verify_sweep with default methods over every q <= q_max, for r = 2 and r = 3."""

    name = "sweep"
    SIZES = {"full": (128, 24), "tiny": (16, 3)}  # q_max, sampling seeds per r
    # Sampling seeds of equal cost. Above brute_full_max = 100 each seed
    # brute-forces its own 10 % of the cells, and every sampled cell of an
    # extension field rebuilds the q x q tables, so a seed's cost follows how
    # many cells of F_121 and F_125 it samples (seed 1 costs 45 % more than
    # seed 7 at r = 2). These are the first 24 seeds that sample the median
    # count there (r = 2: 3 of F_121 and 6 of F_125; r = 3: 5 of F_121) and
    # within 2 of the median count over the prime fields 101..127.
    CONFIG_SEEDS = {
        2: (5, 21, 57, 166, 246, 403, 629, 792, 856, 933, 1011, 1042,
            1178, 1218, 1496, 1648, 1819, 1853, 1979, 2037, 2042, 2079, 2081, 2087),
        3: (48, 51, 57, 64, 77, 81, 87, 98, 103, 104, 105, 118,
            129, 172, 173, 178, 200, 205, 217, 226, 261, 264, 267, 269),
    }

    def __init__(self, scale):
        super().__init__(scale)
        self.q_max, n_seeds = self.SIZES[scale]
        self.config_seeds = {r: seeds[:n_seeds] for r, seeds in self.CONFIG_SEEDS.items()}

    def setup_fields(self, seed):
        from permbinom.primes import prime_power_decompose, prime_powers_upto

        return [prime_power_decompose(q) for q in prime_powers_upto(self.q_max)]

    def ops(self, seed):
        # the r = 2 and r = 3 sweeps apart, as selftest runs them: shorter
        # operations are more often timed clear of other tenants' bursts
        rng = random.Random(f"sweep:{seed}")
        return [("sweep", self.q_max, r, rng.choice(self.config_seeds[r])) for r in (2, 3)]

    def pool(self):
        return [("sweep", self.q_max, r, s) for r, seeds in self.config_seeds.items() for s in seeds]

    def run(self, op):
        _, q_max, r, config_seed = op
        return pb.run_verify_sweep(pb.SweepConfig(q_max=q_max, r_set=(r,), seed=config_seed))

    def work(self, op, output):
        return len(output.cells)

    def pin_key(self, op):
        return f"q_max={op[1]} r={op[2]} seed={op[3]}"

    def digest(self, op, output):
        report = json.loads(pb.emit_report(output, "json"))
        del report["elapsed_ms"]
        return _jdigest(report)

    def verify(self, op, output):
        if output.failures:
            return f"{len(output.failures)} sweep failures, first {output.failures[0]}"
        return None


# ---------------------------------------------------------------------------


def _admissible_upper(q: int, r: int) -> list[int]:
    """Admissible n in the upper half of [1, q-1]; same bit length, similar pow cost."""
    d = (q - 1) // r
    return [n for n in range((q - 1) // 2, q) if gcd(n, d) == 1]


def _rs(p: int, k: int) -> list[int]:
    q = p**k
    return [r for r in (2, 3) if not (r == 2 and p == 2) and not (r == 3 and q % 3 != 1)]


class DeepScan(Workload):
    """Whole-field scans of a few large fields of different shapes, no brute force."""

    name = "deep-scan"
    SIZES = {
        "full": (((2, 12), (7, 4), (13, 3), (5, 5)), (2953, 2971, 3001, 3019, 3037, 3049)),
        "tiny": (((2, 4), (7, 2), (5, 2)), (61, 67, 73)),
    }

    def __init__(self, scale):
        super().__init__(scale)
        self.fixed, self.primes = self.SIZES[scale]

    def fields_for(self, seed):
        prime = random.Random(f"deep-scan:{seed}:prime").choice(self.primes)
        return list(self.fixed) + [(prime, 1)]

    def setup_fields(self, seed):
        return self.fields_for(seed)

    def _field_ops(self, p, k, rng):
        q = p**k
        ops = []
        for r in _rs(p, k):
            n = rng.choice(_admissible_upper(q, r))
            ops += [("enum", p, k, r, n, "criterion"), ("enum", p, k, r, n, "wanlidl")]
        if p != 2:
            ops.append(("points", p, k))
        ops.append(("classes", p, k))
        ops.append(("psum", p, k, rng.randrange(q // 2, q)))
        return ops

    def ops(self, seed):
        rng = random.Random(f"deep-scan:{seed}")
        ops = [op for p, k in self.fields_for(seed) for op in self._field_ops(p, k, rng)]
        rng.shuffle(ops)
        return ops

    def pool(self):
        ops = []
        for p, k in list(self.fixed) + [(prime, 1) for prime in self.primes]:
            q = p**k
            for r in _rs(p, k):
                reps = {}
                for n in _admissible_upper(q, r):
                    reps.setdefault(n % r, n)
                ops += [("enum", p, k, r, n, "criterion") for n in reps.values()]
            if p != 2:
                ops.append(("points", p, k))
            ops.append(("classes", p, k))
        return ops

    def run(self, op):
        kind, p, k = op[:3]
        spec = pb.make_field(p, k)
        if kind == "enum":
            _, _, _, r, n, method = op
            return [a.encode() for a in pb.enumerate_perm_binomials(spec, n, r, method=method)]
        if kind == "points":
            return pb.count_points_extension(spec, spec.zero, spec.element(4).inverse())
        if kind == "classes":
            quad = cubic = None
            if p != 2:
                vals = [pb.quadratic_char(spec, x) for x in spec.elements() if not x.is_zero]
                quad = [vals.count(1), vals.count(-1)]
            if spec.q % 3 == 1:
                exps = [pb.cubic_char(spec, x) for x in spec.elements() if not x.is_zero]
                cubic = [exps.count(0), exps.count(1), exps.count(2)]
            return {"quadratic": quad, "cubic": cubic}
        if kind == "psum":
            return pb.power_sum(spec, op[3]).encode()
        raise ValueError(f"unknown deep-scan op {op}")

    def work(self, op, output):
        return op[1] ** op[2]

    def pin_key(self, op):
        kind, p, k = op[:3]
        if kind == "enum":
            r, n = op[3], op[4]
            return f"{p}^{k} r={r} class={n % r}"
        if kind == "psum":
            return None  # checked against the closed form alone
        return f"{p}^{k} {kind}"

    def digest(self, op, output):
        return _jdigest(output)

    def verify(self, op, output):
        kind, p, k = op[:3]
        q = p**k
        if kind == "enum":
            r, n = op[3], op[4]
            closed = pb.closed_count_r2(q, n) if r == 2 else pb.closed_count_r3(p, k, n)
            if len(output) != closed:
                return f"|set| = {len(output)} but closed form gives {closed}"
        elif kind == "points":
            expected = q + 1 - pb.pi_trace(p, k)
            if output != expected:
                return f"|E| = {output} but p^k + 1 - s_k = {expected}"
        elif kind == "psum":
            m = op[3]
            expected = p - 1 if m > 0 and m % (q - 1) == 0 else 0  # -1 or 0, encoded
            if output != expected:
                return f"power sum {output} != closed form {expected}"
        return None

    def verify_pass(self, ops, outputs):
        criterion = {op[1:5]: out for op, out in zip(ops, outputs) if op[0] == "enum" and op[5] == "criterion"}
        return [
            (i, f"criterion and Wan-Lidl disagree on {op[1:5]}")
            for i, (op, out) in enumerate(zip(ops, outputs))
            if op[0] == "enum" and op[5] == "wanlidl" and out != criterion.get(op[1:5])
        ]


# ---------------------------------------------------------------------------


class ExactTrace(Workload):
    """Sharpness probes over ordinary primes, plus huge-q closed counts."""

    name = "exact-trace"
    modules = ("permbinom", "permbinom.sharpness")
    # prime bound, n pool, n per prime, k_max, huge-count pool, huge counts per pass
    SIZES = {"full": (200, 30, 5, 30_000, 32, 8), "tiny": (40, 6, 2, 2_000, 4, 2)}
    HUGE_PRIMES = (7, 13, 19, 31, 37, 43, 61, 73, 5, 11, 17, 23)

    def __init__(self, scale):
        super().__init__(scale)
        self.bound, self.n_pool, self.n_per, self.k_max, self.n_huge, self.huge_per = self.SIZES[scale]
        self.primes = [p for p in range(7, self.bound) if is_prime(p) and p % 3 == 1]

    def huge_cases(self):
        """Fixed (p, k, n) with q = p^k = 1 mod 3 and n admissible; k in the thousands."""
        cases = []
        base, step = (1000, 257) if self.scale == "full" else (100, 57)
        for i in range(self.n_huge):
            p = self.HUGE_PRIMES[i % len(self.HUGE_PRIMES)]
            k = base + step * i
            if p % 3 == 2 and k % 2:
                k += 1
            third = (p**k - 1) // 3
            n = 2 + i % 7
            while gcd(n, third) != 1:
                n += 1
            cases.append((p, k, n))
        return cases

    def ops(self, seed):
        rng = random.Random(f"exact-trace:{seed}")
        ops = [
            ("probe", p, n, self.k_max)
            for p in self.primes
            for n in rng.sample(range(1, self.n_pool + 1), self.n_per)
        ]
        ops += [("count",) + case for case in rng.sample(self.huge_cases(), self.huge_per)]
        rng.shuffle(ops)
        return ops

    def pool(self):
        ops = [("probe", p, n, self.k_max) for p in self.primes for n in range(1, self.n_pool + 1)]
        return ops + [("count",) + case for case in self.huge_cases()]

    def run(self, op):
        if op[0] == "probe":
            _, p, n, k_max = op
            from permbinom import sharpness

            return sharpness.sharpness_probe(p, n, k_max=k_max).findings
        _, p, k, n = op
        q = p**k
        return pb.closed_count_r3(p, k, n), pb.refined_bounds_r3(q)

    def is_latency_sample(self, op):
        return op[0] == "probe"

    def pin_key(self, op):
        if op[0] == "probe":
            return f"probe p={op[1]} n={op[2]} k_max={op[3]}"
        return f"count p={op[1]} k={op[2]} n={op[3]}"

    def digest(self, op, output):
        # hex(), unlike str(), takes ints past 4300 digits
        if op[0] == "probe":
            return _jdigest([
                [f.k, hex(f.deviation_lo.numerator), hex(f.deviation_lo.denominator),
                 hex(f.deviation_hi.numerator), hex(f.deviation_hi.denominator), f.gcd_ok]
                for f in output
            ])
        return _jdigest(hex(output[0]))

    def verify(self, op, output):
        if op[0] == "probe":
            bad = [f.k for f in output if not f.deviation_lo <= f.deviation_hi]
            return f"empty enclosure at k={bad}" if bad else None
        count, (lo, hi) = output
        if not lo <= count <= hi:
            return f"closed count outside refined_bounds_r3 at p={op[1]} k={op[2]}"
        return None


# ---------------------------------------------------------------------------


def _first_admissible(q: int, r: int, start: int, count: int) -> list[int]:
    d = (q - 1) // r
    return [n for n in range(start, q) if gcd(n, d) == 1][:count]


def _cli_pools(scale: str) -> dict[str, list[tuple[str, ...]]]:
    """Query kinds and their argument pools; PER_KIND queries of each kind per pass."""
    def count(field, q, r, n):
        return ("count", "--field", field, "--n", str(n), "--r", str(r), "--verify")

    def enum(method, field, q, r):
        n = _first_admissible(q, r, 5, 1)[0]
        return ("enumerate", "--field", field, "--n", str(n), "--r", str(r), "--method", method)

    enum_fields = [("97", 97, 3), ("7^2", 49, 3), ("5^3", 125, 2), ("101", 101, 2)]
    pools = {
        # r = 3 on prime fields and r = 2 on extension fields, so every pass
        # reaches both closed forms
        "count-prime": [
            count(str(p), p, 3, n) for p in (61, 67, 73, 79) for n in _first_admissible(p, 3, 5, 2)
        ],
        "count-ext": [
            count(f, q, 2, n) for f, q in (("5^2", 25), ("7^2", 49), ("3^3", 27), ("3^4", 81))
            for n in _first_admissible(q, 2, 5, 2)
        ],
        "enum-criterion": [enum("criterion", *f) for f in enum_fields],
        "enum-wanlidl": [enum("wanlidl", *f) for f in enum_fields],
        "enum-bruteforce": [enum("bruteforce", *f) for f in enum_fields],
        "bounds": [
            ("bounds", "--field", f, "--r", str(r))
            for f, r in (("7^5", 3), ("13^4", 3), ("73^3", 3), ("3^9", 2), ("11^6", 2))
        ],
        "kappa": [("kappa", "--p", str(p)) for p in (61, 67, 73, 79, 97, 103)],
        "trace": [("trace", "--p", str(p), "--j", str(j)) for p in (61, 73, 97) for j in (500, 1000)],
        "sharpness": [("sharpness", "--p", str(p), "--n", str(n)) for p in (61, 67, 73, 79) for n in (5, 35)],
        "char-classes": [("char", "--field", f) for f in ("3^5", "101", "7^2", "97", "2^8")],
        "char-x": [("char", "--field", f, "--x", str(x)) for f in ("101", "7^2", "97") for x in (5, 17)],
        "char-power-sum": [
            ("char", "--field", f, "--power-sum", str(m)) for f in ("3^5", "101", "7^2") for m in (12, 48)
        ],
        "curve": [("curve", "--field", f, "--A", "0", "--B", "inv4") for f in ("101", "7^2", "5^3", "97")],
    }
    if scale == "tiny":
        pools = {kind: variants[:1] for kind, variants in pools.items()}
    return pools


class CliOneshot(Workload):
    """One `python -m permbinom.cli ...` per query, each in a fresh interpreter."""

    name = "cli-oneshot"
    in_process = False
    QUERY_TIMEOUT_S = 60
    PER_KIND = 3
    modules = ("permbinom.cli",)

    def __init__(self, scale):
        super().__init__(scale)
        self.pools = _cli_pools(scale)

    def ops(self, seed):
        rng = random.Random(f"cli-oneshot:{seed}")
        ops = [
            ("query",) + variant
            for _, variants in sorted(self.pools.items())
            for variant in rng.sample(variants, min(self.PER_KIND, len(variants)))
        ]
        rng.shuffle(ops)
        return ops

    def pool(self):
        return [("query",) + v for variants in self.pools.values() for v in variants]

    def run(self, op):
        cmd = [sys.executable, "-m", "permbinom.cli", *op[1:]]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, cwd=ROOT, timeout=self.QUERY_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def run_traced(self, op):
        """Run one query under child.py with wrappers installed; returns (output, stats)."""
        cmd = [sys.executable, str(CHILD), "cli", *op[1:]]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, cwd=ROOT, timeout=self.QUERY_TIMEOUT_S)
        stderr, _, payload = proc.stderr.rpartition(STATS_MARKER)
        stats = json.loads(payload) if payload else {}
        return (proc.returncode, proc.stdout, stderr), stats

    def pin_key(self, op):
        return " ".join(op[1:])

    def digest(self, op, output):
        rc, stdout, _ = output
        return f"rc={rc} {sha(stdout)}"

    def verify(self, op, output):
        rc, _, stderr = output
        if rc != 0:
            return f"exit {rc}: {stderr.decode(errors='replace').strip()[-200:]}"
        return None


WORKLOADS = {cls.name: cls for cls in (Sweep, DeepScan, ExactTrace, CliOneshot)}
