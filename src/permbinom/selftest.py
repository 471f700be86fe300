"""Acceptance suite: one check per advertised numerical guarantee.

Checks never raise; a crash inside one becomes a failed CheckResult so the
rest still run. The two big sweeps, r = 2 and r = 3 up to SWEEP_Q_MAX
unless one q_max caps both, are cached on the suite by sweep(r) and shared
by every check that needs them (the bounds check in particular re-reads the
same cells instead of re-sweeping).

A check is a check_* method of AcceptanceSuite, and its name is the
method's with "-" for "_" ("r2-sweep"); CHECK_ORDER lists them in the
order the class defines them, and errors.check_choice refuses any other
name, the underscore spelling too.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .characters import character_classes, power_sum
from .counts import build_count_report
from .curves import (
    char2_cubic_sum,
    compute_kappa,
    count_points_extension,
    count_points_prime,
    pi_trace,
    point_count_residue,
)
from .errors import UnknownChoiceError, check_choice
from .fields import make_field
from .permtest import field_admits
from .primes import is_prime, prime_power_decompose, prime_powers_upto
from .sweep import BRUTE_FULL_MAX, SweepConfig, SweepResult, run_verify_sweep, valid_exponents, validate_config

F73_ADMISSIBLE = frozenset({0, 2, 4, 16, 18, 21, 22, 30, 32, 33, 37, 45, 55, 57, 68, 71})

SWEEP_Q_MAX = {2: 343, 3: 400}  # default q_max of the r = 2 and r = 3 sweeps

# Stated runtime ceilings in ms; checks without one are exactness-only.
BUDGET_MS = {
    "exact-case-f73": 1_000,
    "kappa-table": 5_000,
    "r2-sweep": 2_000,
    "r3-sweep": 2_000,
    "point-congruence": 3_000,
    "extension-counts": 1_000,
    "sharpness-witnesses": 1_000,
}


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed_ms: int


class AcceptanceSuite:
    """Runs the ten checks; construct once and reuse so sweeps are shared.

    q_max caps both sweeps; None runs each to its SWEEP_Q_MAX. Both sweep
    configs are validated here, so a bad one raises before any check runs.
    """

    def __init__(self, jobs: int = 1, q_max: int | None = None):
        self._configs = {
            r: SweepConfig(q_max=default if q_max is None else q_max, r_set=(r,), jobs=jobs)
            for r, default in SWEEP_Q_MAX.items()
        }
        for config in self._configs.values():
            validate_config(config)
        self._sweeps: dict[int, SweepResult] = {}

    def sweep(self, r: int) -> SweepResult:
        """The r-sweep, run on first use and shared by every later caller."""
        if r not in self._sweeps:
            self._sweeps[r] = run_verify_sweep(self._configs[r])
        return self._sweeps[r]

    def check_exact_case_f73(self) -> tuple[bool, str]:
        # count --verify's cross-check: raises unless every route and the closed count agree
        got = frozenset(build_count_report(73, 1, 35, 3, verify=True).a_values)
        if got != F73_ADMISSIBLE:
            return False, f"the routes give {sorted(got)}, expected {sorted(F73_ADMISSIBLE)}"
        return True, "x^35 (x^24 + a) over F_73: all three routes and the closed count give the pinned 16-element a set"

    def check_kappa_table(self) -> tuple[bool, str]:
        for p, want in ((7, 1), (13, -5), (73, 7)):
            got = compute_kappa(p).kappa
            if got != want:
                return False, f"kappa({p}) = {got}, expected {want}"
        checked = 0
        for p in range(5, 500):
            if not is_prime(p):
                continue
            rec = compute_kappa(p)
            if rec.kappa**2 > 4 * p:
                return False, f"kappa({p}) = {rec.kappa} violates the Hasse bound"
            residue = point_count_residue(p, 0, pow(4, p - 2, p))
            if rec.kappa % p != residue:
                return False, f"kappa({p}) = {rec.kappa} is not {residue} mod {p}, the binomial-sum residue of |E| - p - 1"
            checked += 1
        return True, f"kappa(7,13,73) = 1,-5,7; Hasse bound and binomial-sum residue held at all {checked} primes 5 <= p < 500"

    def _sweep_summary(self, r: int) -> tuple[bool, str]:
        result = self.sweep(r)
        if result.failures:
            first = result.failures[0]
            return False, f"{len(result.failures)} failures, first: q={first.q} n={first.n} {first.route_a} vs {first.route_b}: {first.diff}"
        fields = [q for q in prime_powers_upto(self._configs[r].q_max) if field_admits(q, r)]
        expected = sum(len(valid_exponents(q, r)) for q in fields)
        if len(result.cells) != expected:
            return False, f"coverage gap: {len(result.cells)} cells, expected {expected}"
        unbruted = [c for c in result.cells if c["q"] <= BRUTE_FULL_MAX and c["brute_count"] is None]
        if unbruted:
            return False, f"{len(unbruted)} cells with q <= {BRUTE_FULL_MAX} missing brute-force confirmation"
        brute_total = sum(1 for c in result.cells if c["brute_count"] is not None)
        return True, (
            f"{len(result.cells)} cells over {len(fields)} fields, closed form = criterion = Wan-Lidl everywhere, "
            f"brute force agrees on {brute_total} cells"
        )

    def check_r2_sweep(self) -> tuple[bool, str]:
        ok, detail = self._sweep_summary(2)
        if not ok:
            return ok, detail
        bad = [c for c in self.sweep(2).cells if c["closed_count"] != (c["q"] - 2 + (-1) ** c["n"]) // 2]
        if bad:
            c = bad[0]
            return False, f"closed count at (q={c['q']}, n={c['n']}) is {c['closed_count']}, not (q-2+(-1)^n)/2"
        return True, detail

    def check_r3_sweep(self) -> tuple[bool, str]:
        div = [f for f in self.sweep(3).failures if f.route_b == "divisibility"]
        if div:
            return False, f"divisibility-by-9 assertion fired {len(div)} times, first at q={div[0].q} n={div[0].n}"
        return self._sweep_summary(3)

    def check_point_congruence(self) -> tuple[bool, str]:
        triples = 0
        for p in range(5, 62):
            if not is_prime(p):
                continue
            for a4 in range(p):
                for a6 in range(p):
                    count = count_points_prime(p, a4, a6)
                    if (count - p - 1 - point_count_residue(p, a4, a6)) % p:
                        return False, f"congruence fails at p={p}, A={a4}, B={a6}"
                    triples += 1
        return True, f"binomial-sum congruence for |E| mod p held at all {triples} (p, A, B) triples, 5 <= p <= 61"

    def check_extension_counts(self) -> tuple[bool, str]:
        for p, j_max in ((7, 3), (13, 3), (19, 3), (31, 2), (37, 2), (73, 2)):
            for j in range(1, j_max + 1):
                spec = make_field(p, j)
                got = count_points_extension(spec, spec.zero, spec.element(4).inverse())
                want = p**j + 1 - pi_trace(p, j)
                if got != want:
                    return False, f"|E(F_{p}^{j})| = {got} but p^j+1-s_j = {want}"
        return True, (
            "exhaustive counts of y^2 = x^3 + 1/4 match p^j + 1 - s_j for p in {7,13,19,31,37,73}, j in {1,2}, "
            "and for p in {7,13,19}, j = 3"
        )

    def check_char2_sums(self) -> tuple[bool, str]:
        for k in (1, 2, 3):
            got = char2_cubic_sum(k)
            want = -2 + (-2) ** (k + 1)
            if got != want:
                return False, f"char2_cubic_sum({k}) = {got}, expected {want}"
        return True, "char2_cubic_sum(k) = -2 + (-2)^(k+1) for k in {1,2,3}"

    def check_bounds_containment(self) -> tuple[bool, str]:
        cells = self.sweep(2).cells + self.sweep(3).cells
        refined = 0
        for c in cells:
            count = c["closed_count"]
            if count is None:
                return False, f"no closed count at (q={c['q']}, n={c['n']}, r={c['r']})"
            lo = max(Fraction(c["mz_lower"]), 0)
            if not lo <= count <= Fraction(c["mz_upper"]):
                return False, f"count {count} at (q={c['q']}, n={c['n']}, r={c['r']}) escapes clamped Masuda-Zieve bounds"
            if c["r"] == 3:
                if not c["cor_lower"] <= count <= c["cor_upper"]:
                    return False, f"count {count} at (q={c['q']}, n={c['n']}) escapes the refined r=3 bounds"
                refined += 1
        return True, f"all {len(cells)} sweep counts inside clamped Masuda-Zieve bounds; all {refined} r=3 counts inside the refined pair"

    def check_sharpness_witnesses(self) -> tuple[bool, str]:
        from .sharpness import deviation_bounds, sharpness_probe  # local: only this check needs it

        probe = sharpness_probe(73, 35)
        by_k = {f.k: f for f in probe.findings}
        if 1217 not in by_k or 1578 not in by_k:
            return False, f"probe depth {probe.depth} missed k=1217 or k=1578, found {sorted(by_k)}"
        lo_edge = Fraction(1999998451823, 10**12)
        hi_edge = Fraction(-199999906282, 10**11)
        if not by_k[1217].deviation_lo > lo_edge:
            return False, f"d_1217 = {by_k[1217].deviation} not above 1.999998451823"
        if not by_k[1578].deviation_hi < hi_edge:
            return False, f"d_1578 = {by_k[1578].deviation} not below -1.99999906282"
        for k in (1217, 1578):
            if deviation_bounds(73, k, 35) != (by_k[k].deviation_lo, by_k[k].deviation_hi):
                return False, f"deviation enclosure for k={k} is not reproducible"
            if len(by_k[k].deviation.partition(".")[2]) < 40:
                return False, f"d_{k} reported with fewer than 40 decimal places"
        return True, "d_1217 > 1.999998451823 and d_1578 < -1.99999906282 from exact traces, reproducible at 42 places"

    def check_character_identities(self) -> tuple[bool, str]:
        fields = 0
        for q in prime_powers_upto(64):
            p, k = prime_power_decompose(q)
            spec = make_field(p, k)
            for m in range(0, 3 * (q - 1) + 1):
                got = power_sum(spec, m)
                want = -spec.one if m > 0 and m % (q - 1) == 0 else spec.zero
                if got != want:
                    return False, f"power sum over F_{q} wrong at m={m}: {got!r}"
            classes = character_classes(spec)
            half, third = (q - 1) // 2, (q - 1) // 3
            if classes["quadratic_classes"] != (None if p == 2 else {"1": half, "-1": half, "zero": 1}):
                return False, f"quadratic character classes unbalanced over F_{q}"
            if classes["cubic_classes"] != ({"0": third, "1": third, "2": third, "zero": 1} if q % 3 == 1 else None):
                return False, f"cubic character classes unbalanced over F_{q}"
            fields += 1
        return True, f"power-sum case split (0^0 = 1) and character class counts verified over all {fields} fields with q <= 64"

    def run_check(self, name: str) -> CheckResult:
        method = getattr(self, "check_" + check_choice("check", name, CHECK_ORDER).replace("-", "_"))
        t0 = time.monotonic()
        try:
            passed, detail = method()
        except Exception as exc:
            passed, detail = False, f"raised {exc!r}"
        return CheckResult(name, passed, detail, int((time.monotonic() - t0) * 1000))

    def run(self, names: list[str] | None = None) -> list[CheckResult]:
        """The named checks in the order given, or every check in CHECK_ORDER; each name is checked before any check runs."""
        if not isinstance(names, list | None):
            raise UnknownChoiceError(f"the checks to run must be a list of names, got a {type(names).__name__}")
        todo = CHECK_ORDER if names is None else [check_choice("check", name, CHECK_ORDER) for name in names]
        return [self.run_check(name) for name in todo]


# one name per check_* method, in the order the class defines them (see the module docstring)
CHECK_ORDER = tuple(attr.removeprefix("check_").replace("_", "-") for attr in vars(AcceptanceSuite) if attr.startswith("check_"))
