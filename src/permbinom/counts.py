"""Closed-form counts of permutation binomials and the bounds they obey.

This module owns every rule of a cell: closed_count(p, k, n, r) picks its
count and bound_pairs(q, r) its bounds, for the count report, the sweep and
the bounds subcommand, and class_failures and cell_failures hold the routes
to them, for the sweep and count --verify. At r = 2 the count is
(q - 2 + (-1)^n)/2. At r = 3 it is

    T = (2q - 3(e1 + e2) - 10 - 2 s_k) / 9

with the corrections e1 = -2 iff q - 3n = 1 (mod 9) (else 1) and
e2 = -2 iff 3 | n (else 1), and s_k the exact Frobenius trace from
curves.pi_trace.  The numerator must be divisible by 9 exactly; a
remainder means a bug somewhere upstream, so it raises instead of
rounding.

Bounds come in two flavors: the generic Masuda-Zieve interval for any r,
computed in outward-rounded exact rationals, and a sharper integer
interval for r = 3 obtained by replacing s_k with +-2 sqrt(q):

    ceil((2q - 4 sqrt(q) - 16)/9) <= T <= floor((2q + 4 sqrt(q) - 7)/9)

evaluated exactly from the one integer isqrt(16q) (no floating point).
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import ceil, factorial, floor, isqrt
from typing import Callable, Iterator, NamedTuple

from .curves import pi_trace
from .errors import CrossCheckFailedError, DivisibilityViolationError, NonPrimeError, check_choice, check_divides, check_integer, int_text, refuse_unprintable
from .fields import FieldSpec, check_prime_power, ensure_enumerable, make_field
from .permtest import check_cell, check_field, enumerate_perm_binomials, split_orbits
from .primes import exact_sqrt, prime_power_decompose

_SQRT_SCALE = 10**30  # denominator of the rational upper bound on sqrt(q)
# a report's q, counts below q, s_k and the numerators and denominators of its bounds stay below this times q
REPORT_SCALE = 10**32


def closed_count_r2(q: int, n: int) -> int:
    """(q - 2 + (-1)^n) / 2 on a prime power q for an admissible cell (q, n, 2)."""
    check_cell(q, n, 2)
    if prime_power_decompose(q) is None:
        raise NonPrimeError(f"q = {int_text(q)} is not a prime power")
    return (q - 2 + (-1) ** n) // 2


def epsilons(q: int, n: int) -> tuple[int, int]:
    """The two correction terms of the r = 3 count; any integers q and n, as sharpness passes q mod 9."""
    check_integer("q", q)
    check_integer("n", n)
    e1 = -2 if (q - 3 * n) % 9 == 1 else 1
    e2 = -2 if n % 3 == 0 else 1
    return e1, e2


def closed_count_r3(p: int, k: int, n: int) -> int:
    """Exact r = 3 count over F_{p^k} from the trace of Frobenius, on an admissible cell."""
    check_prime_power(p, k)
    q = p**k
    check_cell(q, n, 3)
    e1, e2 = epsilons(q, n)
    numerator = 2 * q - 3 * (e1 + e2) - 10 - 2 * pi_trace(p, k)
    if numerator % 9 != 0:
        raise DivisibilityViolationError(
            f"count numerator {int_text(numerator)} not divisible by 9 at (p={int_text(p)}, k={int_text(k)}, n={int_text(n)})"
        )
    return numerator // 9


def _sqrt_upper(q: int) -> Fraction:
    """A rational >= sqrt(q), exact when q is a perfect square."""
    root = exact_sqrt(q)
    if root is not None:
        return Fraction(root)
    return Fraction(isqrt(q * _SQRT_SCALE * _SQRT_SCALE) + 1, _SQRT_SCALE)


def masuda_zieve_bounds(q: int, r: int) -> tuple[Fraction, Fraction]:
    """General interval for the count of permutation binomials of this shape.

    (r!/r^r) (q + 1 - sqrt(q) M_r - (r+1) r^(r-1)) <= T <= (r!/r^r) (q + 1 + sqrt(q) M_r)
    with M_r = r^(r+1) - 2 r^r - r^(r-1) + 2.  Irrational sqrt(q) is
    replaced by a rational just above it, so the returned interval always
    contains the true one.
    """
    check_divides(check_integer("r", r, 2), check_integer("q", q, 1))
    m_r = r ** (r + 1) - 2 * r**r - r ** (r - 1) + 2
    scale = Fraction(factorial(r), r**r)
    sqrt_hi = _sqrt_upper(q)
    lower = scale * (q + 1 - sqrt_hi * m_r - (r + 1) * r ** (r - 1))
    upper = scale * (q + 1 + sqrt_hi * m_r)
    return lower, upper


def refined_bounds_r3(q: int) -> tuple[int, int]:
    """ceil((2q - 4 sqrt(q) - 16)/9) and floor((2q + 4 sqrt(q) - 7)/9), exactly.

    One integer square root stands in for the irrational 4 sqrt(q): an
    integer v is at most 4 sqrt(q) iff v <= f = isqrt(16q).
    """
    check_integer("q", q, 1)
    check_field(q, 3)
    f = isqrt(16 * q)
    return -((16 + f - 2 * q) // 9), (2 * q - 7 + f) // 9


def closed_count(p: int, k: int, n: int, r: int) -> int:
    """The closed count of the cell (p^k, n, r): closed_count_r2 at r = 2, closed_count_r3 at r = 3."""
    return closed_count_r2(p**k, n) if r == 2 else closed_count_r3(p, k, n)


def bound_pairs(q: int, r: int) -> tuple[Fraction, Fraction, int | None, int | None]:
    """The Masuda-Zieve pair of (q, r), then the refined pair at r = 3 or (None, None) at r = 2."""
    return (*masuda_zieve_bounds(q, r), *(refined_bounds_r3(q) if r == 3 else (None, None)))


def checked_pairs(mz_lo: Fraction, mz_hi: Fraction, cor_lo: int | None, cor_hi: int | None) -> tuple:
    """bound_pairs' four bounds as the (name, lo, hi, shown) pairs cell_failures holds a closed count to, mz_lo clamped at 0.

    lo and hi are the integers a count may reach, ceil(lo) and floor(hi), so each cell compares ints;
    shown is the pair as bound_pairs gave it, for the failure text.
    """
    mz_lo = max(mz_lo, 0)
    return ("mz-bounds", ceil(mz_lo), floor(mz_hi), f"[{mz_lo}, {mz_hi}]"), ("refined-bounds", cor_lo, cor_hi, f"[{cor_lo}, {cor_hi}]")


def set_diff(a: frozenset, b: frozenset) -> str:
    """How two routes' a-sets (as encodings) differ: both sizes and up to 8 members only in each."""
    only_a = sorted(a - b)[:8]
    only_b = sorted(b - a)[:8]
    return f"|a|={len(a)} |b|={len(b)} a-only={only_a} b-only={only_b}"


def class_failures(spec: FieldSpec, n: int, r: int) -> tuple[frozenset[int], list[tuple[str, str, str]]]:
    """The criterion's a-set for n's class, and (route_a, route_b, diff) for each orbit Wan-Lidl's set splits and for their difference."""
    crit = frozenset(enumerate_perm_binomials(spec, n, r, method="criterion", encoded=True))
    wl = frozenset(enumerate_perm_binomials(spec, n, r, method="wanlidl", encoded=True))
    failures = [("wanlidl", "symmetry", f"orbit of a={first} split: {inside} of {size} members found") for first, inside, size in split_orbits(spec, r, wl)]
    if wl != crit:
        failures.append(("criterion", "wanlidl", set_diff(crit, wl)))
    return crit, failures


def cell_failures(closed: int | None, crit: frozenset[int], brute: frozenset[int] | None, pairs: tuple) -> Iterator[tuple[str, str, str]]:
    """One cell's (route_a, route_b, diff): closed count vs class size, brute force's set where it ran, closed count vs each checked pair."""
    if closed is not None and closed != len(crit):
        yield "closed", "criterion", f"{closed} != {len(crit)}"
    if brute is not None and brute != crit:
        yield "criterion", "bruteforce", set_diff(crit, brute)
    for pair, lo, hi, shown in pairs if closed is not None else ():
        if lo is not None and not lo <= closed <= hi:
            yield "closed", pair, f"{closed} outside {shown}"


class CountReport(NamedTuple):
    """Everything the count route knows about one (q, n, r) case."""

    q: int
    p: int
    k: int
    n: int
    r: int
    epsilon1: int | None
    epsilon2: int | None
    s_k: int | None
    closed_count: int
    brute_count: int | None
    mz_lower: Fraction
    mz_upper: Fraction
    cor_lower: int | None
    cor_upper: int | None
    a_values: tuple[int, ...] | None  # canonical encodings, enumeration order


def build_count_report(
    p: int, k: int, n: int, r: int, verify: bool = False, before_work: Callable[[], None] | None = None
) -> CountReport:
    """Closed-form count plus bounds; verify=True adds the other three routes and the a list.

    verify=True raises the first of class_failures and cell_failures as
    CrossCheckFailedError, in the sweep's wording: q=.. n=.. r=.. route_a vs route_b: diff.
    before_work, if given, runs after the refusals of bad input and before any
    count is computed: the CLI's refusal of answers too long to print.
    """
    check_prime_power(p, k)
    q = p**k
    check_cell(q, n, r)
    if verify:
        ensure_enumerable(q)  # before any work, and before make_field's modulus search
    if before_work is not None:
        before_work()
    e1, e2 = epsilons(q, n) if r == 3 else (None, None)
    s_k = pi_trace(p, k) if r == 3 else None
    closed = closed_count(p, k, n, r)
    mz_lo, mz_hi, cor_lo, cor_hi = bounds = bound_pairs(q, r)
    brute_count = a_values = None
    if verify:
        spec = make_field(p, k)
        crit, failures = class_failures(spec, n, r)
        brute = frozenset(enumerate_perm_binomials(spec, n, r, method="bruteforce", encoded=True))
        failures += cell_failures(closed, crit, brute, checked_pairs(*bounds))
        if failures:
            raise CrossCheckFailedError("q={} n={} r={} {} vs {}: {}".format(q, n, r, *failures[0]))
        a_values, brute_count = tuple(sorted(crit)), len(brute)
    return CountReport(
        q=q,
        p=p,
        k=k,
        n=n,
        r=r,
        epsilon1=e1,
        epsilon2=e2,
        s_k=s_k,
        closed_count=closed,
        brute_count=brute_count,
        mz_lower=mz_lo,
        mz_upper=mz_hi,
        cor_lower=cor_lo,
        cor_upper=cor_hi,
        a_values=a_values,
    )


def report_to_dict(report: CountReport) -> dict:
    """JSON-ready dict in a stable key order, s_k and the Masuda-Zieve fractions as strings, or AnswerTooLargeError past the digit limit."""
    refuse_unprintable(f"the count for q = {int_text(report.p)}^{int_text(report.k)}", report.p, 2 * report.k, REPORT_SCALE)
    out = report._asdict()
    out["s_k"] = None if report.s_k is None else str(report.s_k)
    out["mz_lower"], out["mz_upper"] = str(report.mz_lower), str(report.mz_upper)
    out["a_values"] = None if report.a_values is None else list(report.a_values)
    return out


FORMATS = ("json", "text", "csv")  # csv last: render takes it only with rows, the CLI only for a table


def render(fmt: str, payload: dict, text: str | None = None, rows=None) -> bytes:
    """The one serializer of CLI answers and sweep reports: JSON is the payload, CSV the rows, text the
    given string or else one `key: value` line per payload key; csv is a choice only where there are rows."""
    check_choice("format", fmt, FORMATS if rows is not None else FORMATS[:-1])
    if fmt == "json":
        out = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        out = buf.getvalue()
    else:
        out = text if text is not None else "".join(f"{key}: {value}\n" for key, value in payload.items())
    return out.encode()
