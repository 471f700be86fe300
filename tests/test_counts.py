"""Closed-form counts and both bound families against enumeration."""

import json
import math
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

import permbinom.counts as counts
import permbinom.primes as primes
from permbinom import cli
from permbinom.counts import (
    build_count_report,
    closed_count_r2,
    closed_count_r3,
    epsilons,
    masuda_zieve_bounds,
    refined_bounds_r3,
    report_to_dict,
)
from permbinom.errors import (
    AnswerTooLargeError,
    BadFieldForCubicError,
    DegreeMismatchError,
    DivisibilityViolationError,
    EvenCharacteristicError,
    GcdViolationError,
    NonPrimeError,
    OutOfRangeError,
)
from permbinom.curves import pi_trace
from permbinom.fields import make_field, parse_field
from permbinom.permtest import check_cell, enumerate_perm_binomials, field_admits
from permbinom.primes import prime_power_decompose

F73_SET = [0, 2, 4, 16, 18, 21, 22, 30, 32, 33, 37, 45, 55, 57, 68, 71]


def test_closed_count_r2_pins():
    assert closed_count_r2(13, 1) == 5
    assert closed_count_r2(11, 2) == 5  # even n needs q = 3 mod 4
    assert closed_count_r2(9, 1) == 3
    assert closed_count_r2(27, 1) == 12


def test_closed_count_r2_validation():
    with pytest.raises(GcdViolationError):
        closed_count_r2(13, 2)  # gcd(2, 6) = 2
    with pytest.raises(EvenCharacteristicError):
        closed_count_r2(4, 1)
    with pytest.raises(NonPrimeError):
        closed_count_r2(15, 1)


@pytest.mark.parametrize("p,k", [(11, 1), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_closed_count_r2_matches_enumeration(p, k):
    q = p**k
    spec = make_field(p, k)
    for n in range(1, q):
        if gcd(n, (q - 1) // 2) != 1:
            continue
        want = len(enumerate_perm_binomials(spec, n, 2))
        assert closed_count_r2(q, n) == want == (q - 2 + (-1) ** n) // 2


def test_epsilons_pins():
    assert epsilons(4, 1) == (-2, 1)
    assert epsilons(7, 3) == (1, -2)
    assert epsilons(73, 35) == (1, 1)


def test_closed_count_r3_pins():
    assert closed_count_r3(73, 1, 35) == 16
    assert closed_count_r3(2, 2, 1) == 1
    assert closed_count_r3(7, 1, 1) == 0
    assert closed_count_r3(13, 1, 1) == 1


# (p, k, n, r, error): one failure of each clause of the admissibility rule
INADMISSIBLE = [
    (13, 1, 1, 4, OutOfRangeError),  # r outside {2, 3}
    (2, 3, 1, 2, EvenCharacteristicError),  # even q at r = 2
    (11, 1, 1, 3, BadFieldForCubicError),  # q = 11 is 2 mod 3
    *[(13, 1, n, r, OutOfRangeError) for r in (2, 3) for n in (0, 13, -1)],  # n outside [1, q-1]
    (13, 1, 2, 2, GcdViolationError),  # gcd(2, 6) = 2
    (13, 1, 2, 3, GcdViolationError),  # gcd(2, 4) = 2
    (7, 2, 3, 2, GcdViolationError),  # gcd(3, 24) = 3 on an extension field
]


def _error_type(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return type(info.value)


@pytest.mark.parametrize("p,k,n,r,error", INADMISSIBLE)
def test_every_entry_point_rejects_an_inadmissible_cell_alike(p, k, n, r, error):
    q = p**k
    raised = {
        "check_cell": _error_type(check_cell, q, n, r),
        "enumerate": _error_type(enumerate_perm_binomials, make_field(p, k), n, r),
        "build_count_report": _error_type(build_count_report, p, k, n, r),
    }
    if r == 2:
        raised["closed_count_r2"] = _error_type(closed_count_r2, q, n)
    if r == 3:
        raised["closed_count_r3"] = _error_type(closed_count_r3, p, k, n)
    assert raised == dict.fromkeys(raised, error)


# (field, r, error): a field the counts do not cover at r, refused by count and bounds alike
INADMISSIBLE_FIELDS = [
    ("8", 2, EvenCharacteristicError),
    ("2^3", 2, EvenCharacteristicError),
    ("11", 3, BadFieldForCubicError),
    ("5^3", 3, BadFieldForCubicError),
]


@pytest.mark.parametrize("field,r,error", INADMISSIBLE_FIELDS)
def test_count_and_bounds_refuse_an_inadmissible_field_alike(field, r, error, capsys):
    raised = {}
    for kind in (["count", "--n", "1"], ["bounds"]):
        args = cli.build_parser().parse_args([kind[0], "--field", field, "--r", str(r), *kind[1:]])
        raised[kind[0]] = _error_type(args.handler, args)
        assert cli.main([kind[0], "--field", field, "--r", str(r), *kind[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert raised == {"count": error, "bounds": error}


def test_check_cell_never_factors_q(monkeypatch):
    def no_factoring(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(primes, "factorize", no_factoring)
    q = 7**1000
    check_cell(q, 1, 3)
    check_cell(13, 5, 2)
    assert closed_count_r3(7, 1000, 1) == (2 * q - 3 * sum(epsilons(q, 1)) - 10 - 2 * pi_trace(7, 1000)) // 9
    assert [q for q in range(2, 50) if field_admits(q, 2)] == list(range(3, 50, 2))
    assert [q for q in range(2, 50) if field_admits(q, 3)] == list(range(4, 50, 3))
    assert not any(field_admits(q, r) for q in (7, 13, 25) for r in (1, 4, 6))


def test_prime_powers_are_found_without_factoring(monkeypatch, capsys):
    # trial-division oracles, taken before factorize is barred
    def oracle(q):
        f = primes.factorize(q)
        return next(iter(f.items())) if len(f) == 1 else None

    want = {q: oracle(q) for q in range(2, 3000)}
    want_primes = [n for n in range(2, 3000) if primes.factorize(n) == {n: 1}]

    def no_factoring(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(primes, "factorize", no_factoring)
    assert {q: prime_power_decompose(q) for q in range(2, 3000)} == want
    assert [n for n in range(-3, 3000) if primes.is_prime(n)] == want_primes
    assert [prime_power_decompose(q) for q in (-7, 0, 1)] == [None, None, None]
    m61 = 2**61 - 1
    assert prime_power_decompose(m61**2) == (m61, 2)
    assert prime_power_decompose(3**40) == (3, 40)
    assert prime_power_decompose(6**10) is None
    assert closed_count_r2(m61, 1) == (m61 - 3) // 2
    assert parse_field(str(m61)) == (m61, 1)
    assert cli.main(["count", "--field", str(m61), "--n", "1", "--r", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["closed_count"] == (m61 - 3) // 2


# the least strong pseudoprimes to the first 12 and the first 13 prime bases
PSI12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_strong_pseudoprimes_to_the_first_primes_are_not_prime():
    assert PSI12 == 399165290221 * 798330580441
    assert PSI13 == 1287836182261 * 2575672364521
    assert not primes.is_prime(PSI12)
    assert not primes.is_prime(PSI13)
    assert prime_power_decompose(PSI12) is None
    assert prime_power_decompose(PSI13) is None


def test_primes_above_psi13_are_proved():
    # Mersenne primes, proved through the factors of n - 1; their products are refused
    mersenne = [2**89 - 1, 2**107 - 1, 2**127 - 1]
    assert all(m > PSI13 and primes.is_prime(m) for m in mersenne)
    assert not primes.is_prime(mersenne[0] * mersenne[1])
    assert prime_power_decompose(mersenne[2] ** 3) == (mersenne[2], 3)


@pytest.mark.parametrize("field", [str(PSI12), str(PSI13)])
@pytest.mark.parametrize("kind", [["count", "--n", "1", "--r", "2"], ["bounds", "--r", "2"]])
def test_cli_refuses_a_strong_pseudoprime_field(field, kind, capsys):
    assert cli.main([kind[0], "--field", field, *kind[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_large_prime_powers_answer_without_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError("factorize called")

    monkeypatch.setattr(primes, "factorize", no_factoring)
    q = 1009**20  # p below the trial-division bound, q far above psi13
    assert prime_power_decompose(q) == (1009, 20)
    assert closed_count_r2(q, 1) == (q - 3) // 2
    q = 7**99999  # the valuation comes from squarings of 7, not 99999 divisions
    assert prime_power_decompose(q) == (7, 99999)
    assert closed_count_r2(q, 1) == (q - 3) // 2
    assert prime_power_decompose(7**99999 * 11) is None
    assert prime_power_decompose(1031**30) == (1031, 30)  # p just above the bound: roots
    assert prime_power_decompose(1031**30 * 1033**30) is None


def test_factorize_matches_trial_division():
    def trial_division(n):
        out, d = {}, 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = 1
        return out

    assert all(primes.factorize(n) == trial_division(n) for n in range(1, 20_000))
    m = (3458764513820547727 - 1) // 6  # a 59-bit prime
    assert primes.factorize(6 * m) == {2: 1, 3: 1, m: 1}
    # past trial division, Pollard rho splits cofactors of large primes, in ascending order
    assert primes.factorize(6 * 1000000007 * 998244521) == {2: 1, 3: 1, 998244521: 1, 1000000007: 1}
    assert primes.factorize(1031**2 * 1033**3 * 65537) == {1031: 2, 1033: 3, 65537: 1}


def test_closed_count_r3_validation():
    with pytest.raises(BadFieldForCubicError):
        closed_count_r3(11, 1, 1)  # 11 = 2 mod 3
    with pytest.raises(GcdViolationError):
        closed_count_r3(73, 1, 3)


@pytest.mark.parametrize("p,k", [(7, 1), (13, 1), (2, 2), (5, 2), (31, 1), (2, 4)])
def test_closed_count_r3_matches_enumeration(p, k):
    q = p**k
    spec = make_field(p, k)
    for n in range(1, q):
        if gcd(n, (q - 1) // 3) != 1:
            continue
        assert closed_count_r3(p, k, n) == len(enumerate_perm_binomials(spec, n, 3))


def test_divisibility_tripwire(monkeypatch):
    # a wrong trace must trip the mod-9 assertion, not round silently
    monkeypatch.setattr(counts, "pi_trace", lambda p, k: 1)
    with pytest.raises(DivisibilityViolationError):
        closed_count_r3(73, 1, 35)


def test_masuda_zieve_pins():
    assert masuda_zieve_bounds(73, 2) == (Fraction(34), Fraction(37))
    assert masuda_zieve_bounds(4, 3) == (Fraction(-142, 9), Fraction(10))


@pytest.mark.parametrize("q,r", [(9, 2), (13, 2), (25, 2), (13, 3), (49, 3), (73, 3)])
def test_masuda_zieve_brackets_float_formula(q, r):
    # outward rational rounding: the float evaluation sits inside the pair
    m_r = r ** (r + 1) - 2 * r**r - r ** (r - 1) + 2
    base = math.factorial(r) / r**r
    lo_f = base * (q + 1 - math.sqrt(q) * m_r - (r + 1) * r ** (r - 1))
    hi_f = base * (q + 1 + math.sqrt(q) * m_r)
    lo, hi = masuda_zieve_bounds(q, r)
    assert lo <= lo_f + 1e-9
    assert hi >= hi_f - 1e-9
    assert hi - lo < Fraction(hi_f - lo_f + 1)


def test_refined_bounds_pins():
    assert refined_bounds_r3(73) == (11, 19)
    assert refined_bounds_r3(4) == (-1, 1)
    assert refined_bounds_r3(49) == (6, 13)


@pytest.mark.parametrize("p,k", [(2, 2), (7, 1), (13, 1), (5, 2), (31, 1)])
def test_refined_bounds_contain_counts(p, k):
    q = p**k
    lo, hi = refined_bounds_r3(q)
    for n in range(1, q):
        if gcd(n, (q - 1) // 3) != 1:
            continue
        assert lo <= closed_count_r3(p, k, n) <= hi


def test_refined_bounds_are_exact_integer_rounding():
    # ceil((2q - 4 sqrt(q) - 16)/9) and floor((2q + 4 sqrt(q) - 7)/9)
    for q in (4, 7, 13, 49, 73, 121, 343, 397):
        lo, hi = refined_bounds_r3(q)
        s = math.sqrt(q)
        assert lo == math.ceil((2 * q - 4 * s - 16) / 9 - 1e-9)
        assert hi == math.floor((2 * q + 4 * s - 7) / 9 + 1e-9)


def _refined_bounds_by_search(q):
    """The refined bounds by search: start two steps outside isqrt(16q)'s estimate, step in while v^2 > 16q."""
    f = math.isqrt(16 * q)
    lo = (2 * q - 16 - f) // 9 - 2
    while True:
        v = 2 * q - 16 - 9 * lo
        if v <= 0 or v * v <= 16 * q:
            break
        lo += 1
    hi = (2 * q - 7 + f) // 9 + 2
    while True:
        v = 9 * hi - 2 * q + 7
        if v <= 0 or v * v <= 16 * q:
            break
        hi -= 1
    return lo, hi


def test_refined_bounds_closed_form_matches_the_search():
    rng = random.Random(9)
    huge = [7**2000] + [73**k for k in range(1, 300)] + [p**k for p in (7, 13) for k in range(1, 1001)]
    huge += [3 * rng.randrange(10**digits) + 1 for digits in range(1, 401)]
    for q in [*range(1, 10**5, 3), *huge]:
        assert refined_bounds_r3(q) == _refined_bounds_by_search(q), q


def test_refined_bounds_refuse_q_not_1_mod_3():
    with pytest.raises(BadFieldForCubicError, match="^q = 8 is not 1 mod 3$"):
        refined_bounds_r3(8)


def test_build_count_report_verified():
    rep = build_count_report(73, 1, 35, 3, verify=True)
    assert rep.closed_count == rep.brute_count == 16
    assert list(rep.a_values) == F73_SET
    assert (rep.epsilon1, rep.epsilon2, rep.s_k) == (1, 1, -7)
    assert (rep.cor_lower, rep.cor_upper) == (11, 19)


def test_build_count_report_r2_leaves_cubic_fields_none():
    rep = build_count_report(13, 1, 1, 2)
    assert rep.epsilon1 is rep.epsilon2 is rep.s_k is None
    assert rep.cor_lower is rep.cor_upper is None
    assert rep.brute_count is None and rep.a_values is None
    assert rep.closed_count == 5


@pytest.mark.parametrize("p,k,n,r", [(9, 1, 1, 2), (4, 1, 1, 3), (1, 3, 1, 2), (15, 2, 1, 2)])
def test_build_count_report_rejects_a_non_prime_base(p, k, n, r):
    # 9^1 at r = 2 would otherwise pass as an admissible cell of "F_9" with p = 9
    with pytest.raises(NonPrimeError):
        build_count_report(p, k, n, r)


@pytest.mark.parametrize("p,k", [(7, 0), (7, -1)])
def test_build_count_report_rejects_a_degree_below_one(p, k):
    # k = -1 would otherwise form the float q = 1/7
    with pytest.raises(DegreeMismatchError):
        build_count_report(p, k, 1, 2)


def test_report_dict_refuses_a_report_too_long_to_print():
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)  # q = 7^6000 has 5,071 digits
        report = build_count_report(7, 6000, 1, 3)
        with pytest.raises(AnswerTooLargeError, match="^the count for q = 7\\^6000 may have more than 4300 digits"):
            report_to_dict(report)
        sys.set_int_max_str_digits(0)  # no limit: the same report renders
        assert report_to_dict(report)["q"] == 7**6000
    finally:
        sys.set_int_max_str_digits(saved)


def test_report_dict_layout():
    d = report_to_dict(build_count_report(73, 1, 35, 3, verify=True))
    assert list(d) == [
        "q", "p", "k", "n", "r", "epsilon1", "epsilon2", "s_k",
        "closed_count", "brute_count", "mz_lower", "mz_upper",
        "cor_lower", "cor_upper", "a_values",
    ]
    assert d["s_k"] == "-7"
    assert d["a_values"] == F73_SET
    assert isinstance(d["mz_lower"], str) and isinstance(d["mz_upper"], str)


def test_checked_pairs_compare_integers_and_show_the_bounds_as_given():
    mz_lo, mz_hi = Fraction(-3, 2), Fraction(29, 3)
    mz, refined = counts.checked_pairs(mz_lo, mz_hi, None, None)
    assert mz == ("mz-bounds", 0, 9, "[0, 29/3]") and refined[1:3] == (None, None)
    assert all(type(b) is int for b in mz[1:3])
    pairs = counts.checked_pairs(Fraction(7, 3), mz_hi, 4, 8)
    assert pairs[0][1:] == (3, 9, "[7/3, 29/3]")

    def failures(closed):
        return [f[1:] for f in counts.cell_failures(closed, frozenset(range(closed)), None, pairs)]

    assert failures(5) == []
    assert failures(9) == [("refined-bounds", "9 outside [4, 8]")]
    assert failures(10) == [("mz-bounds", "10 outside [7/3, 29/3]"), ("refined-bounds", "10 outside [4, 8]")]
    assert failures(2) == [("mz-bounds", "2 outside [7/3, 29/3]"), ("refined-bounds", "2 outside [4, 8]")]
    # the bounds of every sweep block are exact at their integer ends
    for q in (5, 7, 13, 25, 49, 121):
        for r in (2, 3):
            if field_admits(q, r):
                lo_f, hi_f, _, _ = bounds = counts.bound_pairs(q, r)
                _, lo, hi, _ = counts.checked_pairs(*bounds)[0]
                assert [c for c in range(-5, q) if lo <= c <= hi] == [c for c in range(-5, q) if max(lo_f, 0) <= c <= hi_f]
