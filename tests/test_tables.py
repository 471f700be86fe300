"""Discrete-logarithm tables against the same field without them.

Each check builds the tables on a fresh FieldSpec and compares it with a
second, equal FieldSpec that has none, so every table result is checked
against square-and-multiply on the polynomial basis.
"""

from math import gcd

import pytest

from permbinom import cli
from permbinom.characters import cubic_char, power_sum, quadratic_char
from permbinom.curves import count_points_extension
from permbinom.errors import BadFieldForCubicError
from permbinom.fields import NO_LOG, FieldSpec, element_order, make_field
from permbinom.permtest import (
    binomial_polynomial,
    enumerate_perm_binomials,
    is_permutation_bruteforce,
    wan_lidl_check,
)

# (p, k, modulus); the last is F_16 under x^4 + x^3 + 1 instead of the default x^4 + x + 1
FIELDS = [
    (7, 1, (0, 1)),
    (13, 1, (0, 1)),
    (2, 4, make_field(2, 4).modulus),
    (3, 3, make_field(3, 3).modulus),
    (5, 2, make_field(5, 2).modulus),
    (2, 4, (1, 0, 0, 1, 1)),
]
# the Wan-Lidl scan is cheap enough to check on a few more fields
WANLIDL_FIELDS = FIELDS + [(19, 1, (0, 1)), (31, 1, (0, 1)), (7, 2, make_field(7, 2).modulus)]
# brute force also on F_3 (r = 2) and F_4 (r = 3), where d = 1 and some rotations are by 0
BRUTE_FIELDS = FIELDS + [
    (3, 1, (0, 1)),
    (2, 2, make_field(2, 2).modulus),
    (19, 1, (0, 1)),
    (7, 2, make_field(7, 2).modulus),
]
ODD_FIELDS = [f for f in FIELDS if f[0] != 2]


def _ids(fields):
    return [f"{p}^{k}-mod{''.join(map(str, m))}" for p, k, m in fields]


IDS = _ids(FIELDS)


def _admissible(p, k):
    q = p**k
    for r in (2, 3):
        if (r == 2 and p == 2) or (r == 3 and q % 3 != 1):
            continue
        d = (q - 1) // r
        for n in range(1, q):
            if gcd(n, d) == 1:
                yield n, r


def _pair(p, k, modulus):
    tabled, plain = FieldSpec(p, k, modulus), FieldSpec(p, k, modulus)
    tabled.scan_tables()
    return tabled, plain


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_tables_match_polynomial_arithmetic(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    exp, log, zech = tabled.scan_tables()
    q = p**k
    assert len(exp) == len(zech) == q - 1 and len(log) == q
    assert log[0] == NO_LOG
    for i in range(q - 1):
        power = plain.alpha**i
        assert exp[i] == power.encode()
        assert log[exp[i]] == i
        one_plus = (plain.one + power).encode()
        assert zech[i] == (NO_LOG if one_plus == 0 else log[one_plus])


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_table_powers_match_square_and_multiply(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    exponents = (0, 1, 2, q - 2, q - 1, q, 3 * q + 5, -1, -(q + 1))
    for enc in range(q):
        x, y = tabled.decode(enc), plain.decode(enc)
        for e in exponents:
            if enc == 0 and e < 0:
                with pytest.raises(ZeroDivisionError):
                    x**e
                with pytest.raises(ZeroDivisionError):
                    y**e
                continue
            assert (x**e).coeffs == (y**e).coeffs, (enc, e)
    assert tabled.zero**0 == tabled.one  # 0^0 = 1
    assert tabled.zero**5 == tabled.zero


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_table_characters_inverse_and_order(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    for enc in range(q):
        x, y = tabled.decode(enc), plain.decode(enc)
        if p != 2:
            assert quadratic_char(tabled, x) == quadratic_char(plain, y)
        if q % 3 == 1:
            assert cubic_char(tabled, x) == cubic_char(plain, y)
        elif enc:
            with pytest.raises(BadFieldForCubicError):
                cubic_char(tabled, x)
        if enc:
            assert x.inverse().coeffs == y.inverse().coeffs
            assert element_order(x) == element_order(y)


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_element_arithmetic_never_reads_the_tables(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    exp = tabled.scan_tables().exp
    exp[:] = exp[1:] + exp[:1]  # every entry now one power of alpha too high
    q = p**k
    for enc in range(1, q):
        x, y = tabled.decode(enc), plain.decode(enc)
        for e in (2, q - 2, -1):
            assert (x**e).coeffs == (y**e).coeffs, (enc, e)
        assert x.inverse().coeffs == y.inverse().coeffs
        assert element_order(x) == element_order(y)


@pytest.mark.parametrize("p,k,modulus", BRUTE_FIELDS, ids=_ids(BRUTE_FIELDS))
def test_table_brute_force_matches_direct_evaluation(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    for n, r in _admissible(p, k):
        got = [a.encode() for a in enumerate_perm_binomials(tabled, n, r, method="bruteforce")]
        want = [
            a.encode()
            for a in plain.elements()
            if is_permutation_bruteforce(plain, binomial_polynomial(plain, n, r, a))
        ]
        assert got == want, (n, r)
    assert plain._tables is None


@pytest.mark.parametrize("p,k,modulus", WANLIDL_FIELDS, ids=_ids(WANLIDL_FIELDS))
def test_table_wan_lidl_matches_the_generic_check(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    for n, r in _admissible(p, k):
        got = [a.encode() for a in enumerate_perm_binomials(tabled, n, r, method="wanlidl")]
        want = [
            a.encode()
            for a in plain.elements()
            if wan_lidl_check(plain, binomial_polynomial(plain, n, r, a))
        ]
        assert got == want, (n, r)
    assert plain._tables is None


@pytest.mark.parametrize("p,k,modulus", ODD_FIELDS, ids=_ids(ODD_FIELDS))
def test_table_point_counts_match_character_sums(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    for a4, a6 in ((0, 0), (0, 1), (1, 0), (2, 3), (q - 1, q // 2), (1, q - 1)):
        x4, x6 = plain.decode(a4), plain.decode(a6)
        want = 1 + sum(1 + quadratic_char(plain, x * x * x + x4 * x + x6) for x in plain.elements())
        assert count_points_extension(tabled, tabled.decode(a4), tabled.decode(a6)) == want, (a4, a6)
    assert plain._tables is None


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_table_power_sums(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    for m in (0, 1, q - 2, q - 1, 2 * (q - 1), 3 * q + 5):
        closed = -tabled.one if m > 0 and m % (q - 1) == 0 else tabled.zero
        direct = plain.zero
        for x in plain.elements():
            direct = direct + x**m  # 0^0 = 1
        got = power_sum(tabled, m)
        assert got == closed and got.coeffs == direct.coeffs, m
    assert plain._tables is None


def test_single_element_calls_build_no_tables():
    spec = FieldSpec(13, 1, (0, 1))
    x = spec.element(5)
    x**7
    x.inverse()
    element_order(x)
    quadratic_char(spec, x)
    cubic_char(spec, x)
    assert spec._tables is None
    spec.scan_tables()
    assert spec._tables is not None


def test_cli_character_query_on_a_large_field_builds_no_tables(capsys):
    assert cli.main(["char", "--field", "2^20", "--x", "12345"]) == 0
    assert capsys.readouterr().out
    assert make_field(2, 20)._tables is None
