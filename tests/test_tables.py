"""Discrete-logarithm tables against the same field without them.

Each check builds the tables on a fresh FieldSpec and compares it with a
second, equal FieldSpec that has none, so every table result is checked
against square-and-multiply on the polynomial basis.
"""

from math import gcd

import pytest

from permbinom import cli
from permbinom.characters import cubic_char, quadratic_char
from permbinom.fields import NO_LOG, FieldSpec, element_order, make_field
from permbinom.permtest import binomial_polynomial, enumerate_perm_binomials, is_permutation_bruteforce

# (p, k, modulus); the last is F_16 under x^4 + x^3 + 1 instead of the default x^4 + x + 1
FIELDS = [
    (7, 1, (0, 1)),
    (13, 1, (0, 1)),
    (2, 4, make_field(2, 4).modulus),
    (3, 3, make_field(3, 3).modulus),
    (5, 2, make_field(5, 2).modulus),
    (2, 4, (1, 0, 0, 1, 1)),
]
IDS = [f"{p}^{k}-mod{''.join(map(str, m))}" for p, k, m in FIELDS]


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
        if enc:
            assert x.inverse().coeffs == y.inverse().coeffs
            assert element_order(x) == element_order(y)


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_table_brute_force_matches_direct_evaluation(p, k, modulus):
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    for r in (2, 3):
        if (r == 2 and p == 2) or (r == 3 and q % 3 != 1):
            continue
        d = (q - 1) // r
        for n in range(1, q):
            if gcd(n, d) != 1:
                continue
            got = [a.encode() for a in enumerate_perm_binomials(tabled, n, r, method="bruteforce")]
            want = [
                a.encode()
                for a in plain.elements()
                if is_permutation_bruteforce(plain, binomial_polynomial(plain, n, r, a))
            ]
            assert got == want, (n, r)
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
