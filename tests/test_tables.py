"""Discrete-logarithm tables against the same field without them.

Each check builds the tables on a fresh FieldSpec and compares it with a
second, equal FieldSpec that has none, so every table result is checked
against square-and-multiply on the polynomial basis.
"""

from array import array
from math import gcd

import pytest

from permbinom import cli, fields, permtest
from permbinom.characters import cubic_char, power_sum, quadratic_char
from permbinom.curves import count_points_extension
from permbinom.errors import BadFieldForCubicError, EnumerationGuardError, UnknownChoiceError
from permbinom.fields import NO_LOG, FieldSpec, add_logs, element_order, make_field
from permbinom.permtest import ROUTES, enumerate_perm_binomials
from permbinom.primes import prime_power_decompose, prime_powers_upto
from reference import binomial_polynomial, compute_index_form, is_permutation_bruteforce, wan_lidl_check

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
# every field of FIELDS, and F_7^2 for r = 3 on an extension of odd characteristic
ADMITTING_FIELDS = FIELDS + [(7, 2, make_field(7, 2).modulus)]


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


def test_zech_is_no_log_only_where_alpha_i_is_minus_one():
    # brute force and Wan-Lidl write to this slot without searching for it
    for q in prime_powers_upto(1024):
        spec = make_field(*prime_power_decompose(q))
        zech = spec.scan_tables().zech
        where = (q - 1) // 2 if spec.p != 2 else 0
        assert zech.count(NO_LOG) == 1 and zech[where] == NO_LOG, q
        assert permtest._minus_one_log(spec) == where


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
def test_table_characters_of_operator_built_elements(p, k, modulus):
    # sums, differences and products carry no encoding on an extension field; on a prime field they carry theirs
    tabled, plain = _pair(p, k, modulus)
    q = p**k
    t_alpha, p_alpha = tabled.decode(plain.alpha.encode()), plain.alpha
    for enc in range(q):
        x, y = tabled.decode(enc), plain.decode(enc)
        for built_t, built_p in ((x + t_alpha, y + p_alpha), (x - t_alpha, y - p_alpha), (x * t_alpha, y * p_alpha), (x - x, y - y)):
            assert (built_t._enc is None) == (k > 1)
            if p != 2:
                assert quadratic_char(tabled, built_t) == quadratic_char(plain, built_p), (enc, built_p)
            if q % 3 == 1:
                assert cubic_char(tabled, built_t) == cubic_char(plain, built_p), (enc, built_p)


@pytest.mark.parametrize("p,k,modulus", ADMITTING_FIELDS, ids=_ids(ADMITTING_FIELDS))
def test_criterion_never_reads_zech(p, k, modulus):
    # brute force and Wan-Lidl read zech; the criterion stays independent of them
    spec = FieldSpec(p, k, modulus)
    tables = spec.scan_tables()
    expected = {(n, r): ROUTES["criterion"](spec, tables, n, r) for n, r in _admissible(p, k)}
    poisoned = tables._replace(zech=array("l", [0]) * (p**k - 1))
    spec._tables = poisoned  # the characters read the field's own tables
    for (n, r), found in expected.items():
        assert ROUTES["criterion"](spec, poisoned, n, r) == found, (n, r)
    # the poison shows in a route that reads zech
    assert any(ROUTES["bruteforce"](spec, poisoned, n, r) != found for (n, r), found in expected.items())


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


@pytest.mark.parametrize("p,k,modulus", FIELDS, ids=IDS)
def test_alpha_is_the_first_generator_and_skips_the_constants_of_an_extension(p, k, modulus, monkeypatch):
    q = p**k
    spec = FieldSpec(p, k, modulus)
    first = next(x for x in map(spec.decode, range(1, q)) if element_order(x) == q - 1)
    tried = []
    monkeypatch.setattr(fields, "element_order", lambda x: tried.append(x.encode()) or element_order(x))
    assert spec.alpha == first
    assert tried[-1] == first.encode() and (k == 1 or min(tried) >= p)


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


# decode and elements against the digit loop, on prime fields (no digit tables) and on even and odd k
DECODE_FIELDS = [(2, 1), (3049, 1), (2, 12), (2, 16), (5, 5), (3, 7), (7, 4)]


def _digit_loop(enc, p, k):
    coeffs = []
    for _ in range(k):
        enc, c = divmod(enc, p)
        coeffs.append(c)
    return tuple(coeffs)


@pytest.mark.parametrize("p,k", DECODE_FIELDS, ids=[f"{p}^{k}" for p, k in DECODE_FIELDS])
def test_decode_and_elements_match_the_digit_loop(p, k):
    tabled, plain = _pair(p, k, make_field(p, k).modulus)
    q = p**k
    want = [_digit_loop(e, p, k) for e in range(q)]
    if k == 1:
        assert tabled._digits is None  # a prime field's one coefficient is its encoding
    else:
        low, high = tabled._digits
        assert len(low) == p ** (k // 2) and len(high) == p ** (k - k // 2)
        assert [lo + hi for hi in high for lo in low] == want  # exactly the q coefficient tuples, in order
    assert plain._digits is None
    for spec in (tabled, plain):
        decoded = [spec.decode(e) for e in range(q)]
        listed = list(spec.elements())
        for els in (decoded, listed):
            assert [el.coeffs for el in els] == want
            assert [el.encode() for el in els] == list(range(q))
            assert [el.is_zero for el in els] == [e == 0 for e in range(q)]
        built = [spec.element(c) for c in want[:: max(1, q // 500)]]  # no encoding carried
        assert [el.encode() for el in built] == list(range(0, q, max(1, q // 500)))
    assert plain._tables is None and plain._digits is None


def test_decode_above_the_guard_builds_no_tables():
    spec = make_field(2, 64)
    enc = 2**64 - 5
    assert spec.decode(enc).coeffs == _digit_loop(enc, 2, 64)
    with pytest.raises(EnumerationGuardError):
        spec.scan_tables()
    assert spec.decode(enc).encode() == enc
    assert spec._tables is None and spec._digits is None


class _Int(int):
    """An int subclass, as IntEnum members are; stored as a plain int, like a bool."""


# a non-integer encoding is refused by its type, never echoed, and an integer-like one stored as an int,
# by the digit tables and the digit loop alike
@pytest.mark.parametrize("p,k", [(3, 3), (7, 1), (2, 4)])
@pytest.mark.parametrize("bad", [5.5, 2.0, "5", None, [1], [10**5000]], ids=["5.5", "2.0", "str", "None", "list", "list-of-a-huge-int"])
def test_decode_refuses_a_non_integer_encoding(p, k, bad):
    for spec in _pair(p, k, make_field(p, k).modulus):
        with pytest.raises(UnknownChoiceError, match="is not an integer"):
            spec.decode(bad)


@pytest.mark.parametrize("p,k", [(3, 3), (7, 1), (2, 4)])
def test_integer_like_values_are_stored_as_plain_ints(p, k):
    for spec in _pair(p, k, make_field(p, k).modulus):
        for el in (spec.decode(_Int(5)), spec.decode(True), spec.element([_Int(1)] + [True] * (k - 1)), spec.element(_Int(6))):
            assert all(type(c) is int for c in el.coeffs) and type(el.encode()) is int, el
        assert spec.decode(_Int(5)).coeffs == spec.decode(5).coeffs
        assert spec.decode(True) == spec.one


def _wan_lidl_by_add_logs(spec, tables, n, r):
    """The Wan-Lidl enumeration with one add_logs call per step, as the package first wrote it."""
    poly = binomial_polynomial(spec, n, r, spec.one)
    form = compute_index_form(spec, poly)
    q1 = spec.q - 1
    s = q1 // form.m
    if gcd(form.r_low, s) != 1:
        return []
    (hi,) = set(poly) - {n}
    j_a, j_1 = (n - form.r_low) // s, (hi - form.r_low) // s
    steps = [(s * i * (j_1 - j_a) % q1, s * (form.r_low * i + s * i * j_a) % q1) for i in range(form.m)]
    _, log, zech = tables
    out = []
    for a in range(spec.q):
        la = log[a]
        seen = set()
        for one_term, fixed in steps:
            lh = add_logs(zech, la, one_term)
            if lh == NO_LOG:
                break
            v = (fixed + s * lh) % q1
            if v in seen:
                break
            seen.add(v)
        else:
            out.append(a)
    return out


def _wan_lidl_by_zech_steps(spec, tables, n, r):
    """The Wan-Lidl enumeration with one inline Zech step per root of unity and per a, as the package wrote it before its masks."""
    poly = binomial_polynomial(spec, n, r, spec.one)
    form = compute_index_form(spec, poly)
    q1, m = spec.q - 1, form.m
    s = q1 // m
    if gcd(form.r_low, s) != 1:
        return []
    (hi,) = set(poly) - {n}
    j_a, j_1 = (n - form.r_low) // s, (hi - form.r_low) // s
    steps = [(s * i * (j_1 - j_a) % q1, (form.r_low * i + s * i * j_a) % m) for i in range(m)]
    _, log, zech = tables
    out = [0] if len({(c + one_term) % m for one_term, c in steps}) == m else []
    for a in range(1, spec.q):
        la = log[a]
        seen = []
        for one_term, c in steps:
            z = zech[(one_term - la) % q1]
            if z == NO_LOG:
                break
            v = (c + z) % m
            if v in seen:
                break
            seen.append(v)
        else:
            out.append(a)
    return out


def _first_wan_lidl_mismatch(cells):
    """The first (q, n, r) of cells = [(p, k, n, r), ...] where the mask route and the Zech-step loop differ, or None."""
    for p, k, n, r in cells:
        spec = make_field(p, k)
        tables = spec.scan_tables()
        if ROUTES["wanlidl"](spec, tables, n, r) != _wan_lidl_by_zech_steps(spec, tables, n, r):
            return p**k, n, r
    return None


def _first_and_last_n_per_class(p, k):
    """Per admissible r, the cells of the first and the last admissible n of each class n mod r."""
    by_class = {}
    for n, r in _admissible(p, k):
        by_class.setdefault((r, n % r), []).append(n)
    return [(p, k, n, r) for (r, _), ns in by_class.items() for n in sorted({ns[0], ns[-1]})]


def test_wan_lidl_masks_match_the_zech_steps_on_every_cell_up_to_400():
    cells = [(p, k, n, r) for p, k in map(prime_power_decompose, prime_powers_upto(400)) for n, r in _admissible(p, k)]
    assert len(cells) == 12_188
    assert _first_wan_lidl_mismatch(cells) is None


@pytest.mark.parametrize(
    "p,k",
    [(2, 12), (7, 4), (13, 3), (5, 5), (2953, 1), (2971, 1), (3001, 1), (3019, 1), (3037, 1), (3049, 1)],
    ids=lambda v: str(v),
)
def test_wan_lidl_masks_match_the_zech_steps_on_the_deep_scan_fields(p, k):
    assert _first_wan_lidl_mismatch(_first_and_last_n_per_class(p, k)) is None


def test_wan_lidl_masks_match_the_zech_steps_on_large_fields():
    # F_(2^16) r = 3, F_(3^10) r = 2 and F_(7^6) r = 2 and 3: the first admissible n of each class
    cells = []
    for p, k, rs in [(2, 16, (3,)), (3, 10, (2,)), (7, 6, (2, 3))]:
        q = p**k
        for r in rs:
            d = (q - 1) // r
            firsts = {}
            for n in range(1, 100):  # every class that has an admissible n has one below 100 here
                if gcd(n, d) == 1:
                    firsts.setdefault(n % r, n)
            cells += [(p, k, n, r) for n in firsts.values()]
    assert len(cells) == 7  # d is even on F_(3^10) and F_(7^6), and a multiple of 3 on F_(7^6)
    assert _first_wan_lidl_mismatch(cells) is None


def test_inline_wan_lidl_matches_the_add_logs_loop():
    # the deep-scan fields with one of its primes, and F_{2^16}; the first admissible n of each class n mod r
    cells = []
    for p, k in [(2, 12), (7, 4), (13, 3), (5, 5), (3049, 1), (2, 16)]:
        q = p**k
        for r in (2, 3):
            if (r == 2 and p == 2) or (r == 3 and q % 3 != 1):
                continue
            d = (q - 1) // r
            firsts = {}
            for n in range(1, q):
                if gcd(n, d) == 1:
                    firsts.setdefault(n % r, n)
            cells += [(p, k, n, r) for n in firsts.values()]
    assert len(cells) == 17
    for p, k, n, r in cells:
        spec = make_field(p, k)
        tables = spec.scan_tables()
        got, want = ROUTES["wanlidl"](spec, tables, n, r), _wan_lidl_by_add_logs(spec, tables, n, r)
        assert got == want, f"first mismatch at (q, n, r) = {(p**k, n, r)}"
