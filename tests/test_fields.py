"""Field arithmetic against independent oracles and pinned constructions."""

import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from permbinom.errors import (
    DegreeMismatchError,
    EnumerationGuardError,
    FieldMismatchError,
    NonPrimeError,
    ReducibleModulusError,
    UnknownChoiceError,
    ZeroElementError,
    integer,
)
from permbinom import fields
from permbinom.characters import cubic_char, quadratic_char
from permbinom.fields import (
    FieldSpec,
    element_order,
    ensure_enumerable,
    make_field,
    parse_field,
)
from permbinom.primes import factorize, is_prime
from reference import ascending_modulus

FIELDS = [(13, 1), (3, 2), (2, 3), (7, 2)]


def _xgcd(a, b):
    if b == 0:
        return a, 1, 0
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def test_pinned_moduli_and_generators():
    # deterministic modulus scan and first-by-enumeration generator
    assert make_field(73).alpha.encode() == 5
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.alpha.encode() == 2
    f9 = make_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    assert f9.alpha.encode() == 4
    assert make_field(13).alpha.encode() == 2


def test_alpha_is_first_generator():
    for p, k in FIELDS:
        spec = make_field(p, k)
        q = p**k
        assert element_order(spec.alpha) == q - 1
        for el in spec.elements():
            if el == spec.alpha:
                break
            assert el.is_zero or element_order(el) < q - 1


def test_inverse_against_extended_gcd():
    spec = make_field(73)
    for v in range(1, 73):
        g, x, _ = _xgcd(v, 73)
        assert g == 1
        assert spec.element(v).inverse().encode() == x % 73


def test_inverse_extension_fields():
    for p, k in FIELDS:
        spec = make_field(p, k)
        for el in spec.elements():
            if el.is_zero:
                with pytest.raises(ZeroDivisionError):
                    el.inverse()
            else:
                assert el * el.inverse() == spec.one


def test_encode_decode_roundtrip():
    spec = make_field(7, 2)
    seen = set()
    for el in spec.elements():
        enc = el.encode()
        assert spec.decode(enc) == el
        seen.add(enc)
    assert seen == set(range(49))


ENCODED_FIELDS = [(2, 4), (3, 3), (5, 2), (13, 1)]


@pytest.mark.parametrize("p,k", ENCODED_FIELDS)
def test_decode_keeps_its_encoding(p, k, monkeypatch):
    spec = make_field(p, k)
    decoded = [spec.decode(e) for e in range(spec.q)]
    assert [fields._encode(el.coeffs, p) for el in decoded] == list(range(spec.q))
    monkeypatch.setattr(fields, "_encode", lambda coeffs, p: pytest.fail("a decoded element re-encoded"))
    assert [el.encode() for el in decoded] == list(range(spec.q))


@pytest.mark.parametrize("p,k", ENCODED_FIELDS)
def test_arithmetic_results_encode_their_coefficients(p, k):
    spec = make_field(p, k)
    others = [spec.one, spec.alpha, spec.decode(spec.q - 1), p - 1]  # p - 1: an int operand, never 0
    for x in spec.elements():
        results = [-x, x**3, x**-1 if not x.is_zero else x**0]
        for y in others:
            results += [x + y, y + x, x - y, y - x, x * y, y * x, x / y]
            if not x.is_zero:
                results.append(y / x)
        for z in results:
            assert z.encode() == fields._encode(z.coeffs, p), (x, z)


@pytest.mark.parametrize("p", [2, 13, 73])
def test_prime_field_operators_carry_their_encoding(p, monkeypatch):
    spec = make_field(p)
    xs = [spec.decode(e) for e in range(p)]
    ys = xs + [spec.element(e) for e in range(p)] + list(range(-1, p + 1))  # elements without an encoding, and ints
    monkeypatch.setattr(fields, "_encode", lambda coeffs, p: pytest.fail("an operator result re-encoded"))
    for x in xs:
        for y in ys:
            for z in (x + y, y + x, x - y, y - x, x * y, y * x):
                assert z._enc == z.coeffs[0], (x, y, z)


def test_encode_runs_at_most_once(monkeypatch):
    spec = make_field(3, 3)
    calls = []
    real = fields._encode
    monkeypatch.setattr(fields, "_encode", lambda coeffs, p: calls.append(coeffs) or real(coeffs, p))
    z = spec.decode(5) * spec.decode(7)
    assert z.encode() == z.encode() == real(z.coeffs, 3)
    assert len(calls) == 1


@pytest.mark.parametrize("p,k", ENCODED_FIELDS)
def test_equality_and_hash_ignore_whether_encode_ran(p, k):
    spec = make_field(p, k)
    for e in range(spec.q):
        decoded, built = spec.decode(e), spec.element(spec.decode(e).coeffs)  # built: encoding not yet known
        assert decoded == built and hash(decoded) == hash(built)
        sum_ = built + spec.zero
        assert sum_ == decoded and hash(sum_) == hash(decoded)
        assert built.encode() == e
        assert decoded == built == sum_ and hash(decoded) == hash(built) == hash(sum_)
        assert len({decoded, built, sum_}) == 1


@pytest.mark.parametrize("p,k", ENCODED_FIELDS)
def test_pickle_keeps_a_correct_encoding(p, k):
    spec = make_field(p, k)
    x = spec.decode(spec.q - 2)
    fresh, computed = x * spec.alpha, x * spec.alpha
    computed.encode()
    for el in (x, fresh, computed):
        back = pickle.loads(pickle.dumps(el))
        assert back == el and back.encode() == el.encode() == fields._encode(el.coeffs, p)


@pytest.mark.parametrize("bad", [[1.5, 2, 0], ["1", 2, 0], [1, None, 0], "120", 2.5, None], ids=repr)
def test_element_refuses_non_integer_coefficients(bad):
    with pytest.raises(UnknownChoiceError, match="as integer coefficients"):
        make_field(3, 3).element(bad)


@pytest.mark.parametrize("modulus", [(1.5, 2, 0, 1), (1, "2", 0, 1), 2.5], ids=repr)
def test_make_field_refuses_a_non_integer_modulus(modulus):
    with pytest.raises(UnknownChoiceError, match="as integer coefficients"):
        make_field(3, 3, modulus)


# a list that also holds an int too long to print: the refusal names the bad entry by its type alone
HUGE_LISTS = {
    "make_field-modulus": lambda: make_field(7, 2, [10**5000, 2.5, 1]),
    "element": lambda: make_field(7, 2).element([10**5000, 2.5]),
}


@pytest.mark.parametrize("name", sorted(HUGE_LISTS))
def test_a_bad_coefficient_list_is_refused_by_type_at_any_size(name):
    with pytest.raises(UnknownChoiceError, match="^cannot read a value of type float as integer coefficients$"):
        HUGE_LISTS[name]()


@st.composite
def field_and_elements(draw, count=3):
    p, k = draw(st.sampled_from(FIELDS))
    spec = make_field(p, k)
    encs = draw(st.lists(st.integers(0, p**k - 1), min_size=count, max_size=count))
    return spec, [spec.decode(e) for e in encs]


@settings(max_examples=150, deadline=None)
@given(field_and_elements())
def test_field_axioms(case):
    spec, (a, b, c) = case
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + spec.zero == a
    assert a * spec.one == a
    assert a - a == spec.zero


@settings(max_examples=100, deadline=None)
@given(field_and_elements(count=1), st.integers(-30, 30))
def test_int_lifting(case, m):
    spec, (a,) = case
    assert a + m == a + spec.element(m)
    assert m * a == spec.element(m) * a
    assert a - m == a - spec.element(m)


@settings(max_examples=80, deadline=None)
@given(field_and_elements(count=1), st.integers(0, 200))
def test_pow_matches_repeated_product(case, e):
    spec, (a,) = case
    acc = spec.one  # 0^0 = 1 under this convention
    for _ in range(e):
        acc = acc * a
    assert a**e == acc


def test_element_order_against_direct_powering():
    spec = make_field(3, 3)
    for el in spec.elements():
        if el.is_zero:
            continue
        acc = el
        order = 1
        while acc != spec.one:
            acc = acc * el
            order += 1
        assert element_order(el) == order


def test_cross_field_operations_rejected():
    a = make_field(13).element(1)
    b = make_field(3, 2).element(1)
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


# One operand table for every way a value enters a field: the operators,
# both ways round, the two characters and FieldSpec.element. Each operand is
# paired with x = A.decode(10) in A = F_{7^2}; an outcome is the value (E(n)
# is A.decode(n)) or the type of the exception raised.
A = make_field(7, 2)
E = A.decode
OPERANDS = {
    "same-spec": A.decode(12),
    "equal-spec": FieldSpec(7, 2, A.modulus).decode(12),  # equal to A, but not the cached object
    "other-field": make_field(5, 2).decode(12),
    "int": 3,
    "bool": True,
    "float": 2.5,
    "str": "3",
    "list": [3, 1],
    "None": None,
}
OPERATIONS = {
    "x + v": lambda v: E(10) + v,
    "v + x": lambda v: v + E(10),
    "x - v": lambda v: E(10) - v,
    "v - x": lambda v: v - E(10),
    "x * v": lambda v: E(10) * v,
    "v * x": lambda v: v * E(10),
    "x / v": lambda v: E(10) / v,
    "v / x": lambda v: v / E(10),
    "quadratic_char": lambda v: quadratic_char(A, v),
    "cubic_char": lambda v: cubic_char(A, v),
    "element": lambda v: A.element(v),
}
Mismatch, Refused = FieldMismatchError, UnknownChoiceError
OUTCOMES = {  # one column per operand, in the order of OPERANDS
    "x + v": (E(15), E(15), Mismatch, E(13), E(11), TypeError, TypeError, TypeError, TypeError),
    "v + x": (E(15), E(15), Mismatch, E(13), E(11), TypeError, TypeError, TypeError, TypeError),
    "x - v": (E(5), E(5), Mismatch, E(7), E(9), TypeError, TypeError, TypeError, TypeError),
    "v - x": (E(2), E(2), Mismatch, E(42), E(47), TypeError, TypeError, TypeError, TypeError),
    "x * v": (E(7), E(7), Mismatch, E(23), E(10), TypeError, TypeError, TypeError, TypeError),
    "v * x": (E(7), E(7), Mismatch, E(23), E(10), TypeError, TypeError, TypeError, TypeError),
    "x / v": (E(48), E(48), Mismatch, E(36), E(10), TypeError, TypeError, TypeError, TypeError),
    "v / x": (E(31), E(31), Mismatch, E(45), E(15), TypeError, TypeError, TypeError, TypeError),
    "quadratic_char": (-1, -1, Mismatch, 1, 1, Refused, Refused, -1, Refused),
    "cubic_char": (1, 1, Mismatch, 1, 0, Refused, Refused, 2, Refused),
    "element": (E(12), E(12), Mismatch, E(3), E(1), Refused, Refused, E(10), Refused),
}


@pytest.mark.parametrize("operation,operand", [(o, v) for o in OPERATIONS for v in OPERANDS])
def test_every_way_into_a_field_gives_its_pinned_outcome(operation, operand):
    expected = OUTCOMES[operation][list(OPERANDS).index(operand)]
    try:
        outcome = OPERATIONS[operation](OPERANDS[operand])
    except Exception as exc:
        outcome = type(exc)
    assert type(outcome) is type(expected) and outcome == expected


def test_elements_hashable():
    spec = make_field(5)
    table = {el: el.encode() for el in spec.elements()}
    assert len(table) == 5
    assert table[spec.element(3)] == 3
    # equal elements compare and hash equal; an element never equals an int,
    # whose hash could not agree with it (3 and 8 are the same element of F_5)
    assert spec.element(8) == spec.element(3) and hash(spec.element(8)) == hash(spec.element(3))
    assert spec.element(3) != 3 and spec.element(3) != 8
    f7 = make_field(7)
    assert f7.element(5) != 5 and 5 not in {f7.element(5)}


def _rules_out_binomials(p, k):
    """Lidl and Niederreiter Thm 3.75: no x^k + c is irreducible over F_p."""
    return any((p - 1) % ell for ell in factorize(k)) or (k % 4 == 0 and p % 4 == 3)


SMALL_PRIME_POWERS = [(p, k) for p in range(2, 60) if is_prime(p) for k in range(2, 9) if p**k <= 10**9]


def test_the_modulus_search_finds_the_ascending_first_irreducible():
    assert len(SMALL_PRIME_POWERS) == 93
    skipped = [(p, k) for p, k in SMALL_PRIME_POWERS if _rules_out_binomials(p, k)]
    assert len(skipped) == 55
    for p, k in SMALL_PRIME_POWERS:
        assert fields._find_modulus(p, k) == ascending_modulus(p, k), (p, k)
    for p, k in skipped:  # the theorem itself, on every binomial
        assert not any(fields._is_irreducible((c,) + (0,) * (k - 1) + (1,), p) for c in range(p)), (p, k)


def test_the_modulus_search_tests_no_binomial_where_none_is_irreducible(monkeypatch):
    tested = []
    real = fields._is_irreducible
    monkeypatch.setattr(fields, "_is_irreducible", lambda f, p: tested.append(f) or real(f, p))
    assert fields._find_modulus(10007, 4) == (6, 1, 0, 0, 1)
    assert tested and not any(f[1:4] == (0, 0, 0) for f in tested)
    assert len(tested) < 10
    tested.clear()
    assert fields._find_modulus(13, 2) == (2, 0, 1)  # 2 | 12: binomials are searched, and x^2 + 2 is the first
    assert [f[0] for f in tested] == [0, 1, 2]


def test_make_field_validation():
    with pytest.raises(NonPrimeError):
        make_field(6)
    with pytest.raises(NonPrimeError):
        make_field(1)
    with pytest.raises(ReducibleModulusError):
        make_field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(DegreeMismatchError):
        make_field(3, 2, modulus=(1, 0, 0, 1))
    with pytest.raises(ReducibleModulusError, match="^modulus must be monic$"):
        make_field(7, 2, modulus=(3, 1, 2))


def test_degree_one_takes_the_general_path():
    # the modulus scan's first candidate is x, and every monic linear modulus is irreducible
    assert fields._find_modulus(7, 1) == make_field(7).modulus == (0, 1)
    spec = make_field(7, 1, modulus=(3, 1))  # x + 3
    assert spec.modulus == (3, 1) and spec.q == 7
    assert [e.encode() for e in spec.elements()] == list(range(7))


def test_trailing_zeros_of_a_modulus_name_the_same_field():
    spec = make_field(7, 1, [3, 1, 0])
    assert spec is make_field(7, 1, [3, 1]) and spec.modulus == (3, 1)
    assert make_field(7, 2, (3, 1, 1, 0, 0)) is make_field(7, 2, (3, 1, 1))
    assert (spec.one + make_field(7, 1, [3, 1]).one).encode() == 2  # one field, so no FieldMismatchError


@pytest.mark.parametrize("found_first", [True, False], ids=["found-first", "given-first"])
def test_the_found_modulus_given_names_the_same_field(monkeypatch, found_first):
    # one FieldSpec, so one set of scan tables, whichever call comes first
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    modulus = fields._find_modulus(7, 2)
    calls = [lambda: make_field(7, 2), lambda: make_field(7, 2, modulus)]
    first, second = (call() for call in (calls if found_first else calls[::-1]))
    assert first is second and first.modulus == modulus


def test_zero_has_no_order():
    with pytest.raises(ZeroElementError, match="^zero has no multiplicative order$"):
        element_order(make_field(7, 2).zero)


def test_custom_modulus_still_a_field():
    # x^2 + x + 2 is irreducible over F_3; arithmetic must close
    spec = make_field(3, 2, modulus=(2, 1, 1))
    assert element_order(spec.alpha) == 8
    for el in spec.elements():
        if not el.is_zero:
            assert el * el.inverse() == spec.one


def test_enumeration_guard(monkeypatch):
    big = (1 << 20) + 7
    with pytest.raises(EnumerationGuardError):
        ensure_enumerable(big)
    monkeypatch.setenv("PERMBINOM_GUARD", str(big))
    ensure_enumerable(big)


@pytest.mark.parametrize(
    "p,k,shown",
    [(2, 9, None), (3, 9, "19683"), (2, 10, "2^10"), (7, 30000000, "7^30000000"), (1009, 1, "1009")],
)
def test_the_field_guard_names_q_as_p_to_the_k_where_k_alone_decides(monkeypatch, p, k, shown):
    monkeypatch.setenv("PERMBINOM_GUARD", "1000")  # 10 bits: q >= 2^k > 1000 for every k >= 10
    if shown is None:
        fields.ensure_enumerable(p, k)
        return
    with pytest.raises(EnumerationGuardError, match=f"^refusing to enumerate F_q with q = {re.escape(shown)} > guard 1000; "):
        fields.ensure_enumerable(p, k)


@pytest.mark.parametrize("raw", ["1e1", "abc", "", "-5", "0"])
def test_malformed_guard_rejected(monkeypatch, raw):
    monkeypatch.setenv("PERMBINOM_GUARD", raw)
    with pytest.raises(EnumerationGuardError, match=re.escape(f"PERMBINOM_GUARD={raw!r}")):
        ensure_enumerable(7)


def test_parse_field():
    assert parse_field("73") == (73, 1)
    assert parse_field("7^2") == (7, 2)
    assert parse_field("49") == (7, 2)
    assert parse_field("343") == (7, 3)
    with pytest.raises(ValueError):
        parse_field("12")
    for text in ("x", "abc", "7^x", "^", "", "2^3^4"):
        with pytest.raises(UnknownChoiceError, match=re.escape(repr(text))):
            parse_field(text)
    for text in ("10^1", "9^1", "1^3", "12"):
        with pytest.raises(NonPrimeError):
            parse_field(text)
    for text in ("7^0", "7^-1"):
        with pytest.raises(DegreeMismatchError):
            parse_field(text)


@pytest.mark.parametrize("text", ["0", "7", "-1", "007", "1048576"])
def test_integer_reads_ascii_digits_after_an_optional_minus(text):
    assert integer(text) == int(text)


# int() alone reads "+1", " 7", "7 ", "1_1" and the Arabic-Indic digits
@pytest.mark.parametrize("text", ["", "-", "--1", "+1", " 7", "7 ", "1_1", "\u0667\u0663", "\u0665", "7.0", "1e3", "0x1f", "\u00b2"])
def test_integer_refuses_anything_else(text):
    with pytest.raises(UnknownChoiceError, match=re.escape(repr(text))):
        integer(text)


def test_a_guard_that_only_int_would_read_is_refused(monkeypatch):
    monkeypatch.setenv("PERMBINOM_GUARD", "1_000")
    with pytest.raises(EnumerationGuardError, match=re.escape("PERMBINOM_GUARD='1_000'")):
        ensure_enumerable(7)
