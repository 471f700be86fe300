"""Quadratic and cubic characters against the square/cube tables."""

import pytest
from hypothesis import given, settings, strategies as st

import permbinom.characters as characters
from permbinom.characters import (
    character_classes,
    cubic_char,
    cubic_roots_of_unity,
    power_sum,
    quadratic_char,
)
from permbinom.errors import BadFieldForCubicError, EnumerationGuardError, EvenCharacteristicError, FieldMismatchError, UnknownChoiceError
from permbinom.fields import make_field

ODD_FIELDS = [(7, 1), (3, 2), (13, 1), (5, 2), (3, 3)]
CUBIC_FIELDS = [(7, 1), (13, 1), (2, 2), (5, 2), (31, 1)]  # q = 1 mod 3


@pytest.mark.parametrize("p,k", ODD_FIELDS)
def test_quadratic_char_square_table(p, k):
    spec = make_field(p, k)
    squares = {(x * x).encode() for x in spec.elements() if not x.is_zero}
    for x in spec.elements():
        want = 0 if x.is_zero else (1 if x.encode() in squares else -1)
        assert quadratic_char(spec, x) == want


def test_quadratic_char_even_characteristic():
    spec = make_field(2, 3)
    with pytest.raises(EvenCharacteristicError):
        quadratic_char(spec, spec.one)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ODD_FIELDS), st.data())
def test_quadratic_char_multiplicative(field, data):
    p, k = field
    spec = make_field(p, k)
    a = spec.decode(data.draw(st.integers(0, p**k - 1)))
    b = spec.decode(data.draw(st.integers(0, p**k - 1)))
    assert quadratic_char(spec, a * b) == quadratic_char(spec, a) * quadratic_char(spec, b)


def test_a_character_refuses_an_element_of_another_field():
    a, b = make_field(7, 2, [1, 0, 1]), make_field(7, 2, [3, 1, 1])  # x^2 + 1 and x^2 + x + 3
    for e in range(1, 49):
        with pytest.raises(FieldMismatchError):
            quadratic_char(a, b.decode(e))
        with pytest.raises(FieldMismatchError):
            cubic_char(a, b.decode(e))
    for not_an_element in (None, 2.5, "3", object()):
        with pytest.raises(UnknownChoiceError):
            quadratic_char(a, not_an_element)
        with pytest.raises(UnknownChoiceError):
            cubic_char(a, not_an_element)


@pytest.mark.parametrize("p,k", CUBIC_FIELDS)
def test_cubic_roots_of_unity(p, k):
    spec = make_field(p, k)
    one, xi, xi2 = cubic_roots_of_unity(spec)
    assert one == spec.one
    assert len({one, xi, xi2}) == 3
    assert xi * xi == xi2
    assert xi * xi2 == spec.one


def test_cubic_roots_need_q_1_mod_3():
    for p, k in ((5, 1), (3, 2), (2, 1)):
        with pytest.raises(BadFieldForCubicError):
            cubic_roots_of_unity(make_field(p, k))


@pytest.mark.parametrize("p,k", CUBIC_FIELDS)
def test_cubic_char_cube_table(p, k):
    spec = make_field(p, k)
    cubes = {(x * x * x).encode() for x in spec.elements() if not x.is_zero}
    assert cubic_char(spec, spec.zero) is None
    for x in spec.elements():
        if x.is_zero:
            continue
        assert (cubic_char(spec, x) == 0) == (x.encode() in cubes)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CUBIC_FIELDS), st.data())
def test_cubic_char_exponents_add(field, data):
    p, k = field
    spec = make_field(p, k)
    a = spec.decode(data.draw(st.integers(1, p**k - 1)))
    b = spec.decode(data.draw(st.integers(1, p**k - 1)))
    assert cubic_char(spec, a * b) == (cubic_char(spec, a) + cubic_char(spec, b)) % 3


def test_cubic_char_pins():
    # canonical xi over F_13 is 3, so eta(3) = 1 and eta(9) = 2
    f13 = make_field(13)
    assert [x.encode() for x in cubic_roots_of_unity(f13)] == [1, 3, 9]
    assert cubic_char(f13, f13.element(1)) == 0
    assert cubic_char(f13, f13.element(3)) == 1
    assert cubic_char(f13, f13.element(9)) == 2
    assert cubic_char(f13, f13.element(2)) == 1  # 2^4 = 3 = xi


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2), (13, 1), (2, 2), (2, 3)])
def test_power_sum_case_split(p, k):
    spec = make_field(p, k)
    q = p**k
    for m in (0, 1, 2, q - 2, q - 1, q, 2 * (q - 1), 2 * q - 1, 3 * (q - 1)):
        want = -spec.one if m > 0 and m % (q - 1) == 0 else spec.zero
        assert power_sum(spec, m) == want


def test_power_sum_zero_to_zero_convention():
    # m = 0 sums q copies of 1 because 0^0 = 1, so the total is 0 in F_q
    spec = make_field(7)
    assert power_sum(spec, 0) == spec.zero


@pytest.mark.parametrize("p,k", [(2, 4), (3, 4), (7, 2), (101, 1)])
def test_character_classes_matches_the_per_element_loop(p, k):
    spec = make_field(p, k)
    nonzero = [x for x in spec.elements() if not x.is_zero]
    quad = cubic = None
    if p != 2:
        vals = [quadratic_char(spec, x) for x in nonzero]
        quad = {"1": vals.count(1), "-1": vals.count(-1), "zero": 1}
    if spec.q % 3 == 1:
        exps = [cubic_char(spec, x) for x in nonzero]
        cubic = {"0": exps.count(0), "1": exps.count(1), "2": exps.count(2), "zero": 1}
    assert character_classes(spec) == {"q": spec.q, "quadratic_classes": quad, "cubic_classes": cubic}


def test_character_classes_refuses_a_field_above_the_guard_before_any_scan(monkeypatch):
    def evaluated(spec, el):
        raise AssertionError("a character was evaluated")

    monkeypatch.setattr(characters, "quadratic_char", evaluated)
    monkeypatch.setattr(characters, "cubic_char", evaluated)
    monkeypatch.setenv("PERMBINOM_GUARD", "48")
    with pytest.raises(EnumerationGuardError, match="q = 49 > guard 48"):
        character_classes(make_field(7, 2))
