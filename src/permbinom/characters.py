"""Quadratic and cubic multiplicative characters, and full power sums.

Character values are never represented as complex numbers.  The quadratic
character chi returns an integer in {-1, 0, +1}.  The cubic character eta
returns an exponent e in {0, 1, 2} meaning "value xi^e" for the fixed
primitive cube root of unity xi = alpha^((q-1)/3), or None on the zero
element.  Exponents compose additively mod 3, so eta(uv) = eta(u) + eta(v)
and eta(u/v) = eta(u) - eta(v) without any field inversions.

Both pass their operand to FieldSpec.element, which decides whether it is
in the field, and both read one exponent routine, _exponent: the e < m with
el^((q-1)/m) = alpha^((q-1)e/m), for m = 2 (chi = (-1)^e) and m = 3
(eta = e). Only here are characters read off a field's scan tables, as
el = alpha^i gives e = i mod m: by _exponent one element at a time, and
by character_classes over the whole log table. _exponent's one log read,
at the encoding el carries where it has one, also decides zero, as
log[0] = NO_LOG; without tables e takes one power.
"""

from __future__ import annotations

from typing import Callable

from .errors import BadFieldForCubicError, EvenCharacteristicError, check_integer, int_text
from .fields import NO_LOG, FieldElement, FieldSpec, add_logs


def _exponent(spec: FieldSpec, el: FieldElement, m: int, roots: Callable[[FieldSpec], tuple[FieldElement, ...]]) -> int | None:
    """The e < m with el^((q-1)/m) = alpha^((q-1)e/m), or None when el = 0.

    With tables, one log read at el.encode(), the encoding el carries where it has one, decides both.
    Without, roots(spec) lists those m powers of alpha, e ascending, or refuses a field where m does not divide q - 1.
    """
    tables = spec._tables
    if tables is not None and (spec.q - 1) % m == 0:
        i = tables.log[el.encode()]
        return None if i == NO_LOG else i % m
    if el.is_zero:
        return None
    t = el ** ((spec.q - 1) // m)
    for e, root in enumerate(roots(spec)):
        if t == root:
            return e
    raise AssertionError(f"el^((q-1)/{m}) is no power of alpha^((q-1)/{m}); broken field arithmetic")


def quadratic_char(spec: FieldSpec, el: FieldElement) -> int:
    """chi(el) = el^((q-1)/2) read as -1, 0, or +1; el is an element of spec, or what spec.element lifts into it."""
    el = spec.element(el)
    if spec.p == 2:
        raise EvenCharacteristicError("quadratic character needs odd q")
    e = _exponent(spec, el, 2, _square_roots_of_unity)
    return 0 if e is None else 1 - 2 * e


def _square_roots_of_unity(spec: FieldSpec) -> tuple[FieldElement, FieldElement]:
    """(1, -1), as alpha^((q-1)/2) = -1 for odd q."""
    return spec.one, -spec.one


def cubic_roots_of_unity(spec: FieldSpec) -> tuple[FieldElement, FieldElement, FieldElement]:
    """(1, xi, xi^2) with xi = alpha^((q-1)/3)."""
    if spec.q % 3 != 1:
        raise BadFieldForCubicError(f"q = {int_text(spec.q)} is not 1 mod 3")
    third = (spec.q - 1) // 3
    alpha = spec.alpha
    return spec.one, alpha**third, alpha ** (2 * third)


def cubic_char(spec: FieldSpec, el: FieldElement) -> int | None:
    """Exponent e with el^((q-1)/3) = xi^e, or None when el = 0; el is an element of spec, or what spec.element lifts into it."""
    return _exponent(spec, spec.element(el), 3, cubic_roots_of_unity)


def character_classes(spec: FieldSpec) -> dict:
    """How many nonzero elements take each value of chi and of eta; None for a character F_q lacks.

    Counted on the logs of the nonzero elements: chi(alpha^i) = (-1)^i and eta(alpha^i) = i mod 3.
    """
    logs = spec.scan_tables().log[1:]
    quad = cubic = None
    if spec.p != 2:
        odd = sum(i & 1 for i in logs)
        quad = {"1": len(logs) - odd, "-1": odd, "zero": 1}
    if spec.q % 3 == 1:
        etas = bytes(i % 3 for i in logs)
        cubic = {"0": etas.count(0), "1": etas.count(1), "2": etas.count(2), "zero": 1}
    return {"q": spec.q, "quadratic_classes": quad, "cubic_classes": cubic}


def power_sum(spec: FieldSpec, m: int) -> FieldElement:
    """Sum of a^m over every a in F_q, with 0^0 = 1.

    Equals -1 when (q-1) | m and m > 0, and 0 otherwise (for m = 0 the
    q copies of 1 sum to q * 1 = 0 in characteristic p).
    """
    check_integer("m", m, 0)
    exp, _, zech = spec.scan_tables()
    q1 = spec.q - 1
    total = 0 if m == 0 else NO_LOG  # log of the running sum, starting from 0^m
    for i in range(q1):
        total = add_logs(zech, total, i * m % q1)  # (alpha^i)^m = alpha^(i m)
    return spec.zero if total == NO_LOG else spec.decode(exp[total])
