"""Table-free oracles for the permutation routes: the binomial as a polynomial, brute force and the Wan-Lidl criterion.

A polynomial is a dict exponent -> FieldElement, exponents below q, with a
nonzero coefficient at every exponent but perhaps 0. Everything here runs
on FieldElement arithmetic alone, so it never reads a field's logarithm
tables, and shares no code with the routes it checks. The tests hand it
well-formed input; it checks none.
"""

from math import gcd
from typing import NamedTuple


class IndexForm(NamedTuple):
    """f(x) = x^r_low * h(x^((q-1)/m)) + b with h(0) != 0 and m minimal."""

    r_low: int
    h: tuple  # dense, constant coefficient first
    m: int
    b: object


def binomial_polynomial(spec, n, r, a):
    """x^n (x^((q-1)/r) + a), its high exponent reduced into [1, q - 1]: the same map on F_q, of degree < q."""
    q1 = spec.q - 1
    poly = {(n + q1 // r - 1) % q1 + 1: spec.one}
    if not a.is_zero:
        poly[n] = a
    return poly


def evaluate_poly(spec, f, x):
    return sum((c * x**e for e, c in f.items()), spec.zero)


def is_permutation_bruteforce(spec, f):
    """Whether f takes q distinct values on F_q."""
    return len({evaluate_poly(spec, f, x) for x in spec.elements()}) == spec.q


def compute_index_form(spec, f):
    """The minimal-index form of a nonconstant f."""
    poly = dict(f)
    b = poly.pop(0, spec.zero)
    r_low = min(poly)
    s = gcd(spec.q - 1, *(e - r_low for e in poly))
    h = [spec.zero] * ((max(poly) - r_low) // s + 1)
    for e, c in poly.items():
        h[(e - r_low) // s] = c
    return IndexForm(r_low, tuple(h), (spec.q - 1) // s, b)


def wan_lidl_check(spec, f):
    """Whether a nonconstant f permutes F_q, by its minimal form f = x^r_low h(x^s) + b, s = (q-1)/m.

    It does iff gcd(r_low, s) = 1, h vanishes nowhere on the m-th roots of
    unity, and the values (f - b)(alpha^i)^s for 0 <= i < m are pairwise
    distinct.
    """
    form = compute_index_form(spec, f)
    s = (spec.q - 1) // form.m
    if gcd(form.r_low, s) != 1:
        return False
    h = dict(enumerate(form.h))
    values = set()
    for i in range(form.m):
        x = spec.alpha**i
        hx = evaluate_poly(spec, h, x**s)
        if hx.is_zero:
            return False
        values.add((x**form.r_low * hx) ** s)
    return len(values) == form.m
