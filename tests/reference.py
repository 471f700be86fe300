"""Table-free oracles for the permutation routes and the modulus search, and the old orbit walk.

For the routes: the binomial as a polynomial, brute force, the Wan-Lidl
criterion and the character criterion. A polynomial is a dict exponent ->
FieldElement, exponents below q, with a nonzero coefficient at every
exponent but perhaps 0. These run on FieldElement arithmetic alone, so they
never read a field's logarithm tables, and share no code with the routes
they check. The tests hand them well-formed input; they check none.

orbit_leaders and orbit_union are the walk the routes made on every call
before permtest's orbit table read it once per field and r: the oracle the
table is held to.
"""

from math import gcd
from typing import NamedTuple

from permbinom.fields import FieldSpec, _coefficients, _is_irreducible


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


def criterion_encodings(spec, n, r):
    """The encodings, ascending, of every a passing the character test, on a twin of spec that has no tables.

    r = 2: chi(a a - 1) = (-1)^(n+1). r = 3: with eta(x) the e where
    x^((q-1)/3) = xi^e, xi = alpha^((q-1)/3), a passes iff none of 1 + a,
    xi + a, xi^2 + a is 0 and none of eta(xi+a) - eta(1+a),
    eta(1+a) - eta(xi^2+a), eta(xi^2+a) - eta(xi+a) is 2n mod 3.
    Each character is one power of its argument.
    """
    twin = FieldSpec(spec.p, spec.k, spec.modulus)
    one = twin.one
    if r == 2:
        half = (twin.q - 1) // 2
        chi = {one: 1, -one: -1, twin.zero: 0}
        target = 1 if n % 2 == 1 else -1
        return [a.encode() for a in twin.elements() if chi[(a * a - one) ** half] == target]
    third = (twin.q - 1) // 3
    xi = twin.alpha**third
    eta = {one: 0, xi: 1, xi * xi: 2}
    t = 2 * n % 3
    out = []
    for a in twin.elements():
        sums = (xi + a, one + a, xi * xi + a)
        if any(s.is_zero for s in sums):
            continue
        e1, e2, e3 = (eta[s**third] for s in sums)
        if t not in ((e1 - e2) % 3, (e2 - e3) % 3, (e3 - e1) % 3):
            out.append(a.encode())
    return out


def orbit_leaders(p, d):
    """The least member of each orbit of j -> p j on Z/d, ascending: every j when p = 1 mod d."""
    if (p - 1) % d == 0:
        return range(d)
    seen = bytearray(d)
    leaders = []
    for j in range(d):
        if not seen[j]:
            leaders.append(j)
            c = j
            while not seen[c]:
                seen[c] = 1
                c = c * p % d
    return leaders


def orbit_union(spec, tables, r, hits, zero_passes):
    """The encodings, ascending, of the orbits led by alpha^j for j < d in hits, and of a = 0 if it passes.

    With d = (q-1)/r, the orbit of alpha^j under a -> a^p and a -> omega a
    is alpha^(c + d u) for c on the orbit of j under c -> p c mod d and u < r.
    """
    p, d = spec.p, (spec.q - 1) // r
    members = []
    for j in hits:
        c = j
        while True:
            members.append(c)
            c = c * p % d
            if c == j:
                break
    exp, steps = tables.exp, [d * u for u in range(r)]
    found = [exp[c + du] for c in members for du in steps]
    if zero_passes:
        found.append(0)
    return sorted(found)


def ascending_modulus(p, k):
    """The first monic irreducible of degree k over F_p in ascending encoding order, every candidate tried.

    It checks which candidates fields._find_modulus skips, so it reuses the
    package's irreducibility test and digit reading.
    """
    for enc in range(p**k):
        f = _coefficients(enc, p, k) + (1,)
        if _is_irreducible(f, p):
            return f
