"""Permutation tests for binomials x^n (x^((q-1)/r) + a), three ways.

Routes:
  * bruteforce: evaluate the map on all of F_q and check bijectivity, at
    every x at once as r shifted bitmasks of logarithms, for one a per
    orbit of a -> a^p and a -> omega a (omega^r = 1), whose members all
    pass or all fail, plus a = 0;
  * wanlidl: the index-form criterion on x^r_low h(x^(q-1)/m) + b, with the
    binomial's form read off the cell; it decides a = 0 from its fixed
    logarithms and tests every other a at once, on (q-1)-bit masks of Zech
    residues indexed by log a;
  * criterion: the character conditions specific to r = 2 and r = 3, on
    FieldElement arithmetic, with a^2 for a = alpha^j read off the exp
    table as alpha^(2j); it never reads zech, which the other two read.

ROUTES names them; each returns the encodings of its a, ascending.
enumerate_perm_binomials, which dispatches through ROUTES, decodes them,
or with encoded=True hands them on as they are: callers that want
encodings pass it, and never decode an element only to encode it again.

The criterion and brute force test a = 0 and one a per orbit of a -> a^p
and a -> omega a, the leaders of the field's orbit table at r, read off
its tables by one walk of j -> p j mod d = (q-1)/r on first use and kept
beside them; the table expands each passing leader to its orbit. Wan-Lidl
tests every a, so counts.class_failures checks its sets for that symmetry
with split_orbits, which expands a split orbit from the same table.

The routes answer only on admissible cells (q, n, r), the ones the paper
counts: q, n and r are integers, r is 2 or 3, q is odd for r = 2 and
q = 1 mod 3 for r = 3, 1 <= n <= q - 1, and gcd(n, (q-1)/r) = 1.
check_cell is the one place that rule is written; check_field, on the test
field_admits, is its field half.

All three agree on every field this package enumerates; the test suite
checks that, and holds brute force and Wan-Lidl to table-free oracles,
which is what makes the fast criterion trustworthy. No function here
tests an arbitrary polynomial: every route reads the binomial's cell.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from math import gcd
from operator import mod
from typing import NamedTuple

from .characters import cubic_char, cubic_roots_of_unity, quadratic_char
from .errors import (
    BadFieldForCubicError,
    EvenCharacteristicError,
    GcdViolationError,
    OutOfRangeError,
    check_choice,
    check_integer,
    int_text,
)
from .fields import FieldElement, FieldSpec, FieldTables

_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # "0"/"1" text to 0/1 bytes, falsy and truthy for compress


def field_admits(q: int, r: int) -> bool:
    """Whether the counts cover F_q at r: q odd for r = 2, q = 1 mod 3 for r = 3."""
    return (r == 2 and q % 2 == 1) or (r == 3 and q % 3 == 1)


def check_field(q: int, r: int) -> None:
    """Raise unless q and r are integers, r is 2 or 3 and the counts cover F_q at r: the field half of check_cell."""
    check_integer("q", q)
    check_integer("r", r)
    if r not in (2, 3):
        raise OutOfRangeError(f"r must be 2 or 3, got {int_text(r)}")
    if not field_admits(q, r):
        if r == 2:
            raise EvenCharacteristicError(f"r = 2 needs odd q, got q = {int_text(q)}")
        raise BadFieldForCubicError(f"q = {int_text(q)} is not 1 mod 3")


def check_cell(q: int, n: int, r: int) -> None:
    """Raise unless (q, n, r) is an admissible cell.

    Works on q alone and never factors it, so it costs nothing at huge q.
    """
    check_field(q, r)
    check_integer("n", n)
    if not 1 <= n <= q - 1:
        raise OutOfRangeError(f"n must lie in [1, q-1], got {int_text(n)}")
    d = (q - 1) // r
    if gcd(n, d) != 1:
        raise GcdViolationError(f"gcd(n={int_text(n)}, (q-1)/{r}={int_text(d)}) != 1")


class _OrbitTable(NamedTuple):
    """The orbits of a -> a^p and a -> omega a (omega^r = 1) on F_q^*, read once off one field's tables.

    With d = (q-1)/r the orbit of alpha^j is alpha^(c p^t + d u) for c the
    least member of the orbit of j mod d under c -> p c mod d, t below its
    size s and u < r. A group (start, end, s r) of orbits of size s spans
    leaders[start:end] and, after the groups before it, their s r encodings
    each, ordered by u, then t, then leader, so that flags[start:end], one
    per orbit, repeated s r times flags every encoding of the group.
    """

    tables: FieldTables  # what it was read from: other tables, even of the same field, get a table of their own
    leaders: array
    groups: list[tuple[int, int, int]]
    encodings: array
    zech_rows: list  # brute force's, added on its first call: row t is zech[c - d t] at each leader c, NO_LOG read as 2(q-1)

    def union(self, flags, zero_passes: bool) -> list[int]:
        """The encodings, ascending, of the orbits whose flag is set, one flag per leader, and of a = 0 if it passes."""
        passing = b"".join([bytes(flags[start:end]) * width for start, end, width in self.groups])
        return [0] * zero_passes + sorted(compress(self.encodings, passing))

    def orbit(self, x: int) -> list[int]:
        """The encodings, ascending, of the orbit holding encodings[x]."""
        for start, end, width in self.groups:
            if x >= (end - start) * width:
                x -= (end - start) * width
                continue
            flags = bytearray(len(self.leaders))
            flags[start + x % (end - start)] = 1
            return self.union(flags, False)


def _orbit_table(spec: FieldSpec, tables: FieldTables, r: int) -> _OrbitTable:
    """spec's orbit table at r, read off tables by one orbit walk, on the first call with these tables."""
    table = spec._orbits.get(r)
    if table is None or table.tables is not tables:
        p, d, exp = spec.p, (spec.q - 1) // r, tables.exp
        if (p - 1) % d == 0:  # every c < d an orbit of its own, as on prime fields: the encodings are exp's own
            table = _OrbitTable(tables, array("l", range(d)), [(0, d, r)], exp, [])
        else:
            by_size: dict[int, list[int]] = {}
            seen = bytearray(d)
            for j in range(d):
                c, size = j, 0
                while not seen[c]:
                    seen[c] = 1
                    c = c * p % d
                    size += 1
                if size:
                    by_size.setdefault(size, []).append(j)
            leaders, groups, encodings = array("l"), [], array("l")
            for size, group in sorted(by_size.items()):
                groups.append((len(leaders), len(leaders) + len(group), size * r))
                leaders.extend(group)
                for u in range(r):
                    for p_t in (pow(p, t, d) for t in range(size)):
                        encodings.extend([exp[c * p_t % d + d * u] for c in group])
            table = _OrbitTable(tables, leaders, groups, encodings, [])
        spec._orbits[r] = table
    return table


def split_orbits(spec: FieldSpec, r: int, found: frozenset[int]) -> list[tuple[int, int, int]]:
    """(first member, members in found, orbit size) for each orbit that found only partly holds.

    The orbits are those of a -> a^p and a -> omega a (omega^r = 1), on
    logs a = alpha^j the maps j -> p j and j -> j + d, d = (q-1)/r. Every
    a-set is a union of them, so found must hold both images of each
    member; the orbit table expands a split orbit from any member.
    First means least encoding. a = 0 is an orbit of its own.
    """
    exp, log, _ = tables = spec.scan_tables()
    p, q1 = spec.p, spec.q - 1
    d = q1 // r
    split = [a for a in found if a and not (exp[(log[a] + d) % q1] in found and exp[log[a] * p % q1] in found)]
    table = _orbit_table(spec, tables, r) if split else None
    orbits = {tuple(table.orbit(table.encodings.index(a))) for a in split}
    return sorted((orbit[0], len(found.intersection(orbit)), len(orbit)) for orbit in orbits)


def _criterion_survivors(spec: FieldSpec, tables: FieldTables, n: int, r: int) -> list[int]:
    """All a passing the character test for r = 2 or r = 3, tested once per orbit.

    r = 2: chi(a^2 - 1) must equal (-1)^(n+1); chi(0) matches neither sign,
    so a = +-1 always fails.

    r = 3: with xi a primitive cube root of unity, a passes iff eta(c + a)
    is not None for c = 1, xi, xi^2 (a is none of -1, -xi, -xi^2) and none of
    the exponents of (xi+a)/(1+a), (1+a)/(xi^2+a), (xi^2+a)/(xi+a) is 2n mod 3.

    The test is exact, so its a-set is the permutation a-set, a union of
    orbits of a -> a^p and a -> omega a (omega^r = 1). It runs at a = 0 and
    at a = alpha^j for each leader j of the orbit table, as brute force
    does, and the table expands each passing j to its orbit. {-1, -xi,
    -xi^2} is itself such a union, so an excluded representative excludes
    its orbit.
    At r = 2 a leader's a^2 = alpha^(2j) is read off exp, decoded as a is,
    so no leader pays a product; a = 0 is squared as an ordinary element.
    """
    exp, decode, q1 = tables.exp, spec.decode, spec.q - 1
    orbits = _orbit_table(spec, tables, r)
    if r == 2:
        target = 1 if n % 2 == 1 else -1
        one = spec.one
        flags = [quadratic_char(spec, decode(exp[2 * j % q1]) - one) == target for j in orbits.leaders]
        zero_passes = quadratic_char(spec, spec.zero * spec.zero - one) == target
    else:
        one, xi, xi2 = cubic_roots_of_unity(spec)
        t = (2 * n) % 3

        def passes(a: FieldElement) -> bool:
            e1, e2, e3 = cubic_char(spec, xi + a), cubic_char(spec, one + a), cubic_char(spec, xi2 + a)
            return None not in (e1, e2, e3) and t not in ((e1 - e2) % 3, (e2 - e3) % 3, (e3 - e1) % 3)

        flags = [passes(decode(exp[j])) for j in orbits.leaders]
        zero_passes = passes(spec.zero)
    return orbits.union(flags, zero_passes)


def _minus_one_log(spec: FieldSpec) -> int:
    """log(-1) to base alpha: (q-1)/2 for odd p, 0 for p = 2; the one i where zech[i] is NO_LOG."""
    return (spec.q - 1) // 2 if spec.p != 2 else 0


def _brute_survivors(spec: FieldSpec, tables: FieldTables, n: int, r: int) -> list[int]:
    """All a for which the binomial permutes F_q, by evaluating it at every x, one a per orbit.

    Values are logarithms to base alpha; x = 0 maps to 0. At x = alpha^i
    with t = i mod r, x^d = alpha^(d t) as r d = q - 1, so log f(x) is
    n i + L_t with L_t = log(alpha^(d t) + a) = d t + zech[j - d t] at
    a = alpha^j. Mask t has bit -(n i + d t) mod (q-1) for each i = t mod r,
    twice over in 2(q-1) bits, so a right shift by zech[j - d t] rotates
    its low q - 1 bits onto -log f(x) on that coset (negating relabels the
    image, and makes the rotation a right shift). a passes iff the r
    shifted masks cover those bits. Where alpha^(d t) + a = 0, another
    root of f, the shift is 2(q-1), which empties the mask. Mask t is mask
    0 rotated by -(n + d) t, and mask 0's bits -n r m for m < d are the
    multiples of g = r gcd(n, d), as n m mod d runs over those of
    gcd(n, d): twice over, mask 0 is (2^(2(q-1)) - 1)/(2^g - 1).

    The a-set is a union of orbits of a -> a^p and a -> omega a with
    omega^r = 1: f_a(c x) = c^(n+d) f_(a c^-d)(x), and f_(a^p) is f_a
    conjugated by the Frobenius. On logs these are j -> p j and j -> j + d,
    so only the leaders j of the orbit table are evaluated, one j < d per
    orbit of j -> p j mod d (every j < d when p = 1 mod d, as on prime
    fields), and the table expands each passing j to its whole orbit. The
    r rows zech[j - d t] at the leaders, NO_LOG read as 2(q-1), are added
    to the table on the first call and read in place after. a = 0 is one
    more entry, shift 0 in every row: the monomial x^(n+d).
    """
    q1 = spec.q - 1
    d = q1 // r
    full = (1 << q1) - 1
    g = r * gcd(n, d)
    mask0 = ((1 << 2 * q1) - 1) // ((1 << g) - 1)
    masks = []
    for t in range(r):
        mask = (mask0 >> (n + d) * t % q1) & full
        masks.append(mask | mask << q1)
    orbits = _orbit_table(spec, tables, r)
    if not orbits.zech_rows:
        z = array("l", tables.zech)
        z[_minus_one_log(spec)] = 2 * q1
        # row t at j is zech[j - d t], read as zech[j + d u] with u = -t mod r; stored whole, in one assignment
        orbits.zech_rows[:] = [array("l", [z[j + d * (-t % r)] for j in orbits.leaders]) for t in range(r)]
    if r == 2:
        (m0, m1), (z0, z1) = masks, orbits.zech_rows
        flags = [(m0 >> s0 | m1 >> s1) & full == full for s0, s1 in zip(z0, z1)]
        zero_passes = (m0 | m1) & full == full
    else:
        (m0, m1, m2), (z0, z1, z2) = masks, orbits.zech_rows
        flags = [(m0 >> s0 | m1 >> s1 | m2 >> s2) & full == full for s0, s1, s2 in zip(z0, z1, z2)]
        zero_passes = (m0 | m1 | m2) & full == full
    return orbits.union(flags, zero_passes)


def _wan_lidl_survivors(spec: FieldSpec, tables: FieldTables, n: int, r: int) -> list[int]:
    """All a for which the binomial permutes F_q, by the index-form criterion, every a at once.

    The binomial's index form x^r_low h(x^s) is read off the cell, not
    derived from its coefficients: s = d = (q-1)/r, m = r, r_low = min(n, hi)
    for hi = n + d reduced into [1, q - 1], and h has a at y^j_a and 1 at
    y^j_1, j_a = (n - r_low)/s, j_1 = (hi - r_low)/s. Its gcd(r_low, s) is
    gcd(n, d) = 1, as hi = n mod d, which check_cell requires. The criterion
    holds for any m dividing q - 1, minimal or not (Zieve, Proc. AMS 137,
    2009, Lemma 2.1), so the form also decides a = 0, the monomial x^(n+d),
    whose minimal m is 1. On logarithms to base alpha with zeta = alpha^s,
    h(zeta^i) = zeta^(i j_a) (a + zeta^(i (j_1 - j_a))), so
    (x^r_low h(x^s))^s at x = alpha^i is alpha^(s (c_i + g_i)) with
    c_i = r_low i + s i j_a and g_i = log(a + zeta^(i (j_1 - j_a))). As
    q - 1 = s m, those m values are distinct iff the c_i + g_i are
    distinct mod m. At a = 0, g_i = s i (j_1 - j_a), so a = 0 is decided
    once. At a = alpha^la, g_i = la + z_i with z_i = zech[T_i - la] and
    T_i = s i (j_1 - j_a) mod (q - 1), one Zech lookup (NO_LOG: h vanishes
    at zeta^i), and the common la drops out: a passes iff no z_i is NO_LOG
    and the c_i + z_i are distinct mod m.

    That test runs on every la at once, as (q-1)-bit masks indexed by la.
    With Z(x) = zech[-x mod (q-1)], so that
    z_i = Z(la - T_i), let R_v have bit x set when Z(x) is not NO_LOG and
    Z(x) = v mod m, for v < m. Then c_i + z_i = v mod m iff bit la - T_i
    of R_((v - c_i) mod m) is set, that is bit la of that mask rotated
    left by T_i: step i's mask for the value v. Each step takes at most one
    value, so the m steps take m distinct values iff every v < m is taken
    by some step, and the a that pass are the bits of the AND over v of the
    OR over i of those masks: O(m^2) operations on big integers, not a
    Python step per a. Each R_v is read off one byte per Zech entry,
    zech mod m (m itself at the NO_LOG entry, which matches no v), by
    bytes.translate and int(_, 2); a rotation is a right shift of the
    doubled mask R_v | R_v << (q-1), kept to its low q - 1 bits at the end.
    """
    q1 = spec.q - 1
    s, m = q1 // r, r
    hi = (n + s - 1) % q1 + 1
    r_low = min(n, hi)
    j_a, j_1 = (n - r_low) // s, (hi - r_low) // s  # where a and 1 sit in h
    # (T_i, c_i mod m) for i = 0 .. m-1
    steps = [(s * i * (j_1 - j_a) % q1, (r_low * i + s * i * j_a) % m) for i in range(m)]
    exp, _, zech = tables
    # int(_, 2) reads string position q1 - 1 - x as bit x, and Z(x) = zech[(q1 - 1 - x) + 1] sits there
    residues = bytearray(map(mod, zech[1:] + zech[:1], repeat(m)))
    residues[_minus_one_log(spec) - 1] = m  # zech is NO_LOG where alpha^i = -1
    symbols = bytes(range(m + 1))
    doubled = []
    for v in range(m):
        r_v = int(residues.translate(bytes.maketrans(symbols, b"0" * v + b"1" + b"0" * (m - v))), 2)
        doubled.append(r_v | r_v << q1)
    passing = (1 << q1) - 1
    for v in range(m):
        taken = 0
        for t, c in steps:
            taken |= doubled[(v - c) % m] >> (q1 - t)
        passing &= taken
    flags = format(passing, f"0{q1}b")[::-1].encode().translate(_BIT_BYTES)  # flags[la]: bit la, as 0 or 1
    zero = [0] if len({(c + t) % m for t, c in steps}) == m else []
    return zero + sorted(compress(exp, flags))


# route(spec, tables, n, r) on an admissible cell; the CLI, the selftest and count --verify list them in this order
ROUTES = {"criterion": _criterion_survivors, "bruteforce": _brute_survivors, "wanlidl": _wan_lidl_survivors}


def enumerate_perm_binomials(
    spec: FieldSpec, n: int, r: int, method: str = "criterion", *, encoded: bool = False
) -> list[FieldElement] | list[int]:
    """All a in F_q (enumeration order) making x^n (x^((q-1)/r) + a) a permutation, by the route ROUTES[method].

    a = 0 is included; the binomial degenerates to the monomial
    x^(n + (q-1)/r), which every route tests as an ordinary a.
    encoded=True returns the route's ascending encodings as they are;
    callers that want encodings pass it rather than encode each element.
    """
    route = ROUTES[check_choice("method", method, ROUTES)]
    check_cell(spec.q, n, r)
    found = route(spec, spec.scan_tables(), n, r)
    return found if encoded else [spec.decode(a) for a in found]
