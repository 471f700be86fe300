"""Permutation routes against each other and against raw-integer brute force, and the oracles of reference.py against each other."""

import random
from array import array
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import permbinom.permtest as permtest
from permbinom.characters import cubic_char, cubic_roots_of_unity, quadratic_char
from permbinom.counts import closed_count_r2, closed_count_r3
from permbinom.errors import BadFieldForCubicError, EvenCharacteristicError, GcdViolationError, UnknownChoiceError
from permbinom.fields import NO_LOG, FieldElement, FieldSpec, FieldTables, make_field
from permbinom.permtest import enumerate_perm_binomials, field_admits
from permbinom.primes import prime_power_decompose, prime_powers_upto
from permbinom.sweep import valid_exponents
from reference import (
    binomial_polynomial,
    compute_index_form,
    criterion_encodings,
    evaluate_poly,
    is_permutation_bruteforce,
    orbit_leaders,
    orbit_union,
    wan_lidl_check,
)


def _raw_binomial_survivors(q, n, r):
    """Independent oracle: integer arithmetic only, prime q."""
    d = (q - 1) // r
    out = []
    for a in range(q):
        image = {(pow(x, n, q) * (pow(x, d, q) + a)) % q for x in range(q)}
        if len(image) == q:
            out.append(a)
    return out


def test_r3_criterion_finds_the_cube_roots_once(monkeypatch):
    calls = []
    real = permtest.cubic_roots_of_unity

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(permtest, "cubic_roots_of_unity", counted)
    found = enumerate_perm_binomials(make_field(73), 35, 3)
    assert [a.encode() for a in found] == [0, 2, 4, 16, 18, 21, 22, 30, 32, 33, 37, 45, 55, 57, 68, 71]
    assert len(calls) == 1


def test_criterion_tests_one_a_per_orbit(monkeypatch):
    calls = {"quadratic": 0, "cubic": 0}

    def counted(name, real):
        def wrapper(spec, el):
            calls[name] += 1
            return real(spec, el)

        return wrapper

    monkeypatch.setattr(permtest, "quadratic_char", counted("quadratic", permtest.quadratic_char))
    monkeypatch.setattr(permtest, "cubic_char", counted("cubic", permtest.cubic_char))
    # F_73, r = 2: p = 1 mod d = 36, so every j < d is its own orbit, plus a = 0
    enumerate_perm_binomials(make_field(73), 1, 2)
    assert calls["quadratic"] == 36 + 1
    # F_{2^12}, r = 3: 120 orbits of j -> 2 j mod 1365, plus a = 0, three characters each
    f4096 = make_field(2, 12)
    assert len(permtest._orbit_table(f4096, f4096.scan_tables(), 3).leaders) == len(orbit_leaders(2, 1365)) == 120
    enumerate_perm_binomials(make_field(2, 12), 1, 3)
    assert 0 < calls["cubic"] <= 3 * (120 + 1)


def test_binomial_polynomial_reduces_high_exponent():
    # n + (q-1)/r may exceed q-1; the reduced polynomial must be the same map
    spec = make_field(13)
    a = spec.element(4)
    poly = binomial_polynomial(spec, 12, 2, a)
    assert max(poly) <= 12
    for x in spec.elements():
        want = x**12 * (x**6 + a)
        assert evaluate_poly(spec, poly, x) == want


def test_is_permutation_bruteforce_basics():
    f7 = make_field(7)
    assert is_permutation_bruteforce(f7, {1: f7.one, 0: f7.element(3)})
    assert not is_permutation_bruteforce(f7, {3: f7.one})  # gcd(3, 6) = 3
    f5 = make_field(5)
    assert is_permutation_bruteforce(f5, {3: f5.one})  # gcd(3, 4) = 1


def test_index_form_of_paper_binomial():
    spec = make_field(73)
    form = compute_index_form(spec, binomial_polynomial(spec, 35, 3, spec.element(2)))
    assert form.r_low == 35
    assert form.m == 3
    assert [c.encode() for c in form.h] == [2, 1]
    assert form.b.encode() == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wan_lidl_matches_bruteforce_on_sparse_polys(data):
    spec = make_field(13)
    exps = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True))
    coeffs = data.draw(st.lists(st.integers(1, 12), min_size=len(exps), max_size=len(exps)))
    b = data.draw(st.integers(0, 12))
    poly = {e: spec.element(c) for e, c in zip(exps, coeffs)}
    poly[0] = spec.element(b)
    assert wan_lidl_check(spec, poly) == is_permutation_bruteforce(spec, poly)


@pytest.mark.parametrize("q,r", [(13, 2), (13, 3), (11, 2), (19, 3), (31, 3), (23, 2)])
def test_routes_match_raw_oracle(q, r):
    spec = make_field(q)
    d = (q - 1) // r
    for n in range(1, q):
        if gcd(n, d) != 1:
            continue
        want = _raw_binomial_survivors(q, n, r)
        for method in ("criterion", "bruteforce", "wanlidl"):
            got = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method=method)]
            assert got == want, (q, n, r, method)


@pytest.mark.parametrize("p,k,r", [(3, 2, 2), (5, 2, 2), (2, 2, 3), (3, 3, 2), (5, 2, 3), (2, 4, 3)])
def test_routes_agree_on_extension_fields(p, k, r):
    spec = make_field(p, k)
    q = p**k
    d = (q - 1) // r
    for n in range(1, q):
        if gcd(n, d) != 1:
            continue
        crit = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="criterion")]
        brute = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="bruteforce")]
        wl = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="wanlidl")]
        assert crit == brute == wl, (q, n, r)


def test_routes_agree_sampled_large_fields():
    # spot checks beyond the exhaustive range
    f121 = make_field(11, 2)
    f169 = make_field(13, 2)
    for spec, n, r in ((f121, 7, 2), (f169, 5, 3), (f169, 11, 2)):
        crit = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="criterion")]
        brute = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="bruteforce")]
        assert crit == brute


@pytest.mark.parametrize("p,k,r", [(13, 1, 2), (13, 1, 3), (5, 2, 2), (2, 4, 3), (7, 2, 3)])
def test_monomial_case_matches_gcd_rule(p, k, r):
    # a = 0 leaves the monomial x^(n + (q-1)/r), a permutation iff the
    # exponent is coprime to q - 1; every route must say so
    spec = make_field(p, k)
    q = p**k
    d = (q - 1) // r
    for n in range(1, q):
        if gcd(n, d) != 1:
            continue
        want = gcd(n + d, q - 1) == 1
        for method in ("criterion", "bruteforce", "wanlidl"):
            survivors = enumerate_perm_binomials(spec, n, r, method=method)
            assert (spec.zero in survivors) == want, (n, method)


def test_unknown_method_is_refused_before_the_tables_are_built():
    spec = FieldSpec(3, 5, make_field(3, 5).modulus)  # a fresh spec: make_field shares its cached one
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        enumerate_perm_binomials(spec, 1, 2, method="bogus")
    assert spec._tables is None


def test_enumerate_validations():
    f13 = make_field(13)
    with pytest.raises(ValueError):
        enumerate_perm_binomials(f13, 1, 5)
    with pytest.raises(ValueError):
        enumerate_perm_binomials(f13, 0, 2)
    with pytest.raises(ValueError):
        enumerate_perm_binomials(f13, 13, 2)
    with pytest.raises(GcdViolationError):
        enumerate_perm_binomials(f13, 2, 2)
    with pytest.raises(GcdViolationError):
        enumerate_perm_binomials(f13, 2, 3)
    with pytest.raises(EvenCharacteristicError):
        enumerate_perm_binomials(make_field(2, 3), 1, 2)
    with pytest.raises(BadFieldForCubicError):
        enumerate_perm_binomials(make_field(11), 1, 3)
    with pytest.raises(ValueError):
        enumerate_perm_binomials(f13, 1, 2, method="magic")


class _Int(int):
    """An int subclass, as IntEnum members are: integer-like, so accepted."""


f13 = make_field(13)
NON_INTEGER_CELLS = {
    "enumerate-n": lambda: enumerate_perm_binomials(f13, 1.0, 2),
    "enumerate-r": lambda: enumerate_perm_binomials(f13, 1, 2.0),
    "enumerate-n-str": lambda: enumerate_perm_binomials(f13, "1", 2),
    "enumerate-r-str": lambda: enumerate_perm_binomials(f13, 1, "2", method="bruteforce"),
    "closed_count_r2": lambda: closed_count_r2(13, 1.0),
    "closed_count_r3": lambda: closed_count_r3(7, 1, 1.0),
    "check_cell-q": lambda: permtest.check_cell(13.0, 1, 2),
    "check_field-q": lambda: permtest.check_field(7.0, 3),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_CELLS))
def test_a_non_integer_cell_is_refused_as_decode_refuses_5_5(name):
    with pytest.raises(UnknownChoiceError, match=r"^[qnr] must be an integer, got a (float|str)$"):
        NON_INTEGER_CELLS[name]()


def test_an_integer_like_cell_is_accepted():
    want = enumerate_perm_binomials(f13, 1, 2)
    assert enumerate_perm_binomials(f13, True, 2) == want
    assert enumerate_perm_binomials(f13, _Int(1), _Int(2)) == want
    assert closed_count_r2(_Int(13), True) == closed_count_r2(13, 1) == len(want)
    assert closed_count_r3(7, 1, _Int(1)) == closed_count_r3(7, 1, 1)


def _encoded_cells():
    """(spec, n, r): one n per class on every admissible (q, r) with q <= 128, then F_(2^6) and F_(2^8) at r = 3, F_(3^5) at r = 2."""
    cells = [
        (make_field(*prime_power_decompose(q)), n, r)
        for q in prime_powers_upto(128)
        for r in (2, 3)
        if field_admits(q, r)
        for n in _one_n_per_class(q, r)
    ]
    for p, k, r in ((2, 6, 3), (2, 8, 3), (3, 5, 2)):
        cells += [(make_field(p, k), n, r) for n in _one_n_per_class(p**k, r)]
    return cells


@pytest.mark.parametrize("method", list(permtest.ROUTES))
def test_encoded_returns_the_route_encodings_the_default_decodes(method):
    cells = _encoded_cells()
    for spec, n, r in cells:
        decoded = enumerate_perm_binomials(spec, n, r, method=method)
        got = enumerate_perm_binomials(spec, n, r, method=method, encoded=True)
        assert all(type(a) is FieldElement for a in decoded)
        assert all(type(a) is int for a in got)
        assert got == sorted(set(got)) == [a.encode() for a in decoded], (spec.q, n, r)
    assert len(cells) == 115


def test_encoded_is_keyword_only():
    # method stays the fourth positional argument, which the benchmark's tracer reads
    with pytest.raises(TypeError):
        enumerate_perm_binomials(f13, 1, 2, "criterion", True)


def _bitmask(positions, width):
    buf = bytearray((width + 7) >> 3)
    for e in positions:
        buf[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(buf, "little")


def _unreduced_brute_encodings(spec, n, r):
    """Brute force over every a = alpha^j, no symmetry: the log walk the orbit version reduces.

    Row t is zech rotated by d t; mask t has bit -(n i + d t) mod (q-1)
    for each i = t mod r, twice over; a passes iff the r masks, each
    shifted right by its row's entry, cover the low q - 1 bits. a = 0 is
    one appended entry with shift 0.
    """
    exp, _, zech = spec.scan_tables()
    q1 = spec.q - 1
    d = q1 // r
    full = (1 << q1) - 1
    z = zech.tolist()
    z[z.index(NO_LOG)] = 2 * q1
    rows, masks = [], []
    for t in range(r):
        dt = d * t
        rows.append(z[q1 - dt :] + z[: q1 - dt] + [0])
        mask = _bitmask((-(n * i + dt) % q1 for i in range(t, q1, r)), q1)
        masks.append(mask | mask << q1)
    encs = exp.tolist() + [0]
    if r == 2:
        (m0, m1), (z0, z1) = masks, rows
        found = [e for e, s0, s1 in zip(encs, z0, z1) if (m0 >> s0 | m1 >> s1) & full == full]
    else:
        (m0, m1, m2), (z0, z1, z2) = masks, rows
        found = [e for e, s0, s1, s2 in zip(encs, z0, z1, z2) if (m0 >> s0 | m1 >> s1 | m2 >> s2) & full == full]
    return sorted(found)


def test_orbit_brute_force_matches_the_unreduced_walk_up_to_343():
    cells = 0
    for q in prime_powers_upto(343):
        spec = make_field(*prime_power_decompose(q))
        for r in (2, 3):
            if not field_admits(q, r):
                continue
            for n in valid_exponents(q, r):
                got = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="bruteforce")]
                assert got == _unreduced_brute_encodings(spec, n, r), f"first differing cell (q, n, r) = {(q, n, r)}"
                cells += 1
    assert cells == 9000


def _all_a_criterion_encodings(spec, n, r):
    """The character test at every a in F_q, no symmetry: the scan the orbit version reduces."""
    if r == 2:
        target = 1 if n % 2 == 1 else -1
        return [a.encode() for a in spec.elements() if quadratic_char(spec, a * a - 1) == target]
    one, xi, xi2 = cubic_roots_of_unity(spec)
    excluded = {-one, -xi, -xi2}
    t = (2 * n) % 3
    out = []
    for a in spec.elements():
        if a in excluded:
            continue
        e1, e2, e3 = (cubic_char(spec, c + a) for c in (xi, one, xi2))
        if t not in ((e1 - e2) % 3, (e2 - e3) % 3, (e3 - e1) % 3):
            out.append(a.encode())
    return out


def _one_n_per_class(q, r):
    """The least valid n of each class n mod r, which fixes the a-set."""
    firsts = {}
    for n in valid_exponents(q, r):
        firsts.setdefault(n % r, n)
    return sorted(firsts.values())


def test_orbit_criterion_matches_the_all_a_scan():
    cells = [
        (make_field(*prime_power_decompose(q)), r)
        for q in prime_powers_upto(343)
        for r in (2, 3)
        if field_admits(q, r)
    ]
    cells += [(make_field(2, 12), 3), (make_field(7, 4), 2), (make_field(7, 4), 3), (make_field(5, 5), 2)]
    for spec, r in cells:
        for n in _one_n_per_class(spec.q, r):
            got = [a.encode() for a in enumerate_perm_binomials(spec, n, r, method="criterion")]
            assert got == _all_a_criterion_encodings(spec, n, r), f"first differing cell (q, n, r) = {(spec.q, n, r)}"


def test_criterion_matches_the_table_free_oracle_up_to_343():
    cells = 0
    for q in prime_powers_upto(343):
        spec = make_field(*prime_power_decompose(q))
        for r in (2, 3):
            if not field_admits(q, r):
                continue
            for n in _one_n_per_class(q, r):
                got = enumerate_perm_binomials(spec, n, r, method="criterion", encoded=True)
                assert got == criterion_encodings(spec, n, r), f"first differing cell (q, n, r) = {(q, n, r)}"
                cells += 1
    assert cells == 229


def test_the_orbit_table_matches_the_old_walk_up_to_q_4096():
    # the logs 0 .. q - 2 stand in for exp, so each orbit reads as its logs, and no field builds its tables
    rng = random.Random(0)
    blocks = 0
    for q in prime_powers_upto(1 << 12):
        p, k = prime_power_decompose(q)
        twin = FieldSpec(p, k, make_field(p, k).modulus)
        logs = FieldTables(array("l", range(q - 1)), None, None)
        for r in (2, 3):
            if not field_admits(q, r):
                continue
            d = (q - 1) // r
            table = permtest._orbit_table(twin, logs, r)
            leaders = orbit_leaders(p, d)
            assert sorted(table.leaders) == list(leaders), (q, r)
            if (p - 1) % d:  # orbits longer than r, each held to the walk; else every c is an orbit of its own
                for j in table.leaders:
                    assert table.orbit(table.encodings.index(j)) == orbit_union(twin, logs, r, [j], False), (q, r, j)
            else:
                assert table.groups == [(0, d, r)], (q, r)
            for zero_passes in (False, True):
                flags = [rng.random() < 0.5 for _ in table.leaders]
                hits = [j for j, flag in zip(table.leaders, flags) if flag]
                assert table.union(flags, zero_passes) == orbit_union(twin, logs, r, hits, zero_passes), (q, r)
            blocks += 1
    assert blocks == 895
