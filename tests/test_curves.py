"""Point counts, the kappa table and the trace recurrence."""

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import permbinom.curves as curves
from permbinom.curves import (
    char2_cubic_sum,
    compute_kappa,
    count_points_extension,
    count_points_prime,
    pi_trace,
    point_count_residue,
)
from permbinom.errors import (
    CrossCheckFailedError,
    EvenCharacteristicError,
    EvenPrimeError,
    NonPrimeError,
    SmallPrimeError,
    UnsupportedPrimeError,
)
from permbinom.fields import make_field
from permbinom.primes import is_prime


def _count_by_double_loop(p, a4, a6):
    affine = sum(
        1
        for x in range(p)
        for y in range(p)
        if (y * y - x * x * x - a4 * x - a6) % p == 0
    )
    return affine + 1  # point at infinity


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_count_points_prime_against_double_loop(p):
    for a4 in range(p):
        for a6 in range(p):
            assert count_points_prime(p, a4, a6) == _count_by_double_loop(p, a4, a6)


def test_count_points_prime_validation():
    with pytest.raises(EvenPrimeError):
        count_points_prime(2, 0, 1)
    with pytest.raises(NonPrimeError):
        count_points_prime(9, 0, 1)


def test_point_count_residue_congruence():
    for p in (5, 7, 11, 13, 17):
        for a4 in range(p):
            for a6 in range(p):
                residue = point_count_residue(p, a4, a6)
                assert 0 <= residue < p
                assert (count_points_prime(p, a4, a6) - p - 1 - residue) % p == 0


def test_point_count_residue_validation():
    with pytest.raises(EvenPrimeError):
        point_count_residue(2, 0, 1)
    with pytest.raises(SmallPrimeError):
        point_count_residue(3, 0, 1)
    with pytest.raises(NonPrimeError, match="^9 is not prime$"):
        point_count_residue(9, 0, 1)


def test_kappa_pins():
    assert compute_kappa(7).kappa == 1
    assert compute_kappa(13).kappa == -5
    assert compute_kappa(73).kappa == 7
    assert compute_kappa(2).kappa == 0
    assert compute_kappa(5).kappa == 0  # p = 2 mod 3 is supersingular
    assert compute_kappa(19).kappa == 7  # |E(F_19)| = 27


def test_kappa_record_consistency():
    for p in (7, 13, 19, 31, 37, 43, 61, 73, 97, 103):
        rec = compute_kappa(p)
        assert rec.kappa % p == rec.residue
        assert rec.curve_count == p + 1 + rec.kappa
        assert rec.kappa**2 <= 4 * p


def _kappa_by_residue_window(p):
    """kappa_p from the theory alone: 0 for p = 2 mod 3, else the one class member with kappa^2 <= 4p."""
    if p % 3 == 2:
        return 0
    residue = -comb((p - 1) // 2, (p - 1) // 3) * pow(pow(4, (p - 1) // 6, p), p - 2, p) % p
    (kappa,) = [c for c in (residue, residue - p) if c * c <= 4 * p]
    return kappa


def test_kappa_from_the_count_matches_the_residue_window():
    primes = [p for p in range(2, 3000) if is_prime(p) and p != 3]
    assert len(primes) == 429
    assert [compute_kappa(p).kappa for p in primes] == [_kappa_by_residue_window(p) for p in primes]


@pytest.mark.parametrize("p", [2, 5, 7, 13, 73])
@pytest.mark.parametrize("off", [-1, 1])
def test_kappa_refuses_a_point_count_off_by_one(p, off, monkeypatch):
    name = "_char2_model_count" if p == 2 else "count_points_prime"
    real = getattr(curves, name)
    monkeypatch.setattr(curves, name, lambda *args: real(*args) + off)
    compute_kappa.cache_clear()
    try:
        with pytest.raises(CrossCheckFailedError):
            compute_kappa(p)
    finally:
        compute_kappa.cache_clear()


def test_kappa_validation():
    with pytest.raises(UnsupportedPrimeError):
        compute_kappa(3)
    with pytest.raises(NonPrimeError):
        compute_kappa(15)


@settings(max_examples=60, deadline=None)
@given(st.integers(5, 400))
def test_kappa_hasse_bound(p):
    if not is_prime(p):
        return
    assert compute_kappa(p).kappa ** 2 <= 4 * p


def _trace_by_recurrence(p, j_max):
    kappa = compute_kappa(p).kappa
    seq = [2, -kappa]
    while len(seq) <= j_max:
        seq.append(-kappa * seq[-1] - p * seq[-2])
    return seq


def test_trace_recurrence_oracle():
    for p in (2, 5, 7, 13, 73, 199):
        assert [pi_trace(p, j) for j in range(301)] == _trace_by_recurrence(p, 300), p


def test_trace_at_j_2000_matches_the_recurrence():
    for p in (7, 73):
        assert pi_trace(p, 2000) == _trace_by_recurrence(p, 2000)[2000]


def test_trace_identities_at_large_j():
    p, j = 199, 15000
    kappa = compute_kappa(p).kappa
    s_j, s_j1 = pi_trace(p, j), pi_trace(p, j + 1)
    assert pi_trace(p, 2 * j) == s_j**2 - 2 * p**j
    assert pi_trace(p, 2 * j + 1) == s_j * s_j1 + kappa * p**j
    # s_(a+b) = s_a s_b - p^b s_(a-b), a product rule the doubling never uses
    a, b = 15000, 7001
    assert pi_trace(p, a + b) == s_j * pi_trace(p, b) - p**b * pi_trace(p, a - b)


def test_trace_pins():
    assert pi_trace(73, 1) == -7
    assert pi_trace(73, 2) == -97
    assert pi_trace(2, 2) == -4
    with pytest.raises(ValueError):
        pi_trace(7, -1)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([7, 13, 73]), st.integers(0, 150))
def test_trace_hasse_bound(p, j):
    assert pi_trace(p, j) ** 2 <= 4 * p**j


def test_trace_sequence_wrapper():
    prefix = [pi_trace(73, j) for j in range(4)]
    assert prefix == [2, -7, -97, 1190]
    assert prefix[2] == pi_trace(73, 2)


@pytest.mark.parametrize("p,j", [(7, 1), (7, 2), (13, 1), (13, 2), (19, 2)])
def test_extension_count_matches_trace(p, j):
    spec = make_field(p, j)
    count = count_points_extension(spec, spec.zero, spec.element(4).inverse())
    assert count == p**j + 1 - pi_trace(p, j)


def test_extension_count_rejects_char2():
    spec = make_field(2, 2)
    with pytest.raises(EvenCharacteristicError):
        count_points_extension(spec, spec.zero, spec.one)


def test_extension_count_general_curve():
    # independent of the 1/4 special case: brute double loop over F_9
    spec = make_field(3, 2)
    a4, a6 = spec.element(1), spec.element(2)
    affine = sum(
        1
        for x in spec.elements()
        for y in spec.elements()
        if y * y == x * x * x + a4 * x + a6
    )
    assert count_points_extension(spec, a4, a6) == affine + 1


def test_char2_cubic_sum_formula():
    for k in (1, 2, 3, 4):
        assert char2_cubic_sum(k) == -2 + (-2) ** (k + 1)
