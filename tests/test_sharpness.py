"""Sharpness probe: exact deviation enclosures and convergent hunting."""

import math
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from permbinom import cli, sharpness
from permbinom.counts import epsilons
from permbinom.curves import compute_kappa, pi_trace
from permbinom.errors import BadFieldForCubicError, NonPrimeError, ProbeConfigError, UnsupportedPrimeError
from permbinom.primes import is_prime


def test_even_k_deviation_is_exact():
    # k even makes p^(k/2) an integer, so the enclosure collapses.
    lo, hi = sharpness.deviation_bounds(73, 2, 35)
    assert lo == hi == Fraction(-89, 73)


def valuation(x, p):
    v = 0
    while x % p == 0:
        x, v = x // p, v + 1
    return v


@pytest.mark.parametrize("p", [5, 7, 11, 13, 73])
def test_even_k_deviation_is_reduced_by_valuation(p):
    # the gcd-free reduction must give the terms Fraction's own gcd gives
    seen = set()
    for n in range(1, 10):
        for k in range(2, 201, 2):
            e1, e2 = epsilons(p**k, n)
            numerator = 2 * pi_trace(p, k) + 3 * (e1 + e2) + 10
            want = Fraction(numerator, 2 * p ** (k // 2))
            lo, hi = sharpness.deviation_bounds(p, k, n)
            assert type(lo) is Fraction and lo is hi, (k, n)
            assert (lo.numerator, lo.denominator) == (want.numerator, want.denominator), (k, n)
            assert hash(lo) == hash(want) and lo == want
            seen.add((numerator % 2 == 0, min(valuation(numerator, p), 2)))
    assert (True, 0) in seen  # N even; N is odd too, but never for p = 1 mod 9
    assert ((False, 0) in seen) is (p % 9 != 1)
    if p == 7:  # p | N and p^2 | N, with N even
        assert valuation(2 * pi_trace(7, 6) + 3 * sum(epsilons(7**6, 3)) + 10, 7) == 1
        assert valuation(2 * pi_trace(7, 42) + 3 * sum(epsilons(7**42, 3)) + 10, 7) == 2
        assert {(True, 1), (True, 2)} <= seen


def test_odd_k_bracket_is_tight_and_correct():
    # d_1 = 1/sqrt(73) for this (p, n): numerator 2*(-7) + 3*2 + 10 = 2.
    lo, hi = sharpness.deviation_bounds(73, 1, 35)
    assert 0 < lo <= hi
    assert lo * lo < Fraction(1, 73) < hi * hi
    assert hi - lo < Fraction(1, 10**25)


def reference_bounds(p, k, n):
    """The odd-k enclosure from one isqrt of 4 p^k 10^(2 DIGITS), reduced by Fraction."""
    numerator = 2 * pi_trace(p, k) + 3 * sum(epsilons(pow(p, k, 9), n)) + 10
    scale = 10**sharpness.DIGITS
    w = math.isqrt(4 * p**k * scale * scale)
    ends = Fraction(numerator * scale, w + 1), Fraction(numerator * scale, w)
    return ends if numerator > 0 else ends[::-1]


def terms(pair):
    return [(end.numerator, end.denominator) for end in pair]


@pytest.fixture
def empty_roots(monkeypatch):
    """An empty root cache, so each test grows its roots from nothing."""
    roots = type(sharpness._ROOTS)()
    monkeypatch.setattr(sharpness, "_ROOTS", roots)
    return roots


@pytest.mark.parametrize("guard_bits", [sharpness.GUARD_BITS, 0])
def test_odd_k_enclosure_matches_one_isqrt_per_k(empty_roots, monkeypatch, guard_bits):
    # with no guard bits the cached root is short enough that x >> t often
    # falls one below w, so the exact (w + 1)^2 test decides many of these
    monkeypatch.setattr(sharpness, "GUARD_BITS", guard_bits)
    scale = 10**sharpness.DIGITS
    corrected = set()
    for p in (5, 7, 11, 13, 73, 199, 3001):
        for k in range(1, 402, 2):
            n = k % 9 + 1
            assert terms(sharpness.deviation_bounds(p, k, n)) == terms(reference_bounds(p, k, n)), (p, k)
            power = p ** (k // 2)
            t = power.bit_length() + guard_bits
            estimate = power * math.isqrt(4 * p * scale * scale << 2 * t) >> t
            corrected.add(math.isqrt(4 * p**k * scale * scale) - estimate)
    assert corrected == ({0, 1} if guard_bits == 0 else {0})


@pytest.mark.parametrize("guard_bits", [sharpness.GUARD_BITS, 0])
@pytest.mark.parametrize("p,n", [(73, 35), (199, 11)])
def test_probe_findings_match_one_isqrt_per_k(empty_roots, monkeypatch, guard_bits, p, n):
    monkeypatch.setattr(sharpness, "GUARD_BITS", guard_bits)
    findings = sharpness.sharpness_probe(p, n, k_max=30_000).findings
    odd = [f for f in findings if f.k % 2]
    assert len(odd) >= 10 and max(f.k for f in odd) > 1000
    for f in odd:
        assert terms((f.deviation_lo, f.deviation_hi)) == terms(reference_bounds(p, f.k, n)), f.k


ORDINARY_PRIMES_300 = [p for p in range(7, 10_000) if p % 3 == 1 and is_prime(p)][:300]


def test_root_cache_keeps_at_most_its_cap(empty_roots):
    for p in ORDINARY_PRIMES_300:
        probe = sharpness.sharpness_probe(p, 1, depth=5, k_max=9)
        assert any(f.k % 2 for f in probe.findings), p
        assert (p, sharpness.DIGITS) == next(reversed(empty_roots))  # most recently used last
        assert len(empty_roots) <= sharpness.ROOT_CACHE_PRIMES
    assert len(ORDINARY_PRIMES_300) == 300
    assert list(empty_roots) == [(p, sharpness.DIGITS) for p in ORDINARY_PRIMES_300[-sharpness.ROOT_CACHE_PRIMES:]]


def test_root_cached_under_one_digits_is_not_read_under_another(empty_roots, monkeypatch):
    want = {}
    for digits in (50, 3, 120):
        monkeypatch.setattr(sharpness, "DIGITS", digits)
        want[digits] = [terms(reference_bounds(73, k, 1)) for k in (1, 101, 1001)]
    for digits in (50, 3, 120, 50, 3):  # each root grown under one DIGITS, then asked for under the others
        monkeypatch.setattr(sharpness, "DIGITS", digits)
        got = [terms(sharpness.deviation_bounds(73, k, 1)) for k in (1, 101, 1001)]
        assert got == want[digits], digits
    assert set(empty_roots) == {(73, 50), (73, 3), (73, 120)}


@pytest.mark.parametrize("k,n", [(2, 2), (3, 1)])
def test_a_zero_numerator_gives_zero_at_either_parity(monkeypatch, k, n):
    # 3 (e1 + e2) + 10 = 16 at these cells, so s_k = -8 zeroes N = 2 s_k + 16
    assert sum(epsilons(7**k, n)) == 2
    monkeypatch.setattr(sharpness, "pi_trace", lambda p, j: -8)
    lo, hi = sharpness.deviation_bounds(7, k, n)
    assert type(lo) is type(hi) is Fraction
    assert (lo, hi) == (0, 0) and lo.denominator == hi.denominator == 1  # 0/1, in lowest terms


def test_no_small_cell_has_a_zero_numerator():
    # why the zero test above patches pi_trace
    for p in filter(is_prime, range(5, 400)):
        for k in range(1, 40):
            for n in range(1, 10):
                assert 2 * pi_trace(p, k) + 3 * sum(epsilons(pow(p, k, 9), n)) + 10 != 0, (p, k, n)


def test_deviation_tracks_frobenius_angle():
    """d_k = 2 cos(k theta) + O(p^(-k/2)), constant at most 8."""
    p, kappa = 7, 1
    with mp.workdps(80):
        theta = mp.atan2(mp.sqrt(mpf(4 * p - kappa * kappa)) / 2, mpf(-kappa) / 2)
        for n in (1, 3):
            for k in range(1, 41):
                lo, hi = sharpness.deviation_bounds(p, k, n)
                mid = (lo + hi) / 2
                d = mpf(mid.numerator) / mpf(mid.denominator)
                gap = abs(d - 2 * mp.cos(k * theta))
                assert gap <= 8 * mpf(p) ** (mpf(-k) / 2) + mpf(10) ** -20


@pytest.mark.parametrize("k", range(1, 13))
def test_admissible_exponent_matches_gcd(k):
    expected = math.gcd(35, (73**k - 1) // 3) == 1
    assert sharpness.admissible_exponent(35, 73, k) is expected


def test_probe_finds_the_known_witnesses():
    probe = sharpness.sharpness_probe(73, 35)
    by_k = {f.k: f for f in probe.findings}
    assert 1217 in by_k and 1578 in by_k
    # k = 1217: count within a whisker of the refined upper bound, n valid.
    high = by_k[1217]
    assert high.deviation_lo > Fraction(1999998451823, 10**12)
    assert high.gcd_ok is True
    # k = 1578: nearly touches the lower bound, but n is inadmissible there.
    low = by_k[1578]
    assert low.deviation_hi < Fraction(-199999906282, 10**11)
    assert low.gcd_ok is False
    assert sharpness.admissible_exponent(35, 73, 1578) is False
    ks = [f.k for f in probe.findings]
    assert ks == sorted(ks)


def test_probe_is_deterministic():
    a = sharpness.sharpness_probe(73, 35)
    b = sharpness.sharpness_probe(73, 35)
    assert a == b


def test_probe_convergents_satisfy_the_convergent_inequality():
    probe = sharpness.sharpness_probe(73, 35)
    assert abs(float(probe.theta) - 1.9928601255784502) < 1e-12
    with mp.workdps(240):
        theta = mp.atan2(mp.sqrt(mpf(4 * 73 - 49)) / 2, mpf(-7) / 2)
        for x, table in (
            (theta / (2 * mp.pi), probe.convergents_two_pi),
            (theta / mp.pi, probe.convergents_pi),
        ):
            assert table
            for m, den in table:
                assert abs(x - mpf(m) / den) < mpf(1) / (mpf(den) * den)


def test_probe_keeps_the_callers_precision():
    reference = sharpness.sharpness_probe(7, 1, k_max=60)
    saved = mp.dps
    try:
        mp.dps = 23
        probe = sharpness.sharpness_probe(7, 1, k_max=60)
        assert mp.dps == 23
    finally:
        mp.dps = saved
    assert probe == reference  # the probe picks its own precision


def test_probe_k_max_caps_findings_but_not_tables():
    probe = sharpness.sharpness_probe(73, 35, k_max=500)
    assert max(f.k for f in probe.findings) <= 500
    dens = [den for _, den in probe.convergents_two_pi + probe.convergents_pi]
    assert any(den > 500 for den in dens)


def test_supersingular_branch_reports_even_k_only():
    # p = 5 = 2 mod 3: theta is exactly pi/2, findings at even k.
    probe = sharpness.sharpness_probe(5, 1)
    assert probe.theta == "pi/2"
    assert probe.kappa == 0
    assert probe.convergents_two_pi == () and probe.convergents_pi == ()
    assert all(f.k % 2 == 0 for f in probe.findings)
    assert probe.findings[0].k == 2
    assert sharpness.deviation_bounds(5, 2, 1) == (Fraction(-2, 5), Fraction(-2, 5))
    assert probe.findings[0].deviation_lo == Fraction(-2, 5)


@pytest.fixture
def no_kappa(monkeypatch):
    """Fail the test if the probe starts work: its first step is compute_kappa."""

    def refuse(p):
        raise AssertionError(f"the probe computed kappa({p}) for input it should refuse")

    monkeypatch.setattr(sharpness, "compute_kappa", refuse)


@pytest.mark.parametrize("p", [2, 3, 4, 1, -7])
def test_probe_rejects_tiny_characteristic(no_kappa, p):
    with pytest.raises(UnsupportedPrimeError, match=f"^probe needs p >= 5, got {p}$"):
        sharpness.sharpness_probe(p, 1)


@pytest.mark.parametrize(
    "kwargs,name",
    [({"n": 0}, "n"), ({"n": -3}, "n"), ({"depth": 0}, "depth"), ({"depth": -1}, "depth"), ({"k_max": 0}, "k_max")],
)
def test_probe_refuses_non_positive_inputs_before_any_work(no_kappa, kwargs, name):
    args = {"p": 73, "n": 5, **kwargs}
    with pytest.raises(ProbeConfigError, match=f"^{name} must be at least 1"):
        sharpness.sharpness_probe(**args)


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if deviation_bounds or admissible_exponent starts work."""

    def refuse(*args):
        raise AssertionError(f"work started on {args}")

    for name in ("epsilons", "pi_trace", "factorize"):
        monkeypatch.setattr(sharpness, name, refuse)


@pytest.mark.parametrize(
    "p,k,n,error,message",
    [
        (7, 0, 1, ProbeConfigError, "^k must be at least 1, got 0"),
        (7, -1, 1, ProbeConfigError, "^k must be at least 1, got -1"),
        (7, 2, 0, ProbeConfigError, "^n must be at least 1, got 0"),
        (7, 2, -4, ProbeConfigError, "^n must be at least 1, got -4"),
        (2, 2, 1, UnsupportedPrimeError, "^probe needs p >= 5, got 2"),
        (3, 2, 1, UnsupportedPrimeError, "^probe needs p >= 5, got 3"),
        (-7, 2, 1, UnsupportedPrimeError, "^probe needs p >= 5, got -7"),
    ],
)
def test_deviation_and_admissibility_refuse_bad_input_before_any_work(no_work, p, k, n, error, message):
    with pytest.raises(error, match=message):
        sharpness.deviation_bounds(p, k, n)
    with pytest.raises(error, match=message):
        sharpness.admissible_exponent(n, p, k)


def test_admissible_exponent_refuses_n_zero_with_a_typed_error():
    with pytest.raises(ProbeConfigError, match="^n must be at least 1, got 0"):
        sharpness.admissible_exponent(0, 7, 3)


@pytest.mark.parametrize(
    "n,p,k,error,message",
    [
        (1, 15, 2, NonPrimeError, "^15 is not prime$"),
        (2, 5, 1, BadFieldForCubicError, "^q = 5\\^1 is not 1 mod 3$"),  # (5 - 1)/3 is not an integer
        (1, 11, 10**30 + 1, BadFieldForCubicError, "^q = 11\\^1000000000000000000000000000001 is not 1 mod 3$"),
    ],
)
def test_admissible_exponent_refuses_a_field_outside_its_domain(no_work, n, p, k, error, message):
    with pytest.raises(error, match=message):
        sharpness.admissible_exponent(n, p, k)


def test_cli_sharpness_refuses_convergents_too_long_to_print(capsys):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)  # the least limit the interpreter accepts
        assert cli.main(["sharpness", "--p", "73", "--n", "35", "--depth", "1400", "--k-max", "2"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: the convergents at depth 1400 may have more than 640 digits, the interpreter's int-to-str limit\n"
        assert cli.main(["sharpness", "--p", "73", "--n", "35", "--depth", "100", "--k-max", "2", "--format", "text"]) == 0
        assert capsys.readouterr().out.startswith("p=73 n=35 kappa=7 theta=")
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("flags", [["--n", "5", "--depth", "-1"], ["--n", "0"], ["--n", "5", "--k-max", "0"]])
def test_cli_sharpness_refuses_non_positive_inputs(no_kappa, flags, capsys):
    assert cli.main(["sharpness", "--p", "73", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "args,kwargs",
    [((73, 35), {}), ((5, 1), {}), ((7, 1), {"k_max": 60}), ((7, 1), {"k_max": 60, "digits": 3})],
)
def test_deviation_is_the_truncated_midpoint(args, kwargs, monkeypatch):
    # DIGITS = 3 leaves brackets wide enough that their ends truncate apart
    kwargs = dict(kwargs)
    digits = kwargs.pop("digits", None)
    if digits is not None:
        monkeypatch.setattr(sharpness, "DIGITS", digits)
    probe = sharpness.sharpness_probe(*args, **kwargs)
    assert probe.findings
    for f in probe.findings:
        assert f.deviation == sharpness.decimal_string((f.deviation_lo + f.deviation_hi) / 2), f.k
    apart = [f.k for f in probe.findings if sharpness.decimal_string(f.deviation_lo) != sharpness.decimal_string(f.deviation_hi)]
    assert bool(apart) is (digits is not None)  # the unreduced midpoint branch runs only at DIGITS = 3


def test_decimal_string_rendering(monkeypatch):
    s = sharpness.decimal_string(Fraction(-89, 73))
    assert s.startswith("-1.21917808219")
    assert len(s.split(".")[1]) == sharpness.PLACES == 42
    monkeypatch.setattr(sharpness, "PLACES", 2)
    assert sharpness.decimal_string(Fraction(1, 4)) == "0.25"
    # Truncation toward zero, not rounding.
    monkeypatch.setattr(sharpness, "PLACES", 3)
    assert sharpness.decimal_string(Fraction(2, 3)) == "0.666"
    assert sharpness.decimal_string(Fraction(-1, 3)) == "-0.333"


def mpmath_angle(p, kappa, depth):
    """The probe's former mpmath route: theta_p, nstr to 40 digits, and convergents at 60 + 6 depth digits."""

    def convergents(x):
        out, (num1, num0), (den1, den0) = [], (1, 0), (0, 1)
        residual_floor = mpf(10) ** (-(mp.dps - 15))
        for _ in range(depth):
            a = int(mp.floor(x))
            num1, num0 = a * num1 + num0, num1
            den1, den0 = a * den1 + den0, den1
            out.append((num1, den1))
            frac = x - a
            if frac < residual_floor:
                break
            x = 1 / frac
        return tuple(out)

    with mp.workdps(max(80, 60 + 6 * depth)):
        theta = mp.atan2(mp.sqrt(mpf(4 * p - kappa * kappa)) / 2, mpf(-kappa) / 2)
        return mp.nstr(theta, 40), convergents(theta / (2 * mp.pi)), convergents(theta / mp.pi)


ORDINARY_PRIMES = [p for p in range(7, 3000) if p % 3 == 1 and is_prime(p)]


@pytest.mark.parametrize("depth", [1, 5, 30])
def test_integer_angle_matches_mpmath(depth):
    assert len(ORDINARY_PRIMES) == 207
    for p in ORDINARY_PRIMES:
        probe = sharpness.sharpness_probe(p, 1, depth=depth, k_max=1)  # k_max=1: one cheap finding
        got = (probe.theta, probe.convergents_two_pi, probe.convergents_pi)
        assert got == mpmath_angle(p, probe.kappa, depth), p
        assert len(probe.convergents_pi) == len(probe.convergents_two_pi) == depth


@pytest.mark.parametrize("bits", [8, 16, 24, 40, 72, 304])
def test_angle_bounds_enclose_theta_and_pi(bits):
    with mp.workdps(120):
        scale = mpf(2) ** (bits + 1)
        for p in ORDINARY_PRIMES[:80]:
            kappa = compute_kappa(p).kappa
            theta_lo, theta_hi, pi_lo, pi_hi = sharpness._angle_bounds(p, kappa, bits)
            theta = mp.atan2(mp.sqrt(mpf(4 * p - kappa * kappa)) / 2, mpf(-kappa) / 2)
            assert theta_lo / scale < theta < theta_hi / scale, p
            assert pi_lo / scale < mp.pi < pi_hi / scale
            assert max(theta_hi - theta_lo, pi_hi - pi_lo) < 2048 + 64 * bits  # tight, not a blanket


def test_certified_convergents_stop_where_the_ends_disagree():
    # 7/16 = [0; 2, 3, 2] and 4/9 = [0; 2, 4]: every real between them
    # starts [0; 2, ...] and the third quotient is 3 at one end, 4 at the other
    assert sharpness._certified_convergents(7, 16, 4, 9, depth=10) == [(0, 1), (1, 2)]
    # ends that share three quotients, then split: 10/23 = [0; 2, 3, 3], 13/30 = [0; 2, 3, 4]
    assert sharpness._certified_convergents(13, 30, 10, 23, depth=10) == [(0, 1), (1, 2), (3, 7)]
    assert sharpness._certified_convergents(13, 30, 10, 23, depth=2) == [(0, 1), (1, 2)]
    # a low end on the quotient itself ends the expansion after that quotient
    assert sharpness._certified_convergents(2, 1, 5, 2, depth=10) == [(2, 1)]
    # both ends exactly 7/16: all four of its quotients, then stop
    assert sharpness._certified_convergents(7, 16, 7, 16, depth=10) == [(0, 1), (1, 2), (3, 7), (7, 16)]


@pytest.mark.parametrize(
    "num,den",
    [(1, 100), (10**45 - 1, 10**45), (2, 3), (1, 7), (355, 113), (1, 3 * 10**11), (10**41 + 5, 10**41)],
)
def test_theta_string_is_nstr_rounding(num, den):
    with mp.workdps(80):
        assert sharpness._nstr(num, den) == mp.nstr(mpf(num) / den, 40)



@pytest.mark.parametrize("depth", [1, 5, 10])
def test_angle_takes_one_precision_pass(monkeypatch, depth):
    calls = []

    def counted(*args):
        calls.append(args)
        return angle_bounds(*args)

    angle_bounds = sharpness._angle_bounds
    monkeypatch.setattr(sharpness, "_angle_bounds", counted)
    for p in ORDINARY_PRIMES:
        sharpness.sharpness_probe(p, 1, depth=depth, k_max=1)
    assert len(calls) == len(ORDINARY_PRIMES)


def test_probe_doubles_the_bits_when_the_enclosure_cannot_decide(monkeypatch):
    reference = sharpness.sharpness_probe(73, 35, k_max=500)
    calls = []

    def wide_first(p, kappa, bits):
        calls.append(bits)
        theta_lo, theta_hi, pi_lo, pi_hi = angle_bounds(p, kappa, bits)
        if len(calls) == 1:  # widen theta by 1/2 each way: no digit or quotient is decided
            theta_lo, theta_hi = theta_lo - (1 << bits), theta_hi + (1 << bits)
        return theta_lo, theta_hi, pi_lo, pi_hi

    angle_bounds = sharpness._angle_bounds
    monkeypatch.setattr(sharpness, "_angle_bounds", wide_first)
    assert sharpness.sharpness_probe(73, 35, k_max=500) == reference
    assert calls == [304, 608]  # max(64 + 8 * 30, 160), then twice that
