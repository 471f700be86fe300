"""Probing how close the r = 3 count gets to its refined bounds.

The count deviates from 2q/9 by essentially s_k / p^(k/2), which is
2 cos(k theta_p) for the Frobenius angle theta_p.  The bounds are sharp
exactly when k theta_p creeps close to a multiple of pi, so good k are
denominators of continued-fraction convergents: of theta_p / (2 pi) for
deviations near +2, and of theta_p / pi with odd numerator for
deviations near -2.

The angle is enclosed in integers alone.  With D = 4p - kappa^2,
theta_p = pi/2 + atan(kappa / sqrt(D)); in B-bit fixed point, pi comes
from Machin's formula and the arctangent from isqrt halvings of its
argument followed by the alternating series, every step rounded outward or
carrying an explicit error bound, so theta_p and pi come out as proven
integer intervals.  A partial quotient of theta_p / pi (or / 2 pi) is
emitted only while both rational ends of the interval share it, and the
40-digit theta string only when both ends round to it; otherwise B doubles.
The convergents only *select* candidate k.  Each reported deviation

    d_k = ((3 (e1 + e2) + 10) / 2 + s_k) / p^(k/2)

is computed from exact integers, the trace s_k by Lucas doubling.  For
even k, p^(k/2) is an integer and lo = hi = N / (2 p^(k/2)) exactly, with
N = 2 s_k + 3 (e1 + e2) + 10.  The gcd of those two terms is
2^[N even] p^min(v_p(N), k/2), so halving an even N and dividing out p
while it divides N leaves them coprime, and no gcd of numbers some
k log2(p) bits long is taken.  For odd k, p^(k/2) is bracketed by a
scaled integer square root, yielding a rational enclosure [lo, hi] of
width around 10^-DIGITS.  That root is w = floor(2 10^DIGITS p^(k/2)) =
floor(P sqrt(c)) with P = p^((k-1)/2) and c = 4p 10^(2 DIGITS), and one
fixed-point root of c per prime serves every odd k: R_t = isqrt(c 4^t) =
floor(sqrt(c) 2^t), so P R_t <= P sqrt(c) 2^t < P R_t + P.  With
P < 2^t, floor(P R_t / 2^t) is w or w - 1, and only when the dropped low
t bits plus P reach 2^t does (w + 1)^2 <= c P^2, in integers, decide
between them.  A root R_T at a larger T serves every t <= T, as
R_t = R_T >> (T - t) exactly.  The reported decimal is (lo + hi) / 2
truncated at PLACES places, never reduced: it is the shared truncation
of lo and hi when they agree, else that of (ad + cb) / 2bd for lo = a/b,
hi = c/d.  Nothing about it depends on float rounding.
"""

from __future__ import annotations

import numbers
from collections import OrderedDict
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .counts import epsilons
from .curves import compute_kappa, pi_trace
from .errors import BadFieldForCubicError, ProbeConfigError, UnsupportedPrimeError, check_integer, int_text
from .fields import check_prime_power
from .primes import factorize

DEFAULT_DEPTH = 30
DEFAULT_K_MAX = 10_000  # deviations cost ~k digits of integer work apiece
THETA_DIGITS = 40  # significant digits of the reported angle
DIGITS = 50  # odd-k enclosures are about 10^-DIGITS wide
PLACES = 42  # decimal places of a reported deviation
GUARD_BITS = 64  # fixed-point bits of the cached root beyond those of p^((k-1)/2)
ROOT_CACHE_PRIMES = 32  # roots kept, one per (p, DIGITS), least recently used dropped first

_ROOTS: OrderedDict[tuple[int, int], tuple[int, int]] = OrderedDict()  # (p, DIGITS) -> (T, R_T)


class ProbeFinding(NamedTuple):
    k: int
    deviation_lo: Fraction
    deviation_hi: Fraction
    deviation: str  # decimal rendering of the enclosure midpoint
    gcd_ok: bool  # whether gcd(n, (p^k - 1)/3) = 1, i.e. n is admissible there


class SharpnessProbe(NamedTuple):
    p: int
    n: int
    kappa: int
    theta: str  # high-precision angle of pi_p in (0, pi)
    depth: int
    convergents_two_pi: tuple[tuple[int, int], ...]  # (m_l, n_l) of theta/(2 pi)
    convergents_pi: tuple[tuple[int, int], ...]
    findings: tuple[ProbeFinding, ...]  # ascending k


def _atan_series(num: int, den: int, bits: int) -> tuple[int, int]:
    """atan(num / den) * 2^bits for 0 <= num < den, as (value, error bound).

    Sums x - x^3/3 + x^5/5 - ... with every power and term floored: the
    power x^j * 2^bits is then low by less than (j + 1)/2 units and each
    term by less than 2.  The sum stops at the first term that floors to 0,
    whose true size (under 2 units) bounds the alternating tail.
    """
    power = (num << bits) // den
    num2, den2 = num * num, den * den
    total, j = 0, 1
    while term := power // j:
        total += -term if j & 2 else term
        power = power * num2 // den2
        j += 2
    return total, j + 1  # (j - 1)/2 terms: error < 2 per term + 2 for the tail


def _angle_bounds(p: int, kappa: int, bits: int) -> tuple[int, int, int, int]:
    """Integer enclosures (theta_lo, theta_hi, pi_lo, pi_hi) of theta_p and pi, times 2^(bits + 1).

    theta_p = pi/2 + sign(kappa) phi with phi = atan(|kappa| / sqrt(D)),
    D = 4p - kappa^2.  Since kappa^2 + D = 4p, the half angle has tangent
    |kappa| / (2 sqrt(p) + sqrt(D)) < 1; four more halvings
    x -> x / (1 + sqrt(1 + x^2)), each rounded outward (the map is
    increasing), bring it under 1/16 before the series.  atan has slope at
    most 1, so one series at the low end covers the whole interval.
    """
    one = 1 << bits
    a, err_a = _atan_series(1, 5, bits)
    b, err_b = _atan_series(1, 239, bits)
    pi_mid, pi_err = 16 * a - 4 * b, 16 * err_a + 4 * err_b  # Machin
    root = isqrt(4 * p << 2 * bits) + isqrt(4 * p - kappa * kappa << 2 * bits)  # at most 2 units low
    lo, hi = (abs(kappa) << 2 * bits) // (root + 2), -((-abs(kappa) << 2 * bits) // root)
    for _ in range(4):
        square = one * one + lo * lo
        r = isqrt(square)
        lo = (lo << bits) // (one + r + (r * r < square))
        hi = -((-hi << bits) // (one + isqrt(one * one + hi * hi)))
    s, err = _atan_series(lo, one, bits)
    phi_lo, phi_hi = (s - err) << 6, (s + err + hi - lo) << 6  # 2 phi = 2^6 atan(x)
    if kappa < 0:
        phi_lo, phi_hi = -phi_hi, -phi_lo
    pi_lo, pi_hi = pi_mid - pi_err, pi_mid + pi_err
    return pi_lo + phi_lo, pi_hi + phi_hi, 2 * pi_lo, 2 * pi_hi


def _certified_convergents(a: int, b: int, c: int, d: int, depth: int) -> list[tuple[int, int]]:
    """Convergents (m_l, n_l) shared by every real in [a/b, c/d], at most depth of them.

    Needs 0 <= a/b <= c/d.  The reals whose continued fractions start with
    given quotients form an interval, so a quotient on which both ends
    agree holds for everything between them.  Stops at the first quotient
    the ends disagree on, or after one that the low end equals exactly.
    """
    out = []
    num1, num0, den1, den0 = 1, 0, 0, 1
    while len(out) < depth:
        quotient = a // b
        if quotient != c // d:
            break
        num1, num0 = quotient * num1 + num0, num1
        den1, den0 = quotient * den1 + den0, den1
        out.append((num1, den1))
        if a == quotient * b:
            break
        a, b, c, d = d, c - quotient * d, b, a - quotient * b  # x -> 1/(x - quotient) swaps the ends
    return out


def _nstr(num: int, den: int) -> str:
    """num/den rounded to nearest at THETA_DIGITS significant digits, trailing zeros cut.

    For 10^-12 <= num/den <= 4, which covers any angle in (0, pi) that a
    probe can reach, this is the layout of mpmath's nstr.
    """
    exp = len(str(num // den)) - 1 if num >= den else -len(str(den // num))
    rounded = (num * 10 ** (THETA_DIGITS - exp) + 5 * den) // (10 * den)
    if rounded == 10**THETA_DIGITS:  # a carry, or the estimate of exp was one low
        rounded, exp = rounded // 10, exp + 1
    text = str(rounded)
    text = ("0." + "0" * (-exp - 1) + text if exp < 0 else text[0] + "." + text[1:]).rstrip("0")
    return text + "0" if text.endswith(".") else text


def _frobenius_angle(p: int, kappa: int, depth: int) -> tuple[str, list[tuple[int, int]], list[tuple[int, int]]]:
    """theta_p to 40 digits and depth convergents of theta_p/(2 pi) and theta_p/pi, certified.

    For p = 1 mod 3, where theta_p / pi is irrational.  Works in B-bit
    fixed point from B = 64 + 8 depth, but at least the 160 bits the
    40-digit string needs once the error bound is paid, and doubles B
    until the enclosure decides the string and every quotient.
    """
    bits = max(64 + 8 * depth, 160)
    while True:
        theta_lo, theta_hi, pi_lo, pi_hi = _angle_bounds(p, kappa, bits)
        scale = 1 << bits + 1
        if theta_lo > 0:
            theta = _nstr(theta_lo, scale)
            over_two_pi = _certified_convergents(theta_lo, 2 * pi_hi, theta_hi, 2 * pi_lo, depth)
            over_pi = _certified_convergents(theta_lo, pi_hi, theta_hi, pi_lo, depth)
            if theta == _nstr(theta_hi, scale) and len(over_two_pi) == len(over_pi) == depth:
                return theta, over_two_pi, over_pi
        bits *= 2


def _check_input(p: int, **positive: int) -> None:
    """Refuse a non-integer, p < 5 or a named value below 1, before any work."""
    if check_integer("p", p) < 5:
        raise UnsupportedPrimeError(f"probe needs p >= 5, got {int_text(p)}")
    for name, value in positive.items():
        if check_integer(name, value) < 1:
            raise ProbeConfigError(f"{name} must be at least 1, got {int_text(value)}")


class _Coprime(NamedTuple):
    """A numerator and a positive denominator already in lowest terms.

    Registered as a numbers.Rational, whose contract promises lowest
    terms, so Fraction(pair) copies both as they are instead of taking
    their gcd again.
    """

    numerator: int
    denominator: int


numbers.Rational.register(_Coprime)


def admissible_exponent(n: int, p: int, k: int) -> bool:
    """gcd(n, (p^k - 1)/3) = 1, decided by modular orders only, for a prime p with p^k = 1 mod 3.

    A prime l | n divides (p^k - 1)/3 iff p^k = 1 mod 3l (or mod 9 when
    l = 3), so no giant integers are ever formed.
    """
    _check_input(p, n=n, k=k)
    check_prime_power(p, k)
    if pow(p, k, 3) != 1:
        raise BadFieldForCubicError(f"q = {int_text(p)}^{int_text(k)} is not 1 mod 3")
    for prime in factorize(n):
        modulus = 9 if prime == 3 else 3 * prime
        if pow(p, k, modulus) == 1:
            return False
    return True


def _scaled_root(p: int, t: int) -> int:
    """R_t = isqrt(4p 10^(2 DIGITS) << 2t) = floor(2 sqrt(p) 10^DIGITS 2^t), from the cached R_T.

    The cache holds R_T at the largest T asked of (p, DIGITS) so far, and
    a larger t grows T to at least twice its size, so a probe's ascending
    k take a handful of square roots in all.  R_T >> (T - t) is R_t
    exactly, since floor(floor(x) / m) = floor(x / m) for integer m.
    """
    key = (p, DIGITS)
    top, root = _ROOTS.pop(key, (-1, 0))
    if t > top:
        top = max(t, 2 * top)
        root = isqrt(4 * p * 10 ** (2 * DIGITS) << 2 * top)
    _ROOTS[key] = top, root
    if len(_ROOTS) > ROOT_CACHE_PRIMES:
        _ROOTS.popitem(last=False)
    return root >> top - t


def deviation_bounds(p: int, k: int, n: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of d_k = ((3(e1+e2)+10)/2 + s_k) / p^(k/2).

    For even k both ends are the exact value N / (2 p^(k/2)), with
    N = 2 s_k + 3(e1+e2) + 10, reduced by valuation: the gcd of the two
    terms is 2^[N even] p^min(v_p(N), k/2), so one N % 2 and, unless p
    divides N, one N % p find it.  The coprime pair goes into the Fraction
    through _Coprime, with no gcd of two k log2(p)-bit integers.  For odd
    k the ends are N 10^DIGITS / w and N 10^DIGITS / (w + 1), with
    w = floor(2 p^(k/2) 10^DIGITS), each reduced by Fraction; N = 0 gives
    0 either way.  w is floor(P sqrt(c)) for P = p^((k-1)/2) and
    c = 4p 10^(2 DIGITS): with t = P.bit_length() + GUARD_BITS and the
    cached R_t = floor(sqrt(c) 2^t), the product x = P R_t has
    x <= P sqrt(c) 2^t < x + P, so w is x >> t, or one more only if
    (x + P) >> t exceeds it; then (w + 1)^2 <= c P^2 decides.  Neither
    p^k nor a square root per k is formed.
    """
    _check_input(p, k=k, n=n)
    e1, e2 = epsilons(pow(p, k, 9), n)  # epsilons reads q mod 9 only
    numerator = 2 * pi_trace(p, k) + 3 * (e1 + e2) + 10  # = 2 p^(k/2) d_k
    if k % 2 == 0:
        two, half = 2, k // 2  # denominator two * p^half
        if numerator % 2 == 0:
            numerator, two = numerator // 2, 1
        while half and numerator % p == 0:
            numerator, half = numerator // p, half - 1
        exact = Fraction(_Coprime(numerator, two * p**half))
        return exact, exact
    scale = 10**DIGITS
    power = p ** (k // 2)
    t = power.bit_length() + GUARD_BITS
    product = power * _scaled_root(p, t)
    w = product >> t
    if (product + power) >> t > w and (w + 1) ** 2 <= 4 * p * (scale * power) ** 2:
        w += 1
    if numerator > 0:
        return Fraction(numerator * scale, w + 1), Fraction(numerator * scale, w)
    return Fraction(numerator * scale, w), Fraction(numerator * scale, w + 1)


def decimal_string(value: Fraction) -> str:
    """Fixed-point decimal rendering at PLACES places, truncated toward zero."""
    return _truncated_decimal(value.numerator, value.denominator)


def _truncated_decimal(num: int, den: int) -> str:
    """decimal_string of num / den for den > 0, with no gcd taken."""
    whole, frac = divmod(abs(num) * 10**PLACES // den, 10**PLACES)
    return f"{'-' if num < 0 else ''}{whole}.{str(frac).zfill(PLACES)}"


def sharpness_probe(
    p: int,
    n: int,
    depth: int = DEFAULT_DEPTH,
    k_max: int = DEFAULT_K_MAX,
) -> SharpnessProbe:
    """Hunt for k where the exact count nearly touches its refined bounds.

    Convergent denominators beyond k_max are still listed in the
    convergent tables but get no deviation: s_k has about k log10(p)
    digits, so arbitrarily deep findings are not computable and the
    interesting witnesses appear early.
    """
    _check_input(p, n=n, depth=depth, k_max=k_max)
    kappa = compute_kappa(p).kappa

    if p % 3 == 2:
        # pi_p = i sqrt(p): the angle is exactly pi/2 and k theta hits a
        # multiple of pi at every even k, so report those directly.
        theta_str, conv2pi, convpi = "pi/2", [], []
        candidates = range(2, min(2 * depth, k_max) + 1, 2)
    else:
        theta_str, conv2pi, convpi = _frobenius_angle(p, kappa, depth)
        candidates = sorted({den for _, den in conv2pi + convpi if den <= k_max})
    return SharpnessProbe(
        p=p,
        n=n,
        kappa=kappa,
        theta=theta_str,
        depth=depth,
        convergents_two_pi=tuple(conv2pi),
        convergents_pi=tuple(convpi),
        findings=tuple(_finding(p, k, n) for k in candidates),
    )


def _finding(p: int, k: int, n: int) -> ProbeFinding:
    lo, hi = deviation_bounds(p, k, n)
    # ends that truncate alike pin the midpoint; else (ad + cb) / 2bd, unreduced
    deviation = decimal_string(lo)
    if deviation != decimal_string(hi):
        a, b, c, d = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        deviation = _truncated_decimal(a * d + c * b, 2 * b * d)
    return ProbeFinding(
        k=k,
        deviation_lo=lo,
        deviation_hi=hi,
        deviation=deviation,
        gcd_ok=admissible_exponent(n, p, k),
    )
