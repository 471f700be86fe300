"""Probing how close the r = 3 count gets to its refined bounds.

The count deviates from 2q/9 by essentially s_k / p^(k/2), which is
2 cos(k theta_p) for the Frobenius angle theta_p.  The bounds are sharp
exactly when k theta_p creeps close to a multiple of pi, so good k are
denominators of continued-fraction convergents: of theta_p / (2 pi) for
deviations near +2, and of theta_p / pi with odd numerator for
deviations near -2.

The angle and its convergents are found with mpmath at high precision,
but that only *selects* candidate k.  Each reported deviation

    d_k = ((3 (e1 + e2) + 10) / 2 + s_k) / p^(k/2)

is computed from exact integers: the trace s_k by Lucas doubling,
p^(k/2) bracketed by a scaled integer square root, yielding a rational
enclosure [lo, hi] of width around 10^-digits.  The reported decimal is
(lo + hi) / 2 truncated at 42 places, never reduced: it is the shared
truncation of lo and hi when they agree, else that of (ad + cb) / 2bd
for lo = a/b, hi = c/d.  Nothing about it depends on float rounding.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from mpmath import mp, mpf

from .counts import epsilons
from .curves import compute_kappa, pi_trace
from .errors import ProbeConfigError, UnsupportedPrimeError
from .primes import factorize

DEFAULT_DEPTH = 30
DEFAULT_K_MAX = 10_000  # deviations cost ~k digits of integer work apiece


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


def _convergents(x, depth: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents (numerator, denominator) of an mpf."""
    out = []
    num1, num0 = 1, 0  # h_{-1}, h_{-2}
    den1, den0 = 0, 1
    residual_floor = mpf(10) ** (-(mp.dps - 15))
    for _ in range(depth):
        a = int(mp.floor(x))
        num1, num0 = a * num1 + num0, num1
        den1, den0 = a * den1 + den0, den1
        out.append((num1, den1))
        frac = x - a
        if frac < residual_floor:
            break  # precision exhausted; stop before emitting junk terms
        x = 1 / frac
    return out


def admissible_exponent(n: int, p: int, k: int) -> bool:
    """gcd(n, (p^k - 1)/3) = 1, decided by modular orders only.

    A prime l | n divides (p^k - 1)/3 iff p^k = 1 mod 3l (or mod 9 when
    l = 3), so no giant integers are ever formed.
    """
    for prime in factorize(n):
        modulus = 9 if prime == 3 else 3 * prime
        if pow(p, k, modulus) == 1:
            return False
    return True


def deviation_bounds(p: int, k: int, n: int, digits: int = 50) -> tuple[Fraction, Fraction]:
    """Rational enclosure of d_k = ((3(e1+e2)+10)/2 + s_k) / p^(k/2)."""
    q = p**k
    e1, e2 = epsilons(q, n)
    numerator = 2 * pi_trace(p, k) + 3 * (e1 + e2) + 10  # = 2 p^(k/2) d_k
    if numerator == 0:
        return Fraction(0), Fraction(0)
    if k % 2 == 0:
        exact = Fraction(numerator, 2 * p ** (k // 2))
        return exact, exact
    scale = 10**digits
    w = isqrt(4 * q * scale * scale)  # floor(2 p^(k/2) * scale)
    if numerator > 0:
        return Fraction(numerator * scale, w + 1), Fraction(numerator * scale, w)
    return Fraction(numerator * scale, w), Fraction(numerator * scale, w + 1)


def decimal_string(value: Fraction, places: int = 42) -> str:
    """Fixed-point decimal rendering, truncated toward zero."""
    return _truncated_decimal(value.numerator, value.denominator, places)


def _truncated_decimal(num: int, den: int, places: int = 42) -> str:
    """decimal_string of num / den for den > 0, with no gcd taken."""
    whole, frac = divmod(abs(num) * 10**places // den, 10**places)
    return f"{'-' if num < 0 else ''}{whole}.{str(frac).zfill(places)}"


def sharpness_probe(
    p: int,
    n: int,
    depth: int = DEFAULT_DEPTH,
    k_max: int = DEFAULT_K_MAX,
    digits: int = 50,
) -> SharpnessProbe:
    """Hunt for k where the exact count nearly touches its refined bounds.

    Convergent denominators beyond k_max are still listed in the
    convergent tables but get no deviation: s_k has about k log10(p)
    digits, so arbitrarily deep findings are not computable and the
    interesting witnesses appear early.
    """
    if p in (2, 3):
        raise UnsupportedPrimeError("probe needs p >= 5")
    for name, value in (("n", n), ("depth", depth), ("k_max", k_max)):
        if value < 1:
            raise ProbeConfigError(f"{name} must be at least 1, got {value}")
    kappa = compute_kappa(p).kappa

    if p % 3 == 2:
        # pi_p = i sqrt(p): the angle is exactly pi/2 and k theta hits a
        # multiple of pi at every even k, so report those directly.
        theta_str, conv2pi, convpi = "pi/2", [], []
        candidates = range(2, min(2 * depth, k_max) + 1, 2)
    else:
        with mp.workdps(max(80, 60 + 6 * depth)):
            theta = mp.atan2(mp.sqrt(mpf(4 * p - kappa * kappa)) / 2, mpf(-kappa) / 2)
            theta_str = mp.nstr(theta, 40)
            conv2pi = _convergents(theta / (2 * mp.pi), depth)
            convpi = _convergents(theta / mp.pi, depth)
        candidates = sorted({den for _, den in conv2pi + convpi if den <= k_max})
    return SharpnessProbe(
        p=p,
        n=n,
        kappa=kappa,
        theta=theta_str,
        depth=depth,
        convergents_two_pi=tuple(conv2pi),
        convergents_pi=tuple(convpi),
        findings=tuple(_finding(p, k, n, digits) for k in candidates),
    )


def _finding(p: int, k: int, n: int, digits: int) -> ProbeFinding:
    lo, hi = deviation_bounds(p, k, n, digits)
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
