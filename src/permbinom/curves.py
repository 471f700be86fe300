"""Point counts on y^2 = x^3 + Ax + B and the trace machinery built on them.

The central object is kappa_p, the trace coefficient of the curve
y^2 = x^3 + 1/4 over F_p, read off its point count |E(F_p)| - p - 1 and
checked against the theory: kappa_p = 0 for p = 2 (mod 3), where the curve
is supersingular, and otherwise kappa_p lies in a fixed class mod p (a
central binomial coefficient times a power of 4) with |kappa_p| <= 2 sqrt(p).
That window holds one member of the class: it is narrower than p from
p = 17, and at p = 7 and 13 the other members fall outside it.

From kappa the Frobenius eigenvalue pi_p = -kappa/2 + i sqrt(p - kappa^2/4)
is never materialized as a float; the integer traces
s_j = pi_p^j + conj(pi_p)^j follow the linear recurrence
s_j = -kappa s_{j-1} - p s_{j-2}, evaluated exactly by Lucas doubling over
the bits of j (see pi_trace).  The sign convention has s_1 = -kappa, so the
extension counts are |E(F_{p^j})| = p^j + 1 - s_j and |E(F_p)| = p + 1 + kappa.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .errors import (
    CrossCheckFailedError,
    DegreeMismatchError,
    EvenCharacteristicError,
    EvenPrimeError,
    SmallPrimeError,
    UnsupportedPrimeError,
    check_integer,
)
from .fields import NO_LOG, FieldElement, FieldSpec, add_logs, check_prime_power, ensure_enumerable, make_field


def count_points_prime(p: int, a4: int, a6: int) -> int:
    """|E(F_p)| for y^2 = x^3 + a4 x + a6, projective point included.

    Walks all of F_p with a p-entry list, so p must pass the enumeration
    guard, as every other full-field scan must.
    """
    check_prime_power(p, 1)
    a4, a6 = check_integer("a4", a4) % p, check_integer("a6", a6) % p
    if p == 2:
        raise EvenPrimeError("use the characteristic-2 model instead")
    ensure_enumerable(p)
    roots = [0] * p
    for y in range(p):
        roots[y * y % p] += 1
    return 1 + sum(roots[(x * x * x + a4 * x + a6) % p] for x in range(p))


def point_count_residue(p: int, a4: int, a6: int) -> int:
    """The class of |E(F_p)| - p - 1 mod p, from a central binomial sum.

    Expanding sum_x chi(x^3 + a4 x + a6) with chi = power (p-1)/2 and
    collecting the surviving exponent x^(p-1) terms gives

        |E| - p - 1 = - sum_l C((p-1)/2, 2l) C(2l, (p-1-2l)/2)
                          a6^((p-1)/2 - 2l) a4^(3l - (p-1)/2)   (mod p)

    over ceil((p-1)/6) <= l <= floor((p-1)/4), with 0^0 = 1.
    Returned normalized into [0, p).  The sum has about p/12 terms, each
    a product of binomials up to about p bits long, so p must pass the
    enumeration guard.
    """
    check_prime_power(p, 1)
    a4, a6 = check_integer("a4", a4) % p, check_integer("a6", a6) % p
    if p == 2:
        raise EvenPrimeError("p = 2 has no quadratic-character expansion")
    if p == 3:
        raise SmallPrimeError("the binomial range is empty for p = 3")
    ensure_enumerable(p)
    half = (p - 1) // 2
    total = 0
    for l in range(-(-(p - 1) // 6), (p - 1) // 4 + 1):
        term = comb(half, 2 * l) * comb(2 * l, (p - 1 - 2 * l) // 2)
        term = term * pow(a6, half - 2 * l, p) * pow(a4, 3 * l - half, p)
        total += term
    return -total % p


class KappaRecord(NamedTuple):
    """Trace coefficient of y^2 = x^3 + 1/4 over F_p, with its receipts."""

    p: int
    kappa: int
    residue: int  # kappa mod p, the congruence class the theory predicts
    curve_count: int  # |E(F_p)| = p + 1 + kappa, the count kappa is read off


def _char2_model_count() -> int:
    # x^2 + x = y^3 + 1 over F_2; the only usable model when 4 is not a unit
    affine = sum(
        1 for x in range(2) for y in range(2) if (x * x + x) % 2 == (y * y * y + 1) % 2
    )
    return affine + 1


@lru_cache(maxsize=None, typed=True)  # typed: 13.0 == 13, but only 13 is a prime
def compute_kappa(p: int) -> KappaRecord:
    """kappa_p = |E(F_p)| - p - 1 (on the characteristic-2 model at p = 2), checked against the theory.

    CrossCheckFailedError unless kappa_p = 0 for p = 2 (mod 3), or else
    kappa_p = -C((p-1)/2, (p-1)/3) 4^(-(p-1)/6) (mod p) and kappa_p^2 <= 4p.
    """
    check_prime_power(p, 1)
    if p == 3:
        raise UnsupportedPrimeError("kappa is undefined at the characteristic 3")
    count = _char2_model_count() if p == 2 else count_points_prime(p, 0, pow(4, p - 2, p))
    kappa = count - p - 1
    if p % 3 == 2:
        if kappa != 0:
            raise CrossCheckFailedError(f"|E(F_{p})| = {count}, but the curve is supersingular: kappa must be 0")
    else:
        residue = -comb((p - 1) // 2, (p - 1) // 3) * pow(4, -((p - 1) // 6), p) % p
        if kappa % p != residue or kappa * kappa > 4 * p:
            raise CrossCheckFailedError(f"|E(F_{p})| = {count} gives kappa = {kappa}, not in class {residue} mod {p} with kappa^2 <= 4p")
    return KappaRecord(p=p, kappa=kappa, residue=kappa % p, curve_count=count)


def pi_trace(p: int, j: int) -> int:
    """s_j = pi_p^j + conj(pi_p)^j as an exact integer, by Lucas doubling.

    Walks the bits of j from the top carrying (s_m, s_{m+1}, p^m) from m = 0,
    with s_{2m} = s_m^2 - 2 p^m and s_{2m+1} = s_m s_{m+1} + kappa p^m: three
    big products per bit, one for the last bit, where only s_j is needed.
    """
    check_integer("j", j, 0)
    kappa = compute_kappa(p).kappa
    s, t, pm = 2, -kappa, 1
    for bit in bin(j)[2:-1]:
        if bit == "1":
            s, t, pm = s * t + kappa * pm, t * t - 2 * p * pm, pm * pm * p
        else:
            s, t, pm = s * s - 2 * pm, s * t + kappa * pm, pm * pm
    return s * t + kappa * pm if j & 1 else s * s - 2 * pm


def count_points_extension(spec: FieldSpec, a4: FieldElement, a6: FieldElement) -> int:
    """|E(F_q)| by summing quadratic-character values over the extension.

    The cubic is evaluated on logarithms: at x = alpha^i its terms are
    alpha^(3i), alpha^(log a4 + i) and a6, added through the Zech table,
    and chi(alpha^j) = (-1)^j.
    """
    if spec.p == 2:
        raise EvenCharacteristicError("no Weierstrass form y^2 = ... in characteristic 2")
    _, log, zech = spec.scan_tables()
    q1 = spec.q - 1
    la4 = log[spec.element(a4).encode()]
    la6 = log[spec.element(a6).encode()]

    def points_over(lf: int) -> int:  # 1 + chi(f(x)), given log f(x)
        return 1 if lf == NO_LOG else 2 - 2 * (lf & 1)

    count = 1 + points_over(la6)  # the point at infinity, then x = 0
    for i in range(q1):
        a4x = NO_LOG if la4 == NO_LOG else (la4 + i) % q1
        count += points_over(add_logs(zech, add_logs(zech, 3 * i % q1, a4x), la6))
    return count


def char2_cubic_sum(k: int) -> int:
    """Sum of eta + eta^2 over (a^2+a+1)/(a^2+1) for a in F_{4^k} minus the cube roots of 1.

    Comes out to -2 + (-2)^(k+1): each term is 2 when the argument is a
    nonzero cube and -1 otherwise, and in characteristic 2 the excluded
    set {-1, -xi, -xi^2} is exactly {1, xi, xi^2}, the a = alpha^i with
    i = 0 mod (q-1)/3. At a = alpha^i both sides are summed on logarithms
    through the Zech table, and eta(alpha^j) = j mod 3.
    """
    if check_integer("k", k) < 1:
        raise DegreeMismatchError("k must be >= 1")
    ensure_enumerable(2, 2 * k)  # before make_field's modulus search
    spec = make_field(2, 2 * k)
    _, _, zech = spec.scan_tables()
    q1 = spec.q - 1
    third = q1 // 3
    total = 2  # a = 0: the quotient is 1
    for i in range(q1):
        if i % third == 0:
            continue
        num = add_logs(zech, add_logs(zech, 2 * i % q1, i), 0)
        den = add_logs(zech, 2 * i % q1, 0)
        total += 2 if (num - den) % 3 == 0 else -1
    return total
