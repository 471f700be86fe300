"""Small deterministic number-theory helpers on plain integers."""

from itertools import count
from math import gcd, isqrt, log2

from .errors import FactorizationLimitError, check_integer, int_text

# Miller-Rabin to the first 13 prime bases proves every n below psi13, the
# least strong pseudoprime to all of them (Sorenson and Webster, Math. Comp.
# 86, 2017); the first 12 prove only n < psi12 = 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality, proved: Miller-Rabin below psi13, Pocklington-Lehmer at or above it.

    At or above psi13 a probable prime is proved from the factorization of
    n - 1, or refused with FactorizationLimitError when n - 1 cannot be
    factored or no base below 1000 certifies a prime factor of it.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True  # no prime factor up to 41, so none below sqrt(n)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI13 or _pocklington(n)


def _pocklington(n: int) -> bool:
    """Prove n prime, or composite, from the factorization of n - 1.

    Pocklington-Lehmer with n - 1 fully factored: if each prime f | n - 1
    has a base b with b^(n-1) = 1 (mod n) and gcd(b^((n-1)/f) - 1, n) = 1,
    every prime factor of n is 1 mod n - 1, so n is prime.
    """
    try:
        factors = factorize(n - 1)
    except FactorizationLimitError as exc:
        raise FactorizationLimitError(f"cannot prove {int_text(n)} prime: {exc}") from exc
    for f in factors:
        for b in range(2, 1000):
            x = pow(b, (n - 1) // f, n)
            if pow(x, f, n) != 1:
                return False  # Fermat fails at base b
            g = gcd(x - 1, n)
            if g == 1:
                break
            if g < n:
                return False  # a proper factor of n
        else:
            raise FactorizationLimitError(f"cannot prove {int_text(n)} prime: no base below 1000 certifies the factor {int_text(f)} of n - 1")
    return True


# factorize divides by every d up to _TRIAL_BOUND, then splits what is left
# by Pollard rho in at most _RHO_STEPS steps, about a second of work: enough
# when the second-largest prime factor is below about 10^9, not always past 10^10.
_TRIAL_BOUND = 1 << 10
_RHO_STEPS = 1 << 18


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, ascending: trial division, then Pollard rho on a composite cofactor.

    Raises FactorizationLimitError, naming n and the cofactor, when the
    rho steps run out: a cofactor with two very large prime factors.
    """
    check_integer("n", n, 1)
    whole = n
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        # every prime factor of n is at least d, so n < d^2 is prime
        for prime in (n,) if n < d * d or is_prime(n) else _rho_primes(n, whole):
            out[prime] = out.get(prime, 0) + 1
    return out


def _rho_primes(n: int, whole: int) -> list[int]:
    """Prime factors of the composite cofactor n of whole, ascending, with multiplicity.

    Pollard rho, x -> x^2 + c for c = 1, 2, ... with Floyd's cycle search,
    splits each composite in _RHO_STEPS steps in all.
    """
    found, left, steps = [], [n], _RHO_STEPS
    while left:
        m = left.pop()
        if is_prime(m):
            found.append(m)
            continue
        for c in count(1):
            x = y = g = 1
            while g == 1:
                steps -= 1
                if steps < 0:
                    raise FactorizationLimitError(f"cannot factor {int_text(m)}, a factor of {int_text(whole)}, within {_RHO_STEPS} Pollard rho steps")
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = gcd(x - y, m)
            if g != m:
                break
        left += [g, m // g]
    return sorted(found)


def _iroot(n: int, k: int) -> int:
    """Largest x with x^k <= n for n >= 1, by Newton's method from a floating-point estimate.

    By the AM-GM inequality one step from any x > 0 lands at or above the
    root, and from there the steps fall to it, quadratically from an
    estimate this close.
    """
    e = log2(n) / k
    shift = max(int(e) - 52, 0)
    x = int(2.0 ** (e - shift)) + 1 << shift
    x = ((k - 1) * x + n // x ** (k - 1)) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _valuation(q: int, d: int) -> tuple[int, int]:
    """(v, q / d^v) with d^v the largest power of d dividing q, from the squares d^(2^i)."""
    powers = []
    power = d
    while q % power == 0:
        powers.append(power)
        power *= power
    v = 0
    for i in reversed(range(len(powers))):
        if q % powers[i] == 0:
            q //= powers[i]
            v += 1 << i
    return v, q


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None; q itself is never factored.

    A prime factor p < 2^10 is found by trial division, and its valuation
    settles q; no divisor up to sqrt(q) makes q prime. Otherwise p > 2^10,
    so k < log2(q) / 10, and q = p^k is a perfect l-th power for every
    prime l | k: an integer l-th root for each prime l in that range, then
    the same on the root. What is left is a k = 1 candidate, and only it
    meets is_prime.
    """
    if q < 2:
        return None
    for d in range(2, 1 << 10):
        if d * d > q:
            return q, 1
        if q % d == 0:  # the least divisor above 1 is prime
            v, rest = _valuation(q, d)
            return (d, v) if rest == 1 else None
    for ell in filter(is_prime, range(2, q.bit_length() // 10 + 1)):
        root = _iroot(q, ell)
        if root**ell == q:
            found = prime_power_decompose(root)
            return None if found is None else (found[0], found[1] * ell)
    return (q, 1) if is_prime(q) else None


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending; trial division, cheapest for a small limit."""
    return [q for q in range(2, limit + 1) if len(factorize(q)) == 1]


def exact_sqrt(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    r = isqrt(n)
    return r if r * r == n else None
