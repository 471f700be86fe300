"""Small deterministic number-theory helpers on plain integers."""

from itertools import count
from math import gcd, isqrt

from .errors import FactorizationLimitError, OutOfRangeError

# Witness set proven sufficient for every n < 3.3 * 10^24, far beyond any
# modulus this package touches.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the integer sizes used here."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True  # no prime factor up to 37, so none below sqrt(n)
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
    if n < 1:
        raise OutOfRangeError("factorize expects a positive integer")
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
                    raise FactorizationLimitError(f"cannot factor {m}, a factor of {whole}, within {_RHO_STEPS} Pollard rho steps")
                x = (x * x + c) % m
                y = (y * y + c) % m
                y = (y * y + c) % m
                g = gcd(x - y, m)
            if g != m:
                break
        left += [g, m // g]
    return sorted(found)


def _iroot(n: int, k: int) -> int:
    """Largest x with x^k <= n, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power_decompose(q: int) -> tuple[int, int] | None:
    """Return (p, k) with q = p^k and p prime, or None.

    Tries each k <= log2(q): an integer k-th root and a primality test, no factoring.
    """
    if q < 2:
        return None
    for k in range(1, q.bit_length()):
        p = _iroot(q, k)
        if p**k == q and is_prime(p):
            return p, k
    return None


def prime_powers_upto(limit: int) -> list[int]:
    """All prime powers q with 2 <= q <= limit, ascending; trial division, cheapest for a small limit."""
    return [q for q in range(2, limit + 1) if len(factorize(q)) == 1]


def exact_sqrt(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    r = isqrt(n)
    return r if r * r == n else None
