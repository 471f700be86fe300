"""Small deterministic number-theory helpers on plain integers."""

from math import isqrt

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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, stopped once the cofactor left is prime."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            if is_prime(n):
                break
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


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
