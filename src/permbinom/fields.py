"""Finite fields F_{p^k} in an explicit polynomial basis.

Elements are coefficient tuples (c_0, ..., c_{k-1}) over F_p, meaning
c_0 + c_1 x + ... + c_{k-1} x^{k-1} modulo a monic irreducible modulus of
degree k.  The canonical enumeration order is by integer encoding
enc = sum c_i p^i, so the constant coefficient varies fastest and prime
fields enumerate as 0, 1, ..., p-1.  FieldSpec.element is the one way into
a field: the operators (for an element or an int) and the characters hand
it their operand, and only it refuses an element of another field.

When no modulus is supplied, make_field picks the first irreducible it
finds scanning candidates x^k + c_{k-1} x^{k-1} + ... + c_0 in ascending
encoding order of (c_0, ..., c_{k-1}), which is x itself for k = 1; the
scan is deterministic, so a given (p, k) always names the same field with
the same generator.  It skips the binomials x^k + c where none is
irreducible, which leaves the modulus found unchanged.

The distinguished generator alpha is the first element in enumeration
order whose multiplicative order is q - 1.  For prime fields this is the
least positive primitive root (alpha = 5 for F_73); for F_4 with modulus
x^2 + x + 1 it is x itself.

Full-field scans run on discrete-logarithm tables over alpha (Lidl and
Niederreiter, Finite Fields, on Zech logarithms): exp[i] is the encoding
of alpha^i, log inverts it, and zech[i] = log(1 + alpha^i), or NO_LOG
where 1 + alpha^i = 0.  FieldSpec.scan_tables builds them on its first
call, from q - 1 multiplications by alpha, and keeps them for the life
of the FieldSpec: three arrays of C longs, about 3q of them (24q bytes
where a long is 8 bytes, as on 64-bit Linux).  It checks the enumeration
guard first, on every call, so no table is built for a field the guard
refuses.  Only the scans over a whole field call it:
enumerate_perm_binomials, power_sum, count_points_extension,
char2_cubic_sum, characters.character_classes and permtest.split_orbits,
which checks a Wan-Lidl a-set for closure.  The guard is q <= 2^20, and
the PERMBINOM_GUARD environment variable, read only here, is the one way
to move it: no function takes an argument that skips it.  Given (p, k),
ensure_enumerable refuses a k > 1 of the guard's bit length or more
before q is formed, as q >= 2^k.

On an extension field the first scan_tables call also builds decode's
two digit tables, the coefficient tuples of the encodings below p^(k//2)
and below p^(k - k//2): about p^ceil(k/2) tuples beside the 24q bytes
(0.13 MB at F_{2^20}, 0.7 MB at F_{101^3}, the most under the guard), so
they wait behind the guard with the rest.  With them decode is one
divmod and two lookups; without them it takes k divmods.  elements() is
a full-field scan and checks the guard too: the itertools.product it
reads holds range(p) whole.

FieldElement never reads the tables.  Its powers, inverse and
element_order are square-and-multiply whatever scans have run, and are
the table-free reference the tables are checked against in the tests.
Of the single-element functions only the characters read them, through
characters._exponent, at the encoding an element carries: on a prime
field the results of +, - and * carry theirs, the one coefficient.

The scans that add elements work on logarithms and never build a
FieldElement per element: alpha^u + alpha^v is alpha^(u + zech[v - u]).
add_logs does that addition with NO_LOG allowed on either side, so sums
that start from zero or meet a zero coefficient need no special case.
"""

from __future__ import annotations

import os
from array import array
from itertools import count, product, repeat
from operator import index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    SHOWN_CHARS,
    DegreeMismatchError,
    EnumerationGuardError,
    FieldMismatchError,
    NonPrimeError,
    OutOfRangeError,
    ReducibleModulusError,
    UnknownChoiceError,
    ZeroElementError,
    check_integer,
    int_text,
    integer,
    value_text,
)
from .primes import factorize, is_prime, prime_power_decompose

ENUMERATION_GUARD_DEFAULT = 1 << 20
GUARD_ENV_VAR = "PERMBINOM_GUARD"


def ensure_enumerable(p: int, k: int = 1) -> None:
    """Raise unless a full scan over F_q, q = p^k, is within the guard; a caller that holds q passes it as p.

    A k > 1 with 2^k past the guard is refused before p**k is formed.
    A set but malformed or non-positive PERMBINOM_GUARD raises rather than
    falling back to the default, so a typo cannot silently move the guard.
    """
    raw = os.environ.get(GUARD_ENV_VAR)
    try:
        limit = ENUMERATION_GUARD_DEFAULT if raw is None else integer(raw)
    except ValueError:
        limit = 0  # malformed or past the str-to-int digit limit: refused below like a non-positive value
    if limit < 1:
        raise EnumerationGuardError(f"{GUARD_ENV_VAR}={value_text(raw)} is not a positive integer")
    q = None if k > 1 and k >= limit.bit_length() else p**k  # None: q >= 2^k > limit, named p^k
    if q is None or q > limit:
        shown = f"{int_text(p)}^{int_text(k)}" if q is None else int_text(q)
        raise EnumerationGuardError(f"refusing to enumerate F_q with q = {shown} > guard {int_text(limit)}; set {GUARD_ENV_VAR} to at least {shown}")


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p: tuples, constant coefficient first


def _ptrim(a: Sequence[int]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return tuple(a[:i])


def _pdeg(a: Sequence[int]) -> int:
    return len(_ptrim(a)) - 1


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo f; f need not be monic."""
    a = list(a)
    df = _pdeg(f)
    if df < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(f[df], p - 2, p)
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            c = c * inv_lead % p
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _ptrim(a[:df] if df > 0 else [])


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Distinct-degree test on a monic f: gcd(f, x^{p^i} - x) trivial for i <= deg/2; True at degree 1.

    x^{p^i} is taken in FieldSpec(p, k, f), whose arithmetic needs f monic only.
    """
    k = _pdeg(f)
    if k < 1:
        return False
    if k == 1:
        return True
    if f[0] == 0:
        return False
    x = FieldSpec(p, k, tuple(f[: k + 1])).element((0, 1) + (0,) * (k - 2))
    t = x
    for _ in range(k // 2):
        t = t**p
        if _pdeg(_pgcd((t - x).coeffs, f, p)) > 0:
            return False
    return True


def _residues(values: Iterable[int], p: int) -> tuple[int, ...]:
    """Each value mod p, read as an integer by operator.index; 2.5 and "1" are refused by type, never echoed, as a list may hold a huge int."""
    residues, c = [], values  # c is what the refusal names: values itself if it cannot be iterated
    try:
        for c in values:
            residues.append(index(c) % p)
    except TypeError:
        raise UnknownChoiceError(f"cannot read a value of type {type(c).__name__} as integer coefficients") from None
    return tuple(residues)


def _encode(coeffs: Sequence[int], p: int) -> int:
    e = 0
    for c in reversed(coeffs):
        e = e * p + c
    return e


_reversed = itemgetter(slice(None, None, -1))  # t[::-1]: base-p digits, most significant first, to coefficients


def _coefficients(enc: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of enc, least significant first: the coefficients it encodes."""
    coeffs = []
    for _ in range(k):
        enc, c = divmod(enc, p)
        coeffs.append(c)
    return tuple(coeffs)


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k in ascending encoding order.

    The encodings below p are the binomials x^k + c. By Lidl and Niederreiter,
    Theorem 3.75, none is irreducible when some prime dividing k does not
    divide p - 1, or when 4 | k and p = 3 mod 4, so the search then starts at p.
    """
    no_binomial = k > 1 and (any((p - 1) % prime for prime in factorize(k)) or (k % 4 == 0 and p % 4 == 3))
    for enc in range(p if no_binomial else 0, p**k):
        f = _coefficients(enc, p, k) + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found; unreachable")


# ---------------------------------------------------------------------------


class FieldElement:
    """One element of a FieldSpec; supports +, -, *, /, ** and hashing.

    The element carries its encoding: FieldSpec.decode records it, so do
    +, - and * on a prime field, where the one coefficient is the encoding,
    and encode() computes it at most once for an element built any other way.
    """

    __slots__ = ("spec", "coeffs", "_enc")

    def __init__(self, spec: "FieldSpec", coeffs: tuple[int, ...], enc: int | None = None):
        self.spec = spec
        self.coeffs = coeffs
        self._enc = enc

    def _lift(self, other) -> "FieldElement | None":
        return self.spec.element(other) if isinstance(other, (FieldElement, int)) else None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            c = (self.coeffs[0] + o.coeffs[0]) % p
            return FieldElement(spec, (c,), c)
        return FieldElement(spec, tuple([(a + b) % p for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FieldElement(self.spec, tuple([-a % p for a in self.coeffs]))

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            c = (self.coeffs[0] - o.coeffs[0]) % p
            return FieldElement(spec, (c,), c)
        return FieldElement(spec, tuple([(a - b) % p for a, b in zip(self.coeffs, o.coeffs)]))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        if spec.k == 1:
            c = self.coeffs[0] * o.coeffs[0] % spec.p
            return FieldElement(spec, (c,), c)
        return FieldElement(spec, spec.mul_coeffs(self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.spec.one
        base = self
        # 0**0 = 1 by convention, which square-and-multiply gives for free
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.spec.q - 2)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def encode(self) -> int:
        """Index of this element in the canonical enumeration order."""
        if self._enc is None:
            self._enc = _encode(self.coeffs, self.spec.p)
        return self._enc

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.spec == other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.coeffs))

    def __repr__(self):
        if self.spec.k == 1:
            return f"{self.coeffs[0]}:F{self.spec.q}"
        terms = [
            f"{c}" if i == 0 else ("x" if c == 1 else f"{c}x") + (f"^{i}" if i > 1 else "")
            for i, c in enumerate(self.coeffs)
            if c
        ]
        return f"({' + '.join(terms) or '0'}):F{self.spec.q}"


NO_LOG = -1  # log of zero, in FieldTables.log and FieldTables.zech


class FieldTables(NamedTuple):
    """Discrete-logarithm tables of one field over its generator alpha."""

    exp: array  # exp[i] = encoding of alpha^i, 0 <= i < q - 1
    log: array  # log[enc] = i with alpha^i = decode(enc); log[0] = NO_LOG
    zech: array  # zech[i] = log(1 + alpha^i), NO_LOG where 1 + alpha^i = 0


class FieldSpec:
    """Immutable description of F_{p^k} plus its arithmetic."""

    __slots__ = ("p", "k", "q", "modulus", "zero", "one", "_reduction", "_alpha", "_q1_factors", "_tables", "_digits")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.zero = FieldElement(self, (0,) * k, 0)
        self.one = FieldElement(self, (1,) + (0,) * (k - 1), 1)
        # x^{k+i} mod modulus for i = 0..k-2, used to fold products back down
        head = tuple(-c % p for c in modulus[:k])
        rows = []
        t = head
        for _ in range(max(0, k - 1)):
            rows.append(t)
            lead = t[k - 1]
            shifted = (0,) + t[: k - 1]
            t = tuple((s + lead * h) % p for s, h in zip(shifted, head)) if lead else shifted
        self._reduction = rows
        self._alpha: FieldElement | None = None
        self._q1_factors: dict[int, int] | None = None
        self._tables: FieldTables | None = None
        self._digits: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None = None

    def mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Product modulo the modulus, which must be monic but need not be irreducible."""
        p, k = self.p, self.k
        if k == 1:
            return (a[0] * b[0] % p,)
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = [c % p for c in prod[:k]]
        for i in range(k - 1):
            c = prod[k + i] % p
            if c:
                row = self._reduction[i]
                for j in range(k):
                    out[j] = (out[j] + c * row[j]) % p
        return tuple(out)

    def element(self, value) -> FieldElement:
        """value itself if an element of this field, else one built from an int (prime-subfield embedding) or coefficient sequence."""
        if isinstance(value, FieldElement):
            if value.spec is not self and value.spec != self:
                raise FieldMismatchError("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElement(self, (value % self.p,) + (0,) * (self.k - 1))
        coeffs = _residues(value, self.p)
        if len(coeffs) != self.k:
            raise DegreeMismatchError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def decode(self, enc: int) -> FieldElement:
        """Element at position enc in the canonical enumeration order, carrying enc; reads the digit tables once built."""
        try:
            enc = index(enc)
        except TypeError:
            raise UnknownChoiceError(f"an encoding of type {type(enc).__name__} is not an integer") from None
        if not 0 <= enc < self.q:
            raise OutOfRangeError(f"encoding {int_text(enc)} out of range for q={int_text(self.q)}")
        if self._digits is not None:
            low, high = self._digits
            hi, lo = divmod(enc, len(low))
            return FieldElement(self, low[lo] + high[hi], enc)
        return FieldElement(self, (enc,) if self.k == 1 else _coefficients(enc, self.p, self.k), enc)

    def elements(self) -> Iterator[FieldElement]:
        """All of F_q in canonical enumeration order, each carrying its encoding; checks the enumeration guard."""
        ensure_enumerable(self.q)
        digits = product(range(self.p), repeat=self.k)
        return map(FieldElement, repeat(self), map(_reversed, digits), count())

    def scan_tables(self) -> FieldTables:
        """Check the enumeration guard, then return the tables, built (with decode's digit tables) on the first call.

        For full-field scans only: the tables cost O(q) time and memory.
        """
        ensure_enumerable(self.q)
        if self._tables is None:
            self._tables = _build_tables(self)
            if self.k > 1:
                self._digits = _digit_tables(self.p, self.k)
        return self._tables

    @property
    def q1_factors(self) -> dict[int, int]:
        if self._q1_factors is None:
            self._q1_factors = factorize(self.q - 1) if self.q > 2 else {}
        return self._q1_factors

    @property
    def alpha(self) -> FieldElement:
        """First element in enumeration order of multiplicative order q - 1.

        For k > 1 the search starts at encoding p, past the constants: their
        orders divide p - 1 < q - 1, so the first generator is the same.
        """
        if self._alpha is None:
            for enc in range(1 if self.k == 1 else self.p, self.q):
                el = self.decode(enc)
                if element_order(el) == self.q - 1:
                    self._alpha = el
                    break
            else:
                raise AssertionError("no generator found; unreachable")
        return self._alpha

    def __eq__(self, other):
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return self is other or (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        mod = ",".join(str(c) for c in self.modulus)
        return f"F_{self.p}^{self.k}(mod {mod})"


def add_logs(zech: array, u: int, v: int) -> int:
    """log(alpha^u + alpha^v) by one Zech lookup; NO_LOG stands for zero on either side and in the result."""
    if u == NO_LOG:
        return v
    if v == NO_LOG:
        return u
    q1 = len(zech)
    z = zech[(v - u) % q1]
    return NO_LOG if z == NO_LOG else (u + z) % q1


def _build_tables(spec: FieldSpec) -> FieldTables:
    p, q1 = spec.p, spec.q - 1
    exp = array("l", [0]) * q1
    log = array("l", [NO_LOG]) * spec.q
    alpha = spec.alpha.coeffs
    t = spec.one.coeffs
    for i in range(q1):
        enc = _encode(t, p)
        exp[i] = enc
        log[enc] = i
        t = spec.mul_coeffs(t, alpha)
    if t != spec.one.coeffs:
        raise AssertionError("alpha^(q-1) != 1; broken field arithmetic")
    # adding 1 changes only the constant coefficient, the lowest base-p digit
    zech = array("l", (log[e - e % p + (e + 1) % p] for e in exp))
    return FieldTables(exp, log, zech)


def _digit_tables(p: int, k: int) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The coefficient tuples of the encodings below p^(k//2) and below p^(k - k//2), in encoding order."""
    low = list(map(_reversed, product(range(p), repeat=k // 2)))
    high = low if k % 2 == 0 else list(map(_reversed, product(range(p), repeat=k - k // 2)))
    return low, high


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...] | None], FieldSpec] = {}


def check_prime_power(p: int, k: int) -> None:
    """Raise unless p and k are integers, then NonPrimeError unless p is prime, then DegreeMismatchError unless k >= 1."""
    check_integer("p", p)
    check_integer("k", k)
    if not is_prime(p):
        raise NonPrimeError(f"{int_text(p)} is not prime")
    if k < 1:
        raise DegreeMismatchError(f"extension degree must be >= 1, got {int_text(k)}")


def make_field(p: int, k: int = 1, modulus: Iterable[int] | None = None) -> FieldSpec:
    """Construct F_{p^k}, validating p prime, k >= 1 and the modulus irreducible."""
    check_prime_power(p, k)
    # trailing zero coefficients name the same polynomial, so they are trimmed before the lookup
    key = (p, k, _ptrim(_residues(modulus, p)) if modulus is not None else None)
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if key[2] is None:
        mod = _find_modulus(p, k)
    else:
        mod = key[2]
        if _pdeg(mod) != k:
            raise DegreeMismatchError(f"modulus degree {_pdeg(mod)} != k = {int_text(k)}")
        if mod[k] != 1:
            raise ReducibleModulusError("modulus must be monic")
        if not _is_irreducible(mod, p):
            # shown as the tuple where its text fits in SHOWN_CHARS + 2 characters, as value_text bounds a repr
            text = ", ".join(map(int_text, mod[:SHOWN_CHARS]))
            shown = f"({text})" if len(text) <= SHOWN_CHARS else f"of degree {int_text(k)}"
            raise ReducibleModulusError(f"modulus {shown} is reducible over F_{int_text(p)}")
    spec = _FIELD_CACHE.get((p, k, mod)) or FieldSpec(p, k, mod)  # one spec whether the modulus is found or given
    _FIELD_CACHE[key] = _FIELD_CACHE[(p, k, mod)] = spec
    return spec


def element_order(el: FieldElement) -> int:
    """Multiplicative order, via the factorization of q - 1."""
    if not isinstance(el, FieldElement):
        raise UnknownChoiceError(f"element_order needs a FieldElement, got a {type(el).__name__}")
    if el.is_zero:
        raise ZeroElementError("zero has no multiplicative order")
    order = el.spec.q - 1
    for prime in el.spec.q1_factors:
        while order % prime == 0 and (el ** (order // prime)) == el.spec.one:
            order //= prime
    return order


def parse_field(text: str) -> tuple[int, int]:
    """Parse a CLI field string 'p^k', or a plain prime-power order q, into (p, k).

    Raises as check_prime_power does, NonPrimeError when q is not a
    prime power, UnknownChoiceError when text is not a string of either
    form, or OutOfRangeError (from errors.integer) when a number in it has
    more digits than the interpreter reads.
    """
    try:
        numbers = [integer(part) for part in text.split("^")] if isinstance(text, str) else []
    except UnknownChoiceError:
        numbers = []  # not integers: refused below like any other shape
    if len(numbers) == 2:
        p, k = numbers
        check_prime_power(p, k)
        return p, k
    if len(numbers) == 1:
        decomposed = prime_power_decompose(numbers[0])
        if decomposed is None:
            raise NonPrimeError(f"{int_text(numbers[0])} is not a prime power")
        return decomposed
    raise UnknownChoiceError(f"cannot parse field {value_text(text)}; expected 'q' or 'p^k'")
