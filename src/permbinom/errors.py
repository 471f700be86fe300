"""Exception types for contract violations, and the shared checks that raise them.

Every precondition failure raises a distinct class so callers (and the
sweep harness, which must never die mid-run) can tell configuration
mistakes apart from genuine mathematical disagreements.

Two refusals are written here once: check_integer refuses an integer
argument that is not an int or lies below its floor, and check_choice
refuses a name (a method, check or report format) that is not one of the
accepted strings.

int_text and value_text are the one way a refusal shows what the caller
gave, under one size bound, SHOWN_CHARS: an int of at most that many
digits in decimal and a longer one by its bit length, a str whose repr
fits in SHOWN_CHARS + 2 characters by that repr and any other by its
length, and anything else by its type. So no refusal echoes more than a
line of its input, and none reads differently under another
sys.set_int_max_str_digits.
"""

import math
import sys
from operator import index


class PermBinomError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeError(PermBinomError, ValueError):
    """Field characteristic is not a prime."""


class ReducibleModulusError(PermBinomError, ValueError):
    """Supplied modulus polynomial is not irreducible over F_p."""


class DegreeMismatchError(PermBinomError, ValueError):
    """Extension degree below 1, or a modulus or coefficient list of another degree."""


class FieldMismatchError(PermBinomError, ValueError):
    """Operands belong to different field specs."""


class ZeroElementError(PermBinomError, ValueError):
    """Zero element where a nonzero one is required (e.g. element order)."""


class EvenCharacteristicError(PermBinomError, ValueError):
    """Operation requires odd q / odd characteristic."""


class BadFieldForCubicError(PermBinomError, ValueError):
    """Cubic characters need q = 1 (mod 3)."""


class GcdViolationError(PermBinomError, ValueError):
    """Exponent n fails the gcd precondition of a criterion or formula."""


class EvenPrimeError(PermBinomError, ValueError):
    """p = 2 not supported by this point-count routine."""


class SmallPrimeError(PermBinomError, ValueError):
    """p = 3 not supported by the congruence residue."""


class UnsupportedPrimeError(PermBinomError, ValueError):
    """Prime outside the domain of the trace-coefficient definition."""


class CrossCheckFailedError(PermBinomError, ArithmeticError):
    """Two independent computation routes disagree; a real math bug."""


class DivisibilityViolationError(PermBinomError, ArithmeticError):
    """Closed-form numerator failed an exact divisibility requirement."""


class EnumerationGuardError(PermBinomError, ValueError):
    """Refused to enumerate a field larger than the configured guard."""


class SweepConfigError(PermBinomError, ValueError):
    """A sweep's q_max, r_set, seed or jobs is not an integer or is out of range (a seed past the interpreter's int-to-str digit limit)."""


class ProbeConfigError(PermBinomError, ValueError):
    """A sharpness probe's n, depth, k_max or extension degree k is not positive."""


class FactorizationLimitError(PermBinomError, ValueError):
    """factorize ran out of Pollard rho steps before splitting a cofactor, so a factorization or a primality proof is refused."""


class AnswerTooLargeError(PermBinomError, ValueError):
    """An answer (a trace s_j, or q and the counts and bounds on F_q) could have more digits than the interpreter prints."""


class OutOfRangeError(PermBinomError, ValueError):
    """An integer argument outside its domain: n, r, an exponent, an index, a degree or an encoding, or a CLI integer of more digits than the interpreter reads."""


class UnknownChoiceError(PermBinomError, ValueError):
    """A method, check, report format or field string that names none of the accepted choices, or an integer argument, encoding or coefficient that is not an integer.

    check_choice raises every "unknown <kind> ..." refusal of a name.
    """


SHOWN_CHARS = 64  # the most digits, or characters between the quotes of a repr, that a refusal shows of one value


def int_text(n: int) -> str:
    """n for a refusal message: in decimal where it has at most SHOWN_CHARS digits, or else by its bit length ("a 997-bit integer")."""
    if -(10**SHOWN_CHARS) < n < 10**SHOWN_CHARS:
        return str(n)
    return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit integer"


def value_text(value) -> str:
    """value for a refusal message: a str by its repr where that has at most SHOWN_CHARS + 2 characters and else by its length, an int by int_text, anything else by its type alone.

    The repr is taken of at most SHOWN_CHARS + 1 characters, so a long
    str is never escaped whole, and a short one that repr escapes (a
    control or unprintable character takes up to 10) is named by its
    length like a long one.
    """
    if isinstance(value, str):
        shown = repr(value[: SHOWN_CHARS + 1])
        return shown if len(shown) <= SHOWN_CHARS + 2 else f"a {len(value)}-character str"
    return int_text(value) if isinstance(value, int) else f"a {type(value).__name__}"


def check_choice(kind: str, value, choices) -> str:
    """value when it is a str in choices, or else UnknownChoiceError naming it by value_text.

    The one refusal of a named choice: every method, check and report
    format a caller picks by name passes through it.
    """
    if isinstance(value, str) and value in choices:
        return value
    raise UnknownChoiceError(f"unknown {kind} {value_text(value)}")


def check_integer(name: str, value, low: int | None = None) -> int:
    """value as an int by operator.index, so 2.0 and "2" raise UnknownChoiceError, not truncated or parsed; below low, OutOfRangeError.

    The one integer refusal: every validator and public entry point that
    takes an integer runs it first.
    """
    try:
        value = index(value)
    except TypeError:
        raise UnknownChoiceError(f"{name} must be an integer, got a {type(value).__name__}") from None
    if low is not None and value < low:
        raise OutOfRangeError(f"{name} must be at least {low}, got {int_text(value)}")
    return value


def check_divides(r: int, q: int) -> None:
    """Raise OutOfRangeError unless the integer r divides q - 1, as r must for x^n (x^((q-1)/r) + a) over F_q."""
    if (q - 1) % r:
        raise OutOfRangeError(f"r = {int_text(r)} must divide q - 1 = {int_text(q - 1)}")


def integer(text: str) -> int:
    """The int text spells in ASCII digits after an optional "-", the one CLI integer reader; int() alone also reads "_", spaces and other scripts' digits.

    Anything else raises UnknownChoiceError, naming text by value_text.
    More digits than the interpreter reads (sys.get_int_max_str_digits(),
    0: none) raise OutOfRangeError by their count, before int() is called,
    so a well-formed integer is never called malformed.
    """
    digits = text.removeprefix("-")
    if not (text.isascii() and digits.isdigit()):
        raise UnknownChoiceError(f"not an integer: {value_text(text)}")
    if len(digits) > (limit := sys.get_int_max_str_digits()) > 0:
        raise OutOfRangeError(f"an integer of {len(digits)} digits is past {limit}, the interpreter's str-to-int digit limit")
    return int(text)


def refuse_unprintable(what: str, p: int, e: int, scale: int) -> None:
    """Raise AnswerTooLargeError if integers up to scale * p^(e/2) may print past the interpreter's limit.

    The limit is sys.get_int_max_str_digits() (0: none). scale * p^(e/2)
    has more than `limit` digits iff scale^2 p^e >= 10^(2 limit); the
    logarithms decide unless they land within 1 of the edge. From
    e = 7 limit on, any p >= 2 is past it (2^7 > 10^2), decided before e
    meets a float, which it may overflow.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    excess = math.inf if p > 1 and e >= 7 * limit else e * math.log10(p) + 2 * math.log10(scale) - 2 * limit
    if excess > 1 or (excess > -1 and scale * scale * p**e >= 10 ** (2 * limit)):
        raise AnswerTooLargeError(f"{what} may have more than {limit} digits, the interpreter's int-to-str limit")
