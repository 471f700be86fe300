"""Permutation binomials x^n (x^((q-1)/r) + a) over finite fields, r in {2, 3}.

Exact closed-form counts cross-validated against character criteria, brute
force, Wan-Lidl index testing and elliptic-curve point counts.

`import permbinom` loads fields, characters, permtest, counts and curves,
what a single CLI query runs. The sweep and selftest names (SweepConfig,
run_verify_sweep, AcceptanceSuite, ...) are in __all__ too, but their
modules load on first use of one of them. The sharpness module
(continued-fraction probe) is deliberately not re-exported; import
permbinom.sharpness directly. The records (CountReport, SweepConfig,
...) are NamedTuples: immutable, and they compare and iterate as tuples.
"""

from .characters import character_classes, cubic_char, cubic_roots_of_unity, power_sum, quadratic_char
from .counts import (
    CountReport,
    build_count_report,
    closed_count_r2,
    closed_count_r3,
    epsilons,
    masuda_zieve_bounds,
    refined_bounds_r3,
    report_to_dict,
)
from .curves import (
    KappaRecord,
    char2_cubic_sum,
    compute_kappa,
    count_points_extension,
    count_points_prime,
    pi_trace,
    point_count_residue,
)
from .errors import (
    BadFieldForCubicError,
    CrossCheckFailedError,
    DivisibilityViolationError,
    EnumerationGuardError,
    EvenCharacteristicError,
    GcdViolationError,
    PermBinomError,
)
from .fields import (
    FieldElement,
    FieldSpec,
    element_order,
    make_field,
    parse_field,
)
from .permtest import enumerate_perm_binomials

__version__ = "0.1.0"

# name -> module loaded by the first lookup of it (sweep pulls in a process pool)
_LAZY = {
    "AcceptanceSuite": "selftest",
    "CheckResult": "selftest",
    "SweepConfig": "sweep",
    "SweepFailure": "sweep",
    "SweepResult": "sweep",
    "emit_report": "sweep",
    "run_verify_sweep": "sweep",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "AcceptanceSuite",
    "BadFieldForCubicError",
    "CheckResult",
    "CountReport",
    "CrossCheckFailedError",
    "DivisibilityViolationError",
    "EnumerationGuardError",
    "EvenCharacteristicError",
    "FieldElement",
    "FieldSpec",
    "GcdViolationError",
    "KappaRecord",
    "PermBinomError",
    "SweepConfig",
    "SweepFailure",
    "SweepResult",
    "build_count_report",
    "char2_cubic_sum",
    "character_classes",
    "closed_count_r2",
    "closed_count_r3",
    "compute_kappa",
    "count_points_extension",
    "count_points_prime",
    "cubic_char",
    "cubic_roots_of_unity",
    "element_order",
    "emit_report",
    "enumerate_perm_binomials",
    "epsilons",
    "make_field",
    "masuda_zieve_bounds",
    "parse_field",
    "pi_trace",
    "point_count_residue",
    "power_sum",
    "quadratic_char",
    "refined_bounds_r3",
    "report_to_dict",
    "run_verify_sweep",
    "__version__",
]
