"""Command line front end.

Exit codes: 0 all verified / computed, 1 a mathematical cross-check
disagreed, 2 usage or configuration error, or an output file that cannot
be written. In JSON, s_j, s_k and the sharpness convergents are decimal
strings and the Masuda-Zieve bounds "num/den" strings; q, the counts and
the refined bounds are JSON numbers, however large.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .characters import character_classes, cubic_char, power_sum, quadratic_char
from .counts import FORMATS, REPORT_SCALE, bound_pairs, build_count_report, render, report_to_dict
from .curves import compute_kappa, count_points_extension, pi_trace
from .errors import (
    CrossCheckFailedError,
    DivisibilityViolationError,
    EvenCharacteristicError,
    PermBinomError,
    UnknownChoiceError,
    int_text,
    integer,
    refuse_unprintable,
    value_text,
)
from .fields import FieldSpec, ensure_enumerable, make_field, parse_field
from .permtest import ROUTES, check_field, enumerate_perm_binomials

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _write(path: str | None, data: bytes) -> None:
    """The one writer of the CLI: data to the file at path, or else to stdout."""
    if path:
        with open(path, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data.decode())


def _emit(args, payload: dict, text: str | None = None, rows=None) -> None:
    """Write the answer, rendered in args.format, to args.out or else stdout."""
    _write(args.out, render(args.format, payload, text, rows))


def _field_spec(args) -> FieldSpec:
    p, k = parse_field(args.field)
    try:
        modulus = [integer(c) for c in args.modulus.split(",")] if args.modulus else None
    except UnknownChoiceError:
        raise UnknownChoiceError(f"cannot parse modulus {value_text(args.modulus)}; expected integers c0,c1,...,1") from None
    # refuse before the modulus search: every field command but char --x scans the field,
    # and char --x prints q and an encoding below it
    if getattr(args, "x", None) is None:
        ensure_enumerable(p, k)
    else:
        refuse_unprintable(f"an answer on q = {int_text(p)}^{int_text(k)}", p, 2 * k, 1)
    return make_field(p, k, modulus)


def _element(spec: FieldSpec, text: str):
    """Parse a CLI element: canonical encoding in [0, q), or the literal inv4."""
    if text == "inv4":
        if spec.p == 2:
            raise EvenCharacteristicError(f"inv4 needs odd characteristic: 4 = 0 in F_{int_text(spec.q)}")
        return spec.element(4).inverse()
    try:
        enc = integer(text)
    except UnknownChoiceError:
        raise UnknownChoiceError(f"cannot parse element {value_text(text)}; expected an encoding or inv4") from None
    return spec.decode(enc)  # refuses an encoding outside [0, q)


def _cmd_enumerate(args) -> int:
    spec = _field_spec(args)
    a_values = enumerate_perm_binomials(spec, args.n, args.r, method=args.method, encoded=True)
    cell = (spec.q, spec.p, spec.k, args.n, args.r, args.method)
    _emit(
        args,
        {
            "q": spec.q, "p": spec.p, "k": spec.k, "n": args.n, "r": args.r,
            "method": args.method, "count": len(a_values), "a_values": a_values,
        },
        text=(
            f"q={spec.q} n={args.n} r={args.r} method={args.method} count={len(a_values)}\n"
            f"a: {' '.join(map(str, a_values))}\n"
        ),
        rows=[("q", "p", "k", "n", "r", "method", "a_enc")] + [cell + (enc,) for enc in a_values],
    )
    return EXIT_OK


def _cmd_count(args) -> int:
    p, k = parse_field(args.field)
    refuse = partial(refuse_unprintable, f"the count for q = {int_text(p)}^{int_text(k)}", p, 2 * k, REPORT_SCALE)
    _emit(args, report_to_dict(build_count_report(p, k, args.n, args.r, verify=args.verify, before_work=refuse)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    p, k = parse_field(args.field)
    q = p**k
    check_field(q, args.r)
    refuse_unprintable(f"the bounds for q = {int_text(p)}^{int_text(k)}", p, 2 * k, REPORT_SCALE)
    mz_lo, mz_hi, cor_lo, cor_hi = bound_pairs(q, args.r)
    _emit(args, {
        "q": q, "r": args.r,
        "mz_lower": str(mz_lo), "mz_upper": str(mz_hi),
        "cor_lower": cor_lo, "cor_upper": cor_hi,
    })
    return EXIT_OK


def _cmd_kappa(args) -> int:
    rec = compute_kappa(args.p)
    _emit(
        args,
        {"p": rec.p, "kappa": rec.kappa, "residue": rec.residue, "curve_count": rec.curve_count},
        text=f"kappa({rec.p}) = {rec.kappa} (residue {rec.residue}, |E| = {rec.curve_count})\n",
    )
    return EXIT_OK


def _cmd_trace(args) -> int:
    p, j = args.p, args.j
    compute_kappa(p)  # a bad p fails here, before the size check
    refuse_unprintable(f"s_{int_text(j)} for p = {int_text(p)}", p, j, 2)  # |s_j| <= 2 p^(j/2)
    value = pi_trace(p, j)
    _emit(args, {"p": p, "j": j, "s_j": str(value)}, text=f"s_{j}(pi_{p}) = {value}\n")
    return EXIT_OK


def _cmd_curve(args) -> int:
    spec = _field_spec(args)
    a4 = _element(spec, args.A)
    a6 = _element(spec, args.B)
    count = count_points_extension(spec, a4, a6)
    trace = spec.q + 1 - count
    _emit(
        args,
        {"q": spec.q, "p": spec.p, "k": spec.k, "a4": a4.encode(), "a6": a6.encode(), "count": count, "trace": trace},
        text=f"|E(F_{spec.q})| = {count} for y^2 = x^3 + {a4!r} x + {a6!r} (trace {trace})\n",
    )
    return EXIT_OK


def _cmd_char(args) -> int:
    spec = _field_spec(args)
    q = spec.q
    if args.x is not None:
        x = _element(spec, args.x)
        payload = {
            "q": q, "x": x.encode(),
            "quadratic": None if spec.p == 2 else quadratic_char(spec, x),
            "cubic": cubic_char(spec, x) if q % 3 == 1 else None,
        }
    elif args.power_sum is not None:
        total = power_sum(spec, args.power_sum)
        payload = {"q": q, "m": args.power_sum, "power_sum": total.encode()}
    else:
        payload = character_classes(spec)
    _emit(args, payload)
    return EXIT_OK


def _cmd_sharpness(args) -> int:
    from .sharpness import decimal_string, sharpness_probe  # local: only this query compiles it

    probe = sharpness_probe(args.p, args.n, depth=args.depth, k_max=args.k_max)
    convergents = probe.convergents_two_pi + probe.convergents_pi
    refuse_unprintable(f"the convergents at depth {int_text(probe.depth)}", max(map(max, convergents), default=1), 2, 1)
    findings = [
        {
            "k": f.k,
            "deviation": f.deviation,
            "deviation_lo": decimal_string(f.deviation_lo),
            "deviation_hi": decimal_string(f.deviation_hi),
            "gcd_ok": f.gcd_ok,
        }
        for f in probe.findings
    ]
    lines = [f"p={probe.p} n={probe.n} kappa={probe.kappa} theta={probe.theta}"]
    for f in findings:
        flag = "" if f["gcd_ok"] else "  [n shares a factor with (p^k-1)/3]"
        lines.append(f"k={f['k']}: d_k = {f['deviation']}{flag}")
    _emit(
        args,
        {
            "p": probe.p, "n": probe.n, "kappa": probe.kappa, "theta": probe.theta,
            "depth": probe.depth,
            "convergents_two_pi": [[str(num), str(den)] for num, den in probe.convergents_two_pi],
            "convergents_pi": [[str(num), str(den)] for num, den in probe.convergents_pi],
            "findings": findings,
        },
        text="\n".join(lines) + "\n",
    )
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .selftest import AcceptanceSuite
    from .sweep import emit_report, merge_results

    suite = AcceptanceSuite(jobs=args.jobs, q_max=args.q_max)
    names = None if args.only is None else args.only.split(",")
    results = suite.run(names)
    lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name} ({r.elapsed_ms / 1000:.1f}s): {r.detail}" for r in results]
    lines.append(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    _emit(
        args,
        {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail, "elapsed_ms": r.elapsed_ms}
                for r in results
            ],
            "passed": all(r.passed for r in results),
        },
        text="\n".join(lines) + "\n",
        rows=[("name", "passed", "elapsed_ms", "detail")]
        + [(r.name, r.passed, r.elapsed_ms, r.detail) for r in results],
    )
    if args.report:
        _write(args.report, emit_report(merge_results([suite.sweep(2), suite.sweep(3)]), args.report_format))
    return EXIT_OK if all(r.passed for r in results) else EXIT_MATH


def _integer_arg(text: str) -> int:
    """errors.integer as an argparse type: its refusal becomes argparse's usage error in place of "invalid integer value: '<text>'"."""
    try:
        return integer(text)
    except PermBinomError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _option(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding the one option add_argument(*args, **kwargs) declares."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbinom",
        description="Enumerate, count and cross-validate permutation binomials x^n (x^((q-1)/r) + a).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each option that several subcommands share is declared once, as a parent; parents' options come first
    field = _option("--field", required=True, help="finite field, 'p' or 'p^k'")
    modulus = _option("--modulus", help="irreducible modulus c0,c1,...,1 (constant first)")
    n = _option("--n", type=_integer_arg, required=True)
    r = _option("--r", type=_integer_arg, required=True, help="2 or 3")
    p = _option("--p", type=_integer_arg, required=True)

    p_enum = sub.add_parser("enumerate", parents=[field, modulus, n, r], help="list admissible a values")
    p_enum.add_argument("--method", choices=tuple(ROUTES), default="criterion")
    p_enum.set_defaults(handler=_cmd_enumerate)

    p_count = sub.add_parser("count", parents=[field, n, r], help="closed-form count with bounds")
    p_count.add_argument("--verify", action="store_true", help="confirm by brute force, the criterion and Wan-Lidl")
    p_count.set_defaults(handler=_cmd_count)

    p_bounds = sub.add_parser("bounds", parents=[field, r], help="Masuda-Zieve and refined count bounds")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_kappa = sub.add_parser("kappa", parents=[p], help="Frobenius trace of y^2 = x^3 + 1/4 at p")
    p_kappa.set_defaults(handler=_cmd_kappa)

    p_trace = sub.add_parser("trace", parents=[p], help="trace s_j of the Frobenius power pi_p^j")
    p_trace.add_argument("--j", type=_integer_arg, required=True)
    p_trace.set_defaults(handler=_cmd_trace)

    p_curve = sub.add_parser("curve", parents=[field, modulus], help="count points of y^2 = x^3 + A x + B")
    p_curve.add_argument("--A", required=True, help="element encoding, or inv4")
    p_curve.add_argument("--B", required=True, help="element encoding, or inv4")
    p_curve.set_defaults(handler=_cmd_curve)

    p_char = sub.add_parser("char", parents=[field, modulus], help="character values, class counts, power sums")
    group = p_char.add_mutually_exclusive_group()
    group.add_argument("--x", help="element encoding to evaluate both characters at")
    group.add_argument("--power-sum", type=_integer_arg, metavar="M", help="sum of x^M over the whole field")
    p_char.set_defaults(handler=_cmd_char)

    p_sharp = sub.add_parser("sharpness", parents=[p, n], help="probe extensions where d_k approaches +-2")
    p_sharp.add_argument("--depth", type=_integer_arg, default=30, help="continued-fraction depth")
    p_sharp.add_argument("--k-max", type=_integer_arg, default=10_000, help="largest extension degree probed")
    p_sharp.set_defaults(handler=_cmd_sharpness)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--jobs", type=_integer_arg, default=1, help="worker processes for the sweeps, at most one per CPU")
    p_self.add_argument("--q-max", type=_integer_arg, help="cap both sweeps at this q (default 343 / 400)")
    p_self.add_argument("--only", help="comma-separated subset of checks")
    p_self.add_argument("--report", metavar="PATH", help="also write the merged sweep report")
    p_self.add_argument("--report-format", choices=FORMATS, default="json")
    p_self.set_defaults(handler=_cmd_selftest)

    for name, cmd in sub.choices.items():
        formats = FORMATS if name in ("enumerate", "selftest") else FORMATS[:-1]  # csv only for a table
        cmd.add_argument("--format", choices=formats, default="text" if name == "selftest" else "json")
        cmd.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (CrossCheckFailedError, DivisibilityViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (PermBinomError, OSError) as exc:  # OSError: --out or --report not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
