"""Golden digests: one sha256 per family of outputs that a refactor must keep.

Each item feeds its outputs, one line per value, into a sha256 and compares
the hex digest with the pin in golden.json. A mismatch names the first item
that differs, in the order of ITEMS. The test never writes; after a change
that is meant to move an output, regenerate the pins with

    python3 tests/test_golden.py --write

The items import permbinom inside their functions, so that --write can put
src on the path first.

golden_asets.json pins every a-set up to q <= 2^12 apart, one sha256 per
(q, r) block, so a mismatch names its block and the criterion can be held
to the smaller fields alone. --write writes it too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")
ASETS = Path(__file__).with_name("golden_asets.json")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
A_LIST_Q_MAX = 128  # 1,606 admissible cells, every route affordable on all of them
ASET_Q_MAX = 1 << 12  # 895 (q, r) blocks, 1,692 class sets, by Wan-Lidl and brute force
CRITERION_ASET_Q_MAX = 1 << 11  # and by the criterion, the slowest route, up to this


def _cells():
    from permbinom.fields import make_field
    from permbinom.permtest import field_admits
    from permbinom.primes import prime_power_decompose, prime_powers_upto
    from permbinom.sweep import valid_exponents

    for q in prime_powers_upto(A_LIST_Q_MAX):
        spec = make_field(*prime_power_decompose(q))
        for r in (2, 3):
            if field_admits(q, r):
                for n in valid_exponents(q, r):
                    yield spec, n, r


def _a_lists(method: str):
    from permbinom.permtest import enumerate_perm_binomials

    for spec, n, r in _cells():
        yield f"{spec.q} {n} {r} {[a.encode() for a in enumerate_perm_binomials(spec, n, r, method=method)]}"


def _sweep_report():
    from permbinom.sweep import SweepConfig, emit_report, run_verify_sweep

    result = run_verify_sweep(SweepConfig(q_max=A_LIST_Q_MAX))
    yield emit_report(result._replace(elapsed_ms=0), "json").decode()


def _selftest_report():
    """Exit code and merged report of the selftest sweeps at their default q_max (343 and 400), elapsed_ms set to 0."""
    from permbinom import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        rc = cli.main(["selftest", "--only", "r2-sweep,r3-sweep", "--report", str(path), "--out", os.devnull])
        report = json.loads(path.read_text())
    yield f"rc={rc}"
    yield json.dumps({**report, "elapsed_ms": 0}, indent=2)


def _traces():
    from permbinom.curves import compute_kappa, pi_trace
    from permbinom.primes import is_prime

    for p in range(5, 5_000):
        if is_prime(p):
            yield f"{p} {compute_kappa(p).kappa} {[pi_trace(p, j) for j in range(1, 9)]}"


def _refined_bounds():
    from permbinom.counts import refined_bounds_r3

    for q in range(1, 10**5, 3):
        yield f"{q} {refined_bounds_r3(q)}"
    for p in (7, 13):
        for k in range(1, 1_001):
            yield f"{p}^{k} {refined_bounds_r3(p**k)}"


def _cli_queries():
    """Exit code and stdout of each query the cli-oneshot benchmark draws from, run through cli.main."""
    import contextlib
    import io

    from permbinom import cli

    sys.path.insert(0, str(PERFBENCH))  # workloads imports its sibling tracing by bare name
    try:
        from workloads import _cli_pools
    finally:
        sys.path.remove(str(PERFBENCH))
    for variants in _cli_pools("full").values():
        for query in variants:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(query))
            yield f"{' '.join(query)} rc={rc} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def _probe_findings():
    from permbinom.sharpness import decimal_string, sharpness_probe

    for f in sharpness_probe(73, 35).findings:
        yield f"{f.k} {f.gcd_ok} {decimal_string(f.deviation_lo)} {decimal_string(f.deviation_hi)} {f.deviation}"
        # the exact ends too, which differ past the 42nd place; hex(), unlike str(), takes any size
        yield " ".join(hex(x) for end in (f.deviation_lo, f.deviation_hi) for x in (end.numerator, end.denominator))


# one query of each subcommand but selftest, whose own lines carry elapsed times, and the formats each accepts
CLI_FORMAT_QUERIES = (
    (("enumerate", "--field", "3^3", "--n", "1", "--r", "2"), ("json", "text", "csv")),
    (("count", "--field", "73", "--n", "35", "--r", "3", "--verify"), ("json", "text")),
    (("count", "--field", "7^200", "--n", "1", "--r", "2"), ("json", "text")),
    (("bounds", "--field", "73", "--r", "3"), ("json", "text")),
    (("kappa", "--p", "73"), ("json", "text")),
    (("trace", "--p", "73", "--j", "10"), ("json", "text")),
    (("curve", "--field", "5^2", "--A", "1", "--B", "inv4"), ("json", "text")),
    (("char", "--field", "7^2", "--x", "3"), ("json", "text")),
    (("char", "--field", "7^2", "--power-sum", "8"), ("json", "text")),
    (("char", "--field", "7^2"), ("json", "text")),
    (("sharpness", "--p", "73", "--n", "35", "--depth", "12"), ("json", "text")),
)


def _cli_formats():
    """Exit code and the bytes each query writes through --out, in every format its subcommand accepts."""
    from permbinom import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "answer"
        for query, formats in CLI_FORMAT_QUERIES:
            for fmt in formats:
                rc = cli.main([*query, "--format", fmt, "--out", str(path)])
                yield f"{' '.join(query)} --format {fmt} rc={rc}"
                yield path.read_bytes().decode()


ITEMS = {
    "criterion a-lists, q <= 128": lambda: _a_lists("criterion"),
    "wanlidl a-lists, q <= 128": lambda: _a_lists("wanlidl"),
    "bruteforce a-lists, q <= 128": lambda: _a_lists("bruteforce"),
    "sweep json report, q <= 128, elapsed_ms 0": _sweep_report,
    "selftest --report of r2-sweep and r3-sweep, elapsed_ms 0": _selftest_report,
    "kappa_p and s_1..s_8, 5 <= p < 5000": _traces,
    "refined_bounds_r3: q = 1 mod 3 below 10^5, 7^k and 13^k for k <= 1000": _refined_bounds,
    "sharpness_probe(73, 35) findings": _probe_findings,
    "cli stdout of the 74 cli-oneshot queries": _cli_queries,
    "cli --out bytes of each subcommand in each --format": _cli_formats,
}


def aset_blocks(q_max: int):
    """(q, r, spec, firsts) for every (q, r) block with q <= q_max, by q then r.

    spec is a fresh twin, so its tables die with it; firsts maps each class
    of n (n mod r) to its least n, which fixes the class's a-set.
    """
    from permbinom.fields import FieldSpec, make_field
    from permbinom.permtest import field_admits
    from permbinom.primes import prime_power_decompose, prime_powers_upto
    from permbinom.sweep import valid_exponents

    for q in prime_powers_upto(q_max):
        p, k = prime_power_decompose(q)
        spec = FieldSpec(p, k, make_field(p, k).modulus)
        for r in (2, 3):
            if field_admits(q, r):
                firsts: dict[int, int] = {}
                for n in valid_exponents(q, r):
                    firsts.setdefault(n % r, n)
                yield q, r, spec, firsts


def aset_digest(spec, r: int, firsts: dict[int, int], method: str) -> str:
    """sha256 over one line per class of n: the class, then the sorted encodings of its a-set."""
    from permbinom.permtest import enumerate_perm_binomials

    lines = (f"{c} {sorted(enumerate_perm_binomials(spec, n, r, method, encoded=True))}\n" for c, n in sorted(firsts.items()))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def aset_key(q: int, r: int) -> str:
    return f"q={q} r={r}"


def digests() -> dict[str, str]:
    out = {}
    for name, lines in ITEMS.items():
        h = hashlib.sha256()
        for line in lines():
            h.update(line.encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def test_golden_digests_hold():
    pinned = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(pinned) == list(ITEMS), "golden.json names other items than ITEMS; regenerate with --write"
    differing = [name for name in ITEMS if got[name] != pinned[name]]
    assert not differing, f"first differing item: {differing[0]!r} (all: {differing})"


def test_every_a_set_up_to_q_4096_holds_by_each_route():
    pinned = json.loads(ASETS.read_text())
    differing, blocks, classes = [], [], 0
    for q, r, spec, firsts in aset_blocks(ASET_Q_MAX):
        blocks.append(aset_key(q, r))
        classes += len(firsts)
        methods = ("wanlidl", "bruteforce", "criterion") if q <= CRITERION_ASET_Q_MAX else ("wanlidl", "bruteforce")
        differing += [(aset_key(q, r), m) for m in methods if aset_digest(spec, r, firsts, m) != pinned.get(aset_key(q, r))]
    assert blocks == list(pinned), "golden_asets.json names other blocks; regenerate with --write"
    assert (len(blocks), classes) == (895, 1692)
    assert not differing, f"first differing (block, route): {differing[0]} ({len(differing)} in all)"


def test_the_a_set_digests_catch_a_swapped_zech_pair_and_another_modulus():
    from permbinom.fields import FieldSpec, make_field

    pinned = json.loads(ASETS.read_text())
    spec = FieldSpec(5, 3, make_field(5, 3).modulus)
    zech = spec.scan_tables().zech
    zech[0], zech[1] = zech[1], zech[0]  # log 2 and log(1 + alpha); not every swap moves an a-set
    assert all(aset_digest(spec, 2, {1: 1}, m) != pinned[aset_key(125, 2)] for m in ("wanlidl", "bruteforce"))
    # F_9 by x^2 + x + 2, not the x^2 + 1 make_field picks: the same counts, other encodings
    other = make_field(3, 2, (2, 1, 1))
    assert other.modulus != make_field(3, 2).modulus
    assert all(aset_digest(other, 2, {1: 1}, m) != pinned[aset_key(9, 2)] for m in ("wanlidl", "bruteforce", "criterion"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 tests/test_golden.py --write")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    GOLDEN.write_text(json.dumps(digests(), indent=2) + "\n")
    asets = {aset_key(q, r): aset_digest(spec, r, firsts, "wanlidl") for q, r, spec, firsts in aset_blocks(ASET_Q_MAX)}
    ASETS.write_text(json.dumps(asets, indent=2) + "\n")
    print(f"wrote {GOLDEN} and {ASETS}")
