"""Verification sweep and the command line wrapper around it."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from permbinom import cli, counts, selftest, sweep
from permbinom.curves import pi_trace
from permbinom.errors import DivisibilityViolationError, EnumerationGuardError, SweepConfigError, int_text
from permbinom.fields import make_field
from permbinom.permtest import enumerate_perm_binomials
from permbinom.selftest import AcceptanceSuite
from permbinom.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    SweepFailure,
    SweepResult,
    emit_report,
    run_verify_sweep,
    valid_exponents,
)

PINNED_F73_SET = [0, 2, 4, 16, 18, 21, 22, 30, 32, 33, 37, 45, 55, 57, 68, 71]


@pytest.fixture(scope="module")
def sweep199():
    # One sweep reused by several tests; q = 199 keeps it a few seconds.
    return run_verify_sweep(SweepConfig(q_max=199))


def _index(result):
    return {(c["q"], c["n"], c["r"]): c for c in result.cells}


def test_sweep_has_no_failures_and_matches_known_cells(sweep199):
    assert sweep199.failures == ()
    cells = _index(sweep199)
    assert cells[(73, 35, 3)]["closed_count"] == 16
    assert cells[(73, 35, 3)]["criterion_count"] == 16
    assert cells[(13, 1, 2)]["closed_count"] == 5
    assert cells[(4, 1, 3)]["closed_count"] == 1
    assert all(c["ok"] for c in sweep199.cells)


def test_sweep_cells_are_ordered_and_shaped(sweep199):
    keys = [(c["q"], c["n"], c["r"]) for c in sweep199.cells]
    assert keys == sorted(keys)
    assert set(sweep199.cells[0]) == set(CSV_COLUMNS)
    for c in sweep199.cells:
        if c["r"] == 2:
            assert c["epsilon1"] is None and c["s_k"] is None and c["cor_lower"] is None
            assert c["closed_count"] == (c["q"] - 2 + (-1) ** (c["n"] % 2)) // 2
        else:
            assert c["epsilon1"] in (-2, 1) and c["epsilon2"] in (-2, 1)
            int(c["s_k"])  # decimal string
            assert c["cor_lower"] <= c["closed_count"] <= c["cor_upper"]


def test_sweep_brute_force_coverage(sweep199):
    small = [c for c in sweep199.cells if c["q"] <= 100]
    large = [c for c in sweep199.cells if c["q"] > 100]
    assert small and large
    assert all(c["brute_count"] == c["criterion_count"] for c in small)
    sampled = [c for c in large if c["brute_count"] is not None]
    assert all(c["brute_count"] == c["criterion_count"] for c in sampled)
    rate = len(sampled) / len(large)
    assert 0.02 < rate < 0.25  # fixed-seed 10% sample, loose band


def test_sweep_deterministic_across_runs_and_jobs():
    cfg1 = SweepConfig(q_max=127, jobs=1)
    cfg2 = SweepConfig(q_max=127, jobs=2)
    a, b, c = run_verify_sweep(cfg1), run_verify_sweep(cfg2), run_verify_sweep(cfg1)
    assert a.cells == b.cells == c.cells  # includes which cells got sampled
    assert a.failures == b.failures == c.failures


def test_wanlidl_route_agrees_in_sweep():
    result = run_verify_sweep(SweepConfig(q_max=13))
    assert result.cells and result.failures == ()


@pytest.mark.parametrize("swap", [False, True], ids=["drop", "swap"])
def test_sweep_records_a_wanlidl_disagreement(monkeypatch, swap):
    real = counts.enumerate_perm_binomials

    def wanlidl_loses_one(spec, n, r, method="criterion", *, encoded=False):
        found = real(spec, n, r, method=method)
        if method == "wanlidl" and found:
            # drop the last a, or trade it for one outside the set (same count)
            outside = [next(x for x in spec.elements() if x not in found)] if swap else []
            found = found[:-1] + outside
        return [a.encode() for a in found] if encoded else found

    # one failure per (q, r, class of n) whose a-set is not empty
    clean = run_verify_sweep(SweepConfig(q_max=13))
    want = {(c["q"], c["r"], c["n"] % c["r"]) for c in clean.cells if c["criterion_count"]}
    monkeypatch.setattr(counts, "enumerate_perm_binomials", wanlidl_loses_one)
    result = run_verify_sweep(SweepConfig(q_max=13))
    compared = [f for f in result.failures if f.route_b == "wanlidl"]
    assert {(f.q, f.r, f.n % f.r) for f in compared} == want
    assert len(compared) == len(want)
    assert {f.route_a for f in compared} == {"criterion"}
    assert all(("b-only=[]" in f.diff) != swap for f in compared)
    # a lone a dropped or added splits its orbit too, which the closure check of Wan-Lidl names
    split = [f for f in result.failures if f not in compared]
    assert {(f.route_a, f.route_b) for f in split} == {("wanlidl", "symmetry")}
    assert {(f.q, f.r, f.n % f.r) for f in split} <= want
    # every cell of a disputed class is marked bad, and only those
    assert [c["ok"] for c in result.cells] == [(c["q"], c["r"], c["n"] % c["r"]) not in want for c in result.cells]

    def ok_total(res):
        return sum(int(m) for m in re.findall(r" ok=(\d+) ", emit_report(res, "text").decode()))

    assert ok_total(result) == ok_total(clean) - sum(c["criterion_count"] > 0 for c in clean.cells)


def _split_one_orbit(monkeypatch, route, drop_pair):
    """Sweep q <= 25 with one member (or a and -a) of one F_25 orbit dropped from route's r = 2, odd-n set.

    Every a-set is a union of orbits of a -> a^p and a -> omega a
    (omega^r = 1). Dropping a and -a leaves a set that only the Frobenius
    part of the closure check can fault. Returns the result, the orbit,
    the dropped encodings and the size of the whole set.
    """
    clean = run_verify_sweep(SweepConfig(q_max=25))
    assert clean.failures == ()
    spec = make_field(5, 2)
    log = spec.scan_tables().log
    found = enumerate_perm_binomials(spec, 1, 2)
    roots = [w for w in spec.elements() if w**2 == spec.one]

    def orbit_of(a):
        return {((w * a) ** 5**i).encode() for w in roots for i in range(2)}

    # log >= (q-1)/2 = 12: not an orbit representative of the brute force or the
    # criterion; four members: the Frobenius moves it too
    victim = [a for a in found if not a.is_zero and log[a.encode()] >= 12 and len(orbit_of(a)) == 4][-1]
    orbit = orbit_of(victim)
    assert orbit <= {a.encode() for a in found} and min(orbit) != victim.encode()
    dropped = {victim, -victim} if drop_pair else {victim}
    real = counts.enumerate_perm_binomials

    def drops(spec, n, r, method="criterion", *, encoded=False):
        out = real(spec, n, r, method=method)
        if method == route and spec.q == 25 and r == 2 and n % 2 == 1:
            out = [a for a in out if a not in dropped]
        return [a.encode() for a in out] if encoded else out

    monkeypatch.setattr(counts, "enumerate_perm_binomials", drops)
    result = run_verify_sweep(SweepConfig(q_max=25))
    # every cell of the broken class fails, and only those
    assert [c["ok"] for c in result.cells] == [(c["q"], c["r"], c["n"] % 2) != (25, 2, 1) for c in result.cells]
    return result, orbit, sorted(a.encode() for a in dropped), len(found)


@pytest.mark.parametrize("drop_pair", [False, True], ids=["member", "omega-pair"])
def test_sweep_records_an_orbit_wan_lidl_splits(monkeypatch, drop_pair):
    # Wan-Lidl scans every a, so the sweep checks the closure of its class sets
    result, orbit, dropped, _ = _split_one_orbit(monkeypatch, "wanlidl", drop_pair)
    broken = [f for f in result.failures if f.route_b == "symmetry"]
    diff = f"orbit of a={min(orbit)} split: {len(orbit) - len(dropped)} of {len(orbit)} members found"
    assert broken == [SweepFailure(25, 1, 2, "wanlidl", "symmetry", diff)]


@pytest.mark.parametrize("drop_pair", [False, True], ids=["member", "omega-pair"])
def test_sweep_records_an_orbit_the_criterion_splits(monkeypatch, drop_pair):
    # the criterion's sets are closed by construction and not closure-checked;
    # an orbit it splits fails its cells through the comparison with Wan-Lidl
    result, _, dropped, size = _split_one_orbit(monkeypatch, "criterion", drop_pair)
    diff = f"|a|={size - len(dropped)} |b|={size} a-only=[] b-only={dropped}"
    assert [f for f in result.failures if f.route_b in ("wanlidl", "symmetry")] == [SweepFailure(25, 1, 2, "criterion", "wanlidl", diff)]


def test_sweep_records_a_divisibility_failure_per_cell(monkeypatch):
    def never_divisible(p, k, n):
        raise DivisibilityViolationError(f"count numerator 1 not divisible by 9 at (p={p}, k={k}, n={n})")

    monkeypatch.setattr(counts, "closed_count_r3", never_divisible)
    result = run_verify_sweep(SweepConfig(q_max=13, r_set=(3,)))
    assert [c["q"] for c in result.cells] == [4] * 3 + [7] * 3 + [13] * 6
    assert result.failures == tuple(
        SweepFailure(c["q"], c["n"], 3, "closed", "divisibility", f"count numerator 1 not divisible by 9 at (p={c['p']}, k={c['k']}, n={c['n']})")
        for c in result.cells
    )
    assert all(c["closed_count"] is None and not c["ok"] for c in result.cells)
    check = AcceptanceSuite(q_max=13).run_check("r3-sweep")
    assert not check.passed
    assert check.detail == "divisibility-by-9 assertion fired 12 times, first at q=4 n=1"


def test_sweep_records_a_count_outside_both_bound_pairs(monkeypatch):
    monkeypatch.setattr(counts, "closed_count_r3", lambda p, k, n: 10**6)
    result = run_verify_sweep(SweepConfig(q_max=13, r_set=(3,)))
    assert result.cells and not any(c["ok"] for c in result.cells)
    for c in result.cells:
        mz_lo, mz_hi = max(Fraction(c["mz_lower"]), 0), Fraction(c["mz_upper"])
        assert [f for f in result.failures if (f.q, f.n) == (c["q"], c["n"])] == [
            SweepFailure(c["q"], c["n"], 3, "closed", "criterion", f"1000000 != {c['criterion_count']}"),
            SweepFailure(c["q"], c["n"], 3, "closed", "mz-bounds", f"1000000 outside [{mz_lo}, {mz_hi}]"),
            SweepFailure(c["q"], c["n"], 3, "closed", "refined-bounds", f"1000000 outside [{c['cor_lower']}, {c['cor_upper']}]"),
        ]
    check = AcceptanceSuite(q_max=13).run_check("r3-sweep")
    assert not check.passed
    assert check.detail == "36 failures, first: q=4 n=1 closed vs criterion: 1000000 != 1"


def test_valid_exponents_oracle():
    assert valid_exponents(13, 2) == [n for n in range(1, 13) if math.gcd(n, 6) == 1]
    assert valid_exponents(13, 3) == [1, 3, 5, 7, 9, 11]
    assert valid_exponents(4, 3) == [1, 2, 3]


@pytest.mark.parametrize(
    "bad",
    [
        SweepConfig(q_max=1),
        SweepConfig(r_set=(4,)),
        SweepConfig(r_set=(2, 5)),
        SweepConfig(jobs=-1),
        SweepConfig(jobs=0),
    ],
)
def test_config_validation(bad):
    with pytest.raises(ValueError):
        run_verify_sweep(bad)


@pytest.mark.parametrize("bad", [SweepConfig(q_max=1), SweepConfig(r_set=()), SweepConfig(r_set=(2, 5)), SweepConfig(jobs=0)])
def test_config_errors_are_typed(bad):
    with pytest.raises(SweepConfigError):
        run_verify_sweep(bad)


def test_a_long_bad_r_set_is_refused_by_its_first_bad_entry(monkeypatch):
    monkeypatch.setattr(sweep, "_field_task", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(SweepConfigError) as info:
        run_verify_sweep(SweepConfig(q_max=8, r_set=(2,) + (5,) * 10000 + (4,)))
    assert str(info.value) == "r_set must be a non-empty subset of {2, 3}, got an entry 5"
    with pytest.raises(SweepConfigError, match=r"^r_set must be a non-empty subset of \{2, 3\}, got \(\)$"):
        run_verify_sweep(SweepConfig(q_max=8, r_set=()))


@pytest.mark.parametrize("seed", [10**5000, -(10**4300)], ids=["5001-digits", "negative-4301-digits"])
def test_a_seed_past_the_digit_limit_is_refused_before_any_work(seed, monkeypatch):
    monkeypatch.setattr(sweep, "_field_task", lambda *args: pytest.fail("a block ran"))
    with pytest.raises(SweepConfigError) as info:
        run_verify_sweep(SweepConfig(q_max=8, seed=seed))
    limit = sys.get_int_max_str_digits()
    assert str(info.value) == f"seed = {int_text(seed)} has more than {limit} digits, the interpreter's int-to-str digit limit"
    assert len(str(info.value)) <= 200


def test_a_seed_of_as_many_digits_as_the_limit_runs():
    seed = 10 ** sys.get_int_max_str_digits() - 1
    assert run_verify_sweep(SweepConfig(q_max=8, seed=-seed)).failures == ()


class _Int(int):
    """An int subclass, as IntEnum members are: integer-like, so accepted."""


@pytest.mark.parametrize(
    "kwargs",
    [{"q_max": 50.5}, {"q_max": "50"}, {"jobs": 1.5}, {"r_set": (2.0,)}, {"r_set": (2, "3")}, {"r_set": 2}, {"seed": 1.0}, {"seed": None}, {"seed": "1"}],
    ids=["q_max-float", "q_max-str", "jobs-float", "r_set-float", "r_set-str", "r_set-int", "seed-float", "seed-none", "seed-str"],
)
def test_a_non_integer_config_is_refused_before_any_work(kwargs, monkeypatch):
    monkeypatch.setattr(sweep, "_field_task", lambda *args: pytest.fail("a block ran"))
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool was started"))
    with pytest.raises(SweepConfigError, match="^q_max, seed, jobs and each entry of r_set must be integers$"):
        run_verify_sweep(SweepConfig(**{"q_max": 13, **kwargs}))


def test_an_integer_like_config_is_accepted():
    want = run_verify_sweep(SweepConfig(q_max=13, r_set=(2,)))
    got = run_verify_sweep(SweepConfig(q_max=_Int(13), r_set=(_Int(2),), jobs=True))
    assert got.cells == want.cells and got.failures == want.failures == ()


@pytest.mark.parametrize("kwargs", [{"q_max": 1}, {"q_max": 0}, {"jobs": 0}])
def test_acceptance_suite_validates_both_sweep_configs(kwargs):
    with pytest.raises(SweepConfigError):
        AcceptanceSuite(**kwargs)


@pytest.mark.parametrize("r", [2, 3])
def test_acceptance_suite_validates_each_default_sweep_config(r, monkeypatch):
    monkeypatch.setattr(selftest, "SWEEP_Q_MAX", {**selftest.SWEEP_Q_MAX, r: 1})
    with pytest.raises(SweepConfigError, match="q_max must be at least 2"):
        AcceptanceSuite()
    AcceptanceSuite(q_max=13)  # an explicit cap replaces both defaults


@pytest.mark.parametrize(
    "argv",
    [
        ["char", "--field", "abc"],
        ["char", "--field", "7^x"],
        ["char", "--field", "7", "--x", "seven"],
        ["char", "--field", "7^2", "--modulus", "1,x,1"],
        ["curve", "--field", "7", "--A", "q", "--B", "0"],
        ["enumerate", "--field", "7.0", "--n", "1", "--r", "2"],
    ],
)
def test_cli_malformed_input_exits_2_with_a_one_line_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot parse ")
    assert "Traceback" not in captured.err and "invalid literal" not in captured.err


@pytest.mark.parametrize(
    ("argv", "bad"),
    [
        (["char", "--field", "7_3"], "7_3"),
        (["char", "--field", "\u0667\u0663"], "\u0667\u0663"),  # Arabic-Indic 73
        (["char", "--field", "7^0_2"], "7^0_2"),
        (["count", "--field", "13", "--n", "1_1", "--r", "2"], "1_1"),
        (["char", "--field", "7", "--x", "\u0665"], "\u0665"),  # Arabic-Indic 5
        (["char", "--field", "5^2", "--modulus", "3,6_0,1"], "3,6_0,1"),
    ],
    ids=["field-underscore", "field-non-ascii", "exponent-underscore", "n-underscore", "x-non-ascii", "modulus-underscore"],
)
def test_cli_integers_are_ascii_digits_only(argv, bad, capsys):
    # int() would read each of these, and the query would answer for another input
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse's refusal, as for --n abc
        rc = exc.code
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(bad) in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("flags", [["--q-max", "1"], ["--jobs", "0"], ["--jobs", "-1"], ["--q-max", "0"]])
def test_cli_selftest_config_errors_exit_2_before_any_check(flags, capsys, monkeypatch):
    monkeypatch.setattr(AcceptanceSuite, "run_check", lambda self, name: pytest.fail(f"check {name} ran"))
    assert cli.main(["selftest", "--only", "r2-sweep"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_selftest_an_empty_only_runs_no_check(capsys, monkeypatch):
    # an explicitly empty --only names one empty check, refused; it is not the default of every check
    monkeypatch.setattr(AcceptanceSuite, "run_check", lambda self, name: pytest.fail(f"check {name} ran"))
    assert cli.main(["selftest", "--only", ""]) == 2
    assert capsys.readouterr() == ("", "error: unknown check ''\n")


def test_jobs_above_the_cpu_count_are_refused_before_a_pool_exists(monkeypatch, capsys):
    # a small fake CPU count, so no large pool is ever asked for
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", lambda **kw: pytest.fail("a pool was started"))
    monkeypatch.setattr(AcceptanceSuite, "run_check", lambda self, name: pytest.fail(f"check {name} ran"))
    sweep.validate_config(SweepConfig(jobs=2))
    with pytest.raises(SweepConfigError, match="jobs = 3 exceeds the 2 CPUs"):
        run_verify_sweep(SweepConfig(q_max=13, jobs=3))
    with pytest.raises(SweepConfigError):
        AcceptanceSuite(jobs=3)
    assert cli.main(["selftest", "--only", "r2-sweep", "--jobs", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "jobs = 3" in captured.err


def test_config_respects_enumeration_guard():
    with pytest.raises(EnumerationGuardError):
        run_verify_sweep(SweepConfig(q_max=2**20 + 7))


def _one_cell_result():
    cell = {
        "q": 13, "p": 13, "k": 1, "n": 1, "r": 2,
        "epsilon1": None, "epsilon2": None, "s_k": None,
        "closed_count": 5, "criterion_count": 5, "brute_count": None,
        "mz_lower": "9/2", "mz_upper": "15/2",
        "cor_lower": None, "cor_upper": None, "ok": True,
    }
    failure = SweepFailure(q=73, n=35, r=3, route_a="closed", route_b="criterion", diff="16 != 15")
    return SweepResult(cells=(cell,), failures=(failure,), elapsed_ms=7)


def test_emit_report_json_roundtrip():
    payload = json.loads(emit_report(_one_cell_result(), "json"))
    assert payload["cells"][0]["closed_count"] == 5
    assert payload["cells"][0]["s_k"] is None
    assert payload["failures"] == [
        {"q": 73, "n": 35, "r": 3, "route_a": "closed", "route_b": "criterion", "diff": "16 != 15"}
    ]
    assert payload["elapsed_ms"] == 7


def test_emit_report_csv_and_text():
    blob = emit_report(_one_cell_result(), "csv").decode()
    lines = blob.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert ",,," in lines[1]  # None renders as the empty string
    text = emit_report(_one_cell_result(), "text").decode()
    assert "cells=1 failures=1" in text
    assert "FAIL q=73 n=35 r=3 closed vs criterion: 16 != 15" in text


def test_emit_report_handles_empty_result_and_bad_format():
    empty = SweepResult(cells=(), failures=(), elapsed_ms=0)
    for fmt in ("json", "csv", "text"):
        assert emit_report(empty, fmt)
    with pytest.raises(ValueError):
        emit_report(empty, "yaml")


def test_cli_count_verify_reproduces_the_f73_case(capsys):
    rc = cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["closed_count"] == 16
    assert payload["brute_count"] == 16
    assert payload["a_values"] == PINNED_F73_SET
    assert payload["s_k"] == "-7"
    assert (payload["epsilon1"], payload["epsilon2"]) == (1, 1)


def test_cli_enumerate_text_and_csv(capsys):
    rc = cli.main(["enumerate", "--field", "13", "--n", "1", "--r", "2", "--format", "text"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("q=13 n=1 r=2 method=criterion count=5")
    rc = cli.main(["enumerate", "--field", "13", "--n", "1", "--r", "2", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "q,p,k,n,r,method,a_enc"
    assert len(lines) == 6


def test_cli_enumerate_accepts_custom_modulus(capsys):
    rc = cli.main([
        "enumerate", "--field", "3^2", "--modulus", "1,0,1", "--n", "1", "--r", "2",
    ])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["count"] == 3


def test_cli_modulus_with_trailing_zeros_names_the_same_field(capsys):
    outs = []
    for modulus in ("3,1,1,0", "3,1,1"):
        assert cli.main(["char", "--field", "7^2", "--modulus", modulus, "--x", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_cli_kappa_and_trace(capsys):
    rc = cli.main(["kappa", "--p", "73"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kappa"] == 7
    assert payload["curve_count"] == 73 + 1 + 7
    rc = cli.main(["trace", "--p", "73", "--j", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["s_j"] == "-97"


def test_cli_trace_refuses_a_j_it_could_not_print(capsys):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit := 4300)
        # the largest j whose Hasse bound 2 * 73^(j/2) still has at most `limit` digits
        j_edge = max(j for j in range(4000, 5000) if 4 * 73**j < 10 ** (2 * limit))
        for j in (j_edge + 1, 10_000, 10**12):  # refused before s_j is computed
            assert cli.main(["trace", "--p", "73", "--j", str(j)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and f"s_{j} for p = 73 may have more than {limit} digits" in err
        for j in (4000, j_edge):
            assert cli.main(["trace", "--p", "73", "--j", str(j)]) == 0
            assert int(json.loads(capsys.readouterr().out)["s_j"]) == pi_trace(73, j)
        sys.set_int_max_str_digits(0)  # no limit: nothing is refused
        assert cli.main(["trace", "--p", "73", "--j", "10000"]) == 0
        assert int(json.loads(capsys.readouterr().out)["s_j"]) == pi_trace(73, 10_000)
    finally:
        sys.set_int_max_str_digits(saved)


def test_cli_answers_too_long_to_print_exit_2(capsys, monkeypatch):
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit := 4300)  # q = 2^20000 has 6,021 digits
        # refused before any work: no count, trace, bound or field is computed
        monkeypatch.setattr(cli, "make_field", None)
        for name in ("closed_count_r2", "closed_count_r3", "epsilons", "pi_trace", "masuda_zieve_bounds", "refined_bounds_r3"):
            monkeypatch.setattr(counts, name, None)
        for argv, what in (
            (["bounds", "--field", "2^20000", "--r", "3"], "the bounds for q = 2^20000"),
            (["count", "--field", "2^20000", "--n", "1", "--r", "3"], "the count for q = 2^20000"),
            (["count", "--field", "7^99999", "--n", "1", "--r", "2"], "the count for q = 7^99999"),
            (["bounds", "--field", "7^99999", "--r", "3"], "the bounds for q = 7^99999"),
            (["count", "--field", "7^99999", "--n", "1", "--r", "3"], "the count for q = 7^99999"),
            (["char", "--field", "2^20000", "--x", "5"], "an answer on q = 2^20000"),
        ):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {what} may have more than {limit} digits, the interpreter's int-to-str limit\n"
        monkeypatch.undo()
        # every integer of a count or bounds answer is below 10^32 q: the largest q let through prints
        k_edge = max(k for k in range(5000, 5100) if 10**64 * 7 ** (2 * k) < 10 ** (2 * limit))
        for k, rc in ((k_edge, 0), (k_edge + 1, 2)):
            for argv in (["bounds", "--r", "3"], ["count", "--n", "1", "--r", "3"], ["count", "--n", "1", "--r", "2"]):
                assert cli.main(argv + ["--field", f"7^{k}"]) == rc
                out, err = capsys.readouterr()
                assert (json.loads(out)["q"] == 7**k) if rc == 0 else (out == "" and "may have more than" in err)
    finally:
        sys.set_int_max_str_digits(saved)


def test_cli_char_on_a_prime_with_a_huge_q1_factor():
    # q - 1 = 6m with m a 59-bit prime: factoring q - 1 stops once m is left
    src = Path(cli.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "permbinom.cli", "char", "--field", "3458764513820547727", "--x", "5"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["q"] == 3458764513820547727


def _cli_char_x5(field):
    src = Path(cli.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "permbinom.cli", "char", "--field", field, "--x", "5"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=30,
    )


def test_cli_char_splits_a_q1_cofactor_with_two_large_primes():
    # q - 1 = 6 * 1000000007 * 998244521: Pollard rho splits the cofactor
    # that trial division alone would grind through for minutes
    proc = _cli_char_x5("5989467167926269883")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"q": 5989467167926269883, "x": 5, "quadratic": -1, "cubic": 1}


def test_cli_char_refuses_a_q1_it_cannot_factor():
    # q - 1 = 300 (10^24 + 7)(3 10^24 + 7), two 25-digit primes: rho runs
    # out of steps and the CLI exits 2 naming the number, with no output
    q = 300 * (10**24 + 7) * (3 * 10**24 + 7) + 1
    proc = _cli_char_x5(str(q))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"a factor of {q - 1}" in proc.stderr


def test_cli_curve_point_count(capsys):
    rc = cli.main(["curve", "--field", "5", "--A", "0", "--B", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 6 and payload["trace"] == 0


def test_cli_char_modes(capsys):
    rc = cli.main(["char", "--field", "13", "--x", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quadratic"] == 1 and payload["cubic"] == 1
    rc = cli.main(["char", "--field", "13", "--power-sum", "12"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["power_sum"] == 12
    rc = cli.main(["char", "--field", "13"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quadratic_classes"] == {"1": 6, "-1": 6, "zero": 1}
    assert payload["cubic_classes"] == {"0": 4, "1": 4, "2": 4, "zero": 1}


def test_cli_class_counts_respect_the_guard(capsys, monkeypatch):
    monkeypatch.setenv("PERMBINOM_GUARD", "10")
    assert cli.main(["char", "--field", "101"]) == 2
    assert "q = 101 > guard 10; set PERMBINOM_GUARD" in capsys.readouterr().err
    monkeypatch.setenv("PERMBINOM_GUARD", "101")
    assert cli.main(["char", "--field", "101"]) == 0
    assert json.loads(capsys.readouterr().out)["quadratic_classes"] == {"1": 50, "-1": 50, "zero": 1}


def test_cli_malformed_guard_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PERMBINOM_GUARD", "1e1")
    assert cli.main(["enumerate", "--field", "7", "--n", "1", "--r", "3"]) == 2
    assert "PERMBINOM_GUARD='1e1' is not a positive integer" in capsys.readouterr().err


def test_cli_sharpness_supersingular(capsys):
    rc = cli.main(["sharpness", "--p", "5", "--n", "1", "--depth", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"] == "pi/2"
    assert [f["k"] for f in payload["findings"]] == [2, 4, 6]
    assert payload["findings"][0]["deviation"].startswith("-0.4")


def test_cli_usage_errors_exit_2(capsys):
    # gcd(2, 6) > 1, so n = 2 is rejected for q = 13, r = 2
    assert cli.main(["count", "--field", "13", "--n", "2", "--r", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["enumerate", "--field", "15", "--n", "1", "--r", "2"]) == 2
    assert "not a prime power" in capsys.readouterr().err
    assert cli.main(["sharpness", "--p", "3", "--n", "1"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--field", "7", "--n", "-1", "--r", "2"],  # n below [1, q-1]
        ["count", "--field", "7", "--n", "7", "--r", "2"],  # n = q
        ["bounds", "--field", "10^1", "--r", "3"],  # base not prime
        ["bounds", "--field", "7^0", "--r", "2"],  # k < 1
        ["bounds", "--field", "7^-1", "--r", "2"],
        ["count", "--field", "7^0", "--n", "1", "--r", "3"],
        ["count", "--field", "9^1", "--n", "1", "--r", "2"],  # 9 is a prime power, not a prime
        ["char", "--field", "2^2", "--x", "inv4"],  # 4 = 0 in characteristic 2
        ["curve", "--field", "2^2", "--A", "inv4", "--B", "0"],
        ["curve", "--field", "2^3", "--A", "0", "--B", "inv4"],
        ["char", "--field", "7^2", "--modulus", "3,1,2"],  # not monic
    ],
)
def test_cli_rejects_bad_cells_and_fields(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv", [["enumerate", "--field", "7", "--n", "1"], ["count", "--field", "7", "--n", "1"], ["bounds", "--field", "7"]], ids=lambda a: a[0]
)
def test_cli_r_outside_2_and_3_gets_the_one_typed_refusal(argv, capsys):
    # the admissibility rule refuses r, not an argparse choice list with its usage text
    assert cli.main(argv + ["--r", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r must be 2 or 3, got 4\n"


def test_cli_curve_reads_inv4_as_the_inverse_of_4(capsys):
    # y^2 = x^3 + 1/4 over F_13 has 13 + 1 + kappa_13 = 9 points
    assert cli.main(["curve", "--field", "13", "--A", "0", "--B", "inv4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["a6"], out["count"], out["trace"]) == (10, 9, 5)  # 4 * 10 = 40 = 1 mod 13


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--field", "7", "--n", "1", "--r", "3", "--out"],
        ["kappa", "--p", "73", "--format", "text", "--out"],
        ["selftest", "--only", "kappa-table", "--q-max", "20", "--out"],
        ["selftest", "--only", "kappa-table", "--q-max", "20", "--report"],
    ],
)
def test_cli_unwritable_output_exits_2_with_one_error_line(argv, tmp_path, capsys):
    target = tmp_path / "missing" / "x"
    assert cli.main(argv + [str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--field", "7", "--n", "1", "--r", "2"],
        ["bounds", "--field", "7", "--r", "2"],
        ["kappa", "--p", "73"],
        ["trace", "--p", "73", "--j", "2"],
        ["curve", "--field", "5", "--A", "0", "--B", "1"],
        ["char", "--field", "13"],
        ["sharpness", "--p", "5", "--n", "1"],
    ],
)
def test_cli_csv_only_where_the_output_is_a_table(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert cli.main(argv + ["--format", "text"]) == 0


def test_cli_selftest_csv(capsys):
    rc = cli.main(["selftest", "--only", "char2-sums,kappa-table", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "name,passed,elapsed_ms,detail"
    assert [line.split(",")[:2] for line in lines[1:]] == [["char2-sums", "True"], ["kappa-table", "True"]]


def test_cli_cross_check_mismatch_exits_1(capsys, monkeypatch):
    # the closed form is off by one; brute force and the criterion find the true 5
    monkeypatch.setattr(counts, "closed_count_r2", lambda q, n: 6)
    rc = cli.main(["count", "--field", "13", "--n", "1", "--r", "2", "--verify"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q=13 n=1 r=2 closed vs criterion: 6 != 5" in captured.err


def test_cli_count_verify_compares_a_sets(capsys, monkeypatch):
    real = counts.enumerate_perm_binomials

    def brute_swaps_one(spec, n, r, method="criterion", *, encoded=False):
        found = real(spec, n, r, method=method)
        if method == "bruteforce":  # same count, one a traded for another
            outside = next(x for x in spec.elements() if x not in found)
            found = found[1:] + [outside]
        return [a.encode() for a in found] if encoded else found

    monkeypatch.setattr(counts, "enumerate_perm_binomials", brute_swaps_one)
    rc = cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q=73 n=35 r=3 criterion vs bruteforce: |a|=16 |b|=16 a-only=[0] b-only=[1]" in captured.err


def test_cli_count_verify_runs_wan_lidl(capsys, monkeypatch):
    real = counts.enumerate_perm_binomials
    methods = []

    def wan_lidl_drops_one(spec, n, r, method="criterion", *, encoded=False):
        methods.append(method)
        found = real(spec, n, r, method=method)
        found = found[1:] if method == "wanlidl" else found
        return [a.encode() for a in found] if encoded else found

    monkeypatch.setattr(counts, "enumerate_perm_binomials", wan_lidl_drops_one)
    assert cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "q=73 n=35 r=3 criterion vs wanlidl: |a|=16 |b|=15 a-only=[0] b-only=[]" in captured.err
    assert sorted(methods) == ["bruteforce", "criterion", "wanlidl"]


def test_cli_count_verify_holds_the_count_to_both_bound_pairs(capsys, monkeypatch):
    # a Masuda-Zieve pair that excludes the true count of 16; the routes all agree on it
    monkeypatch.setattr(counts, "masuda_zieve_bounds", lambda q, r: (Fraction(100), Fraction(200)))
    assert cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q=73 n=35 r=3 closed vs mz-bounds: 16 outside [100, 200]\n"


def test_cli_count_verify_checks_the_wan_lidl_set_for_closure(capsys, monkeypatch):
    # 16 = 2 * 8 with 8^3 = 1 in F_73: dropping it splits the orbit {2, 16, 55} of a -> omega a
    real = counts.enumerate_perm_binomials

    def wan_lidl_splits_an_orbit(spec, n, r, method="criterion", *, encoded=False):
        found = [a for a in real(spec, n, r, method=method, encoded=True) if method != "wanlidl" or a != 16]
        return found if encoded else [spec.decode(a) for a in found]

    monkeypatch.setattr(counts, "enumerate_perm_binomials", wan_lidl_splits_an_orbit)
    assert cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q=73 n=35 r=3 wanlidl vs symmetry: orbit of a=2 split: 2 of 3 members found\n"


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "kappa.json"
    rc = cli.main(["kappa", "--p", "7", "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["kappa"] == 1


def test_cli_selftest_subset(capsys):
    rc = cli.main(["selftest", "--only", "char2-sums"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS char2-sums" in out
    assert "1/1 checks passed" in out


def test_cli_selftest_report(tmp_path, capsys):
    report = tmp_path / "sweep.json"
    rc = cli.main([
        "selftest", "--only", "r2-sweep,r3-sweep", "--q-max", "13",
        "--report", str(report), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert [c["name"] for c in payload["checks"]] == ["r2-sweep", "r3-sweep"]
    merged = json.loads(report.read_text())
    assert merged["failures"] == []
    assert merged["cells"]
    assert all(c["q"] <= 13 for c in merged["cells"])
    rs = {c["r"] for c in merged["cells"]}
    assert rs == {2, 3}
