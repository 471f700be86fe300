"""The enumeration guard: one rule, PERMBINOM_GUARD, for every full-field scan."""

import time

import pytest

from permbinom import cli, curves, fields
from permbinom.characters import character_classes, power_sum
from permbinom.counts import build_count_report
from permbinom.curves import char2_cubic_sum, compute_kappa, count_points_extension, count_points_prime, point_count_residue
from permbinom.errors import EnumerationGuardError, NonPrimeError
from permbinom.fields import make_field
from permbinom.permtest import enumerate_perm_binomials
from permbinom.sweep import SweepConfig, run_verify_sweep

# Every entry point that scans a whole field, each on F_13 or F_16.
LIBRARY_SCANS = {
    "enumerate-criterion": lambda: enumerate_perm_binomials(make_field(13), 1, 2, "criterion"),
    "enumerate-bruteforce": lambda: enumerate_perm_binomials(make_field(13), 1, 2, "bruteforce"),
    "enumerate-wanlidl": lambda: enumerate_perm_binomials(make_field(13), 1, 2, "wanlidl"),
    "power_sum": lambda: power_sum(make_field(13), 12),
    "character_classes": lambda: character_classes(make_field(13)),
    "count_points_extension": lambda: count_points_extension(make_field(13), make_field(13).zero, make_field(13).one),
    "char2_cubic_sum": lambda: char2_cubic_sum(2),
    "elements": lambda: list(make_field(13).elements()),
    "build_count_report": lambda: build_count_report(13, 1, 1, 2, verify=True),
    "run_verify_sweep": lambda: run_verify_sweep(SweepConfig(q_max=13)),
}
CLI_SCANS = {
    "cli-enumerate": ["enumerate", "--field", "13", "--n", "1", "--r", "2"],
    "cli-count-verify": ["count", "--field", "13", "--n", "1", "--r", "2", "--verify"],
    "cli-curve": ["curve", "--field", "13", "--A", "0", "--B", "1"],
    "cli-char": ["char", "--field", "13"],
}


# Scanning queries on fields whose modulus search alone runs for minutes
HUGE_CLI_SCANS = {
    "enumerate": ["enumerate", "--field", "2^20000", "--n", "1", "--r", "3"],
    "count-verify": ["count", "--field", "2^20000", "--n", "1", "--r", "3", "--verify"],
    "curve": ["curve", "--field", "3^9000", "--A", "0", "--B", "1"],
    "char-power-sum": ["char", "--field", "3^9000", "--power-sum", "3"],
    "char-classes": ["char", "--field", "3^9000"],
}


@pytest.fixture
def fresh_fields(monkeypatch):
    """An empty field cache, so each FieldSpec starts without tables."""
    cache = {}
    monkeypatch.setattr(fields, "_FIELD_CACHE", cache)
    return cache


@pytest.mark.parametrize("name", sorted(LIBRARY_SCANS) + sorted(CLI_SCANS))
def test_every_full_field_scan_obeys_the_guard(name, fresh_fields, monkeypatch, capsys):
    monkeypatch.setenv("PERMBINOM_GUARD", "10")
    if name in CLI_SCANS:
        assert cli.main(CLI_SCANS[name]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "> guard 10; set PERMBINOM_GUARD" in captured.err
    else:
        with pytest.raises(EnumerationGuardError, match="> guard 10; set PERMBINOM_GUARD"):
            LIBRARY_SCANS[name]()
    assert all(spec._tables is None for spec in fresh_fields.values())

    monkeypatch.setenv("PERMBINOM_GUARD", "16")
    if name in CLI_SCANS:
        assert cli.main(CLI_SCANS[name]) == 0
        assert capsys.readouterr().out
    else:
        LIBRARY_SCANS[name]()


@pytest.fixture
def no_modulus_search(fresh_fields, monkeypatch):
    """An empty field cache, the default guard, and a modulus search that fails if it starts."""

    def searched(p, k):
        raise AssertionError(f"the modulus search for F_{p}^{k} started")

    monkeypatch.delenv("PERMBINOM_GUARD", raising=False)
    monkeypatch.setattr(fields, "_find_modulus", searched)
    return fresh_fields


@pytest.mark.parametrize("name", sorted(HUGE_CLI_SCANS))
def test_a_scan_refuses_a_huge_field_before_building_it(name, no_modulus_search, capsys):
    assert cli.main(HUGE_CLI_SCANS[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing to enumerate F_q with q = ")
    assert "> guard 1048576; set PERMBINOM_GUARD to at least " in captured.err
    assert no_modulus_search == {}


# Scans on a field whose q alone takes tens of seconds to form: q >= 2^k decides from k
UNFORMED_Q_SCANS = {
    "enumerate": ["enumerate", "--field", "7^30000000", "--n", "1", "--r", "2"],
    "char": ["char", "--field", "7^30000000"],
    "curve": ["curve", "--field", "7^30000000", "--A", "0", "--B", "1"],
}


@pytest.mark.parametrize("name", sorted(UNFORMED_Q_SCANS))
def test_a_scan_refuses_a_large_k_without_forming_q(name, no_modulus_search, capsys):
    start = time.perf_counter()
    assert cli.main(UNFORMED_Q_SCANS[name]) == 2
    assert time.perf_counter() - start < 1.0
    shown = "7^30000000"
    assert capsys.readouterr() == ("", f"error: refusing to enumerate F_q with q = {shown} > guard 1048576; set PERMBINOM_GUARD to at least {shown}\n")
    assert no_modulus_search == {}


def test_count_report_refuses_a_huge_field_before_building_it(no_modulus_search):
    with pytest.raises(EnumerationGuardError, match="^refusing to enumerate F_q with q = a 20001-bit integer > guard 1048576"):
        build_count_report(2, 20000, 1, 3, verify=True)
    assert no_modulus_search == {}


def test_char2_cubic_sum_refuses_a_large_k_before_building_the_field(no_modulus_search):
    start = time.perf_counter()
    with pytest.raises(EnumerationGuardError, match=r"^refusing to enumerate F_q with q = 2\^30000000 > guard 1048576"):
        char2_cubic_sum(15000000)
    assert time.perf_counter() - start < 1.0
    assert no_modulus_search == {}


# Queries whose only O(p) work is a point count over F_p, on primes past the guard
POINT_COUNT_QUERIES = {
    "kappa-13-digit": ["kappa", "--p", "1000000000039"],
    "trace-13-digit": ["trace", "--p", "1000000000039", "--j", "10"],
    "kappa": ["kappa", "--p", "10000141"],
    "count-r3": ["count", "--field", "10000141^2", "--n", "1", "--r", "3"],
    "sharpness": ["sharpness", "--p", "10000141", "--n", "5"],
}


@pytest.fixture
def no_point_count(monkeypatch):
    """The default guard, no cached kappa, and both point counts' loops over range failing if they start."""

    def counted(*args):
        raise AssertionError(f"a point count started looping over {args}")

    monkeypatch.delenv("PERMBINOM_GUARD", raising=False)
    monkeypatch.setattr(curves, "range", counted, raising=False)  # shadows the builtin in curves alone
    compute_kappa.cache_clear()
    yield
    compute_kappa.cache_clear()


@pytest.mark.parametrize("name", sorted(POINT_COUNT_QUERIES))
def test_a_point_count_past_the_guard_refuses_before_counting(name, no_point_count, capsys):
    assert cli.main(POINT_COUNT_QUERIES[name]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing to enumerate F_q with q = ") and captured.err.count("\n") == 1
    assert "> guard 1048576; set PERMBINOM_GUARD to at least " in captured.err


@pytest.mark.parametrize("count", [count_points_prime, point_count_residue])
def test_both_point_counts_check_the_guard_after_primality(count, monkeypatch):
    monkeypatch.setenv("PERMBINOM_GUARD", "10")
    assert count(7, 0, 1) >= 0
    with pytest.raises(EnumerationGuardError, match="^refusing to enumerate F_q with q = 11 > guard 10"):
        count(11, 0, 1)
    with pytest.raises(NonPrimeError):  # primality is decided first, whatever the guard
        count(15, 0, 1)
