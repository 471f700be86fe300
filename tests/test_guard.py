"""The enumeration guard: one rule, PERMBINOM_GUARD, for every full-field scan."""

import pytest

from permbinom import cli, fields
from permbinom.characters import character_classes, power_sum
from permbinom.counts import build_count_report
from permbinom.curves import char2_cubic_sum, count_points_extension
from permbinom.errors import EnumerationGuardError
from permbinom.fields import make_field
from permbinom.permtest import enumerate_perm_binomials, is_permutation_bruteforce
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
    "is_permutation_bruteforce": lambda: is_permutation_bruteforce(make_field(13), {5: 1}),
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


def test_count_report_refuses_a_huge_field_before_building_it(no_modulus_search):
    with pytest.raises(EnumerationGuardError, match="^refusing to enumerate F_q with q = a 20001-bit integer > guard 1048576"):
        build_count_report(2, 20000, 1, 3, verify=True)
    assert no_modulus_search == {}
