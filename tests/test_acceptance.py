"""Acceptance suite: every check once, in order, within its time budget, and every way each check can fail.

Run with -s (or -rA) to see the one-line PASS/FAIL verdicts directly.
The failing runs monkeypatch a name a check reads, on a suite whose
sweeps stop at q = 13, and pin the FAIL detail the check reports.
"""

import pytest

from permbinom import curves, selftest, sharpness, sweep
from permbinom.selftest import BUDGET_MS, CHECK_ORDER, AcceptanceSuite


@pytest.fixture(scope="session")
def suite():
    # Shared so the two sweeps are computed once and reused by later checks.
    return AcceptanceSuite()


def _run(suite, name):
    result = suite.run_check(name)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {name} ({result.elapsed_ms / 1000:.1f}s): {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    budget = BUDGET_MS.get(name)
    if budget is not None:
        assert result.elapsed_ms <= budget, f"{name} took {result.elapsed_ms} ms, budget {budget}"


def test_criterion_01_exact_case_f73(suite):
    _run(suite, "exact-case-f73")


def test_criterion_02_kappa_table(suite):
    _run(suite, "kappa-table")


def test_criterion_03_r2_sweep(suite):
    _run(suite, "r2-sweep")


def test_criterion_04_r3_sweep(suite):
    _run(suite, "r3-sweep")


def test_criterion_05_point_congruence(suite):
    _run(suite, "point-congruence")


def test_criterion_06_extension_counts(suite):
    _run(suite, "extension-counts")


def test_criterion_07_char2_sums(suite):
    _run(suite, "char2-sums")


def test_criterion_08_bounds_containment(suite):
    _run(suite, "bounds-containment")


def test_criterion_09_sharpness_witnesses(suite):
    _run(suite, "sharpness-witnesses")


def test_criterion_10_character_identities(suite):
    _run(suite, "character-identities")


def test_check_order_is_complete():
    assert len(CHECK_ORDER) == 10
    names = {t.removeprefix("test_criterion_")[3:].replace("_", "-") for t in [
        "test_criterion_01_exact_case_f73",
        "test_criterion_02_kappa_table",
        "test_criterion_03_r2_sweep",
        "test_criterion_04_r3_sweep",
        "test_criterion_05_point_congruence",
        "test_criterion_06_extension_counts",
        "test_criterion_07_char2_sums",
        "test_criterion_08_bounds_containment",
        "test_criterion_09_sharpness_witnesses",
        "test_criterion_10_character_identities",
    ]}
    assert names == set(CHECK_ORDER)


def _fails(check: str, detail: str) -> None:
    result = AcceptanceSuite(q_max=13).run_check(check)
    assert (result.name, result.passed, result.detail) == (check, False, detail)


def _sweep_with(**changes):
    """run_verify_sweep with changes made to every cell, so the sweep reports what the checks must refuse."""

    def run(config):
        result = sweep.run_verify_sweep(config)
        return result._replace(cells=tuple({**c, **changes} for c in result.cells))

    return run


def test_exact_case_f73_fails_on_another_pinned_set(monkeypatch):
    monkeypatch.setattr(selftest, "F73_ADMISSIBLE", frozenset())
    _fails("exact-case-f73", "the routes give [0, 2, 4, 16, 18, 21, 22, 30, 32, 33, 37, 45, 55, 57, 68, 71], expected []")


@pytest.mark.parametrize(
    ("name", "value", "detail"),
    [
        ("compute_kappa", lambda p: curves.compute_kappa(p)._replace(kappa=0), "kappa(7) = 0, expected 1"),
        ("compute_kappa", lambda p: curves.compute_kappa(p)._replace(kappa=5) if p == 5 else curves.compute_kappa(p), "kappa(5) = 5 violates the Hasse bound"),
        ("point_count_residue", lambda p, a4, a6: 1, "kappa(5) = 0 is not 1 mod 5, the binomial-sum residue of |E| - p - 1"),
    ],
    ids=["table", "hasse", "residue"],
)
def test_kappa_table_fails(monkeypatch, name, value, detail):
    monkeypatch.setattr(selftest, name, value)
    _fails("kappa-table", detail)


@pytest.mark.parametrize(
    ("check", "run", "detail"),
    [
        (
            "r2-sweep",
            lambda config: sweep.SweepResult((), (sweep.SweepFailure(5, 1, 2, "criterion", "wanlidl", "|a|=2 |b|=0"),), 0),
            "1 failures, first: q=5 n=1 criterion vs wanlidl: |a|=2 |b|=0",
        ),
        ("r2-sweep", _sweep_with(brute_count=None), "24 cells with q <= 100 missing brute-force confirmation"),
        ("r2-sweep", _sweep_with(closed_count=-1), "closed count at (q=3, n=1) is -1, not (q-2+(-1)^n)/2"),
        ("r3-sweep", lambda config: sweep.SweepResult((), (), 0), "coverage gap: 0 cells, expected 12"),
        ("bounds-containment", _sweep_with(closed_count=None), "no closed count at (q=3, n=1, r=2)"),
        ("bounds-containment", _sweep_with(closed_count=10**6), "count 1000000 at (q=3, n=1, r=2) escapes clamped Masuda-Zieve bounds"),
        ("bounds-containment", _sweep_with(cor_upper=-1), "count 1 at (q=4, n=1) escapes the refined r=3 bounds"),
    ],
    ids=["r2-failure", "r2-unbruted", "r2-closed-count", "r3-coverage-gap", "no-count", "mz-bounds", "refined-bounds"],
)
def test_a_sweep_check_fails_on_a_sweep_it_must_refuse(monkeypatch, check, run, detail):
    monkeypatch.setattr(selftest, "run_verify_sweep", run)
    _fails(check, detail)


def test_point_congruence_fails_on_another_residue(monkeypatch):
    monkeypatch.setattr(selftest, "point_count_residue", lambda p, a4, a6: curves.point_count_residue(p, a4, a6) + 1)
    _fails("point-congruence", "congruence fails at p=5, A=0, B=0")


def test_extension_counts_fails_on_another_trace(monkeypatch):
    monkeypatch.setattr(selftest, "pi_trace", lambda p, j: curves.pi_trace(p, j) + 1)
    _fails("extension-counts", "|E(F_7^1)| = 9 but p^j+1-s_j = 8")


def test_char2_sums_fails_on_another_sum(monkeypatch):
    monkeypatch.setattr(selftest, "char2_cubic_sum", lambda k: 0)
    _fails("char2-sums", "char2_cubic_sum(1) = 0, expected 2")


@pytest.fixture(scope="module")
def probe():
    return sharpness.sharpness_probe(73, 35)


def _with_finding(probe, at, **changes):
    findings = tuple(f._replace(**changes) if f.k == at else f for f in probe.findings)
    return lambda p, n: probe._replace(findings=findings)


def test_sharpness_witnesses_fails_on_each_witness_it_must_reproduce(monkeypatch, probe):
    by_k = {f.k: f for f in probe.findings}
    cases = [
        (_with_finding(probe, 1217, k=0), f"probe depth {probe.depth} missed k=1217 or k=1578, found {sorted(by_k.keys() - {1217} | {0})}"),
        (_with_finding(probe, 1217, deviation_lo=0), f"d_1217 = {by_k[1217].deviation} not above 1.999998451823"),
        (_with_finding(probe, 1578, deviation_hi=0), f"d_1578 = {by_k[1578].deviation} not below -1.99999906282"),
        (_with_finding(probe, 1217, deviation="2.0"), "d_1217 reported with fewer than 40 decimal places"),
    ]
    for probe_call, detail in cases:
        monkeypatch.setattr(sharpness, "sharpness_probe", probe_call)
        _fails("sharpness-witnesses", detail)
    monkeypatch.setattr(sharpness, "deviation_bounds", lambda p, k, n: (0, 0))
    _fails("sharpness-witnesses", "deviation enclosure for k=1217 is not reproducible")


@pytest.mark.parametrize(
    ("name", "value", "detail"),
    [
        ("power_sum", lambda spec, m: spec.zero, "power sum over F_2 wrong at m=1: 0:F2"),
        ("character_classes", lambda spec: {"quadratic_classes": {}}, "quadratic character classes unbalanced over F_2"),
        ("character_classes", lambda spec: {"quadratic_classes": None, "cubic_classes": {}}, "cubic character classes unbalanced over F_2"),
    ],
    ids=["power-sum", "quadratic", "cubic"],
)
def test_character_identities_fails(monkeypatch, name, value, detail):
    monkeypatch.setattr(selftest, name, value)
    _fails("character-identities", detail)


def test_a_raising_check_becomes_a_failed_result(monkeypatch):
    def boom(k):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(selftest, "char2_cubic_sum", boom)
    _fails("char2-sums", "raised ZeroDivisionError('boom')")
