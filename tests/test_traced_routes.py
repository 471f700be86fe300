"""Every route is reached through permtest.enumerate_perm_binomials, the one function the benchmark traces per route.

The wrapper is installed as perfbench/tracing.py installs its own: on
every loaded permbinom module that binds the function, since
`from .permtest import enumerate_perm_binomials` copies the binding. A
caller that reached a route any other way would go uncounted here.
"""

import sys
from collections import Counter

import pytest

from permbinom import cli, permtest
from permbinom.selftest import AcceptanceSuite
from permbinom.sweep import SweepConfig, run_verify_sweep


@pytest.fixture
def route_calls(monkeypatch):
    """Calls per route name, counted on every permbinom module's binding of enumerate_perm_binomials."""
    original = permtest.enumerate_perm_binomials
    calls = Counter()

    def counted(*args, **kwargs):
        calls[kwargs.get("method", args[3] if len(args) > 3 else "criterion")] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "permbinom" or name.startswith("permbinom."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_the_sweep_reaches_its_routes_through_the_traced_function(route_calls):
    result = run_verify_sweep(SweepConfig(q_max=13))
    assert result.failures == ()
    # the criterion and Wan-Lidl run once per (q, r, class of n), brute force on every cell below 100
    classes = {(c["q"], c["r"], c["n"] % c["r"]) for c in result.cells}
    assert route_calls == {"criterion": len(classes), "wanlidl": len(classes), "bruteforce": len(result.cells)}


@pytest.mark.parametrize("method", list(permtest.ROUTES))
def test_enumerate_reaches_its_route_through_the_traced_function(method, route_calls, capsys):
    assert cli.main(["enumerate", "--field", "13", "--n", "1", "--r", "2", "--method", method]) == 0
    assert capsys.readouterr().out
    assert route_calls == {method: 1}


def test_count_verify_and_the_f73_check_reach_every_route_once(route_calls, capsys):
    assert cli.main(["count", "--field", "73", "--n", "35", "--r", "3", "--verify"]) == 0
    assert route_calls == dict.fromkeys(permtest.ROUTES, 1)
    route_calls.clear()
    assert AcceptanceSuite().run_check("exact-case-f73").passed
    assert route_calls == dict.fromkeys(permtest.ROUTES, 1)
