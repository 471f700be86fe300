"""The library contract: a bad integer argument or a bad name is refused with a typed PermBinomError.

Every callable in permbinom.__all__ that takes an integer is called once
per integer parameter, with the other arguments valid, on 2.0, 2.5, "7",
None, True, False, 0 and negatives; so is each entry point outside
__all__ in MORE_CALLS (check_cell, FieldSpec.element and decode, and the
sharpness module). Each call either returns or raises a
PermBinomError; none may raise TypeError, AttributeError,
ZeroDivisionError, a bare ValueError or MemoryError. An element parameter
counts as an integer parameter where an int is lifted into the field, and
so does a modulus entry.
AcceptanceSuite is constructed but never run, so no process starts.

Choice parameters are covered too: each parameter that takes a name (a
route method, a report format, a selftest check, a field string) is
called with wrong types, a huge int, a right name in the wrong case and
the underscore spelling of a check. Each must raise UnknownChoiceError,
and no message may hold more than 200 characters of the value.

Long strings are covered too: thousands of characters where a name, a
field, an element or an integer is expected, through the library and
through the CLI, and short strings that repr escapes. Each is refused with
a typed PermBinomError (or argparse's usage error carrying one) of at most
200 characters, and a digit string past the interpreter's str-to-int limit
is refused by its size, naming the limit. So are CLI queries whose q, p^k
exponent or trace index j has hundreds or thousands of digits but is
read: each prints one short error line, and an int past 64 digits is
named by its bit length whatever the interpreter's int-to-str limit.

Huge ints, past the interpreter's int-to-str digit limit, are covered
where the refusal comes before any work: each such refusal in
HUGE_CASES must be the one a small bad value gets, and must name the
integer by its size.

Left out, for the bounded-time half of the contract (ROADMAP item 9):
- huge ints where a pow or p**k runs before the refusal:
  is_prime(10**6000 + 1) spends about 19 s inside one pow, which
  signal.alarm cannot interrupt, so no per-call budget could hold;
- huge values of the exponent-like parameters (k, j, char2_cubic_sum's k
  and masuda_zieve_bounds' r) that pass their check: a 10^5-digit k
  forms p**k before any check can refuse it, and masuda_zieve_bounds
  forms r^(r+1); so the CLI's count and bounds on a huge k are left out
  too, as they form q before any refusal (ROADMAP item 9);
- FieldSpec arguments (a spec that is not a FieldSpec, and the FieldSpec
  and FieldElement constructors, which trust what make_field and decode
  hand them).
"""

import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

import permbinom as pb
from permbinom import cli, counts, sharpness, sweep
from permbinom.errors import SHOWN_CHARS, ReducibleModulusError, UnknownChoiceError, int_text, integer, value_text

f7, f13, f49 = pb.make_field(7), pb.make_field(13), pb.make_field(7, 2)
SUITE_OK = {"jobs": 1, "q_max": None}
SWEEP_OK = {"q_max": 8, "r_set": (2, 3), "seed": 0, "jobs": 1}

# (callable, parameter) -> the call with value in that parameter
CALLS = {
    ("AcceptanceSuite", "jobs"): lambda v: pb.AcceptanceSuite(**{**SUITE_OK, "jobs": v}),
    ("AcceptanceSuite", "q_max"): lambda v: pb.AcceptanceSuite(**{**SUITE_OK, "q_max": v}),
    ("build_count_report", "p"): lambda v: pb.build_count_report(v, 1, 1, 3),
    ("build_count_report", "k"): lambda v: pb.build_count_report(7, v, 1, 3),
    ("build_count_report", "n"): lambda v: pb.build_count_report(7, 1, v, 3),
    ("build_count_report", "r"): lambda v: pb.build_count_report(7, 1, 1, v),
    ("char2_cubic_sum", "k"): lambda v: pb.char2_cubic_sum(v),
    ("closed_count_r2", "q"): lambda v: pb.closed_count_r2(v, 1),
    ("closed_count_r2", "n"): lambda v: pb.closed_count_r2(13, v),
    ("closed_count_r3", "p"): lambda v: pb.closed_count_r3(v, 1, 1),
    ("closed_count_r3", "k"): lambda v: pb.closed_count_r3(7, v, 1),
    ("closed_count_r3", "n"): lambda v: pb.closed_count_r3(7, 1, v),
    ("compute_kappa", "p"): lambda v: pb.compute_kappa(v),
    ("count_points_extension", "a4"): lambda v: pb.count_points_extension(f49, v, 1),
    ("count_points_extension", "a6"): lambda v: pb.count_points_extension(f49, 1, v),
    ("count_points_prime", "p"): lambda v: pb.count_points_prime(v, 0, 1),
    ("count_points_prime", "a4"): lambda v: pb.count_points_prime(7, v, 1),
    ("count_points_prime", "a6"): lambda v: pb.count_points_prime(7, 0, v),
    ("cubic_char", "el"): lambda v: pb.cubic_char(f13, v),
    ("element_order", "el"): lambda v: pb.element_order(v),
    ("enumerate_perm_binomials", "n"): lambda v: pb.enumerate_perm_binomials(f13, v, 2),
    ("enumerate_perm_binomials", "r"): lambda v: pb.enumerate_perm_binomials(f13, 1, v),
    ("epsilons", "q"): lambda v: pb.epsilons(v, 1),
    ("epsilons", "n"): lambda v: pb.epsilons(13, v),
    ("make_field", "p"): lambda v: pb.make_field(v),
    ("make_field", "k"): lambda v: pb.make_field(7, v),
    ("make_field", "modulus"): lambda v: pb.make_field(7, 2, [v, 0, 1]),
    ("masuda_zieve_bounds", "q"): lambda v: pb.masuda_zieve_bounds(v, 2),
    ("masuda_zieve_bounds", "r"): lambda v: pb.masuda_zieve_bounds(13, v),
    ("parse_field", "text"): lambda v: pb.parse_field(v),
    ("pi_trace", "p"): lambda v: pb.pi_trace(v, 3),
    ("pi_trace", "j"): lambda v: pb.pi_trace(7, v),
    ("point_count_residue", "p"): lambda v: pb.point_count_residue(v, 0, 1),
    ("point_count_residue", "a4"): lambda v: pb.point_count_residue(7, v, 1),
    ("point_count_residue", "a6"): lambda v: pb.point_count_residue(7, 0, v),
    ("power_sum", "m"): lambda v: pb.power_sum(f7, v),
    ("quadratic_char", "el"): lambda v: pb.quadratic_char(f13, v),
    ("refined_bounds_r3", "q"): lambda v: pb.refined_bounds_r3(v),
    ("run_verify_sweep", "q_max"): lambda v: pb.run_verify_sweep(pb.SweepConfig(**{**SWEEP_OK, "q_max": v})),
    ("run_verify_sweep", "r_set"): lambda v: pb.run_verify_sweep(pb.SweepConfig(**{**SWEEP_OK, "r_set": (v,)})),
    ("run_verify_sweep", "seed"): lambda v: pb.run_verify_sweep(pb.SweepConfig(**{**SWEEP_OK, "seed": v})),
    ("run_verify_sweep", "jobs"): lambda v: pb.run_verify_sweep(pb.SweepConfig(**{**SWEEP_OK, "jobs": v})),
}
NO_INTEGER_PARAMETER = {"character_classes", "cubic_roots_of_unity", "emit_report", "report_to_dict"}
# NamedTuple records hold what they are given; SweepConfig is checked by run_verify_sweep
RECORDS = {"CheckResult", "CountReport", "KappaRecord", "SweepConfig", "SweepFailure", "SweepResult"}
LEFT_OUT = {"FieldElement", "FieldSpec"}  # see the module docstring
ODD_VALUES = (2.0, 2.5, "7", None, True, False, 0, -1, -7)


def _returns_or_refuses(call, value) -> None:
    try:
        call(value)
    except pb.PermBinomError:
        pass


def test_every_public_callable_is_covered():
    errors = {name for name in pb.__all__ if isinstance(getattr(pb, name), type) and issubclass(getattr(pb, name), Exception)}
    covered = {name for name, _ in CALLS} | NO_INTEGER_PARAMETER | RECORDS | LEFT_OUT | errors | {"__version__"}
    assert covered == set(pb.__all__)


HUGE = 10**5000  # 5,001 digits, past the 4,300 that int-to-str allows
# the entry points outside __all__: check_cell, FieldSpec.element and decode, and the sharpness module
MORE_CALLS = {
    ("check_cell", "r"): lambda v: pb.permtest.check_cell(13, 1, v),
    ("decode", "enc"): f7.decode,
    ("make_field", "k of a modulus"): lambda v: pb.make_field(7, v, [1, 0, 1]),
    ("sharpness_probe", "p"): lambda v: sharpness.sharpness_probe(v, 35),
    ("sharpness_probe", "n"): lambda v: sharpness.sharpness_probe(73, v),
    ("sharpness_probe", "depth"): lambda v: sharpness.sharpness_probe(73, 35, depth=v),
    ("deviation_bounds", "k"): lambda v: sharpness.deviation_bounds(73, v, 35),
    ("admissible_exponent", "n"): lambda v: sharpness.admissible_exponent(v, 7, 2),
    ("admissible_exponent", "k"): lambda v: sharpness.admissible_exponent(1, 5, v),
    ("admissible_exponent", "p"): lambda v: sharpness.admissible_exponent(1, v, 2),
    ("check_cell", "q"): lambda v: pb.permtest.check_cell(v, 1, 2),
    ("check_cell", "n"): lambda v: pb.permtest.check_cell(13, v, 2),
    ("deviation_bounds", "p"): lambda v: sharpness.deviation_bounds(v, 2, 35),
    ("deviation_bounds", "n"): lambda v: sharpness.deviation_bounds(73, 2, v),
    ("element", "value"): f7.element,
}
ALL_CALLS = {**CALLS, **MORE_CALLS}


@pytest.mark.parametrize("value", ODD_VALUES, ids=repr)
@pytest.mark.parametrize("case", sorted(ALL_CALLS), ids="-".join)
def test_an_odd_integer_argument_returns_or_raises_a_typed_refusal(case, value):
    _returns_or_refuses(ALL_CALLS[case], value)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(ALL_CALLS)),
    st.one_of(st.integers(-(10**30), 0), st.floats(), st.text(max_size=4), st.booleans(), st.none()),
)
def test_any_drawn_odd_argument_returns_or_raises_a_typed_refusal(case, value):
    _returns_or_refuses(ALL_CALLS[case], value)

# (callable, parameter, a small bad value, a huge bad value that must get the same refusal)
HUGE_CASES = [
    ("check_cell", "r", 4, HUGE),
    ("enumerate_perm_binomials", "r", 4, HUGE),
    ("masuda_zieve_bounds", "r", 5, HUGE),
    *((name, "p", 10, HUGE) for name in ("make_field", "compute_kappa", "pi_trace", "count_points_prime", "closed_count_r3", "build_count_report")),
    ("make_field", "k", -1, -HUGE),
    ("make_field", "k of a modulus", 3, HUGE),
    ("decode", "enc", 7, HUGE),
    ("decode", "enc", -1, -HUGE),
    ("sharpness_probe", "p", 3, -HUGE),
    ("sharpness_probe", "n", 0, -HUGE),
    ("sharpness_probe", "depth", 0, -HUGE),
    ("deviation_bounds", "k", 0, -HUGE),
    ("admissible_exponent", "n", 0, -HUGE),
    ("admissible_exponent", "k", 1, HUGE + 1),  # 5^odd is 2 mod 3
    ("run_verify_sweep", "jobs", (os.cpu_count() or 1) + 1, HUGE),
    ("run_verify_sweep", "r_set", 4, HUGE),
]


@pytest.mark.parametrize(
    ("name", "parameter", "small", "huge"), HUGE_CASES, ids=[f"{c[0]}-{c[1]}-{'neg' if c[3] < 0 else 'pos'}" for c in HUGE_CASES]
)
def test_a_huge_bad_integer_gets_the_refusal_a_small_one_gets(name, parameter, small, huge):
    call = ALL_CALLS[name, parameter]
    with pytest.raises(pb.PermBinomError) as want:
        call(small)
    with pytest.raises(pb.PermBinomError) as got:
        call(huge)
    assert type(got.value) is type(want.value)
    assert f"a {'negative ' if huge < 0 else ''}{huge.bit_length()}-bit integer" in str(got.value)


A, B = pb.make_field(7, 2, [1, 0, 1]), pb.make_field(7, 2, [3, 1, 1])  # x^2 + 1 and x^2 + x + 3
REFUSALS = {
    "make_field-float-p": ("UnknownChoiceError", lambda: pb.make_field(13.0)),
    "closed_count_r2-str-q": ("UnknownChoiceError", lambda: pb.closed_count_r2("13", 1)),
    "masuda_zieve_bounds-float-q": ("UnknownChoiceError", lambda: pb.masuda_zieve_bounds(13.0, 2)),
    # 13.0 == 13 and hashes alike, so its refusal must not be a cache hit on 13
    "compute_kappa-float-p": ("UnknownChoiceError", lambda: (pb.compute_kappa(13), pb.compute_kappa(13.0))),
    "epsilons-str-q": ("UnknownChoiceError", lambda: pb.epsilons("13", 1)),
    "parse_field-int": ("UnknownChoiceError", lambda: pb.parse_field(13)),
    "quadratic_char-other-field": ("FieldMismatchError", lambda: pb.quadratic_char(A, B.decode(7))),
    "cubic_char-other-field": ("FieldMismatchError", lambda: pb.cubic_char(f13, f7.one)),
    "quadratic_char-non-element": ("UnknownChoiceError", lambda: pb.quadratic_char(f13, "x")),
    "element_order-int": ("UnknownChoiceError", lambda: pb.element_order(3)),
    "sharpness_probe-str-n": ("UnknownChoiceError", lambda: sharpness.sharpness_probe(7, "1")),
    "deviation_bounds-float-p": ("UnknownChoiceError", lambda: sharpness.deviation_bounds(7.0, 2, 1)),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_escape_is_a_typed_refusal(name):
    error, call = REFUSALS[name]
    with pytest.raises(pb.PermBinomError) as info:
        call()
    assert type(info.value).__name__ == error


def test_an_int_is_lifted_into_the_field_by_both_characters():
    assert pb.quadratic_char(f13, 4) == pb.quadratic_char(f13, f13.element(4)) == 1
    assert pb.cubic_char(f13, 5) == pb.cubic_char(f13, f13.element(5))
    assert pb.quadratic_char(f13, True) == 1 and pb.cubic_char(f13, 0) is None


def test_an_element_of_an_equal_spec_is_accepted():
    twin = pb.FieldSpec(7, 2, A.modulus)  # equal to A, but not the cached object
    assert all(pb.quadratic_char(A, twin.decode(e)) == pb.quadratic_char(A, A.decode(e)) for e in range(49))


# (callable, parameter) -> the call with value in that parameter, which takes a name
CHOICE_CALLS = {
    ("enumerate_perm_binomials", "method"): lambda v: pb.enumerate_perm_binomials(f7, 1, 2, method=v),
    ("render", "fmt"): lambda v: counts.render(v, {}, rows=[]),
    ("emit_report", "fmt"): lambda v: pb.emit_report(pb.SweepResult((), (), 0), v),
    ("run_check", "name"): lambda v: pb.AcceptanceSuite(q_max=13).run_check(v),
    ("run", "names"): lambda v: pb.AcceptanceSuite(q_max=13).run([v]),
    ("parse_field", "text"): lambda v: pb.parse_field(v),
}
# none of these is an accepted name anywhere: wrong types, a huge int, the wrong case and the underscore spelling
BAD_NAMES = (None, True, 5, 2.5, HUGE, ["criterion"], "bogus", "Criterion", "JSON", "r2_sweep")


@pytest.mark.parametrize("value", BAD_NAMES, ids=lambda v: "HUGE" if v is HUGE else repr(v))
@pytest.mark.parametrize("case", sorted(CHOICE_CALLS), ids="-".join)
def test_a_bad_name_is_refused_as_an_unknown_choice(case, value):
    with pytest.raises(UnknownChoiceError) as info:
        CHOICE_CALLS[case](value)
    assert len(str(info.value)) <= 200  # so no message echoes more than 200 characters of the value


def test_csv_is_a_format_only_where_there_are_rows():
    assert counts.render("csv", {}, rows=[("a", 1)]) == b"a,1\n"
    with pytest.raises(UnknownChoiceError, match="unknown format 'csv'"):
        counts.render("csv", {})


@pytest.mark.parametrize("names", [5, "exact-case-f73", ("r2-sweep",), {"r2-sweep"}, ["r2-sweep", "bogus", 5]], ids=repr)
def test_run_refuses_anything_but_a_list_of_check_names_before_any_check_runs(names, monkeypatch):
    monkeypatch.setattr(pb.AcceptanceSuite, "run_check", lambda self, name: pytest.fail(f"check {name} ran"))
    with pytest.raises(UnknownChoiceError) as info:
        pb.AcceptanceSuite(q_max=13).run(names)
    assert str(info.value) == ("unknown check 'bogus'" if isinstance(names, list) else f"the checks to run must be a list of names, got a {type(names).__name__}")


DIGITS = "9" * 5000  # well-formed, but past the 4,300 digits that int() reads from a str
X = "x" * 3000
# each call gets a long string where a name, a field, an element or an integer is expected
LONG_INPUT_CALLS = {
    "integer-digits": lambda: integer(DIGITS),
    "integer-negative-digits": lambda: integer("-" + DIGITS),
    "integer-text": lambda: integer(X),
    "parse_field-text": lambda: pb.parse_field(X),
    "parse_field-digits": lambda: pb.parse_field(DIGITS),
    "parse_field-escaped-text": lambda: pb.parse_field("\U000e0001" * SHOWN_CHARS),
    "parse_field-exponent-digits": lambda: pb.parse_field("7^" + DIGITS),
    "run_check": lambda: pb.AcceptanceSuite(q_max=13).run_check(X),
    "enumerate-method": lambda: pb.enumerate_perm_binomials(f7, 1, 2, method=X),
    "cli-element-text": lambda: cli._element(f7, X),
    "cli-element-digits": lambda: cli._element(f7, DIGITS),
}
# (argv, environment): each query exits 2
LONG_INPUT_QUERIES = {
    "char-x-digits": (["char", "--field", "7", "--x", DIGITS], {}),
    "count-n-digits": (["count", "--field", "7", "--n", DIGITS, "--r", "2"], {}),
    "char-field-text": (["char", "--field", X], {}),
    "char-x-text": (["char", "--field", "7", "--x", "y" * 3000], {}),
    "enumerate-modulus-text": (["enumerate", "--field", "7", "--modulus", "z" * 3000, "--n", "1", "--r", "2"], {}),
    "enumerate-modulus-digits": (["enumerate", "--field", "7", "--modulus", f"1,{DIGITS},1", "--n", "1", "--r", "2"], {}),
    "guard-text": (["char", "--field", "7"], {"PERMBINOM_GUARD": "g" * 3000}),
    "count-n-text": (["count", "--field", "7", "--n", X, "--r", "2"], {}),
    # read, but with hundreds or thousands of digits in q, k or j
    "count-field-long-q": (["count", "--field", "1" + "0" * 3999 + "2", "--n", "1", "--r", "2"], {}),
    "bounds-field-long-q": (["bounds", "--field", "2^4000", "--r", "2"], {}),
    "count-field-long-q-1": (["count", "--field", "3^2000", "--n", "2", "--r", "2"], {}),
    "enumerate-field-long-k": (["enumerate", "--field", "7^" + "9" * 400, "--n", "1", "--r", "2"], {}),
    "trace-long-j": (["trace", "--p", "73", "--j", "9" * 300], {}),
    # an exponent past float's range, which refuse_unprintable decides without one
    "trace-j-past-float": (["trace", "--p", "73", "--j", "9" * 400], {}),
    "char-x-k-past-float": (["char", "--field", "7^" + "9" * 400, "--x", "5"], {}),
}


def names_the_digit_limit(text: str) -> bool:
    return f"past {sys.get_int_max_str_digits()}, the interpreter's str-to-int digit limit" in text


@pytest.mark.parametrize("name", sorted(LONG_INPUT_CALLS))
def test_a_long_input_gets_a_short_typed_refusal(name):
    with pytest.raises(pb.PermBinomError) as info:
        LONG_INPUT_CALLS[name]()
    assert len(str(info.value)) <= 200
    assert names_the_digit_limit(str(info.value)) == name.endswith("digits")


@pytest.mark.parametrize("name", sorted(LONG_INPUT_QUERIES))
def test_a_long_input_query_prints_one_short_error_line(name, capsys, monkeypatch):
    argv, env = LONG_INPUT_QUERIES[name]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse's usage error, from errors.integer's refusal
        rc = exc.code
    out, err = capsys.readouterr()
    assert rc == 2 and out == "" and "Traceback" not in err
    assert [line for line in err.splitlines() if "error: " in line] == [err.splitlines()[-1]]
    assert max(map(len, err.splitlines())) <= 200
    assert names_the_digit_limit(err) == name.endswith("digits")


def test_a_str_is_shown_whole_up_to_shown_chars_and_named_by_its_length_past_them():
    assert value_text("x" * SHOWN_CHARS) == repr("x" * SHOWN_CHARS)
    assert value_text("x" * (SHOWN_CHARS + 1)) == f"a {SHOWN_CHARS + 1}-character str"
    # the bound is on the repr: SHOWN_CHARS + 2 characters with its quotes
    assert value_text("\n" * (SHOWN_CHARS // 2)) == repr("\n" * (SHOWN_CHARS // 2))
    assert value_text("\n" * (SHOWN_CHARS // 2 + 1)) == f"a {SHOWN_CHARS // 2 + 1}-character str"
    assert value_text("\U000e0001" * SHOWN_CHARS) == f"a {SHOWN_CHARS}-character str"


def test_an_int_is_shown_whole_up_to_shown_chars_digits_under_any_digit_limit():
    default, texts = sys.get_int_max_str_digits(), []
    try:
        for limit in (640, 0):
            sys.set_int_max_str_digits(limit)
            texts.append([int_text(v) for v in (10**SHOWN_CHARS - 1, -(10**SHOWN_CHARS - 1), 10**SHOWN_CHARS, 10**999, -(10**999))])
    finally:
        sys.set_int_max_str_digits(default)
    assert texts[0] == texts[1] == [
        "9" * SHOWN_CHARS, "-" + "9" * SHOWN_CHARS, "a 213-bit integer", "a 3319-bit integer", "a negative 3319-bit integer"
    ]


def test_a_reducible_modulus_is_shown_whole_up_to_the_bound_and_by_its_degree_past_it():
    with pytest.raises(ReducibleModulusError, match=r"^modulus \(0, 0, 1\) is reducible over F_7$"):
        pb.make_field(7, 2, [0, 0, 1])
    # 22 coefficients print in SHOWN_CHARS characters between the parentheses, 23 do not
    with pytest.raises(ReducibleModulusError, match=rf"^modulus \({', '.join(['0'] * 21)}, 1\) is reducible over F_2$"):
        pb.make_field(2, 21, [0] * 21 + [1])
    for k in (22, 199):
        with pytest.raises(ReducibleModulusError, match=f"^modulus of degree {k} is reducible over F_2$"):
            pb.make_field(2, k, [0] * k + [1])


def test_an_integer_like_seed_draws_the_sample_of_its_int():
    def sampled(seed):  # which cells of the block q = 101, r = 2 brute force skips
        return [cell["brute_count"] is None for cell in sweep._field_task(pb.SweepConfig(seed=seed), 101, 1, 2).cells]

    assert sampled(True) == sampled(1) != sampled(0)
