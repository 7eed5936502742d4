"""Inputs far deeper than Python's recursion limit.

Every check here runs at the default recursion limit, which no test
raises.
"""

import json
import sys
import tracemalloc
from fractions import Fraction

import pytest

from fracterm.cli import main
from fracterm.errors import CapacityError, DivisionByZero
from fracterm.fractalk import check_text, parse_script
from fracterm.ratio import DenomOf, NumOf, RatioNumber, rn_eval
from fracterm.rewrite import FLATTEN_DEPTH, flatten
from fracterm.semantics import BOTTOM, POLICIES, EvalConfig, eval_term, value_to_json
from fracterm.terms import (
    Add,
    Div,
    Lit,
    Neg,
    TaxonomyFlags,
    classify,
    desugar_literals,
    erase_decorations,
    expand_literal,
    format_term,
    parse_term,
)

DEEP = 10**5
LONG = 2 * 10**4

EVAL_PAIRS = [(p, s) for p in POLICIES for s in ("rat.pcs", "rat.ssft")] + [("common-meadow", "rat.rns")]


@pytest.fixture(autouse=True)
def default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000


def signed_digits(n):
    return [str((k * 7 + 9) % 19 - 9) for k in range(n)]


def left_sum_text(n):
    return "+".join(signed_digits(n))


def test_eq_hash_repr_and_sets_on_deep_terms():
    text = "-" * DEEP + "(1/2)"
    t, u = parse_term(text), parse_term(text)
    assert t is not u and t == u and hash(t) == hash(u)
    assert u in {t}
    assert repr(t) == str(t) == text
    assert t != parse_term("-" * DEEP + "(1/3)")
    assert t != parse_term("-" * DEEP + "(1/ft2)")
    s = parse_term(left_sum_text(DEEP))
    assert s == parse_term(left_sum_text(DEEP)) and s != t
    assert {s: 1, t: 2}[parse_term(text)] == 2


def test_eq_and_hash_of_deep_terms_built_by_hand():
    chain, total = Lit("2"), Lit("1")
    for k in range(DEEP):
        chain = Neg(chain)
        total = Add(total, Lit(str(k % 10)))
    total_text = "+".join(["1", *(str(k % 10) for k in range(DEEP))])
    for t, text, child in ((chain, "-" * DEEP + "(2)", chain.operand), (total, total_text, total.left)):
        parsed = parse_term(text)
        assert t == parsed and parsed == t  # neither hashed
        hash(child)
        assert t == parsed  # t partly hashed
        assert hash(t) == hash(parsed) and hash(t) == hash(parse_term(text))
        assert t == parsed  # both hashed
    assert hash(Neg(chain)) == hash(parse_term("-" * (DEEP + 1) + "(2)"))


def test_nested_parentheses_all_formats():
    for fmt, core in (("inline", "1/2"), ("colon", "1:2"), ("frac", "frac(1,2)")):
        t = parse_term("(" * DEEP + core + ")" * DEEP, fmt)
        assert t == Div(Lit("1"), Lit("2"))  # shallow: the parentheses leave no node
        assert format_term(t, fmt) == core


def test_long_sum_round_trip_and_classify():
    text = left_sum_text(DEEP)
    t = parse_term(text)
    for fmt in ("inline", "colon", "frac"):
        assert format_term(t, fmt) == text
    assert classify(t) == TaxonomyFlags(False, True, False, False, False, False, None)


def test_negation_chain_round_trip_classify_and_eval():
    text = "-" * DEEP + "(3)"
    t = parse_term(text)
    assert format_term(t) == text
    assert format_term(t, "frac") == text
    assert classify(t) == TaxonomyFlags(False, True, False, False, False, False, None)
    assert value_to_json(eval_term(t)) == {"kind": "number", "shape": "rat.pcs", "value": [3, 1]}


def test_erase_decorations_long_sum():
    tags = ("ft", "fv", "")
    parts = [f"{d}/{tags[k % 3]}{k % 5 + 1}" for k, d in enumerate(signed_digits(LONG))]
    t = parse_term("+".join(parts))
    erased = "+".join(p.replace("ft", "").replace("fv", "") for p in parts)
    assert format_term(erase_decorations(t)) == erased


def test_erase_decorations_deep_division():
    text = "1/(" * DEEP + "2/ft3" + ")" * DEEP
    t = parse_term(text)
    erased = erase_decorations(t)
    assert format_term(erased) == text.replace("/ft", "/")
    assert erase_decorations(erased) is erased


def test_desugar_literals_long_sum():
    digits = signed_digits(LONG)
    t = desugar_literals(parse_term("+".join(digits)))
    assert set(format_term(t)) <= set("01+-*()")
    assert rn_eval(t) == RatioNumber(sum(map(int, digits)), 1)


@pytest.mark.parametrize("policy,shape_id", EVAL_PAIRS)
def test_eval_long_sum(policy, shape_id):
    digits = signed_digits(LONG)
    v = eval_term(parse_term("+".join(digits)), EvalConfig(policy, shape_id))
    expected = Fraction(sum(map(int, digits)))
    if shape_id == "rat.ssft":
        assert value_to_json(v)["value"] == f"{expected.numerator}/{expected.denominator}"
    else:
        assert value_to_json(v)["value"] == [expected.numerator, expected.denominator]


def test_eval_long_sum_with_zero_divisor_at_the_end():
    digits = signed_digits(LONG)
    t = parse_term("+".join(digits) + "+1/0")
    with pytest.raises(DivisionByZero, match=r"zero divisor in 1/0"):
        eval_term(t, EvalConfig("partial"))
    assert eval_term(t, EvalConfig("common-meadow")) == BOTTOM
    total = value_to_json(eval_term(t, EvalConfig("suppes-ono")))
    assert total["value"] == [sum(map(int, digits)), 1]


def test_rn_eval_long_sum_of_halves():
    # Cross-multiplied raw pairs: n halves add up to (n * 2^(n-1), 2^n).
    t = parse_term("+".join(["1/2"] * LONG))
    a, b = LONG * 2 ** (LONG - 1), 2**LONG
    assert rn_eval(t) == RatioNumber(a, b)
    assert rn_eval(NumOf(t)) == RatioNumber(a, 1)
    assert rn_eval(DenomOf(t)) == RatioNumber(b, 1)


@pytest.mark.parametrize(
    "evaluate, text",
    [(rn_eval, "+".join(["1/2"] * LONG)), (eval_term, "*".join(["9"] * LONG))],
    ids=["rn-sum-of-halves", "eval-product"],
)
def test_long_fold_keeps_no_result_its_parent_has_read(evaluate, text):
    # Keeping every node's result until the fold returns held each raw pair
    # of the sum, about 2i bits at step i: about 60 MB here, and 87 MB for
    # the product. Dropping a result once read leaves about 4 MB, mostly
    # the fold's list of calls and the ids it keeps to find repeated nodes.
    t = parse_term(text)
    tracemalloc.start()
    try:
        evaluate(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12_000_000


def test_expand_literal_thousand_digits():
    n = int("7" * 1000)
    expanded = expand_literal(n)
    assert set(format_term(expanded)) <= set("01+*()")
    assert rn_eval(expanded) == RatioNumber(n, 1)
    assert rn_eval(expand_literal(-n)) == RatioNumber(-n, 1)


def test_cli_parse_and_eval_deep_inputs(capsys):
    text = left_sum_text(DEEP)
    assert main(["parse", "--json", text]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"inline": text, "colon": text, "frac": text, "is_fracterm": False}

    assert main(["eval", "--json", "(" * DEEP + "1/2" + ")" * DEEP]) == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "number", "shape": "rat.pcs", "value": [1, 2]}

    assert main(["eval", "--json", text]) == 0
    total = sum(map(int, signed_digits(DEEP)))
    assert json.loads(capsys.readouterr().out) == {"kind": "number", "shape": "rat.pcs", "value": [total, 1]}


# A flatten trace prints the whole term at every step, so it grows at least
# quadratically with depth; these depths keep it to a few megabytes.
NEG_DEPTH = 1000
HALVES = 600


def neg_chain_step_text(k):
    """The term after k neg-lifts of -...-(1/2), NEG_DEPTH minus signs."""
    inner = "1/2" if k == 0 else "-" * k + "(1)/2"
    outer = NEG_DEPTH - k
    return "-" * outer + f"({inner})" if outer else inner


def test_flatten_negation_chain():
    t = parse_term(neg_chain_step_text(0))
    result, trace = flatten(t)
    assert format_term(result) == neg_chain_step_text(NEG_DEPTH) == "-" * NEG_DEPTH + "(1)/2"
    assert trace.to_json() == [
        {"rule": "neg-lift", "before": neg_chain_step_text(k), "after": neg_chain_step_text(k + 1)}
        for k in range(NEG_DEPTH)
    ]
    assert trace.replay(t) is result


def test_flatten_long_sum_of_halves():
    # Each add-lift turns (a)/(b) + 1/2 into (a*2+b*1)/(b*2).
    t = parse_term("+".join(["1/2"] * HALVES))
    result, trace = flatten(t)
    a, b = "1", "2"
    for k in range(HALVES - 1):
        a = f"{a if k == 0 else f'({a})'}*2+{b}*1"
        b += "*2"
    assert format_term(result) == f"({a})/({b})"
    assert [s.rule for s in trace.steps] == ["add-lift"] * (HALVES - 1)
    assert trace.replay(t) is result


def test_flatten_depth_budget():
    assert FLATTEN_DEPTH > NEG_DEPTH  # the chain above has NEG_DEPTH + 1 nodes holding a division
    for depth in (FLATTEN_DEPTH, DEEP):
        with pytest.raises(CapacityError):
            flatten(parse_term("-" * depth + "(1/2)"))
    # Only nodes that hold a division count: a long sum under one flattens.
    result, trace = flatten(parse_term(f"({left_sum_text(LONG)})/2"))
    assert result == Div(Lit(str(sum(map(int, signed_digits(LONG))))), Lit("2"))
    assert [s.rule for s in trace.steps] == ["numeral-eval"]


def test_cli_flatten_past_the_depth_budget(capsys):
    assert main(["flatten", "--json", "--", "-" * LONG + "(1/2)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == "CapacityError"


def test_cli_flatten_deep_negation_chain(capsys):
    assert main(["flatten", "--json", "--", neg_chain_step_text(0)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"] == neg_chain_step_text(NEG_DEPTH)
    assert len(data["trace"]) == NEG_DEPTH


# Fractalk compares signs structurally; a 3000-deep sign must check as its
# shallow analogue does.
DEEP_SIGNS = [("--(1/2)", "-" * 3000 + "(1/2)"), ("1/--(2)", "1/" + "-" * 3000 + "(2)")]
SIGN_SCRIPTS = [
    "1: {T} == {T} @ft",
    "1: {T} == {T} @fs",
    "1: {T} == -{T} @ft",
    "1: {T} is rational\n2: {T} is fracterm\n3: rationals are not fracterms\n4: {T} contradicts 3",
    "@shape rat.ssft\n1: {T} is fracterm and fracvalue\n2: not all fracterms are rational\n3: {T} contradicts 2",
    "1: {T} can be written flat as 1/2",
]


def verdict_shape(text):
    verdict = check_text(text)
    return [s.status for s in verdict.steps], verdict.overall, verdict.blocked_at


@pytest.mark.parametrize("template", SIGN_SCRIPTS, ids=["eq-ft", "eq-fs", "neq-ft", "contradicts", "contradicts-ssft",
                                                 "writable-flat"])
@pytest.mark.parametrize("shallow,deep", DEEP_SIGNS, ids=["neg-chain", "deep-denominator"])
def test_fractalk_deep_sign_checks_as_shallow(template, shallow, deep):
    assert verdict_shape(template.format(T=deep)) == verdict_shape(template.format(T=shallow))


def test_scripts_with_deep_occurrences_compare_equal():
    shallow, deep = DEEP_SIGNS[0]
    for template in SIGN_SCRIPTS:
        script = parse_script(template.format(T=deep))
        assert script == parse_script(template.format(T=deep))
        assert script != parse_script(template.format(T=shallow))


def test_cli_fractalk_deep_equality(capsys, tmp_path):
    deep = DEEP_SIGNS[0][1]
    script = tmp_path / "deep.ftk"
    script.write_text(f"1: {deep} == {deep} @ft\n")
    assert main(["fractalk", "check", "--json", str(script)]) == 0
    assert json.loads(capsys.readouterr().out)["overall"] == "sound"


def test_cli_add_same_denominator_deep(capsys):
    d = "-" * 3000 + "(2)"
    assert main(["add", "--json", "--strategy", "same-denom", "1/" + d, "3/" + d]) == 0
    assert json.loads(capsys.readouterr().out) == {"result": "(1+3)/" + d}
