"""Inputs far deeper than Python's recursion limit.

Every check here runs at the default recursion limit, which no test
raises. Results are compared with closed forms or printed strings, never
with ``==`` on deep terms: the dataclass-generated ``__eq__``, ``__hash__``
and ``__repr__`` of terms still recurse.
"""

import json
import sys
from fractions import Fraction

import pytest

from fracterm.cli import main
from fracterm.errors import DivisionByZero
from fracterm.ratio import DenomOf, NumOf, RatioNumber, rn_eval
from fracterm.semantics import BOTTOM, POLICIES, EvalConfig, eval_term, value_to_json
from fracterm.terms import (
    Div,
    Lit,
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
