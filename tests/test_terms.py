import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracterm.errors import NotAFracterm, ParseError
from fracterm.terms import (
    RESERVED_WORDS,
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Sub,
    Var,
    classify,
    contains_div,
    contains_var,
    denom,
    desugar_literals,
    erase_decorations,
    expand_literal,
    format_term,
    is_fracterm,
    num,
    parse_term,
)

from gen import random_closed_term
from oracle import eval_exact


# ---------------------------------------------------------------------------
# Golden parses


def test_parse_minimal_division():
    assert parse_term("1/2") == Div(Lit("1"), Lit("2"))


def test_parse_nested_numerator():
    assert parse_term("(1+2/3)/5") == Div(Add(Lit("1"), Div(Lit("2"), Lit("3"))), Lit("5"))


def test_parse_nested_denominator():
    assert parse_term("2/(4/5)") == Div(Lit("2"), Div(Lit("4"), Lit("5")))


def test_parse_precedence_and_associativity():
    assert parse_term("1+2*3") == Add(Lit("1"), Mul(Lit("2"), Lit("3")))
    assert parse_term("1-2-3") == Sub(Sub(Lit("1"), Lit("2")), Lit("3"))
    assert parse_term("1/2/3") == Div(Div(Lit("1"), Lit("2")), Lit("3"))
    assert parse_term("(1+2)*3") == Mul(Add(Lit("1"), Lit("2")), Lit("3"))


def test_parse_signed_literal_vs_negation():
    assert parse_term("-3/7") == Div(Lit("-3"), Lit("7"))
    assert parse_term("- 3") == Neg(Lit("3"))
    assert parse_term("-(3)") == Neg(Lit("3"))
    assert parse_term("1--3") == Sub(Lit("1"), Lit("-3"))
    assert parse_term("2*-3") == Mul(Lit("2"), Lit("-3"))


def test_parse_decorations():
    assert parse_term("1/ft2") == Div(Lit("1"), Lit("2"), "ft")
    assert parse_term("1/fv2") == Div(Lit("1"), Lit("2"), "fv")
    assert parse_term("1:ft2", "colon") == Div(Lit("1"), Lit("2"), "ft")
    assert parse_term("frac_fv(1,2)", "frac") == Div(Lit("1"), Lit("2"), "fv")


def test_parse_colon_and_frac_formats():
    assert parse_term("1:2", "colon") == Div(Lit("1"), Lit("2"))
    assert parse_term("frac(1+frac(2,3),5)", "frac") == parse_term("(1+2/3)/5")


# (text, format, position of the ParseError), one row per malformed input.
PARSE_ERRORS = [
    ("1/+", "inline", 2),
    ("1/+", "frac", 1),
    ("", "inline", 0),
    ("", "frac", 0),
    ("(1+2", "inline", 4),
    ("(1+2", "frac", 4),
    ("1/ft", "inline", 4),
    ("1/ft", "frac", 1),
    ("1 2", "inline", 2),
    ("1 2", "frac", 2),
    ("(1,2)", "inline", 2),
    ("(1,2)", "frac", 2),
    (")", "inline", 0),
    (")", "frac", 0),
    ("1)", "inline", 1),
    ("1)", "frac", 1),
    ("frac(1)", "inline", 0),
    ("frac(1)", "frac", 6),
    ("frac(1,2,3)", "inline", 0),
    ("frac(1,2,3)", "frac", 8),
    ("frac 1", "inline", 0),
    ("frac 1", "frac", 5),
    ("(", "inline", 1),
    ("(", "frac", 1),
    ("-", "inline", 1),
    ("-", "frac", 1),
    ("1+", "inline", 2),
    ("1+", "frac", 2),
    ("1*(2+)", "inline", 5),
    ("1*(2+)", "frac", 5),
    ("frac(1,(2)", "inline", 0),
    ("frac(1,(2)", "frac", 10),
    ("((1)))", "inline", 5),
    ("((1)))", "frac", 5),
    ("1:2", "inline", 1),  # colon division is not inline syntax
    ("1::2", "colon", 2),
    ("frac_ft 1", "frac", 8),
    ("frac(", "frac", 5),
    ("-frac(1,2", "frac", 9),
    ("1*-(2,3)", "inline", 5),
    ("x+frac(1,(2,3))", "frac", 11),
    # Digits and letters are ASCII only.
    ("x²", "inline", 1),
    ("x²", "colon", 1),
    ("x²", "frac", 1),
    ("٣/4", "inline", 0),
    ("٣/4", "colon", 0),
    ("٣/4", "frac", 0),
]


@pytest.mark.parametrize("text,fmt,position", PARSE_ERRORS)
def test_parse_errors_carry_position(text, fmt, position):
    with pytest.raises(ParseError) as e:
        parse_term(text, fmt)
    assert e.value.position == position


def test_reserved_words_rejected():
    for word in sorted(RESERVED_WORDS):
        with pytest.raises(ParseError):
            parse_term(f"1/({word})")


# ---------------------------------------------------------------------------
# Golden formats


def test_format_inline_colon_frac():
    half = Div(Lit("1"), Lit("2"))
    assert format_term(half, "inline") == "1/2"
    assert format_term(half, "colon") == "1:2"
    assert format_term(half, "frac") == "frac(1,2)"
    assert format_term(Div(Lit("1"), Lit("0")), "inline") == "1/0"


def test_format_decorations():
    assert format_term(Div(Lit("1"), Lit("2"), "ft")) == "1/ft2"
    assert format_term(Div(Lit("1"), Lit("2"), "fv"), "colon") == "1:fv2"
    assert format_term(Div(Lit("1"), Lit("2"), "ft"), "frac") == "frac_ft(1,2)"


# ---------------------------------------------------------------------------
# Round trips


@st.composite
def term_strategy(draw, max_leaves=10):
    lits = st.integers(-99, 99).map(lambda n: Lit(str(n)))
    names = st.sampled_from(["x", "y", "z2", "abc"])
    leaves = st.one_of(lits, names.map(Var))
    decos = st.sampled_from([None, "ft", "fv"])

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Add, children, children),
            st.builds(Sub, children, children),
            st.builds(Mul, children, children),
            st.builds(Div, children, children, decos),
        )

    return draw(st.recursive(leaves, extend, max_leaves=max_leaves))


@settings(max_examples=300)
@given(term_strategy(), st.sampled_from(["inline", "colon", "frac"]))
def test_round_trip(t, fmt):
    assert parse_term(format_term(t, fmt), fmt) == t


# ---------------------------------------------------------------------------
# Taxonomy


def test_classify_goldens():
    five_over_sum = classify(parse_term("5/(1+3)"))
    assert five_over_sum.is_fracterm
    assert not five_over_sum.simple
    # 1+3 is division-free, so the fracterm is flat even though not simple.
    assert five_over_sum.flat

    four_sixths = classify(parse_term("4/6"))
    assert four_sixths.simple and four_sixths.safe and not four_sixths.simplified

    five_fourths = classify(parse_term("5/4"))
    assert five_fourths.simple and five_fourths.simplified
    assert five_fourths.proper is False

    assert classify(parse_term("1/2")).proper is True
    assert classify(parse_term("1+2")).proper is None


def test_classify_unsafe_and_noncanonical():
    assert not classify(parse_term("1/0")).safe
    assert not classify(parse_term("1/0")).simplified
    assert not classify(parse_term("1/-2")).simplified
    assert not classify(parse_term("-3/-9")).simplified
    assert classify(parse_term("-3/7")).simplified
    assert classify(Div(Lit("007"), Lit("8"))).simplified is False
    assert classify(parse_term("0/1")).simplified


def test_classify_closed():
    assert classify(parse_term("1/2")).closed
    assert not classify(parse_term("x/2")).closed


def test_is_fracterm_goldens():
    assert is_fracterm(parse_term("1/2"))
    assert not is_fracterm(parse_term("1+2"))
    assert is_fracterm(parse_term("(1/0)/0"))


def _enumerate_terms(max_depth):
    reps = [Lit(s) for s in ("-9", "-2", "0", "1", "9")]
    layers = [list(reps)]
    for _ in range(max_depth - 1):
        prev = [t for layer in layers for t in layer]
        new = [Neg(t) for t in layers[-1]]
        for cls in (Add, Sub, Mul, Div):
            new.extend(cls(a, b) for a in layers[-1] for b in prev)
            new.extend(cls(a, b) for a in reps for b in layers[-1] if a not in layers[-1])
        layers.append(new)
    for layer in layers:
        yield from layer


def test_taxonomy_chain_by_enumeration():
    count = 0
    for t in _enumerate_terms(3):
        f = classify(t)
        if f.simplified:
            assert f.simple
        if f.simple:
            assert f.flat
        if f.flat:
            assert f.is_fracterm
        if f.safe:
            assert f.simple
        assert (f.proper is not None) == f.simple
        count += 1
    assert count > 10_000


@given(term_strategy())
def test_decoration_neutrality(t):
    assert classify(t) == classify(erase_decorations(t))


closed_terms = st.builds(
    lambda seed, depth: random_closed_term(random.Random(seed), depth), st.integers(0, 2**32), st.integers(0, 7)
)


@given(st.one_of(closed_terms, term_strategy()))
def test_classify_agrees_with_three_walks(t):
    # The definition before classify made one walk.
    fracterm = isinstance(t, Div)
    flat = fracterm and not contains_div(t.left) and not contains_div(t.right)
    flags = classify(t)
    assert (flags.is_fracterm, flags.closed, flags.flat) == (fracterm, not contains_var(t), flat)


def test_erase_decorations_keeps_an_undecorated_term():
    t = parse_term("(1+2/3)/(x*4)")
    assert erase_decorations(t) is t
    assert num(t) is t.left and denom(t) is t.right
    decorated = parse_term("(1+2/ft3)/(x*4)")
    assert erase_decorations(decorated) is not decorated
    assert erase_decorations(decorated) == t


@given(term_strategy())
def test_reconstruction(t):
    if is_fracterm(t):
        assert Div(num(t), denom(t)) == erase_decorations(t)


def test_num_denom_goldens():
    assert num(parse_term("2/(4/5)")) == Lit("2")
    assert denom(parse_term("1/2")) == Lit("2")
    assert num(parse_term("1/ft2")) == Lit("1")
    with pytest.raises(NotAFracterm):
        num(parse_term("1+2"))


# ---------------------------------------------------------------------------
# Literal desugaring


def test_expand_literal_values():
    for n in range(-50, 51):
        expanded = expand_literal(n)
        assert eval_exact(expanded) == n
        assert not contains_div(expanded)


def test_desugar_preserves_value():
    t = parse_term("(7+2/3)/5")
    assert eval_exact(desugar_literals(t)) == eval_exact(t)
