import copy
import pickle
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
    _fmt,
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


def test_shared_printing_keeps_the_text_of_a_node_met_again():
    x = parse_term("(1+2)*3")
    t = Add(x, Neg(x))
    seen, memo = set(), {}
    assert _fmt(t, "inline", (set(), seen, memo)) == format_term(t)
    assert memo == {id(x): format_term(x)}
    # From then on x is spliced in whole, as a poisoned memo shows. t, met
    # in the call before (older), is captured now.
    memo[id(x)] = "X"
    assert _fmt(Mul(x, Div(x, t)), "inline", (seen, set(), memo)) == "X*(X/(X+-(X)))"
    assert memo[id(t)] == "X+-(X)"


def test_shared_captures_do_not_nest():
    v = parse_term("1+2")
    w = Neg(v)
    memo = {}
    assert _fmt(Add(w, w), "inline", (set(), set(), memo)) == "-(1+2)+-(1+2)"
    # v is met again only inside the capture of w.
    assert memo == {id(w): "-(1+2)"}


@settings(max_examples=200)
@given(term_strategy(), term_strategy(), st.sampled_from(["inline", "colon", "frac"]))
def test_shared_printing_matches_format_term(a, b, fmt):
    ab = Sub(a, b)
    terms = [a, Add(ab, ab), b, Mul(Neg(ab), Div(a, ab, "ft")), ab, a]
    older, seen, memo = set(), set(), {}
    for t in terms:
        assert _fmt(t, fmt, (older, seen, memo)) == format_term(t, fmt)
        older, seen = seen, set()


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


def _walked_facts(t):
    """(has_div, has_var, decorated) of t, found by visiting every node."""
    facts = [False, False, False]
    todo = [t]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            facts[1] = True
        elif isinstance(node, Neg):
            todo.append(node.operand)
        elif not isinstance(node, Lit):
            if isinstance(node, Div):
                facts[0] = True
                facts[2] = facts[2] or node.decoration is not None
            todo += (node.left, node.right)
    return tuple(facts)


@given(st.one_of(closed_terms, term_strategy()))
def test_node_facts_agree_with_a_walk(t):
    has_div, has_var, decorated = _walked_facts(t)
    assert (t.has_div, t.has_var, t.decorated) == (has_div, has_var, decorated)
    assert (contains_div(t), contains_var(t)) == (has_div, has_var)
    fracterm = isinstance(t, Div)
    flat = fracterm and not _walked_facts(t.left)[0] and not _walked_facts(t.right)[0]
    flags = classify(t)
    assert (flags.is_fracterm, flags.closed, flags.flat) == (fracterm, not has_var, flat)


@given(term_strategy(max_leaves=4), term_strategy(max_leaves=4))
def test_equality_is_identity_of_the_printed_form(a, b):
    # Decorations print, so a decorated term differs from its erasure.
    for x, y in ((a, b), (a, parse_term(format_term(a))), (a, erase_decorations(a))):
        assert (x == y) == (format_term(x) == format_term(y))
        if x == y:
            assert hash(x) == hash(y)


def test_terms_are_immutable_and_copy():
    t = parse_term("(007+x)/ft-2")
    for field, value in (("left", Lit("3")), ("decoration", None), ("has_div", False)):
        with pytest.raises(AttributeError):
            setattr(t, field, value)
        with pytest.raises(AttributeError):
            delattr(t, field)
    assert t == Div(Add(Lit("007"), Var("x")), Lit("-2"), "ft")
    deep = parse_term("-" * 10**4 + "(1/fv2)")
    for u in (t, deep):
        assert copy.deepcopy(u) == pickle.loads(pickle.dumps(u)) == u


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
