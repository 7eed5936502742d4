import ast
import copy
import operator
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracterm import terms
from fracterm.errors import CapacityError, NotAFracterm, ParseError, UnsupportedOperation
from fracterm.rewrite import flatten
from fracterm.terms import (
    FORMATS,
    RESERVED_WORDS,
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Sub,
    Var,
    _Binary,
    _fmt,
    classify,
    contains_div,
    denom,
    desugar_literals,
    erase_decorations,
    expand_literal,
    fold,
    format_term,
    is_fracterm,
    num,
    numeral,
    parse_term,
)

from gen import random_closed_term, random_dag, random_term
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
    with pytest.raises(ValueError, match="bad decoration: 'xx'"):
        Div(Lit("1"), Lit("2"), "xx")


def test_parse_colon_and_frac_formats():
    assert parse_term("1:2", "colon") == Div(Lit("1"), Lit("2"))
    assert parse_term("frac(1+frac(2,3),5)", "frac") == parse_term("(1+2/3)/5")
    with pytest.raises(ParseError, match="unknown format 'bogus'"):
        parse_term("1", "bogus")


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


@pytest.mark.parametrize("make,text", [(Lit, "5"), (Lit, "-5"), (Var, "x")])
def test_leaves_refuse_a_trailing_newline(make, text):
    # The whole text must match: "$" alone also matches before a final "\n",
    # and "5\n" would print as a literal that parses back to Lit("5").
    assert format_term(make(text)) == text
    for bad in (text + "\n", text + "\n\n", "\n" + text, text + " "):
        with pytest.raises(ValueError):
            make(bad)


def _assert_leaves_as_checked(t):
    """Every leaf of t equals, and hashes as, the leaf the checking constructor builds of its text."""
    for leaf in _leaf_occurrences(t):
        checked = Lit(leaf.digits) if type(leaf) is Lit else Var(leaf.name)
        assert leaf == checked and hash(leaf) == hash(checked)


def test_parsed_leaves_are_those_the_checking_constructors_build():
    # The parser builds a leaf unchecked, from a token its pattern matched whole.
    root = Path(__file__).resolve().parent.parent
    readings = 0
    for row in (root / "scripts/expected/parse_table.txt").read_text(encoding="utf-8").splitlines():
        fmt, text, reading = row.split("\t", 2)
        if not reading.startswith("ParseError: "):
            _assert_leaves_as_checked(parse_term(ast.literal_eval(text), fmt))
            readings += 1
    assert readings > 2000
    rng = random.Random(23)
    for _ in range(2000):
        t = random_closed_term(rng, rng.randint(0, 7))
        for fmt in FORMATS:
            _assert_leaves_as_checked(parse_term(format_term(t, fmt), fmt))


def test_parse_term_runs_no_leaf_check(monkeypatch):
    class Refuse:
        def fullmatch(self, text):
            raise AssertionError(f"checked {text!r}")

    monkeypatch.setattr(terms, "_LIT_RE", Refuse())
    monkeypatch.setattr(terms, "_VAR_RE", Refuse())
    for text, fmt in (("x*-3 - (ab2/ft 007) + 3", "inline"), ("-x:fv-12", "colon"), ("frac_ft(x, -3)", "frac")):
        assert format_term(parse_term(text, fmt), fmt)
    with pytest.raises(AssertionError):
        Lit("5")


def test_numeral_checks_all_but_an_int():
    for n in (0, 7, -12, 10**100):
        assert numeral(n) == Lit(str(n)) and hash(numeral(n)) == hash(Lit(str(n)))
    with pytest.raises(UnsupportedOperation):
        numeral(True)
    for n in (10**5000, -(10**5000)):
        with pytest.raises(CapacityError):
            numeral(n)


NO_TERMS = {
    "Add(1, 2)": (lambda: Add(1, 2), "1 is no term"),
    "Div(1, 'x')": (lambda: Div(Lit("1"), "x"), "'x' is no term"),
    "Div(None, 1, 'ft')": (lambda: Div(None, Lit("1"), "ft"), "None is no term"),
    "Sub(x, 2.5)": (lambda: Sub(Var("x"), 2.5), "2.5 is no term"),
    "Mul(Fraction)": (lambda: Mul(Fraction(1, 2), Lit("1")), "Fraction(1, 2) is no term"),
    "Neg('1')": (lambda: Neg("1"), "'1' is no term"),
    "Lit(7)": (lambda: Lit(7), "7 is no str"),
    "Var(7)": (lambda: Var(7), "7 is no str"),
    "numeral(1.5)": (lambda: numeral(1.5), "1.5 is no int"),
    "numeral('7')": (lambda: numeral("7"), "'7' is no int"),
    "numeral(None)": (lambda: numeral(None), "None is no int"),
}


@pytest.mark.parametrize("name", NO_TERMS)
def test_constructors_refuse_what_is_no_term(name):
    build, message = NO_TERMS[name]
    with pytest.raises(UnsupportedOperation) as caught:
        build()
    assert str(caught.value) == message


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
    # A node whose id is known prints as its text each time it is met, as a
    # poisoned text shows, and nothing below it is visited.
    known = {id(x): "X"}
    assert _fmt(Mul(x, Div(x, t)), "inline", known) == "X*(X/(X+-(X)))"
    # Leaves print their own text, and the printer never writes to known.
    one = x.left.left
    known = {id(one): "ONE", id(t): "T"}
    assert _fmt(Sub(x, t), "inline", known) == "(1+2)*3-(T)"
    assert known == {id(one): "ONE", id(t): "T"}


def test_shared_captures_do_not_nest():
    v = parse_term("1+2")
    w = Neg(v)
    # The text of w is spliced in whole: v, known too, is met only below w
    # and so is not visited there; the printer records no texts of its own.
    known = {id(w): "W", id(v): "V"}
    assert _fmt(Add(w, w), "inline", known) == "W+W"
    assert _fmt(Add(v, w), "inline", known) == "V+W"
    assert known == {id(w): "W", id(v): "V"}
    assert _fmt(Add(w, w), "inline", {}) == "-(1+2)+-(1+2)"


@settings(max_examples=200)
@given(term_strategy(), term_strategy(), st.sampled_from(["inline", "colon", "frac"]))
def test_shared_printing_matches_format_term(a, b, fmt):
    # Terms that share nodes print the same with the texts of shared nodes known.
    ab = Sub(a, b)
    terms = [a, Add(ab, ab), b, Mul(Neg(ab), Div(a, ab, "ft")), ab, a]
    known = {}
    for t in terms:
        assert _fmt(t, fmt, known) == format_term(t, fmt)
        known[id(t)] = format_term(t, fmt)


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
    assert contains_div(t) == has_div
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


def _by_hand(node, *kids):
    """node rebuilt through the public constructors."""
    if not kids:
        return Lit(node.digits) if type(node) is Lit else Var(node.name)
    return Div(*kids, node.decoration) if type(node) is Div else type(node)(*kids)


@given(term_strategy())
def test_a_term_hashes_as_any_equal_term_however_made(t):
    text = format_term(t)
    made = [t, parse_term(text), fold(parse_term(text), _by_hand), pickle.loads(pickle.dumps(t)), copy.deepcopy(t)]
    assert all(u == t for u in made) and len({hash(u) for u in made}) == 1
    erased = [erase_decorations(parse_term(text)), erase_decorations(t)]
    erased.append(parse_term(format_term(erased[0])))
    assert erased[0] == erased[1] == erased[2] and len({hash(u) for u in erased}) == 1
    if not t.has_var:
        flat = flatten(parse_term(text))[0]
        again = parse_term(format_term(flat))
        assert flat == again and hash(flat) == hash(again) == hash(flatten(t)[0])


@given(term_strategy(), st.randoms(use_true_random=False))
def test_hashing_a_child_first_or_the_root_first_gives_one_hash(t, rng):
    text = format_term(t)
    root_first, child_first = parse_term(text), parse_term(text)
    hash(root_first)
    nodes = list(_distinct_nodes(child_first).values())
    rng.shuffle(nodes)
    assert child_first == parse_term(text)  # neither hashed
    for node in nodes[: len(nodes) // 2]:
        hash(node)
    assert child_first == root_first  # root_first hashed, child_first in part
    for node in nodes:
        hash(node)
    assert child_first == root_first  # both hashed
    assert [hash(n) for n in _distinct_nodes(child_first).values()] == [
        hash(n) for n in _distinct_nodes(root_first).values()
    ]


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
    with pytest.raises(NotAFracterm):
        denom(parse_term("1"))


# ---------------------------------------------------------------------------
# fold


def _kids(node):
    if isinstance(node, Neg):
        return (node.operand,)
    return (node.left, node.right) if isinstance(node, (Add, Sub, Mul, Div)) else ()


def _recursive_fold(t, alg, calls, memo=None):
    """The reference: a recursive tree walk, each call listed in calls. With
    a memo, a composite node met again gives its first result, unentered."""
    if memo is not None and id(t) in memo:
        return memo[id(t)]
    kids = [_recursive_fold(kid, alg, calls, memo) for kid in _kids(t)]
    calls.append(t)
    result = alg(t, *kids)
    if memo is not None and kids:
        memo[id(t)] = result
    return result


def _distinct_nodes(t):
    """Each node of t once, by id."""
    seen = {}
    todo = [t]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo += _kids(node)
    return seen


def _describe(node, *kids):
    return (format_term(node) if not kids else type(node).__name__, *kids)


def _logged_fold(t, alg):
    calls = []
    return fold(t, lambda node, *kids: calls.append(node) or alg(node, *kids)), calls


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7))
def test_fold_calls_alg_as_a_recursive_walk_does(rng, depth):
    t = random_term(rng, depth, var_share=0.15)
    want_calls = []
    want = _recursive_fold(t, _describe, want_calls)
    got, calls = _logged_fold(t, _describe)
    assert got == want
    assert [id(n) for n in calls] == [id(n) for n in want_calls]


@given(rng=st.randoms(use_true_random=False), steps=st.integers(0, 8))
def test_fold_calls_alg_once_for_each_distinct_composite_node(rng, steps):
    t = random_dag(rng, steps, var_share=0.15)
    walk, memo_walk = [], []
    want = _recursive_fold(t, _describe, walk)
    assert _recursive_fold(t, _describe, memo_walk, {}) == want
    got, calls = _logged_fold(t, _describe)
    assert got == want
    assert [id(n) for n in calls] == [id(n) for n in memo_walk]
    # The composite nodes come once each, in the order of their first call
    # in the tree walk, so a raising alg raises at the node where it would.
    composite = [id(n) for n in calls if _kids(n)]
    assert composite == list(dict.fromkeys(id(n) for n in walk if _kids(n)))
    assert sorted(composite) == sorted(key for key, n in _distinct_nodes(t).items() if _kids(n))


def _parsed(rng, depth, fmt):
    """A random term, printed in fmt and parsed back."""
    return parse_term(format_term(random_term(rng, depth, var_share=0.15), fmt), fmt)


def _leaf_occurrences(t):
    todo = [t]
    while todo:
        node = todo.pop()
        kids = _kids(node)
        if not kids:
            yield node
        todo += kids


def test_a_parsed_term_shares_its_leaves():
    t = parse_term("2+2")
    assert t.left is t.right
    t = parse_term("x*-3 - frac(x, -3) + 3", "frac")
    assert t.left.left.left is t.left.right.left and t.left.left.right is t.left.right.right
    assert t.right is not t.left.left.right


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7), fmt=st.sampled_from(FORMATS))
def test_a_parsed_term_has_one_leaf_per_atom_text(rng, depth, fmt):
    ids = {}  # the ids of the leaves of each atom text
    for leaf in _leaf_occurrences(_parsed(rng, depth, fmt)):
        ids.setdefault((type(leaf), format_term(leaf)), set()).add(id(leaf))
    assert all(len(group) == 1 for group in ids.values())
    assert len(set().union(*ids.values())) == len(ids)


def test_short_leaves_are_shared_across_parses_and_numerals():
    first, second = parse_term("7 + x*-12"), parse_term("frac(-12, x) - 7", "frac")
    assert first.left is second.right and first.right.right is second.left.left
    assert first.right.left is second.left.right  # the name x
    for n in (0, 7, -12, -99, 999):
        assert numeral(n) is numeral(n) is parse_term(str(n), "colon")
    # A longer text gets a new leaf in each parse, shared within it.
    for text in ("1000", "-100", "xy"):
        t = parse_term(f"{text} + {text}")
        assert t.left is t.right and t.left is not parse_term(text)
    assert numeral(1000) is not numeral(1000) and numeral(1000) == numeral(1000)


def test_a_constructed_leaf_equals_the_shared_one():
    for make, text in ((Lit, "7"), (Lit, "-07"), (Lit, "999"), (Var, "x")):
        built, shared = make(text), parse_term(text)
        assert built is not shared and built == shared and hash(built) == hash(shared)
        assert format_term(built) == text
    for text in ("0", "-0", "007", "-99", "999"):
        assert Lit(text).value == parse_term(text).value == int(text)


def test_the_leaf_table_stays_within_its_bound():
    # Every numeral of at most three characters, and every one-letter name.
    shorts = [str(n) for n in range(-99, 1000)] + ["-0"] + [f"{'-' * minus}0{d}" for minus in (0, 1) for d in range(10)]
    shorts += [f"00{d}" for d in range(10)] + [f"0{d}{e}" for d in range(1, 10) for e in range(10)]
    shorts += [chr(c) for c in (*range(ord("a"), ord("z") + 1), *range(ord("A"), ord("Z") + 1))]
    assert len(set(shorts)) == len(shorts) == 1_272
    for text in shorts:
        assert format_term(parse_term(text)) == text
    assert len(terms._LEAVES) == 1_272
    rng = random.Random(41)
    for i in range(10_000):
        parse_term(f"{rng.randrange(10_000, 100_000)} * name{i} / -{rng.randrange(1_000, 10_000)}")
    assert len(terms._LEAVES) == 1_272


def test_a_long_literal_is_refused_only_when_its_value_is_read():
    for text in ("1" * 5000, "-" + "1" * 5000):
        for leaf in (Lit(text), parse_term(text)):
            assert format_term(leaf) == text
            with pytest.raises(CapacityError):
                leaf.value


def test_a_term_over_shared_leaves_copies_and_pickles():
    t = parse_term("7/x + 7*(x - 1000)")
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and hash(copied) == hash(t) and repr(copied) == repr(t)
        assert copied.left.left is t.left.left and copied.right.left is t.right.left
        assert copied.left.right is t.left.right is copied.right.right.left
        assert copied.right.right.right is not t.right.right.right
    for leaf in (Lit("7"), Var("x")):
        assert pickle.loads(pickle.dumps(leaf)) is parse_term(format_term(leaf))


def _exact(node, *kids):
    """Exact value, with every variable 2; a zero divisor raises, naming its node."""
    if not kids:
        return Fraction(node.value) if isinstance(node, Lit) else Fraction(2)
    if isinstance(node, Div) and kids[1] == 0:
        raise ZeroDivisionError(format_term(node))
    ops = {Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
    return ops[type(node)](*kids)


def _outcome(run, alg):
    """The result of run(alg), or the message of the ZeroDivisionError it
    raised, with the ids of the nodes alg was called on, in order."""
    calls = []
    try:
        result = run(lambda node, *kids: calls.append(node) or alg(node, *kids))
    except ZeroDivisionError as exc:
        result = ("raised", str(exc))
    return result, [id(n) for n in calls]


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7), fmt=st.sampled_from(FORMATS))
def test_fold_of_a_parsed_term_calls_alg_as_a_recursive_walk_does(rng, depth, fmt):
    t = _parsed(rng, depth, fmt)
    for alg in (_describe, _exact):
        assert _outcome(lambda a: fold(t, a), alg) == _outcome(lambda a: _recursive_fold(t, a, []), alg)


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 6), fmt=st.sampled_from(FORMATS))
def test_a_term_built_over_a_parsed_term_folds_each_composite_node_once(rng, depth, fmt):
    t = _parsed(rng, depth, fmt)
    composite = [key for key, node in _distinct_nodes(t).items() if _kids(node)]
    for built in (Add(t, t), Neg(t), Div(t, t, "ft")):
        _, calls = _logged_fold(built, _describe)
        counts = Counter(id(n) for n in calls if _kids(n))
        assert counts == Counter([id(built), *composite])


@pytest.mark.parametrize("value", [3, "1/2", None, (Lit("1"),)])
def test_fold_of_a_non_term_raises_type_error(value):
    calls = []
    with pytest.raises(TypeError, match="^not a term: "):
        fold(value, lambda node, *kids: calls.append(node))
    assert calls == []


def test_erase_decorations_of_a_dag_is_a_dag():
    t = Div(Lit("1"), Lit("2"), "ft")
    for k in range(60):
        t = (Add, Mul, Div)[k % 3](t, t)
    erased = erase_decorations(t)
    # Counted apart, so that a failure does not print a tree of 2**61 nodes.
    counts = len(_distinct_nodes(erased)), len(_distinct_nodes(t))
    assert not erased.decorated and counts == (63, 63)


def test_erase_decorations_keeps_undecorated_subtrees(monkeypatch):
    t = parse_term("(" + "+".join(["1"] * 2000) + ")/ft2")
    built = []
    for cls in (Neg, _Binary, Div):
        init = vars(cls)["__init__"]
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init: init(self, *args) or built.append(self))
    erased = erase_decorations(t)
    assert len(built) == 1 and built[0] is erased
    assert erased.left is t.left and erased.right is t.right
    assert erased == Div(t.left, t.right)


@given(term_strategy())
def test_erase_decorations_rebuilds_only_decorated_nodes(t):
    erased = erase_decorations(t)
    assert erased == fold(t, lambda node, *kids: type(node)(*kids) if kids else node)
    kept = _distinct_nodes(erased)
    assert all(key in kept for key, node in _distinct_nodes(t).items() if not node.decorated)


def test_desugar_literals_of_a_doubling_chain():
    t = Lit("5")
    for _ in range(60):
        t = Add(t, t)
    desugared = desugar_literals(t)
    # The leaf is expanded for each of the two places it has in its parent.
    count = len(_distinct_nodes(desugared))
    assert count == 2 * len(_distinct_nodes(expand_literal(5))) + 60
    ops = {Add: operator.add, Mul: operator.mul}
    value = fold(desugared, lambda node, *kids: ops[type(node)](*kids) if kids else node.value)
    assert value == 5 * 2**60


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
