import copy
import pickle
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracterm import ratio, rewrite, terms
from fracterm.errors import NotSimple, OpenTerm, StrategyInapplicable
from fracterm.rewrite import (
    RewriteStep,
    RewriteTrace,
    _node_rule,
    _numeral_rule,
    add_family,
    add_family_all,
    flatten,
    simple_fracterm_eq,
    simplify,
)
from fracterm.semantics import BOTTOM, EvalConfig, eval_term, value_eq
from fracterm.terms import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Sub,
    Var,
    _fmt,
    _pieces,
    classify,
    contains_div,
    erase_decorations,
    fold,
    format_term,
    parse_term,
)

from gen import random_closed_term, random_flat_fracterm, random_simple_fracterm, unit_sum
from oracle import eval_exact, eval_exact_bot

CM = EvalConfig("common-meadow", "rat.pcs")


def _flat_or_division_free(t):
    f = classify(t)
    return f.flat or not f.is_fracterm


# ---------------------------------------------------------------------------
# Flattening goldens


def test_flatten_nested_quotient_golden():
    result, trace = flatten(parse_term("(1/2)/(3/4)"))
    assert result == Div(Mul(Lit("1"), Lit("4")), Mul(Lit("2"), Lit("3")))
    assert format_term(result) == "1*4/(2*3)"
    assert [s.rule for s in trace.steps] == ["div-collapse"]


def test_flatten_composite_denominator_golden():
    result, trace = flatten(parse_term("5/(1+3)"))
    assert result == Div(Lit("5"), Lit("4"))
    assert [s.rule for s in trace.steps] == ["numeral-eval"]


def test_flatten_sum_in_numerator_golden():
    result, _ = flatten(parse_term("(1+2/3)/5"))
    assert classify(result).flat
    assert value_eq(eval_term(result, CM), eval_term(parse_term("5/15"), CM))
    assert format_term(result) == "(1*3+2)/(3*5)"


def test_flatten_keeps_division_free_terms():
    t = parse_term("1+2*3")
    result, trace = flatten(t)
    assert result == t and trace.steps == ()


def test_flatten_erases_decorations():
    result, trace = flatten(parse_term("1/ft2"))
    assert result == Div(Lit("1"), Lit("2"))
    assert trace.steps[0].rule == "erase-decorations"


def test_flatten_bottom_guard():
    # x/(c/0) is bottom; the naive collapse would lose that.
    t = parse_term("1/(2/0)")
    result, trace = flatten(t)
    assert "div-collapse-bot" in [s.rule for s in trace.steps]
    assert eval_term(result, CM) == BOTTOM
    assert classify(result).flat


def test_flatten_open_term():
    with pytest.raises(OpenTerm):
        flatten(parse_term("x/2"))


# One step of _node_rule per operator and operand form: flat a/b and c/d,
# division-free a or c. The flat/division-free sums pin the c*b order.
NODE_RULE_CASES = [
    ("-(1/2)", ("neg-lift", "-(1)/2")),
    ("1/2+3/4", ("add-lift", "(1*4+2*3)/(2*4)")),
    ("1/2+3", ("add-lift", "(1+3*2)/2")),
    ("1+3/4", ("add-lift", "(1*4+3)/4")),
    ("1/2-3/4", ("sub-lift", "(1*4-2*3)/(2*4)")),
    ("1/2-3", ("sub-lift", "(1-3*2)/2")),
    ("1-3/4", ("sub-lift", "(1*4-3)/4")),
    ("1/2*(3/4)", ("mul-lift", "1*3/(2*4)")),
    ("1/2*3", ("mul-lift", "1*3/2")),
    ("1*(3/4)", ("mul-lift", "1*3/4")),
    ("(1/2)/(3/4)", ("div-collapse", "1*4/(2*3)")),
    ("(1/2)/3", ("div-collapse", "1/(2*3)")),
    ("1/(3/4)", ("div-collapse", "1*4/3")),
    ("(1/2)/(3/0)", ("div-collapse-bot", "1*0/(2*(3*0))")),
    ("1/(3/0)", ("div-collapse-bot", "1*0/(3*0)")),
    ("1/2", None),
    ("1+2", None),
    ("-(1+2)", None),
    ("1/(2/3)+1", None),
    ("-(1/(2/3))", None),
    ("1", None),
]


@pytest.mark.parametrize("text,expected", NODE_RULE_CASES, ids=[c[0] for c in NODE_RULE_CASES])
def test_node_rule_golden(text, expected):
    found = _node_rule(parse_term(text))
    assert (found and (found[0], format_term(found[1]))) == expected


# ---------------------------------------------------------------------------
# Flattening properties


def test_flatten_sound_and_complete_on_random_terms():
    rng = random.Random(2024)
    bottoms = 0
    for _ in range(700):
        t = random_closed_term(rng, 5)
        result, trace = flatten(t)
        assert _flat_or_division_free(result)
        assert value_eq(eval_term(result, CM), eval_term(t, CM))
        if eval_exact_bot(t) is None:
            bottoms += 1
        # trace validity: composes, replays, every step parses and differs
        assert trace.replay(t) == result
        for step in trace.steps:
            assert step.before != step.after
            assert parse_term(format_term(step.after)) == step.after
    assert bottoms > 20


# ---------------------------------------------------------------------------
# Trace oracle: the search flatten used to run. It finds the innermost-
# leftmost match by recursion and starts again from the root after each
# step. The rules read division-freeness from the nodes, which
# test_terms.test_node_facts_agree_with_a_walk checks against a walk.


def _ref_step(t, rule):
    if isinstance(t, Neg):
        inner = _ref_step(t.operand, rule)
        if inner is not None:
            return (inner[0], Neg(inner[1]))
    elif isinstance(t, (Add, Sub, Mul, Div)):
        left = _ref_step(t.left, rule)
        if left is not None:
            return (left[0], type(t)(left[1], t.right))
        right = _ref_step(t.right, rule)
        if right is not None:
            return (right[0], type(t)(t.left, right[1]))
    return rule(t)


def reference_flatten(t):
    steps = []
    current = t
    erased = erase_decorations(t)
    if erased != current:
        steps.append(RewriteStep("erase-decorations", current, erased))
        current = erased
    if contains_div(current):
        for phase in (_numeral_rule, _node_rule):
            while (found := _ref_step(current, phase)) is not None:
                steps.append(RewriteStep(found[0], current, found[1]))
                current = found[1]
    return current, RewriteTrace(tuple(steps))


def decorate(t, rng):
    def alg(node, *kids):
        if isinstance(node, Div):
            return Div(*kids, rng.choice((None, None, "ft", "fv")))
        return type(node)(*kids) if kids else node

    return fold(t, alg)


def oracle_terms():
    rng = random.Random(4)
    terms = [unit_sum(n) for n in range(5, 41)]
    for k in range(2000):
        t = random_closed_term(rng, rng.randint(1, 7))
        terms.append(decorate(t, rng) if k % 4 == 0 else t)
    return terms


def test_flatten_matches_restart_from_root_search():
    rules = set()
    for t in oracle_terms():
        result, trace = flatten(t)
        want, want_trace = reference_flatten(t)
        assert result == want
        assert trace.to_json() == want_trace.to_json()
        assert trace.replay(t) == result
        rules.update(s.rule for s in trace.steps)
    assert rules == {
        "erase-decorations", "numeral-eval", "neg-lift", "add-lift", "sub-lift",
        "mul-lift", "div-collapse", "div-collapse-bot",
    }


def test_flatten_asks_contains_div_at_most_once(monkeypatch):
    calls = []

    def counting(t):
        calls.append(t)
        return contains_div(t)

    monkeypatch.setattr(rewrite, "contains_div", counting)
    result, trace = flatten(unit_sum(80))
    assert len(calls) <= 1
    assert classify(result).flat
    assert [s.rule for s in trace.steps] == ["add-lift"] * 79


def test_trace_json_prints_no_root_after_the_first_term(monkeypatch):
    # Each step after the first splices the text of the nodes the rule
    # built into the text of the step before, at the end of the path its
    # patch gives: the printer gets no other root than the first, and a
    # step lays out a constant number of nodes, however deep the rewritten
    # position lies (39 levels at the first step).
    _, trace = flatten(unit_sum(40))
    want = printed_steps(trace)
    printed, laid_out = [], [0]

    def printing(t, fmt, known=None):
        printed.append(t)
        return _fmt(t, fmt, known)

    def laying_out(node, fmt):
        laid_out[-1] += 1
        return _pieces(node, fmt)

    def splicing(self, *args):
        laid_out.append(0)
        return splice(self, *args)

    splice = rewrite._Splicer.splice
    monkeypatch.setattr(rewrite, "_fmt", printing)
    monkeypatch.setattr(rewrite, "_pieces", laying_out)
    monkeypatch.setattr(terms, "_pieces", laying_out)
    monkeypatch.setattr(rewrite._Splicer, "splice", splicing)
    assert trace.to_json() == want
    roots = {id(t) for s in trace.steps for t in (s.before, s.after)}
    assert printed[0] is trace.steps[0].before
    assert not any(id(t) in roots for t in printed[1:])
    # The first entry is the first term, printed whole; then one per step.
    assert len(laid_out) == len(trace.steps) + 1 == 40
    assert max(laid_out[2:]) <= 10


def counting_builds(monkeypatch):
    """A one-item list that counts the term nodes built from here on."""
    built = [0]
    for cls in (Lit, Var, Neg, terms._Binary, Div):
        def counted(self, *args, _init=vars(cls)["__init__"], **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


@pytest.mark.parametrize("t", [unit_sum(200), parse_term("-" * 1000 + "(1/2)")], ids=["unit-sum-200", "neg-chain-1000"])
def test_flatten_builds_each_node_once(monkeypatch, t):
    # A step builds the nodes its rule builds and, once, the node above its
    # match; the path above that is not built again at each step, and a
    # patch names only the levels of its path the step before did not
    # share. Printing the trace builds at most three stand-in nodes a step.
    nodes = fold(t, lambda node, *kids: 1 + sum(kids))
    built = counting_builds(monkeypatch)
    _, trace = flatten(t)
    assert built[0] <= 12 * nodes
    assert sum(len(sides) for _, _, _, _, sides, _, _ in trace._patches) <= 2 * nodes
    built[0] = 0
    trace.to_json()
    steps = len(trace._patches)
    assert steps >= 199 and built[0] <= 3 * steps


@pytest.mark.parametrize("name", ["unit-sum-40", "decorated", "div-collapse-bot"])
def test_trace_steps_are_the_same_read_before_or_after_printing(name):
    t = IDENTITY_INPUTS[name][0]
    result, first = flatten(t)
    _, second = flatten(t)
    steps = first.steps
    printed = second.to_json()
    assert second.steps == steps and second.to_json() == first.to_json() == printed
    assert steps == reference_flatten(t)[1].steps
    assert steps[0].before is t and steps[-1].after is result
    for other in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(second))):
        assert other == first and other.to_json() == printed


def test_trace_json_memory_is_mostly_its_result():
    # The texts kept for splicing cover the last two steps only.
    _, trace = flatten(unit_sum(160))
    tracemalloc.start()
    try:
        steps = trace.to_json()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(steps) == 159
    assert peak <= 1.5 * retained


def printed_steps(trace):
    """The trace JSON as each step's terms print on their own."""
    return [{"rule": s.rule, "before": format_term(s.before), "after": format_term(s.after)} for s in trace.steps]


# Each input with a rule its trace takes.
IDENTITY_INPUTS = {
    **{f"unit-sum-{n}": (unit_sum(n), "add-lift") for n in (5, 10, 20, 40, 80, 160)},
    "neg-chain-1000": (parse_term("-" * 1000 + "(1/2)"), "neg-lift"),
    "decorated": (parse_term("(1/ft2 + 3/fv4)/ft(5/6) - 7/(8/fv9)"), "erase-decorations"),
    "div-collapse-bot": (parse_term("(1/2 + 3/4)/((5/6)/(7/0)) * (1/0)"), "div-collapse-bot"),
}


@pytest.mark.parametrize("name", IDENTITY_INPUTS)
def test_trace_json_matches_printing_each_step(name):
    t, rule = IDENTITY_INPUTS[name]
    _, trace = flatten(t)
    assert rule in {s.rule for s in trace.steps}
    assert trace.to_json() == printed_steps(trace)


@settings(max_examples=300)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_trace_json_matches_printing_each_step_random(seed, depth):
    _, trace = flatten(random_closed_term(random.Random(seed), depth))
    assert trace.to_json() == printed_steps(trace)


def test_trace_json_of_steps_that_do_not_chain():
    # Hand-built steps: no before is the after of the step before it, and
    # terms share nodes across steps and inside one term.
    x = parse_term("(1+2)/3")
    y = Mul(x, Neg(x))
    z = Add(y, parse_term("4/5"))
    trace = RewriteTrace((
        RewriteStep("a", x, y),
        RewriteStep("b", z, Sub(y, x)),
        RewriteStep("c", Div(z, y), x),
        RewriteStep("d", y, y),
        RewriteStep("e", Add(z, z), Mul(Div(z, y), y)),
    ))
    assert trace.to_json() == printed_steps(trace)


def test_trace_json_of_a_copy_prints_each_term_once(monkeypatch):
    # A copy has a root patch per step: it prints as the original does, and
    # what it prints adds up to no more than its text, as a before that is
    # the after of the step before is looked up, not printed again.
    _, trace = flatten(unit_sum(10))
    twin, expected = copy.copy(trace), trace.to_json()
    printed = []

    def printing(t, fmt, known=None):
        printed.append(_fmt(t, fmt, known))
        return printed[-1]

    monkeypatch.setattr(rewrite, "_fmt", printing)
    steps = twin.to_json()
    assert len(twin._patches) == len(steps) and steps == expected
    assert 0 < sum(map(len, printed)) <= sum(len(s["before"]) + len(s["after"]) for s in steps)


# ---------------------------------------------------------------------------
# Simplification


def test_simplify_goldens():
    assert simplify(parse_term("4/6")) == parse_term("2/3")
    assert simplify(parse_term("2/4")) == parse_term("1/2")
    assert simplify(parse_term("-3/-9")) == parse_term("1/3")
    assert simplify(parse_term("4/2")) == parse_term("2/1")
    assert simplify(parse_term("0/7")) == parse_term("0/1")


def test_simplify_zero_denominator_class():
    assert simplify(parse_term("5/0")) == parse_term("1/0")
    assert simplify(parse_term("0/0")) == parse_term("0/0")


@pytest.mark.parametrize("n", [1, 2, 40, 200])
def test_simplify_flat_unit_sum_is_its_value(n):
    # The flat form shares its denominator products; each is evaluated once.
    flat, _ = flatten(unit_sum(n))
    value = sum(Fraction(1, k) for k in range(2, n + 2))
    assert simplify(flat) == Div(Lit(str(value.numerator)), Lit(str(value.denominator)))


def test_simplify_zero_denominator_flat_forms():
    cases = [("1/2+1/0+1/3+1/4", "1"), ("(-1)/0+1/2+1/3", "-1"), ("0/0+1/2+1/3", "0")]
    for text, numerator in cases:
        flat, _ = flatten(parse_term(text))
        assert simplify(flat) == Div(Lit(numerator), Lit("0"))


def test_simplify_evaluates_each_shared_node_once(monkeypatch):
    # x doubles 18 times as Add(x, x): 18 distinct sums, 262,143 as a tree.
    x = Lit("1")
    for _ in range(18):
        x = Add(x, x)
    adds = []
    key, alg = ratio._PLAIN

    def counting(node, *kids):
        if type(node) is Add:
            adds.append(None)
        return alg(node, *kids)

    monkeypatch.setattr(ratio, "_PLAIN", (key, counting))
    assert simplify(Div(x, Lit("3"))) == Div(Lit("262144"), Lit("3"))
    assert len(adds) == 18


def test_simplify_leaves_its_pair_on_the_term(monkeypatch):
    # simplify and rns eval read one pair: the second folds nothing.
    expected = ratio.rn_eval(flatten(unit_sum(40))[0])
    flat, _ = flatten(unit_sum(40))
    simplify(flat)
    folds = []
    monkeypatch.setattr(ratio, "fold", lambda t, alg: folds.append(t))
    assert ratio.rn_eval(flat) == expected
    assert folds == []


def test_simplify_accepts_flat_closed_fracterms():
    result, _ = flatten(parse_term("2/(4/5)"))
    assert simplify(result) == parse_term("5/2")


def test_simplify_rejects_non_flat():
    with pytest.raises(NotSimple):
        simplify(parse_term("1+2"))
    with pytest.raises(NotSimple):
        simplify(parse_term("(1/2)/3"))
    with pytest.raises(NotSimple):
        simplify(parse_term("x/2"))


def test_simplify_idempotent_and_canonical_small():
    span = range(-12, 13)
    for a in span:
        for b in span:
            t = Div(Lit(str(a)), Lit(str(b)))
            s = simplify(t)
            assert simplify(s) == s
            if b != 0:
                assert classify(s).simplified
                assert Fraction(s.left.value, s.right.value) == Fraction(a, b)


# ---------------------------------------------------------------------------
# Simple fracterm equivalence


def test_simple_eq_goldens():
    assert simple_fracterm_eq(parse_term("1/2"), parse_term("2/4"))
    assert simple_fracterm_eq(parse_term("1/0"), parse_term("5/0"))
    assert not simple_fracterm_eq(parse_term("1/2"), parse_term("1/3"))
    with pytest.raises(NotSimple):
        simple_fracterm_eq(parse_term("1/2"), parse_term("1+2"))


def test_simple_eq_matches_exact_rationals():
    rng = random.Random(8)
    for _ in range(500):
        t1 = random_simple_fracterm(rng, nonzero_den=True)
        t2 = random_simple_fracterm(rng, nonzero_den=True)
        expected = eval_exact(t1) == eval_exact(t2)
        assert simple_fracterm_eq(t1, t2) == expected


def test_simplify_constant_exactly_on_classes():
    rng = random.Random(9)
    for _ in range(400):
        t1 = random_simple_fracterm(rng)
        t2 = random_simple_fracterm(rng)
        same_class = simple_fracterm_eq(t1, t2)
        same_canonical = simplify(t1) == simplify(t2)
        if t1.right.value == 0 and t2.right.value == 0:
            continue  # the zero-denominator class has no simplified form
        assert same_class == same_canonical


# ---------------------------------------------------------------------------
# Addition family


def test_add_same_denominator_golden():
    got = add_family(parse_term("1/2"), parse_term("3/2"), "same-denom")
    assert got == Div(Add(Lit("1"), Lit("3")), Lit("2"))


def test_add_cross_golden():
    got = add_family(parse_term("1/2"), parse_term("3/2"), "cross")
    assert got == Div(
        Add(Mul(Lit("1"), Lit("2")), Mul(Lit("2"), Lit("3"))), Mul(Lit("2"), Lit("2"))
    )
    assert value_eq(eval_term(got, CM), eval_term(parse_term("2"), CM))


def test_add_numeral_golden():
    assert add_family(parse_term("1/2"), parse_term("3/2"), "numeral") == parse_term("8/4")


def test_add_trivial_golden():
    got = add_family(parse_term("1+1"), parse_term("1"), "trivial")
    assert got == parse_term("(1+1)+1")


def test_add_permissible_outputs_for_half_plus_three_halves():
    outputs = add_family_all(parse_term("1/2"), parse_term("3/2"))
    expected = eval_term(parse_term("2"), CM)
    for listed in ("4/2", "8/4", "(2+6)/4"):
        for result in outputs.values():
            assert value_eq(eval_term(parse_term(listed), CM), eval_term(result, CM))
    assert all(value_eq(eval_term(r, CM), expected) for r in outputs.values())


def test_add_cross_evaluates_nothing():
    # Open operands: any evaluation would raise OpenTerm.
    got = add_family(parse_term("x/2"), parse_term("y/3"), "cross")
    assert format_term(got) == "(x*3+2*y)/(2*3)"


@pytest.mark.parametrize("left,right", [("1/ft2", "1/fv3"), ("1/ft2", "3/fv2")])
def test_add_decorated_roots_as_undecorated(left, right):
    got = add_family_all(parse_term(left), parse_term(right))
    plain = add_family_all(erase_decorations(parse_term(left)), erase_decorations(parse_term(right)))
    assert got == plain and set(got) == {"cross", "same-denom", "numeral"}


def test_same_denom_falls_through_to_cross():
    got = add_family(parse_term("1/2"), parse_term("1/3"), "same-denom")
    assert got == add_family(parse_term("1/2"), parse_term("1/3"), "cross")


def test_strategy_preconditions():
    with pytest.raises(StrategyInapplicable):
        add_family(parse_term("1/2"), parse_term("1"), "trivial")
    with pytest.raises(StrategyInapplicable):
        add_family(parse_term("(1/2)/3"), parse_term("1/2"), "cross")
    with pytest.raises(StrategyInapplicable):
        add_family(parse_term("5/(1+3)"), parse_term("1/2"), "numeral")
    with pytest.raises(StrategyInapplicable):
        add_family(parse_term("1/2"), parse_term("1/2"), "weird")


def test_addition_family_coherence_random():
    rng = random.Random(31)
    for _ in range(300):
        t1 = random_flat_fracterm(rng)
        t2 = random_flat_fracterm(rng)
        expected = eval_exact(t1) + eval_exact(t2)
        for result in add_family_all(t1, t2).values():
            assert eval_exact(result) == expected
