import copy
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracterm import fractalk, ratio, rewrite, semantics, shapes, terms
from fracterm.errors import (
    CapacityError,
    DivisionByZero,
    FractermError,
    OpenTerm,
    ShapeMismatch,
    UnsupportedOperation,
)
from fracterm.semantics import (
    BOTTOM,
    POLICIES,
    EvalConfig,
    NumberValue,
    eval_number,
    eval_term,
    value_eq,
    value_num,
    value_to_json,
)
from fracterm.shapes import convert, decode
from fracterm.terms import Add, Div, Lit, Neg, format_term, parse_term

from gen import random_closed_term, random_context, random_dag, random_term, substitute_hole, unit_sum
from oracle import eval_exact, eval_exact_bot, eval_exact_zero

CM = EvalConfig("common-meadow", "rat.pcs")
SO = EvalConfig("suppes-ono", "rat.pcs")
PARTIAL = EvalConfig("partial", "rat.pcs")


def _as_fraction(v):
    assert isinstance(v, NumberValue)
    return decode(v.instance)


# ---------------------------------------------------------------------------
# Division-by-zero goldens


def test_one_over_zero_per_policy():
    t = parse_term("1/0")
    assert eval_term(t, CM) == BOTTOM
    assert _as_fraction(eval_term(t, SO)) == 0
    with pytest.raises(DivisionByZero):
        eval_term(t, PARTIAL)


def test_errors_propagate_under_common_meadow():
    assert eval_term(parse_term("1/0 + 1"), CM) == BOTTOM
    assert eval_term(parse_term("0/0"), CM) == BOTTOM
    assert eval_term(parse_term("(1/0)/0"), CM) == BOTTOM


def test_suppes_ono_totalizes_pointwise():
    # Each zero division yields zero where it occurs, then evaluation continues.
    assert _as_fraction(eval_term(parse_term("1/0 + 1"), SO)) == 1
    assert _as_fraction(eval_term(parse_term("1/(1/0)"), SO)) == 0
    rng = random.Random(13)
    for _ in range(100):
        x = random_closed_term(rng, 3)
        got = eval_term(Div(x, Lit("0")), SO)
        assert _as_fraction(got) == 0


# ---------------------------------------------------------------------------
# value_eq / value_num


def test_value_eq_goldens():
    assert value_eq(eval_term(parse_term("1/2"), CM), eval_term(parse_term("2/4"), CM))
    assert value_eq(BOTTOM, BOTTOM)
    assert not value_eq(eval_term(parse_term("0/0"), CM), eval_term(parse_term("0"), CM))


def test_value_eq_shape_mismatch():
    a = eval_term(parse_term("1/2"), CM)
    b = eval_term(parse_term("1/2"), EvalConfig("common-meadow", "rat.ssft"))
    with pytest.raises(ShapeMismatch):
        value_eq(a, b)


def test_one_bottom_in_every_layer():
    # Evaluation in each rat shape, shape arithmetic and fractalk give one object.
    assert BOTTOM is shapes.BOT
    t = parse_term("1/0")
    for shape_id in ("rat.pcs", "rat.ssft", "rat.rns"):
        assert eval_term(t, EvalConfig("common-meadow", shape_id)) is BOTTOM
    env = fractalk._Env(fractalk.parse_script("1: 1/0 is rational\n"), CM, True, {})
    assert eval_number(t) is value_num(eval_term(parse_term("1/2"), CM)) is env.value_of(t) is BOTTOM
    ssft = shapes.get_shape("rat.ssft")
    assert ssft.operate("div", ssft.encode(1), ssft.encode(0)) is BOTTOM
    pickled = [pickle.loads(pickle.dumps(BOTTOM, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert all(twin is BOTTOM for twin in (copy.copy(BOTTOM), copy.deepcopy(BOTTOM), *pickled))
    assert not hasattr(BOTTOM, "__dict__")
    for name in ("name", "extra"):
        with pytest.raises(AttributeError):
            setattr(BOTTOM, name, "nan")
    assert BOTTOM.name == repr(BOTTOM) == "bot"
    one = eval_term(parse_term("1"), CM)
    assert not value_eq(BOTTOM, one) and not value_eq(one, BOTTOM)
    assert value_to_json(BOTTOM) == {"kind": "peripheral", "value": "bot"}


def test_values_do_not_split():
    assert value_num(eval_term(parse_term("2/(4/5)"), CM)) == BOTTOM
    assert value_num(BOTTOM) == BOTTOM


# ---------------------------------------------------------------------------
# Policies and shapes agree where nothing is divided by zero


def test_policy_agreement_on_zero_free_terms():
    rng = random.Random(99)
    checked = 0
    for _ in range(400):
        t = random_closed_term(rng, 5)
        try:
            expected = eval_exact(t)
        except ZeroDivisionError:
            continue
        vals = [eval_term(t, cfg) for cfg in (CM, SO, PARTIAL)]
        assert all(_as_fraction(v) == expected for v in vals)
        checked += 1
    assert checked > 100


def test_shape_independence():
    rng = random.Random(42)
    ssft_cfg = EvalConfig("common-meadow", "rat.ssft")
    for _ in range(200):
        t = random_closed_term(rng, 4)
        a = eval_term(t, CM)
        b = eval_term(t, ssft_cfg)
        if a == BOTTOM or b == BOTTOM:
            assert a == b == BOTTOM
        else:
            moved = convert(b.instance, "rat.pcs")
            assert value_eq(a, NumberValue(moved))


def test_bottom_absorbs_through_random_contexts():
    rng = random.Random(17)
    poison = parse_term("1/0")
    for _ in range(300):
        ctx = random_context(rng, rng.randint(1, 4))
        t = substitute_hole(ctx, poison)
        assert eval_term(t, CM) == BOTTOM


def test_oracle_equivalence_with_bottom():
    rng = random.Random(23)
    for _ in range(500):
        t = random_closed_term(rng, 5)
        expected = eval_exact_bot(t)
        got = eval_term(t, CM)
        if expected is None:
            assert got == BOTTOM
        else:
            assert _as_fraction(got) == expected


ORACLE_PAIRS = [(p, s) for p in POLICIES for s in ("rat.pcs", "rat.ssft")] + [("common-meadow", "rat.rns")]


def _oracle(t, policy):
    """The oracle's reading of t: a Fraction, None for bottom, or DivisionByZero."""
    if policy == "suppes-ono":
        return eval_exact_zero(t)
    if policy == "common-meadow":
        return eval_exact_bot(t)
    try:
        return eval_exact(t)
    except ZeroDivisionError:
        return DivisionByZero


@pytest.mark.parametrize("policy,shape_id", ORACLE_PAIRS)
@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7))
def test_eval_matches_oracle(policy, shape_id, rng, depth):
    t = random_closed_term(rng, depth)
    try:
        v = eval_term(t, EvalConfig(policy, shape_id))
    except DivisionByZero:
        got = DivisionByZero
    else:
        got = None if v == BOTTOM else _as_fraction(v)
    assert got == _oracle(t, policy)


def _number(read, *args):
    """read(*args) as the oracle gives it: a Fraction, None for bottom, or DivisionByZero."""
    try:
        got = read(*args)
    except DivisionByZero:
        return DivisionByZero
    return None if got is BOTTOM else got


def _decoded(t, cfg):
    v = eval_term(t, cfg)
    return BOTTOM if v is BOTTOM else decode(v.instance)


def test_eval_number_is_eval_term_decoded():
    # A fresh copy of each term carries no memo, so each reading folds anew.
    rng = random.Random(41)
    for _ in range(500):
        t = random_closed_term(rng, rng.randint(1, 6), -3, 3)
        for policy, shape_id in ORACLE_PAIRS:
            want = _number(_decoded, copy.copy(t), EvalConfig(policy, shape_id))
            assert _number(eval_number, copy.copy(t), policy) == want == _oracle(t, policy)


# ---------------------------------------------------------------------------
# Huge integers


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape_id", ["rat.pcs", "rat.ssft"])
def test_huge_intermediates_cancel(policy, shape_id):
    # Both products have 5000 digits, past Python's int/str limit.
    big = "*".join(["9" * 100] * 50)
    got = eval_term(parse_term(f"({big})/({big})"), EvalConfig(policy, shape_id))
    assert _as_fraction(got) == 1
    if shape_id == "rat.ssft":
        assert format_term(got.instance.payload) == "1/1"


@pytest.mark.parametrize("shape_id", ["rat.pcs", "rat.ssft"])
def test_results_up_to_the_digit_limit(shape_id):
    limit = sys.get_int_max_str_digits()
    nines = "9" * limit
    cfg = EvalConfig("common-meadow", shape_id)
    assert _as_fraction(eval_term(parse_term(f"1/{nines}"), cfg)) * (10**limit - 1) == 1
    past = parse_term(f"1/({nines}+1)")
    if shape_id == "rat.ssft":
        # rat.ssft writes its result in decimal digits.
        with pytest.raises(CapacityError):
            eval_term(past, cfg)
    else:
        assert _as_fraction(eval_term(past, cfg)) * 10**limit == 1
    with pytest.raises(CapacityError):
        eval_term(parse_term(nines + "0"), cfg)


# ---------------------------------------------------------------------------
# Ratio-number routing


def test_rns_routing_keeps_raw_pairs():
    cfg = EvalConfig("common-meadow", "rat.rns")
    got = eval_term(parse_term("2/(4/5)"), cfg)
    assert isinstance(got, NumberValue)
    assert got.instance.payload == (10, 4)
    assert eval_term(parse_term("1/0"), cfg) == BOTTOM
    assert eval_term(parse_term("1/0 + 1"), cfg) == BOTTOM


def test_rns_requires_common_meadow():
    with pytest.raises(UnsupportedOperation):
        eval_term(parse_term("1/2"), EvalConfig("partial", "rat.rns"))


# ---------------------------------------------------------------------------
# Config validation and misc


def test_config_validation():
    with pytest.raises(UnsupportedOperation):
        EvalConfig("lazy", "rat.pcs")
    with pytest.raises(UnsupportedOperation):
        EvalConfig("partial", "int.signed")
    with pytest.raises(UnsupportedOperation, match="unknown policy 'lazy'"):
        eval_number(parse_term("1/2"), "lazy")


def test_open_term():
    with pytest.raises(OpenTerm):
        eval_term(parse_term("x+1"), CM)


def test_value_json():
    assert value_to_json(BOTTOM) == {"kind": "peripheral", "value": "bot"}
    got = value_to_json(eval_term(parse_term("1/2"), CM))
    assert got == {"kind": "number", "shape": "rat.pcs", "value": [1, 2]}


# ---------------------------------------------------------------------------
# The value memo: one term object, every policy and shape


CONFIGS = [EvalConfig(p, s) for p, s in ORACLE_PAIRS]
# The readings of a term: the seven configs, then rn_eval without and with
# verbatim addition.
READINGS = [(eval_term, cfg) for cfg in CONFIGS] + [(ratio.rn_eval, False), (ratio.rn_eval, True)]


def _outcome(t, reading):
    fn, arg = reading
    try:
        return fn(t, arg)
    except FractermError as exc:
        return type(exc), str(exc)


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7), var_share=st.sampled_from([0.0, 0.15]))
def test_a_term_reads_as_a_fresh_copy_in_any_order(rng, depth, var_share):
    t = random_term(rng, depth, var_share=var_share)
    text = format_term(t)
    order = list(range(len(READINGS)))
    rng.shuffle(order)
    for _ in range(2):
        for i in order:
            assert _outcome(t, READINGS[i]) == _outcome(parse_term(text), READINGS[i])


@given(rng=st.randoms(use_true_random=False), depth=st.integers(0, 7))
def test_a_closed_term_is_folded_at_most_three_times(rng, depth):
    folds = []

    def counting_fold(t, alg):
        folds.append(alg)
        return terms.fold(t, alg)

    t = random_closed_term(rng, depth)
    try:
        eval_exact(t)
        zero_divisor = False
    except ZeroDivisionError:
        zero_divisor = True
    with pytest.MonkeyPatch.context() as m:
        m.setattr(semantics, "fold", counting_fold)
        m.setattr(ratio, "fold", counting_fold)
        for _ in range(2):
            for cfg in CONFIGS:
                _outcome(t, (eval_term, cfg))
            ratio.rn_eval(t)
    assert len(folds) == (3 if zero_divisor else 2)


@pytest.mark.parametrize("text", ["1/0+x", "x+1/0", "x/0", "(1/0)/x", "1/(1-1)*x"])
def test_open_terms_raise_at_their_first_variable_or_zero_divisor(text):
    t = parse_term(text)
    for _ in range(2):
        for policy in POLICIES:
            with pytest.raises((OpenTerm, DivisionByZero)) as caught:
                eval_term(t, EvalConfig(policy))
            if policy == "partial" and text.index("x") > text.index("/"):
                assert caught.type is DivisionByZero and str(caught.value).startswith("zero divisor in ")
            else:
                assert caught.type is OpenTerm and str(caught.value) == "cannot evaluate variable 'x'"
        with pytest.raises(OpenTerm):
            ratio.rn_eval(t)
    assert all(type(v) is tuple for v in t._memo.values())


def test_the_memo_is_no_part_of_the_term():
    t = parse_term("1/(1-1) + 2/3")
    with pytest.raises(AttributeError):
        t._memo  # unset until first evaluated
    fresh = parse_term("1/(1-1) + 2/3")
    for reading in READINGS:
        _outcome(t, reading)
    assert set(t._memo) == {"stop", "suppes-ono", "rn", "rn-verbatim"}
    assert t._memo["stop"] == (None, t.left)
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    for copied in (pickle.loads(pickle.dumps(t)), copy.copy(t), copy.deepcopy(t)):
        assert copied == t and not hasattr(copied, "_memo")


def test_a_shared_leaf_evaluates_alone_before_and_after_other_parses():
    # "0" and "7" parse to the one leaf of their text in the process, which keeps its value memo.
    for text in ("0", "7"):
        leaf = parse_term(text)
        before = [_outcome(leaf, reading) for reading in READINGS]
        assert [_as_fraction(v) for v in before[: len(CONFIGS)]] == [int(text)] * len(CONFIGS)
        assert [(rn.a, rn.b) for rn in before[len(CONFIGS) :]] == [(int(text), 1)] * 2
        assert [eval_number(leaf, policy) for policy in POLICIES] == [int(text)] * 3
        for other in (f"{text}/{text}", f"1/({text}-{text})", f"-{text}", f"{text}+{text}*2"):
            for reading in READINGS:
                _outcome(parse_term(other), reading)
        again = parse_term(text)
        assert again is leaf and [_outcome(again, reading) for reading in READINGS] == before


def test_eval_number_keeps_one_fraction_a_term():
    for text, policies in (("1/2+1/3", POLICIES), ("1/(1-1) + 2/3", ("suppes-ono",))):
        t = parse_term(text)
        for policy in policies:
            assert type(eval_number(t, policy)) is Fraction and eval_number(t, policy) is eval_number(t, policy)


def test_a_kept_value_is_encoded_on_every_call():
    limit = sys.get_int_max_str_digits()
    past = parse_term(f"1/({'9' * limit}+1)")
    for _ in range(2):
        with pytest.raises(CapacityError):
            eval_term(past, EvalConfig("common-meadow", "rat.ssft"))
        assert _as_fraction(eval_term(past, CM)) * 10**limit == 1


# ---------------------------------------------------------------------------
# Terms that share subterms: each distinct node is evaluated once


@given(rng=st.randoms(use_true_random=False), steps=st.integers(0, 8), var_share=st.sampled_from([0.0, 0.15]))
def test_a_term_that_shares_subterms_reads_as_its_tree(rng, steps, var_share):
    t = random_dag(rng, steps, var_share=var_share)
    tree = parse_term(format_term(t))
    for reading in READINGS:
        assert _outcome(t, reading) == _outcome(tree, reading)
    if t.has_var:
        return
    for (policy, _), cfg in zip(ORACLE_PAIRS, CONFIGS):
        try:
            v = eval_term(t, cfg)
        except DivisionByZero:
            got = DivisionByZero
        else:
            got = None if v == BOTTOM else _as_fraction(v)
        assert got == _oracle(t, policy)
    bottom = eval_exact_bot(t)
    pair = ratio.rn_eval(t)
    assert pair.as_fraction() == bottom and (pair.b == 0) == (bottom is None)
    # flatten keeps the common-meadow value, and simplify reads it off the
    # flat form, whose zero tests and numerals fold the shared nodes.
    simple = rewrite.simplify(rewrite.flatten(Div(t, Lit("1")))[0])
    assert simple == rewrite.simplify(rewrite.flatten(Div(tree, Lit("1")))[0])
    n, d = simple.left.value, simple.right.value
    assert (d == 0) == (bottom is None) and (d == 0 or Fraction(n, d) == bottom)


def _doubling_chain(levels):
    t = Lit("1")
    for _ in range(levels):
        t = Add(t, t)
    return t


def test_a_doubling_chain_evaluates_at_once():
    # As a tree it has 2**61 - 1 nodes; it has 61 distinct ones.
    t = _doubling_chain(60)
    for cfg in CONFIGS:
        assert _as_fraction(eval_term(t, cfg)) == 2**60
    assert ratio.rn_eval(t) == ratio.RatioNumber(2**60, 1)
    # Verbatim addition squares: a + a reads as a * a + 1.
    assert ratio.rn_eval(_doubling_chain(5), verbatim=True) == ratio.RatioNumber(458330, 1)
    assert rewrite.simplify(Div(t, _doubling_chain(59))) == parse_term("2/1")


def _distinct_and_tree_size(t):
    """How many distinct nodes t has, by id, and how many as a tree."""
    size = {}
    todo = [t]
    while todo:
        node = todo[-1]
        kids = (node.operand,) if type(node) is Neg else (node.left, node.right) if hasattr(node, "left") else ()
        missing = [kid for kid in kids if id(kid) not in size]
        if missing:
            todo += missing
            continue
        todo.pop()
        size[id(node)] = 1 + sum(size[id(kid)] for kid in kids)
    return len(size), size[id(t)]


def test_the_flat_form_of_a_long_sum_folds_once_per_distinct_node():
    flat, _ = rewrite.flatten(unit_sum(400))
    distinct, tree_size = _distinct_and_tree_size(flat)
    assert tree_size == 161_997
    calls = []

    def counting_fold(t, alg):
        return terms.fold(t, lambda node, *kids: calls.append(node) or alg(node, *kids))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(semantics, "fold", counting_fold)
        value = eval_term(flat, CM)
    assert _as_fraction(value) == sum(Fraction(1, k) for k in range(2, 402))
    assert len(calls) <= 2 * distinct
