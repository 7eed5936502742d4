import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracterm.errors import (
    CapacityError,
    DivisionByZero,
    OpenTerm,
    ShapeMismatch,
    UnsupportedOperation,
    UnsupportedPeripheral,
)
from fracterm.semantics import (
    BOTTOM,
    POLICIES,
    EvalConfig,
    NumberValue,
    PeripheralValue,
    eval_term,
    value_denom,
    value_eq,
    value_num,
    value_to_json,
)
from fracterm.shapes import convert, decode
from fracterm.terms import Div, Lit, format_term, parse_term

from gen import random_closed_term, random_context, substitute_hole
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
# value_eq / value_num / value_denom


def test_value_eq_goldens():
    assert value_eq(eval_term(parse_term("1/2"), CM), eval_term(parse_term("2/4"), CM))
    assert value_eq(BOTTOM, BOTTOM)
    assert not value_eq(eval_term(parse_term("0/0"), CM), eval_term(parse_term("0"), CM))


def test_value_eq_shape_mismatch():
    a = eval_term(parse_term("1/2"), CM)
    b = eval_term(parse_term("1/2"), EvalConfig("common-meadow", "rat.ssft"))
    with pytest.raises(ShapeMismatch):
        value_eq(a, b)


def test_peripherals_equal_only_themselves():
    assert value_eq(PeripheralValue("nan"), PeripheralValue("nan"))
    assert not value_eq(PeripheralValue("nan"), BOTTOM)
    with pytest.raises(UnsupportedPeripheral):
        PeripheralValue("weird")


def test_values_do_not_split():
    assert value_num(eval_term(parse_term("2/(4/5)"), CM)) == BOTTOM
    assert value_num(BOTTOM) == BOTTOM
    assert value_denom(eval_term(parse_term("1/2"), CM)) == BOTTOM


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


def test_open_term():
    with pytest.raises(OpenTerm):
        eval_term(parse_term("x+1"), CM)


def test_value_json():
    assert value_to_json(BOTTOM) == {"kind": "peripheral", "value": "bot"}
    got = value_to_json(eval_term(parse_term("1/2"), CM))
    assert got == {"kind": "number", "shape": "rat.pcs", "value": [1, 2]}
