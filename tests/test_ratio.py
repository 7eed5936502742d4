import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracterm.errors import OpenTerm, UnsupportedOperation
from fracterm.ratio import (
    DenomOf,
    NumOf,
    RatioNumber,
    rn_add,
    rn_denom,
    rn_div,
    rn_eval,
    rn_instance_eq,
    rn_inv,
    rn_label_eq,
    rn_mul,
    rn_neg,
    rn_num,
    sign,
)
from fracterm.terms import Add, Lit, Mul, Neg, Sub, format_term, parse_term
from gen import random_closed_term

pairs = st.builds(RatioNumber, st.integers(-20, 20), st.integers(-20, 20))


def test_constants():
    assert RatioNumber(0, 1).as_fraction() == 0
    assert RatioNumber(1, 1).as_fraction() == 1


def test_zero_converts_to_class_zero():
    from fracterm.shapes import convert, encode, get_shape, label_eq

    inst = get_shape("rat.rns").make((0, 1))
    assert label_eq(convert(inst, "rat.pcs"), encode(0, "rat.pcs"))


def test_sign():
    assert sign(5) == 1 and sign(-2) == -1 and sign(0) == 0


def test_inverse_goldens():
    assert rn_inv(RatioNumber(2, 4)) == RatioNumber(4, 2)
    assert rn_inv(RatioNumber(5, 0)) == RatioNumber(0, 0)
    assert rn_inv(RatioNumber(0, 1)) == RatioNumber(1, 0)


def test_mul_and_add_goldens():
    assert rn_mul(RatioNumber(1, 2), RatioNumber(2, 4)) == RatioNumber(2, 8)
    assert rn_add(RatioNumber(1, 2), RatioNumber(1, 3)) == RatioNumber(5, 6)
    assert rn_add(RatioNumber(1, 2), RatioNumber(1, 2)) == RatioNumber(4, 4)
    assert rn_label_eq(rn_add(RatioNumber(1, 2), RatioNumber(1, 2)), RatioNumber(1, 1))


def test_verbatim_addition_differs():
    # The verbatim rule is kept for fidelity; it fails the rational reading.
    assert rn_add(RatioNumber(1, 2), RatioNumber(1, 3), verbatim=True) == RatioNumber(7, 6)
    assert rn_add(RatioNumber(1, 2), RatioNumber(1, 3)).as_fraction() == Fraction(5, 6)


def test_num_denom_goldens():
    assert rn_num(RatioNumber(1, 2)) == RatioNumber(1, 1)
    assert rn_num(RatioNumber(2, 4)) == RatioNumber(2, 1)
    assert rn_denom(RatioNumber(0, 0)) == RatioNumber(0, 1)


def test_equalities_goldens():
    x, y = RatioNumber(1, 2), RatioNumber(2, 4)
    assert not rn_instance_eq(x, y)
    assert rn_label_eq(x, y)
    assert rn_label_eq(RatioNumber(1, 0), RatioNumber(2, 0))
    assert rn_instance_eq(x, RatioNumber(1, 2))


def test_additive_identity_up_to_label():
    x = RatioNumber(7, 3)
    assert rn_label_eq(rn_add(RatioNumber(0, 1), x), x)


# ---------------------------------------------------------------------------
# Term evaluation


def test_eval_numerator_of_nested_quotient():
    t = parse_term("2/(4/5)")
    assert rn_eval(t) == RatioNumber(10, 4)
    assert rn_label_eq(rn_eval(t), RatioNumber(5, 2))
    extracted = rn_eval(NumOf(t))
    assert extracted == RatioNumber(10, 1)
    assert rn_label_eq(extracted, RatioNumber(10, 1))
    assert rn_eval(DenomOf(t)) == RatioNumber(4, 1)


def test_eval_division_by_zero_lands_in_bottom_class():
    got = rn_eval(parse_term("1/0"))
    assert got == RatioNumber(1, 0)
    assert got.as_fraction() is None
    assert rn_label_eq(got, RatioNumber(0, 0))


@pytest.mark.parametrize("a,b", [("1", 2), (1.5, "x"), (True, 2), (1, False), (Fraction(1), 2), (1, None)])
def test_a_ratio_number_holds_two_ints(a, b):
    with pytest.raises(UnsupportedOperation, match="holds two ints"):
        RatioNumber(a, b)


def test_eval_subtraction_desugars():
    assert rn_eval(parse_term("1-1/2")).as_fraction() == Fraction(1, 2)


def _rn_reference(t, verbatim):
    """rn_eval as a composition of the rn_* functions, one per node."""
    if isinstance(t, NumOf):
        return rn_num(_rn_reference(t.arg, verbatim))
    if isinstance(t, DenomOf):
        return rn_denom(_rn_reference(t.arg, verbatim))
    if isinstance(t, Lit):
        return RatioNumber(t.value, 1)
    if isinstance(t, Neg):
        return rn_neg(_rn_reference(t.operand, verbatim))
    x, y = _rn_reference(t.left, verbatim), _rn_reference(t.right, verbatim)
    if isinstance(t, Add):
        return rn_add(x, y, verbatim)
    if isinstance(t, Sub):
        return rn_add(x, rn_neg(y), verbatim)
    if isinstance(t, Mul):
        return rn_mul(x, y)
    return rn_div(x, y)


def test_eval_agrees_with_the_rn_functions():
    rng = random.Random(11)
    for i in range(400):
        t = random_closed_term(rng, 5, -3, 3)
        for wrap in (lambda u: u, NumOf, DenomOf, lambda u: NumOf(DenomOf(u)), lambda u: DenomOf(NumOf(u))):
            for verbatim in (False, True):
                got = rn_eval(wrap(t), verbatim=verbatim)
                assert type(got) is RatioNumber
                assert got == _rn_reference(wrap(t), verbatim), (format_term(t), verbatim)


def test_eval_open_term():
    with pytest.raises(OpenTerm):
        rn_eval(parse_term("x/2"))


# ---------------------------------------------------------------------------
# The three stated properties of Num/Denom


def test_num_fails_label_congruence_witness():
    x, y = RatioNumber(1, 2), RatioNumber(2, 4)
    assert rn_label_eq(x, y)
    assert not rn_instance_eq(rn_num(x), rn_num(y))
    assert not rn_instance_eq(rn_denom(x), rn_denom(y))


@given(pairs)
def test_num_respects_instance_equality(x):
    y = RatioNumber(x.a, x.b)
    assert rn_instance_eq(x, y)
    assert rn_instance_eq(rn_num(x), rn_num(y))
    assert rn_instance_eq(rn_denom(x), rn_denom(y))


@given(pairs, pairs)
def test_joint_determination(x, y):
    if rn_instance_eq(rn_num(x), rn_num(y)) and rn_instance_eq(rn_denom(x), rn_denom(y)):
        assert rn_label_eq(x, y)


# ---------------------------------------------------------------------------
# Homomorphism to exact rationals away from zero denominators


def test_homomorphism_exhaustive_small():
    span = range(-8, 9)
    values = [RatioNumber(a, b) for a in span for b in span if b != 0]
    for x in values:
        assert rn_neg(x).as_fraction() == -x.as_fraction()
        if x.a != 0:
            assert rn_inv(x).as_fraction() == 1 / x.as_fraction()
    rng = random.Random(7)
    others = [random.Random(3).choice(values) for _ in range(40)]
    for x in values:
        for y in (rng.choice(values), rng.choice(others)):
            assert rn_add(x, y).as_fraction() == x.as_fraction() + y.as_fraction()
            assert rn_mul(x, y).as_fraction() == x.as_fraction() * y.as_fraction()


def test_homomorphism_sampled_wide():
    rng = random.Random(20)
    for _ in range(2000):
        a, b, c, d = (rng.randint(-20, 20) for _ in range(4))
        if b == 0 or d == 0:
            continue
        x, y = RatioNumber(a, b), RatioNumber(c, d)
        assert rn_add(x, y).as_fraction() == Fraction(a, b) + Fraction(c, d)
        assert rn_mul(x, y).as_fraction() == Fraction(a, b) * Fraction(c, d)
        assert rn_div(x, y).as_fraction() == Fraction(a, b) / Fraction(c, d) if c else True


@given(pairs)
def test_reconstruction_modulo_label(x):
    if x.b != 0:
        assert rn_label_eq(rn_div(rn_num(x), rn_denom(x)), x)

