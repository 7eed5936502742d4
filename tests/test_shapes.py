import functools
import itertools
import json
import math
import random
import re
import reprlib
import sys
import time
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from fracterm import ratio, shapes
from fracterm.errors import (
    CapacityError,
    FractermError,
    LabelMismatch,
    NegativeIntoNat,
    ShapeMismatch,
    UnsupportedOperation,
    UnsupportedShape,
)
from fracterm.shapes import (
    BOT,
    NORMALITY_BOUND,
    SET_NAT_CAP,
    SET_NAT_JSON_CHARS,
    SET_NAT_JSON_DEPTH,
    SET_NAT_VN_CAP,
    SHAPE_IDS,
    Instance,
    convert,
    decode,
    encode,
    get_shape,
    instance_eq,
    instance_from_json,
    instance_to_json,
    label_eq,
    normality_report,
    _coprime_pairs,
)
from fracterm.terms import Div, Lit, parse_term

E = frozenset()


# ---------------------------------------------------------------------------
# Encoding goldens


def test_encode_von_neumann_three():
    zero, one = E, frozenset([E])
    two = frozenset([E, one])
    three = frozenset([E, one, two])
    assert encode(3, "nat.vn").payload == three


def test_encode_zermelo_three():
    assert encode(3, "nat.zermelo").payload == frozenset([frozenset([frozenset([E])])])


def test_encode_dedekind_zero():
    assert encode(0, "nat.dedekind").payload == 0


def test_encode_signed_and_diffpair():
    assert encode(0, "int.signed").payload == "0"
    assert encode(-7, "int.signed").payload == ("-", "7")
    assert encode(-3, "int.diffpair").payload == (0, 3)


def test_encode_round_trips():
    for shape_id in SHAPE_IDS:
        lo = 0 if shape_id.startswith("nat.") else -25
        for k in range(lo, 26):
            assert decode(encode(k, shape_id)) == k


def test_encode_errors():
    with pytest.raises(NegativeIntoNat):
        encode(-1, "nat.vn")
    with pytest.raises(UnsupportedShape):
        encode(1, "nat.unknown")
    with pytest.raises(UnsupportedShape):
        encode(1, "real.cauchy")
    with pytest.raises(CapacityError):
        encode((1 << 16) + 1, "nat.zermelo")


@pytest.mark.parametrize("shape_id", SHAPE_IDS)
def test_encode_of_fractions_and_bottom(shape_id):
    label = get_shape(shape_id).label
    if label == "rat":
        assert decode(encode(Fraction(1, 2), shape_id)) == Fraction(1, 2)
        if shape_id == "rat.ssft":
            with pytest.raises(UnsupportedOperation, match="^rat.ssft has no bottom-class instance$"):
                encode(None, shape_id)
        else:
            assert encode(None, shape_id).payload == (0, 0)
    else:
        with pytest.raises(UnsupportedOperation, match=f"^{shape_id} holds no non-integer values$"):
            encode(Fraction(1, 2), shape_id)
        with pytest.raises(UnsupportedOperation, match=f"^{shape_id} has no bottom-class instance$"):
            encode(None, shape_id)
    # An integer-valued Fraction is its int.
    for k in (2, -2):
        if label == "nat" and k < 0:
            with pytest.raises(NegativeIntoNat, match=f"^{shape_id} holds no negative values$"):
                encode(Fraction(2 * k, 2), shape_id)
            continue
        inst = encode(Fraction(2 * k, 2), shape_id)
        assert instance_eq(inst, encode(k, shape_id))
        assert decode(inst) == k
        assert type(decode(inst)) is (Fraction if label == "rat" else int)


@pytest.mark.parametrize("shape_id", ["rat.pcs", "rat.ssft", "rat.rns"])
@pytest.mark.parametrize("value", [True, 0.5, "1/2", "abc", float("nan"), [1]],
                         ids=["true", "half-float", "half-text", "abc", "nan", "list"])
def test_rat_encoders_refuse_what_is_no_number(shape_id, value):
    message = f"^{shape_id} encodes an int, a Fraction or None, not {type(value).__name__}$"
    for enc in (get_shape(shape_id).encode, lambda v: encode(v, shape_id)):
        with pytest.raises(UnsupportedOperation, match=message):
            enc(value)


def test_rat_encoders_keep_their_instances_of_ints_and_fractions():
    for value, pair in ((0, (0, 1)), (7, (7, 1)), (-12, (-12, 1)), (Fraction(-6, 4), (-3, 2)), (Fraction(5), (5, 1))):
        for shape_id in ("rat.pcs", "rat.rns"):
            payload = get_shape(shape_id).encode(value).payload
            assert payload == pair and all(type(k) is int for k in payload)
        t = get_shape("rat.ssft").encode(value).payload
        assert t == Div(Lit(str(pair[0])), Lit(str(pair[1]))) and (t.left.value, t.right.value) == pair


@pytest.mark.parametrize("shape_id", SHAPE_IDS)
@pytest.mark.parametrize("value", [10**5000, -(10**5000)], ids=["huge", "minus-huge"])
def test_encode_of_a_huge_integer_ends_in_an_instance_or_a_fracterm_error(shape_id, value):
    # Its error message must not print the number: Python cannot write an
    # int of more than 4,300 digits as a string.
    try:
        inst = encode(value, shape_id)
    except FractermError:
        return
    assert type(inst) is Instance and inst.shape_id == shape_id


# ---------------------------------------------------------------------------
# Equalities


def test_instance_eq_goldens():
    dec = get_shape("nat.dec")
    assert not instance_eq(dec.make("007"), dec.make("7"))
    assert label_eq(dec.make("007"), dec.make("7"))
    dp = get_shape("int.diffpair")
    assert not instance_eq(dp.make((5, 2)), dp.make((3, 0)))
    assert label_eq(dp.make((5, 2)), dp.make((3, 0)))
    assert instance_eq(encode(2, "nat.vn"), encode(2, "nat.vn"))


def test_set_nat_instance_eq_without_recursion():
    # Two equal encodings deeper than the recursion limit, built apart, so
    # no element is shared between them.
    assert instance_eq(encode(3000, "nat.zermelo"), encode(3000, "nat.zermelo"))
    vn = encode(1200, "nat.vn")
    assert instance_eq(vn, encode(1200, "nat.vn"))
    assert not instance_eq(encode(3000, "nat.zermelo"), encode(2999, "nat.zermelo"))
    # Chains of one depth that differ only at their innermost set.
    chains = []
    for bottom in (E, frozenset([E, frozenset([E])])):
        s = bottom
        for _ in range(3000):
            s = frozenset([s])
        chains.append(Instance("nat.zermelo", s))
    assert not instance_eq(*chains)
    # von Neumann payloads of one size are told apart by structure.
    one = frozenset([E])
    assert not instance_eq(Instance("nat.vn", frozenset([E, one])), Instance("nat.vn", frozenset([E, frozenset([one])])))
    # An equal payload is accepted, and checked, without recursion.
    assert get_shape("nat.vn").make(vn.payload) is not vn


def _random_set(rng, depth):
    """A random nested frozenset, at most depth deep and 3 wide, some elements ints."""
    elements = [rng.randrange(3) if depth == 0 or rng.random() < 0.2 else _random_set(rng, depth - 1)
                for _ in range(rng.randrange(4))]
    return frozenset(elements)


def _rebuilt_apart(s):
    """An equal set that shares no set object with s."""
    return frozenset(_rebuilt_apart(e) if type(e) is frozenset else e for e in s)


def test_set_nat_walks_agree_with_frozenset_equality():
    # instance_eq numbers the sets with one walk, and the nat.vn check is the
    # same walk: on small random sets, the first is ==, and each validator
    # accepts exactly its shape's encodings.
    rng = random.Random(40)
    vn, zermelo = get_shape("nat.vn"), get_shape("nat.zermelo")
    encodings = {shape: [shape.encode(k).payload for k in range(6)] for shape in (vn, zermelo)}
    pool = [_random_set(rng, rng.randrange(5)) for _ in range(300)] + [p for ps in encodings.values() for p in ps]
    for x in pool:
        for shape, encoded in encodings.items():
            try:
                shape.validate(x)
                accepted = True
            except UnsupportedShape:
                accepted = False
            assert accepted == (x in encoded), (shape.shape_id, x)
    for _ in range(3000):
        x, y = rng.choice(pool), rng.choice(pool)
        assert instance_eq(Instance("nat.vn", x), Instance("nat.vn", y)) == (x == y)
        assert instance_eq(Instance("nat.zermelo", x), Instance("nat.zermelo", _rebuilt_apart(x)))


def test_set_nat_instances_compare_by_instance_eq():
    # Record equality of instances is the shape's instance equality, so two
    # separately built deep values compare without frozenset ==.
    start = time.perf_counter()
    assert encode(1200, "nat.vn") == encode(1200, "nat.vn")
    assert time.perf_counter() - start < 1
    assert encode(1200, "nat.vn") != encode(1199, "nat.vn")
    assert encode(3000, "nat.zermelo") == encode(3000, "nat.zermelo")
    assert encode(2, "nat.vn") != encode(2, "nat.zermelo")
    assert encode(2, "nat.vn") != encode(2, "nat.vn").payload
    assert hash(encode(1200, "nat.vn")) == hash(encode(1200, "nat.vn"))
    # Records that hold instances inherit the equality.
    assert normality_report("nat.vn", 5) == normality_report("nat.vn", 5)


def test_label_eq_pcs_golden():
    pcs = get_shape("rat.pcs")
    half = pcs.make((1, 2))
    # (2, 4) is not a canonical pair, so build the class via arithmetic.
    other = pcs.encode(Fraction(2, 4))
    assert label_eq(half, other) and instance_eq(half, other)
    rns = get_shape("rat.rns")
    assert label_eq(rns.make((1, 2)), rns.make((2, 4)))
    assert not instance_eq(rns.make((1, 2)), rns.make((2, 4)))


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        instance_eq(encode(1, "nat.vn"), encode(1, "nat.zermelo"))
    with pytest.raises(ShapeMismatch):
        get_shape("nat.dec").operate("add", encode(1, "nat.dec"), encode(1, "nat.sdn"))


def test_refinement_everywhere():
    rng = random.Random(5)
    for shape_id in SHAPE_IDS:
        shape = get_shape(shape_id)
        sample = []
        for payload in shape.bounded_payloads(12):
            sample.append(shape.make(payload))
            if len(sample) >= 120:
                break
        for _ in range(200):
            i, j = rng.choice(sample), rng.choice(sample)
            if instance_eq(i, j):
                assert label_eq(i, j)


@pytest.mark.parametrize("shape_id", SHAPE_IDS)
def test_label_key_agrees_with_decode(shape_id):
    # The key is the (numerator, denominator) of the decoded value, or None
    # for the bottom class, on every payload the normality search walks.
    shape = get_shape(shape_id)
    for payload in shape.bounded_payloads(12):
        value = shape.decode(Instance(shape_id, payload))
        want = None if value is None else (Fraction(value).numerator, Fraction(value).denominator)
        assert shape.label_key(payload) == want, payload


def test_rns_label_key_puts_the_sign_on_the_numerator():
    rns = get_shape("rat.rns")
    assert rns.label_key((1, -2)) == rns.label_key((-1, 2)) == rns.label_key((3, -6)) == (-1, 2)
    assert rns.label_key((-4, -6)) == (2, 3) and rns.label_key((0, -5)) == (0, 1)
    assert rns.label_key((0, 0)) is rns.label_key((3, 0)) is rns.label_key((-3, 0)) is None
    assert label_eq(rns.make((1, -2)), rns.make((-1, 2)))
    assert label_eq(rns.make((0, 0)), rns.make((3, 0)))
    assert not label_eq(rns.make((1, -2)), rns.make((1, 2)))


def test_label_eq_is_equivalence_on_samples():
    rng = random.Random(11)
    for shape_id in SHAPE_IDS:
        shape = get_shape(shape_id)
        sample = []
        for payload in shape.bounded_payloads(12):
            sample.append(shape.make(payload))
            if len(sample) >= 120:
                break
        for inst in sample:
            assert label_eq(inst, inst)
        for _ in range(300):
            i, j, k = (rng.choice(sample) for _ in range(3))
            assert label_eq(i, j) == label_eq(j, i)
            if label_eq(i, j) and label_eq(j, k):
                assert label_eq(i, k)


# ---------------------------------------------------------------------------
# Arithmetic


def test_von_neumann_addition_golden():
    got = get_shape("nat.vn").operate("add", encode(2, "nat.vn"), encode(3, "nat.vn"))
    assert instance_eq(got, encode(5, "nat.vn"))


def test_diffpair_addition_golden():
    dp = get_shape("int.diffpair")
    got = dp.operate("add", dp.make((5, 2)), dp.make((1, 4)))
    assert got.payload == (6, 6)
    assert label_eq(got, encode(0, "int.diffpair"))


# The payload arithmetic of the two shapes whose results are not canonical:
# difference pairs by their formulas, ratio numbers by ratio.rn_*.
_DIFFPAIR = {
    "add": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "mul": lambda x, y: (x[0] * y[0] + x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
    "neg": lambda x: (x[1], x[0]),
}
_RATIO_NUMBER = {"add": ratio.rn_add, "mul": ratio.rn_mul, "neg": ratio.rn_neg, "div": ratio.rn_div}
PAYLOAD_GRIDS = {
    "int.diffpair": [(0, 0), (5, 2), (1, 4), (3, 3), (0, 7)],
    "rat.rns": [(0, 0), (5, 0), (-2, 0), (0, 1), (1, 2), (2, 4), (-3, 5), (0, -3), (4, -6)],
}


def _expected_payload(shape_id, op, payloads):
    if shape_id == "int.diffpair":
        return _DIFFPAIR[op](*payloads)
    rn = _RATIO_NUMBER[op](*(ratio.RatioNumber(*p) for p in payloads))
    return (rn.a, rn.b)


@pytest.mark.parametrize("shape_id,op", [(s, op) for s in PAYLOAD_GRIDS for op in get_shape(s).operations])
def test_non_canonical_payload_arithmetic(shape_id, op):
    shape = get_shape(shape_id)
    arity = 1 if op == "neg" else 2
    for payloads in itertools.product(PAYLOAD_GRIDS[shape_id], repeat=arity):
        got = shape.operate(op, *(shape.make(p) for p in payloads))
        assert type(got) is Instance and got.shape_id == shape_id
        assert type(got.payload) is tuple
        assert got.payload == _expected_payload(shape_id, op, payloads)


def test_pcs_division_by_zero_class():
    pcs = get_shape("rat.pcs")
    got = pcs.operate("div", pcs.make((1, 1)), pcs.make((0, 1)))
    assert got.payload == (0, 0)
    assert decode(got) is None
    # bottom absorbs through the class arithmetic
    assert pcs.operate("add", got, pcs.make((3, 4))).payload == (0, 0)


def test_ssft_division_by_zero_has_no_instance():
    ssft = get_shape("rat.ssft")
    assert ssft.operate("div", ssft.encode(1), ssft.encode(0)) is BOT


def test_bot_is_refused_by_every_function_that_takes_an_instance():
    ssft = get_shape("rat.ssft")
    one = encode(1, "rat.ssft")
    bot = ssft.operate("div", one, encode(0, "rat.ssft"))
    calls = [lambda: decode(bot), lambda: ssft.operate("neg", bot), lambda: convert(bot, "rat.pcs"),
             lambda: instance_to_json(bot)]
    for op in (instance_eq, label_eq, *(functools.partial(ssft.operate, op) for op in ("add", "mul", "div"))):
        calls += [lambda op=op: op(bot, one), lambda op=op: op(one, bot), lambda op=op: op(bot, bot)]
    for call in calls:
        with pytest.raises(UnsupportedOperation, match="^bot is no instance"):
            call()


def _nested_sets(depth):
    s = E
    for _ in range(depth):
        s = frozenset([s])
    return s


@pytest.mark.parametrize("thing", [(1, 2), "0", None, 3, Fraction(1, 2), _nested_sets(5000)],
                         ids=["pair", "str", "None", "int", "Fraction", "deep-set"])
def test_what_is_no_instance_is_refused_by_every_function_that_takes_one(thing):
    # Each ends in UnsupportedOperation, not an AttributeError on .shape_id,
    # and names the thing in a repr cut short, not a RecursionError.
    pcs = get_shape("rat.pcs")
    one = encode(1, "rat.pcs")
    calls = [lambda: decode(thing), lambda: convert(thing, "rat.pcs"), lambda: instance_to_json(thing),
             lambda: pcs.operate("neg", thing)]
    for op in (instance_eq, label_eq, *(functools.partial(pcs.operate, op) for op in ("add", "mul", "div"))):
        calls += [lambda op=op: op(thing, one), lambda op=op: op(one, thing), lambda op=op: op(thing, thing)]
    for call in calls:
        with pytest.raises(UnsupportedOperation, match=f"^{re.escape(reprlib.repr(thing))} is no instance"):
            call()


@pytest.mark.parametrize("call", [
    lambda: decode(Instance("nat.vn", 5)),
    lambda: decode(Instance("rat.pcs", "x")),
    lambda: label_eq(Instance("rat.ssft", 1), Instance("rat.ssft", 1)),
    lambda: get_shape("rat.pcs").operate("add", encode(1, "rat.pcs"), Instance("rat.pcs", (1,))),
    lambda: instance_to_json(Instance("rat.pcs", 5)),
], ids=["decode-vn", "decode-pcs", "label_eq-ssft", "operate-pcs", "to_json-pcs"])
def test_a_payload_its_shape_does_not_hold_is_an_unsupported_shape(call):
    # An Instance built directly is checked by its shape before it is read.
    with pytest.raises(UnsupportedShape):
        call()


def test_instances_of_an_unknown_shape_compare_their_payloads():
    assert Instance("foo.bar", 1) == Instance("foo.bar", 1)
    assert Instance("foo.bar", 1) != Instance("foo.bar", 2)
    assert hash(Instance("foo.bar", 1)) == hash(Instance("foo.bar", 1))


def test_operate_refuses_an_instance_of_another_shape():
    # Decoding it would give a number of the label, so nat.vn once added two
    # nat.dec instances into a von Neumann 5.
    vn = get_shape("nat.vn")
    with pytest.raises(ShapeMismatch, match="^nat.vn vs nat.dec$"):
        vn.operate("add", encode(3, "nat.dec"), encode(2, "nat.dec"))
    with pytest.raises(ShapeMismatch, match="^rat.pcs vs rat.rns$"):
        get_shape("rat.pcs").operate("add", encode(1, "rat.pcs"), get_shape("rat.rns").make((1, 2)))
    with pytest.raises(ShapeMismatch, match="^int.diffpair vs nat.dedekind$"):
        get_shape("int.diffpair").operate("add", encode(1, "int.diffpair"), encode(1, "nat.dedekind"))
    for own_id, other_id in itertools.permutations(SHAPE_IDS, 2):
        shape = get_shape(own_id)
        own, other = encode(1, own_id), encode(1, other_id)
        for op in shape.operations:
            for operands in [(other,)] if op == "neg" else [(other, own), (own, other), (other, other)]:
                with pytest.raises(ShapeMismatch, match=f"^{own_id} vs {other_id}$"):
                    shape.operate(op, *operands)


def test_decode_homomorphism():
    rng = random.Random(3)
    for shape_id in SHAPE_IDS:
        shape = get_shape(shape_id)
        lo = 0 if shape.label == "nat" else -50
        values = [rng.randint(lo, 50) for _ in range(60)]
        insts = [shape.encode(v) for v in values]
        for _ in range(120):
            i, j = rng.choice(insts), rng.choice(insts)
            assert decode(shape.operate("add", i, j)) == decode(i) + decode(j)
            assert decode(shape.operate("mul", i, j)) == decode(i) * decode(j)
            if "neg" in shape.operations:
                assert decode(shape.operate("neg", i)) == -decode(i)
            if "div" in shape.operations and decode(j) != 0:
                assert decode(shape.operate("div", i, j)) == Fraction(decode(i)) / decode(j)


def test_set_nat_arithmetic_respects_the_cap():
    zermelo_cap = encode(SET_NAT_CAP, "nat.zermelo")
    with pytest.raises(CapacityError):
        get_shape("nat.zermelo").operate("add", zermelo_cap, encode(5, "nat.zermelo"))
    # A von Neumann natural at the cap would not fit in memory. Its decode
    # reads only the size of the set, so a stand-in set of that size will do.
    vn_cap = Instance("nat.vn", frozenset(range(SET_NAT_CAP)))
    with pytest.raises(CapacityError):
        get_shape("nat.vn").operate("add", vn_cap, encode(5, "nat.vn"))
    for shape_id in ("nat.vn", "nat.zermelo"):
        big = encode(300, shape_id)
        with pytest.raises(CapacityError):
            get_shape(shape_id).operate("mul", big, big)


def test_vn_cap_refuses_before_building():
    # A von Neumann k holds k(k+1)/2 elements, so nat.vn has a cap of its own,
    # checked before the first successor is built.
    assert 1200 <= SET_NAT_VN_CAP < SET_NAT_CAP
    tracemalloc.start()
    try:
        for k in (SET_NAT_VN_CAP + 1, SET_NAT_CAP):
            with pytest.raises(CapacityError, match=f"nat.vn holds no value past the set-nat cap {SET_NAT_VN_CAP}$"):
                encode(k, "nat.vn")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def _exact(payload):
    a, b = payload
    return None if b == 0 else Fraction(a, b)


def _exact_op(op, x, y=None):
    if x is None or (op != "neg" and y is None):
        return None
    if op == "div":
        return None if y == 0 else x / y
    return {"add": lambda: x + y, "mul": lambda: x * y, "neg": lambda: -x}[op]()


BOTTOM_OPERANDS = [
    (shape_id, op, left, right)
    for shape_id, bottoms, zero in (
        ("rat.pcs", [(0, 0)], (0, 1)),
        ("rat.rns", [(0, 0), (5, 0), (-2, 0)], (0, 7)),
    )
    for bottom in bottoms
    for op, left, right in (
        ("add", bottom, (3, 4)),
        ("add", (3, 4), bottom),
        ("mul", bottom, (3, 4)),
        ("mul", (3, 4), bottom),
        ("neg", bottom, None),
        ("div", bottom, (3, 4)),
        ("div", (3, 4), bottom),
        ("div", (3, 4), zero),
        ("div", bottom, zero),
    )
]


@pytest.mark.parametrize("shape_id,op,left,right", BOTTOM_OPERANDS)
def test_bottom_class_operands(shape_id, op, left, right):
    expected = _exact_op(op, _exact(left), None if right is None else _exact(right))
    assert expected is None
    shape = get_shape(shape_id)
    operands = [shape.make(p) for p in (left, right) if p is not None]
    got = shape.operate(op, *operands)
    assert decode(got) is expected


@pytest.mark.parametrize("src,bottom", [("rat.pcs", (0, 0)), ("rat.rns", (0, 0)), ("rat.rns", (3, 0))])
def test_convert_bottom_into_every_rat_shape(src, bottom):
    inst = get_shape(src).make(bottom)
    for dst in SHAPE_IDS:
        if get_shape(dst).label != "rat":
            continue
        if dst == "rat.ssft":
            with pytest.raises(UnsupportedOperation):
                convert(inst, dst)
        else:
            assert decode(convert(inst, dst)) is None


def test_operations_follow_the_label():
    expected = {"nat": {"add", "mul"}, "int": {"add", "mul", "neg"}, "rat": {"add", "mul", "neg", "div"}}
    for shape_id in SHAPE_IDS:
        shape = get_shape(shape_id)
        assert set(shape.operations) == expected[shape.label]


def test_unsupported_operations():
    with pytest.raises(UnsupportedOperation):
        get_shape("nat.vn").operate("neg", encode(1, "nat.vn"))
    with pytest.raises(UnsupportedOperation):
        get_shape("int.signed").operate("div", encode(1, "int.signed"), encode(1, "int.signed"))
    # Every shape, every operation outside its label.
    lacking = []
    for shape_id in SHAPE_IDS:
        one = encode(1, shape_id)
        for op, noun in (("neg", "negation"), ("div", "division")):
            if op in get_shape(shape_id).operations:
                continue
            lacking.append((shape_id, op))
            with pytest.raises(UnsupportedOperation, match=f"^{shape_id} has no {noun}$"):
                get_shape(shape_id).operate(op, *[one] * (1 if op == "neg" else 2))
    assert len(lacking) == 5 * 2 + 2


def test_operate_refuses_a_wrong_arity_or_an_unknown_operation():
    # Each before any instance is decoded: no payload here is even valid.
    shape = get_shape("rat.pcs")
    one = encode(1, "rat.pcs")
    bad = shapes.Instance("rat.pcs", "not a payload")
    with pytest.raises(UnsupportedOperation, match="^addition takes 2 instances, not 1$"):
        shape.operate("add", one)
    with pytest.raises(UnsupportedOperation, match="^negation takes 1 instance, not 2$"):
        shape.operate("neg", bad, bad)
    with pytest.raises(UnsupportedOperation, match="^unknown operation 'pow'"):
        shape.operate("pow", bad, bad)


# ---------------------------------------------------------------------------
# Ordering as membership


def test_von_neumann_order_is_membership():
    insts = [encode(k, "nat.vn") for k in range(13)]
    for i, a in enumerate(insts):
        for j, b in enumerate(insts):
            assert (i < j) == (a.payload in b.payload)


# ---------------------------------------------------------------------------
# Conversion


def test_convert_goldens():
    assert convert(encode(3, "nat.dedekind"), "nat.dec").payload == "3"
    dec = get_shape("nat.dec")
    assert convert(dec.make("007"), "nat.sdn").payload == "7"
    ssft = get_shape("rat.ssft")
    two_thirds = ssft.make(parse_term("2/3"))
    assert convert(two_thirds, "rat.pcs").payload == (2, 3)


def test_convert_round_trip_within_label():
    by_label = {}
    for shape_id in SHAPE_IDS:
        by_label.setdefault(get_shape(shape_id).label, []).append(shape_id)
    for label, ids in by_label.items():
        lo = 0 if label == "nat" else -12
        for src in ids:
            for dst in ids:
                for k in range(lo, 13):
                    inst = encode(k, src)
                    there = convert(inst, dst)
                    back = convert(there, src)
                    assert label_eq(back, inst)


def test_convert_bottom_class():
    pcs = get_shape("rat.pcs")
    bottom = pcs.make((0, 0))
    assert convert(bottom, "rat.rns").payload == (0, 0)
    with pytest.raises(UnsupportedOperation):
        convert(bottom, "rat.ssft")
    with pytest.raises(LabelMismatch):
        convert(encode(1, "nat.dec"), "int.signed")


# ---------------------------------------------------------------------------
# Normality


def test_normality_dec_subnormal_with_witness():
    report = normality_report("nat.dec", 10)
    assert not report.normal
    a, b = report.witness
    assert label_eq(a, b) and not instance_eq(a, b)
    dec = get_shape("nat.dec")
    assert label_eq(dec.make("007"), dec.make("7"))
    assert not instance_eq(dec.make("007"), dec.make("7"))


def test_normality_pcs_normal():
    assert normality_report("rat.pcs", 10).normal


def test_normality_rns_subnormal_with_witness():
    report = normality_report("rat.rns", 10)
    assert not report.normal
    a, b = report.witness
    assert label_eq(a, b) and not instance_eq(a, b)
    rns = get_shape("rat.rns")
    assert label_eq(rns.make((1, 2)), rns.make((2, 4)))
    assert not instance_eq(rns.make((1, 2)), rns.make((2, 4)))


def test_normality_matrix_small_bound():
    for shape_id in ("nat.sdn", "nat.dedekind", "nat.vn", "nat.zermelo", "int.signed", "rat.pcs", "rat.ssft"):
        assert normality_report(shape_id, 15).normal, shape_id
    for shape_id in ("nat.dec", "int.diffpair", "rat.rns"):
        assert not normality_report(shape_id, 15).normal, shape_id


def reference_witness(shape_id, bound):
    """Brute force: pair each instance with the first earlier one of equal
    decode; the witness is the first such pair that is not instance-equal.
    It reads decode, never ``label_key``, which the search keys on."""
    shape = get_shape(shape_id)
    instances = [Instance(shape_id, payload) for payload in shape.bounded_payloads(bound)]
    values = [shape.decode(inst) for inst in instances]
    for k, inst in enumerate(instances):
        earlier = [j for j in range(k) if values[j] == values[k]]
        if earlier and not shape.instance_eq(instances[earlier[0]], inst):
            return instances[earlier[0]], inst
    return None


@pytest.mark.parametrize("shape_id", SHAPE_IDS)
def test_normality_matches_brute_force(shape_id):
    for bound in range(1, 9):
        report, want = normality_report(shape_id, bound), reference_witness(shape_id, bound)
        assert report.normal is (want is None)
        if want is not None:
            assert [instance_to_json(w) for w in report.witness] == [instance_to_json(w) for w in want]


def test_coprime_pairs_filter_every_pair_by_gcd():
    for bound in range(1, 41):
        want = [(a, b) for b in range(1, bound + 1) for a in range(-bound, bound + 1) if math.gcd(a, b) == 1]
        assert list(_coprime_pairs(bound)) == want, bound


@pytest.mark.parametrize("bound", [1, 7, 30])
def test_ssft_enumeration_shares_its_literals(bound):
    payloads = list(get_shape("rat.ssft").bounded_payloads(bound))
    assert payloads == [Div(Lit(str(a)), Lit(str(b))) for a, b in _coprime_pairs(bound)]
    assert len({id(lit) for t in payloads for lit in (t.left, t.right)}) <= 2 * bound + 1


class _Box:
    __slots__ = ("k", "__weakref__")

    def __init__(self, k):
        self.k = k


class _ProbeNat(shapes.Shape):
    """Naturals in boxes that report how many boxes are alive at each label
    key and at the comparison of a witness."""

    shape_id = "nat.probe"
    label = "nat"

    def __init__(self):
        self.live, self.most_live = weakref.WeakSet(), 0

    def bounded_payloads(self, bound):
        for k in (*range(bound + 1), 0):  # 0 again at the end: the witness
            box = _Box(k)
            self.live.add(box)
            yield box
            del box

    def label_key(self, payload):
        self.most_live = max(self.most_live, len(self.live))
        return payload.k

    def instance_eq(self, i, j):
        self.most_live = max(self.most_live, len(self.live))
        return i.payload == j.payload


def test_normality_keeps_no_instance_alive(monkeypatch):
    probe = _ProbeNat()
    monkeypatch.setitem(shapes._SHAPES, probe.shape_id, probe)
    report = normality_report(probe.shape_id, 50)
    assert not report.normal and [w.payload.k for w in report.witness] == [0, 0]
    assert probe.most_live <= 2  # the pair compared for the witness


def test_normality_keeps_no_instance_per_value():
    # About 2.3 MB: one (numerator, denominator) pair and one position per
    # value. Keeping every decoded Fraction and its instance took 9.4 MB.
    tracemalloc.start()
    try:
        assert normality_report("rat.ssft", 120).normal
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_700_000


def test_normality_bound_budget(monkeypatch):
    assert NORMALITY_BOUND >= 200  # the largest bound the benchmark searches
    assert normality_report("nat.sdn", NORMALITY_BOUND).normal
    with pytest.raises(UnsupportedOperation, match="^bound must be at least 1$"):
        normality_report("nat.sdn", 0)

    def enumerate_nothing(self, bound):
        raise AssertionError("enumerated past the budget")

    for shape_id in ("rat.pcs", "rat.ssft"):
        monkeypatch.setattr(type(get_shape(shape_id)), "bounded_payloads", enumerate_nothing)
        for bound in (NORMALITY_BOUND + 1, 10**5000):
            with pytest.raises(CapacityError):
                normality_report(shape_id, bound)


# ---------------------------------------------------------------------------
# JSON


def test_instance_json_round_trip():
    for shape_id in SHAPE_IDS:
        for k in (0, 3) if shape_id.startswith("nat.") else (-5, 0, 3):
            inst = encode(k, shape_id)
            data = instance_to_json(inst)
            assert instance_from_json(data) == inst
    with pytest.raises(UnsupportedShape, match="^not a simplified simple fracterm: 2/ft3$"):
        instance_from_json({"shape": "rat.ssft", "value": "2/ft3"})


@pytest.mark.parametrize("shape_id,sign", [("nat.dedekind", 1)] + [
    (shape_id, sign) for shape_id in ("int.diffpair", "rat.pcs", "rat.rns") for sign in (1, -1)
])
def test_instance_json_past_the_digit_limit(shape_id, sign):
    limit = sys.get_int_max_str_digits()
    with pytest.raises(CapacityError):
        instance_to_json(encode(sign * 10**5000, shape_id))
    data = instance_to_json(encode(sign * (10**limit - 1), shape_id))
    assert instance_from_json(json.loads(json.dumps(data))) == encode(sign * (10**limit - 1), shape_id)


def test_vn_json_is_nested_arrays():
    assert instance_to_json(encode(2, "nat.vn"))["value"] == [[], [[]]]
    assert instance_to_json(encode(2, "nat.zermelo"))["value"] == [[[]]]


def test_zermelo_json_up_to_the_depth_budget():
    k = SET_NAT_JSON_DEPTH - 1
    text = json.dumps(instance_to_json(encode(k, "nat.zermelo")))
    assert text == '{"shape": "nat.zermelo", "value": ' + "[" * (k + 1) + "]" * (k + 1) + "}"
    with pytest.raises(CapacityError):
        instance_to_json(encode(SET_NAT_JSON_DEPTH, "nat.zermelo"))


def test_vn_json_up_to_the_character_budget():
    # The JSON of k >= 1 has 3 * 2**k - 2 characters.
    for k in (3, 10, 16):
        assert len(json.dumps(instance_to_json(encode(k, "nat.vn"))["value"])) == 3 * 2**k - 2
    assert 3 * 2**18 - 2 <= SET_NAT_JSON_CHARS < 3 * 2**19 - 2
    assert len(instance_to_json(encode(18, "nat.vn"))["value"]) == 18
    for k in (19, 22):
        with pytest.raises(CapacityError, match=f"nat.vn JSON of {k} has {3 * 2**k - 2} characters"):
            instance_to_json(encode(k, "nat.vn"))
    # The depth budget is checked first, and keeps its message.
    with pytest.raises(CapacityError, match="nests 901 lists"):
        instance_to_json(encode(SET_NAT_JSON_DEPTH, "nat.vn"))


def test_vn_json_is_read_back_as_one_set_per_natural():
    # The JSON of 18 lists each j < 18 2**(17 - j) times, 262,144 lists in
    # all; equal lists are read as one set, so the value holds 19.
    data = json.loads(json.dumps(instance_to_json(encode(18, "nat.vn"))))
    tracemalloc.start()
    try:
        inst = instance_from_json(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    distinct, stack = {}, [inst.payload]
    while stack:
        s = stack.pop()
        if id(s) not in distinct:
            distinct[id(s)] = s
            stack.extend(s)
    assert len(distinct) == 19
    assert inst == encode(18, "nat.vn")
    for bad in ([[], 1], [[[]], [["0"]]], "[]"):
        with pytest.raises(UnsupportedShape, match="nat.vn payload must be nested lists"):
            instance_from_json({"shape": "nat.vn", "value": bad})


@pytest.mark.parametrize("shape_id,payload", [("nat.dec", "1" * 5000), ("nat.sdn", "1" * 5000),
                                              ("int.signed", ("-", "1" * 5000))])
def test_decimal_shapes_past_the_digit_limit(shape_id, payload):
    with pytest.raises(CapacityError):
        encode(10**5000, shape_id)
    with pytest.raises(CapacityError):
        decode(get_shape(shape_id).make(payload))


NOT_NUMBERS = [True, False, 1.5, float("nan"), float("inf"), "3"]


@pytest.mark.parametrize("shape_id", SHAPE_IDS)
@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
def test_encode_takes_only_numbers(shape_id, value):
    # An int that is no bool, a Fraction or None; a float or a numeric
    # string is no exact number of any shape.
    with pytest.raises(UnsupportedOperation, match=f"not {type(value).__name__}$"):
        encode(value, shape_id)
    if get_shape(shape_id).label != "rat":  # rat shapes leave the check to encode above
        with pytest.raises(UnsupportedOperation):
            get_shape(shape_id).encode(value)


@pytest.mark.parametrize("shape_id", ["int.diffpair", "rat.pcs", "rat.rns"])
def test_pair_payloads_hold_ints_not_bools(shape_id):
    for payload in ((True, 1), (1, True), (1.0, 1), (1, 1.0)):
        with pytest.raises(UnsupportedShape):
            get_shape(shape_id).make(payload)
    assert get_shape(shape_id).make((1, 1)).payload == (1, 1)


def test_vn_validate_builds_no_canonical_copy():
    # The check walks the payload's own sets: the canonical copy it once
    # built for k = 600 took about 15 MB.
    payload = encode(600, "nat.vn").payload
    tracemalloc.start()
    try:
        assert get_shape("nat.vn").make(payload).payload is payload
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # Distinct sets that are each a natural, but not 0, ..., k - 1.
    E = frozenset()
    one, two = frozenset([E]), frozenset([E, frozenset([E])])
    for bad in (frozenset([one, two]), frozenset([E, two]), frozenset([E, one, frozenset([one])]), frozenset([E, "1"])):
        with pytest.raises(UnsupportedShape, match="not a von Neumann natural"):
            get_shape("nat.vn").make(bad)
    with pytest.raises(CapacityError):
        get_shape("nat.vn").make(frozenset(range(SET_NAT_VN_CAP + 1)))


def test_make_instance_validates():
    with pytest.raises(UnsupportedShape):
        get_shape("nat.sdn").make("007")
    with pytest.raises(UnsupportedShape):
        get_shape("nat.vn").make(frozenset([frozenset([E])]))  # not an ordinal
    with pytest.raises(UnsupportedShape):
        get_shape("rat.pcs").make((2, 4))
    with pytest.raises(UnsupportedShape):
        get_shape("rat.ssft").make(parse_term("4/6"))
    # A decorated payload is no simplified simple fracterm: rat.ssft is normal.
    with pytest.raises(UnsupportedShape, match="^not a simplified simple fracterm: 2/ft3$"):
        get_shape("rat.ssft").make(parse_term("2/ft3"))
    for shape_id, bad in (("nat.vn", [E]), ("nat.zermelo", [E]), ("nat.zermelo", frozenset([E, frozenset([E])]))):
        with pytest.raises(UnsupportedShape):
            get_shape(shape_id).make(bad)
    assert get_shape("int.signed").make("0") == encode(0, "int.signed")
