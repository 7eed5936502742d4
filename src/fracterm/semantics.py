"""Evaluation of closed terms to fracvalues under three division policies.

* ``partial``        - division by zero raises;
* ``suppes-ono``     - every division by zero yields zero, pointwise;
* ``common-meadow``  - division by zero yields bottom, and bottom absorbs
                       through every operation.

A fracvalue is either a number instance of the configured rational shape or
a peripheral. Only bottom is ever produced; the other peripherals (inf,
+inf, -inf, nan) are representable but have no algebra here.

Evaluation folds the term in exact integer pairs (a, b) in lowest terms,
b nonzero, and encodes the result into the configured shape once, at the
root. The value is the number, which the shape only presents: ``rat.pcs``
and ``rat.ssft`` are normal, ``decode`` of ``encode`` is the identity, so
encoding at every node and decoding again would give the same pairs.
``rat.rns`` is the exception: its results are raw, uncancelled pairs, so it
evaluates in ratio numbers (``ratio.rn_eval``), under common-meadow only.
Besides a literal, only the result meets Python's limit on int/str
conversion: ``rat.ssft`` writes it in decimal digits and refuses one past
the limit with CapacityError, while ``rat.pcs`` holds plain ints and has
no limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from . import ratio, shapes
from .errors import (
    DivisionByZero,
    OpenTerm,
    ShapeMismatch,
    UnsupportedOperation,
    UnsupportedPeripheral,
)
from .terms import Add, Lit, Mul, Neg, Record, Sub, Term, Var, fold, slot_setters

POLICIES = ("partial", "suppes-ono", "common-meadow")
PERIPHERALS = ("bot", "inf", "+inf", "-inf", "nan")


class Fracvalue(Record):
    __slots__ = ()


class NumberValue(Fracvalue):
    __slots__ = ("instance",)

    def __init__(self, instance: shapes.Instance):
        _set_instance(self, instance)


class PeripheralValue(Fracvalue):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in PERIPHERALS:
            raise UnsupportedPeripheral(f"unknown peripheral {name!r}")
        _set_name(self, name)


(_set_instance,) = slot_setters(NumberValue)
(_set_name,) = slot_setters(PeripheralValue)
BOTTOM = PeripheralValue("bot")


class EvalConfig(Record):
    __slots__ = ("policy", "shape_id")

    def __init__(self, policy: str = "common-meadow", shape_id: str = "rat.pcs"):
        if policy not in POLICIES:
            raise UnsupportedOperation(f"unknown policy {policy!r}")
        if shapes.get_shape(shape_id).label != "rat":
            raise UnsupportedOperation(f"evaluation needs a rat shape, got {shape_id!r}")
        _set_policy(self, policy)
        _set_shape_id(self, shape_id)


_set_policy, _set_shape_id = slot_setters(EvalConfig)


_BOT = shapes.BOT


def eval_term(t: Term, cfg: EvalConfig = EvalConfig()) -> Fracvalue:
    """Evaluate a closed term to a fracvalue under the configured policy."""
    if cfg.shape_id == "rat.rns":
        # The ratio-number algebra is total; zero-denominator pairs are the
        # bottom class, which matches only the common-meadow reading.
        if cfg.policy != "common-meadow":
            raise UnsupportedOperation("rat.rns evaluates under common-meadow only")
        pair = ratio.rn_eval(t)
        if pair.b == 0:
            return BOTTOM
        return NumberValue(shapes.Instance("rat.rns", (pair.a, pair.b)))

    policy = cfg.policy

    def ev(node: Term, x=None, y=None):
        # A value is _BOT or a pair (a, b) in lowest terms, b != 0; the sign
        # is left to the Fraction built at the root.
        cls = type(node)
        if cls is Lit:
            return (node.value, 1)
        if cls is Var:
            raise OpenTerm(f"cannot evaluate variable {node.name!r}")
        if x is _BOT or y is _BOT:
            return _BOT
        a, b = x
        if cls is Neg:
            return (-a, b)
        c, d = y
        if cls is Add:
            n, m = a * d + b * c, b * d
        elif cls is Sub:
            n, m = a * d - b * c, b * d
        elif cls is Mul:
            n, m = a * c, b * d
        elif c:
            n, m = a * d, b * c
        # A division by zero: the policy decides what it gives.
        elif policy == "partial":
            raise DivisionByZero(f"zero divisor in {node}")
        elif policy == "suppes-ono":
            return (0, 1)
        else:
            return _BOT
        g = gcd(n, m)
        return (n // g, m // g)

    result = fold(t, ev)
    if result is _BOT:
        return BOTTOM
    return NumberValue(shapes.get_shape(cfg.shape_id).encode(Fraction(*result)))


def value_eq(v: Fracvalue, w: Fracvalue) -> bool:
    """Label equality on numbers; peripherals equal only themselves."""
    if isinstance(v, PeripheralValue) and isinstance(w, PeripheralValue):
        return v.name == w.name
    if isinstance(v, NumberValue) and isinstance(w, NumberValue):
        if v.instance.shape_id != w.instance.shape_id:
            raise ShapeMismatch(f"{v.instance.shape_id} vs {w.instance.shape_id}")
        return shapes.label_eq(v.instance, w.instance)
    return False


def value_num(v: Fracvalue) -> Fracvalue:
    """Fracvalues do not split into numerator and denominator: always bottom."""
    return BOTTOM


def value_denom(v: Fracvalue) -> Fracvalue:
    return BOTTOM


def value_to_json(v: Fracvalue):
    if isinstance(v, PeripheralValue):
        return {"kind": "peripheral", "value": v.name}
    data = shapes.instance_to_json(v.instance)
    return {"kind": "number", "shape": data["shape"], "value": data["value"]}
