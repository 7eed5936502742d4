"""Evaluation of closed terms to fracvalues under three division policies.

* ``partial``        - division by zero raises;
* ``suppes-ono``     - every division by zero yields zero, pointwise;
* ``common-meadow``  - division by zero yields bottom, and bottom absorbs
                       through every operation.

A fracvalue is either a number instance of the configured rational shape or
a peripheral. Only bottom is ever produced; the other peripherals (inf,
+inf, -inf, nan) are representable but have no algebra here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ratio, shapes
from .errors import (
    DivisionByZero,
    OpenTerm,
    ShapeMismatch,
    UnsupportedOperation,
    UnsupportedPeripheral,
)
from .terms import Add, Lit, Mul, Neg, Sub, Term, Var, fold

POLICIES = ("partial", "suppes-ono", "common-meadow")
PERIPHERALS = ("bot", "inf", "+inf", "-inf", "nan")


class Fracvalue:
    pass


@dataclass(frozen=True)
class NumberValue(Fracvalue):
    instance: shapes.Instance


@dataclass(frozen=True)
class PeripheralValue(Fracvalue):
    name: str

    def __post_init__(self):
        if self.name not in PERIPHERALS:
            raise UnsupportedPeripheral(f"unknown peripheral {self.name!r}")


BOTTOM = PeripheralValue("bot")


@dataclass(frozen=True)
class EvalConfig:
    policy: str = "common-meadow"
    shape_id: str = "rat.pcs"

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise UnsupportedOperation(f"unknown policy {self.policy!r}")
        if shapes.get_shape(self.shape_id).label != "rat":
            raise UnsupportedOperation(f"evaluation needs a rat shape, got {self.shape_id!r}")


_BOT = shapes.BOT


def eval_term(t: Term, cfg: EvalConfig = EvalConfig()) -> Fracvalue:
    """Evaluate a closed term to a fracvalue under the configured policy."""
    shape = shapes.get_shape(cfg.shape_id)

    if cfg.shape_id == "rat.rns":
        # The ratio-number algebra is total; zero-denominator pairs are the
        # bottom class, which matches only the common-meadow reading.
        if cfg.policy != "common-meadow":
            raise UnsupportedOperation("rat.rns evaluates under common-meadow only")
        pair = ratio.rn_eval(t)
        if pair.b == 0:
            return BOTTOM
        return NumberValue(shapes.Instance("rat.rns", (pair.a, pair.b)))

    def ev(node: Term, a=None, b=None):
        if isinstance(node, Lit):
            return shape.encode(node.value)
        if isinstance(node, Var):
            raise OpenTerm(f"cannot evaluate variable {node.name!r}")
        if a is _BOT or b is _BOT:
            return _BOT
        if isinstance(node, Neg):
            return shape.neg(a)
        if isinstance(node, Add):
            return shape.add(a, b)
        if isinstance(node, Sub):
            return shape.add(a, shape.neg(b))
        if isinstance(node, Mul):
            return shape.mul(a, b)
        # A division: the policy decides what a zero or bottom-class divisor gives.
        if shape.decode(b) in (0, None):
            if cfg.policy == "partial":
                raise DivisionByZero(f"zero divisor in {node}")
            if cfg.policy == "suppes-ono":
                return shape.encode(0)
            return _BOT
        return shape.div(a, b)

    result = fold(t, ev)
    if result is _BOT:
        return BOTTOM
    if shape.decode(result) is None:
        # A bottom-class instance surfacing outside common-meadow collapses
        # to the policy's totalization; under common-meadow it is bottom.
        if cfg.policy == "suppes-ono":
            return NumberValue(shape.encode(0))
        return BOTTOM
    return NumberValue(result)


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
