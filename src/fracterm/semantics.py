"""Evaluation of closed terms to fracvalues under three division policies.

* ``partial``        - division by zero raises;
* ``suppes-ono``     - every division by zero yields zero, pointwise;
* ``common-meadow``  - division by zero yields bottom, and bottom absorbs
                       through every operation.

A fracvalue is a ``NumberValue``, a number instance of the configured
rational shape, or ``BOTTOM``. ``BOTTOM`` is ``shapes.BOT``, the one bottom
of evaluation, shape arithmetic and fractalk; it equals only itself.

Evaluation folds the term with ``ratio._pair_algebra``, the one pair
algebra (plain or verbatim addition, and what a zero divisor does), in
exact integer pairs (a, b) in lowest terms, b nonzero:
``eval_number`` gives the exact Fraction, or bottom, and
``eval_term`` encodes it into the configured shape, at the root.
``terms.fold`` computes each distinct composite node once, so a term that
shares subterms, as a flat form does, evaluates in time linear in its
distinct nodes. The value is the number, which the shape only presents:
``rat.pcs`` and ``rat.ssft`` are normal, ``decode`` of ``encode`` is the
identity. ``rat.rns`` is the exception: its results are raw, uncancelled
pairs, so it evaluates in ratio numbers (``ratio.rn_eval``), under
common-meadow only, each pair naming ``eval_number``'s value (denominator
0 for bottom). Besides a literal, only the result meets Python's limit on
int/str conversion: ``rat.ssft`` writes it in decimal digits and refuses
one past the limit with CapacityError; ``rat.pcs`` holds plain ints.

The ``stop`` reading ends the fold at the first zero divisor in postorder,
where partial raises and common-meadow's bottom arises; only Suppes-Ono
folds again, giving zero there. A term keeps its Fraction once evaluated,
with ``rn_eval``'s pairs, in ``terms.value_memo``, and encodes it once per
shape: policies that yield the one Fraction share one ``NumberValue``, and
partial names its zero divisor once, keeping the text of its refusal. The
memo keeps the value's integers alive as long as the term lives, keeps no
exception and no bottom, and is no part of the term's ``==``, ``hash``,
``repr`` or pickling.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import ratio, shapes
from .errors import DivisionByZero, OpenTerm, ShapeMismatch, UnsupportedOperation
from .terms import Record, Term, expect, fold, named, value_memo

POLICIES = ("partial", "suppes-ono", "common-meadow")
BOTTOM = shapes.BOT


class NumberValue(Record):
    __slots__ = ("instance",)


class EvalConfig(Record):
    __slots__ = ("policy", "shape_id")
    _defaults = {"policy": "common-meadow", "shape_id": "rat.pcs"}

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise UnsupportedOperation(f"unknown policy {named(self.policy)}")
        if shapes.get_shape(self.shape_id).label != "rat":
            raise UnsupportedOperation(f"evaluation needs a rat shape, got {self.shape_id!r}")


def eval_number(t: Term, policy: str = "common-meadow"):
    """The exact value of a closed term under policy: a Fraction, or BOTTOM."""
    if policy not in POLICIES:
        raise UnsupportedOperation(f"unknown policy {named(policy)}")
    memo = value_memo(t)
    if "stop" not in memo:
        try:
            memo["stop"] = (Fraction(*fold(t, ratio._STOP)), None)
        except ratio._ZeroDivisor as exc:
            memo["stop"] = (None, exc.args[0])
    value, zero_divisor = memo["stop"]
    if zero_divisor is not None:
        if policy == "partial":
            if "partial" not in memo:
                memo["partial"] = (f"zero divisor in {named(zero_divisor)}",)
            raise DivisionByZero(memo["partial"][0])
        # On an open term, the Suppes-Ono fold raises OpenTerm at the first
        # variable, as common-meadow must too.
        if policy == "common-meadow" and not t.has_var:
            return BOTTOM
        if "suppes-ono" not in memo:
            memo["suppes-ono"] = Fraction(*fold(t, ratio._SUPPES_ONO))
        value = memo["suppes-ono"]
    return value


def eval_term(t: Term, cfg: Optional[EvalConfig] = None):
    """Evaluate a closed term under cfg, by default ``EvalConfig()``: a NumberValue, or BOTTOM."""
    if cfg is None:
        cfg = EvalConfig()
    expect(cfg, EvalConfig, "EvalConfig")
    if cfg.shape_id == "rat.rns":
        # The ratio-number algebra is total; zero-denominator pairs are the
        # bottom class, which matches only the common-meadow reading.
        if cfg.policy != "common-meadow":
            raise UnsupportedOperation("rat.rns evaluates under common-meadow only")
        pair = ratio.rn_eval(t)
        return BOTTOM if pair.b == 0 else NumberValue(shapes.Instance("rat.rns", (pair.a, pair.b)))
    value = eval_number(t, cfg.policy)
    if value is BOTTOM:
        return BOTTOM
    # Policies that yield the one value object share its encoding in a shape.
    memo = t._memo
    kept = memo.get(cfg.shape_id)
    if kept is None or kept[0] is not value:
        kept = memo[cfg.shape_id] = (value, NumberValue(shapes.get_shape(cfg.shape_id).encode(value)))
    return kept[1]


def value_eq(v, w) -> bool:
    """Label equality on numbers; bottom equals only itself."""
    if not (isinstance(v, NumberValue) and isinstance(w, NumberValue)):
        return v is w
    if v.instance.shape_id != w.instance.shape_id:
        raise ShapeMismatch(f"{v.instance.shape_id} vs {w.instance.shape_id}")
    return shapes.label_eq(v.instance, w.instance)


def value_num(v):
    """A fracvalue does not split into numerator and denominator: always bottom."""
    return BOTTOM


def value_to_json(v):
    if v is BOTTOM:
        return {"kind": "peripheral", "value": v.name}
    return {"kind": "number", **shapes.instance_to_json(v.instance)}
