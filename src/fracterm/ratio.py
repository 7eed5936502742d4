"""Ratio numbers: raw integer pairs with a total division algebra.

Pairs are never canonicalized; (1, 2) and (2, 4) are distinct instances
that are label-equal as ratios. Numerator and denominator extraction is
defined on the pairs themselves, which deliberately breaks congruence with
label equality: that failure is the point of the construction, not a bug.

The default addition is cross-multiplication, (a*d + b*c, b*d). A verbatim
mode computing (a*c + b*d, b*d) instead is available for fidelity
experiments; it does not agree with rational addition.

The integer components are exact bignums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import OpenTerm
from .terms import Add, Lit, Mul, Neg, Sub, Term, Var, fold


@dataclass(frozen=True)
class RatioNumber:
    a: int
    b: int

    def as_fraction(self) -> Optional[Fraction]:
        """Exact ratio, or None for the zero-denominator pairs."""
        return None if self.b == 0 else Fraction(self.a, self.b)


def sign(p: int) -> int:
    return 1 if p > 0 else -1 if p < 0 else 0


def rn_zero() -> RatioNumber:
    return RatioNumber(0, 1)


def rn_one() -> RatioNumber:
    return RatioNumber(1, 1)


def rn_neg(x: RatioNumber) -> RatioNumber:
    return RatioNumber(-x.a, x.b)


def rn_mul(x: RatioNumber, y: RatioNumber) -> RatioNumber:
    return RatioNumber(x.a * y.a, x.b * y.b)


def rn_add(x: RatioNumber, y: RatioNumber, verbatim: bool = False) -> RatioNumber:
    if verbatim:
        return RatioNumber(x.a * y.a + x.b * y.b, x.b * y.b)
    return RatioNumber(x.a * y.b + x.b * y.a, x.b * y.b)


def rn_inv(x: RatioNumber) -> RatioNumber:
    # sign(b) squared is 0 exactly when b is 0, killing the new denominator.
    return RatioNumber(x.b, x.a * sign(x.b) ** 2)


def rn_div(x: RatioNumber, y: RatioNumber) -> RatioNumber:
    return rn_mul(x, rn_inv(y))


def rn_num(x: RatioNumber) -> RatioNumber:
    return RatioNumber(x.a, 1)


def rn_denom(x: RatioNumber) -> RatioNumber:
    return RatioNumber(x.b, 1)


def rn_instance_eq(x: RatioNumber, y: RatioNumber) -> bool:
    return x.a == y.a and x.b == y.b


def rn_label_eq(x: RatioNumber, y: RatioNumber) -> bool:
    return (x.b == 0 and y.b == 0) or (
        x.b != 0 and y.b != 0 and x.a * y.b == x.b * y.a
    )


# ---------------------------------------------------------------------------
# Evaluation of terms, extended with numerator/denominator extraction.


@dataclass(frozen=True)
class NumOf:
    arg: "ExtTerm"


@dataclass(frozen=True)
class DenomOf:
    arg: "ExtTerm"


ExtTerm = Union[Term, NumOf, DenomOf]


def rn_eval(t: ExtTerm, verbatim: bool = False) -> RatioNumber:
    """Interpret a closed term in the ratio-number algebra.

    Subtraction desugars to addition of a negation; the algebra itself has
    no subtraction rule. NumOf and DenomOf apply to the whole term inside
    them.
    """
    extractions = []
    while isinstance(t, (NumOf, DenomOf)):
        extractions.append(rn_num if isinstance(t, NumOf) else rn_denom)
        t = t.arg

    def ev(node: Term, x=None, y=None) -> RatioNumber:
        if isinstance(node, Lit):
            return RatioNumber(node.value, 1)
        if isinstance(node, Var):
            raise OpenTerm(f"cannot evaluate variable {node.name!r}")
        if isinstance(node, Neg):
            return rn_neg(x)
        if isinstance(node, Add):
            return rn_add(x, y, verbatim)
        if isinstance(node, Sub):
            return rn_add(x, rn_neg(y), verbatim)
        if isinstance(node, Mul):
            return rn_mul(x, y)
        return rn_div(x, y)

    pair = fold(t, ev)
    for extract in reversed(extractions):
        pair = extract(pair)
    return pair
