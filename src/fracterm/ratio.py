"""Ratio numbers: raw integer pairs with a total division algebra.

Pairs are never canonicalized; (1, 2) and (2, 4) are distinct instances
that are label-equal as ratios. Numerator and denominator extraction is
defined on the pairs themselves, which deliberately breaks congruence with
label equality: that failure is the point of the construction, not a bug.

One pair algebra, ``_pair_algebra``, folds terms for every reading of their
value, here and in ``semantics``, through two choices: add by
cross-multiplication, (a*d + b*c, b*d), or verbatim, (a*c + b*d, b*d), which
does not agree with rational addition and serves fidelity experiments; and
at a zero divisor, stop the fold, give zero, or give a zero denominator, the
bottom class, which absorbs. A fold reduces each pair by its gcd exactly
when a zero divisor does not give bottom: the ratio-number readings keep
their raw pairs, and those of ``semantics`` stop or give zero.

The integer components are exact bignums.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import OpenTerm, UnsupportedOperation
from .terms import Add, Lit, Mul, Neg, Record, Sub, Term, Var, expect, fold, named, value_memo


class RatioNumber(Record):
    __slots__ = ("a", "b")

    def __post_init__(self):
        # A bool is no int here, as for the pair shapes' payloads.
        if type(self.a) is not int or type(self.b) is not int:
            raise UnsupportedOperation(f"a RatioNumber holds two ints, not {named(self.a)} and {named(self.b)}")

    def as_fraction(self) -> Optional[Fraction]:
        """Exact ratio, or None for the zero-denominator pairs."""
        return None if self.b == 0 else Fraction(self.a, self.b)


def sign(p: int) -> int:
    return 1 if p > 0 else -1 if p < 0 else 0


def _check_rn(*args) -> None:
    """Refuse what is no RatioNumber with UnsupportedOperation."""
    for x in args:
        expect(x, RatioNumber, "RatioNumber")


def rn_neg(x: RatioNumber) -> RatioNumber:
    _check_rn(x)
    return RatioNumber(-x.a, x.b)


def rn_mul(x: RatioNumber, y: RatioNumber) -> RatioNumber:
    _check_rn(x, y)
    return RatioNumber(x.a * y.a, x.b * y.b)


def rn_add(x: RatioNumber, y: RatioNumber, verbatim: bool = False) -> RatioNumber:
    _check_rn(x, y)
    if verbatim:
        return RatioNumber(x.a * y.a + x.b * y.b, x.b * y.b)
    return RatioNumber(x.a * y.b + x.b * y.a, x.b * y.b)


def rn_inv(x: RatioNumber) -> RatioNumber:
    _check_rn(x)
    # sign(b) squared is 0 exactly when b is 0, killing the new denominator.
    return RatioNumber(x.b, x.a * sign(x.b) ** 2)


def rn_div(x: RatioNumber, y: RatioNumber) -> RatioNumber:
    return rn_mul(x, rn_inv(y))


def rn_num(x: RatioNumber) -> RatioNumber:
    _check_rn(x)
    return RatioNumber(x.a, 1)


def rn_denom(x: RatioNumber) -> RatioNumber:
    _check_rn(x)
    return RatioNumber(x.b, 1)


def rn_instance_eq(x: RatioNumber, y: RatioNumber) -> bool:
    _check_rn(x, y)
    return x.a == y.a and x.b == y.b


def rn_label_eq(x: RatioNumber, y: RatioNumber) -> bool:
    _check_rn(x, y)
    return (x.b == 0 and y.b == 0) or (
        x.b != 0 and y.b != 0 and x.a * y.b == x.b * y.a
    )


# ---------------------------------------------------------------------------
# Evaluation of terms, extended with numerator/denominator extraction.


class NumOf(Record):
    __slots__ = ("arg",)


class DenomOf(Record):
    __slots__ = ("arg",)


ExtTerm = Union[Term, NumOf, DenomOf]


class _ZeroDivisor(Exception):
    """Stops the pair fold at the division node that args[0] names."""


def _pair_algebra(verbatim: bool, at_zero: str):
    """The fold in plain (a, b) int pairs, the sign left to whoever reads them;
    ``at_zero`` is "stop" (raise _ZeroDivisor), "zero" (give (0, 1)), both in
    lowest terms, or "bottom", in raw pairs."""
    stop, absorb = at_zero == "stop", at_zero == "bottom"

    def ev(node: Term, x=None, y=None) -> tuple[int, int]:
        cls = type(node)
        if cls is Lit:
            return (node.value if node._int is None else node._int, 1)  # value reads a long literal's digits
        if cls is Var:
            raise OpenTerm(f"cannot evaluate variable {node.name!r}")
        a, b = x
        if cls is Neg:
            return (-a, b)
        c, d = y
        if cls is Sub:
            cls, c = Add, -c
        if cls is Add:
            n, m = (a * c + b * d if verbatim else a * d + b * c), b * d
        elif cls is Mul:
            n, m = a * c, b * d
        elif c or absorb:
            # x times rn_inv(y), whose denominator c * sign(d)**2 is 0 when d is.
            n, m = a * d, b * c if d else 0
        elif stop:
            raise _ZeroDivisor(node)
        else:
            return (0, 1)
        if absorb or m == 1:  # gcd(n, 1) is 1
            return (n, m)
        g = gcd(n, m)
        return (n // g, m // g)

    return ev


# The four readings: semantics folds two, rn_eval two with their memo keys.
_STOP = _pair_algebra(False, "stop")
_SUPPES_ONO = _pair_algebra(False, "zero")
_PLAIN = ("rn", _pair_algebra(False, "bottom"))
_VERBATIM = ("rn-verbatim", _pair_algebra(True, "bottom"))


def rn_eval(t: ExtTerm, verbatim: bool = False) -> RatioNumber:
    """Interpret a closed term in the ratio-number algebra.

    Subtraction desugars to addition of a negation; the algebra itself has
    no subtraction rule. NumOf and DenomOf apply to the whole term inside
    them.

    One RatioNumber is built at the end. A term keeps its pair, one for each
    addition, in its ``value_memo``.
    """
    extractions = []
    while isinstance(t, (NumOf, DenomOf)):
        extractions.append(isinstance(t, NumOf))
        t = t.arg
    key, alg = _VERBATIM if verbatim else _PLAIN
    memo = value_memo(t)
    if key not in memo:
        memo[key] = fold(t, alg)
    a, b = memo[key]
    for numerator in reversed(extractions):
        a, b = (a if numerator else b), 1
    return RatioNumber(a, b)
