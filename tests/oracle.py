"""Independent reference evaluator used as the test oracle.

Deliberately separate from the package's evaluator: plain structural
recursion into exact Fractions, with three flavours of division by zero
(raise, an absorbing None standing for bottom, or zero in its place).
Nothing here imports the semantics module.
"""

from fractions import Fraction
from typing import Optional

from fracterm.terms import Add, Div, Lit, Mul, Neg, Sub, Term, Var


class OracleOpenTerm(Exception):
    pass


def eval_exact(t: Term) -> Fraction:
    """Exact value of a closed term; raises ZeroDivisionError on any zero divisor."""
    if isinstance(t, Lit):
        return Fraction(t.value)
    if isinstance(t, Var):
        raise OracleOpenTerm(t.name)
    if isinstance(t, Neg):
        return -eval_exact(t.operand)
    if isinstance(t, Add):
        return eval_exact(t.left) + eval_exact(t.right)
    if isinstance(t, Sub):
        return eval_exact(t.left) - eval_exact(t.right)
    if isinstance(t, Mul):
        return eval_exact(t.left) * eval_exact(t.right)
    if isinstance(t, Div):
        den = eval_exact(t.right)
        if den == 0:
            raise ZeroDivisionError(str(t))
        return eval_exact(t.left) / den
    raise TypeError(repr(t))


def eval_exact_bot(t: Term) -> Optional[Fraction]:
    """Exact value with absorbing bottom: any zero divisor yields None."""
    if isinstance(t, Lit):
        return Fraction(t.value)
    if isinstance(t, Var):
        raise OracleOpenTerm(t.name)
    if isinstance(t, Neg):
        v = eval_exact_bot(t.operand)
        return None if v is None else -v
    if isinstance(t, (Add, Sub, Mul)):
        a = eval_exact_bot(t.left)
        b = eval_exact_bot(t.right)
        if a is None or b is None:
            return None
        if isinstance(t, Add):
            return a + b
        if isinstance(t, Sub):
            return a - b
        return a * b
    if isinstance(t, Div):
        a = eval_exact_bot(t.left)
        b = eval_exact_bot(t.right)
        if a is None or b is None or b == 0:
            return None
        return a / b
    raise TypeError(repr(t))


def eval_exact_zero(t: Term) -> Fraction:
    """Exact value where each zero divisor makes its own division zero."""
    if isinstance(t, Lit):
        return Fraction(t.value)
    if isinstance(t, Var):
        raise OracleOpenTerm(t.name)
    if isinstance(t, Neg):
        return -eval_exact_zero(t.operand)
    a = eval_exact_zero(t.left)
    b = eval_exact_zero(t.right)
    if isinstance(t, Add):
        return a + b
    if isinstance(t, Sub):
        return a - b
    if isinstance(t, Mul):
        return a * b
    if isinstance(t, Div):
        return a / b if b != 0 else Fraction(0)
    raise TypeError(repr(t))
