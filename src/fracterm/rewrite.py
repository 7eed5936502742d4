"""Term rewriting: fracterm flattening, simplification, and the addition family.

Flattening turns any closed term into a flat fracterm (or leaves it alone
when it is division-free), one audited rewrite step at a time. The rules:

* ``numeral-eval``     - a division-free composite operand of a division is
                         replaced by its numeral value;
* ``neg-lift``         - -(a/b) becomes (-a)/b;
* ``add-lift``/``sub-lift``/``mul-lift`` - sums, differences and products
                         are lifted over a product of denominators;
* ``div-collapse``     - (a/b)/(c/d) becomes (a*d)/(b*c);
* ``div-collapse-bot`` - the same collapse when d evaluates to zero, with
                         the denominator multiplied by d so that the result
                         stays bottom under the common-meadow reading.

The plain collapse would silently turn x/(c/0) into a number, so the guarded
variant keeps the zero in the denominator. Value preservation is stated for
the common-meadow policy; the zero-totalizing policy is not preserved in
general (a zero divisor can be multiplied away).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import NotSimple, OpenTerm, StrategyInapplicable
from .terms import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Sub,
    Term,
    classify,
    contains_div,
    contains_var,
    denom,
    erase_decorations,
    fold,
    format_term,
    num,
)

STRATEGIES = ("cross", "same-denom", "numeral", "trivial")


@dataclass(frozen=True)
class RewriteStep:
    rule: str
    before: Term
    after: Term


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple[RewriteStep, ...]

    def replay(self, start: Term) -> Term:
        cur = start
        for step in self.steps:
            if step.before != cur:
                raise ValueError(f"trace does not compose at rule {step.rule!r}")
            cur = step.after
        return cur

    def to_json(self):
        return [
            {"rule": s.rule, "before": format_term(s.before), "after": format_term(s.after)}
            for s in self.steps
        ]


_INT_OPS = {Neg: operator.neg, Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _int_node(node: Term, *args: int) -> int:
    if isinstance(node, Lit):
        return node.value
    op = _INT_OPS.get(type(node))
    if op is None:
        raise ValueError(f"not division-free: {node!r}")
    return op(*args)


def _int_value(t: Term) -> int:
    """Exact value of a division-free closed term."""
    return fold(t, _int_node)


def _pure(t: Term) -> bool:
    return not contains_div(t)


def _flatdiv(t: Term) -> bool:
    return isinstance(t, Div) and _pure(t.left) and _pure(t.right)


def _rebuild(t: Term, left: Term, right: Term) -> Term:
    return type(t)(left, right)


def _numeral_rule(t: Term):
    # Division operands that are plain closed arithmetic become numerals.
    # This runs as a first phase only, so products built later by the
    # collapse rules stay symbolic.
    if isinstance(t, Div):
        if _pure(t.left) and not isinstance(t.left, Lit):
            return ("numeral-eval", Div(Lit(str(_int_value(t.left))), t.right))
        if _pure(t.right) and not isinstance(t.right, Lit):
            return ("numeral-eval", Div(t.left, Lit(str(_int_value(t.right)))))
    return None


def _node_rule(t: Term):
    if isinstance(t, Neg):
        if _flatdiv(t.operand):
            inner = t.operand
            return ("neg-lift", Div(Neg(inner.left), inner.right))
        return None

    if isinstance(t, Div):
        l, r = t.left, t.right
        if _pure(l) and _pure(r):
            return None  # already flat
        if _pure(l) and _flatdiv(r):
            if _int_value(r.right) != 0:
                return ("div-collapse", Div(Mul(l, r.right), r.left))
            return ("div-collapse-bot", Div(Mul(l, r.right), Mul(r.left, r.right)))
        if _flatdiv(l) and _pure(r):
            return ("div-collapse", Div(l.left, Mul(l.right, r)))
        if _flatdiv(l) and _flatdiv(r):
            if _int_value(r.right) != 0:
                return ("div-collapse", Div(Mul(l.left, r.right), Mul(l.right, r.left)))
            return (
                "div-collapse-bot",
                Div(Mul(l.left, r.right), Mul(l.right, Mul(r.left, r.right))),
            )
        return None

    if isinstance(t, (Add, Sub, Mul)):
        l, r = t.left, t.right
        if _pure(l) and _pure(r):
            return None
        rule = {Add: "add-lift", Sub: "sub-lift", Mul: "mul-lift"}[type(t)]
        if isinstance(t, Mul):
            if _flatdiv(l) and _flatdiv(r):
                return (rule, Div(Mul(l.left, r.left), Mul(l.right, r.right)))
            if _flatdiv(l) and _pure(r):
                return (rule, Div(Mul(l.left, r), l.right))
            if _pure(l) and _flatdiv(r):
                return (rule, Div(Mul(l, r.left), r.right))
            return None
        cls = type(t)
        if _flatdiv(l) and _flatdiv(r):
            return (
                rule,
                Div(cls(Mul(l.left, r.right), Mul(l.right, r.left)), Mul(l.right, r.right)),
            )
        if _flatdiv(l) and _pure(r):
            return (rule, Div(cls(l.left, Mul(r, l.right)), l.right))
        if _pure(l) and _flatdiv(r):
            return (rule, Div(cls(Mul(l, r.right), r.left), r.right))
        return None

    return None


def _step(t: Term, rule):
    """First rewrite found by rule, innermost-leftmost; None when exhausted."""
    if isinstance(t, Neg):
        inner = _step(t.operand, rule)
        if inner is not None:
            return (inner[0], Neg(inner[1]))
    elif isinstance(t, (Add, Sub, Mul, Div)):
        left = _step(t.left, rule)
        if left is not None:
            return (left[0], _rebuild(t, left[1], t.right))
        right = _step(t.right, rule)
        if right is not None:
            return (right[0], _rebuild(t, t.left, right[1]))
    return rule(t)


def flatten(t: Term) -> tuple[Term, RewriteTrace]:
    """Rewrite a closed term into a flat fracterm, recording every step.

    Division-free inputs are returned unchanged. The result evaluates to the
    same fracvalue as the input under the common-meadow policy.
    """
    if contains_var(t):
        raise OpenTerm(f"cannot flatten open term {t}")
    steps: list[RewriteStep] = []
    current = t
    erased = erase_decorations(t)
    if erased != current:
        steps.append(RewriteStep("erase-decorations", current, erased))
        current = erased
    if contains_div(current):
        for phase in (_numeral_rule, _node_rule):
            for _ in range(100_000):
                found = _step(current, phase)
                if found is None:
                    break
                rule, after = found
                steps.append(RewriteStep(rule, current, after))
                current = after
            else:
                raise RuntimeError(f"flattening did not terminate on {t}")
    return current, RewriteTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Simplification


def simplify(t: Term) -> Term:
    """The simplified simple fracterm label-equal to a flat closed fracterm.

    The sign moves to the numerator and the components are reduced by their
    gcd; integer-valued inputs come out as n/1. Zero-denominator inputs have
    no simplified form; they reduce to the +-1/0 (or 0/0) representative of
    their class.
    """
    flags = classify(t)
    if not (flags.is_fracterm and flags.flat and flags.closed):
        raise NotSimple(f"cannot simplify {t}")
    n = _int_value(erase_decorations(t.left))
    d = _int_value(erase_decorations(t.right))
    g = math.gcd(abs(n), abs(d))
    if g:
        n //= g
        d //= g
    if d < 0:
        n, d = -n, -d
    return Div(Lit(str(n)), Lit(str(d)))


def demote(t: Term) -> Term:
    """Like simplify, but integer-valued fracterms come out as bare numerals."""
    s = simplify(t)
    if s.right == Lit("1"):
        return s.left
    return s


def simple_fracterm_eq(t1: Term, t2: Term) -> bool:
    """Equivalence of simple fracterms a/b and c/d:
    (b = 0 and d = 0) or (b != 0 and d != 0 and a*d = b*c).
    """
    if not classify(t1).simple or not classify(t2).simple:
        raise NotSimple("both operands must be simple fracterms")
    a, b = t1.left.value, t1.right.value
    c, d = t2.left.value, t2.right.value
    return (b == 0 and d == 0) or (b != 0 and d != 0 and a * d == b * c)


# ---------------------------------------------------------------------------
# The addition family


def add_family(t1: Term, t2: Term, strategy: str) -> Term:
    """One member of the nondeterministic addition family.

    cross       : flat fracterms, product-of-denominators result;
    same-denom  : flat fracterms, (a+c)/b on syntactically equal
                  denominators, cross-multiplication otherwise;
    numeral     : simple fracterms, numeral arithmetic on the components;
    trivial     : non-fracterm operands, plain syntactic sum.
    """
    if strategy not in STRATEGIES:
        raise StrategyInapplicable(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    c1, c2 = classify(t1), classify(t2)
    if strategy == "trivial":
        if c1.is_fracterm or c2.is_fracterm:
            raise StrategyInapplicable("trivial addition applies to non-fracterm operands")
        return Add(t1, t2)
    if strategy == "numeral":
        if not (c1.simple and c2.simple):
            raise StrategyInapplicable("numeral addition needs simple fracterms")
        a, b = t1.left.value, t1.right.value
        c, d = t2.left.value, t2.right.value
        return Div(Lit(str(a * d + b * c)), Lit(str(b * d)))
    if not (c1.flat and c2.flat):
        raise StrategyInapplicable(f"{strategy} addition needs flat fracterms")
    a, b = num(t1), denom(t1)
    c, d = num(t2), denom(t2)
    if strategy == "same-denom" and b == d:
        return Div(Add(a, c), b)
    return Div(Add(Mul(a, d), Mul(b, c)), Mul(b, d))


def add_family_all(t1: Term, t2: Term) -> dict[str, Term]:
    """Every applicable strategy's result, keyed by strategy name."""
    results: dict[str, Term] = {}
    for strategy in STRATEGIES:
        try:
            results[strategy] = add_family(t1, t2, strategy)
        except StrategyInapplicable:
            pass
    return results
