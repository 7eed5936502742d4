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

Each phase (``numeral-eval`` first, then the other rules) rewrites the
innermost-leftmost match until none is left. It runs as one postorder walk
with its own stack, which never enters a finished or division-free subtree;
a step rebuilds only the path from the match to the root. So a phase takes
time linear in the size of its input and of the nodes the rules build, plus
the depth of each match; nothing in this module recurses. Flat forms share
their denominator products. Every number this module writes or tests
(``simplify``, ``numeral-eval``, the zero tests of ``div-collapse``, the
``numeral`` addition) is a pair from ``ratio.rn_eval`` or ``rn_add``; the
evaluation computes each distinct composite node once.
"""

from __future__ import annotations

import math

from .errors import CapacityError, NotSimple, OpenTerm, StrategyInapplicable
from .ratio import rn_add, rn_eval, rn_label_eq
from .terms import (
    Add,
    Div,
    Lit,
    Mul,
    Neg,
    Record,
    Sub,
    Term,
    _fmt,
    classify,
    contains_div,
    erase_decorations,
    numeral,
)

STRATEGIES = ("cross", "same-denom", "numeral", "trivial")

# Most nested nodes holding a division that flatten enters. Its time grows
# with the square of the depth: `fracterm flatten --json` of 1000 minus signs
# over 1/2 takes about 2 s and 75 MB (2-core x86-64, Python 3.11).
FLATTEN_DEPTH = 1024


class RewriteStep(Record):
    __slots__ = ("rule", "before", "after")


class RewriteTrace(Record):
    __slots__ = ("steps",)

    def replay(self, start: Term) -> Term:
        cur = start
        for step in self.steps:
            if step.before != cur:
                raise ValueError(f"trace does not compose at rule {step.rule!r}")
            cur = step.after
        return cur

    def to_json(self):
        """One {"rule", "before", "after"} dict per step, terms printed inline.

        A step rebuilds only the path from its match to the root, so
        consecutive terms share every other subterm. The steps print through
        one memo (see ``terms._fmt``): a composite node met in a step and
        again in that step or the next is printed once more and kept, and
        from then on its text is spliced in whole. So the Python-level work
        is linear in the distinct nodes of the trace, and only the joining
        of strings grows with the output. The ids of the nodes met are kept
        for two steps only. A step that starts from the term the one before
        it ended on reuses that text.
        """
        older, seen, memo = set(), set(), {}
        out, last, text = [], None, None
        for s in self.steps:
            shared = (older, seen, memo)
            before = text if s.before is last else _fmt(s.before, "inline", shared)
            last, text = s.after, _fmt(s.after, "inline", shared)
            out.append({"rule": s.rule, "before": before, "after": text})
            older, seen = seen, set()
        return out


def _flatdiv(t: Term) -> bool:
    return isinstance(t, Div) and not (t.left.has_div or t.right.has_div)


def _numeral_rule(t: Term):
    # Division operands that are plain closed arithmetic become numerals:
    # the pair of a division-free term is (value, 1). This runs as a first
    # phase only, so products built later by the collapse rules stay symbolic.
    if isinstance(t, Div):
        if not t.left.has_div and not isinstance(t.left, Lit):
            return ("numeral-eval", Div(numeral(rn_eval(t.left).a), t.right))
        if not t.right.has_div and not isinstance(t.right, Lit):
            return ("numeral-eval", Div(t.left, numeral(rn_eval(t.right).a)))
    return None


def _node_rule(t: Term):
    if isinstance(t, Neg):
        if _flatdiv(t.operand):
            inner = t.operand
            return ("neg-lift", Div(Neg(inner.left), inner.right))
        return None

    if isinstance(t, Div):
        l, r = t.left, t.right
        if not l.has_div and _flatdiv(r):
            if rn_eval(r.right).a != 0:
                return ("div-collapse", Div(Mul(l, r.right), r.left))
            return ("div-collapse-bot", Div(Mul(l, r.right), Mul(r.left, r.right)))
        if _flatdiv(l) and not r.has_div:
            return ("div-collapse", Div(l.left, Mul(l.right, r)))
        if _flatdiv(l) and _flatdiv(r):
            if rn_eval(r.right).a != 0:
                return ("div-collapse", Div(Mul(l.left, r.right), Mul(l.right, r.left)))
            return (
                "div-collapse-bot",
                Div(Mul(l.left, r.right), Mul(l.right, Mul(r.left, r.right))),
            )
        return None

    if isinstance(t, (Add, Sub, Mul)):
        l, r = t.left, t.right
        rule = {Add: "add-lift", Sub: "sub-lift", Mul: "mul-lift"}[type(t)]
        if isinstance(t, Mul):
            if _flatdiv(l) and _flatdiv(r):
                return (rule, Div(Mul(l.left, r.left), Mul(l.right, r.right)))
            if _flatdiv(l) and not r.has_div:
                return (rule, Div(Mul(l.left, r), l.right))
            if not l.has_div and _flatdiv(r):
                return (rule, Div(Mul(l, r.left), r.right))
            return None
        cls = type(t)
        if _flatdiv(l) and _flatdiv(r):
            return (
                rule,
                Div(cls(Mul(l.left, r.right), Mul(l.right, r.left)), Mul(l.right, r.right)),
            )
        if _flatdiv(l) and not r.has_div:
            return (rule, Div(cls(l.left, Mul(r, l.right)), l.right))
        if not l.has_div and _flatdiv(r):
            return (rule, Div(cls(Mul(l, r.right), r.left), r.right))
        return None

    return None


def _rewrite_all(t: Term, rule, steps: list[RewriteStep]) -> Term:
    """Apply rule innermost-leftmost until no node matches, recording each step.

    One postorder walk; a frame is [node, children entered]. Whether rule
    matches a node depends only on the node's subtree, so a finished
    subtree never matches again, and no rule matches a division-free one.
    The walk steps over both: it keeps the ids of the finished nodes, each
    of which belongs to a term that steps or the stack keeps alive. A match
    replaces the top frame's node, rebuilds the spine above it, and the
    walk goes on into the new node, which holds a division. A stack of
    FLATTEN_DEPTH frames that must grow raises CapacityError.
    """
    done: set[int] = set()
    frames = [[t, 0]]
    while frames:
        frame = frames[-1]
        node, entered = frame
        kids = (node.operand,) if type(node) is Neg else (node.left, node.right)
        if entered < len(kids):
            frame[1] = entered + 1
            kid = kids[entered]
            if kid.has_div and id(kid) not in done:
                if len(frames) == FLATTEN_DEPTH:
                    raise CapacityError(f"a division nested deeper than the flatten budget of {FLATTEN_DEPTH}")
                frames.append([kid, 0])
            continue
        found = rule(node)
        if found is None:
            done.add(id(node))
            frames.pop()
            continue
        name, new = found
        frame[0], frame[1] = new, 0
        for k in range(len(frames) - 2, -1, -1):
            parent, entered = frames[k]
            child = frames[k + 1][0]
            if type(parent) is Neg:
                frames[k][0] = Neg(child)
            elif entered == 1:
                frames[k][0] = type(parent)(child, parent.right)
            else:
                frames[k][0] = type(parent)(parent.left, child)
        steps.append(RewriteStep(name, t, frames[0][0]))
        t = frames[0][0]
    return t


def flatten(t: Term) -> tuple[Term, RewriteTrace]:
    """Rewrite a closed term into a flat fracterm, recording every step.

    Division-free inputs are returned unchanged. The result evaluates to the
    same fracvalue as the input under the common-meadow policy.
    """
    if t.has_var:
        raise OpenTerm(f"cannot flatten open term {t}")
    steps: list[RewriteStep] = []
    current = erase_decorations(t)
    if current is not t:
        steps.append(RewriteStep("erase-decorations", t, current))
    if contains_div(current):
        for phase in (_numeral_rule, _node_rule):
            current = _rewrite_all(current, phase, steps)
    return current, RewriteTrace(tuple(steps))


# ---------------------------------------------------------------------------
# Simplification


def simplify(t: Term) -> Term:
    """The simplified simple fracterm label-equal to a flat closed fracterm.

    The sign moves to the numerator and the components are reduced by their
    gcd; integer-valued inputs come out as n/1. Zero-denominator inputs have
    no simplified form; they reduce to the +-1/0 (or 0/0) representative of
    their class. The pair is ``rn_eval``'s: the nodes that numerator and
    denominator share are computed once, and the term keeps the pair.
    """
    flags = classify(t)
    if not (flags.is_fracterm and flags.flat and flags.closed):
        raise NotSimple(f"cannot simplify {t}")
    pair = rn_eval(t)
    n, d = pair.a, pair.b
    g = math.gcd(abs(n), abs(d))
    if g:
        n //= g
        d //= g
    if d < 0:
        n, d = -n, -d
    return Div(numeral(n), numeral(d))


def demote(t: Term) -> Term:
    """Like simplify, but integer-valued fracterms come out as bare numerals."""
    s = simplify(t)
    if s.right == Lit("1"):
        return s.left
    return s


def simple_fracterm_eq(t1: Term, t2: Term) -> bool:
    """Equivalence of simple fracterms a/b and c/d: label equality of the
    ratio numbers (a, b) and (c, d).
    """
    if not classify(t1).simple or not classify(t2).simple:
        raise NotSimple("both operands must be simple fracterms")
    return rn_label_eq(rn_eval(t1), rn_eval(t2))


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
        s = rn_add(rn_eval(t1), rn_eval(t2))
        return Div(numeral(s.a), numeral(s.b))
    if not (c1.flat and c2.flat):
        raise StrategyInapplicable(f"{strategy} addition needs flat fracterms")
    # Flat fracterms hold no division below the root, so no decoration.
    a, b = t1.left, t1.right
    c, d = t2.left, t2.right
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
