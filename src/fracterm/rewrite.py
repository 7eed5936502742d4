"""Term rewriting: fracterm flattening, simplification, and the addition family.

Flattening turns any closed term into a flat fracterm (or leaves it alone
when it is division-free), one audited rewrite step at a time. First
``numeral-eval`` replaces each division-free composite operand of a division
by its numeral value. Then the equations of the fracterm calculus (Bergstra
& Tucker, 2023), one per operator, read each operand as a pair: a flat a/b
as (a, b), a division-free x as (x, 1), with the factor 1 left out:

* ``neg-lift``             - -(a/b) = (-a)/b;
* ``add-lift``/``sub-lift`` - a/b +- c/d = (a*d +- b*c)/(b*d);
* ``mul-lift``             - a/b * c/d = (a*c)/(b*d);
* ``div-collapse``         - (a/b)/(c/d) = (a*d)/(b*c);
* ``div-collapse-bot``     - the same collapse with c replaced by c*d when d
                             evaluates to zero, so that the result stays
                             bottom under the common-meadow reading.

The plain collapse would silently turn x/(c/0) into a number, so the guarded
variant keeps the zero in the denominator. A sum or difference with a flat
left and a division-free right operand writes b*c as c*b. The ``cross``
addition is one ``add-lift`` step. Value preservation is stated for
the common-meadow policy; the zero-totalizing policy is not preserved in
general (a zero divisor can be multiplied away).

Each phase (``numeral-eval`` first, then the other rules) rewrites the
innermost-leftmost match until none is left. It runs as one postorder walk
with its own stack, which never enters a finished or division-free subtree;
a step rebuilds only the path from the match to the root. So a phase takes
time linear in the size of its input and of the nodes the rules build, plus
the depth of each match. Nothing in this module recurses, except the
trace printer's joins, at most three levels deep. Flat forms share
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
    Var,
    _fmt,
    _pieces,
    classify,
    contains_div,
    erase_decorations,
    numeral,
)

STRATEGIES = ("cross", "same-denom", "numeral", "trivial")

# Most nested nodes holding a division that flatten enters. Its time grows
# with the square of the depth: `fracterm flatten --json` of 1000 minus signs
# over 1/2 takes about 1 s and 49 MB (2-core x86-64, Python 3.11).
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

        A step rebuilds only the path from its match to the root, so each
        after text is the before text with one span replaced by the text of
        the rewritten position (see ``_Splicer``). A step whose before is the
        term the step before it ended on reuses that text; any other before
        is printed whole. So a step costs its descent to the rewritten
        position and the few nodes the rule built, and only the copying of
        strings grows with the output.
        """
        splicer = _Splicer()
        out, last, text = [], None, None
        for s in self.steps:
            chained = s.before is last
            before = text if chained else _fmt(s.before, "inline", splicer.known)
            last, text = s.after, splicer.splice(before, s.before, s.after, chained)
            out.append({"rule": s.rule, "before": before, "after": text})
        return out


class _Splicer:
    """Prints the after term of each step of a trace inline, from the text
    of its before term: ``before[:start] + text(new subterm) + before[end:]``.

    ``splice`` finds the rewritten position by descending from both roots
    into the one child that after does not share with before, by identity.
    It stops where the node class or the decoration changes, where the
    parent's parentheses around that child change (``terms._pieces`` states
    them for the printer and for this descent), or where no single child
    differs; at the roots, if need be, so any pair of terms splices
    correctly. The span starts after the pieces to the left of the path,
    left siblings printed, and is as long as the text of the before node
    where the descent stopped.

    known maps the id of a node to its text, for the nodes printed in the
    last two steps; the trace keeps those nodes alive. The new subterm is
    joined from the texts of its children, which are printed, each looking
    up the nodes it reuses, and all are kept; when a change of parentheses
    moved the splice up one level, the joins go one level deeper. So the
    fracterm a rule built is kept with its numerator and denominator, which
    the next rule reuses. fresh and stale hold the ids kept in this step
    and in the one before; the stale ones are forgotten when the step ends.

    sides and starts are the path of the last splice: the child taken at
    each depth (0 the left child or the operand, 1 the right) and where the
    node there starts. A step that chains on its predecessor follows that
    path without measuring anything, as far as it goes the same way.
    """

    __slots__ = ("known", "fresh", "stale", "sides", "starts")

    def __init__(self):
        self.known: dict[int, str] = {}
        self.fresh: list[int] = []
        self.stale: list[int] = []
        self.sides: list = [None]
        self.starts = [0]

    def splice(self, text: str, before: Term, after: Term, chained: bool) -> str:
        """after's inline text, from text, before's."""
        sides, starts = self.sides, self.starts
        if not chained:
            del sides[1:], starts[1:]
        # While on_path > 0 the descent follows sides[:on_path], whose starts are known.
        on_path = len(sides)
        depth, start, levels = 0, 0, 2
        while before is not after:
            cls = type(before)
            if cls is not type(after) or cls is Lit or cls is Var:
                break
            if cls is Neg:
                side, old, new = 0, before.operand, after.operand
            elif cls is Div and before.decoration != after.decoration:
                break
            elif before.left is after.left:
                side, old, new = 1, before.right, after.right
            elif before.right is after.right:
                side, old, new = 0, before.left, after.left
            else:
                break
            # Only a child that changes class, or a variable, can change its parentheses.
            pieces = None
            if type(old) is not type(new) or type(old) is Var:
                pieces = _pieces(before, "inline")
                if len(pieces) != len(_pieces(after, "inline")):
                    levels = 3
                    break
            depth += 1
            if depth < on_path and sides[depth] == side:
                before, after = old, new
                continue
            if depth <= on_path:
                start = starts[depth - 1]
                del sides[depth:], starts[depth:]
                on_path = 0
            siblings = side
            for piece in reversed(pieces or _pieces(before, "inline")):
                if type(piece) is str:
                    start += len(piece)
                elif siblings:
                    start += len(self.text(piece))
                    siblings = 0
                else:
                    break
            sides.append(side)
            starts.append(start)
            before, after = old, new
        if depth < on_path:
            start = starts[depth]
        del sides[depth + 1 :], starts[depth + 1 :]
        end = start + len(self.text(before, 2))
        spliced = text[:start] + self.text(after, levels) + text[end:]
        for key in self.stale:
            del self.known[key]
        self.stale, self.fresh = self.fresh, []
        return spliced

    def text(self, node: Term, levels: int = 1) -> str:
        """node's inline text, kept. A composite node not kept yet is joined
        from the texts of its children, kept too, down to levels levels; on
        the last level it is printed. The recursion is levels deep."""
        cls = type(node)
        if cls is Lit:
            return node.digits
        if cls is Var:
            return node.name
        key = id(node)
        text = self.known.get(key)
        if text is None:
            if levels > 1:
                levels -= 1
                text = "".join([
                    p if type(p) is str else p.digits if type(p) is Lit else self.text(p, levels)
                    for p in reversed(_pieces(node, "inline"))
                ])
            else:
                text = _fmt(node, "inline", self.known)
            self.known[key] = text
            self.fresh.append(key)
        return text


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


def _pair(t: Term):
    """A flat fracterm a/b as (a, b), a division-free x as (x, None), else None."""
    if not t.has_div:
        return t, None
    if type(t) is Div and not (t.left.has_div or t.right.has_div):
        return t.left, t.right
    return None


def _times(x, y):
    # None is the factor 1, left out.
    return x if y is None else y if x is None else Mul(x, y)


def _node_rule(t: Term):
    # The fracterm-calculus equations over the operands' pairs (a, b), (c, d).
    if not t.has_div:
        return None
    if type(t) is Neg:
        p = _pair(t.operand)
        return None if p is None else ("neg-lift", Div(Neg(p[0]), p[1]))
    l, r = _pair(t.left), _pair(t.right)
    if l is None or r is None or l[1] is None and r[1] is None:
        return None
    (a, b), (c, d) = l, r
    cls = type(t)
    if cls is Mul:
        return ("mul-lift", Div(_times(a, c), _times(b, d)))
    if cls is Div:
        if d is not None and rn_eval(d).a == 0:
            return ("div-collapse-bot", Div(_times(a, d), _times(b, Mul(c, d))))
        return ("div-collapse", Div(_times(a, d), _times(b, c)))
    # A flat left and a division-free right multiply c*b, not b*c.
    bc = Mul(c, b) if d is None else _times(b, c)
    return ("add-lift" if cls is Add else "sub-lift", Div(cls(_times(a, d), bc), _times(b, d)))


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
    if strategy == "same-denom" and t1.right == t2.right:
        return Div(Add(t1.left, t2.left), t1.right)
    return _node_rule(Add(t1, t2))[1]


def add_family_all(t1: Term, t2: Term) -> dict[str, Term]:
    """Every applicable strategy's result, keyed by strategy name."""
    results: dict[str, Term] = {}
    for strategy in STRATEGIES:
        try:
            results[strategy] = add_family(t1, t2, strategy)
        except StrategyInapplicable:
            pass
    return results
