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
with its own stack, which never enters a finished or division-free subtree
and builds each node once; a step is a patch on the path to its match. So
a phase takes time linear in the size of its input and of the nodes the
rules build; the terms of each step are built only when read. Nothing in
this module recurses, except the trace printer's joins, one level deep.
Flat forms share their denominator products. Every number this module
writes or tests (``simplify``, ``numeral-eval``, the zero tests of
``div-collapse``, the ``numeral`` addition) is a pair from ``rn_eval`` or
``rn_add``; the evaluation computes each distinct composite node once.
"""

from __future__ import annotations

from .errors import CapacityError, NotSimple, OpenTerm, StrategyInapplicable
from .ratio import rn_add, rn_eval, rn_label_eq, sign
from .records import expect, named, reduced
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
    _rebuilt,
    check_term,
    classify,
    contains_div,
    erase_decorations,
    numeral,
)

STRATEGIES = ("cross", "same-denom", "numeral", "trivial")

# Most nested nodes holding a division that flatten enters. The trace text
# grows with the square of the depth: `fracterm flatten --json` of 1000 minus
# signs over 1/2 writes 2.0 M characters, in 0.1 s and 23 MB as a process
# (2-core x86-64, Python 3.11).
FLATTEN_DEPTH = 1024


class RewriteStep(Record):
    __slots__ = ("rule", "before", "after")

    def __post_init__(self):
        expect(self.rule, str, "str")
        check_term(self.before)
        check_term(self.after)


class RewriteTrace(Record):
    """The steps of a rewrite, each a RewriteStep(rule, before, after).

    A trace is its patches, one per step: (rule, before, kept, kids, sides,
    old, new), old the node the rule matched and new the node it built. Its
    path keeps kept levels of the path before and goes on by sides (0 the
    left child or the operand, 1 the right; the root is child 0) from kids,
    the children now of the last level kept, or the root. before is None or
    the step's before. ``steps`` is built from the patches when first read.
    ``RewriteTrace(steps)``, as ``copy``, ``deepcopy`` and ``pickle`` call it,
    records root patches: (rule, before, 0, (before,), (0,), before, after).
    """

    __slots__ = ("steps", "_patches", "_end")

    def __post_init__(self):
        expect(self.steps, tuple, "tuple of RewriteSteps")
        for s in self.steps:
            expect(s, RewriteStep, "RewriteStep")
        patches = tuple([(s.rule, s.before, 0, (s.before,), (0,), s.before, s.after) for s in self.steps])
        RewriteTrace._patches.__set__(self, patches)

    def __getattr__(self, name):
        if name != "steps":
            raise AttributeError(name)
        steps, path = [], []
        for rule, before, kept, _, sides, _, new in self._patches:
            cur = before if before is not None else steps[-1].after
            del path[kept:]
            path += sides
            spine = [cur]
            for side in path[1:]:
                spine.append(_kids(spine[-1])[side])
            for parent, side in zip(spine[-2::-1], path[:0:-1]):
                new = _rebuilt(parent, [new if i == side else kid for i, kid in enumerate(_kids(parent))])
            steps.append(RewriteStep(rule, cur, new))
        if steps:  # the last step ends on the result itself
            steps[-1] = RewriteStep(steps[-1].rule, steps[-1].before, self._end)
        RewriteTrace.steps.__set__(self, tuple(steps))
        return self.steps

    def replay(self, start: Term) -> Term:
        cur = start
        for step in self.steps:
            if step.before != cur:
                raise ValueError(f"trace does not compose at rule {step.rule!r}")
            cur = step.after
        return cur

    def to_json(self):
        """One {"rule", "before", "after"} dict per step, terms printed inline.

        A patch's before, if it has one, is printed whole, and each after as
        the before text with the span of the rewritten position replaced
        (see ``_Splicer``).
        """
        out, splicer = [], _Splicer()
        for patch in self._patches:
            if patch[1] is not None:
                text = splicer.text(patch[1])
            after = splicer.splice(text, patch)
            out.append({"rule": patch[0], "before": text, "after": after})
            text = after
        return out


def _kids(node: Term) -> tuple:
    return (node.operand,) if type(node) is Neg else (node.left, node.right)


class _Splicer:
    """Prints the after term of each step of a trace inline, from the text
    of its before term: ``before[:start] + text(new node) + before[end:]``.

    nodes, sides and starts are the path of the last splice: at each depth
    a node of the class and decoration there, the child taken, and where
    its text starts. ``splice`` keeps the levels its patch keeps and adds
    up the pieces left of the path on the others (left siblings printed)
    in a stand-in of the last level kept over kids, then in real nodes. The
    span is the old node's text, and the parentheses its parent changes.

    known maps the id of a node to its text, for the nodes printed in the
    last two steps; the trace keeps those nodes alive. The new node is
    joined from the texts of its children, which are printed, each looking
    up the nodes it reuses, and all are kept. So the fracterm a rule built
    is kept with its numerator and denominator, which the next rule reuses.
    fresh and stale hold the ids kept in this step and in the one before;
    the stale ones are forgotten when the step ends.
    """

    __slots__ = ("known", "fresh", "stale", "nodes", "sides", "starts", "wrapped")

    def __init__(self):
        self.known: dict[int, str] = {}
        self.fresh: list[int] = []
        self.stale: list[int] = []
        self.nodes: list[Term] = []
        self.sides: list[int] = []
        self.starts: list[int] = []
        self.wrapped: dict[tuple, bool] = {}

    def splice(self, text: str, patch: tuple) -> str:
        """The after text of patch's step, from text, its before."""
        _, _, kept, kids, sides, old, new = patch
        nodes, path, starts = self.nodes, self.sides, self.starts
        del nodes[kept:], path[kept:], starts[kept:]
        if sides:
            parent = _rebuilt(nodes[-1], kids) if kept else None  # None: the root's holder
            for side in sides:
                starts.append(0 if parent is None else starts[-1] + self.offset(parent, side))
                parent = (kids if parent is None else _kids(parent))[side]
                nodes.append(parent)
            path += sides
        start = starts[-1]
        end = start + len(self.text(old, True))
        inserted = self.text(new, True)
        # Only a node that changes class can change its parentheses.
        if len(nodes) > 1 and type(old) is not type(new):
            was, now = self.wraps(nodes[-2], path[-1], old), self.wraps(nodes[-2], path[-1], new)
            if was != now:
                start, end = start - was, end + was
                inserted = f"({inserted})" if now else inserted
                starts[-1] = start + now
        nodes[-1] = new
        for key in self.stale:
            del self.known[key]
        self.stale, self.fresh = self.fresh, []
        return text[:start] + inserted + text[end:]

    def wraps(self, parent: Term, side: int, child: Term) -> bool:
        """Whether a node of parent's class and decoration parenthesizes child on side, as a
        stand-in's pieces say. Only classes decide, as only root patches hold variables: the answer is kept."""
        key = (type(parent), side, type(child))
        wrapped = self.wrapped.get(key)
        if wrapped is None:
            pieces = _pieces(Neg(child) if type(parent) is Neg else _rebuilt(parent, (child, child)), "inline")
            # Printed, they start with "(" before a parenthesized left child, and end with ")" after any other.
            wrapped = self.wrapped[key] = type(pieces[0] if side or type(parent) is Neg else pieces[-1]) is str
        return wrapped

    def offset(self, node: Term, side: int) -> int:
        """The length of node's inline text before its child on side."""
        n = 0
        for piece in reversed(_pieces(node, "inline")):
            if type(piece) is str:
                n += len(piece)
            elif side:
                n += len(self.text(piece))
                side = 0
            else:
                return n

    def text(self, node: Term, join: bool = False) -> str:
        """node's inline text, kept if composite. A composite node not kept yet is
        printed, or if join, joined from the texts of its children, kept too."""
        if type(node) is Lit or type(node) is Var:
            return node.digits if type(node) is Lit else node.name
        key = id(node)
        text = self.known.get(key)
        if text is None:
            text = "".join([
                p if type(p) is str else p.digits if type(p) is Lit else self.text(p)
                for p in reversed(_pieces(node, "inline"))
            ]) if join else _fmt(node, "inline", self.known)
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


def _rewrite_all(t: Term, rule, patches: list) -> Term:
    """Apply rule innermost-leftmost until no node matches, adding a patch per step.

    One postorder walk; a frame is [node, children entered, its children
    now, its side]. A frame whose children are done builds its node over
    them, if one changed, and tries rule on it. Whether rule matches a node
    depends only on its subtree, so the walk steps over finished and
    division-free subtrees, keeping the ids of finished nodes, which the
    result or a patch keeps alive. A match replaces the top frame's node,
    and its patch keeps the levels of the frames no pop reached since the
    last step. A stack of FLATTEN_DEPTH frames that must grow raises
    CapacityError.
    """
    done: set[int] = set()
    frames = [[t, 0, _kids(t), 0]]
    kept = 0
    while True:
        frame = frames[-1]
        node, entered, kids, side = frame
        if entered < len(kids):
            frame[1] = entered + 1
            kid = kids[entered]
            if kid.has_div and id(kid) not in done:
                if len(frames) == FLATTEN_DEPTH:
                    raise CapacityError(f"a division nested deeper than the flatten budget of {FLATTEN_DEPTH}")
                frames.append([kid, 0, _kids(kid), entered])
            continue
        if type(kids) is list:  # a tuple until a child changes
            node = _rebuilt(node, kids)
        found = rule(node)
        if found is None:
            done.add(id(node))
            frames.pop()
            if not frames:
                return node
            kids = frames[-1][2]
            if kids[side] is not node:
                kids = frames[-1][2] = list(kids)
                kids[side] = node
            kept = min(kept, len(frames))
            continue
        above = (tuple(frames[kept - 1][2]) if kept else (t,)) if kept < len(frames) else None
        sides = tuple([f[3] for f in frames[kept:]])
        patches.append((found[0], None if patches else t, kept, above, sides, node, found[1]))
        frame[0], frame[1], frame[2] = found[1], 0, _kids(found[1])
        kept = len(frames)


def flatten(t: Term) -> tuple[Term, RewriteTrace]:
    """Rewrite a closed term into a flat fracterm, recording every step.

    Division-free inputs are returned unchanged. The result evaluates to the
    same fracvalue as the input under the common-meadow policy.
    """
    check_term(t)
    if t.has_var:
        raise OpenTerm(f"cannot flatten open term {named(t)}")
    patches: list[tuple] = []
    current = erase_decorations(t)
    if current is not t:
        patches.append(("erase-decorations", t, 0, (t,), (0,), t, current))
    if contains_div(current):
        for phase in (_numeral_rule, _node_rule):
            current = _rewrite_all(current, phase, patches)
    trace = object.__new__(RewriteTrace)
    RewriteTrace._patches.__set__(trace, tuple(patches))
    RewriteTrace._end.__set__(trace, current)
    return current, trace


# ---------------------------------------------------------------------------
# Simplification


def simplify(t: Term) -> Term:
    """The simplified simple fracterm label-equal to a flat closed fracterm.

    The pair is ``rn_eval``'s, in lowest terms by ``records.reduced``: the
    sign on the numerator, an integer value as n/1. Zero-denominator inputs
    have no simplified form; they reduce to the +-1/0 (or 0/0)
    representative of their class. The nodes that numerator and denominator
    share are computed once, and the term keeps the pair.
    """
    flags = classify(t)
    if not (flags.is_fracterm and flags.flat and flags.closed):
        raise NotSimple(f"cannot simplify {named(t)}")
    pair = rn_eval(t)
    n, d = reduced((pair.a, pair.b)) or (sign(pair.a), 0)
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
        raise StrategyInapplicable(f"unknown strategy {named(strategy)}; expected one of {STRATEGIES}")
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
