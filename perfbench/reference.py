"""Independent references the benchmark checks the workbench against.

Nothing here calls the package's evaluators, printer or rewriter. Term
walks use explicit stacks, so the checks work on inputs far deeper than
the interpreter's recursion limit. Random terms are also checked with the
suite's own recursive oracle (``tests/oracle.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from fracterm.terms import Add, Div, Lit, Mul, Neg, Sub, Var

BOT = "bot"


def children(t):
    if isinstance(t, Neg):
        return (t.operand,)
    if isinstance(t, (Add, Sub, Mul, Div)):
        return (t.left, t.right)
    return ()


def nodes(t):
    """Every node of t, in no particular order, without recursion."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Lit: 4, Var: 4}
SYMBOLS = {Add: "+", Sub: "-", Mul: "*"}


def print_term(t, notation: str) -> str:
    """t as the workbench prints it in notation (inline, colon or frac).

    Parentheses are minimal: an operand is wrapped when it binds looser
    than its operator, a right operand also when it binds as loosely, and
    the operand of a negation when it is a literal or binds looser than
    negation. ``frac(a,b)`` needs none inside. Built without recursion.
    """
    out = []
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Lit):
            out.append(node.digits)
            continue
        if isinstance(node, Var):
            out.append(node.name)
            continue
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(children(node)))
            continue
        if isinstance(node, Neg):
            inner, operand = out.pop(), node.operand
            wrap = isinstance(operand, Lit) or PREC[type(operand)] < PREC[Neg]
            out.append("-" + (f"({inner})" if wrap else inner))
            continue
        right, left = out.pop(), out.pop()
        tag = getattr(node, "decoration", None) or ""
        if isinstance(node, Div) and notation == "frac":
            out.append(f"frac{'_' + tag if tag else ''}({left},{right})")
            continue
        prec = PREC[type(node)]
        if PREC[type(node.left)] < prec:
            left = f"({left})"
        if PREC[type(node.right)] <= prec:
            right = f"({right})"
        if isinstance(node, Div):
            symbol = ("/" if notation == "inline" else ":") + tag
            if not tag and right[:2] in ("ft", "fv"):
                right = f"({right})"
        else:
            symbol = SYMBOLS[type(node)]
        out.append(left + symbol + right)
    return out.pop()


def has_div(t) -> bool:
    return any(isinstance(n, Div) for n in nodes(t))


def term_eq(a, b) -> bool:
    """Structural equality, decorations included, without recursion."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if type(x) is not type(y):
            return False
        if isinstance(x, Lit):
            if x.digits != y.digits:
                return False
        elif isinstance(x, Var):
            if x.name != y.name:
                return False
        else:
            if isinstance(x, Div) and x.decoration != y.decoration:
                return False
            stack.extend(zip(children(x), children(y)))
    return True


def evaluate(t, policy: str):
    """Exact value of a closed term: a Fraction, or BOT under common-meadow.

    ``partial`` raises ZeroDivisionError on any zero divisor;
    ``suppes-ono`` reads every division by zero as 0;
    ``common-meadow`` makes it BOT, which absorbs.
    """
    values = []
    stack = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Lit):
            values.append(Fraction(node.value))
            continue
        if isinstance(node, Var):
            raise ValueError(f"open term: {node.name}")
        if not expanded:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(children(node)))
            continue
        if isinstance(node, Neg):
            v = values.pop()
            values.append(v if v is BOT else -v)
            continue
        b = values.pop()
        a = values.pop()
        if a is BOT or b is BOT:
            values.append(BOT)
        elif isinstance(node, Add):
            values.append(a + b)
        elif isinstance(node, Sub):
            values.append(a - b)
        elif isinstance(node, Mul):
            values.append(a * b)
        elif b != 0:
            values.append(a / b)
        elif policy == "partial":
            raise ZeroDivisionError(str(node))
        elif policy == "suppes-ono":
            values.append(Fraction(0))
        else:
            values.append(BOT)
    return values.pop()


def flags(t) -> tuple:
    """(is_fracterm, closed, flat, simple, safe, simplified, proper) of t."""
    fracterm = isinstance(t, Div)
    closed = not any(isinstance(n, Var) for n in nodes(t))
    flat = fracterm and not has_div(t.left) and not has_div(t.right)
    simple = flat and isinstance(t.left, Lit) and isinstance(t.right, Lit)
    if not simple:
        return (fracterm, closed, flat, False, False, False, None)
    n, d = t.left.value, t.right.value
    canonical = t.left.digits == str(n) and t.right.digits == str(d)
    simplified = d > 0 and math.gcd(abs(n), d) == 1 and canonical
    return (True, closed, True, True, d != 0, simplified, abs(n) < abs(d))


def simplified_text(value) -> str:
    """What ``simplify`` must print for a flat fracterm of this nonzero-denominator value."""
    return f"{value.numerator}/{value.denominator}"


def bottom_simplified_text(numerator: int) -> str:
    """The representative of n/0: 1/0, -1/0 or 0/0."""
    return f"{(numerator > 0) - (numerator < 0)}/0"


def unit_sum(n: int):
    """1/2 + 1/3 + ... + 1/(n+1), leaning left, and its exact value."""
    t = left_sum([Div(Lit("1"), Lit(str(k))) for k in range(2, n + 2)])
    return t, sum(Fraction(1, k) for k in range(2, n + 2))


def left_sum(terms):
    """The left-leaning sum of the given terms, built without recursion."""
    t = terms[0]
    for u in terms[1:]:
        t = Add(t, u)
    return t


def fracvalue(v):
    """A fracvalue from the package as a Fraction or BOT, read from its payload."""
    if not hasattr(v, "instance"):
        return v.name
    payload = v.instance.payload
    if isinstance(payload, tuple):
        a, b = payload
    else:  # rat.ssft stores the simplified simple fracterm itself
        a, b = payload.left.value, payload.right.value
    return BOT if b == 0 else Fraction(a, b)


def vn_json(k: int):
    """The von Neumann natural k as the CLI prints it: the list of 0..k-1."""
    naturals = []
    for _ in range(k):
        naturals = naturals + [naturals]
    return naturals


def zermelo_depth_ok(value, k: int) -> bool:
    """Whether value is k nested singleton lists around an empty list."""
    for _ in range(k):
        if not (isinstance(value, list) and len(value) == 1):
            return False
        value = value[0]
    return value == []
