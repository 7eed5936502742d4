"""Term syntax: AST over {0, 1, +, -, *, /}, parser, printer, and taxonomy.

Decimal integer literals are primitive atoms (sugar for the 0/1 fragment;
see ``desugar_literals``). Division nodes may carry a level decoration,
``ft`` (read as a fracterm) or ``fv`` (read as a fracvalue), written
``/ft`` and ``/fv`` in place of ``/``.

The parser, the printer, ``fold`` and a term's ``==`` keep their own
stacks instead of recursing, so memory, not the recursion limit, bounds the
depth of a term.

Terms are immutable, so ``erase_decorations`` returns its argument itself
when no division in it is decorated, and so do ``num`` and ``denom`` for an
undecorated operand.

``Record`` is the base of the package's immutable records, terms included.
A record's fields are its ``__slots__`` whose names do not start with an
underscore, in order. From them ``Record`` gives equality (same class,
equal fields), a hash over the fields, a repr such as
``RatioNumber(a=1, b=2)``, and ``__reduce__`` for ``copy`` and ``pickle``,
which calls the class with the fields in order; every assignment raises
``AttributeError``. Each record writes its own ``__init__``, which sets its
slots through their descriptors (``slot_setters``), as ``Lit`` and ``Div``
do: a class built this way costs no import of ``dataclasses`` and is
quicker to construct than a frozen dataclass.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum
from typing import Callable, Optional, TypeVar

from .errors import CapacityError, NotAFracterm, ParseError

FORMATS = ("inline", "colon", "frac")

# "frac" is the keyword of the nested output format; "ft"/"fv" are the
# decoration tags. None of them may be used as variable names.
RESERVED_WORDS = frozenset({"frac", "ft", "fv"})

_LIT_RE = re.compile(r"-?[0-9]+$")
_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*$")


class Level(Enum):
    """Levels of abstraction a fracsign occurrence can resolve to."""

    OCCURRENCE = "fso"
    SIGN = "fs"
    FRACTERM = "ft"
    FRACVALUE = "fv"
    FRAXION = "fx"  # the unresolved disjunction of the other four


class Record:
    """An immutable record over the fields named by its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Slots named with a leading underscore hold private state.
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()) if name[0] != "_"
        )

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


def slot_setters(cls: type) -> tuple[Callable, ...]:
    """The ``__set__`` of each slot cls itself declares, in order.

    A record's ``__init__`` writes its slots through these, past the
    ``__setattr__`` that refuses every later assignment.
    """
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_DIV, _VAR, _DECORATED = 1, 2, 4  # the bits of a node's _facts


class Term(Record):
    """A node of a term tree, immutable.

    Each node knows from its children, once, at construction: whether its
    tree holds a division (``has_div``), a variable (``has_var``) or a
    decorated division (``decorated``), and its structural hash. ``==``
    compares trees with its own stack, and ``repr`` prints through
    ``format_term``; no method recurses.
    """

    __slots__ = ("_facts", "_hash")
    has_div = property(lambda self: self._facts & _DIV != 0)
    has_var = property(lambda self: self._facts & _VAR != 0)
    decorated = property(lambda self: self._facts & _DECORATED != 0)

    def __eq__(self, other):
        """Structural equality, decorations included."""
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            cls = type(x)
            if cls is not type(y) or x._hash != y._hash:
                return False
            if cls is Lit:
                if x.digits != y.digits:
                    return False
            elif cls is Var:
                if x.name != y.name:
                    return False
            elif cls is Neg:
                todo.append((x.operand, y.operand))
            else:
                if cls is Div and x.decoration != y.decoration:
                    return False
                todo += ((x.right, y.right), (x.left, y.left))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_term(self)

    def __reduce__(self):
        return parse_term, (format_term(self),)


class Lit(Term):
    __slots__ = ("digits",)
    _facts = 0  # a leaf's facts are a constant of its class, which shadows the slot

    def __init__(self, digits: str):
        if not _LIT_RE.match(digits):
            raise ValueError(f"bad literal digits: {digits!r}")
        _set_digits(self, digits)
        _set_hash(self, hash(digits))

    @property
    def value(self) -> int:
        # The digits are well formed, so int() can fail only on Python's
        # limit on the length of an int/str conversion.
        try:
            return int(self.digits)
        except ValueError:
            raise _too_many_digits() from None


def _str_digit_limit() -> int:
    # The limit exists from Python 3.10.7 on; 0 means no limit.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_many_digits() -> CapacityError:
    limit = _str_digit_limit()
    return CapacityError(f"a number of more than {limit} digits exceeds the int/str digit limit")


def fits_str_digits(n: int) -> bool:
    """Whether Python can write n as a decimal string."""
    limit = _str_digit_limit()
    # 2^(3 limit) < 10^limit: only a number longer than 3 limit bits can
    # have more than limit digits, and only such a number pays for the
    # exact comparison.
    return not (limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit)


def check_str_digits(n: int) -> None:
    """Refuse an int that Python cannot write as a decimal string."""
    if not fits_str_digits(n):
        raise _too_many_digits()


def numeral(n: int) -> Lit:
    """The literal of n, refused past the int/str digit limit."""
    check_str_digits(n)
    return Lit(str(n))


class Var(Term):
    __slots__ = ("name",)
    _facts = _VAR

    def __init__(self, name: str):
        if not _VAR_RE.match(name) or name in RESERVED_WORDS:
            raise ValueError(f"bad variable name: {name!r}")
        _set_name(self, name)
        _set_hash(self, hash(name))


class Neg(Term):
    __slots__ = ("operand",)

    def __init__(self, operand: Term):
        _set_operand(self, operand)
        _set_facts(self, operand._facts)
        _set_hash(self, hash((Neg, operand._hash)))


class _Binary(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        _set_left(self, left)
        _set_right(self, right)
        _set_facts(self, left._facts | right._facts)
        _set_hash(self, hash((type(self), left._hash, right._hash)))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ("decoration",)  # None | "ft" | "fv"

    def __init__(self, left: Term, right: Term, decoration: Optional[str] = None):
        if decoration not in (None, "ft", "fv"):
            raise ValueError(f"bad decoration: {decoration!r}")
        _set_left(self, left)
        _set_right(self, right)
        _set_decoration(self, decoration)
        _set_facts(self, left._facts | right._facts | (_DIV if decoration is None else _DIV | _DECORATED))
        _set_hash(self, hash((Div, left._hash, right._hash, decoration)))


(_set_digits,) = slot_setters(Lit)
(_set_name,) = slot_setters(Var)
(_set_operand,) = slot_setters(Neg)
_set_left, _set_right = slot_setters(_Binary)
(_set_decoration,) = slot_setters(Div)
_set_facts, _set_hash = slot_setters(Term)


# --------------------------------------------------------------------------
# Lexer: a token is a plain tuple (kind, text, pos), where kind is one of
# num | ident | op | div | frac | end.


# ASCII only, as Lit and Var require: str.isdigit and str.isalpha also
# accept other scripts' digits and letters, and superscripts.
_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_ALNUM = _LETTERS | _DIGITS


def _tokenize(text: str, div_char: Optional[str]) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c in _LETTERS:
            j = i
            while j < n and text[j] in _ALNUM:
                j += 1
            word = text[i:j]
            if word == "frac" and div_char is None:
                deco = ""
                if text[j : j + 3] in ("_ft", "_fv"):
                    deco = text[j + 1 : j + 3]
                    j += 3
                tokens.append(("frac", deco, i))
            elif word in RESERVED_WORDS:
                raise ParseError(f"reserved word {word!r}", position=i)
            else:
                tokens.append(("ident", word, i))
            i = j
            continue
        if div_char is not None and c == div_char:
            # "ft"/"fv" glued to the division sign is always a decoration;
            # the printer parenthesizes denominators that would collide.
            tag = text[i + 1 : i + 3]
            if tag in ("ft", "fv"):
                tokens.append(("div", tag, i))
                i += 3
                continue
            tokens.append(("div", "", i))
            i += 1
            continue
        if c in "+-*(),":
            tokens.append(("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", position=i)
    tokens.append(("end", "", n))
    return tokens


# --------------------------------------------------------------------------
# Parser
#
# expr   := term (("+" | "-") term)*
# term   := factor (("*" | DIV) factor)*
# factor := "-" factor | "(" expr ")" | literal | variable | frac-atom
#
# A "-" immediately followed (no gap) by digits in factor position is a
# signed literal; any other "-" in factor position is unary negation.
#
# Operator precedence with explicit stacks. The operator stack holds
# (precedence, class, decoration) entries and, with precedence 0 so that
# no reduction passes them, one frame per open group: the whole input, a
# parenthesis or frac denominator, or a frac numerator. After an operand,
# a token that is no binary operator must close the innermost frame;
# otherwise the error names what that frame expected, at that token.

_NEG = (3, Neg, None)
_BINARY_OPS = {
    ("op", "+"): (1, Add, None),
    ("op", "-"): (1, Sub, None),
    ("op", "*"): (2, Mul, None),
    **{("div", tag): (2, Div, tag or None) for tag in ("", "ft", "fv")},
}
_CLOSERS = {"input": ("end", ""), "group": ("op", ")"), "numerator": ("op", ",")}


def _reduce(op: tuple, operands: list) -> None:
    _, cls, deco = op
    if cls is Neg:
        operands[-1] = Neg(operands[-1])
        return
    right = operands.pop()
    operands[-1] = Div(operands[-1], right, deco) if cls is Div else cls(operands[-1], right)


def _parse(tokens: list[tuple[str, str, int]]) -> Term:
    operands: list[Term] = []
    ops: list[tuple] = [(0, "input", None)]
    i = 0
    while True:
        # Factor position: prefix minus and openers, until one atom.
        kind, text, pos = tokens[i]
        i += 1
        if kind == "num":
            operands.append(Lit(text))
        elif kind == "ident":
            operands.append(Var(text))
        elif kind == "op" and text == "-":
            nkind, ntext, npos = tokens[i]
            if nkind != "num" or npos != pos + 1:
                ops.append(_NEG)
                continue
            i += 1
            operands.append(Lit("-" + ntext))
        elif kind == "op" and text == "(":
            ops.append((0, "group", None))
            continue
        elif kind == "frac":
            nkind, ntext, npos = tokens[i]
            if nkind != "op" or ntext != "(":
                raise ParseError("expected '('", position=npos)
            i += 1
            ops.append((0, "numerator", text or None))
            continue
        else:
            raise ParseError("expected a factor", position=pos)
        # Operator position: binary operators and closers, until the next
        # factor position or the end.
        while True:
            kind, text, pos = tokens[i]
            i += 1
            op = _BINARY_OPS.get((kind, text))
            if op is not None:
                while ops[-1][0] >= op[0]:
                    _reduce(ops.pop(), operands)
                ops.append(op)
                break
            while ops[-1][0]:
                _reduce(ops.pop(), operands)
            _, role, deco = ops.pop()
            closer = _CLOSERS[role]
            if (kind, text) != closer:
                if role == "input":
                    raise ParseError(f"trailing input {text!r}", position=pos)
                raise ParseError(f"expected {closer[1]!r}", position=pos)
            if role == "input":
                return operands[0]
            if role == "numerator":
                # frac(a,b) is the factor (a) DIV (b): the division waits on
                # the stack above the group that holds the denominator.
                ops += ((2, Div, deco), (0, "group", None))
                break


def parse_term(text: str, fmt: str = "inline") -> Term:
    """Parse term text in the given format (inline, colon, or frac)."""
    _check_format(fmt)
    div_char = {"inline": "/", "colon": ":", "frac": None}[fmt]
    return _parse(_tokenize(text, div_char))


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {fmt!r}; expected one of {FORMATS}")


# --------------------------------------------------------------------------
# Printer

_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Lit: 4, Var: 4}
_SYMBOLS = {Add: "+", Sub: "-", Mul: "*"}


def format_term(t: Term, fmt: str = "inline") -> str:
    """Render a term so that parse_term(format_term(t, f), f) == t."""
    _check_format(fmt)
    return _fmt(t, fmt)


def _fmt(t: Term, fmt: str, shared: Optional[tuple[set[int], set[int], dict[int, str]]] = None) -> str:
    """The text of t in fmt, printed with an explicit stack.

    A node's text depends on the node alone, so calls that print terms
    sharing nodes can share work through shared = (older, seen, memo):
    seen collects the ids of the composite nodes this call meets, and older
    holds those that calls before it met, as far as the caller keeps them.
    A composite node met again is captured, unless it lies inside another
    capture: its pieces are joined into memo[id], and from then on its text
    costs one lookup. Captures never nest, so memo holds no more characters
    than the outputs. The caller keeps every node alive while it uses memo,
    so that ids stay unique, and prints in one fmt. Leaves never consult
    shared.
    """
    # The stack holds terms still to print, strings to emit as they are
    # and, at the end of a capture, its (id, start in out) pair.
    out: list[str] = []
    todo: list = [t]
    if shared is not None:
        older, seen, memo = shared
        capturing = False
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is str:
            out.append(node)
            continue
        if cls is Lit:
            out.append(node.digits)
            continue
        if cls is Var:
            out.append(node.name)
            continue
        if shared is not None:
            if cls is tuple:
                key, start = node
                text = "".join(out[start:])
                out[start:] = (text,)
                memo[key] = text
                capturing = False
                continue
            key = id(node)
            if key in memo:
                out.append(memo[key])
                continue
            if not capturing and (key in seen or key in older):
                capturing = True
                todo.append((key, len(out)))
            seen.add(key)
        if cls is Neg:
            # Parenthesize literal operands so "-(3)" cannot re-lex as "-3".
            inner = node.operand
            if type(inner) is Lit or _PREC[type(inner)] < 3:
                todo += (")", inner, "-(")
            else:
                todo += (inner, "-")
        elif isinstance(node, _Binary):
            left, right = node.left, node.right
            prec = _PREC[cls]
            if cls is not Div:
                sym = _SYMBOLS[cls]
                wrap_right = _PREC[type(right)] <= prec
            else:
                tag = node.decoration or ""
                if fmt == "frac":
                    todo += (")", right, ",", left, f"frac_{tag}(" if tag else "frac(")
                    continue
                sym = ("/" if fmt == "inline" else ":") + tag
                # Only a bare variable can start an unparenthesized
                # denominator with letters, which would re-lex as a tag.
                wrap_right = _PREC[type(right)] <= prec or (
                    not tag and type(right) is Var and right.name[:2] in ("ft", "fv")
                )
            todo += (")", right, "(") if wrap_right else (right,)
            todo.append(sym)
            todo += (")", left, "(") if _PREC[type(left)] < prec else (left,)
        else:
            raise TypeError(f"not a term: {node!r}")
    return "".join(out)


# --------------------------------------------------------------------------
# Traversal

R = TypeVar("R")


def fold(t: Term, alg: Callable[..., R]) -> R:
    """Fold t bottom-up: alg(node, *child_results) for every node.

    Nodes are visited in postorder, left subtree first, as a recursive
    evaluation visits them; so when alg raises, it raises at the same node.
    """
    # Pushing left before right lists the nodes in mirror preorder, which
    # read backwards is the postorder.
    order = []
    todo = [t]
    while todo:
        node = todo.pop()
        order.append(node)
        cls = type(node)
        if cls is Neg:
            todo.append(node.operand)
        elif isinstance(node, _Binary):
            todo += (node.left, node.right)
        elif cls is not Lit and cls is not Var:
            raise TypeError(f"not a term: {node!r}")
    results = []
    for node in reversed(order):
        cls = type(node)
        if cls is Lit or cls is Var:
            results.append(alg(node))
        elif cls is Neg:
            results.append(alg(node, results.pop()))
        else:
            right = results.pop()
            results[-1] = alg(node, results[-1], right)
    return results[0]


def contains_div(t: Term) -> bool:
    return t.has_div


def contains_var(t: Term) -> bool:
    return t.has_var


def erase_decorations(t: Term) -> Term:
    """t with every division decoration dropped; t itself if it has none."""
    if not t.decorated:
        return t
    return fold(t, lambda node, *kids: type(node)(*kids) if kids else node)


# --------------------------------------------------------------------------
# Taxonomy


class TaxonomyFlags(Record):
    """Syntactic classification of a term.

    proper is defined (non-None) exactly for simple fracterms.
    """

    __slots__ = ("is_fracterm", "closed", "flat", "simple", "safe", "simplified", "proper")

    def __init__(
        self, is_fracterm: bool, closed: bool, flat: bool, simple: bool, safe: bool, simplified: bool,
        proper: Optional[bool],
    ):
        _set_is_fracterm(self, is_fracterm)
        _set_closed(self, closed)
        _set_flat(self, flat)
        _set_simple(self, simple)
        _set_safe(self, safe)
        _set_simplified(self, simplified)
        _set_proper(self, proper)


_set_is_fracterm, _set_closed, _set_flat, _set_simple, _set_safe, _set_simplified, _set_proper = slot_setters(
    TaxonomyFlags
)


def is_fracterm(t: Term) -> bool:
    """True iff the leading operator of t is division."""
    return isinstance(t, Div)


def _canonical_numeral(l: Lit) -> bool:
    # Rules out redundant forms such as "007" and "-0".
    return l.digits == str(l.value)


def classify(t: Term) -> TaxonomyFlags:
    fracterm = isinstance(t, Div)
    closed = not t.has_var
    flat = fracterm and not (t.left.has_div or t.right.has_div)
    simple = flat and isinstance(t.left, Lit) and isinstance(t.right, Lit)
    safe = False
    simplified = False
    proper = None
    if simple:
        n, d = t.left.value, t.right.value
        safe = d != 0
        simplified = (
            d > 0
            and math.gcd(abs(n), d) == 1
            and _canonical_numeral(t.left)
            and _canonical_numeral(t.right)
        )
        proper = abs(n) < abs(d)
    return TaxonomyFlags(
        is_fracterm=fracterm,
        closed=closed,
        flat=flat,
        simple=simple,
        safe=safe,
        simplified=simplified,
        proper=proper,
    )


def num(t: Term) -> Term:
    """Numerator of a fracterm, decorations erased."""
    if not isinstance(t, Div):
        raise NotAFracterm(f"leading operator of {t} is not division")
    return erase_decorations(t.left)


def denom(t: Term) -> Term:
    """Denominator of a fracterm, decorations erased."""
    if not isinstance(t, Div):
        raise NotAFracterm(f"leading operator of {t} is not division")
    return erase_decorations(t.right)


# --------------------------------------------------------------------------
# Literal desugaring: every Lit expands into the {0, 1, +, *} fragment
# (plus unary minus for negative numerals).


def expand_literal(n: int) -> Term:
    """Horner form of n's binary digits: each digit after the leading 1
    doubles, (1+1)*t, and a set digit then adds 1."""
    m = abs(n)
    t: Term = Lit(str(min(m, 1)))
    for bit in bin(m)[3:]:
        t = Mul(Add(Lit("1"), Lit("1")), t)
        if bit == "1":
            t = Add(t, Lit("1"))
    return Neg(t) if n < 0 else t


def _desugar(node: Term, *kids: Term) -> Term:
    if isinstance(node, Lit):
        return node if node.digits in ("0", "1") else expand_literal(node.value)
    if isinstance(node, Div):
        return Div(*kids, node.decoration)
    return type(node)(*kids) if kids else node


def desugar_literals(t: Term) -> Term:
    """Replace every numeral other than 0 and 1 by its 0/1 expansion."""
    return fold(t, _desugar)
