"""Term syntax: AST over {0, 1, +, -, *, /}, parser, printer, and taxonomy.

Decimal integer literals are primitive atoms (sugar for the 0/1 fragment;
see ``desugar_literals``). Division nodes may carry a level decoration,
``ft`` (read as a fracterm) or ``fv`` (read as a fracvalue), written
``/ft`` and ``/fv`` in place of ``/``.

The parser, the printer, ``fold`` and a term's ``==`` keep their own
stacks instead of recursing, so memory, not the recursion limit, bounds the
depth of a term. ``fold`` computes each distinct composite node once, so
evaluation, desugaring, erasing decorations, copying and pickling are
linear in distinct nodes.

Terms are immutable, so they share freely. A parsed term has one leaf for
each distinct literal or variable text (``parse_term("2+2")`` has
``t.left is t.right``). A parsed root keeps its nodes in the postorder in
which the parser built them, so ``fold`` of it is one loop over them; any
other term gets one walk, after a pass that counts its repeated nodes.
``erase_decorations`` keeps each undecorated subtree, its argument itself
included, and so do ``num`` and ``denom``.

The leaves of short texts are shared across calls as well: the parser,
``numeral`` and copies take them from one table per process, which keeps,
from its first use, the leaf of each numeral of at most three characters
("-99" to "999", leading zeroes included) and of each one-letter name, so
never more than 1,272 leaves; a longer text gets a new leaf in each parse.
A short literal carries its int, so ``Lit.value`` reads no digits.
"""

from __future__ import annotations

import functools
import itertools
import re
from enum import Enum
from typing import Callable, Optional, TypeVar

from .errors import NotAFracterm, ParseError, UnsupportedOperation
from .records import Record, check_str_digits, digits_int, expect, named, reduced

FORMATS = ("inline", "colon", "frac")

# "frac" is the keyword of the nested output format; "ft"/"fv" are the
# decoration tags. None of them may be used as variable names.
RESERVED_WORDS = frozenset({"frac", "ft", "fv"})

_LIT_RE = re.compile(r"-?[0-9]+")
_VAR_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")


class Level(Enum):
    """Levels of abstraction a fracsign occurrence can resolve to."""

    OCCURRENCE = "fso"
    SIGN = "fs"
    FRACTERM = "ft"
    FRACVALUE = "fv"
    FRAXION = "fx"  # the unresolved disjunction of the other four


def _slot_setters(cls: type) -> tuple[Callable, ...]:
    """The ``__set__`` of each slot cls itself declares, in order.

    A term node's ``__init__`` writes its slots through these, past the
    ``__setattr__`` that refuses every later assignment.
    """
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_DIV, _VAR, _DECORATED = 1, 2, 4  # the bits of a node's _facts that a parent inherits
_INHERITED = _DIV | _VAR | _DECORATED


class Term(Record):
    """A node of a term tree, immutable.

    Each node knows from its children, once, at construction: whether its
    tree holds a division (``has_div``), a variable (``has_var``) or a
    decorated division (``decorated``). A leaf hashes its text; a composite
    node's hash is set at its first ``hash()``, with each unhashed one below
    it, by one ``fold``. ``==`` and ``repr`` keep their own stacks; none of
    the three recurses.
    """

    # _order is set on a parsed root only: the nodes of its tree below it,
    # each leaf each time met, in postorder. Every composite node in it is
    # new and met once. Holding the root itself would make a cycle, which
    # only the garbage collector frees.
    __slots__ = ("_facts", "_hash", "_memo", "_order")
    has_div = property(lambda self: self._facts & _DIV != 0)
    has_var = property(lambda self: self._facts & _VAR != 0)
    decorated = property(lambda self: self._facts & _DECORATED != 0)

    def __eq__(self, other):
        """Structural equality, decorations included."""
        # A hashed node's children are hashed: so are both trees, if both roots.
        hashed = hasattr(self, "_hash") and hasattr(other, "_hash")
        # The pairs of composite nodes met, each compared once, so shared
        # subterms cost one visit, not one per path; a parsed root meets
        # each of its nodes once, so then no pair repeats and none is kept.
        met = None if hasattr(self, "_order") or hasattr(other, "_order") else set()
        todo = [(self, other)]
        while todo:
            x, y = todo.pop()
            if x is y:
                continue
            cls = type(x)
            if cls is not type(y) or hashed and x._hash != y._hash:
                return False
            if cls is Lit:
                if x.digits != y.digits:
                    return False
            elif cls is Var:
                if x.name != y.name:
                    return False
            elif met is not None and (pair := (id(x), id(y))) in met:
                continue
            else:
                if met is not None:
                    met.add(pair)
                if cls is Neg:
                    todo.append((x.operand, y.operand))
                else:
                    if cls is Div and x.decoration != y.decoration:
                        return False
                    todo += ((x.right, y.right), (x.left, y.left))
        return True

    def __hash__(self):
        return self._hash if hasattr(self, "_hash") else fold(self, _hash_node)

    def __repr__(self):
        return format_term(self)

    def __reduce__(self):
        table: list = []  # each distinct composite node and each leaf met, children by index
        fold(self, lambda node, *kids: table.append(_entry(node, kids)) or len(table) - 1)
        return _rebuild, (table, hasattr(self, "_order"))

    def _named(self) -> str:
        """How ``records.named`` names the term: its inline text, or the first
        80 characters of it followed by "...", printed no further."""
        text, todo = "", [self]
        while todo and len(text) <= 80:
            node = todo.pop()
            cls = type(node)
            if cls is str or cls is Lit or cls is Var:
                text += node if cls is str else node.digits if cls is Lit else node.name
            else:
                todo += _pieces(node, "inline")
        return text if len(text) <= 80 else text[:80] + "..."


class Lit(Term):
    """A decimal numeral, its sign glued on.

    A short literal, of at most three characters, holds its int in ``_int``
    from construction, here or in ``_leaf``; a longer one holds None there,
    and ``value`` reads its digits at each call, refusing them with
    CapacityError past the int/str digit limit.
    """

    __slots__ = ("digits", "_int")
    _facts = 0  # a leaf's facts are a constant of its class, which shadows the slot
    _prec = 4

    def __init__(self, digits: str):
        expect(digits, str, "str")
        if not _LIT_RE.fullmatch(digits):
            raise ParseError(f"bad literal digits: {digits!r}")
        _fill_lit(self, digits)

    @property
    def value(self) -> int:
        n = self._int
        return digits_int(self.digits) if n is None else n


def numeral(n: int) -> Lit:
    """The literal of n, refused past the int/str digit limit: for a short n,
    the leaf the parser shares (see ``_leaf``)."""
    expect(n, int, "int")
    check_str_digits(n)
    return _leaf(Lit, str(n))


class Var(Term):
    __slots__ = ("name",)
    _facts = _VAR
    _prec = 4

    def __init__(self, name: str):
        expect(name, str, "str")
        if not _VAR_RE.fullmatch(name) or name in RESERVED_WORDS:
            raise ParseError(f"bad variable name: {name!r}")
        _set_name(self, name)
        _set_hash(self, hash(name))


class Neg(Term):
    __slots__ = ("operand",)
    _prec = 3

    def __init__(self, operand: Term):
        try:
            _set_facts(self, operand._facts & _INHERITED)
        except AttributeError:
            raise UnsupportedOperation(f"{named(operand)} is no term") from None
        _set_operand(self, operand)


class _Binary(Term):
    __slots__ = ("left", "right")

    def __init__(self, left: Term, right: Term):
        try:
            _set_facts(self, (left._facts | right._facts) & _INHERITED)
        except AttributeError:
            raise UnsupportedOperation(f"{named(right if hasattr(left, '_facts') else left)} is no term") from None
        _set_left(self, left)
        _set_right(self, right)


class Add(_Binary):
    __slots__ = ()
    _prec = 1


class Sub(_Binary):
    __slots__ = ()
    _prec = 1


class Mul(_Binary):
    __slots__ = ()
    _prec = 2


class Div(_Binary):
    __slots__ = ("decoration",)  # None | "ft" | "fv"
    _prec = 2

    def __init__(self, left: Term, right: Term, decoration: Optional[str] = None):
        if decoration not in (None, "ft", "fv"):
            raise ParseError(f"bad decoration: {named(decoration)}")
        try:
            _set_facts(self, (left._facts | right._facts) & _INHERITED | (_DIV | _DECORATED if decoration else _DIV))
        except AttributeError:
            raise UnsupportedOperation(f"{named(right if hasattr(left, '_facts') else left)} is no term") from None
        _set_left(self, left)
        _set_right(self, right)
        _set_decoration(self, decoration)


_set_digits, _set_int = _slot_setters(Lit)
(_set_name,) = _slot_setters(Var)
(_set_operand,) = _slot_setters(Neg)
_set_left, _set_right = _slot_setters(_Binary)
(_set_decoration,) = _slot_setters(Div)
_set_facts, _set_hash, _set_memo, _set_order = _slot_setters(Term)


_SHORT = {Lit: 3, Var: 1}  # the longest text of each leaf class that _LEAVES keeps
_LEAVES: dict[str, Term] = {}  # the one leaf of each short text, for the process


def _fill_lit(leaf: Lit, digits: str) -> None:
    _set_digits(leaf, digits)
    _set_int(leaf, int(digits) if len(digits) <= _SHORT[Lit] else None)
    _set_hash(leaf, hash(digits))


def _leaf(cls: type, text: str) -> Term:
    """The Lit or Var of well-formed text, such as a word or number token of the lexer, built
    without the check: for a short text, the one leaf of the process, kept in ``_LEAVES``."""
    leaf = _LEAVES.get(text)
    if leaf is None:
        leaf = object.__new__(cls)
        if cls is Lit:
            _fill_lit(leaf, text)
        else:
            _set_name(leaf, text)
            _set_hash(leaf, hash(text))
        if len(text) <= _SHORT[cls]:
            _LEAVES[text] = leaf
    return leaf


def check_term(t) -> None:
    """Refuse what is no term with UnsupportedOperation."""
    expect(t, Term, "term")


def value_memo(t: Term) -> dict:
    """The dict in which evaluation keeps its results for t, made on first use.
    It is no field: ``==``, ``hash``, ``repr`` and pickling ignore it. What is
    no term is refused."""
    check_term(t)
    if not hasattr(t, "_memo"):
        _set_memo(t, {})
    return t._memo


# --------------------------------------------------------------------------
# Lexer: one pattern per format cuts a text into token strings and skips
# whitespace (``\s`` is str.isspace): one of "(),+*", tried first, a number
# with its glued "-", a word, a division sign with its tag (a glued "ft"/"fv"
# is always a decoration: the printer parenthesizes denominators that would
# collide), the frac keyword with its tag, or any other character alone.
# Digits and letters are ASCII only, as Lit and Var require. A reserved word
# or a lone character that is no operator is a lexical error, the first one
# reported before any syntax error; token positions are found for errors only.

_DIGITS = frozenset("0123456789")
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


# --------------------------------------------------------------------------
# Parser
#
# expr   := term (("+" | "-") term)*
# term   := factor (("*" | DIV) factor)*
# factor := "-" factor | "(" expr ")" | literal | variable | frac-atom
#
# In factor position, a "-" glued to digits is a signed literal, and any
# other "-" is negation; in operator position, both are a binary minus.
#
# Operator precedence with explicit stacks. The operator stack holds
# (precedence, class, decoration) entries and, with precedence 0 so that no
# reduction passes them, one frame per open group: (0, the token that
# closes it, decoration). "" (the end) closes the input, ")" a parenthesis
# or frac denominator, and "," a frac numerator, whose decoration its
# division takes. After an operand, a token that is no binary operator must
# close the innermost frame; otherwise the error names what that frame
# expected, at that token. Precedences are the classes' ``_prec``. A token
# in factor position is looked up in the process leaf table first, which
# holds most, then in the openers, then in this parse's longer leaves.

_NEG = (Neg._prec, Neg, None)
_SUB = (Sub._prec, Sub, None)
_GROUP = (0, ")", None)
_CLOSE = (Sub._prec, None, None)  # what any token that is no binary operator reduces, as a "-" would


@functools.cache
def _lexer(fmt: str) -> tuple[re.Pattern, frozenset[str], dict[str, tuple], dict[str, tuple]]:
    """The lexer of fmt, a known format, built on first use: its pattern, its reserved words, the
    openers of factor position ("-", "(" and the frac keywords) and the binary operators."""
    openers = {"-": _NEG, "(": _GROUP}
    binary = {"+": (Add._prec, Add, None), "-": _SUB, "*": (Mul._prec, Mul, None)}
    if fmt == "frac":
        middle = "frac_f[tv]|[A-Za-z][A-Za-z0-9]*"
        reserved = RESERVED_WORDS - {"frac"}
        openers.update({"frac": (0, ",", None), "frac_ft": (0, ",", "ft"), "frac_fv": (0, ",", "fv")})
    else:
        div = "/" if fmt == "inline" else ":"
        middle = rf"[A-Za-z][A-Za-z0-9]*|{div}(?:ft|fv)?"
        reserved = RESERVED_WORDS
        binary.update({div + tag: (Div._prec, Div, tag or None) for tag in ("", "ft", "fv")})
    return re.compile(rf"[(),+*]|-?[0-9]+|{middle}|\S"), reserved, openers, binary


def _error(text: str, lexer: tuple, index: int = 0, message: str = "") -> ParseError:
    """The first lexical error in text; if there is none, message at the index-th token."""
    pattern, reserved, _, binary = lexer
    starts = []
    for m in pattern.finditer(text):
        token = m.group()
        if token in reserved:
            return ParseError(f"reserved word {token!r}", position=m.start())
        if len(token) == 1 and not (token in _LETTERS or token in _DIGITS or token in binary or token in "(),"):
            return ParseError(f"unexpected character {token!r}", position=m.start())
        starts.append(m.start())
    starts.append(len(text))
    return ParseError(message, position=starts[index])


def parse_term(text: str, fmt: str = "inline") -> Term:
    """Parse term text in the given format (inline, colon, or frac)."""
    expect(text, str, "str")
    _check_format(fmt)
    pattern, reserved, openers, binary = lexer = _lexer(fmt)
    tokens = pattern.findall(text)
    if not reserved.isdisjoint(tokens):
        raise _error(text, lexer)
    tokens.append("")
    # No branch below accepts a stray character: it ends in _error, which reports it.
    operands: list[Term] = []
    ops: list[tuple] = [(0, "", None)]
    made: dict[str, Term] = {}  # the leaves made in this parse
    order: list[Term] = []  # each leaf and node as it is pushed or built: the postorder
    i = 0
    while True:
        # Factor position: prefix minus and openers, until one atom.
        token = tokens[i]
        i += 1
        leaf = _LEAVES.get(token) or openers.get(token) or made.get(token)
        if leaf is None:
            first = token[:1]
            if first in _LETTERS:
                leaf = _leaf(Var, token)
            elif first in _DIGITS or first == "-":
                leaf = _leaf(Lit, token)
            else:
                raise _error(text, lexer, i - 1, "expected a factor")
            made[token] = leaf
        elif type(leaf) is tuple:
            if leaf[1] == ",":
                if tokens[i] != "(":
                    raise _error(text, lexer, i, "expected '('")
                i += 1
            ops.append(leaf)
            continue
        operands.append(leaf)
        order.append(leaf)
        # Operator position: binary operators and closers, until the next
        # factor position or the end.
        while True:
            token = tokens[i]
            i += 1
            op = binary.get(token, _CLOSE)
            floor = op[0]
            while ops[-1][0] >= floor:
                _, cls, deco = ops.pop()
                if cls is Neg:
                    operands[-1] = node = Neg(operands[-1])
                else:
                    right = operands.pop()
                    operands[-1] = node = cls(operands[-1], right, deco) if deco else cls(operands[-1], right)
                order.append(node)
            if op is not _CLOSE:
                ops.append(op)
                break
            _, closer, deco = frame = ops.pop()
            if token == closer:
                if closer == ")":
                    continue
                if closer == ",":
                    # frac(a,b) is the factor (a) DIV (b): the division waits
                    # on the stack above the group that holds the denominator.
                    ops += ((Div._prec, Div, deco), _GROUP)
                    break
                root = operands[0]
                if type(root) is not Lit and type(root) is not Var:
                    order.pop()
                    _set_order(root, order)
                return root
            if token[:1] == "-":
                # A signed literal is here a binary minus and its digits: the
                # reductions are those of a "-", and the frame stays open.
                ops += (frame, _SUB)
                i -= 1
                tokens[i] = token[1:]
                break
            if closer:
                raise _error(text, lexer, i - 1, f"expected {closer!r}")
            # A frac keyword is named by its tag, "" for a bare frac.
            shown = token[5:] if token[:4] == "frac" and token in openers else token
            raise _error(text, lexer, i - 1, f"trailing input {shown!r}")


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ParseError(f"unknown format {named(fmt)}; expected one of {FORMATS}")


# --------------------------------------------------------------------------
# Printer

_SYMBOLS = {Add: "+", Sub: "-", Mul: "*"}


def format_term(t: Term, fmt: str = "inline") -> str:
    """Render a term so that parse_term(format_term(t, f), f) == t."""
    check_term(t)
    _check_format(fmt)
    return _fmt(t, fmt)


def _fmt(t: Term, fmt: str, known: Optional[dict[int, str]] = None) -> str:
    """The text of t in fmt, printed with an explicit stack.

    A composite node whose id is a key of known prints as known[id], and
    nothing below it is visited: a caller that prints terms sharing nodes,
    such as ``RewriteTrace.to_json``, keeps the texts it has made there and
    splices them in whole. The caller keeps every such node alive while it
    uses known, so that ids stay unique, and keeps texts in fmt only.
    """
    # The stack holds terms still to print and strings to emit as they are.
    out: list[str] = []
    todo: list = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is str:
            out.append(node)
        elif cls is Lit:
            out.append(node.digits)
        elif cls is Var:
            out.append(node.name)
        elif known is not None and id(node) in known:
            out.append(known[id(node)])
        else:
            todo += _pieces(node, fmt)
    return "".join(out)


def _pieces(node: Term, fmt: str) -> tuple:
    """The pieces of a composite node's text in fmt, last first: strings, and
    each child once, with the parentheses it needs there.

    This is where the printer's parenthesization is stated, from each
    class's ``_prec``. The strings depend on the node's class and decoration
    and on its children's, and each pair of parentheses adds two pieces: so
    two nodes of one class and decoration that differ in one child only have
    as many pieces exactly when that child is parenthesized alike in both.
    """
    cls = type(node)
    if cls is Neg:
        # Parenthesize literal operands so "-(3)" cannot re-lex as "-3".
        inner = node.operand
        return (")", inner, "-(") if type(inner) is Lit or inner._prec < node._prec else (inner, "-")
    left, right = node.left, node.right
    prec = node._prec
    if cls is not Div:
        sym = _SYMBOLS[cls]
        wrap_right = right._prec <= prec
    else:
        tag = node.decoration or ""
        if fmt == "frac":
            return (")", right, ",", left, f"frac_{tag}(" if tag else "frac(")
        sym = ("/" if fmt == "inline" else ":") + tag
        # Only a bare variable can start an unparenthesized denominator
        # with letters, which would re-lex as a tag.
        wrap_right = right._prec <= prec or (not tag and type(right) is Var and right.name[:2] in ("ft", "fv"))
    if left._prec < prec:
        return (")", right, "(", sym, ")", left, "(") if wrap_right else (right, sym, ")", left, "(")
    return (")", right, "(", sym, left) if wrap_right else (right, sym, left)


# --------------------------------------------------------------------------
# Traversal

R = TypeVar("R")
_DONE = object()  # on fold's stack, above a node whose children are listed


def fold(t: Term, alg: Callable[..., R]) -> R:
    """Fold t bottom-up: alg(node, *child_results), once per distinct composite node.

    A composite node met again (by ``id``) reuses its result, kept until its
    last parent reads it, so a tree needs no more memory than a tree walk. A
    leaf is folded each time a distinct composite node names it as a child.
    Calls come in postorder, left subtree first, minus the repeats: if alg
    depends only on the node and its children's results, it raises where a
    tree walk would. A parsed root's calls are one loop over the nodes it
    keeps in postorder; any other term's are one walk, after a pass that
    counts its repeated nodes.
    """
    results: list[R] = []
    order = getattr(t, "_order", None)
    if order is not None:
        for node in itertools.chain(order, (t,)):
            cls = type(node)
            if cls is Lit or cls is Var:
                results.append(alg(node))
            elif cls is Neg:
                results[-1] = alg(node, results[-1])
            else:
                right = results.pop()
                results[-1] = alg(node, results[-1], right)
        return results[0]
    if not isinstance(t, (Lit, Var, Neg, _Binary)):
        raise TypeError(f"not a term: {t!r}")
    shared: dict[int, int] = {}  # the meetings still to come of each repeated composite node
    seen: set[int] = set()
    todo = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Lit or cls is Var:
            continue
        if (key := id(node)) in seen:
            shared[key] = shared.get(key, 0) + 1
        else:
            seen.add(key)
            todo += (node.operand,) if cls is Neg else (node.right, node.left)
    done: dict[int, R] = {}  # the result of each repeated node, until its last parent reads it
    todo = [t]
    while todo:
        node = todo.pop()
        cls = type(node)
        if cls is Lit or cls is Var:
            results.append(alg(node))
        elif node is _DONE:
            node = todo.pop()
            if type(node) is Neg:
                results[-1] = alg(node, results[-1])
            else:
                right = results.pop()
                results[-1] = alg(node, results[-1], right)
            if shared and id(node) in shared:
                done[id(node)] = results[-1]
        elif shared and (key := id(node)) in done:
            shared[key] -= 1
            results.append(done[key] if shared[key] else done.pop(key))
        elif cls is Neg:
            todo += (node, _DONE, node.operand)
        else:
            todo += (node, _DONE, node.right, node.left)
    return results[0]


def _entry(node: Term, kids: tuple):
    """A leaf's text; a composite node's class, kids and, for a Div, decoration."""
    if not kids:
        return node.digits if type(node) is Lit else node.name
    return (type(node), *kids, node.decoration) if type(node) is Div else (type(node), *kids)


def _hash_node(node: Term, *kids: int) -> int:
    """The hash of node, given its children's; set on a composite node at the first call."""
    if not hasattr(node, "_hash"):
        _set_hash(node, hash(_entry(node, kids)))
    return node._hash


def _rebuild(table: list, tree: bool) -> Term:
    """The term of a ``Term.__reduce__`` table: one leaf per distinct text, as a parse makes; a parsed root if tree,
    whose table lists its nodes in postorder."""
    made: dict[str, Term] = {}
    nodes: list[Term] = []
    for entry in table:
        if type(entry) is str:
            nodes.append(made.get(entry) or made.setdefault(entry, _leaf(Var if entry[0] in _LETTERS else Lit, entry)))
        else:
            nodes.append(entry[0](*[nodes[a] if type(a) is int else a for a in entry[1:]]))
    root = nodes.pop()
    if tree:
        _set_order(root, nodes)
    return root


# Kept by name: the benchmark's tracer rebinds terms.contains_div and rewrite.contains_div.
def contains_div(t: Term) -> bool:
    return t.has_div


def erase_decorations(t: Term) -> Term:
    """t with every division decoration dropped; t itself if it has none."""
    check_term(t)
    return fold(t, _erase) if t.decorated else t


def _erase(node: Term, *kids: Term) -> Term:
    return type(node)(*kids) if node._facts & _DECORATED else node


def _rebuilt(node: Term, kids) -> Term:
    """A node of node's class and decoration over kids."""
    return Div(*kids, node.decoration) if type(node) is Div else type(node)(*kids)


# --------------------------------------------------------------------------
# Taxonomy


class TaxonomyFlags(Record):
    """Syntactic classification of a term.

    proper is defined (non-None) exactly for simple fracterms.
    """

    __slots__ = ("is_fracterm", "closed", "flat", "simple", "safe", "simplified", "proper")


def is_fracterm(t: Term) -> bool:
    """True iff the leading operator of t is division."""
    return isinstance(t, Div)


def classify(t: Term) -> TaxonomyFlags:
    check_term(t)
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
        # Canonical numerals only: no redundant forms such as "007" and "-0".
        simplified = reduced((n, d)) == (n, d) and t.left.digits == str(n) and t.right.digits == str(d)
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
        raise NotAFracterm(f"leading operator of {named(t)} is not division")
    return erase_decorations(t.left)


def denom(t: Term) -> Term:
    """Denominator of a fracterm, decorations erased."""
    if not isinstance(t, Div):
        raise NotAFracterm(f"leading operator of {named(t)} is not division")
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
    return _rebuilt(node, kids) if kids else node


def desugar_literals(t: Term) -> Term:
    """Replace every numeral other than 0 and 1 by its 0/1 expansion."""
    check_term(t)
    return fold(t, _desugar)
