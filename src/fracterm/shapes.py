"""Number shapes: concrete presentations of nat/int/rat numbers.

A label names a kind of number (nat, int, rat); a shape is one concrete way
of presenting those numbers, its id the label, a dot and a name, carrying
two equalities:

* instance equality ``=S`` - structural identity of representations;
* label equality ``=L`` - "denotes the same number".

A shape is normal when the two coincide on its whole domain, subnormal when
label equality is strictly coarser. No shape declares which it is:
``normality_report`` finds it by a bounded search.

A shape defines only its payloads: ``validate``, ``encode`` of an int, a
Fraction or None (the bottom class), refusing anything else with
``UnsupportedOperation``, ``decode`` back to an exact number or
None, ``bounded_payloads`` for the normality search and the JSON form.
``label_key`` gives a payload's label as a hashable exact key, read through
``decode`` unless a shape computes it in integers, as the rat shapes do
with ``records.reduced``; label equality compares these keys. The
set-theoretic naturals compare and check their nested frozensets in one
walk, ``_bottom_up``, which visits each distinct set once. ``convert`` and
``Shape.operate(op, ...)``, the one entry point for the operations of the
label, follow from ``decode`` and ``encode``: the numbers are decoded,
combined exactly, with bottom absorbing and a zero divisor giving bottom as
in common meadows, and encoded again; a bottom result is the shape's
bottom-class instance, or ``BOT`` on a shape that has none. ``BOT`` is the
one bottom: evaluation's ``semantics.BOTTOM`` is the same object.
``operate`` refuses an instance of another shape with ``ShapeMismatch``; it
and every module-level function that takes an instance refuse what is no
``Instance``, ``BOT`` too.

``int.diffpair`` and ``rat.rns``, whose results are not canonical ((5, 2) +
(1, 4) is (6, 6)), declare payload functions instead, rat.rns from ``ratio``,
imported at the call, as rat.ssft imports ``terms`` at its first use: no
other shape loads either. Evaluation uses none of these operations: ``semantics.eval_term``
folds a term in exact integer pairs and encodes its value once, at the root.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import (
    CapacityError,
    LabelMismatch,
    NegativeIntoNat,
    ShapeMismatch,
    UnsupportedOperation,
    UnsupportedShape,
)
from .records import Record, check_str_digits, digits_int, expect, named, reduced

# The operations of each label; every shape of the label offers them.
OPERATIONS = {"nat": ("add", "mul"), "int": ("add", "mul", "neg"), "rat": ("add", "mul", "neg", "div")}
# Each operation's name, function on values and arity.
_ARITHMETIC = {"add": ("addition", operator.add, 2), "mul": ("multiplication", operator.mul, 2),
               "neg": ("negation", operator.neg, 1), "div": ("division", operator.truediv, 2)}

# Recognized labels whose shapes are infinite objects; requests are refused.
REJECTED_LABELS = ("real", "complex")

# Size caps for the set-theoretic naturals. A von Neumann k holds k(k+1)/2
# elements in all, so nat.vn has its own: encoding 2500 (50 times 50) takes
# 0.5 s and 211 MB, 3000 takes 275 MB (2-core x86-64, Python 3.11).
SET_NAT_CAP = 1 << 16
SET_NAT_VN_CAP = 2500

# Deepest nesting of lists in a set-nat's JSON, where k nests k + 1. At the
# default recursion limit json.dumps writes at most 990 nested lists from a
# fresh interpreter; the rest is left to the frames of its callers.
SET_NAT_JSON_DEPTH = 900

# Longest set-nat JSON, in characters. nat.vn's doubles with each successor:
# k = 18 writes 786,430 characters, k = 22 would write 12,582,910.
SET_NAT_JSON_CHARS = 2**20

# Largest normality bound. rat.pcs and rat.ssft walk O(bound^2) payloads,
# each keyed by its gcd-reduced pair: at 300 a CLI search takes under 0.2 s
# (rat.pcs) or 0.3 s (rat.ssft) and 34 MB (2-core x86-64, Python 3.11).
NORMALITY_BOUND = 300


class _Bot:
    """Bottom, the one absorbing value of common meadows: what evaluation gives
    for a zero divisor (``semantics.BOTTOM`` is this object), and what
    ``Shape.operate`` gives on a shape with no bottom-class instance. It refuses
    every assignment, and copy and pickle give it back itself."""

    __slots__ = ()
    name = "bot"

    def __repr__(self):
        return self.name

    def __reduce__(self):
        return "BOT"


BOT = _Bot()


class Instance(Record):
    """A payload of a shape. ``==`` is the shape's instance equality."""

    __slots__ = ("shape_id", "payload")

    def __eq__(self, other):
        # Set-nat payloads compare without frozenset ==, which recurses and
        # takes time exponential in k on two separately built nat.vn values.
        # Both equalities are structural, so the payload hash stays valid.
        if type(other) is not Instance:
            return NotImplemented
        if self.shape_id != other.shape_id:
            return False
        shape = _SHAPES.get(self.shape_id)
        if shape is None:
            return self.payload == other.payload
        return shape.instance_eq(self, other)

    __hash__ = Record.__hash__


class NormalityReport(Record):
    __slots__ = ("shape_id", "bound", "normal", "witness")  # witness: None or a pair of instances


Number = Union[int, Fraction]


def _digits(s) -> bool:
    return isinstance(s, str) and s.isascii() and s.isdigit()


def _rat_pair(value, shape_id: str) -> Optional[tuple[int, int]]:
    """The (numerator, denominator) of what encode takes, n/1 for an int n;
    None for None, the bottom class. Anything else, a bool too, is refused."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if value is not None:
        raise UnsupportedOperation(f"{shape_id} encodes an int, a Fraction or None, not {type(value).__name__}")
    return None


class Shape:
    shape_id: str = ""
    label = property(lambda self: self.shape_id.partition(".")[0])  # nat, int or rat
    payload_operations: dict = {}  # op -> function of payloads, where results are not canonical

    @property
    def operations(self) -> tuple[str, ...]:
        return OPERATIONS[self.label]

    # -- payloads: what each shape defines ------------------------------

    def make(self, payload) -> Instance:
        self.validate(payload)
        return Instance(self.shape_id, payload)

    def bounded_payloads(self, bound: int) -> Iterator:
        """The payloads searched for normality, the same sequence on every
        call: ``normality_report`` walks it again to fetch a witness."""
        for k in range(bound + 1):
            yield self.encode(k).payload

    def label_key(self, payload):
        """The label of a payload as a hashable exact key: the (numerator,
        denominator) of its value, or None for the bottom class."""
        value = self.decode(Instance(self.shape_id, payload))
        return None if value is None else (value.numerator, value.denominator)

    def payload_to_json(self, payload):
        if type(payload) is int:  # nat.dedekind's
            check_str_digits(payload)
        return payload

    def payload_from_json(self, data):
        return data

    def from_json(self, data) -> Instance:
        """Checked instance of a JSON payload; a malformed one is UnsupportedShape."""
        return self.make(self.payload_from_json(data))

    def _integer(self, value: Optional[Number]) -> int:
        """The int that a nat or int shape encodes, refusing what it cannot hold."""
        pair = _rat_pair(value, self.shape_id)
        if pair is None:
            raise UnsupportedOperation(f"{self.shape_id} has no bottom-class instance")
        if pair[1] != 1:
            raise UnsupportedOperation(f"{self.shape_id} holds no non-integer values")
        if self.label == "nat" and pair[0] < 0:
            raise NegativeIntoNat(f"{self.shape_id} holds no negative values")
        return pair[0]

    # -- derived: equality and arithmetic through decode/encode -----------

    def instance_eq(self, i: Instance, j: Instance) -> bool:
        return i.payload == j.payload

    def label_eq(self, i: Instance, j: Instance) -> bool:
        return self.label_key(i.payload) == self.label_key(j.payload)

    def operate(self, op: str, *insts: Instance):
        """The operation op of the label on insts, refused before any is decoded
        when op is unknown, when insts are not as many as op takes, when the
        label lacks op or when an inst is not of this shape. Bottom absorbs
        and a zero divisor gives bottom: the shape's bottom-class instance,
        or BOT, the same object as ``semantics.BOTTOM``, on a shape that has
        none."""
        if op not in _ARITHMETIC:
            raise UnsupportedOperation(f"unknown operation {named(op)}; expected one of {tuple(_ARITHMETIC)}")
        name, fn, arity = _ARITHMETIC[op]
        if len(insts) != arity:
            raise UnsupportedOperation(f"{name} takes {arity} instance{'s' * (arity > 1)}, not {len(insts)}")
        if op not in OPERATIONS[self.label]:
            raise UnsupportedOperation(f"{self.shape_id} has no {name}")
        for i in insts:
            if _shape_of(i) is not self:
                raise ShapeMismatch(f"{self.shape_id} vs {i.shape_id}")
        if op in self.payload_operations:
            return Instance(self.shape_id, self.payload_operations[op](*[i.payload for i in insts]))
        values = [self.decode(i) for i in insts]
        if values[0] is None or values[-1] is None or (op == "div" and values[1] == 0):
            try:
                return self.encode(None)
            except UnsupportedOperation:
                return BOT
        return self.encode(fn(*values))


class _PairShape(Shape):
    """Payloads that are pairs of Python ints; ``_admits`` narrows them."""

    bad_pair = ""

    def _admits(self, a: int, b: int) -> bool:
        return True

    def validate(self, payload):
        ok = isinstance(payload, tuple) and len(payload) == 2
        if not (ok and all(type(x) is int for x in payload) and self._admits(*payload)):
            raise UnsupportedShape(f"{self.bad_pair} {named(payload)}")

    def payload_to_json(self, payload):
        for x in payload:
            check_str_digits(x)
        return list(payload)

    def payload_from_json(self, data):
        if not (isinstance(data, list) and len(data) == 2 and all(type(x) is int for x in data)):
            raise UnsupportedShape(f"{self.shape_id} payload must be a list of two integers")
        return tuple(data)


# ---------------------------------------------------------------------------
# nat shapes


class _DecimalNat(Shape):
    """Digit strings, redundant leading zeroes allowed. Subnormal: 007 =L 7."""

    shape_id = "nat.dec"

    def validate(self, payload):
        if not _digits(payload):
            raise UnsupportedShape(f"bad decimal payload {named(payload)}")

    def encode(self, value):
        k = self._integer(value)
        check_str_digits(k)
        return Instance(self.shape_id, str(k))

    def decode(self, inst):
        return digits_int(inst.payload)

    def bounded_payloads(self, bound):
        for length in range(1, len(str(bound)) + 3):
            for tup in itertools.product("0123456789", repeat=length):
                yield "".join(tup)


class _StrictDecimalNat(_DecimalNat):
    """Digit strings without redundant leading zeroes."""

    shape_id = "nat.sdn"

    def validate(self, payload):
        super().validate(payload)
        if payload[0] == "0" and payload != "0":
            raise UnsupportedShape(f"redundant leading zero in {named(payload)}")

    bounded_payloads = Shape.bounded_payloads


class _DedekindNat(Shape):
    """Successor counts: the instance for k stands for k applications of S to 0."""

    shape_id = "nat.dedekind"

    def validate(self, payload):
        if type(payload) is not int or payload < 0:
            raise UnsupportedShape(f"bad successor count {named(payload)}")

    def encode(self, value):
        return Instance(self.shape_id, self._integer(value))

    def decode(self, inst):
        return inst.payload


def _bottom_up(root, combine):
    """combine(s, results) at root, for each distinct frozenset s under it
    computed once, by id, bottom-up and without recursion: results iterates
    over the results of s's elements, and combine reads it through before
    it returns. An element x that is no frozenset gives combine(x, None).

    A depth-first walk enters a set only while some element of it has no
    result yet, and then takes its elements smallest first: the elements
    of a von Neumann k are 0, ..., k - 1, so each of them finds its own
    elements done, and the walk enters the root alone.
    """
    done: dict[int, object] = {}
    stack = [iter((root,))]
    while stack:
        for e in stack[-1]:
            if id(e) in done:
                continue
            if type(e) is not frozenset:
                done[id(e)] = combine(e, None)
                continue
            try:
                done[id(e)] = combine(e, map(done.__getitem__, map(id, e)))
            except KeyError:  # an element without a result: enter e, then meet it again
                stack.append(iter((e,)))
                stack.append(iter(sorted(e, key=lambda x: len(x) if type(x) is frozenset else -1)))
                break
        else:
            stack.pop()
    return done[id(root)]


def _von_neumann(s, elements) -> int:
    """The natural s is, given its elements' (see _VonNeumannNat.validate)."""
    if elements is None or max(elements, default=-1) >= len(s):
        raise UnsupportedShape("not a von Neumann natural")
    return len(s)


class _SetNat(Shape):
    """Naturals as nested frozensets: k is ``_succ`` applied k times to the
    empty set. ``_succ(s, kind)`` builds with kind: frozenset, or list for JSON."""

    cap = SET_NAT_CAP

    def instance_eq(self, i, j):
        # Each distinct set is numbered by the frozenset of its elements'
        # numbers, any other element by itself: two sets get one number
        # exactly when their elements do. ``==`` on nested frozensets recurses
        # once per level, and takes time exponential in k on two distinct von
        # Neumann encodings of k.
        numbers: dict[object, int] = {}

        def number(x, elements):
            return numbers.setdefault((x,) if elements is None else frozenset(elements), len(numbers))

        return _bottom_up(i.payload, number) == _bottom_up(j.payload, number)

    def _check_cap(self, k):
        if k > self.cap:
            raise CapacityError(f"{self.shape_id} holds no value past the set-nat cap {self.cap}")

    def encode(self, value):
        k = self._integer(value)
        self._check_cap(k)
        s = frozenset()
        for _ in range(k):
            s = self._succ(s)
        return Instance(self.shape_id, s)

    def bounded_payloads(self, bound):
        s = frozenset()
        yield s
        for _ in range(bound):
            s = self._succ(s)
            yield s

    def payload_to_json(self, payload):
        # The lists are built as k itself is, one successor at a time,
        # without recursion; json.dumps recurses, once per level.
        k = self.decode(Instance(self.shape_id, payload))
        if k >= SET_NAT_JSON_DEPTH:
            raise CapacityError(f"{self.shape_id} JSON nests {k + 1} lists, past the budget of {SET_NAT_JSON_DEPTH}")
        chars = self._json_chars(k)
        if chars > SET_NAT_JSON_CHARS:
            raise CapacityError(f"{self.shape_id} JSON of {k} has {chars} characters, past the budget of {SET_NAT_JSON_CHARS}")
        value: list = []
        for _ in range(k):
            value = self._succ(value, list)
        return value

    def _json_chars(self, k):  # the length of json.dumps of k's lists
        return 2 * k + 2

    def payload_from_json(self, data):
        # Nested lists become frozensets bottom-up, without recursion, each
        # built of its elements' sets: an equal set is found by hash, kept once.
        sets: dict[frozenset, frozenset] = {}
        stack = [([data], [])]  # each list entered, with its elements' sets so far
        while not stack[0][1]:  # until [data] holds its one set
            node, elements = stack[-1]
            if len(elements) < len(node):
                if not isinstance(node[len(elements)], list):
                    raise UnsupportedShape(f"{self.shape_id} payload must be nested lists")
                stack.append((node[len(elements)], []))
            else:
                stack.pop()
                s = frozenset(elements)
                stack[-1][1].append(sets.setdefault(s, s))
        return stack[0][1][0]


class _VonNeumannNat(_SetNat):
    """Nested sets with n = {0, ..., n-1}; order coincides with membership."""

    shape_id = "nat.vn"
    cap = SET_NAT_VN_CAP

    def _succ(self, s, kind=frozenset):
        return kind((*s, s))

    def _json_chars(self, k):  # k >= 1 lists 0, ..., k - 1, in 3 * 2**k - 2 characters
        return 3 * 2**k - 2 if k else 2

    def validate(self, payload):
        # A set of size k is k when its elements are naturals below k: being
        # distinct, they are then 0, ..., k - 1. So each distinct set under the
        # payload is checked once, and no canonical k is built.
        if not isinstance(payload, frozenset):
            raise UnsupportedShape("von Neumann payload must be a frozenset")
        self._check_cap(len(payload))
        _bottom_up(payload, _von_neumann)

    def decode(self, inst):
        return len(inst.payload)


class _ZermeloNat(_SetNat):
    """Singleton chains: n+1 = {n}."""

    shape_id = "nat.zermelo"

    def _succ(self, s, kind=frozenset):
        return kind((s,))

    def validate(self, payload):
        if not isinstance(payload, frozenset):
            raise UnsupportedShape("Zermelo payload must be a frozenset")
        s = payload
        while isinstance(s, frozenset) and len(s) == 1:
            (s,) = s
        if s or not isinstance(s, frozenset):
            raise UnsupportedShape("not a Zermelo natural")

    def decode(self, inst):
        s, depth = inst.payload, 0
        while s:
            (s,) = s
            depth += 1
        return depth


# ---------------------------------------------------------------------------
# int shapes


class _SignedInt(Shape):
    """("+", magnitude) / ("-", magnitude) pairs plus a single unsigned zero."""

    shape_id = "int.signed"

    def validate(self, payload):
        if payload == "0":
            return
        # A magnitude is a digit string without a leading zero, so never "0".
        ok = isinstance(payload, tuple) and len(payload) == 2 and payload[0] in ("+", "-")
        if not (ok and _digits(payload[1]) and payload[1][0] != "0"):
            raise UnsupportedShape(f"bad signed-int payload {named(payload)}")

    def encode(self, value):
        k = self._integer(value)
        check_str_digits(k)
        if k == 0:
            return Instance(self.shape_id, "0")
        sign = "+" if k > 0 else "-"
        return Instance(self.shape_id, (sign, str(abs(k))))

    def decode(self, inst):
        if inst.payload == "0":
            return 0
        sign, mag = inst.payload
        return digits_int(mag if sign == "+" else "-" + mag)

    def bounded_payloads(self, bound):
        for k in range(-bound, bound + 1):
            yield self.encode(k).payload

    def payload_to_json(self, payload):
        return payload if payload == "0" else [payload[0], payload[1]]

    def payload_from_json(self, data):
        if data == "0":
            return data
        if not (isinstance(data, list) and len(data) == 2):
            raise UnsupportedShape('int.signed payload must be "0" or a [sign, magnitude] list')
        return tuple(data)


class _DiffPairInt(_PairShape):
    """Difference pairs (a, b) of naturals standing for a - b. Subnormal."""

    shape_id = "int.diffpair"
    bad_pair = "bad difference pair"

    def _admits(self, a, b):
        return a >= 0 and b >= 0

    def encode(self, value):
        k = self._integer(value)
        return Instance(self.shape_id, (k, 0) if k >= 0 else (0, -k))

    def decode(self, inst):
        a, b = inst.payload
        return a - b

    payload_operations = {
        "add": lambda x, y: (x[0] + y[0], x[1] + y[1]),
        "mul": lambda x, y: (x[0] * y[0] + x[1] * y[1], x[0] * y[1] + x[1] * y[0]),
        "neg": lambda x: (x[1], x[0]),
    }

    def bounded_payloads(self, bound):
        return itertools.product(range(bound + 1), repeat=2)


# ---------------------------------------------------------------------------
# rat shapes


def _coprime_to(b: int, bound: int) -> bytes:
    """A mask over a from -bound to bound, 1 where gcd(a, b) is 1: the
    residues mod b repeated, so b gcds rather than 2 * bound + 1."""
    residues = bytes([math.gcd(r, b) == 1 for r in range(b)])
    start = -bound % b
    return (residues * ((2 * bound + start) // b + 1))[start:start + 2 * bound + 1]


def _coprime_pairs(bound: int) -> Iterator[tuple[int, int]]:
    """(a, b) in lowest terms with 0 < b <= bound and |a| <= bound."""
    numerators = range(-bound, bound + 1)
    for b in range(1, bound + 1):
        yield from zip(itertools.compress(numerators, _coprime_to(b, bound)), itertools.repeat(b))


class _RatPair(_PairShape):
    """Integer pairs (a, b) standing for a/b; every (a, 0) is in the bottom class."""

    def encode(self, value):
        pair = _rat_pair(value, self.shape_id)
        return Instance(self.shape_id, (0, 0) if pair is None else pair)

    def decode(self, inst):
        a, b = inst.payload
        return None if b == 0 else Fraction(a, b)

    label_key = staticmethod(reduced)


class _PairClassRat(_RatPair):
    """Classes of integer pairs, held by canonical representatives.

    The class of all (a, 0) pairs is the shape's bottom, representative
    (0, 0). Canonicalization makes instance equality coincide with label
    equality, so the shape is normal.
    """

    shape_id = "rat.pcs"
    bad_pair = "not a canonical pair:"

    def _admits(self, a, b):
        # Every (a, 0) is in the bottom class, whose representative is (0, 0).
        return (a, b) == (0, 0) or reduced((a, b)) == (a, b)

    def bounded_payloads(self, bound):
        yield (0, 0)
        yield from _coprime_pairs(bound)


_terms = None  # the terms module, imported at rat.ssft's first use: no other shape loads it


def _term_layer():
    global _terms
    if _terms is None:
        from . import terms as _terms
    return _terms


class _SimplifiedFractermRat(Shape):
    """Rationals presented as their simplified simple fracterms.

    Numbers here *are* terms, so the shape has no bottom instance: no
    simplified simple fracterm has a zero denominator.
    """

    shape_id = "rat.ssft"

    def validate(self, payload):
        terms = _term_layer()
        if not (isinstance(payload, terms.Div) and terms.classify(payload).simplified and not payload.decorated):
            raise UnsupportedShape(f"not a simplified simple fracterm: {named(payload)}")

    def encode(self, value):
        pair = _rat_pair(value, self.shape_id)
        if pair is None:
            raise UnsupportedOperation(f"{self.shape_id} has no bottom-class instance")
        terms = _term_layer()
        return Instance(self.shape_id, terms.Div(terms.numeral(pair[0]), terms.numeral(pair[1])))

    def decode(self, inst):
        t = inst.payload
        return Fraction(t.left.value, t.right.value)

    def label_key(self, payload):
        return reduced((payload.left.value, payload.right.value))

    def bounded_payloads(self, bound):
        # The pairs of _coprime_pairs, in its order, over one literal per
        # integer, shared by every payload that holds it.
        terms = _term_layer()
        lits = [terms.numeral(k) for k in range(-bound, bound + 1)]
        for b in range(1, bound + 1):
            yield from map(terms.Div, itertools.compress(lits, _coprime_to(b, bound)), itertools.repeat(lits[bound + b]))

    def payload_to_json(self, payload):
        return repr(payload)  # a term's repr is its inline text

    def payload_from_json(self, data):
        if not isinstance(data, str):
            raise UnsupportedShape("rat.ssft payload must be a term string such as \"2/3\"")
        return _term_layer().parse_term(data)


def _on_pairs(rn_op: str):
    """The ratio-number operation named rn_op as a function of (a, b) payloads."""
    def on_pairs(*pairs):
        from . import ratio
        rn = getattr(ratio, rn_op)(*[ratio.RatioNumber(*pair) for pair in pairs])
        return (rn.a, rn.b)
    return on_pairs


class _RatioNumberRat(_RatPair):
    """Raw integer pairs as numbers: no canonicalization, hence subnormal."""

    shape_id = "rat.rns"
    bad_pair = "bad ratio-number payload"
    payload_operations = {"add": _on_pairs("rn_add"), "mul": _on_pairs("rn_mul"),
                          "neg": _on_pairs("rn_neg"), "div": _on_pairs("rn_div")}

    def bounded_payloads(self, bound):
        # Ring m holds the pairs whose larger component magnitude is m, in row order.
        for m in range(bound + 1):
            for a in range(-m, m + 1):
                for b in range(-m, m + 1) if abs(a) == m else (-m, m):
                    yield a, b


# ---------------------------------------------------------------------------
# Registry and module-level operations

_SHAPES: dict[str, Shape] = {
    s.shape_id: s
    for s in (
        _DecimalNat(), _StrictDecimalNat(), _DedekindNat(), _VonNeumannNat(), _ZermeloNat(),
        _SignedInt(), _DiffPairInt(),
        _PairClassRat(), _SimplifiedFractermRat(), _RatioNumberRat(),
    )
}

SHAPE_IDS = tuple(_SHAPES)


def get_shape(shape_id: str) -> Shape:
    expect(shape_id, str, "shape id")
    if shape_id in _SHAPES:
        return _SHAPES[shape_id]
    head = shape_id.split(".", 1)[0]
    if head in REJECTED_LABELS:
        raise UnsupportedShape(f"label {head!r} is recognized but has only infinite presentations")
    raise UnsupportedShape(f"unknown shape {shape_id!r}")


def _shape_of(i: Instance, *others: Instance) -> Shape:
    """The shape of i, which others must share; what is no Instance, BOT too, is refused."""
    for x in (i, *others):
        expect(x, Instance, "instance: a shape without a bottom class gives bot for bottom")
    for j in others:
        if i.shape_id != j.shape_id:
            raise ShapeMismatch(f"{i.shape_id} vs {j.shape_id}")
    return get_shape(i.shape_id)


def encode(k: int, shape_id: str) -> Instance:
    return get_shape(shape_id).encode(k)


def decode(inst: Instance) -> Optional[Number]:
    return _shape_of(inst).decode(inst)


def instance_eq(i: Instance, j: Instance) -> bool:
    return _shape_of(i, j).instance_eq(i, j)


def label_eq(i: Instance, j: Instance) -> bool:
    return _shape_of(i, j).label_eq(i, j)


def convert(inst: Instance, target_id: str) -> Instance:
    src = _shape_of(inst)
    dst = get_shape(target_id)
    if src.label != dst.label:
        raise LabelMismatch(f"{src.label} instance cannot become {dst.label}")
    return dst.encode(src.decode(inst))


def instance_to_json(inst: Instance):
    shape = _shape_of(inst)
    return {"shape": shape.shape_id, "value": shape.payload_to_json(inst.payload)}


def instance_from_json(data) -> Instance:
    if not (isinstance(data, dict) and isinstance(data.get("shape"), str) and "value" in data):
        raise UnsupportedShape('an instance is {"shape": <shape id>, "value": <payload>}')
    return get_shape(data["shape"]).from_json(data["value"])


def normality_report(shape_id: str, bound: int) -> NormalityReport:
    """Search the bounded domain for a pair that is label-equal but not
    instance-equal; exhaustion without a witness reports the shape normal.

    For rat shapes the domain is bounded by pair components rather than by
    decoded magnitude, which is not finitely enumerable. The witness is the
    first instance, in enumeration order, that is not instance-equal to the
    first instance of its label class, paired with that first instance.

    The search walks payloads, not instances: ``seen`` maps each payload's
    ``label_key`` to the position of its class's first payload. On a
    collision a second walk fetches that payload, and only the two witness
    candidates become instances.
    """
    expect(bound, int, "int bound")
    if bound < 1:
        raise UnsupportedOperation("bound must be at least 1")
    if bound > NORMALITY_BOUND:
        raise CapacityError(f"a normality bound past the budget of {NORMALITY_BOUND}")
    shape = get_shape(shape_id)
    key = shape.label_key
    seen: dict[Optional[tuple[int, int]], int] = {}
    for pos, payload in enumerate(shape.bounded_payloads(bound)):
        first = seen.setdefault(key(payload), pos)
        if first == pos:
            continue
        prev = Instance(shape_id, next(itertools.islice(shape.bounded_payloads(bound), first, None)))
        inst = Instance(shape_id, payload)
        if not shape.instance_eq(prev, inst):
            return NormalityReport(shape_id, bound, False, (prev, inst))
    return NormalityReport(shape_id, bound, True, None)
