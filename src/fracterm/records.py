"""The package's immutable records, argument checks, Python's int/str digit limit, and lowest terms.

``Record`` is the base of the package's immutable records, terms included.
A record's fields are its ``__slots__`` whose names do not start with an
underscore, in order. From them ``Record`` gives equality (same class,
equal fields), a hash over the fields, a repr such as
``RatioNumber(a=1, b=2)``, and ``__reduce__`` for ``copy`` and ``pickle``,
which calls the class with the fields in order; every assignment raises
``AttributeError``. A record declares its fields once, and ``Record`` builds
its ``__init__``: it takes the fields in order, with trailing defaults from a
class-level ``_defaults`` (a slot cannot have a class attribute as default),
sets each slot through its descriptor, and calls the class's
``__post_init__``, if any, where the records that validate check their
fields. One ``exec`` builds it at the class's first construction, not at
import, so a process pays only for the classes it builds. Term nodes write
their own ``__init__``, which computes their facts; a composite node's hash
waits for its first ``hash()``. No record costs an import of ``dataclasses``.

``reduced`` puts an integer pair in lowest terms for the rat shapes' label
keys, ``terms.classify`` and ``rewrite.simplify``.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Optional

from .errors import CapacityError, UnsupportedOperation


class Record:
    """An immutable record over the fields named by its ``__slots__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}
    _writes_init = False  # whether the class or a base writes its own __init__

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Slots named with a leading underscore hold private state.
        cls._fields = tuple(
            name for klass in reversed(cls.__mro__) for name in vars(klass).get("__slots__", ()) if name[0] != "_"
        )
        # The stub, unless the class or a base writes an __init__: so a class
        # never inherits an __init__ built for a base's fields.
        if "__init__" in vars(cls):
            cls._writes_init = True
        elif not cls._writes_init:
            cls.__init__ = Record.__init__

    def __init__(self, *args, **kwargs):
        """Build the class's own ``__init__``, install it, and run it."""
        cls = next(klass for klass in type(self).__mro__ if vars(klass).get("__init__") is Record.__init__)
        cls.__init__ = init = _build_init(cls)
        init(self, *args, **kwargs)

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


_GENERATED = "<record __init__>"  # the file name of every built __init__


def _build_init(cls: type) -> Callable:
    # Its globals: _defaults, and each field's slot setter as _set_<field>.
    scope = {"_defaults": cls._defaults}
    scope.update((f"_set_{name}", getattr(cls, name).__set__) for name in cls._fields)
    params = [f"{name}=_defaults[{name!r}]" if name in cls._defaults else name for name in cls._fields]
    lines = [f"_set_{name}(self, {name})" for name in cls._fields]
    if hasattr(cls, "__post_init__"):
        lines.append("self.__post_init__()")
    body = "\n    ".join(lines or ["pass"])
    exec(compile(f"def __init__({', '.join(['self', *params])}):\n    {body}\n", _GENERATED, "exec"), scope)
    init = scope["__init__"]
    init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
    return init


def _str_digit_limit() -> int:
    # The limit exists from Python 3.10.7 on; 0 means no limit.
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _too_many_digits() -> CapacityError:
    limit = _str_digit_limit()
    return CapacityError(f"a number of more than {limit} digits exceeds the int/str digit limit")


def fits_str_digits(n: int) -> bool:
    """Whether Python can write n as a decimal string: always, without the
    limit being read, for n of at most 1,920 bits, as no nonzero limit is
    below 640 digits."""
    # 2^(3 limit) < 10^limit: only a number longer than 3 limit bits can
    # have more than limit digits, and only such a number pays for the
    # exact comparison.
    if n.bit_length() <= 3 * 640:
        return True
    limit = _str_digit_limit()
    return not (limit and n.bit_length() > 3 * limit and abs(n) >= 10**limit)


def check_str_digits(n: int) -> None:
    """Refuse an int that Python cannot write as a decimal string."""
    if not fits_str_digits(n):
        raise _too_many_digits()


def digits_int(digits: str) -> int:
    """The int of a well-formed decimal numeral, sign included, refused past the int/str digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise _too_many_digits() from None


def expect(x, kind: type, noun: str) -> None:
    """Refuse x with UnsupportedOperation unless it is a kind: "<named(x)> is no <noun>"; a bool is no int."""
    if type(x) is not kind and (type(x) is bool or not isinstance(x, kind)):
        raise UnsupportedOperation(f"{named(x)} is no {noun}")


def named(x) -> str:
    """x as a message names it: as ``reprlib.repr`` does, but an int past the
    int/str digit limit by its size, a term by its ``_named``, at most about
    80 characters of its inline text, and any other record by its fields,
    each named by this rule. Nothing cut off is printed."""
    return _namer().repr(x)


@functools.cache
def _namer():
    import reprlib  # on the error path only

    class Namer(reprlib.Repr):
        def repr_int(self, x, level):
            return super().repr_int(x, level) if fits_str_digits(x) else f"<int of {x.bit_length()} bits>"

        def repr_frozenset(self, x, level):
            # A set of sets in order of size: reprlib sorts by subset, in time
            # quadratic in a von Neumann natural, whose two orders agree.
            if not x or not all(type(e) is frozenset for e in x):
                return super().repr_frozenset(x, level)
            return self._repr_iterable(sorted(x, key=len), level, "frozenset({", "})", self.maxfrozenset)

        def repr_instance(self, x, level):
            if not isinstance(x, Record):
                return super().repr_instance(x, level)
            if hasattr(x, "_named"):
                return x._named()
            shown = (f"{name}={self.repr1(getattr(x, name), level - 1)}" for name in x._fields)
            return f"{type(x).__qualname__}({', '.join(shown) if level > 0 else '...'})"

    return Namer()


def reduced(pair: tuple[int, int]) -> Optional[tuple[int, int]]:
    """The pair (a, b) as the (numerator, denominator) of a/b in lowest
    terms, the sign on the numerator; None when b is 0."""
    a, b = pair
    if b == 0:
        return None
    g = math.gcd(a, b)
    if b < 0:
        g = -g
    return a // g, b // g
