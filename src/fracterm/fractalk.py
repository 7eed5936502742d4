"""Fractalk scripts: numbered assertions about fracsign occurrences.

A script is a sequence of claims, each mentioning zero or more fracsign
occurrences. The claim forms are the rows of ``CLAIM_KINDS``, one per kind:
its pattern and literal, the level its role demands (rule 4) and its checker.
Every occurrence gets a level of abstraction (occurrence, sign, fracterm,
fracvalue, or the undecided fraxion), inferred from:

1. an explicit decoration on the sign itself (``2/ft3``, ``2/fv3``);
2. a level directive ``level(k) = ft|fv|fs`` aimed at assertion k
   (forward references allowed);
3. a definitional claim in scope, for occurrences introduced by the word
   "fraction" (``the fraction 2/6``);
4. the claim's own demands (numerator extraction and syntactic
   classification force the fracterm reading, rationality and numeric
   judgements force the fracvalue reading);
5. otherwise the most abstract level, fracvalue - except for claims that
   deliberately stay undecided.

Checking then validates each claim at its assigned level; inferences that
move a fact across levels are flagged instead of silently accepted. A
fracvalue reading compares exact numbers (``semantics.eval_number``); the
shape decides only which fracterms are numbers, and the disjointness
default. "t can be written flat as w" means: w is flat and equal in value.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .errors import DanglingReference, FractermError, LevelConflict, ScriptError
from .records import Record, expect, fits_str_digits
from .semantics import BOTTOM, EvalConfig, eval_number, eval_term
from .terms import (
    Div,
    Level,
    Lit,
    Term,
    classify,
    erase_decorations,
    format_term,
    parse_term,
)

# A level's tag (ft, fv, fs) is its Level value; its name is also its word in claims.
_LEVEL_NAMES = {
    Level.OCCURRENCE: "fracsign occurrence",
    Level.SIGN: "fracsign",
    Level.FRACTERM: "fracterm",
    Level.FRACVALUE: "fracvalue",
    Level.FRAXION: "fraxion",
}
_LEVEL_WORDS = {name: level for level, name in _LEVEL_NAMES.items()}


class Occurrence(Record):
    # term is undecorated, annotation comes from an explicit decoration, and
    # fraction_marked says that the word "fraction" introduced the occurrence.
    # _sign is the text the script wrote for it, and is no field.
    __slots__ = ("assertion", "position", "term", "annotation", "fraction_marked", "_sign")
    _defaults = {"annotation": None, "fraction_marked": False}

    def key(self):
        return (self.assertion, self.position)

    @property
    def sign(self) -> str:
        """The fracsign: the text (outer whitespace trimmed; without one, the
        term printed inline) with each tag of a / glued to ft or fv read
        away, once, as the lexer reads it: a decoration is no part of the
        sign. So 2/ft3, 2/fv3 and 2/3 are one sign, and (2)/3 is another."""
        head, *rest = (getattr(self, "_sign", None) or format_term(self.term)).split("/")
        return "/".join([head, *(p[2:] if p[:2] in ("ft", "fv") else p for p in rest)])

    def __reduce__(self):
        return _signed, (getattr(self, "_sign", None), *self._values())


def _signed(sign: str, *fields) -> Occurrence:
    """The occurrence of fields whose fracsign is sign."""
    occ = Occurrence(*fields)
    Occurrence._sign.__set__(occ, sign)
    return occ


class Claim(Record):
    """One parsed claim.

    ``kind`` names its row in ``CLAIM_KINDS``. ``role`` is the level the
    claim demands of its occurrences (rule 4), or None to leave them to the
    default. ``arg`` holds what else the claim states, in the form its row
    builds: a numeral, a target assertion, a level, flags or a witness term.
    """

    __slots__ = ("kind", "occurrences", "role", "positive", "arg")
    _defaults = {"occurrences": (), "role": None, "positive": True, "arg": None}

    @property
    def occ(self) -> Occurrence:
        return self.occurrences[0]


class Assertion(Record):
    __slots__ = ("index", "claim", "text")


class Script(Record):
    # shape_id and disjoint come from the @shape and @disjoint pragmas;
    # _by_index maps each index to its assertion, and is no field.
    __slots__ = ("assertions", "shape_id", "disjoint", "_by_index")
    _defaults = {"shape_id": None, "disjoint": None}

    def __post_init__(self):
        # Built backwards so that, as in a scan, the first of equal indices wins.
        Script._by_index.__set__(self, {a.index: a for a in reversed(self.assertions)})

    def assertion(self, index: int) -> Assertion:
        try:
            return self._by_index[index]
        except KeyError:
            raise DanglingReference(f"no assertion {index}") from None


# ---------------------------------------------------------------------------
# Parsing


# Numbers are ASCII digits, as in terms: \d would also match other scripts' digits.
_ASSERTION_RE = re.compile(r"^([0-9]+)\s*:\s*(.*\S)\s*$")


def _occurrence(index: int, position: int, text: str, line: int, parsed: dict) -> Occurrence:
    text = text.strip()
    marked = text.startswith("the fraction ")
    if marked:
        text = text[len("the fraction ") :].strip()
    if text not in parsed:
        try:
            term = parse_term(text)
        except FractermError as exc:
            raise ScriptError(f"bad term {text!r}: {exc}", line=line) from None
        annotation = Level(term.decoration) if isinstance(term, Div) and term.decoration else None
        parsed[text] = (erase_decorations(term), annotation)
    term, annotation = parsed[text]
    return _signed(text, index, position, term, annotation, marked)


def _match_claim(body: str, index: int, line: int, parsed: dict) -> Claim:
    """The claim of the first row of CLAIM_KINDS, in table order, whose pattern matches.

    A row's pattern is tried only on a body that holds the row's literal.
    Named groups of its match: ``occ`` and ``occ2`` are occurrences, ``neg``
    negates the claim and ``tag`` overrides the row's role; the row's
    ``arg`` reads the rest. The argument is read first, so a bad witness
    term is reported before a bad occurrence. parsed maps each occurrence
    text met so far to its term and annotation, so that equal texts share
    one term object, and with it the value that evaluation keeps on the term.
    """
    for kind, literal, pattern, row in _claim_dispatch():
        if literal in body:
            found = pattern.match(body)
            if found is not None:
                break
    else:
        raise ScriptError(f"unrecognized claim {body!r}", line=line)
    groups = found.groupdict()
    arg = row.arg(found, line) if row.arg else None
    occurrences = []
    for text in (groups.get("occ"), groups.get("occ2")):
        if text:
            occurrences.append(_occurrence(index, len(occurrences) + 1, text, line, parsed))
    tag = groups.get("tag")
    return Claim(kind, tuple(occurrences), Level(tag) if tag else row.role, not groups.get("neg"), arg)


def parse_script(text: str) -> Script:
    expect(text, str, "str")
    assertions: list[Assertion] = []
    shape_id = disjoint = None
    seen: set[int] = set()
    parsed: dict[str, tuple] = {}  # one term per occurrence text, for this script only
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("@shape", "@disjoint")):
            name, *value = line.split(None, 1)
            if name == "@shape" and value:
                shape_id = value[0]
            elif name == "@disjoint" and value in (["true"], ["false"]):
                disjoint = value == ["true"]
            else:
                raise ScriptError(
                    f"bad pragma {line!r}: expected '@shape <shape id>' or '@disjoint true|false'",
                    line=lineno,
                )
            continue
        m = _ASSERTION_RE.match(line)
        if not m:
            raise ScriptError(f"expected '<index>: <claim>', got {line!r}", line=lineno)
        index = _int_arg(m, lineno, 1)
        if index in seen:
            raise ScriptError(f"duplicate assertion index {index}", line=lineno)
        seen.add(index)
        claim = _match_claim(m.group(2), index, lineno, parsed)
        assertions.append(Assertion(index, claim, m.group(2)))
    if not assertions:
        raise ScriptError("script holds no assertions")
    script = Script(tuple(assertions), shape_id, disjoint)
    _resolve_references(script)
    return script


def _resolve_references(script: Script) -> None:
    indices = script._by_index
    for a in script.assertions:
        claim = a.claim
        if claim.kind == "level":
            target = claim.arg[0]
            if target not in indices:
                raise DanglingReference(f"level directive in {a.index} aims at missing assertion {target}")
            if not indices[target].claim.occurrences:
                raise DanglingReference(f"assertion {target} holds no fracsign occurrence")
        if claim.kind == "contradicts" and claim.arg not in indices:
            raise DanglingReference(f"assertion {a.index} contradicts missing assertion {claim.arg}")


# ---------------------------------------------------------------------------
# Level inference


def infer_levels(script: Script) -> dict[tuple[int, int], Level]:
    """Level for every occurrence, keyed by (assertion index, position)."""
    expect(script, Script, "script")
    directives: dict[int, Level] = {}
    for a in script.assertions:
        if a.claim.kind == "level":
            target, level = a.claim.arg
            prev = directives.get(target)
            if prev is not None and prev != level:
                raise LevelConflict(
                    f"assertion {target} receives levels "
                    f"{_LEVEL_NAMES[prev]} and {_LEVEL_NAMES[level]}"
                )
            directives[target] = level

    levels: dict[tuple[int, int], Level] = {}
    definition: Optional[Level] = None
    for a in script.assertions:
        if a.claim.kind == "def":
            definition = a.claim.arg
            continue
        directive = directives.get(a.index)
        for occ in a.claim.occurrences:
            forced = occ.annotation
            if directive is not None:
                if forced is not None and forced != directive:
                    raise LevelConflict(
                        f"occurrence {format_term(occ.term)} in assertion {a.index} is "
                        f"decorated {_LEVEL_NAMES[forced]} but directed to {_LEVEL_NAMES[directive]}"
                    )
                forced = directive
            if forced is None and occ.fraction_marked:
                forced = definition
            levels[occ.key()] = forced or a.claim.role or Level.FRACVALUE  # the most abstract referent
    return levels


# ---------------------------------------------------------------------------
# Checking


class StepStatus(Record):
    __slots__ = ("index", "status", "explanation")  # status: valid | invalid | level-conflict
    _defaults = {"explanation": None}

    @property
    def valid(self) -> bool:
        return self.status == "valid"


class Verdict(Record):
    __slots__ = ("steps", "overall", "blocked_at", "explanation")  # overall: sound | paradox-blocked
    _defaults = {"blocked_at": None, "explanation": None}

    def step(self, index: int) -> StepStatus:
        for s in self.steps:
            if s.index == index:
                return s
        raise KeyError(index)

    def to_json(self):
        return {
            "steps": [{"index": s.index, "status": s.status, "explanation": s.explanation} for s in self.steps],
            "overall": self.overall,
            "blocked_at": self.blocked_at,
            "explanation": self.explanation,
        }


class _Env:
    __slots__ = ("script", "cfg", "disjoint", "levels", "checked", "indexed", "positive", "equalities")

    def __init__(self, script: Script, cfg: EvalConfig, disjoint: bool, levels: dict[tuple[int, int], Level]):
        self.script = script
        self.cfg = cfg
        self.disjoint = disjoint
        self.levels = levels
        self.checked: list[tuple[Assertion, bool]] = []  # (step, valid) so far
        # The index of the first `indexed` steps, brought up to date when a
        # checker asks for premises, so a script that asks for none builds
        # none: where the positive steps of each kind sit in checked, and,
        # from the first conclusion on, the last valid equality under the
        # set of its terms.
        self.indexed = 0
        self.positive: dict[str, list[int]] = {}
        self.equalities: Optional[dict[frozenset, Assertion]] = None

    def _index(self) -> None:
        for i in range(self.indexed, len(self.checked)):
            a, valid = self.checked[i]
            if a.claim.positive:
                self.positive.setdefault(a.claim.kind, []).append(i)
                if valid and a.claim.kind == "equals" and self.equalities is not None:
                    self.equalities[_terms_of(a)] = a
        self.indexed = len(self.checked)

    def level(self, occ: Occurrence) -> Level:
        return self.levels[occ.key()]

    def value_of(self, term: Term):  # a Fraction, or BOTTOM
        return eval_number(term, self.cfg.policy)

    def fracterm_is_number(self, term: Term) -> bool:
        """Whether the fracterm itself is one of the shape's numbers."""
        return not self.disjoint and classify(term).simplified

    def premises(self, *kinds: str) -> list[tuple[Assertion, bool]]:
        """The steps checked so far that affirm a claim of one of `kinds`, in order."""
        self._index()
        positions = sorted([i for kind in kinds for i in self.positive.get(kind, ())])
        return [self.checked[i] for i in positions]

    def equality(self, terms: frozenset) -> Optional[Assertion]:
        """The last valid equality checked so far whose terms are `terms`."""
        self._index()
        if self.equalities is None:
            self.equalities = {_terms_of(a): a for a, ok in self.premises("equals") if ok}
        return self.equalities.get(terms)


def _terms_of(a: Assertion) -> frozenset:
    return frozenset(o.term for o in a.claim.occurrences)


# A checker returns (status, explanation).
_VALID = ("valid", None)


def _valid(env: _Env, claim: Claim):
    return _VALID


def _check_component(env: _Env, claim: Claim):
    which = "numerator" if claim.kind == "num" else "denominator"
    level = env.level(claim.occ)
    if level is Level.FRACVALUE:
        return (
            "level-conflict",
            f"the occurrence is read as a fracvalue, and a fracvalue has no "
            f"{which}: values do not split into numerator and denominator",
        )
    term = claim.occ.term
    if not classify(term).is_fracterm:
        return "invalid", f"{format_term(term)} has no leading division"
    component = term.left if which == "numerator" else term.right
    if not (isinstance(component, Lit) and component.value == claim.arg):
        return (
            "invalid",
            f"the {which} of {format_term(term)} is {format_term(component)}, not {claim.arg}",
        )
    return _VALID


def _check_unique_numerator(env: _Env, claim: Claim):
    if claim.arg is Level.FRACVALUE:
        return "invalid", "fracvalues do not split, so nothing is extracted uniquely"
    return _VALID


def _check_equals(env: _Env, claim: Claim):
    left, right = claim.occurrences
    ll, rl = env.level(left), env.level(right)
    if ll != rl:
        return (
            "invalid",
            f"cross-level equation: left occurrence is a {_LEVEL_NAMES[ll]}, right a {_LEVEL_NAMES[rl]}",
        )
    # A fracsign is a text, a fracterm a tree and a fracvalue a number.
    if ll is Level.SIGN:
        ok = left.sign == right.sign
    elif ll is Level.FRACVALUE:
        ok = env.value_of(left.term) == env.value_of(right.term)
    else:
        ok = left.term == right.term
    if not ok:
        shown = (left.sign, right.sign) if ll is Level.SIGN else (format_term(left.term), format_term(right.term))
        return "invalid", f"{shown[0]} and {shown[1]} differ as {_LEVEL_NAMES[ll]}s"
    return _VALID


def _check_is_rational(env: _Env, claim: Claim):
    occ = claim.occ
    level = env.level(occ)
    if level is Level.FRACVALUE:  # the occurrence is printed only for an invalid claim
        valid = (env.value_of(occ.term) is not BOTTOM) == claim.positive
        return _VALID if valid else ("invalid", f"the fracvalue of {format_term(occ.term)}")
    if level is Level.FRACTERM:
        actual = env.fracterm_is_number(occ.term)
        detail = (
            f"the occurrence is fixed at the fracterm level, and "
            f"{'only simplified simple fracterms are numbers here' if not env.disjoint else 'no fracterm is a rational number under the disjoint reading'}"
        )
    else:
        actual = False
        detail = f"a {_LEVEL_NAMES[level]} is not a number"
    if actual == claim.positive:
        return _VALID
    return "invalid", detail


def _check_is_fracterm(env: _Env, claim: Claim):
    level = env.level(claim.occ)
    if level is Level.FRACTERM:
        actual = classify(claim.occ.term).is_fracterm
    elif level is Level.FRACVALUE:
        actual = env.fracterm_is_number(claim.occ.term)
    else:
        actual = False
    if actual == claim.positive:
        return _VALID
    return (
        "invalid",
        f"read as a {_LEVEL_NAMES[level]}, {format_term(claim.occ.term)} is "
        f"{'not ' if claim.positive else ''}a fracterm",
    )


def _check_taxonomy(env: _Env, claim: Claim):
    if env.level(claim.occ) is Level.FRACVALUE:
        return "level-conflict", "syntactic classification applies to fracterms, not fracvalues"
    flags = classify(claim.occ.term)
    for flag in claim.arg:
        actual = getattr(flags, flag)
        if actual is None:
            return "invalid", "proper is defined only for simple fracterms"
        if actual != claim.positive:
            return (
                "invalid",
                f"{format_term(claim.occ.term)} is {'not ' if claim.positive else ''}{flag}",
            )
    return _VALID


def _check_both_levels(env: _Env, claim: Claim):
    if env.fracterm_is_number(claim.occ.term):
        return _VALID
    if env.disjoint:
        return "invalid", "fracterms and fracvalues are disjoint collections; no reading makes both true"
    return "invalid", f"{format_term(claim.occ.term)} is not one of the shape's numbers"


def _check_may_be_rational(env: _Env, claim: Claim):
    level = env.level(claim.occ)
    if level in (Level.FRAXION, Level.FRACVALUE):
        return _VALID
    return (
        "invalid",
        f"the fracvalue reading of this occurrence was ruled out (it is a {_LEVEL_NAMES[level]})",
    )


def _check_even_integer(env: _Env, claim: Claim):
    level = env.level(claim.occ)
    if level is not Level.FRACVALUE:
        return "level-conflict", f"an integer judgement needs the fracvalue reading, not a {_LEVEL_NAMES[level]}"
    exact = env.value_of(claim.occ.term)
    if exact is BOTTOM:
        return "invalid", "the value is bottom, not an integer"
    if exact.denominator == 1 and exact.numerator % 2 == 0:
        return _VALID
    if not _printable(exact):
        return "invalid", f"the value of {format_term(claim.occ.term)} is not an even integer"
    return "invalid", f"the value {exact} is not an even integer"


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _check_comparison(env: _Env, claim: Claim):
    level = env.level(claim.occ)
    if level is not Level.FRACVALUE:
        return (
            "level-conflict",
            f"a numeric comparison needs the fracvalue reading, not a {_LEVEL_NAMES[level]}",
        )
    exact = env.value_of(claim.occ.term)
    if exact is BOTTOM:
        return "invalid", "the value is bottom and compares with nothing"
    op, bound = claim.arg
    if _COMPARE[op](exact, bound):
        return _VALID
    shown = exact if _printable(exact) else format_term(claim.occ.term)
    return "invalid", f"{shown} {op} {bound} does not hold"


def _printable(exact: Fraction) -> bool:
    # Past Python's int/str digit limit an explanation names the value by
    # its term instead.
    return fits_str_digits(exact.numerator) and fits_str_digits(exact.denominator)


def _check_can_simplify(env: _Env, claim: Claim):
    if env.level(claim.occ) is Level.FRACVALUE:
        return "level-conflict", "simplification applies to fracterms, not fracvalues"
    flags = classify(claim.occ.term)
    if flags.simple and not flags.simplified and claim.occ.term.right.value != 0:
        return _VALID
    return "invalid", "no simplification step applies"


def _check_writable_flat(env: _Env, claim: Claim):
    # Every term flattens (rewrite.flatten); the subject is read first, so an open one raises.
    term, witness = claim.occ.term, claim.arg
    value = env.value_of(term)
    if classify(witness).flat and env.value_of(witness) == value:
        return _VALID
    return "invalid", f"{format_term(witness)} is not a flat form of {format_term(term)}"


def _check_rationals_not_fracterms(env: _Env, claim: Claim):
    if env.disjoint:
        return _VALID
    return "invalid", "under this shape the simplified simple fracterms are the rational numbers"


def _check_not_all_fracterms_rational(env: _Env, claim: Claim):
    if claim.occurrences and env.fracterm_is_number(claim.occ.term):
        return "invalid", f"{format_term(claim.occ.term)} is one of the shape's numbers"
    return _VALID


def _check_contradicts(env: _Env, claim: Claim):
    target = env.script.assertion(claim.arg).claim
    if target.kind not in ("rationals-not-fracterms", "not-all-fracterms-rational"):
        return "invalid", "the cited assertion is not a universal claim"
    sign = claim.occ.sign
    # "x is fracterm and fracvalue" asserts both premises of one occurrence.
    rationals = [p for p in env.premises("rational", "both-levels") if p[0].claim.occ.sign == sign]
    fracterms = [p for p in env.premises("fracterm", "both-levels") if p[0].claim.occ.sign == sign]
    if not rationals or not fracterms:
        return "invalid", "no premises support a contradiction"
    valid_r = [a for a, ok in rationals if ok]
    valid_f = [a for a, ok in fracterms if ok]
    if not valid_r or not valid_f:
        broken = rationals if not valid_r else fracterms
        return (
            "invalid",
            f"the contradiction dissolves: the premise in step {broken[0][0].index} "
            f"is itself invalid",
        )
    r_levels = [env.level(a.claim.occ) for a in valid_r]
    f_levels = [env.level(a.claim.occ) for a in valid_f]
    if set(r_levels) & set(f_levels):
        # Both premises genuinely hold of a single reading of the sign.
        return _VALID
    return (
        "invalid",
        f"the sign {sign} is a {_LEVEL_NAMES[r_levels[0]]} in step {valid_r[0].index} "
        f"and a {_LEVEL_NAMES[f_levels[0]]} in step {valid_f[0].index}; distinct occurrences of one "
        f"sign do not combine into a single entity",
    )


def _check_conclude(env: _Env, claim: Claim):
    """Valid only for equal numerators. Two distinct ones never conclude
    equal, not even with premises at one level: valid ``num`` premises sit
    at the fracterm or fracsign level, where a valid connecting equality
    joins equal terms, which have one numerator."""
    left_n, right_n = claim.arg
    if left_n == right_n:
        return _VALID
    numerators = [a for a, ok in env.premises("num") if ok]
    left = [a for a in numerators if a.claim.arg == left_n]
    right = [a for a in numerators if a.claim.arg == right_n]
    if not left or not right:
        return "invalid", "does not follow from the preceding assertions"
    left, right = left[-1], right[-1]
    l_level, r_level = env.level(left.claim.occ), env.level(right.claim.occ)
    eq = env.equality(frozenset((left.claim.occ.term, right.claim.occ.term)))
    if eq is None:
        return "invalid", "no equality connects the two numerator bearers"
    eq_level = env.level(eq.claim.occ)
    unique = [a for a, ok in env.premises("unique-numerator") if ok]
    if not unique:
        return "invalid", "uniqueness of numerators was never established"
    # The fraxion reading resolves to the fracterm level: extraction fits
    # terms, not values.
    uniq_level = unique[-1].claim.arg
    if uniq_level is Level.FRAXION:
        uniq_level = Level.FRACTERM
    if l_level is r_level:
        taken = f"the {_LEVEL_NAMES[l_level]} level (steps {left.index} and {right.index})"
    else:
        taken = (f"the {_LEVEL_NAMES[l_level]} level (step {left.index}) and "
                 f"the {_LEVEL_NAMES[r_level]} level (step {right.index})")
    return (
        "invalid",
        f"numerators were taken at {taken} and their uniqueness holds at the "
        f"{_LEVEL_NAMES[uniq_level]} level, but "
        f"the equality in step {eq.index} holds at the {_LEVEL_NAMES[eq_level]} level; the "
        f"conclusion does not transfer across levels",
    )


# ---------------------------------------------------------------------------
# The claim table


class _Kind(NamedTuple):
    # Matched from the start of the claim body, in table order: the first
    # match wins. Every body the pattern matches holds literal, so a body
    # without it skips the row ("" skips none). Compiled on first use.
    pattern: str
    literal: str
    role: Optional[Level]  # rule 4; None leaves the occurrences to the default
    arg: Optional[Callable[[re.Match, int], object]]  # (the row's match, line) -> Claim.arg
    check: Callable[[_Env, Claim], tuple[str, Optional[str]]]


def _int_arg(m, line: int, group="n") -> int:
    # The patterns admit only digits: int() fails only past the int/str digit limit.
    try:
        return int(m[group])
    except ValueError:
        raise ScriptError(f"a {len(m[group])}-character number exceeds the int/str digit limit", line=line) from None


def _witness_arg(m: re.Match, line: int) -> Term:
    try:
        witness = parse_term(m["witness"].strip())
    except FractermError as exc:
        raise ScriptError(f"bad witness term: {exc}", line=line) from None
    return erase_decorations(witness)


_FLAG_WORDS = "flat|simple|simplified|proper"
_DEFINITIONS = {"number": Level.FRACVALUE, "fracterm": Level.FRACTERM, "fracsign": Level.SIGN}

CLAIM_KINDS: dict[str, _Kind] = {
    "num": _Kind(r"^num\((?P<occ>.+)\)\s*=\s*(?P<n>-?[0-9]+)$", "num(", Level.FRACTERM, _int_arg, _check_component),
    "denom": _Kind(
        r"^denom\((?P<occ>.+)\)\s*=\s*(?P<n>-?[0-9]+)$", "denom(", Level.FRACTERM, _int_arg, _check_component
    ),
    "unique-numerator": _Kind(
        r"^(?P<word>fraxion|fracterm|fracvalue|fracsign)s have a unique numerator$", "s have a unique numerator",
        None,
        lambda m, line: _LEVEL_WORDS[m["word"]],
        _check_unique_numerator,
    ),
    "level": _Kind(
        r"^level\((?P<n>[0-9]+)\)\s*=\s*(?P<to>ft|fv|fs)$", "level(",
        None,
        lambda m, line: (_int_arg(m, line), Level(m["to"])),
        _valid,
    ),
    "conclude": _Kind(
        r"^conclude\s+(?P<left>-?[0-9]+)\s*=\s*(?P<right>-?[0-9]+)$", "conclude",
        None,
        lambda m, line: (_int_arg(m, line, "left"), _int_arg(m, line, "right")),
        _check_conclude,
    ),
    "def": _Kind(
        r"^def:\s*fraction is (?P<reading>number|fracterm|fracsign)$", "def:",
        None,
        lambda m, line: _DEFINITIONS[m["reading"]],
        _valid,
    ),
    "all-rationals-fraxions": _Kind(r"^all rationals are fraxions$", "all rationals are fraxions", None, None, _valid),
    "not-all-fraxions-rational": _Kind(
        r"^not all fraxions are rational$", "not all fraxions are rational", None, None, _valid
    ),
    "rationals-not-fracterms": _Kind(
        r"^rationals are not fracterms$", "rationals are not fracterms", None, None, _check_rationals_not_fracterms
    ),
    # The witness is named as a fracterm.
    "not-all-fracterms-rational": _Kind(
        r"^not all fracterms are rational(?:,\s*witness\s+(?P<occ>.+))?$", "not all fracterms are rational",
        Level.FRACTERM,
        None,
        _check_not_all_fracterms_rational,
    ),
    # Each side ends on a non-blank, so no start of a side rescans a run of blanks.
    "equals": _Kind(
        r"^(?P<occ>.*?\S)\s*==\s*(?P<occ2>.*?\S)(?:\s*@(?P<tag>ft|fv|fs))?$", "==", Level.FRACVALUE, None, _check_equals
    ),
    # A numeric judgement such as 4/3 > 1 leaves the sign to the default:
    # the most abstract referent, a fracvalue. Its operator is one of four,
    # so its literal is empty: the row is always tried, and its lookahead
    # fails a body with no "<" or ">" before any scan of the lazy side.
    "comparison": _Kind(
        r"^(?=[^<>]*[<>])(?P<occ>.*?\S)\s*(?P<op><=|>=|<|>)\s*(?P<n>-?[0-9]+)$", "",
        None,
        lambda m, line: (m["op"], _int_arg(m, line)),
        _check_comparison,
    ),
    "both-levels": _Kind(
        r"^(?P<occ>.+?) is fracterm and fracvalue$", " is fracterm and fracvalue",
        Level.FRAXION,
        None,
        _check_both_levels,
    ),
    "fraxion": _Kind(r"^(?P<occ>.+?) is fraxion$", " is fraxion", Level.FRAXION, None, _valid),
    "may-be-rational": _Kind(
        r"^(?P<occ>.+?) may be rational$", " may be rational", Level.FRAXION, None, _check_may_be_rational
    ),
    "even-integer": _Kind(
        r"^(?P<occ>.+?) is an even integer$", " is an even integer", Level.FRACVALUE, None, _check_even_integer
    ),
    "can-simplify": _Kind(
        r"^(?P<occ>.+?) can be simplified$", " can be simplified", Level.FRACTERM, None, _check_can_simplify
    ),
    "writable-flat": _Kind(
        r"^(?P<occ>.+?) can be written flat as (?P<witness>.+)$", " can be written flat as ",
        Level.FRACTERM,
        _witness_arg,
        _check_writable_flat,
    ),
    "contradicts": _Kind(
        r"^(?P<occ>.+?) contradicts (?P<n>[0-9]+)$", " contradicts ", Level.FRAXION, _int_arg, _check_contradicts
    ),
    "rational": _Kind(
        r"^(?P<occ>.+?) is (?P<neg>not )?rational$", "rational", Level.FRACVALUE, None, _check_is_rational
    ),
    "fracterm": _Kind(
        r"^(?P<occ>.+?) is (?P<neg>not )?fracterm$", "fracterm", Level.FRACTERM, None, _check_is_fracterm
    ),
    "taxonomy": _Kind(
        rf"^(?P<occ>.+?) is (?P<neg>not )?(?P<flags>(?:{_FLAG_WORDS})(?: and (?:{_FLAG_WORDS}))*)$", " is ",
        Level.FRACTERM,
        lambda m, line: tuple(m["flags"].split(" and ")),
        _check_taxonomy,
    ),
}


@functools.cache
def _claim_dispatch() -> tuple[tuple[str, str, re.Pattern, _Kind], ...]:
    """Each row of CLAIM_KINDS, in table order, as (kind, literal, compiled pattern, row).

    _match_claim tries the rows in this order, each only on a body that
    holds its literal, so the first row that matches wins."""
    return tuple((kind, row.literal, re.compile(row.pattern), row) for kind, row in CLAIM_KINDS.items())


def check(
    script: Script,
    shape_id: Optional[str] = None,
    disjoint: Optional[bool] = None,
) -> Verdict:
    """Validate every assertion at its inferred level and issue a verdict.

    The default shape is rat.pcs, under which fracterms and fracvalues are
    disjoint; rat.ssft makes the simplified simple fracterms themselves the
    numbers. Script pragmas supply defaults; arguments win.
    """
    expect(script, Script, "script")
    shape_id = shape_id or script.shape_id or "rat.pcs"
    if disjoint is None:
        disjoint = script.disjoint
    if disjoint is None:
        disjoint = shape_id != "rat.ssft"
    # The shape is checked here, before any step, even when no claim
    # evaluates a value.
    env = _Env(script, EvalConfig("common-meadow", shape_id), disjoint, infer_levels(script))
    statuses: list[StepStatus] = []
    for a in script.assertions:
        status = StepStatus(a.index, *CLAIM_KINDS[a.claim.kind].check(env, a.claim))
        env.checked.append((a, status.valid))
        statuses.append(status)
    bad = [s for s in statuses if not s.valid]
    if not bad:
        return Verdict(tuple(statuses), "sound")
    first = bad[0]
    return Verdict(tuple(statuses), "paradox-blocked", first.index, first.explanation)


def __getattr__(name):
    # perfbench's traced runs rebind eval_term and flatten here; no claim calls either.
    if name == "flatten":
        from .rewrite import flatten
        return flatten
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
