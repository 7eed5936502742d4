"""Fractalk scripts: numbered assertions about fracsign occurrences.

A script is a sequence of claims, each mentioning zero or more fracsign
occurrences. Every occurrence gets a level of abstraction (occurrence, sign,
fracterm, fracvalue, or the undecided fraxion), inferred from:

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
move a fact across levels are flagged instead of silently accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from . import shapes
from .errors import DanglingReference, LevelConflict, ScriptError
from .rewrite import flatten
from .semantics import BOTTOM, EvalConfig, NumberValue, eval_term, value_eq
from .terms import Div, Level, Lit, Term, classify, erase_decorations, format_term, parse_term

_LEVEL_TAGS = {"ft": Level.FRACTERM, "fv": Level.FRACVALUE, "fs": Level.SIGN}
_LEVEL_WORDS = {
    "fraxion": Level.FRAXION,
    "fracterm": Level.FRACTERM,
    "fracvalue": Level.FRACVALUE,
    "fracsign": Level.SIGN,
}
_LEVEL_NAMES = {
    Level.OCCURRENCE: "fracsign occurrence",
    Level.SIGN: "fracsign",
    Level.FRACTERM: "fracterm",
    Level.FRACVALUE: "fracvalue",
    Level.FRAXION: "fraxion",
}


@dataclass(frozen=True)
class Occurrence:
    assertion: int
    position: int
    term: Term  # undecorated
    annotation: Optional[Level] = None  # from an explicit decoration
    fraction_marked: bool = False  # introduced by the word "fraction"

    def key(self):
        return (self.assertion, self.position)


# --- claim kinds -----------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    def occurrences(self) -> tuple[Occurrence, ...]:
        return ()


@dataclass(frozen=True)
class HasNumerator(Claim):
    occ: Occurrence
    numeral: int

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class HasDenominator(Claim):
    occ: Occurrence
    numeral: int

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class UniqueNumerator(Claim):
    level: Level


@dataclass(frozen=True)
class Equals(Claim):
    left: Occurrence
    right: Occurrence
    annotation: Optional[Level] = None

    def occurrences(self):
        return (self.left, self.right)


@dataclass(frozen=True)
class IsRational(Claim):
    occ: Occurrence
    positive: bool = True

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class IsFracterm(Claim):
    occ: Occurrence
    positive: bool = True

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class TaxonomyIs(Claim):
    occ: Occurrence
    flags: tuple[str, ...]
    positive: bool = True

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class BothLevels(Claim):
    """The occurrence is a fracterm and a fracvalue at the same time."""

    occ: Occurrence

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class IsFraxion(Claim):
    occ: Occurrence

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class MayBeRational(Claim):
    occ: Occurrence

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class EvenInteger(Claim):
    occ: Occurrence

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class Comparison(Claim):
    """A numeric judgement such as 4/3 > 1; the sign defaults to its value."""

    occ: Occurrence
    op: str  # < | <= | > | >=
    bound: int

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class CanSimplify(Claim):
    occ: Occurrence

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class WritableFlat(Claim):
    occ: Occurrence
    witness: Term

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class AllRationalsFraxions(Claim):
    pass


@dataclass(frozen=True)
class NotAllFraxionsRational(Claim):
    pass


@dataclass(frozen=True)
class RationalsNotFracterms(Claim):
    pass


@dataclass(frozen=True)
class NotAllFractermsRational(Claim):
    witness: Optional[Occurrence] = None

    def occurrences(self):
        return (self.witness,) if self.witness else ()


@dataclass(frozen=True)
class LevelDirective(Claim):
    target: int
    level: Level


@dataclass(frozen=True)
class Definitional(Claim):
    text: str
    reading: Level


@dataclass(frozen=True)
class Contradicts(Claim):
    occ: Occurrence
    target: int

    def occurrences(self):
        return (self.occ,)


@dataclass(frozen=True)
class Conclude(Claim):
    left: int
    right: int


@dataclass(frozen=True)
class Assertion:
    index: int
    claim: Claim
    text: str


@dataclass(frozen=True)
class Script:
    assertions: tuple[Assertion, ...]
    shape_id: Optional[str] = None  # from an @shape pragma
    disjoint: Optional[bool] = None  # from an @disjoint pragma

    def assertion(self, index: int) -> Assertion:
        for a in self.assertions:
            if a.index == index:
                return a
        raise DanglingReference(f"no assertion {index}")


# ---------------------------------------------------------------------------
# Parsing


_ASSERTION_RE = re.compile(r"^(\d+)\s*:\s*(.*\S)\s*$")
_FLAG_WORDS = ("flat", "simple", "simplified", "proper")


class _OccFactory:
    def __init__(self, index: int):
        self.index = index
        self.position = 0

    def make(self, text: str, line: int) -> Occurrence:
        text = text.strip()
        marked = False
        if text.startswith("the fraction "):
            marked = True
            text = text[len("the fraction ") :].strip()
        try:
            term = parse_term(text)
        except Exception as exc:
            raise ScriptError(f"bad term {text!r}: {exc}", line=line) from None
        annotation = None
        if isinstance(term, Div) and term.decoration is not None:
            annotation = _LEVEL_TAGS[term.decoration]
        self.position += 1
        return Occurrence(
            assertion=self.index,
            position=self.position,
            term=erase_decorations(term),
            annotation=annotation,
            fraction_marked=marked,
        )


def _parse_claim(body: str, occs: _OccFactory, line: int) -> Claim:
    m = re.match(r"^num\((.+)\)\s*=\s*(-?\d+)$", body)
    if m:
        return HasNumerator(occs.make(m.group(1), line), int(m.group(2)))
    m = re.match(r"^denom\((.+)\)\s*=\s*(-?\d+)$", body)
    if m:
        return HasDenominator(occs.make(m.group(1), line), int(m.group(2)))
    m = re.match(r"^(fraxion|fracterm|fracvalue|fracsign)s have a unique numerator$", body)
    if m:
        return UniqueNumerator(_LEVEL_WORDS[m.group(1)])
    m = re.match(r"^level\((\d+)\)\s*=\s*(ft|fv|fs)$", body)
    if m:
        return LevelDirective(int(m.group(1)), _LEVEL_TAGS[m.group(2)])
    m = re.match(r"^conclude\s+(-?\d+)\s*=\s*(-?\d+)$", body)
    if m:
        return Conclude(int(m.group(1)), int(m.group(2)))
    m = re.match(r"^def:\s*fraction is (number|fracterm|fracsign)$", body)
    if m:
        reading = {
            "number": Level.FRACVALUE,
            "fracterm": Level.FRACTERM,
            "fracsign": Level.SIGN,
        }[m.group(1)]
        return Definitional(body, reading)
    if body == "all rationals are fraxions":
        return AllRationalsFraxions()
    if body == "not all fraxions are rational":
        return NotAllFraxionsRational()
    if body == "rationals are not fracterms":
        return RationalsNotFracterms()
    m = re.match(r"^not all fracterms are rational(?:,\s*witness\s+(.+))?$", body)
    if m:
        witness = occs.make(m.group(1), line) if m.group(1) else None
        return NotAllFractermsRational(witness)
    m = re.match(r"^(.+?)\s*==\s*(.+?)(?:\s*@(ft|fv|fs))?$", body)
    if m:
        return Equals(
            occs.make(m.group(1), line),
            occs.make(m.group(2), line),
            _LEVEL_TAGS[m.group(3)] if m.group(3) else None,
        )
    m = re.match(r"^(.+?)\s*(<=|>=|<|>)\s*(-?\d+)$", body)
    if m:
        return Comparison(occs.make(m.group(1), line), m.group(2), int(m.group(3)))
    m = re.match(r"^(.+?) is fracterm and fracvalue$", body)
    if m:
        return BothLevels(occs.make(m.group(1), line))
    m = re.match(r"^(.+?) is fraxion$", body)
    if m:
        return IsFraxion(occs.make(m.group(1), line))
    m = re.match(r"^(.+?) may be rational$", body)
    if m:
        return MayBeRational(occs.make(m.group(1), line))
    m = re.match(r"^(.+?) is an even integer$", body)
    if m:
        return EvenInteger(occs.make(m.group(1), line))
    m = re.match(r"^(.+?) can be simplified$", body)
    if m:
        return CanSimplify(occs.make(m.group(1), line))
    m = re.match(r"^(.+?) can be written flat as (.+)$", body)
    if m:
        try:
            witness = parse_term(m.group(2).strip())
        except Exception as exc:
            raise ScriptError(f"bad witness term: {exc}", line=line) from None
        return WritableFlat(occs.make(m.group(1), line), erase_decorations(witness))
    m = re.match(r"^(.+?) contradicts (\d+)$", body)
    if m:
        return Contradicts(occs.make(m.group(1), line), int(m.group(2)))
    m = re.match(r"^(.+?) is (not )?rational$", body)
    if m:
        return IsRational(occs.make(m.group(1), line), m.group(2) is None)
    m = re.match(r"^(.+?) is (not )?fracterm$", body)
    if m:
        return IsFracterm(occs.make(m.group(1), line), m.group(2) is None)
    flag_alt = "|".join(_FLAG_WORDS)
    m = re.match(rf"^(.+?) is (not )?({flag_alt})((?: and (?:{flag_alt}))*)$", body)
    if m:
        flags = [m.group(3)] + re.findall(rf"and ({flag_alt})", m.group(4) or "")
        return TaxonomyIs(occs.make(m.group(1), line), tuple(flags), m.group(2) is None)
    raise ScriptError(f"unrecognized claim {body!r}", line=line)


def parse_script(text: str) -> Script:
    assertions: list[Assertion] = []
    shape_id = None
    disjoint = None
    seen: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("@shape"):
            shape_id = line.split(None, 1)[1].strip()
            continue
        if line.startswith("@disjoint"):
            disjoint = line.split(None, 1)[1].strip() == "true"
            continue
        m = _ASSERTION_RE.match(line)
        if not m:
            raise ScriptError(f"expected '<index>: <claim>', got {line!r}", line=lineno)
        index = int(m.group(1))
        if index in seen:
            raise ScriptError(f"duplicate assertion index {index}", line=lineno)
        seen.add(index)
        factory = _OccFactory(index)
        claim = _parse_claim(m.group(2), factory, lineno)
        assertions.append(Assertion(index, claim, m.group(2)))
    if not assertions:
        raise ScriptError("script holds no assertions")
    script = Script(tuple(assertions), shape_id, disjoint)
    _resolve_references(script)
    return script


def _resolve_references(script: Script) -> None:
    indices = {a.index for a in script.assertions}
    for a in script.assertions:
        claim = a.claim
        if isinstance(claim, LevelDirective):
            if claim.target not in indices:
                raise DanglingReference(f"level directive in {a.index} aims at missing assertion {claim.target}")
            target = script.assertion(claim.target)
            if not target.claim.occurrences():
                raise DanglingReference(f"assertion {claim.target} holds no fracsign occurrence")
        if isinstance(claim, Contradicts) and claim.target not in indices:
            raise DanglingReference(f"assertion {a.index} contradicts missing assertion {claim.target}")


# ---------------------------------------------------------------------------
# Level inference


def _role_constraint(claim: Claim, occ: Occurrence) -> Optional[Level]:
    if isinstance(claim, (HasNumerator, HasDenominator)):
        return Level.FRACTERM
    if isinstance(claim, (TaxonomyIs, CanSimplify, WritableFlat, IsFracterm)):
        return Level.FRACTERM
    if isinstance(claim, NotAllFractermsRational):
        return Level.FRACTERM  # the witness is named as a fracterm
    if isinstance(claim, (IsRational, EvenInteger)):
        return Level.FRACVALUE
    if isinstance(claim, Equals):
        return claim.annotation or Level.FRACVALUE
    if isinstance(claim, (BothLevels, IsFraxion, MayBeRational, Contradicts)):
        return Level.FRAXION
    # Comparison and the like leave the occurrence to the default rule:
    # the most abstract referent, a fracvalue.
    return None


def infer_levels(script: Script) -> dict[tuple[int, int], Level]:
    """Level for every occurrence, keyed by (assertion index, position)."""
    directives: dict[int, Level] = {}
    for a in script.assertions:
        if isinstance(a.claim, LevelDirective):
            prev = directives.get(a.claim.target)
            if prev is not None and prev != a.claim.level:
                raise LevelConflict(
                    f"assertion {a.claim.target} receives levels "
                    f"{_LEVEL_NAMES[prev]} and {_LEVEL_NAMES[a.claim.level]}"
                )
            directives[a.claim.target] = a.claim.level

    levels: dict[tuple[int, int], Level] = {}
    definition: Optional[Level] = None
    for a in script.assertions:
        if isinstance(a.claim, Definitional):
            definition = a.claim.reading
            continue
        directive = directives.get(a.index)
        for occ in a.claim.occurrences():
            forced = occ.annotation
            if directive is not None:
                if forced is not None and forced != directive:
                    raise LevelConflict(
                        f"occurrence {format_term(occ.term)} in assertion {a.index} is "
                        f"decorated {_LEVEL_NAMES[forced]} but directed to {_LEVEL_NAMES[directive]}"
                    )
                forced = directive
            if forced is None and occ.fraction_marked and definition is not None:
                forced = definition
            if forced is None:
                forced = _role_constraint(a.claim, occ)
            if forced is None:
                forced = Level.FRACVALUE  # the most abstract referent
            levels[occ.key()] = forced
    return levels


# ---------------------------------------------------------------------------
# Checking


@dataclass(frozen=True)
class StepStatus:
    index: int
    status: str  # valid | invalid | level-conflict
    explanation: Optional[str] = None

    @property
    def valid(self) -> bool:
        return self.status == "valid"


@dataclass(frozen=True)
class Verdict:
    steps: tuple[StepStatus, ...]
    overall: str  # sound | paradox-blocked
    blocked_at: Optional[int] = None
    explanation: Optional[str] = None

    def step(self, index: int) -> StepStatus:
        for s in self.steps:
            if s.index == index:
                return s
        raise KeyError(index)

    def to_json(self):
        return {
            "steps": [
                {"index": s.index, "status": s.status, "explanation": s.explanation}
                for s in self.steps
            ],
            "overall": self.overall,
            "blocked_at": self.blocked_at,
            "explanation": self.explanation,
        }


@dataclass
class _Env:
    shape_id: str
    disjoint: bool
    levels: dict[tuple[int, int], Level]
    statuses: dict[int, StepStatus] = field(default_factory=dict)
    numerators: list = field(default_factory=list)  # (occ, numeral, level, index, ok)
    equalities: list = field(default_factory=list)  # (claim, level, index, ok)
    unique_levels: list = field(default_factory=list)  # (resolved level, index)
    rational_claims: list = field(default_factory=list)  # (occ, level, index, ok)
    fracterm_claims: list = field(default_factory=list)  # (occ, level, index, ok)

    def level(self, occ: Occurrence) -> Level:
        return self.levels[occ.key()]

    def cfg(self) -> EvalConfig:
        return EvalConfig("common-meadow", self.shape_id)

    def value_of(self, term: Term):
        return eval_term(term, self.cfg())

    def fracterm_is_number(self, term: Term) -> bool:
        """Whether the fracterm itself is one of the shape's numbers."""
        if self.disjoint:
            return False
        return classify(term).simplified


def _name(level: Level) -> str:
    return _LEVEL_NAMES[level]


def _check_has_component(env: _Env, a: Assertion, which: str):
    claim = a.claim
    occ = claim.occ
    level = env.level(occ)
    if level is Level.FRACVALUE:
        return StepStatus(
            a.index,
            "level-conflict",
            f"the occurrence is read as a fracvalue, and a fracvalue has no "
            f"{which}: values do not split into numerator and denominator",
        )
    term = occ.term
    if not classify(term).is_fracterm:
        return StepStatus(a.index, "invalid", f"{format_term(term)} has no leading division")
    component = term.left if which == "numerator" else term.right
    ok = isinstance(component, Lit) and component.value == claim.numeral
    if not ok:
        return StepStatus(
            a.index,
            "invalid",
            f"the {which} of {format_term(term)} is {format_term(component)},"
            f" not {claim.numeral}",
        )
    return StepStatus(a.index, "valid")


def _check_equals(env: _Env, a: Assertion):
    claim = a.claim
    ll, rl = env.level(claim.left), env.level(claim.right)
    if ll != rl:
        return StepStatus(
            a.index,
            "invalid",
            f"cross-level equation: left occurrence is a {_name(ll)}, right a {_name(rl)}",
        )
    if ll is Level.FRACVALUE:
        ok = value_eq(env.value_of(claim.left.term), env.value_of(claim.right.term))
    else:
        ok = claim.left.term == claim.right.term
    if not ok:
        return StepStatus(
            a.index,
            "invalid",
            f"{format_term(claim.left.term)} and {format_term(claim.right.term)} "
            f"differ as {_name(ll)}s",
        )
    return StepStatus(a.index, "valid")


def _check_is_rational(env: _Env, a: Assertion):
    claim = a.claim
    occ = claim.occ
    level = env.level(occ)
    if level is Level.FRACVALUE:
        actual = isinstance(env.value_of(occ.term), NumberValue)
        detail = f"the fracvalue of {format_term(occ.term)}"
    elif level is Level.FRACTERM:
        actual = env.fracterm_is_number(occ.term)
        detail = (
            f"the occurrence is fixed at the fracterm level, and "
            f"{'only simplified simple fracterms are numbers here' if not env.disjoint else 'no fracterm is a rational number under the disjoint reading'}"
        )
    else:
        actual = False
        detail = f"a {_name(level)} is not a number"
    if actual == claim.positive:
        return StepStatus(a.index, "valid")
    return StepStatus(a.index, "invalid", detail)


def _check_is_fracterm(env: _Env, a: Assertion):
    claim = a.claim
    level = env.level(claim.occ)
    if level is Level.FRACTERM:
        actual = classify(claim.occ.term).is_fracterm
    elif level is Level.FRACVALUE:
        actual = env.fracterm_is_number(claim.occ.term)
    else:
        actual = False
    if actual == claim.positive:
        return StepStatus(a.index, "valid")
    return StepStatus(
        a.index,
        "invalid",
        f"read as a {_name(level)}, {format_term(claim.occ.term)} is "
        f"{'not ' if claim.positive else ''}a fracterm",
    )


def _check_taxonomy(env: _Env, a: Assertion):
    claim = a.claim
    level = env.level(claim.occ)
    if level is Level.FRACVALUE:
        return StepStatus(
            a.index,
            "level-conflict",
            "syntactic classification applies to fracterms, not fracvalues",
        )
    flags = classify(claim.occ.term)
    for flag in claim.flags:
        actual = getattr(flags, flag)
        if actual is None:
            return StepStatus(
                a.index, "invalid", "proper is defined only for simple fracterms"
            )
        if actual != claim.positive:
            return StepStatus(
                a.index,
                "invalid",
                f"{format_term(claim.occ.term)} is {'not ' if claim.positive else ''}{flag}",
            )
    return StepStatus(a.index, "valid")


def _check_contradicts(env: _Env, a: Assertion, script: Script):
    claim = a.claim
    target = script.assertion(claim.target).claim
    if not isinstance(target, (RationalsNotFracterms, NotAllFractermsRational)):
        return StepStatus(a.index, "invalid", "the cited assertion is not a universal claim")
    sign = claim.occ.term
    rationals = [p for p in env.rational_claims if p[0].term == sign]
    fracterms = [p for p in env.fracterm_claims if p[0].term == sign]
    if not rationals or not fracterms:
        return StepStatus(a.index, "invalid", "no premises support a contradiction")
    valid_r = [p for p in rationals if p[3]]
    valid_f = [p for p in fracterms if p[3]]
    if not valid_r or not valid_f:
        broken = rationals if not valid_r else fracterms
        return StepStatus(
            a.index,
            "invalid",
            f"the contradiction dissolves: the premise in step {broken[0][2]} "
            f"is itself invalid",
        )
    if any(r[1] == f[1] for r in valid_r for f in valid_f):
        # Both premises genuinely hold of a single reading of the sign.
        return StepStatus(a.index, "valid")
    r_occ, r_level, r_index, _ = valid_r[0]
    f_occ, f_level, f_index, _ = valid_f[0]
    return StepStatus(
        a.index,
        "invalid",
        f"the sign {format_term(sign)} is a {_name(r_level)} in step {r_index} "
        f"and a {_name(f_level)} in step {f_index}; distinct occurrences of one "
        f"sign do not combine into a single entity",
    )


def _check_conclude(env: _Env, a: Assertion):
    claim = a.claim
    if claim.left == claim.right:
        return StepStatus(a.index, "valid")
    left = [p for p in env.numerators if p[1] == claim.left and p[4]]
    right = [p for p in env.numerators if p[1] == claim.right and p[4]]
    if not left or not right:
        return StepStatus(a.index, "invalid", "does not follow from the preceding assertions")
    l_occ, _, l_level, l_index, _ = left[-1]
    r_occ, _, r_level, r_index, _ = right[-1]
    pair = {format_term(l_occ.term), format_term(r_occ.term)}
    matching = [
        (eq, level, index)
        for (eq, level, index, ok) in env.equalities
        if ok and {format_term(eq.left.term), format_term(eq.right.term)} == pair
    ]
    if not matching:
        return StepStatus(
            a.index, "invalid", "no equality connects the two numerator bearers"
        )
    eq, eq_level, eq_index = matching[-1]
    if not env.unique_levels:
        return StepStatus(
            a.index, "invalid", "uniqueness of numerators was never established"
        )
    uniq_level, uniq_index = env.unique_levels[-1]
    if l_level == r_level == eq_level == uniq_level:
        return StepStatus(a.index, "valid")
    return StepStatus(
        a.index,
        "invalid",
        f"numerators were taken at the {_name(l_level)} level (steps {l_index} and "
        f"{r_index}) and their uniqueness holds at the {_name(uniq_level)} level, but "
        f"the equality in step {eq_index} holds at the {_name(eq_level)} level; the "
        f"conclusion does not transfer across levels",
    )


def _check_claim(env: _Env, a: Assertion, script: Script) -> StepStatus:
    claim = a.claim
    if isinstance(claim, HasNumerator):
        return _check_has_component(env, a, "numerator")
    if isinstance(claim, HasDenominator):
        return _check_has_component(env, a, "denominator")
    if isinstance(claim, UniqueNumerator):
        if claim.level is Level.FRACVALUE:
            return StepStatus(
                a.index, "invalid", "fracvalues do not split, so nothing is extracted uniquely"
            )
        return StepStatus(a.index, "valid")
    if isinstance(claim, Equals):
        return _check_equals(env, a)
    if isinstance(claim, IsRational):
        return _check_is_rational(env, a)
    if isinstance(claim, IsFracterm):
        return _check_is_fracterm(env, a)
    if isinstance(claim, TaxonomyIs):
        return _check_taxonomy(env, a)
    if isinstance(claim, BothLevels):
        if env.fracterm_is_number(claim.occ.term):
            return StepStatus(a.index, "valid")
        reason = (
            "fracterms and fracvalues are disjoint collections; no reading makes both true"
            if env.disjoint
            else f"{format_term(claim.occ.term)} is not one of the shape's numbers"
        )
        return StepStatus(a.index, "invalid", reason)
    if isinstance(claim, IsFraxion):
        return StepStatus(a.index, "valid")
    if isinstance(claim, MayBeRational):
        level = env.level(claim.occ)
        if level in (Level.FRAXION, Level.FRACVALUE):
            return StepStatus(a.index, "valid")
        return StepStatus(
            a.index,
            "invalid",
            f"the fracvalue reading of this occurrence was ruled out (it is a {_name(level)})",
        )
    if isinstance(claim, EvenInteger):
        value = env.value_of(claim.occ.term)
        if value == BOTTOM:
            return StepStatus(a.index, "invalid", "the value is bottom, not an integer")
        exact = shapes.decode(value.instance)
        if exact.denominator == 1 and exact.numerator % 2 == 0:
            return StepStatus(a.index, "valid")
        return StepStatus(a.index, "invalid", f"the value {exact} is not an even integer")
    if isinstance(claim, Comparison):
        level = env.level(claim.occ)
        if level is not Level.FRACVALUE:
            return StepStatus(
                a.index,
                "level-conflict",
                f"a numeric comparison needs the fracvalue reading, not a {_name(level)}",
            )
        value = env.value_of(claim.occ.term)
        if value == BOTTOM:
            return StepStatus(a.index, "invalid", "the value is bottom and compares with nothing")
        exact = shapes.decode(value.instance)
        holds = {
            "<": exact < claim.bound,
            "<=": exact <= claim.bound,
            ">": exact > claim.bound,
            ">=": exact >= claim.bound,
        }[claim.op]
        if holds:
            return StepStatus(a.index, "valid")
        return StepStatus(a.index, "invalid", f"{exact} {claim.op} {claim.bound} does not hold")
    if isinstance(claim, CanSimplify):
        flags = classify(claim.occ.term)
        if flags.simple and not flags.simplified and claim.occ.term.right.value != 0:
            return StepStatus(a.index, "valid")
        return StepStatus(a.index, "invalid", "no simplification step applies")
    if isinstance(claim, WritableFlat):
        flat_form, _ = flatten(claim.occ.term)
        witness_flags = classify(claim.witness)
        flat_flags = classify(flat_form)
        ok = (
            (flat_flags.flat or not flat_flags.is_fracterm)
            and witness_flags.flat
            and value_eq(env.value_of(claim.occ.term), env.value_of(claim.witness))
        )
        if ok:
            return StepStatus(a.index, "valid")
        return StepStatus(
            a.index,
            "invalid",
            f"{format_term(claim.witness)} is not a flat form of {format_term(claim.occ.term)}",
        )
    if isinstance(claim, AllRationalsFraxions):
        return StepStatus(a.index, "valid")
    if isinstance(claim, NotAllFraxionsRational):
        return StepStatus(a.index, "valid")
    if isinstance(claim, RationalsNotFracterms):
        if env.disjoint:
            return StepStatus(a.index, "valid")
        return StepStatus(
            a.index,
            "invalid",
            "under this shape the simplified simple fracterms are the rational numbers",
        )
    if isinstance(claim, NotAllFractermsRational):
        if claim.witness is not None and not env.disjoint:
            if classify(claim.witness.term).simplified:
                return StepStatus(
                    a.index,
                    "invalid",
                    f"{format_term(claim.witness.term)} is one of the shape's numbers",
                )
        return StepStatus(a.index, "valid")
    if isinstance(claim, LevelDirective):
        return StepStatus(a.index, "valid")
    if isinstance(claim, Definitional):
        return StepStatus(a.index, "valid")
    if isinstance(claim, Contradicts):
        return _check_contradicts(env, a, script)
    if isinstance(claim, Conclude):
        return _check_conclude(env, a)
    raise TypeError(f"unknown claim {claim!r}")


def _record_premises(env: _Env, a: Assertion, status: StepStatus) -> None:
    claim = a.claim
    ok = status.valid
    if isinstance(claim, HasNumerator):
        env.numerators.append((claim.occ, claim.numeral, env.level(claim.occ), a.index, ok))
    elif isinstance(claim, Equals):
        env.equalities.append((claim, env.level(claim.left), a.index, ok))
    elif isinstance(claim, UniqueNumerator):
        # The fraxion reading resolves to the fracterm level: extraction
        # fits terms, not values.
        resolved = Level.FRACTERM if claim.level is Level.FRAXION else claim.level
        if ok:
            env.unique_levels.append((resolved, a.index))
    elif isinstance(claim, IsRational) and claim.positive:
        env.rational_claims.append((claim.occ, env.level(claim.occ), a.index, ok))
    elif isinstance(claim, IsFracterm) and claim.positive:
        env.fracterm_claims.append((claim.occ, env.level(claim.occ), a.index, ok))
    elif isinstance(claim, BothLevels):
        # Asserts rationality and fractermhood of one occurrence at once.
        env.rational_claims.append((claim.occ, env.level(claim.occ), a.index, ok))
        env.fracterm_claims.append((claim.occ, env.level(claim.occ), a.index, ok))


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
    shape_id = shape_id or script.shape_id or "rat.pcs"
    if disjoint is None:
        disjoint = script.disjoint
    if disjoint is None:
        disjoint = shape_id != "rat.ssft"
    levels = infer_levels(script)
    env = _Env(shape_id=shape_id, disjoint=disjoint, levels=levels)
    statuses: list[StepStatus] = []
    for a in script.assertions:
        status = _check_claim(env, a, script)
        env.statuses[a.index] = status
        _record_premises(env, a, status)
        statuses.append(status)
    bad = [s for s in statuses if not s.valid]
    if not bad:
        return Verdict(tuple(statuses), "sound")
    first = bad[0]
    return Verdict(tuple(statuses), "paradox-blocked", first.index, first.explanation)


def check_text(text: str, shape_id=None, disjoint=None) -> Verdict:
    return check(parse_script(text), shape_id=shape_id, disjoint=disjoint)
