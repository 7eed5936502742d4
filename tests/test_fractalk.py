import copy
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
import time
from importlib import resources

import pytest

from fracterm import fractalk
from fracterm.errors import (
    DanglingReference,
    LevelConflict,
    OpenTerm,
    ScriptError,
    UnsupportedOperation,
    UnsupportedShape,
)
from fracterm.fractalk import CLAIM_KINDS, _match_claim, check, infer_levels, parse_script
from fracterm.terms import Level, format_term, parse_term


def corpus_text(name: str) -> str:
    return (resources.files("fracterm") / "corpus" / f"{name}.ftk").read_text()


def corpus_verdict(name: str, **kwargs):
    return check(parse_script(corpus_text(name)), **kwargs)


def script_verdict(text: str, **kwargs):
    return check(parse_script(text), **kwargs)


# ---------------------------------------------------------------------------
# Parsing goldens


def test_parse_num_claim():
    script = parse_script("1: num(1/2) = 1")
    claim = script.assertions[0].claim
    assert claim.kind == "num"
    assert claim.occ.key() == (1, 1)
    assert claim.occ.term == parse_term("1/2")
    assert claim.arg == 1


def test_parse_annotated_equality():
    script = parse_script("4: 1/2 == 2/4 @fv")
    claim = script.assertions[0].claim
    assert claim.kind == "equals"
    assert claim.role is Level.FRACVALUE


def test_parse_level_directive():
    script = parse_script("1: level(2) = ft\n2: 2/3 is rational")
    claim = script.assertions[0].claim
    assert claim.kind == "level"
    assert claim.arg == (2, Level.FRACTERM)


def test_parse_errors():
    with pytest.raises(ScriptError):
        parse_script("1: gibberish claim here")
    with pytest.raises(ScriptError):
        parse_script("not even an assertion")
    with pytest.raises(ScriptError):
        parse_script("1: num(1//2) = 1")
    with pytest.raises(ScriptError):
        parse_script("1: 1/2 is rational\n1: 1/2 is fracterm")


@pytest.mark.parametrize(
    "pragma", ["@shape", "@disjoint", "@shapefoo rat.ssft", "@disjointtrue", "@disjoint yes", "@disjoint True"]
)
def test_malformed_pragma_rejected(pragma):
    with pytest.raises(ScriptError) as e:
        parse_script(f"# header\n{pragma}\n1: 2/3 is rational")
    assert e.value.line == 2


def test_pragmas_set_script_defaults():
    script = parse_script("@shape rat.ssft\n@disjoint false\n1: 2/3 is rational")
    assert (script.shape_id, script.disjoint) == ("rat.ssft", False)


# No step evaluates a value here, yet the shape is still checked first.
NO_VALUE_SCRIPT = "1: 2/3 is fraxion\n2: rationals are not fracterms"


def test_unknown_shape_rejected_before_any_step():
    with pytest.raises(UnsupportedShape, match="unknown shape 'bogus'"):
        script_verdict("@shape bogus\n" + NO_VALUE_SCRIPT)
    with pytest.raises(UnsupportedShape, match="unknown shape 'bogus'"):
        script_verdict(NO_VALUE_SCRIPT, shape_id="bogus")
    with pytest.raises(UnsupportedShape, match="unknown shape 'bogus'"):
        check(parse_script(NO_VALUE_SCRIPT), shape_id="bogus")
    # An argument still wins over the pragma.
    assert script_verdict("@shape bogus\n" + NO_VALUE_SCRIPT, shape_id="rat.pcs").overall == "sound"


def test_non_rat_shape_rejected_before_any_step():
    with pytest.raises(UnsupportedOperation, match="evaluation needs a rat shape"):
        script_verdict("@shape nat.vn\n" + NO_VALUE_SCRIPT)


@pytest.mark.parametrize("text", ["", "\n  \n", "# only a comment\n@shape rat.pcs\n@disjoint true"])
def test_empty_script_rejected(text):
    with pytest.raises(ScriptError, match="script holds no assertions"):
        parse_script(text)


def test_dangling_references():
    with pytest.raises(DanglingReference):
        parse_script("1: level(3) = ft\n2: 2/3 is rational")
    with pytest.raises(DanglingReference):
        parse_script("1: 2/3 is rational\n2: 2/3 contradicts 9")
    with pytest.raises(DanglingReference):
        # The directive's target holds no fracsign occurrence.
        parse_script("1: level(2) = ft\n2: rationals are not fracterms")


def test_assertion_by_index():
    script = parse_script("3: 2/3 is rational\n1: level(3) = ft")
    assert script.assertion(3) is script.assertions[0]
    assert script.assertion(1) is script.assertions[1]
    with pytest.raises(DanglingReference, match="no assertion 2"):
        script.assertion(2)


def test_equal_occurrence_texts_share_one_term_within_a_script():
    text = "1: the fraction 2/ft4 is rational\n2: 2/ft4 == 1/2\n3: 2/4 is rational\n4: 2/fv4 is rational"
    occs = [o for a in parse_script(text).assertions for o in a.claim.occurrences]
    first, second, plain, other = occs[0], occs[1], occs[3], occs[4]
    assert first.term is second.term and first.annotation is second.annotation is Level.FRACTERM
    assert first.fraction_marked and not second.fraction_marked
    # Texts that differ give terms of their own, equal once erased.
    assert plain.term is not first.term and plain.term == first.term == other.term
    assert other.annotation is Level.FRACVALUE
    # Nothing is kept from one script to the next.
    assert parse_script(text).assertions[0].claim.occ.term is not first.term


# ---------------------------------------------------------------------------
# Claim kinds: one row per kind, in table order. Each example's last
# assertion parses to the kind and checks, under the default shape or the
# script's own pragma, to the recorded (status, explanation). The examples
# sit on the boundaries of the first-match-wins patterns.

CLAIM_ROWS = [
    ('num', [
        ('1: num(1/2) = 1', 'valid', None),
        ('1: num(2/4) = 1', 'invalid', 'the numerator of 2/4 is 2, not 1'),
        ('1: num(2/fv4) = 2', 'level-conflict', 'the occurrence is read as a fracvalue, and a fracvalue has no numerator: values do not split into numerator and denominator'),
    ]),
    ('denom', [
        ('1: denom(the fraction 2/6) = 6', 'valid', None),
        ('1: def: fraction is number\n2: denom(the fraction 2/6) = 6', 'level-conflict', 'the occurrence is read as a fracvalue, and a fracvalue has no denominator: values do not split into numerator and denominator'),
        ('1: denom(3) = 1', 'invalid', '3 has no leading division'),
    ]),
    ('unique-numerator', [
        ('1: fracterms have a unique numerator', 'valid', None),
        ('1: fracvalues have a unique numerator', 'invalid', 'fracvalues do not split, so nothing is extracted uniquely'),
    ]),
    ('level', [
        ('1: 2/3 is rational\n2: level(1) = ft', 'valid', None),
    ]),
    ('conclude', [
        ('1: conclude 2 = 2', 'valid', None),
        ('1: num(1/2) = 1\n2: num(2/4) = 2\n3: fraxions have a unique numerator\n4: 1/2 == 2/4\n5: conclude 1 = 2', 'invalid', 'numerators were taken at the fracterm level (steps 1 and 2) and their uniqueness holds at the fracterm level, but the equality in step 4 holds at the fracvalue level; the conclusion does not transfer across levels'),
        # Numerators taken at two levels: each step's level is named.
        ('1: num(1/2) = 1\n2: level(3) = fs\n3: num(2/4) = 2\n4: fracterms have a unique numerator\n5: 1/2 == 2/4\n6: conclude 1 = 2', 'invalid', 'numerators were taken at the fracterm level (step 1) and the fracsign level (step 3) and their uniqueness holds at the fracterm level, but the equality in step 5 holds at the fracvalue level; the conclusion does not transfer across levels'),
        ('1: num(1/2) = 1\n2: conclude 1 = 2', 'invalid', 'does not follow from the preceding assertions'),
        ('1: num(1/2) = 1\n2: num(2/4) = 2\n3: conclude 1 = 2', 'invalid', 'no equality connects the two numerator bearers'),
        ('1: num(1/2) = 1\n2: num(2/4) = 2\n3: 1/2 == 2/4\n4: conclude 1 = 2', 'invalid', 'uniqueness of numerators was never established'),
    ]),
    ('def', [
        ('1: def: fraction is fracterm', 'valid', None),
    ]),
    ('all-rationals-fraxions', [
        ('1: all rationals are fraxions', 'valid', None),
    ]),
    ('not-all-fraxions-rational', [
        ('1: not all fraxions are rational', 'valid', None),
    ]),
    ('rationals-not-fracterms', [
        ('1: rationals are not fracterms', 'valid', None),
        ('@shape rat.ssft\n1: rationals are not fracterms', 'invalid', 'under this shape the simplified simple fracterms are the rational numbers'),
    ]),
    ('not-all-fracterms-rational', [
        ('1: not all fracterms are rational, witness 2/3', 'valid', None),
        ('@shape rat.ssft\n1: not all fracterms are rational, witness 2/3', 'invalid', "2/3 is one of the shape's numbers"),
    ]),
    ('equals', [
        ('1: 1/2 == 2/4 @fv', 'valid', None),
        ('1: 1/2 == 2/4 @ft', 'invalid', '1/2 and 2/4 differ as fracterms'),
        ('1: 1/ft2 == 2/4', 'invalid', 'cross-level equation: left occurrence is a fracterm, right a fracvalue'),
        # A decoration tag is no part of the sign, at @fs as in contradicts.
        ('1: 1/ft2+1/3 == 1/2+1/3 @fs', 'valid', None),
    ]),
    ('comparison', [
        ('1: 4/3 > 1', 'valid', None),
        ('1: 4/3 >= 2', 'invalid', '4/3 >= 2 does not hold'),
        ('1: 1/0 < 1', 'invalid', 'the value is bottom and compares with nothing'),
        ('1: level(2) = ft\n2: 4/3 > 1', 'level-conflict', 'a numeric comparison needs the fracvalue reading, not a fracterm'),
    ]),
    ('both-levels', [
        ('@shape rat.ssft\n1: 2/3 is fracterm and fracvalue', 'valid', None),
        ('1: 2/3 is fracterm and fracvalue', 'invalid', 'fracterms and fracvalues are disjoint collections; no reading makes both true'),
    ]),
    ('fraxion', [
        ('1: 2/3 is fraxion', 'valid', None),
    ]),
    ('may-be-rational', [
        ('1: 2/3 may be rational', 'valid', None),
        ('1: 2/ft3 may be rational', 'invalid', 'the fracvalue reading of this occurrence was ruled out (it is a fracterm)'),
    ]),
    ('even-integer', [
        ('1: the fraction 4/2 is an even integer', 'valid', None),
        ('1: 1/0 is an even integer', 'invalid', 'the value is bottom, not an integer'),
        ('1: 2/4 is an even integer', 'invalid', 'the value 1/2 is not an even integer'),
        ('1: 4/ft2 is an even integer', 'level-conflict', 'an integer judgement needs the fracvalue reading, not a fracterm'),
        ('1: level(2) = fs\n2: 4/2 is an even integer', 'level-conflict', 'an integer judgement needs the fracvalue reading, not a fracsign'),
    ]),
    ('can-simplify', [
        ('1: 2/4 can be simplified', 'valid', None),
        ('1: 1/2 can be simplified', 'invalid', 'no simplification step applies'),
        ('1: 4/fv2 can be simplified', 'level-conflict', 'simplification applies to fracterms, not fracvalues'),
        ('1: 4/ft2 can be simplified', 'valid', None),
    ]),
    ('writable-flat', [
        ('1: 5/(1+3) can be written flat as 5/4', 'valid', None),
        ('1: 5/(1+3) can be written flat as 5/3', 'invalid', '5/3 is not a flat form of 5/(1+3)'),
        ('1: 1/0 can be written flat as 2/0', 'valid', None),
        ('1: 5/(1+3) can be written flat as 10/8+0', 'invalid', '10/8+0 is not a flat form of 5/(1+3)'),
        ('1: 5/(1+3) can be written flat as 5/4/1', 'invalid', '5/4/1 is not a flat form of 5/(1+3)'),
    ]),
    ('contradicts', [
        ('@shape rat.ssft\n1: 2/3 is fracterm and fracvalue\n2: not all fracterms are rational\n3: 2/3 contradicts 2', 'valid', None),
        ('1: 2/3 is rational\n2: 2/3 is fracterm\n3: rationals are not fracterms\n4: 2/3 contradicts 3', 'invalid', 'the sign 2/3 is a fracvalue in step 1 and a fracterm in step 2; distinct occurrences of one sign do not combine into a single entity'),
        ('1: level(2) = ft\n2: 2/3 is rational\n3: 2/3 is fracterm\n4: rationals are not fracterms\n5: 2/3 contradicts 4', 'invalid', 'the contradiction dissolves: the premise in step 2 is itself invalid'),
        ('1: 2/3 is rational\n2: 2/3 contradicts 1', 'invalid', 'the cited assertion is not a universal claim'),
        ('1: 2/3 is rational\n2: rationals are not fracterms\n3: 2/3 contradicts 2', 'invalid', 'no premises support a contradiction'),
        # One sign is one text: (2)/3 is another sign than 2/3, though the same fracterm.
        ('1: 2/3 is rational\n2: (2)/3 is fracterm\n3: rationals are not fracterms\n4: 2/3 contradicts 3', 'invalid', 'no premises support a contradiction'),
        # A decoration tag is no part of the sign: 2/fv3 and 2/ft3 are the sign 2/3.
        ('1: 2/fv3 is rational\n2: 2/ft3 is fracterm\n3: rationals are not fracterms\n4: 2/3 contradicts 3', 'invalid', 'the sign 2/3 is a fracvalue in step 1 and a fracterm in step 2; distinct occurrences of one sign do not combine into a single entity'),
    ]),
    ('rational', [
        ('1: 2/3 is rational', 'valid', None),
        ('1: 2/3 is not rational', 'invalid', 'the fracvalue of 2/3'),
        ('1: 2/ft3 is rational', 'invalid', 'the occurrence is fixed at the fracterm level, and no fracterm is a rational number under the disjoint reading'),
        ('1: level(2) = fs\n2: 2/3 is rational', 'invalid', 'a fracsign is not a number'),
    ]),
    ('fracterm', [
        ('1: 2/3 is fracterm', 'valid', None),
        ('1: 2/3 is not fracterm', 'invalid', 'read as a fracterm, 2/3 is a fracterm'),
        ('1: 2/fv3 is fracterm', 'invalid', 'read as a fracvalue, 2/3 is not a fracterm'),
        ('1: level(2) = fs\n2: 2/3 is fracterm', 'invalid', 'read as a fracsign, 2/3 is not a fracterm'),
    ]),
    ('taxonomy', [
        ('1: 4/3 is simple and simplified', 'valid', None),
        ('1: 2/4 is simplified', 'invalid', '2/4 is not simplified'),
        ('1: 5/4 is not proper', 'valid', None),
        ('1: (1+2)/3 is proper', 'invalid', 'proper is defined only for simple fracterms'),
        ('1: 2/fv4 is flat', 'level-conflict', 'syntactic classification applies to fracterms, not fracvalues'),
    ]),
]


def test_claim_rows_cover_every_kind_in_table_order():
    assert [kind for kind, _ in CLAIM_ROWS] == list(CLAIM_KINDS)


@pytest.mark.parametrize("kind,examples", CLAIM_ROWS, ids=[kind for kind, _ in CLAIM_ROWS])
def test_claim_kind_golden(kind, examples):
    for text, status, explanation in examples:
        script = parse_script(text)
        assert script.assertions[-1].claim.kind == kind, text
        assert CLAIM_KINDS[kind].literal in script.assertions[-1].text, text
        step = check(script).steps[-1]
        assert (step.status, step.explanation) == (status, explanation), text


# ---------------------------------------------------------------------------
# Claim dispatch: a row's pattern is tried only on a body that holds the
# row's literal, and that gives what a scan of the whole table gives.


def _scan_kind(body):
    """The reference: the first row of CLAIM_KINDS whose pattern matches."""
    for kind, row in CLAIM_KINDS.items():
        if re.match(row.pattern, body):
            return kind
    return None


def _table_scan():
    """The reference scan, in the shape of the dispatch: no row skipped by its literal."""
    return tuple((kind, "", re.compile(row.pattern), row) for kind, row in CLAIM_KINDS.items())


def _outcome(body):
    try:
        return repr(_match_claim(body, 1, 1, {}))
    except ScriptError as exc:
        return f"ScriptError: {exc}"


ONE_BODY_PER_KIND = [examples[0][0].splitlines()[-1].split(": ", 1)[1] for _, examples in CLAIM_ROWS]
# Bodies that more than one row matches, or whose groups are ambiguous.
OVERLAPPING_BODIES = [
    "2/3 contradicts 3 is fraxion",
    "1/2 can be written flat as 1/2 is rational",
    "1/2 == 2/4 @ft",
    "not all fracterms are rational, witness 4/6",
    "not all fracterms are rational",
    "1/2 == 2/4 < 3",
    "1/2 is fraxion is rational",
    "2/3 is not simple and proper",
]


@pytest.mark.parametrize("body", ONE_BODY_PER_KIND + OVERLAPPING_BODIES)
def test_claim_dispatch_agrees_with_the_table_scan(body, monkeypatch):
    expected = _scan_kind(body)
    assert expected is not None
    compiled = _outcome(body)
    if not compiled.startswith("ScriptError"):
        assert _match_claim(body, 1, 1, {}).kind == expected
    # The whole claim, or the error, is the one the scan gives.
    monkeypatch.setattr(fractalk, "_claim_dispatch", _table_scan)
    assert _outcome(body) == compiled


def test_claim_dispatch_covers_every_kind():
    assert [_scan_kind(body) for body in ONE_BODY_PER_KIND] == list(CLAIM_KINDS)
    assert _scan_kind("1/2 can be written flat as 1/2 is rational") == "writable-flat"
    assert _outcome("1/2 can be written flat as 1/2 is rational") == (
        "ScriptError: line 1: bad witness term: trailing input 'is' (at position 4)"
    )


# The pieces of generated bodies: the rows' own words, terms (a bad one
# among them), numbers (one not ASCII) and tags.
_ROW_WORDS = [
    "num(", "denom(", ")", "=", "==", "<", "<=", ">", ">=", "level(", "conclude", "def:", "fraction is",
    "is", "not", "rational", "fracterm", "fracterms", "fraxion", "fraxions", "fracvalue", "fracsign", "number",
    "and", "fracterm and fracvalue", "may be rational", "an even integer", "can be simplified",
    "can be written flat as", "contradicts", "have a unique numerator", "all rationals are fraxions",
    "not all fraxions are rational", "rationals are not fracterms", "not all fracterms are rational",
    ", witness", "flat", "simple", "simplified", "proper", "ft", "fv", "fs", "the fraction",
]
_TERMS = ["1/2", "2/4", "2/ft3", "2/fv3", "(1+2)/3", "5/(1+3)", "1/0", "x", "4/3", "1//2", "-1"]
_NUMBERS = ["0", "1", "2", "-2", "12", "٣"]
_TAGS = ["@ft", "@fv", "@fs", "@xx"]
_BLANKS = [" ", " ", " ", "  ", "\t", " \t "]


def _generated_bodies(rng, count):
    """Bodies as parse_script passes them (stripped, not empty): random runs
    of pieces, examples with other blanks and maybe one piece replaced, and
    pairs of examples joined, which hold the literals of several rows."""
    pieces = _ROW_WORDS + _TERMS + _NUMBERS + _TAGS
    examples = [text.splitlines()[-1].split(": ", 1)[1] for _, rows in CLAIM_ROWS for text, _, _ in rows]
    bodies = []
    while len(bodies) < count:
        mode = rng.choice((0, 1, 1, 2))
        if mode == 0:
            words = [rng.choice(pieces) for _ in range(rng.randint(1, 7))]
        elif mode == 1:
            words = rng.choice(examples).split(" ")
            if rng.randrange(2):
                words[rng.randrange(len(words))] = rng.choice(pieces)
        else:
            words = [rng.choice(examples), rng.choice(examples + _TAGS)]
        blanks = _BLANKS if rng.randrange(2) else [" "]
        body = "".join(word + rng.choice(blanks) for word in words).strip()
        if body:
            bodies.append(body)
    return bodies


def test_claim_dispatch_agrees_with_the_table_scan_on_generated_bodies(monkeypatch):
    bodies = _generated_bodies(random.Random(34), 3000)
    bodies += ["1/2 == 2/4 is rational", "2/3 contradicts 3 is fraxion", "1/2 is rational == 2/4 @ft"]
    outcomes = [_outcome(body) for body in bodies]
    monkeypatch.setattr(fractalk, "_claim_dispatch", _table_scan)
    for body, outcome in zip(bodies, outcomes):
        assert outcome == _outcome(body), body
    # The generator reaches every row, and bodies that no row matches.
    kinds = {_scan_kind(body) for body in bodies}
    assert kinds == {*CLAIM_KINDS, None}


def test_unrecognized_claim():
    assert _scan_kind("2/3 is purple") is None
    with pytest.raises(ScriptError, match=r"^line 1: unrecognized claim '2/3 is purple'$"):
        _match_claim("2/3 is purple", 1, 1, {})


def test_long_blank_runs_are_read_in_linear_time():
    # A pattern that backtracks \s* over a run of blanks from every start
    # takes quadratic time: minutes for each of these bodies.
    code = (
        "from fracterm.errors import ScriptError\n"
        "from fracterm.fractalk import check, parse_script\n"
        "blanks = ' ' * 100_000\n"
        "for body in ['1' + blanks + 'x', '1' + '\\t' * len(blanks) + 'x', '1' + blanks + '<x',\n"
        "             '1' + blanks + '=' + blanks + 'x', 'num(1' + blanks + ')' + blanks + 'x',\n"
        "             '1' + blanks + 'contradicts' + blanks + 'x']:\n"
        "    try:\n"
        "        check(parse_script('1: ' + body))\n"
        "    except ScriptError as exc:\n"
        "        assert 'unrecognized claim' in str(exc)\n"
        "    else:\n"
        "        raise AssertionError(body[:20])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=10)


def test_claim_dispatch_compiles_on_first_use():
    code = (
        "import re\n"
        "from fracterm import fractalk\n"
        "assert fractalk._claim_dispatch.cache_info().currsize == 0\n"
        "fractalk.parse_script('1: 1/2 is rational')\n"
        "assert fractalk._claim_dispatch.cache_info().currsize == 1\n"
        "rows = fractalk._claim_dispatch()\n"
        "assert [kind for kind, _, _, _ in rows] == list(fractalk.CLAIM_KINDS)\n"
        "assert all(isinstance(pattern, re.Pattern) for _, _, pattern, _ in rows)\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))


# ---------------------------------------------------------------------------
# Level inference


def test_default_level_is_fracvalue():
    # A bare numeric judgement leaves the sign at the most abstract level.
    script = parse_script("1: 4/3 > 1")
    levels = infer_levels(script)
    assert levels[(1, 1)] is Level.FRACVALUE
    assert check(script).overall == "sound"


def test_comparison_checks_values():
    assert script_verdict("1: 4/3 > 2").overall == "paradox-blocked"
    assert script_verdict("1: 1/2 <= 1").overall == "sound"
    assert script_verdict("1: 1/0 > 1").overall == "paradox-blocked"
    verdict = script_verdict("1: level(2) = ft\n2: 4/3 > 1")
    assert verdict.step(2).status == "level-conflict"
    with pytest.raises(KeyError):
        verdict.step(3)
    # Each operator on the boundary (2/2 against 1) and off it, either way.
    for claim, failure in [
        ("2/2 < 1", "1 < 1"), ("2/2 <= 1", None), ("2/2 > 1", "1 > 1"), ("2/2 >= 1", None),
        ("1/2 < 1", None), ("3/2 < 1", "3/2 < 1"), ("1/2 <= 1", None), ("3/2 <= 1", "3/2 <= 1"),
        ("3/2 > 1", None), ("1/2 > 1", "1/2 > 1"), ("3/2 >= 1", None), ("1/2 >= 1", "1/2 >= 1"),
    ]:
        step = script_verdict(f"1: {claim}").step(1)
        expected = ("valid", None) if failure is None else ("invalid", f"{failure} does not hold")
        assert (step.status, step.explanation) == expected, claim


def test_sign_equality_compares_the_written_texts():
    # At the fracsign level two occurrences are equal when their texts are:
    # the same tree written with other brackets or inner spacing is another sign.
    verdict = script_verdict("1: 1/2 == (1)/2 @fs")
    assert (verdict.overall, verdict.blocked_at) == ("paradox-blocked", 1)
    assert verdict.step(1).explanation == "1/2 and (1)/2 differ as fracsigns"
    assert script_verdict("1: 1/2 == 1 / 2 @fs").overall == "paradox-blocked"
    # Outer whitespace and the words "the fraction" are no part of the sign.
    assert script_verdict("1: 1/2 == 1/2 @fs").overall == "sound"
    assert script_verdict("1: the fraction  1/2  == 1/2 @fs").overall == "sound"
    # The fracterm level still compares trees.
    assert script_verdict("1: 1/2 == (1)/2 @ft").overall == "sound"
    # The sign text is no field, and it survives a copy.
    occ = parse_script("1: (1)/2 is rational").assertions[0].claim.occ
    assert occ.sign == "(1)/2" and "(1)/2" not in repr(occ)
    assert pickle.loads(pickle.dumps(occ)).sign == copy.deepcopy(occ).sign == "(1)/2"
    assert fractalk.Occurrence(1, 1, parse_term("(1)/2")).sign == "1/2"
    # Each / glued to ft or fv is a tag, read away once, as the lexer reads
    # it: 1+1/ftfvx is 1 plus 1 over fvx, the sign 1+1/fvx. A copy reads the
    # written text again.
    assert script_verdict("1: 1+1/ftfvx == 1+1/fvfvx @fs").overall == "sound"
    assert script_verdict("1: 1+1/ftfvx == 1+1/x @fs").overall == "paradox-blocked"
    occ = parse_script("1: 1+1/ftfvx is fracterm").assertions[0].claim.occ
    assert pickle.loads(pickle.dumps(occ)).sign == copy.deepcopy(occ).sign == occ.sign == "1+1/fvx"


def test_equality_of_values_past_the_digit_limit():
    # Each side is a 10,000-digit rat.pcs value; none is written in decimal.
    p = "*".join(["9" * 100] * 50)
    assert script_verdict(f"1: ({p})*({p}) == ({p})*({p})").overall == "sound"
    assert script_verdict(f"1: ({p})*({p}) == ({p})*({p})+1").overall == "paradox-blocked"


ONES = "1" * 5000


@pytest.mark.parametrize(
    "claim",
    [f"2: 1/2 < {ONES}", f"2: num(1/2) = {ONES}", f"2: level({ONES}) = ft", f"2: conclude 1 = {ONES}",
     f"2: 1/2 contradicts {ONES}", f"{ONES}: 1/2 is rational"],
    ids=["comparison", "num", "level", "conclude", "contradicts", "index"],
)
def test_numbers_past_the_digit_limit(claim):
    with pytest.raises(ScriptError, match="^line 2: a 5000-character number exceeds the int/str digit limit$"):
        parse_script(f"1: 1/2 is rational\n{claim}")


def test_explanations_past_the_digit_limit():
    # An odd 10,000-digit value, and its reciprocal: past the limit the
    # explanation names the value by its term, not by its digits.
    p = "*".join(["9" * 100] * 50)
    square, reciprocal = f"({p})*({p})", f"1/(({p})*({p}))"
    for term, rest, explanation in [
        (square, "is an even integer", "the value of {} is not an even integer"),
        (square, "< 1", "{} < 1 does not hold"),
        (reciprocal, "> 1", "{} > 1 does not hold"),
    ]:
        verdict = script_verdict(f"1: {term} {rest}")
        assert verdict.overall == "paradox-blocked"
        assert verdict.explanation == explanation.format(format_term(parse_term(term)))


def test_a_fracvalue_is_read_as_its_number_under_every_shape():
    # rat.ssft would write this 5,000-digit value in decimal digits, past
    # the int/str digit limit; a fracvalue reading never encodes it.
    p = "*".join(["9" * 100] * 50)
    text = f"1: ({p})/1 is an even integer"
    verdicts = [script_verdict(text, shape_id=shape_id).to_json() for shape_id in ("rat.pcs", "rat.ssft", "rat.rns")]
    assert verdicts[0]["explanation"] == f"the value of {format_term(parse_term(f'({p})/1'))} is not an even integer"
    assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]


@pytest.mark.parametrize("witness", ["1+1", "1/2"])
def test_writable_flat_evaluates_an_open_subject(witness):
    # The subject is evaluated before the witness is tested, flat or not.
    with pytest.raises(OpenTerm, match="^cannot evaluate variable 'x'$"):
        script_verdict(f"1: x/y can be written flat as {witness}")


def test_taxonomy_forces_fracterm():
    script = parse_script("1: 4/3 is simple and simplified")
    levels = infer_levels(script)
    assert levels[(1, 1)] is Level.FRACTERM
    assert check(script).overall == "sound"


def test_decoration_wins_over_role():
    script = parse_script("1: 2/ft3 is rational")
    assert infer_levels(script)[(1, 1)] is Level.FRACTERM


def test_directive_conflicts_with_decoration():
    script = parse_script("1: level(2) = fv\n2: 2/ft3 is rational")
    with pytest.raises(LevelConflict):
        infer_levels(script)


def test_conflicting_directives():
    script = parse_script("1: level(3) = fv\n2: level(3) = ft\n3: 2/3 is rational")
    with pytest.raises(LevelConflict):
        infer_levels(script)


def test_determinism():
    text = corpus_text("F")
    first = infer_levels(parse_script(text))
    second = infer_levels(parse_script(text))
    assert first == second
    assert script_verdict(text).to_json() == script_verdict(text).to_json()


def test_removing_annotation_never_less_abstract():
    annotated = infer_levels(parse_script("1: 2/fv3 is rational\n2: 2/ft3 is fracterm"))
    stripped = infer_levels(parse_script("1: 2/3 is rational\n2: 2/3 is fracterm"))
    order = {Level.OCCURRENCE: 0, Level.SIGN: 1, Level.FRACTERM: 2, Level.FRACVALUE: 3}
    for key, before in annotated.items():
        assert order[stripped[key]] >= order[before]


# ---------------------------------------------------------------------------
# The corpus


def test_sequence_a_blocked_at_conclusion():
    verdict = corpus_verdict("A")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 5
    assert all(verdict.step(i).valid for i in (1, 2, 3, 4))
    assert "level" in verdict.step(5).explanation


def test_sequence_b_blocked_at_combination():
    verdict = corpus_verdict("B")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 4
    assert all(verdict.step(i).valid for i in (1, 2, 3))
    assert "occurrence" in verdict.step(4).explanation


def test_sequence_bprime_blocked_at_combination():
    verdict = corpus_verdict("Bprime")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 4
    assert all(verdict.step(i).valid for i in (1, 2, 3))


def test_sequence_bpp_blocked_at_combination():
    verdict = corpus_verdict("Bpp")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 4
    assert all(verdict.step(i).valid for i in (1, 2, 3))


def test_sequence_c_blocked_by_forward_directive():
    verdict = corpus_verdict("C")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 2
    assert verdict.step(1).valid
    assert not verdict.step(2).valid
    assert not verdict.step(3).valid
    assert verdict.step(4).valid
    assert not verdict.step(5).valid
    assert "step 2" in verdict.step(5).explanation


def test_sequence_cprime_matches_c():
    c = corpus_verdict("C")
    cprime = corpus_verdict("Cprime")
    assert [s.status for s in c.steps] == [s.status for s in cprime.steps]
    assert cprime.blocked_at == 2


def test_sequence_d_sound():
    verdict = corpus_verdict("D")
    assert verdict.overall == "sound"


def test_sequence_e_problematic_at_denominator():
    verdict = corpus_verdict("E")
    assert verdict.overall == "paradox-blocked"
    assert verdict.blocked_at == 2
    assert verdict.step(2).status == "level-conflict"
    assert "denominator" in verdict.step(2).explanation


def test_sequence_f_all_valid():
    verdict = corpus_verdict("F")
    assert verdict.overall == "sound"
    assert len(verdict.steps) == 9
    assert all(s.valid for s in verdict.steps)


# ---------------------------------------------------------------------------
# Config interplay


def test_b_premise_fails_under_ssft():
    # Under the term-shaped numbers, "rationals are not fracterms" is wrong.
    verdict = corpus_verdict("B", shape_id="rat.ssft")
    assert not verdict.step(3).valid


def test_explicit_disjoint_flag_wins():
    verdict = corpus_verdict("B", shape_id="rat.ssft", disjoint=True)
    assert verdict.step(3).valid


def test_fraction_word_without_definition_defaults_by_role():
    verdict = script_verdict("1: the fraction 2/4 can be simplified")
    assert verdict.overall == "sound"


def test_definitional_scope_only_affects_marked_occurrences():
    verdict = script_verdict("1: def: fraction is number\n2: denom(2/6) = 6")
    assert verdict.overall == "sound"  # unmarked occurrence keeps the term reading


def test_a_fracterm_is_rational_under_the_term_shaped_numbers():
    # A simplified simple fracterm is one of rat.ssft's numbers, and none of rat.pcs's.
    assert script_verdict("@shape rat.ssft\n1: 2/ft3 is rational").overall == "sound"
    assert script_verdict("1: 2/ft3 is not rational").overall == "sound"
    assert script_verdict("1: 2/ft3 is rational").overall == "paradox-blocked"


# The numerator claims of sequence A's paradox: each text with its numerator.
NUMERATORS = {"1/2": 1, "(1)/2": 1, "2/4": 2, "2/(4)": 2}
NUMERATOR_DIRECTIVES = ((), ((4, "ft"),), ((1, "fs"), (2, "fs"), (4, "fs")), ((1, "fv"), (2, "fv"), (4, "fv")))


def _decorated(text, tag):
    head, tail = text.split("/")
    return f"{head}/{tag}{tail}"


def test_no_script_concludes_two_distinct_numerators_equal():
    # The thesis on a bounded grid: however the occurrences are decorated,
    # tagged or directed, and whatever reading uniqueness is claimed for,
    # "conclude a = b" with a != b is never valid. A decoration that a
    # directive contradicts is a LevelConflict, and such scripts are counted.
    checked = conflicts = 0
    for (x, a), (y, b) in itertools.permutations(NUMERATORS.items(), 2):
        if a == b:
            continue
        for shape, dx, dy, tag, word, directives in itertools.product(
            ("", "@shape rat.ssft"), ("", "ft", "fv"), ("", "ft", "fv"), ("", " @ft", " @fv", " @fs"),
            ("fraxion", "fracterm", "fracvalue", "fracsign"), NUMERATOR_DIRECTIVES,
        ):
            left, right = _decorated(x, dx), _decorated(y, dy)
            lines = [shape, f"1: num({left}) = {a}", f"2: num({right}) = {b}",
                     f"3: {word}s have a unique numerator", f"4: {left} == {right}{tag}", f"5: conclude {a} = {b}"]
            lines += [f"{6 + i}: level({k}) = {level}" for i, (k, level) in enumerate(directives)]
            try:
                verdict = script_verdict("\n".join(lines))
            except LevelConflict:
                conflicts += 1
                continue
            checked += 1
            assert not verdict.step(5).valid, lines
    assert (checked, conflicts) == (4608, 4608)


def test_check_is_linear_in_conclusions_and_equalities():
    # Each conclusion looks its connecting equality up by the set of its terms.
    lines = ["num(1/2) = 1", "num(2/4) = 2", "fracterms have a unique numerator"]
    lines += [f"{k}/{k + 1} == {k} / {k + 1} @ft" for k in range(1, 1201)]
    lines += ["conclude 1 = 2"] * 600 + ["1/2 == 2/4 @fv"] + ["conclude 1 = 2"] * 600
    script = parse_script("\n".join(f"{i}: {line}" for i, line in enumerate(lines, 1)))
    start = time.perf_counter()
    verdict = check(script)
    assert time.perf_counter() - start < 1.0
    conclusions = [s.explanation for s in verdict.steps if script.assertion(s.index).claim.kind == "conclude"]
    assert set(conclusions[:600]) == {"no equality connects the two numerator bearers"}
    assert len(set(conclusions[600:])) == 1 and "the equality in step 1804 holds" in conclusions[-1]


def test_verdict_json_shape():
    data = corpus_verdict("A").to_json()
    assert data["overall"] == "paradox-blocked"
    assert data["blocked_at"] == 5
    assert [s["index"] for s in data["steps"]] == [1, 2, 3, 4, 5]


ARABIC_ONE, ARABIC_THREE = "١", "٣"  # Arabic-Indic digits, which \d matches


@pytest.mark.parametrize(
    "text",
    [
        f"1: num(1/2) = {ARABIC_ONE}",
        f"1: denom(1/2) = {ARABIC_THREE}",
        f"{ARABIC_ONE}: 1/2 is rational",
        f"1: 1/2 is fraxion\n2: level({ARABIC_ONE}) = ft",
        f"1: conclude {ARABIC_ONE} = 1",
        f"1: 1/2 < {ARABIC_ONE}",
        f"1: rationals are not fracterms\n2: 1/2 contradicts {ARABIC_ONE}",
    ],
)
def test_claims_read_only_ascii_digits(text):
    # The term parser refuses such digits too: "٣/4" is a parse error.
    with pytest.raises(ScriptError):
        script_verdict(text)
