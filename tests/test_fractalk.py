from importlib import resources

import pytest

from fracterm.errors import DanglingReference, LevelConflict, ScriptError
from fracterm.fractalk import (
    Equals,
    HasNumerator,
    LevelDirective,
    check,
    check_text,
    infer_levels,
    parse_script,
)
from fracterm.terms import Level, parse_term


def corpus_text(name: str) -> str:
    return (resources.files("fracterm") / "corpus" / f"{name}.ftk").read_text()


def corpus_verdict(name: str, **kwargs):
    return check(parse_script(corpus_text(name)), **kwargs)


# ---------------------------------------------------------------------------
# Parsing goldens


def test_parse_num_claim():
    script = parse_script("1: num(1/2) = 1")
    claim = script.assertions[0].claim
    assert isinstance(claim, HasNumerator)
    assert claim.occ.key() == (1, 1)
    assert claim.occ.term == parse_term("1/2")
    assert claim.numeral == 1


def test_parse_annotated_equality():
    script = parse_script("4: 1/2 == 2/4 @fv")
    claim = script.assertions[0].claim
    assert isinstance(claim, Equals)
    assert claim.annotation is Level.FRACVALUE


def test_parse_level_directive():
    script = parse_script("1: level(2) = ft\n2: 2/3 is rational")
    claim = script.assertions[0].claim
    assert isinstance(claim, LevelDirective)
    assert claim.target == 2 and claim.level is Level.FRACTERM


def test_parse_errors():
    with pytest.raises(ScriptError):
        parse_script("1: gibberish claim here")
    with pytest.raises(ScriptError):
        parse_script("not even an assertion")
    with pytest.raises(ScriptError):
        parse_script("1: num(1//2) = 1")
    with pytest.raises(ScriptError):
        parse_script("1: 1/2 is rational\n1: 1/2 is fracterm")


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


# ---------------------------------------------------------------------------
# Level inference


def test_default_level_is_fracvalue():
    # A bare numeric judgement leaves the sign at the most abstract level.
    script = parse_script("1: 4/3 > 1")
    levels = infer_levels(script)
    assert levels[(1, 1)] is Level.FRACVALUE
    assert check(script).overall == "sound"


def test_comparison_checks_values():
    assert check_text("1: 4/3 > 2").overall == "paradox-blocked"
    assert check_text("1: 1/2 <= 1").overall == "sound"
    assert check_text("1: 1/0 > 1").overall == "paradox-blocked"
    verdict = check_text("1: level(2) = ft\n2: 4/3 > 1")
    assert verdict.step(2).status == "level-conflict"


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
    assert check_text(text).to_json() == check_text(text).to_json()


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
    verdict = check_text("1: the fraction 2/4 can be simplified")
    assert verdict.overall == "sound"


def test_definitional_scope_only_affects_marked_occurrences():
    verdict = check_text("1: def: fraction is number\n2: denom(2/6) = 6")
    assert verdict.overall == "sound"  # unmarked occurrence keeps the term reading


def test_verdict_json_shape():
    data = corpus_verdict("A").to_json()
    assert data["overall"] == "paradox-blocked"
    assert data["blocked_at"] == 5
    assert [s["index"] for s in data["steps"]] == [1, 2, 3, 4, 5]
