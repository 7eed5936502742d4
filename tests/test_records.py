"""The record contract: every record is a slotted ``records.Record``.

Equality needs the same class and equal fields, the hash follows the
fields, assignment raises, copy and pickle round-trip, the old keyword
signatures construct, and the repr is the dataclass-style text the
records printed before they became slotted classes.
"""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import fracterm
from fracterm import fractalk, ratio, records, rewrite, semantics, shapes, terms
from fracterm.errors import DanglingReference, UnsupportedOperation
from fracterm.records import Record
from fracterm.terms import TaxonomyFlags, classify, parse_term

SRC = Path(fracterm.__file__).parent


def _script():
    return fractalk.parse_script("@shape rat.ssft\n1: num(the fraction 2/ft4) = 2\n2: 1/2 == 2/4 @ft\n3: 1/2 < 3\n")


def _examples():
    """One record of each class and the repr it printed as a frozen dataclass."""
    script = _script()
    verdict = fractalk.check(script)
    _, trace = rewrite.flatten(parse_term("1/2+1/3"))
    occurrence = script.assertions[0].claim.occ
    occ_text = (
        "Occurrence(assertion=1, position=1, term=2/4, annotation=<Level.FRACTERM: 'ft'>, fraction_marked=True)"
    )
    claim_text = f"Claim(kind='num', occurrences=({occ_text},), role=<Level.FRACTERM: 'ft'>, positive=True, arg=2)"
    equals_text = (
        "Claim(kind='equals', occurrences=(Occurrence(assertion=2, position=1, term=1/2, annotation=None, "
        "fraction_marked=False), Occurrence(assertion=2, position=2, term=2/4, annotation=None, "
        "fraction_marked=False)), role=<Level.FRACTERM: 'ft'>, positive=True, arg=None)"
    )
    comparison_text = (
        "Claim(kind='comparison', occurrences=(Occurrence(assertion=3, position=1, term=1/2, annotation=None, "
        "fraction_marked=False),), role=None, positive=True, arg=('<', 3))"
    )
    step_text = "RewriteStep(rule='add-lift', before=1/2+1/3, after=(1*3+2*1)/(2*3))"
    statuses = (
        "StepStatus(index=1, status='valid', explanation=None)",
        "StepStatus(index=2, status='invalid', explanation='1/2 and 2/4 differ as fracterms')",
        "StepStatus(index=3, status='valid', explanation=None)",
    )
    return [
        (shapes.encode(2, "int.signed"), "Instance(shape_id='int.signed', payload=('+', '2'))"),
        (
            shapes.normality_report("nat.dec", 5),
            "NormalityReport(shape_id='nat.dec', bound=5, normal=False, witness=(Instance(shape_id='nat.dec', "
            "payload='0'), Instance(shape_id='nat.dec', payload='00')))",
        ),
        (ratio.RatioNumber(1, 2), "RatioNumber(a=1, b=2)"),
        (ratio.NumOf(ratio.DenomOf(parse_term("1/2"))), "NumOf(arg=DenomOf(arg=1/2))"),
        (ratio.DenomOf(parse_term("x")), "DenomOf(arg=x)"),
        (trace.steps[0], step_text),
        (trace, f"RewriteTrace(steps=({step_text},))"),
        (
            semantics.NumberValue(shapes.encode(1, "rat.ssft")),
            "NumberValue(instance=Instance(shape_id='rat.ssft', payload=1/1))",
        ),
        (semantics.EvalConfig("partial", "rat.ssft"), "EvalConfig(policy='partial', shape_id='rat.ssft')"),
        (
            classify(parse_term("2/4")),
            "TaxonomyFlags(is_fracterm=True, closed=True, flat=True, simple=True, safe=True, simplified=False, "
            "proper=True)",
        ),
        (occurrence, occ_text),
        (script.assertions[0].claim, claim_text),
        (script.assertions[1], f"Assertion(index=2, claim={equals_text}, text='1/2 == 2/4 @ft')"),
        (
            script,
            f"Script(assertions=(Assertion(index=1, claim={claim_text}, text='num(the fraction 2/ft4) = 2'), "
            f"Assertion(index=2, claim={equals_text}, text='1/2 == 2/4 @ft'), "
            f"Assertion(index=3, claim={comparison_text}, text='1/2 < 3')), shape_id='rat.ssft', disjoint=None)",
        ),
        (verdict.steps[1], statuses[1]),
        (
            verdict,
            f"Verdict(steps=({', '.join(statuses)}), overall='paradox-blocked', blocked_at=2, "
            "explanation='1/2 and 2/4 differ as fracterms')",
        ),
    ]


EXAMPLES = _examples()
RECORD_CLASSES = {
    shapes.Instance: ("shape_id", "payload"),
    shapes.NormalityReport: ("shape_id", "bound", "normal", "witness"),
    ratio.RatioNumber: ("a", "b"),
    ratio.NumOf: ("arg",),
    ratio.DenomOf: ("arg",),
    rewrite.RewriteStep: ("rule", "before", "after"),
    rewrite.RewriteTrace: ("steps",),
    semantics.NumberValue: ("instance",),
    semantics.EvalConfig: ("policy", "shape_id"),
    TaxonomyFlags: ("is_fracterm", "closed", "flat", "simple", "safe", "simplified", "proper"),
    fractalk.Occurrence: ("assertion", "position", "term", "annotation", "fraction_marked"),
    fractalk.Claim: ("kind", "occurrences", "role", "positive", "arg"),
    fractalk.Assertion: ("index", "claim", "text"),
    fractalk.Script: ("assertions", "shape_id", "disjoint"),
    fractalk.StepStatus: ("index", "status", "explanation"),
    fractalk.Verdict: ("steps", "overall", "blocked_at", "explanation"),
}
IDS = [type(record).__name__ for record, _ in EXAMPLES]


def test_every_record_class_has_an_example():
    assert {type(record) for record, _ in EXAMPLES} == set(RECORD_CLASSES)
    for cls, fields in RECORD_CLASSES.items():
        assert issubclass(cls, Record)
        assert cls._fields == fields


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_equality_and_hash_follow_the_fields(record, text):
    cls = type(record)
    twin = cls(*(getattr(record, name) for name in cls._fields))
    assert twin is not record and twin == record and not (twin != record)
    assert hash(twin) == hash(record) == hash(tuple(getattr(record, name) for name in cls._fields))
    assert record != object() and record != tuple(getattr(record, name) for name in cls._fields)
    # A different class is never equal, even with equal field values.
    other = next(r for r, _ in EXAMPLES if type(r) is not cls)
    assert record != other


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_fields_refuse_assignment(record, text):
    assert not hasattr(record, "__dict__")
    for name in (*type(record)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_copy_and_pickle_round_trip(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin == record and repr(twin) == text


@pytest.mark.parametrize("record, text", EXAMPLES, ids=IDS)
def test_keyword_construction(record, text):
    cls = type(record)
    assert cls(**{name: getattr(record, name) for name in cls._fields}) == record


def test_defaults_of_the_old_signatures():
    term = parse_term("1/2")
    assert fractalk.Occurrence(1, 2, term) == fractalk.Occurrence(1, 2, term, None, False)
    assert fractalk.Claim("fraxion") == fractalk.Claim("fraxion", (), None, True, None)
    assert fractalk.Script(()) == fractalk.Script((), None, None)
    assert fractalk.StepStatus(1, "valid") == fractalk.StepStatus(1, "valid", None)
    assert fractalk.Verdict((), "sound") == fractalk.Verdict((), "sound", None, None)
    assert semantics.EvalConfig() == semantics.EvalConfig("common-meadow", "rat.pcs")


def test_init_checks_what_post_init_checked():
    with pytest.raises(UnsupportedOperation):
        semantics.EvalConfig(policy="total")
    with pytest.raises(UnsupportedOperation):
        semantics.EvalConfig(shape_id="nat.dec")


def test_script_index_keeps_the_first_of_equal_indices():
    claim = fractalk.Claim("fraxion")
    first, second = fractalk.Assertion(1, claim, "first"), fractalk.Assertion(1, claim, "second")
    script = fractalk.Script((first, second, fractalk.Assertion(2, claim, "other")))
    assert script.assertion(1) is first
    assert pickle.loads(pickle.dumps(script)).assertion(1).text == "first"
    with pytest.raises(DanglingReference):
        script.assertion(3)
    # The index is no field: it is not compared, hashed or shown.
    assert "_by_index" not in repr(script)
    assert script == fractalk.Script((first, second, fractalk.Assertion(2, claim, "other")))


def test_check_keeps_its_environment_in_slots():
    env = fractalk._Env(_script(), semantics.EvalConfig(), True, {})
    assert not hasattr(env, "__dict__") and env.checked == []
    assert fractalk.check(_script()).overall == "paradox-blocked"


def test_cli_starts_without_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = "import sys, fracterm.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    # The package supports Python 3.10 (pyproject.toml): no later syntax.
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_no_module_imports_dataclasses():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(alias.name != "dataclasses" for alias in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name



def _built_by_record(cls):
    """Whether cls's __init__ is Record's stub or one that the stub built."""
    init = cls.__init__
    return init is Record.__init__ or init.__code__.co_filename == records._GENERATED


def test_no_record_writes_its_own_init():
    for cls in RECORD_CLASSES:
        assert _built_by_record(cls), cls.__name__
    # A class built once has its own __init__, which takes its fields in order.
    init = vars(ratio.RatioNumber)["__init__"]
    assert init is not Record.__init__ and init.__code__.co_filename == records._GENERATED
    assert init.__code__.co_varnames[: init.__code__.co_argcount] == ("self", "a", "b")


def test_import_builds_no_init():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = (
        "import fracterm.cli, fracterm.fractalk\n"
        "from fracterm.records import Record\n"
        "def walk(cls):\n"
        "    for sub in cls.__subclasses__():\n"
        "        yield sub\n"
        "        yield from walk(sub)\n"
        "print(sorted(c.__name__ for c in walk(Record) if vars(c).get('__init__') not in (None, Record.__init__)"
        " and vars(c)['__init__'].__code__.co_filename == '<record __init__>'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("cls", list(RECORD_CLASSES), ids=lambda cls: cls.__name__)
def test_a_missing_or_unknown_argument_names_the_field(cls):
    required = [name for name in cls._fields if name not in cls._defaults]
    if required:
        with pytest.raises(TypeError, match=repr(required[0])):
            cls()
    with pytest.raises(TypeError, match="'no_such_field'"):
        cls(*(None for _ in cls._fields), no_such_field=1)


def test_a_subclass_gets_an_init_for_its_own_fields():
    class Triple(ratio.RatioNumber):
        __slots__ = ("c",)
        _defaults = {"c": 0}

    assert ratio.RatioNumber(1, 2) == ratio.RatioNumber(b=2, a=1)
    assert repr(Triple(1, 2)).endswith("Triple(a=1, b=2, c=0)") and Triple(1, 2, 3).c == 3
    assert ratio.RatioNumber(1, 2).b == 2


def test_only_terms_names_the_slot_setters():
    for path in SRC.glob("*.py"):
        if path.name == "terms.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert all("slot_setters" not in alias.name for alias in node.names), path.name
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                assert "slot_setters" not in name and not name.startswith("_set_"), path.name


def test_binary_nodes_keep_their_own_init():
    x = parse_term("x")
    for cls in (terms.Add, terms.Sub, terms.Mul):
        assert cls.__init__ is terms._Binary.__init__ and "__init__" not in vars(cls)
        node = cls(x, parse_term("1/2"))
        assert node.has_var and node.has_div and not node.decorated
        assert hash(node) == hash((cls, hash(x), hash(parse_term("1/2"))))
        assert node == cls(parse_term("x"), parse_term("1/2")) and node != cls(x, x)
