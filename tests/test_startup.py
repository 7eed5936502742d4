"""What a fracterm process loads, and the names the package exports.

``import fracterm`` loads only ``fracterm.errors``; each other submodule,
and each name re-exported from it, is imported on first use. A CLI command
imports only the submodules its handler uses.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fracterm
from fracterm.errors import DivisionByZero, FractermError, NotAFracterm, NotSimple, OpenTerm, UnsupportedOperation

from gen import doubled

# The names ``fracterm`` re-exports, by the submodule defining them.
EXPORTS = {
    "fractalk": ["Verdict", "check", "infer_levels", "parse_script"],
    "ratio": [
        "DenomOf", "NumOf", "RatioNumber", "rn_add", "rn_denom", "rn_div", "rn_eval", "rn_instance_eq",
        "rn_inv", "rn_label_eq", "rn_mul", "rn_neg", "rn_num",
    ],
    "rewrite": [
        "RewriteStep", "RewriteTrace", "add_family", "add_family_all", "flatten", "simple_fracterm_eq", "simplify",
    ],
    "semantics": ["BOTTOM", "EvalConfig", "NumberValue", "eval_term", "value_eq", "value_num"],
    "shapes": [
        "Instance", "NormalityReport", "convert", "decode", "encode", "get_shape", "instance_eq", "label_eq",
        "normality_report",
    ],
    "terms": [
        "Add", "Div", "Level", "Lit", "Mul", "Neg", "Sub", "TaxonomyFlags", "Term", "Var", "classify",
        "denom", "desugar_literals", "erase_decorations", "format_term", "is_fracterm", "num", "parse_term",
    ],
}
SUBMODULES = ["errors", *EXPORTS]
SRC = Path(fracterm.__file__).parent


def loaded_submodules(code):
    """The fracterm submodules a fresh interpreter has loaded after running code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    report = "import sys; print(*sorted(m for m in sys.modules if m.startswith('fracterm.')))"
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_the_runtime_imports_only_the_standard_library():
    # Each import statement of the package, wherever it stands, is relative
    # or names a top-level module of the standard library.
    absolute = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                absolute += [(path.name, node.lineno, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                absolute.append((path.name, node.lineno, node.module))
    assert {name for _, _, name in absolute} >= {"__future__", "re", "fractions"}
    assert [found for found in absolute if found[2].split(".")[0] not in sys.stdlib_module_names] == []


def test_import_loads_only_errors():
    assert loaded_submodules("import fracterm") == {"fracterm.errors"}


NOT_BY_SHAPES = {"terms", "ratio", "semantics", "fractalk", "rewrite"}


@pytest.mark.parametrize("argv,absent", [
    (["parse", "1/2"], {"fractalk", "rewrite", "semantics", "shapes", "ratio"}),
    (["eval", "2/4"], {"fractalk", "rewrite"}),
    (["fractalk", "check", "corpus/A.ftk"], {"rewrite"}),
    (["shape", "compare", "[1,2]", "[2,4]", "--shape", "rat.rns"], NOT_BY_SHAPES),
    (["shape", "normality", "--shape", "rat.pcs", "--bound", "10"], NOT_BY_SHAPES),
    (["shape", "encode", "3", "--shape", "nat.vn"], NOT_BY_SHAPES),
    (["shape", "normality", "--shape", "rat.ssft", "--bound", "10"], {"ratio"}),
])
def test_cli_command_loads_only_what_it_uses(argv, absent):
    loaded = loaded_submodules(f"import fracterm.cli\nassert fracterm.cli.main({argv!r}) == 0")
    # Only shape commands on shapes other than rat.ssft, whose payloads are terms, skip terms.
    assert "fracterm.terms" in loaded or "terms" in absent
    assert not loaded & {f"fracterm.{name}" for name in absent}


def test_lexer_patterns_compile_on_first_use():
    # The CLI's import compiles no lexer; then each format's is compiled once.
    loaded_submodules(
        "import fracterm.cli\n"
        "from fracterm import terms\n"
        "assert terms._lexer.cache_info().currsize == 0\n"
        "for fmt in terms.FORMATS * 2:\n"
        "    terms.parse_term('-(1)*x', fmt)\n"
        "assert terms._lexer.cache_info().misses == terms._lexer.cache_info().currsize == 3\n"
    )


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_exported_name_is_the_submodule_object(module, name):
    assert getattr(fracterm, name) is getattr(importlib.import_module(f"fracterm.{module}"), name)
    assert name in dir(fracterm)


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_is_an_attribute(module):
    assert getattr(fracterm, module) is importlib.import_module(f"fracterm.{module}")
    assert module in dir(fracterm)


def test_star_import_gives_every_export():
    namespace = {}
    exec("from fracterm import *", namespace)
    for module, names in EXPORTS.items():
        assert namespace[module] is getattr(fracterm, module)
        assert all(namespace[name] is getattr(fracterm, name) for name in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        fracterm.nope
    assert not hasattr(fracterm, "Record")
    assert fracterm.__version__ == "0.1.0"


def names_reached(path):
    """The names a file reads, as a variable or an attribute, imports, or
    spells in a string that is no docstring; never what it only defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


# Exports that only unit tests reach, each with the reason it stays.
KEPT_FOR_TESTS = {
    "desugar_literals": "its tests are fold's only leaf-expansion and depth tests",
}


def test_every_export_is_reached_outside_the_unit_tests():
    # A public name stays only while the library, a script, the benchmark or
    # an acceptance criterion uses it; the export table itself does not count.
    repo = SRC.parent.parent
    paths = [*SRC.glob("*.py"), *repo.glob("scripts/*.py"), *repo.glob("perfbench/*.py"), repo / "tests/test_acceptance.py"]
    reached = set().union(*(names_reached(path) for path in paths if path != SRC / "__init__.py"))
    assert {name for name in fracterm.__all__ if name not in reached} == set(KEPT_FOR_TESTS)


def _valid_arguments():
    """Arguments that each exported function takes, by name."""
    t = fracterm.parse_term("1/2")
    inst = fracterm.encode(1, "nat.dec")
    value = fracterm.eval_term(t)
    script = fracterm.parse_script("1: 2/3 is rational")
    rn = fracterm.RatioNumber(1, 2)
    return {
        "check": (script,), "infer_levels": (script,), "parse_script": ("1: 2/3 is rational",),
        "rn_eval": (t,), "add_family": (t, fracterm.parse_term("1/3"), "cross"), "add_family_all": (t, t),
        "flatten": (t,), "simple_fracterm_eq": (t, t), "simplify": (t,), "eval_term": (t,),
        "value_eq": (value, value), "value_num": (value,), "convert": (inst, "nat.sdn"), "decode": (inst,),
        "encode": (1, "nat.dec"), "get_shape": ("nat.dec",), "instance_eq": (inst, inst),
        "label_eq": (inst, inst), "normality_report": ("rat.pcs", 10), "classify": (t,), "denom": (t,),
        "desugar_literals": (t,), "erase_decorations": (t,), "format_term": (t,), "is_fracterm": (t,),
        "num": (t,), "parse_term": ("1/2",),
        **{name: (rn,) for name in ("rn_neg", "rn_inv", "rn_num", "rn_denom")},
        **{name: (rn, rn) for name in ("rn_add", "rn_mul", "rn_div", "rn_instance_eq", "rn_label_eq")},
    }


SWEPT = [name for name in fracterm.__all__ if inspect.isfunction(getattr(fracterm, name))]


HUGE = doubled(40)


def test_the_sweep_covers_every_exported_function():
    assert sorted(SWEPT) == sorted(_valid_arguments())


@pytest.mark.parametrize("name", SWEPT)
def test_an_exported_function_ends_in_a_result_or_a_fracterm_error(name):
    # Each required argument in turn, and each optional one by keyword, is
    # replaced by a number, a text, None, an int past the int/str digit limit
    # and, where no term is taken, a term of 2**40 leaves: the call returns,
    # or refuses with a FractermError, never a bare TypeError, AttributeError
    # or ValueError from inside, in under 100 ms, as no message prints the
    # term or the int whole.
    fn, arguments = getattr(fracterm, name), _valid_arguments()[name]
    fn(*arguments)
    optional = list(inspect.signature(fn).parameters)[len(arguments):]
    for position in [*range(len(arguments)), *optional]:
        takes_term = position not in optional and isinstance(arguments[position], fracterm.Term)
        for wrong in (5, "1/2", None, 10**5000, *([] if takes_term else [HUGE])):
            if position in optional:
                args, kwargs = arguments, {position: wrong}
            else:
                args, kwargs = [*arguments[:position], wrong, *arguments[position + 1:]], {}
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except FractermError:
                pass
            except Exception as exc:  # named by its class: a traceback would print the term whole
                raise AssertionError(f"{type(exc).__name__} at {position} for {type(wrong).__name__}") from None
            assert time.perf_counter() - start < 0.1, (position, type(wrong))


@pytest.mark.parametrize("error,call", [
    (NotSimple, lambda: fracterm.simplify(HUGE)),
    (NotAFracterm, lambda: fracterm.num(HUGE)),
    (OpenTerm, lambda: fracterm.flatten(fracterm.Add(HUGE, fracterm.Var("x")))),
    (DivisionByZero, lambda: fracterm.eval_term(
        fracterm.Div(fracterm.parse_term("1"), fracterm.Sub(HUGE, HUGE)), fracterm.EvalConfig("partial"))),
], ids=["simplify", "num", "flatten-open", "partial-zero-divisor"])
def test_a_message_names_a_shared_term_by_a_bounded_text(error, call):
    # Each message quotes the term by at most 80 characters of its inline text.
    start = time.perf_counter()
    try:
        call()
    except error as exc:
        message = str(exc)
    except Exception as exc:  # named by its class: a traceback would print the term whole
        raise AssertionError(type(exc).__name__) from None
    else:
        raise AssertionError(f"no {error.__name__}")
    assert time.perf_counter() - start < 0.1
    assert len(message) <= 150 and "(1/2+1/2+(1/2+1/2))+" in message and message.count("...") == 1


@pytest.mark.parametrize("name,wrong", [
    ("parse_term", 5), ("parse_script", None), ("format_term", "1/2"), ("classify", "1/2"), ("flatten", "1/2"),
    ("simplify", None), ("erase_decorations", "1/2"), ("desugar_literals", 5), ("eval_term", "1/2"),
    ("rn_eval", None), ("check", "1/2"), ("infer_levels", 5), ("get_shape", None),
    ("rn_neg", 5), ("rn_inv", "1/2"), ("rn_num", None), ("rn_denom", 5),
    ("RewriteTrace", 5), ("RewriteTrace", (5,)),
])
def test_a_wrong_kind_of_argument_is_an_unsupported_operation(name, wrong):
    nouns = "term|str|script|shape id|RatioNumber|tuple of RewriteSteps|RewriteStep"
    with pytest.raises(UnsupportedOperation, match=rf" is no ({nouns})$"):
        getattr(fracterm, name)(wrong)


@pytest.mark.parametrize("call", [
    lambda: fracterm.RewriteTrace((fracterm.RewriteStep("r", 5, None),)).to_json(),
    lambda: fracterm.RewriteStep(None, fracterm.parse_term("1"), fracterm.parse_term("1")),
    lambda: fracterm.RewriteStep("r", fracterm.parse_term("1"), "1"),
    lambda: fracterm.eval_term(fracterm.parse_term("1/2"), 5),
], ids=["step-before-int", "step-rule-none", "step-after-str", "eval-config-int"])
def test_a_wrong_kind_of_field_or_config_is_an_unsupported_operation(call):
    with pytest.raises(UnsupportedOperation, match=r" is no (term|str|EvalConfig)$"):
        call()
