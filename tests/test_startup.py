"""What a fracterm process loads, and the names the package exports.

``import fracterm`` loads only ``fracterm.errors``; each other submodule,
and each name re-exported from it, is imported on first use. A CLI command
imports only the submodules its handler uses.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracterm

# The names ``fracterm`` has always re-exported, by the submodule defining them.
EXPORTS = {
    "fractalk": ["Verdict", "check", "check_text", "infer_levels", "parse_script"],
    "ratio": [
        "DenomOf", "NumOf", "RatioNumber", "rn_add", "rn_denom", "rn_div", "rn_eval", "rn_instance_eq",
        "rn_inv", "rn_label_eq", "rn_mul", "rn_neg", "rn_num", "rn_one", "rn_zero",
    ],
    "rewrite": [
        "RewriteStep", "RewriteTrace", "add_family", "add_family_all", "demote", "flatten",
        "simple_fracterm_eq", "simplify",
    ],
    "semantics": [
        "BOTTOM", "EvalConfig", "Fracvalue", "NumberValue", "PeripheralValue", "eval_term", "value_denom",
        "value_eq", "value_num",
    ],
    "shapes": [
        "Instance", "NormalityReport", "ShapeDescriptor", "convert", "decode", "describe", "encode",
        "get_shape", "instance_eq", "is_normal", "label_eq", "make_instance", "normality_report",
        "shape_add", "shape_div", "shape_mul", "shape_neg",
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
