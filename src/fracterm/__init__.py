"""Workbench for fraction terms.

Parsing and classifying arithmetic expressions with division, rewriting
them, evaluating them under three division-by-zero policies over concrete
number shapes, and checking fractalk assertion scripts for level confusion.

The names below are re-exported from their submodules, each imported on
first use, so that ``import fracterm`` compiles and runs no more than a
caller needs.
"""

import importlib

from . import errors

# Submodule -> the names it exports here.
_EXPORTS = {
    "errors": "",
    "fractalk": "Verdict check infer_levels parse_script",
    "ratio": "DenomOf NumOf RatioNumber rn_add rn_denom rn_div rn_eval rn_instance_eq rn_inv rn_label_eq rn_mul "
    "rn_neg rn_num",
    "rewrite": "RewriteStep RewriteTrace add_family add_family_all flatten simple_fracterm_eq simplify",
    "semantics": "BOTTOM EvalConfig NumberValue eval_term value_eq value_num",
    "shapes": "Instance NormalityReport convert decode encode get_shape instance_eq label_eq normality_report",
    "terms": "Add Div Level Lit Mul Neg Sub TaxonomyFlags Term Var classify denom desugar_literals "
    "erase_decorations format_term is_fracterm num parse_term",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
