"""Command-line workbench wiring the library together.

Subcommands: parse, classify, eval, flatten, simplify, add,
shape (encode|convert|compare|normality), rns (eval|num|denom),
fractalk (check), demo. Output is plain text by default, JSON with
--json. Exit codes: 0 on success, 1 on domain errors (a structured
error object goes to stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import CapacityError, FractermError, UnsupportedShape
from .terms import check_str_digits, classify, denom, format_term, is_fracterm, num, parse_term

CORPUS_ORDER = ("A", "B", "Bprime", "Bpp", "C", "Cprime", "D", "E", "F")
SCRIPT_BYTES = 1 << 20  # a longer script raises CapacityError; about 50x an 800-claim one


def _default_shape() -> str:
    return os.environ.get("FRACTERM_DEFAULT_SHAPE", "rat.pcs")


def _emit(args, data: dict, text_lines) -> None:
    if args.json:
        print(json.dumps(data))
    else:
        for line in text_lines:
            print(line)


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UnsupportedShape(f"malformed JSON: {exc}") from None


def _parse_args_term(args, attr="term"):
    return parse_term(getattr(args, attr), args.format)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse(args) -> int:
    t = _parse_args_term(args)
    data = {
        "inline": format_term(t, "inline"),
        "colon": format_term(t, "colon"),
        "frac": format_term(t, "frac"),
        "is_fracterm": is_fracterm(t),
    }
    _emit(args, data, [f"{k}: {v}" for k, v in data.items()])
    return 0


def _cmd_classify(args) -> int:
    t = _parse_args_term(args)
    flags = classify(t)
    data = {
        "term": format_term(t),
        "is_fracterm": flags.is_fracterm,
        "closed": flags.closed,
        "flat": flags.flat,
        "simple": flags.simple,
        "safe": flags.safe,
        "simplified": flags.simplified,
        "proper": flags.proper,
    }
    if flags.is_fracterm:
        data["num"] = format_term(num(t))
        data["denom"] = format_term(denom(t))
    _emit(args, data, [f"{k}: {v}" for k, v in data.items()])
    return 0


def _cmd_eval(args) -> int:
    from . import semantics, shapes
    t = _parse_args_term(args)
    shape_id = args.shape or _default_shape()
    cfg = semantics.EvalConfig(args.policy, shape_id)
    value = semantics.eval_term(t, cfg)
    data = semantics.value_to_json(value)
    if isinstance(value, semantics.PeripheralValue):
        text = f"peripheral {value.name}"
    else:
        payload = value.instance.payload
        if isinstance(payload, tuple):
            # Both outputs write the pair's ints in decimal (the text its
            # lowest terms, no longer); rat.ssft's encode checked its term.
            check_str_digits(payload[0])
            check_str_digits(payload[1])
        exact = shapes.decode(value.instance)
        text = f"{exact} ({shape_id})"
    _emit(args, data, [text])
    return 0


def _cmd_flatten(args) -> int:
    from . import rewrite
    t = _parse_args_term(args)
    result, trace = rewrite.flatten(t)
    steps = trace.to_json()
    # The result is the term the last step ended on, already printed.
    data = {"result": steps[-1]["after"] if steps else format_term(result), "trace": steps}
    lines = [f"result: {data['result']}"]
    lines += [f"  {s['rule']}: {s['before']} => {s['after']}" for s in data["trace"]]
    _emit(args, data, lines)
    return 0


def _cmd_simplify(args) -> int:
    from . import rewrite
    t = _parse_args_term(args)
    data = {"result": format_term(rewrite.simplify(t))}
    _emit(args, data, [data["result"]])
    return 0


def _cmd_add(args) -> int:
    from . import rewrite
    t1 = _parse_args_term(args, "left")
    t2 = _parse_args_term(args, "right")
    if args.strategy == "all":
        results = rewrite.add_family_all(t1, t2)
        data = {"results": {k: format_term(v) for k, v in results.items()}}
        _emit(args, data, [f"{k}: {v}" for k, v in data["results"].items()])
        return 0
    result = rewrite.add_family(t1, t2, args.strategy)
    data = {"result": format_term(result)}
    _emit(args, data, [data["result"]])
    return 0


def _cmd_shape_encode(args) -> int:
    from . import shapes
    inst = shapes.encode(args.value, args.shape or _default_shape())
    data = shapes.instance_to_json(inst)
    _emit(args, data, [json.dumps(data["value"])])
    return 0


def _cmd_shape_convert(args) -> int:
    from . import shapes
    inst = shapes.instance_from_json(_load_json(args.instance))
    moved = shapes.convert(inst, args.to)
    data = shapes.instance_to_json(moved)
    _emit(args, data, [json.dumps(data["value"])])
    return 0


def _cmd_shape_compare(args) -> int:
    from . import shapes
    shape_id = args.shape or _default_shape()
    shape = shapes.get_shape(shape_id)
    i, j = shape.from_json(_load_json(args.left)), shape.from_json(_load_json(args.right))
    data = {
        "shape": shape_id,
        "instance_eq": shapes.instance_eq(i, j),
        "label_eq": shapes.label_eq(i, j),
    }
    _emit(args, data, [f"instance_eq: {data['instance_eq']}", f"label_eq: {data['label_eq']}"])
    return 0


def _cmd_shape_normality(args) -> int:
    from . import shapes
    shape_id = args.shape or _default_shape()
    report = shapes.normality_report(shape_id, args.bound)
    data = {"shape": shape_id, "bound": args.bound, "normal": report.normal}
    lines = [f"{shape_id} is {'normal' if report.normal else 'subnormal'} up to {args.bound}"]
    if report.witness:
        w = [shapes.instance_to_json(x)["value"] for x in report.witness]
        data["witness"] = w
        lines.append(f"witness: {json.dumps(w[0])} vs {json.dumps(w[1])}")
    _emit(args, data, lines)
    return 0


def _cmd_rns(args) -> int:
    from . import ratio
    t = _parse_args_term(args)
    pair = ratio.rn_eval(t, verbatim=args.verbatim_add)
    if args.rns_command == "num":
        pair = ratio.rn_num(pair)
    elif args.rns_command == "denom":
        pair = ratio.rn_denom(pair)
    check_str_digits(pair.a)
    check_str_digits(pair.b)
    exact = pair.as_fraction()
    data = {"pair": [pair.a, pair.b], "value": None if exact is None else str(exact)}
    text = f"({pair.a}, {pair.b})" + ("" if exact is None else f" = {exact}")
    _emit(args, data, [text])
    return 0


def _corpus_file(name: str):
    from importlib import resources
    return resources.files("fracterm") / "corpus" / f"{name}.ftk"


def _read_script(path_text: str) -> tuple[str, str]:
    """The script's file name and text, from a path or the packaged corpus."""
    from pathlib import Path
    path = Path(path_text)
    try:
        # Fall back to the packaged corpus for names like corpus/A.ftk, A.ftk, A.
        source = path if path.exists() else _corpus_file(path.name.removesuffix(".ftk"))
        if source is path or source.is_file():
            with source.open("rb") as f:  # one byte more tells a longer or endless file
                data = f.read(SCRIPT_BYTES + 1)
            if len(data) > SCRIPT_BYTES:
                raise CapacityError(f"script {path_text} is longer than {SCRIPT_BYTES} bytes")
            return path.name, data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FractermError(f"cannot read script {path_text}: {exc}") from None
    raise FractermError(f"no such script: {path_text}")


def _verdict_lines(name: str, verdict) -> list[str]:
    lines = []
    for step in verdict.steps:
        mark = "ok" if step.valid else step.status
        suffix = f"  ({step.explanation})" if step.explanation else ""
        lines.append(f"  step {step.index}: {mark}{suffix}")
    if verdict.overall == "sound":
        lines.append(f"{name}: sound")
    else:
        lines.append(f"{name}: paradox-blocked at step {verdict.blocked_at}")
    return lines


def _cmd_fractalk_check(args) -> int:
    from . import fractalk
    name, text = _read_script(args.script)
    script = fractalk.parse_script(text)
    shape_id = args.shape or script.shape_id or _default_shape()
    verdict = fractalk.check(script, shape_id=shape_id)
    _emit(args, verdict.to_json(), _verdict_lines(name, verdict))
    return 0


def _cmd_demo(args) -> int:
    from . import fractalk
    results = {}
    for name in CORPUS_ORDER:
        script = fractalk.parse_script(_corpus_file(name).read_text())
        verdict = fractalk.check(script)
        results[name] = verdict.to_json()
        if not args.json:
            print(f"== sequence {name}")
            for line in _verdict_lines(name, verdict):
                print(line)
            print()
    if args.json:
        print(json.dumps(results))
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracterm",
        description="Workbench for fraction terms: taxonomy, shapes, "
        "division-by-zero semantics, rewriting, and assertion scripts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, term_args=("term",), fmt=True):
        for name in term_args:
            p.add_argument(name)
        if fmt:
            p.add_argument("--format", choices=["inline", "colon", "frac"], default="inline")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("parse", help="parse a term and print its renderings")
    common(p)
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("classify", help="syntactic taxonomy flags of a term")
    common(p)
    p.set_defaults(fn=_cmd_classify)

    # The --policy and --strategy choices are semantics.POLICIES and
    # rewrite.STRATEGIES, spelled out so that building the parser imports
    # neither module; a test keeps them equal.
    p = sub.add_parser("eval", help="evaluate a closed term to a fracvalue")
    common(p)
    p.add_argument(
        "--policy",
        choices=["partial", "suppes-ono", "common-meadow"],
        default="common-meadow",
    )
    p.add_argument("--shape", default=None)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("flatten", help="rewrite into a flat fracterm with a trace")
    common(p)
    p.set_defaults(fn=_cmd_flatten)

    p = sub.add_parser("simplify", help="reduce a flat fracterm to simplified form")
    common(p)
    p.set_defaults(fn=_cmd_simplify)

    p = sub.add_parser("add", help="one member of the addition family")
    common(p, term_args=("left", "right"))
    p.add_argument(
        "--strategy",
        choices=["cross", "same-denom", "numeral", "trivial", "all"],
        default="cross",
    )
    p.set_defaults(fn=_cmd_add)

    p = sub.add_parser("shape", help="shape encoding, conversion, comparison, normality")
    shape_sub = p.add_subparsers(dest="shape_command", required=True)

    q = shape_sub.add_parser("encode")
    q.add_argument("value", type=int)
    q.add_argument("--shape", default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_shape_encode)

    q = shape_sub.add_parser("convert")
    q.add_argument("instance", help="instance as JSON, e.g. '{\"shape\":...,\"value\":...}'")
    q.add_argument("--to", required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_shape_convert)

    q = shape_sub.add_parser("compare")
    q.add_argument("left", help="payload as JSON")
    q.add_argument("right", help="payload as JSON")
    q.add_argument("--shape", default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_shape_compare)

    q = shape_sub.add_parser("normality")
    q.add_argument("--shape", default=None)
    q.add_argument("--bound", type=int, default=50)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_shape_normality)

    p = sub.add_parser("rns", help="ratio-number evaluation and extraction")
    rns_sub = p.add_subparsers(dest="rns_command", required=True)
    for which in ("eval", "num", "denom"):
        q = rns_sub.add_parser(which)
        q.add_argument("term")
        q.add_argument("--format", choices=["inline", "colon", "frac"], default="inline")
        q.add_argument("--verbatim-add", action="store_true")
        q.add_argument("--json", action="store_true")
        q.set_defaults(fn=_cmd_rns, rns_command=which)

    p = sub.add_parser("fractalk", help="assertion-script checking")
    ftk_sub = p.add_subparsers(dest="fractalk_command", required=True)
    q = ftk_sub.add_parser("check")
    q.add_argument("script", help="path to a .ftk file (packaged corpus names work too)")
    q.add_argument("--shape", default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(fn=_cmd_fractalk_check)

    p = sub.add_parser("demo", help="check the whole packaged corpus")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FractermError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(error), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
