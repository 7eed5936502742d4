"""Command-line workbench wiring the library together.

``COMMANDS`` declares every subcommand with its help, its handler and its
arguments. A process declares only the row its argv names (``build_parser``)
and imports only the modules that row's handler uses, ``terms`` included.
Output is plain text by default, JSON with --json. Exit codes: 0 on success,
1 on domain errors and on a stdout that takes no more output, such as a
closed pipe or a full disk (a structured error object goes to stderr), 2 on
usage errors.

Each handler returns its result as (the JSON object, the text lines);
``main`` alone writes to stdout or stderr and picks the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .errors import CapacityError, FractermError, UnsupportedShape
from .records import check_str_digits, digits_int

CORPUS_ORDER = ("A", "B", "Bprime", "Bpp", "C", "Cprime", "D", "E", "F")
SCRIPT_BYTES = 1 << 20  # a longer script raises CapacityError; about 50x an 800-claim one


def _load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UnsupportedShape(f"malformed JSON: {exc}") from None


def _int_arg(text: str) -> int:
    """An int argument: an optional sign and ASCII digits, as terms and
    fractalk read numbers. Digits past Python's int/str digit limit are
    ``digits_int``'s CapacityError rather than a usage error."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return digits_int(text)


_int_arg.__name__ = "int"  # argparse names the type in "invalid int value"


def _parse_args_term(args, attr="term"):
    from . import terms
    return terms.parse_term(getattr(args, attr), args.format)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_parse(args):
    from . import terms
    t = _parse_args_term(args)
    data = {**{fmt: terms.format_term(t, fmt) for fmt in terms.FORMATS}, "is_fracterm": terms.is_fracterm(t)}
    return data, [f"{k}: {v}" for k, v in data.items()]


def _cmd_classify(args):
    from .terms import classify, denom, format_term, num
    t = _parse_args_term(args)
    flags = classify(t)
    data = {"term": format_term(t), **{name: getattr(flags, name) for name in flags._fields}}
    if flags.is_fracterm:
        data["num"] = format_term(num(t))
        data["denom"] = format_term(denom(t))
    return data, [f"{k}: {v}" for k, v in data.items()]


def _cmd_eval(args):
    from . import semantics, shapes
    t = _parse_args_term(args)
    cfg = semantics.EvalConfig(args.policy, args.shape)
    value = semantics.eval_term(t, cfg)
    data = semantics.value_to_json(value)
    if value is semantics.BOTTOM:
        text = f"peripheral {value.name}"
    else:
        text = f"{shapes.decode(value.instance)} ({args.shape})"
    return data, [text]


def _cmd_flatten(args):
    from . import rewrite, terms
    t = _parse_args_term(args)
    result, trace = rewrite.flatten(t, args.policy)
    steps = trace.to_json()
    # The result is the term the last step ended on, already printed.
    data = {"result": steps[-1]["after"] if steps else terms.format_term(result), "trace": steps}
    lines = [f"result: {data['result']}"]
    lines += [f"  {s['rule']}: {s['before']} => {s['after']}" for s in data["trace"]]
    return data, lines


def _cmd_simplify(args):
    from . import rewrite, terms
    t = _parse_args_term(args)
    data = {"result": terms.format_term(rewrite.simplify(t))}
    return data, [data["result"]]


def _cmd_add(args):
    from . import rewrite, terms
    t1 = _parse_args_term(args, "left")
    t2 = _parse_args_term(args, "right")
    if args.strategy == "all":
        results = rewrite.add_family_all(t1, t2)
        data = {"results": {k: terms.format_term(v) for k, v in results.items()}}
        return data, [f"{k}: {v}" for k, v in data["results"].items()]
    data = {"result": terms.format_term(rewrite.add_family(t1, t2, args.strategy))}
    return data, [data["result"]]


def _cmd_shape_encode(args):
    from . import shapes
    inst = shapes.encode(args.value, args.shape)
    data = shapes.instance_to_json(inst)
    return data, [json.dumps(data["value"])]


def _cmd_shape_convert(args):
    from . import shapes
    inst = shapes.instance_from_json(_load_json(args.instance))
    moved = shapes.convert(inst, args.to)
    data = shapes.instance_to_json(moved)
    return data, [json.dumps(data["value"])]


def _cmd_shape_compare(args):
    from . import shapes
    shape = shapes.get_shape(args.shape)
    i, j = shape.from_json(_load_json(args.left)), shape.from_json(_load_json(args.right))
    data = {"shape": args.shape, "instance_eq": shapes.instance_eq(i, j), "label_eq": shapes.label_eq(i, j)}
    return data, [f"instance_eq: {data['instance_eq']}", f"label_eq: {data['label_eq']}"]


def _cmd_shape_normality(args):
    from . import shapes
    report = shapes.normality_report(args.shape, args.bound)
    data = {"shape": args.shape, "bound": args.bound, "normal": report.normal}
    lines = [f"{args.shape} is {'normal' if report.normal else 'subnormal'} up to {args.bound}"]
    if report.witness:
        w = [shapes.instance_to_json(x)["value"] for x in report.witness]
        data["witness"] = w
        lines.append(f"witness: {json.dumps(w[0])} vs {json.dumps(w[1])}")
    return data, lines


def _cmd_rns(args):
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
    return data, [text]


def _corpus_file(name: str):
    from importlib import resources
    return resources.files("fracterm") / "corpus" / f"{name}.ftk"


def _read_script(path_text: str) -> tuple[str, str]:
    """The script's file name and text, from a path or the packaged corpus."""
    from pathlib import Path
    path = Path(path_text)
    try:
        source = path
        if not path.exists():
            # Only a missing NAME, NAME.ftk or corpus/NAME.ftk names a script of the packaged corpus.
            source = _corpus_file(path.name.removesuffix(".ftk"))
            if str(path.parent) not in (".", "corpus") or not source.is_file():
                raise FractermError(f"no such script: {path_text}")
        with source.open("rb") as f:  # one byte more tells a longer or endless file
            data = f.read(SCRIPT_BYTES + 1)
        if len(data) > SCRIPT_BYTES:
            raise CapacityError(f"script {path_text} is longer than {SCRIPT_BYTES} bytes")
        return path.name, data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FractermError(f"cannot read script {path_text}: {exc}") from None


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


def _cmd_fractalk_check(args):
    from . import fractalk
    name, text = _read_script(args.script)
    script = fractalk.parse_script(text)
    verdict = fractalk.check(script, shape_id=args.shape)
    return verdict.to_json(), _verdict_lines(name, verdict)


def _cmd_demo(args):
    from . import fractalk
    results, lines = {}, []
    for name in CORPUS_ORDER:
        verdict = fractalk.check(fractalk.parse_script(_corpus_file(name).read_text()))
        results[name] = verdict.to_json()
        lines += [f"== sequence {name}", *_verdict_lines(name, verdict), ""]
    return results, lines


# ---------------------------------------------------------------------------
# Argument wiring: COMMANDS declares the CLI. A row maps a subcommand to its
# help (with None, its group's help lists it by name only), its handler and
# its arguments, in help order; an argument is a name or flag with its
# add_argument options. A group's row holds a table of its own in place of
# the handler, and the group's subcommand lands in args.<group>_command.

TERM = ("term", {"help": "a term, such as 1/2+1/3"})
JSON = ("--json", {"action": "store_true", "help": "print the result as one JSON object"})
SHAPE = ("--shape", {"default": "rat.pcs", "help": "a shape id, such as nat.vn or rat.ssft (default: %(default)s)"})
PAYLOAD = {"help": "payload as JSON"}
# The --format, --policy and --strategy choices are terms.FORMATS,
# semantics.POLICIES and rewrite.STRATEGIES, spelled out so that building
# the parser imports none of those modules; a test keeps them equal.
FORMAT = ("--format", {"choices": ["inline", "colon", "frac"], "default": "inline",
                       "help": "1/2, 1:2 or frac(1,2) (default: inline)"})
POLICY = ("--policy", {"choices": ["partial", "suppes-ono", "common-meadow"], "default": "common-meadow",
                       "help": "division by zero is an error, zero, or an absorbing bottom (default: %(default)s)"})
STRATEGY = ("--strategy", {"choices": ["cross", "same-denom", "numeral", "trivial", "all"], "default": "cross",
                           "help": "one member of the family, or all (default: %(default)s)"})

COMMANDS = {
    "parse": ("parse a term and print its renderings", _cmd_parse, TERM, FORMAT, JSON),
    "classify": ("syntactic taxonomy flags of a term", _cmd_classify, TERM, FORMAT, JSON),
    "eval": ("evaluate a closed term to a fracvalue", _cmd_eval, TERM, FORMAT, JSON, POLICY, SHAPE),
    "flatten": ("rewrite into a flat fracterm with a trace", _cmd_flatten, TERM, FORMAT, JSON, POLICY),
    "simplify": ("reduce a flat fracterm to simplified form", _cmd_simplify, TERM, FORMAT, JSON),
    "add": ("one member of the addition family", _cmd_add, ("left", {"help": "the first summand"}),
            ("right", {"help": "the second summand"}), FORMAT, JSON, STRATEGY),
    "shape": ("shape encoding, conversion, comparison, normality", {
        "encode": ("an integer as an instance of a shape", _cmd_shape_encode,
                   ("value", {"type": _int_arg, "help": "the integer to encode"}), SHAPE, JSON),
        "convert": (
            "an instance into another shape of its label", _cmd_shape_convert,
            ("instance", {"help": """instance as JSON, e.g. '{"shape":...,"value":...}'"""}),
            ("--to", {"required": True, "help": "the shape id to convert into"}), JSON,
        ),
        "compare": ("instance and label equality of two payloads", _cmd_shape_compare,
                    ("left", PAYLOAD), ("right", PAYLOAD), SHAPE, JSON),
        "normality": ("search for label-equal instances that differ", _cmd_shape_normality, SHAPE,
                      ("--bound", {"type": _int_arg, "default": 50, "help": "the largest component (default: 50)"}),
                      JSON),
    }),
    "rns": ("ratio-number evaluation and extraction", {
        which: (f"{what} the term's ratio number, a raw integer pair", _cmd_rns, TERM, FORMAT,
                ("--verbatim-add", {"action": "store_true", "help": "add (a, b) and (c, d) as (a*c + b*d, b*d)"}),
                JSON)
        for which, what in (("eval", "evaluate to"), ("num", "the numerator of"), ("denom", "the denominator of"))
    }),
    "fractalk": ("assertion-script checking", {
        "check": (
            "check a script, step by step", _cmd_fractalk_check,
            ("script", {"help": "path to a .ftk file (packaged corpus names work too)"}),
            ("--shape", {"default": None, "help": "a rat shape id (default: the script's @shape, else rat.pcs)"}),
            JSON,
        ),
    }),
    "demo": ("check the whole packaged corpus", _cmd_demo, JSON),
}


def _add_commands(parser: argparse.ArgumentParser, dest: str, table: dict, argv) -> None:
    # The row argv names, with a metavar that lists all, so usage lines and errors read the same; else all.
    row = argv[0] if argv and argv[0] in table else None
    sub = parser.add_subparsers(dest=dest, required=True, metavar=None if row is None else "{" + ",".join(table) + "}")
    for name, (help_, target, *arguments) in (table if row is None else {row: table[row]}).items():
        p = sub.add_parser(name, **({} if help_ is None else {"help": help_}))
        if isinstance(target, dict):
            _add_commands(p, f"{name}_command", target, argv[1:])
            continue
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(fn=target)


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of argv: the top parser with the row argv names, down its group, or with every row."""
    parser = argparse.ArgumentParser(
        prog="fracterm",
        description="Workbench for fraction terms: taxonomy, shapes, "
        "division-by-zero semantics, rewriting, and assertion scripts.",
    )
    _add_commands(parser, "command", COMMANDS, argv)
    return parser


def main(argv=None) -> int:
    try:
        # A type= function can raise CapacityError, which argparse lets through.
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        data, lines = args.fn(args)
    except FractermError as exc:
        error = exc
    else:
        try:
            print(json.dumps(data) if args.json else "\n".join(lines), flush=True)
            return 0
        except OSError as exc:  # stdout takes no more output: a closed pipe, a full disk
            error = exc
            # What stdout still holds goes to the null device, so that the
            # interpreter's flush at exit does not fail again.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
    print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
