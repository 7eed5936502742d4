import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fracterm import cli, rewrite, semantics, terms
from fracterm.cli import SCRIPT_BYTES, main
from fracterm.shapes import NORMALITY_BOUND
from test_cli_goldens import GOLDENS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# parse / classify


def test_parse_renders_all_formats(capsys):
    data = run_json(capsys, "parse", "1/2")
    assert data == {"inline": "1/2", "colon": "1:2", "frac": "frac(1,2)", "is_fracterm": True}


def test_parse_colon_input(capsys):
    data = run_json(capsys, "parse", "1:2", "--format", "colon")
    assert data["inline"] == "1/2"


def test_parse_nested_goldens(capsys):
    assert run_json(capsys, "parse", "(1+2/3)/5")["inline"] == "(1+2/3)/5"
    assert run_json(capsys, "parse", "2/(4/5)")["inline"] == "2/(4/5)"
    assert run_json(capsys, "parse", "1+2")["is_fracterm"] is False


def test_classify_goldens(capsys):
    data = run_json(capsys, "classify", "5/(1+3)")
    assert data["simple"] is False
    assert data["num"] == "5" and data["denom"] == "1+3"

    data = run_json(capsys, "classify", "4/6")
    assert data["simple"] and data["safe"] and not data["simplified"]

    data = run_json(capsys, "classify", "5/4")
    assert data["simplified"] and data["proper"] is False


# ---------------------------------------------------------------------------
# eval


def test_eval_division_by_zero_policies(capsys):
    data = run_json(capsys, "eval", "--policy", "common-meadow", "1/0 + 1")
    assert data == {"kind": "peripheral", "value": "bot"}

    data = run_json(capsys, "eval", "--policy", "suppes-ono", "1/0")
    assert data["kind"] == "number" and data["value"] == [0, 1]

    code, out, err = run(capsys, "eval", "--policy", "partial", "1/0")
    assert code == 1
    assert json.loads(err)["error"] == "DivisionByZero"


def test_eval_shape_flag(capsys):
    data = run_json(capsys, "eval", "1/2", "--shape", "rat.ssft")
    assert data["shape"] == "rat.ssft" and data["value"] == "1/2"


# ---------------------------------------------------------------------------
# flatten / simplify / add


def test_flatten_trace_json(capsys):
    data = run_json(capsys, "flatten", "(1+2/3)/5")
    assert data["result"] == "(1*3+2)/(3*5)"
    assert [s["rule"] for s in data["trace"]] == ["add-lift", "div-collapse"]
    before = data["trace"][0]["before"]
    assert before == "(1+2/3)/5"


def test_simplify_goldens(capsys):
    assert run_json(capsys, "simplify", "4/6")["result"] == "2/3"
    assert run_json(capsys, "simplify", "2/4")["result"] == "1/2"
    # terms with a leading minus need the usual -- separator
    code, out, _ = run(capsys, "simplify", "--json", "--", "-3/-9")
    assert code == 0 and json.loads(out)["result"] == "1/3"


def test_add_strategies(capsys):
    assert run_json(capsys, "add", "1/2", "3/2", "--strategy", "same-denom")["result"] == "(1+3)/2"
    assert run_json(capsys, "add", "1/2", "3/2", "--strategy", "numeral")["result"] == "8/4"
    data = run_json(capsys, "add", "1+1", "1", "--strategy", "trivial")
    assert data["result"] == "(1+1)+1" or data["result"] == "1+1+1"
    code, _, err = run(capsys, "add", "1/2", "1", "--strategy", "trivial")
    assert code == 1 and json.loads(err)["error"] == "StrategyInapplicable"


# ---------------------------------------------------------------------------
# shape


def test_shape_encode(capsys):
    data = run_json(capsys, "shape", "encode", "3", "--shape", "nat.vn")
    assert data["value"] == [[], [[]], [[], [[]]]]
    data = run_json(capsys, "shape", "encode", "3", "--shape", "nat.zermelo")
    assert data["value"] == [[[[]]]]


def test_shape_convert(capsys):
    inst = json.dumps({"shape": "nat.dec", "value": "007"})
    data = run_json(capsys, "shape", "convert", inst, "--to", "nat.sdn")
    assert data == {"shape": "nat.sdn", "value": "7"}


def test_shape_compare(capsys):
    data = run_json(capsys, "shape", "compare", "[1,2]", "[2,4]", "--shape", "rat.rns")
    assert data["instance_eq"] is False and data["label_eq"] is True


def test_shape_normality(capsys):
    data = run_json(capsys, "shape", "normality", "--shape", "rat.rns", "--bound", "10")
    assert data["normal"] is False and "witness" in data
    data = run_json(capsys, "shape", "normality", "--shape", "rat.pcs", "--bound", "10")
    assert data["normal"] is True


def test_shape_normality_bound_budget(capsys):
    for bound in (NORMALITY_BOUND + 1, 10**4000):
        code, out, err = run(capsys, "shape", "normality", "--shape", "rat.ssft", "--bound", str(bound))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapacityError"
    # An int argument past the int/str digit limit is a CapacityError, and
    # text that is no number stays a usage error.
    huge = "1" + "0" * 5000
    for argv in (["normality", "--shape", "rat.pcs", "--bound", huge], ["encode", huge, "--shape", "nat.dec"]):
        code, out, err = run(capsys, "shape", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapacityError"
    # Only ASCII digits are read: int() would take "٣" as 3 and "1_0" as 10.
    for text in ("ten", "٣", "١٠", "1_0"):
        for argv in (["normality", "--bound", text], ["encode", text]):
            with pytest.raises(SystemExit) as exc:
                main(["shape", *argv])
            assert exc.value.code == 2
            assert "invalid int value" in capsys.readouterr().err


MALFORMED_PAYLOADS = [
    pytest.param(["compare", "[1]", "[1,2]", "--shape", "rat.rns"], id="short-pair"),
    pytest.param(["convert", '{"value": 1}', "--to", "nat.dec"], id="missing-shape-key"),
    pytest.param(["convert", '{"shape": 5, "value": "1"}', "--to", "nat.dec"], id="non-string-shape"),
    pytest.param(["convert", '{"shape": "nat.dec"}', "--to", "nat.sdn"], id="missing-value-key"),
    pytest.param(["compare", "5", '"1/2"', "--shape", "rat.ssft"], id="ssft-number"),
    pytest.param(["compare", "[1,2,3]", '"0"', "--shape", "int.signed"], id="signed-triple"),
    pytest.param(["compare", "xx", "1", "--shape", "nat.dedekind"], id="not-json"),
    pytest.param(["compare", "[" * 1500 + "]" * 1500, "[]", "--shape", "nat.vn"], id="json-too-deep"),
    pytest.param(["compare", "[2.7,1]", "[2,1]", "--shape", "int.diffpair"], id="float-component"),
    pytest.param(["compare", "true", "1", "--shape", "nat.dedekind"], id="bool-count"),
    pytest.param(["compare", '"²"', '"2"', "--shape", "nat.dec"], id="non-ascii-digit"),
    pytest.param(["compare", '["+","²"]', '"0"', "--shape", "int.signed"], id="non-ascii-magnitude"),
    pytest.param(["compare", "[[], 1]", "[]", "--shape", "nat.vn"], id="set-of-number"),
    pytest.param(["compare", '"' + "-" * 3000 + '(1/2)"', '"1/2"', "--shape", "rat.ssft"], id="deep-ssft"),
]


@pytest.mark.parametrize("argv", MALFORMED_PAYLOADS)
def test_shape_malformed_payload(capsys, argv):
    code, out, err = run(capsys, "shape", *argv, "--json")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UnsupportedShape"


# ---------------------------------------------------------------------------
# rns


def test_rns_subcommands(capsys):
    assert run_json(capsys, "rns", "eval", "2/(4/5)")["pair"] == [10, 4]
    assert run_json(capsys, "rns", "num", "2/(4/5)")["pair"] == [10, 1]
    assert run_json(capsys, "rns", "denom", "2/(4/5)")["pair"] == [4, 1]
    assert run_json(capsys, "rns", "eval", "1/0")["value"] is None


def test_rns_verbatim_add(capsys):
    default = run_json(capsys, "rns", "eval", "1/2 + 1/3")
    verbatim = run_json(capsys, "rns", "eval", "1/2 + 1/3", "--verbatim-add")
    assert default["pair"] == [5, 6]
    assert verbatim["pair"] == [7, 6]


# ---------------------------------------------------------------------------
# fractalk / demo


def test_fractalk_check_packaged_corpus(capsys):
    data = run_json(capsys, "fractalk", "check", "corpus/A.ftk")
    assert data["overall"] == "paradox-blocked" and data["blocked_at"] == 5
    data = run_json(capsys, "fractalk", "check", "F")
    assert data["overall"] == "sound"


def test_fractalk_check_local_file(capsys, tmp_path):
    path = tmp_path / "tiny.ftk"
    path.write_text("1: 1/2 == 2/4\n")
    data = run_json(capsys, "fractalk", "check", str(path))
    assert data["overall"] == "sound"


def test_fractalk_missing_file(capsys):
    code, _, err = run(capsys, "fractalk", "check", "nope.ftk")
    assert code == 1 and json.loads(err)["error"] == "FractermError"


def test_fractalk_only_corpus_names_fall_back(capsys, monkeypatch, tmp_path):
    # A missing NAME, NAME.ftk or corpus/NAME.ftk is a packaged script; any other missing path is not.
    monkeypatch.chdir(tmp_path)
    for script in ("/nonexistent/dir/F.ftk", "typo/A", "typo/A.ftk"):
        code, out, err = run(capsys, "fractalk", "check", script)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "FractermError", "message": f"no such script: {script}"}
    for script in ("corpus/A.ftk", "A.ftk", "A", "./A"):
        data = run_json(capsys, "fractalk", "check", script)
        assert data["overall"] == "paradox-blocked" and data["blocked_at"] == 5


@pytest.mark.parametrize("case", ["directory", "not utf-8", "name too long"])
def test_fractalk_unreadable_script(capsys, tmp_path, case):
    (tmp_path / "latin1.ftk").write_bytes(b"1: 1/2 == 2/4 @ft \xe9\n")
    script = {"directory": tmp_path, "not utf-8": tmp_path / "latin1.ftk", "name too long": "a" * 5000}[case]
    code, out, err = run(capsys, "fractalk", "check", str(script))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert set(error) == {"error", "message"} and error["error"] == "FractermError"


def test_fractalk_script_byte_budget(capsys, tmp_path):
    claim = b"1: 1/2 == 2/4\n"
    padding = b"#" * (SCRIPT_BYTES - len(claim) - 1) + b"\n"
    (tmp_path / "full.ftk").write_bytes(claim + padding)
    (tmp_path / "over.ftk").write_bytes(claim + b"#" + padding)
    assert run_json(capsys, "fractalk", "check", str(tmp_path / "full.ftk"))["overall"] == "sound"
    code, out, err = run(capsys, "fractalk", "check", str(tmp_path / "over.ftk"))
    assert code == 1 and out == ""
    assert json.loads(err) == {
        "error": "CapacityError",
        "message": f"script {tmp_path / 'over.ftk'} is longer than {SCRIPT_BYTES} bytes",
    }


def test_fractalk_empty_script(capsys, tmp_path):
    script = tmp_path / "empty.ftk"
    script.write_text("# nothing asserted\n")
    code, out, err = run(capsys, "fractalk", "check", str(script))
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "ScriptError", "message": "script holds no assertions"}


def test_fractalk_malformed_pragma(capsys, tmp_path):
    script = tmp_path / "pragma.ftk"
    script.write_text("@disjoint\n1: 2/3 is rational\n")
    code, out, err = run(capsys, "fractalk", "check", str(script))
    assert code == 1 and out == ""
    error = json.loads(err)
    assert error["error"] == "ScriptError" and error["message"].startswith("line 1: bad pragma")


@pytest.mark.parametrize("pragma,argv", [("@shape bogus\n", []), ("", ["--shape", "bogus"])])
def test_fractalk_unknown_shape(capsys, tmp_path, pragma, argv):
    script = tmp_path / "shape.ftk"
    script.write_text(pragma + "1: 2/3 is fraxion\n2: rationals are not fracterms\n")
    code, out, err = run(capsys, "fractalk", "check", str(script), *argv)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "UnsupportedShape", "message": "unknown shape 'bogus'"}


def test_demo_runs_whole_corpus(capsys):
    data = run_json(capsys, "demo")
    assert data["A"]["blocked_at"] == 5
    assert data["B"]["blocked_at"] == 4
    assert data["C"]["blocked_at"] == 2
    assert data["D"]["overall"] == "sound"
    assert data["F"]["overall"] == "sound"


def test_demo_text_mode(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "sequence A" in out and "paradox-blocked at step 5" in out


# ---------------------------------------------------------------------------
# exit codes


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "1/+")
    assert code == 1
    assert json.loads(err)["error"] == "ParseError"


HUGE_PRODUCT = "*".join(["9" * 100] * 50)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["1" * 5000], id="literal"),
        pytest.param([HUGE_PRODUCT], id="product-pcs-text"),
        pytest.param([HUGE_PRODUCT, "--json"], id="product-pcs"),
        pytest.param([HUGE_PRODUCT, "--shape", "rat.ssft", "--json"], id="product-ssft"),
    ],
)
def test_eval_past_the_digit_limit(capsys, argv):
    # 5000 digits exceed Python's limit on int/str conversion (4300).
    code, out, err = run(capsys, "eval", *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapacityError"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["rns", "eval", f"({HUGE_PRODUCT})/2"], id="rns-eval"),
        pytest.param(["flatten", f"({HUGE_PRODUCT})/2"], id="flatten"),
        pytest.param(["simplify", f"({HUGE_PRODUCT})/2"], id="simplify"),
        pytest.param(["add", "1/" + "9" * 4000, "1/" + "9" * 4000, "--strategy", "numeral"], id="add-numeral"),
    ],
)
def test_intermediates_past_the_digit_limit(capsys, argv):
    # Each command would write an integer of more than 4300 digits.
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapacityError"


def test_shape_compare_past_the_digit_limit(capsys):
    code, out, err = run(capsys, "shape", "compare", '"' + "1" * 5000 + '"', '"1"', "--shape", "nat.dec")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "CapacityError"


def test_zermelo_encode_depth_budget(capsys):
    for argv in (["--json"], []):
        code, out, _ = run(capsys, "shape", "encode", "800", "--shape", "nat.zermelo", *argv)
        assert code == 0 and out.count("[") == 801
        code, out, err = run(capsys, "shape", "encode", "1000", "--shape", "nat.zermelo", *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapacityError"


def test_vn_encode_character_budget(capsys):
    code, out, _ = run(capsys, "shape", "encode", "18", "--shape", "nat.vn", "--json")
    assert code == 0 and len(json.loads(out)["value"]) == 18
    for k in ("19", "22"):
        code, out, err = run(capsys, "shape", "encode", k, "--shape", "nat.vn", "--json")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "CapacityError"


def test_vn_convert_past_the_cap(capsys):
    code, out, err = run(capsys, "shape", "convert", '{"shape": "nat.dedekind", "value": 65536}', "--to", "nat.vn")
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "CapacityError", "message": "nat.vn holds no value past the set-nat cap 2500"}


@pytest.mark.parametrize("text", ["x²", "٣/4"])
def test_non_ascii_term_exit_code(capsys, text):
    code, out, err = run(capsys, "parse", text)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParseError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "1/2", "--policy", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_deterministic_output(capsys):
    first = run(capsys, "flatten", "(1/2)/(3/4)", "--json")
    second = run(capsys, "flatten", "(1/2)/(3/4)", "--json")
    assert first == second


# ---------------------------------------------------------------------------
# a stdout that takes no more output: exit 1 with JSON on stderr

HALVES = "+".join(["1/2"] * 60)  # its flatten --json is 189,714 bytes, more than a pipe holds
WRITES = [["demo"], ["flatten", "--json", HALVES], ["parse", "1/2"]]


def cli_process(argv, stdout, buffered):
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    cmd = [sys.executable, "-m", "fracterm.cli", *argv]
    return subprocess.Popen(cmd, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)


def assert_one_json_error(proc, name):
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.count("\n") == 1 and json.loads(err)["error"] == name


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITES, ids=lambda argv: argv[0])
def test_stdout_pipe_without_a_reader(argv, buffered):
    read, write = os.pipe()
    os.close(read)  # before the process starts, so that its first write fails
    try:
        proc = cli_process(argv, write, buffered)
    finally:
        os.close(write)
    assert_one_json_error(proc, "BrokenPipeError")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_pipe_closed_after_its_first_bytes(buffered):
    fcntl = pytest.importorskip("fcntl")
    read, write = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):  # 64 KiB, whatever the page size, so the output cannot fit
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 16)
    try:
        proc = cli_process(["flatten", "--json", HALVES], write, buffered)
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as pipe:
        assert pipe.read(10) == b'{"result":'
    assert_one_json_error(proc, "BrokenPipeError")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", WRITES, ids=lambda argv: argv[0])
def test_stdout_full(argv, buffered):
    with open("/dev/full", "w") as full:
        proc = cli_process(argv, full, buffered)
    assert_one_json_error(proc, "OSError")


def table_handlers(table):
    """The handlers of table's rows, and of its groups' tables."""
    for _, target, *_ in table.values():
        yield from table_handlers(target) if isinstance(target, dict) else [target]


def test_only_main_prints():
    # Each handler returns (the JSON object, the text lines); main alone
    # writes them, or the error, and picks the exit code.
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    writers = set()
    for fn in functions:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                writers.add(fn.name)
            if isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr", "exit"):
                writers.add(fn.name)
    assert writers == {"main"}
    handlers = [fn for fn in functions if fn.name.startswith("_cmd_")]
    assert len(handlers) == 13
    assert {fn.name for fn in handlers} == {fn.__name__ for fn in table_handlers(cli.COMMANDS)}
    for fn in handlers:
        returns = [node.value for node in ast.walk(fn) if isinstance(node, ast.Return)]
        assert returns and all(isinstance(value, ast.Tuple) and len(value.elts) == 2 for value in returns), fn.name


# ---------------------------------------------------------------------------
# help text and choices: the CLI spells out the library's policies and
# strategies, so that building the parser imports neither module.

HELP = {
    (): "usage: fracterm [-h] {parse,classify,eval,flatten,simplify,add,shape,rns,fractalk,demo} ... "
    "Workbench for fraction terms: taxonomy, shapes, division-by-zero semantics, rewriting, and "
    "assertion scripts. positional arguments: {parse,classify,eval,flatten,simplify,add,shape,rns,"
    "fractalk,demo} parse parse a term and print its renderings classify syntactic taxonomy flags of "
    "a term eval evaluate a closed term to a fracvalue flatten rewrite into a flat fracterm with a "
    "trace simplify reduce a flat fracterm to simplified form add one member of the addition family "
    "shape shape encoding, conversion, comparison, normality rns ratio-number evaluation and "
    "extraction fractalk assertion-script checking demo check the whole packaged corpus options: "
    "-h, --help show this help message and exit",
    ("eval",): "usage: fracterm eval [-h] [--format {inline,colon,frac}] [--json] [--policy "
    "{partial,suppes-ono,common-meadow}] [--shape SHAPE] term positional arguments: term a term, "
    "such as 1/2+1/3 options: -h, --help show this help message and exit --format "
    "{inline,colon,frac} 1/2, 1:2 or frac(1,2) (default: inline) --json print the result as one JSON "
    "object --policy {partial,suppes-ono,common-meadow} division by zero is an error, zero, or an "
    "absorbing bottom (default: common-meadow) --shape SHAPE a shape id, such as nat.vn or rat.ssft "
    "(default: rat.pcs)",
    ("add",): "usage: fracterm add [-h] [--format {inline,colon,frac}] [--json] [--strategy "
    "{cross,same-denom,numeral,trivial,all}] left right positional arguments: left the first summand "
    "right the second summand options: -h, --help show this help message and exit --format "
    "{inline,colon,frac} 1/2, 1:2 or frac(1,2) (default: inline) --json print the result as one JSON "
    "object --strategy {cross,same-denom,numeral,trivial,all} one member of the family, or all "
    "(default: cross)",
}


def help_text(capsys, monkeypatch, *argv):
    """The help of fracterm [argv] --help, whitespace collapsed (wrapping varies by Python version)."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    return " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("argv", list(HELP), ids=lambda argv: " ".join(argv) or "top")
def test_help_text(capsys, monkeypatch, argv):
    assert help_text(capsys, monkeypatch, *argv) == HELP[argv]


def test_choices_are_the_library_values(capsys, monkeypatch):
    policies = re.search(r"--policy {([^}]*)}", help_text(capsys, monkeypatch, "eval")).group(1)
    assert policies.split(",") == list(semantics.POLICIES)
    strategies = re.search(r"--strategy {([^}]*)}", help_text(capsys, monkeypatch, "add")).group(1)
    assert strategies.split(",") == [*rewrite.STRATEGIES, "all"]
    formats = re.search(r"--format {([^}]*)}", help_text(capsys, monkeypatch, "parse")).group(1)
    assert formats.split(",") == list(terms.FORMATS)


# ---------------------------------------------------------------------------
# one parser row: main declares only the row its argv names, and answers as
# the parser with every row would, usage lines and errors included.

BAD_ARGVS = [
    ("eval", "1/2", "extra"),  # the top parser's error, which prints the full usage
    ("add", "1/2"),
    ("shape", "encode"),
    ("shape", "encode", "3", "--shape"),
    ("fractalk", "check"),
    ("rns", "eval", "--verbatim", "1/2"),  # an abbreviated long option
]


def run_exiting(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


@pytest.mark.parametrize("argv", [*dict.fromkeys(tuple(g[0]) for g in GOLDENS), *BAD_ARGVS], ids=" ".join)
def test_one_parser_row_answers_as_every_row(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    one_row = run_exiting(capsys, argv)
    every_row = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: every_row())
    assert run_exiting(capsys, argv) == one_row
