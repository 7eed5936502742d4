#!/usr/bin/env python3
"""Print the fracterm CLI's help screens and its bare-group usage errors.

Each screen is the ``--help`` text of one command or group, from a fixed
argv list; then come the stderr usage errors of ``fracterm``, ``shape``,
``rns`` and ``fractalk`` called without a subcommand. Each entry is a
``$ fracterm ...`` line, then the text with its whitespace collapsed, as
at a width of 80 columns, so that neither the terminal nor the Python
version changes the output.

Run from the repository root:  PYTHONPATH=src python scripts/cli_help.py
"""

import contextlib
import io
import os

from fracterm import cli

SCREENS = [
    (), ("parse",), ("classify",), ("eval",), ("flatten",), ("simplify",), ("add",),
    ("shape",), ("shape", "encode"), ("shape", "convert"), ("shape", "compare"), ("shape", "normality"),
    ("rns",), ("rns", "eval"), ("rns", "num"), ("rns", "denom"),
    ("fractalk",), ("fractalk", "check"),
    ("demo",),
]
BARE = [(), ("shape",), ("rns",), ("fractalk",)]


def run(argv):
    """The exit code and the collapsed stdout and stderr of fracterm argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, " ".join(out.getvalue().split()), " ".join(err.getvalue().split())


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps, and may break a long word, at this width
    for argv in SCREENS:
        code, out, err = run([*argv, "--help"])
        assert code == 0 and not err, (argv, code, err)
        print(" ".join(["$ fracterm", *argv, "--help"]))
        print(out)
    for argv in BARE:
        code, out, err = run(argv)
        assert code == 2 and not out, (argv, code, out)
        print(" ".join(["$ fracterm", *argv]), f"(exit {code}, stderr)")
        print(err)


if __name__ == "__main__":
    main()
