#!/usr/bin/env python3
"""Print how the parser reads a fixed set of texts, one line per input.

Each line gives the format, the text (as a Python literal) and either the
inline print of the parsed term or the ParseError message with its
position. The inputs are the malformed rows of the suite's parse-error
table, then seeded strings, each in all three formats. A string is drawn
from pieces that exercise the lexer: digits, ASCII letters, the frac
keyword with and without a decoration, decorated division signs of both
formats, an underscore, a superscript and an Arabic-Indic digit (not
ASCII), a file-separator control (whitespace to Python), a space, a tab
and every operator. A third of the strings are printed random terms and
another third such prints with one piece spliced in, so that many parse.

Run from the repository root:  PYTHONPATH=src python scripts/parse_table.py
"""

import argparse
import random
import sys

sys.path.insert(0, "tests")  # reuse the suite's table and term generator

from fracterm.errors import ParseError
from fracterm.terms import FORMATS, Div, format_term, parse_term

from gen import random_term
from test_terms import PARSE_ERRORS

PIECES = [
    "0", "7", "12", "007", "x", "y", "ab", "z2", "ft", "fv", "ft2", "frac", "frac_ft", "frac_fv",
    "/ft", "/fv", ":ft", ":fv", "_", "²", "٣", "\x1c", " ", "\t",
    "+", "-", "*", "/", ":", "(", ")", ",",
]


def decorate(rng, t):
    """t with the decoration of its root division, if any, drawn at random."""
    if isinstance(t, Div):
        return Div(t.left, t.right, rng.choice([None, "ft", "fv"]))
    return t


def random_text(rng):
    mode = rng.randrange(3)
    if mode == 0:
        return "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 10)))
    text = format_term(decorate(rng, random_term(rng, 3, var_share=0.2)), rng.choice(FORMATS))
    if mode == 2:
        cut = rng.randint(0, len(text))
        text = text[:cut] + rng.choice(PIECES) + text[cut + rng.randint(0, 1):]
    return text


def reading(text, fmt):
    try:
        return format_term(parse_term(text, fmt))
    except ParseError as exc:
        return f"ParseError: {exc}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=3000, help="seeded strings")
    parser.add_argument("--seed", type=int, default=2022)
    args = parser.parse_args()

    inputs = [(text, fmt) for text, fmt, _ in PARSE_ERRORS]
    rng = random.Random(args.seed)
    for _ in range(args.count):
        text = random_text(rng)
        inputs += [(text, fmt) for fmt in FORMATS]
    for text, fmt in inputs:
        print(f"{fmt}\t{text!r}\t{reading(text, fmt)}")


if __name__ == "__main__":
    main()
