#!/usr/bin/env python3
"""Fuzz fracterm flattening against evaluation.

Generates seeded random closed terms, flattens each, and compares the
values under the common-meadow policy (bottom cases included). Prints a
summary and the first few traces.
"""

import argparse
import random
import sys

sys.path.insert(0, "tests")  # reuse the suite's term generator

from fracterm.rewrite import flatten
from fracterm.semantics import BOTTOM, EvalConfig, eval_term, value_eq
from fracterm.terms import classify, format_term

from gen import random_closed_term

CM = EvalConfig("common-meadow", "rat.pcs")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--show", type=int, default=3, help="traces to print")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    mismatches = bottoms = 0
    for i in range(args.count):
        t = random_closed_term(rng, args.depth)
        result, trace = flatten(t)
        flags = classify(result)
        assert flags.flat or not flags.is_fracterm
        a, b = eval_term(t, CM), eval_term(result, CM)
        if a == BOTTOM or b == BOTTOM:
            bottoms += 1
            agree = a == b
        else:
            agree = value_eq(a, b)
        if not agree:
            mismatches += 1
            print(f"MISMATCH: {format_term(t)} vs {format_term(result)}")
        if i < args.show and trace.steps:
            print(f"{format_term(t)}")
            for step in trace.to_json():
                print(f"  {step['rule']}: {step['before']} => {step['after']}")
    print(
        f"\n{args.count} terms, {bottoms} bottom-valued, "
        f"{mismatches} mismatches (seed {args.seed})"
    )


if __name__ == "__main__":
    main()
