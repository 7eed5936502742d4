#!/usr/bin/env python3
"""Check every packaged fractalk sequence and print the analysis."""

import argparse
from importlib import resources

from fracterm.cli import CORPUS_ORDER
from fracterm.fractalk import check, parse_script


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", help="rat shape for every sequence, in place of its @shape pragma")
    args = parser.parse_args()

    for name in CORPUS_ORDER:
        text = (resources.files("fracterm") / "corpus" / f"{name}.ftk").read_text()
        script = parse_script(text)
        verdict = check(script, shape_id=args.shape)
        shape = args.shape or script.shape_id or "rat.pcs"
        print(f"== sequence {name} (shape {shape})")
        for assertion in script.assertions:
            status = verdict.step(assertion.index)
            flag = "ok " if status.valid else "!! "
            print(f"  {flag}{assertion.index}: {assertion.text}")
            if status.explanation:
                print(f"      -> {status.explanation}")
        if verdict.overall == "sound":
            print("  verdict: sound")
        else:
            print(f"  verdict: paradox blocked at step {verdict.blocked_at}")
        print()


if __name__ == "__main__":
    main()
