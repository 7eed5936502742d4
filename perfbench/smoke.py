"""Smoke test of the benchmark itself: python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and asserts that
the last line names exactly the metrics BENCHMARK.json lists, each with
its unit. Then corrupts one reference value, and separately makes the
250-literal sum refuse with a FractermError, and asserts each time that
the ops fail and the run reports itself incorrect. Exits 0 on success.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_SECONDS = 0.05


def tiny_cli_passes(passes):
    """A few argvs of each kind, so a CLI pass takes seconds rather than a quarter minute."""
    keep = ("golden.parse", "golden.fractalk", "vn.k10", "normality.rat.pcs.b50", "defect.parens400")
    return [[item for item in items if item.variant in keep] for items in passes]


def result_of(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", str(TINY_SECONDS),
                         "--trace", str(trace)])
    assert code == 0, f"{workload} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expect_metrics(result, specs, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"], label
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in specs}
    assert emitted == wanted, f"{label}: metrics differ: {set(emitted) ^ set(wanted)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} is not a number"


def main() -> int:
    original = workloads.CliOneshot.passes
    workloads.CliOneshot.passes = lambda self, seed, seconds: tiny_cli_passes(original(self, seed, seconds))
    try:
        for w in SPEC["workloads"]:
            name = w["name"]
            plain = result_of(name, 0)
            expect_metrics(plain, SPEC["end_to_end"], f"{name} --trace 0")
            assert plain["correct"], f"{name}: an op gave a wrong answer"
            traced = result_of(name, 1)
            expect_metrics(traced, SPEC["per_layer"], f"{name} --trace 1")
            print(f"{name}: ok ({plain['attempted']} ops, {plain['failed']} failed)")
    finally:
        workloads.CliOneshot.passes = original

    baseline = result_of("eval-mix", 0)
    honest = reference.evaluate
    reference.evaluate = lambda t, policy: honest(t, policy) + Fraction(1)
    try:
        broken = result_of("eval-mix", 0)
    finally:
        reference.evaluate = honest
    assert broken["failed"] > baseline["failed"], "a wrong reference did not raise fail_ratio"
    assert not broken["correct"], "a wrong reference did not make the run incorrect"
    print(f"wrong reference: failed {baseline['failed']} -> {broken['failed']} of {broken['attempted']}")

    from fracterm.errors import FractermError

    honest_op = workloads.EvalMix.op

    def refusing(self, api, item):
        if item.variant == "sum250":
            raise FractermError("input too long")
        return honest_op(self, api, item)

    workloads.EvalMix.op = refusing
    try:
        refused = result_of("eval-mix", 0)
    finally:
        workloads.EvalMix.op = honest_op
    assert refused["failed"] > baseline["failed"], "a refusal did not raise fail_ratio"
    assert not refused["correct"], "a refusal of an input with a known value passed as correct"
    print(f"refusal: failed {baseline['failed']} -> {refused['failed']} of {refused['attempted']}")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
