"""The fracterm benchmark: one seeded workload per run, every metric by name.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 15 --trace 0

Workloads: eval-mix, flatten-sums, fractalk-scripts, cli-oneshot (see
workloads.py for what each runs and why). Every op is checked against an
independent reference outside the timed region.

--trace 0 times the workload untraced and reports the end-to-end metrics.
--trace 1 runs half the work untraced and the same half traced, reports
the per-layer metrics, the tracing overhead as the difference of the two
ops_per_s, and writes the spans to perfbench/out/.

A run repeats a pool of inputs over many passes, each input once per
pass. Every time is wall time scaled to a reference speed of the host,
read from a calibration loop that runs beside the ops (calibrate.py):
the host these workloads were sized on changes speed by up to 1.7x from
second to second, and unscaled 20 s runs of unchanged code differ by up
to 25%. The end-to-end metrics:
  ops_per_s   correct op runs / the summed time of all op runs;
  op_p50_ms   the median op time, failed ops ranked slowest;
  op_tail_ms  the highest percentile with at least 10 op runs beyond it;
  setup_s     the median of 15 fresh interpreters importing the package;
  peak_rss_mb the process's peak RSS (cli-oneshot: the largest child's).
For the two percentiles each op run reads the median time its input took
over the run (see input_medians). The per-layer busy times of --trace 1 are
unscaled wall times and include the calibration samples taken inside
spans (about 2%).

The lines before the last describe the run: environment, every metric
with its unit, the tail percentile with its sample count, the scale
factors and the unscaled figures, fail_ratio (also given exactly by
"failed" / "attempted"), the failures by input variant, and each scaling
exponent with its points. The last line is one JSON object: {"correct",
"attempted", "failed", "metrics"}. An op fails when it raises or its
result differs from the reference. The inputs that fail at the seed
commit are marked as known defects: their failures count in "failed".
A failure on any other input makes "correct" false.

Nothing here raises the recursion limit: ops run at the interpreter's
default, as the CLI does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_IMPORTS = 15
SERIES = {
    "rewrite.flatten.exponent": ("rewrite.flatten", [(n, f"n{n}") for n in (5, 10, 20, 40)]),
    "fractalk.check.exponent": ("fractalk.check", [(n, f"s{n}") for n in (50, 100, 200, 400, 800)]),
}
POLICY_SHAPES = [(p, s) for p in ("partial", "suppes-ono", "common-meadow") for s in ("rat.pcs", "rat.ssft")]
POLICY_SHAPES.append(("common-meadow", "rat.rns"))
CORPUS_NAMES = ("A", "B", "Bprime", "Bpp", "C", "Cprime", "D", "E", "F")
NORMALITY_SHAPES, NORMALITY_BOUNDS = ("rat.pcs", "rat.ssft"), (50, 100, 200)
VN_KS = (10, 12, 14, 16)
WORKLOAD_NAMES = ("eval-mix", "flatten-sums", "fractalk-scripts", "cli-oneshot")
CLI_COMMANDS = ("parse", "classify", "eval", "flatten", "simplify", "add", "shape", "rns", "fractalk")


def environment(seed) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
        "recursion_limit": sys.getrecursionlimit(),
    }


def git_commit() -> str:
    """HEAD of the checkout's own .git, read without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def sample_setup(module: str):
    """SETUP_IMPORTS fresh interpreters importing module, timed inside the child.

    Returns the import times scaled to the reference speed and as measured.
    Each child reads the host's speed just before and after its import
    (see calibrate.py). The first import, which may compile, is dropped.
    The imports run before the timed passes, so that their children do not
    cool the caches the ops run in.
    """
    from calibrate import scale
    from workloads import child_env

    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import calibrate, time; "
            f"k = calibrate.sample(); t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t, k, calibrate.sample())")
    scaled_s, wall_s = [], []
    for _ in range(SETUP_IMPORTS + 1):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, before, after = map(float, out.stdout.split())
        wall_s.append(seconds)
        scaled_s.append(seconds * scale(before, after))
    return scaled_s[1:], wall_s[1:]


def judge(workload, item, result, exc):
    """None for a correct op, else why it failed.

    An op fails when it raises (FractermError included: the reference
    predicts a result for every input) or when its result differs from the
    reference.
    """
    if exc is not None:
        return f"raised {type(exc).__name__}"
    try:
        return workload.check(item, result)
    except Exception as err:  # the check itself must never stop the run
        return f"check raised {type(err).__name__}: {err}"


def run_passes(workload, api, passes, tracer=None, tally=None):
    """Run every pass in order, each op as a closed loop with one caller.

    Each op is checked, and its result dropped, as soon as it returns; the
    checks lie outside the op intervals. Every op's time is scaled to the
    reference speed (see calibrate.py): an op in this process by the
    samples a Meter took from just before it to just after it, with the
    time the samples took taken out; an op that is a child process by the
    samples the child took itself. The benchmark's own inputs and
    expectations are frozen out of the cyclic garbage collector, so that
    collections scan what the ops allocate, not the benchmark's pool.
    Returns, per op run, (input, wall time, scale, failure reason or None).
    """
    from calibrate import Meter, scale

    workload.reset()
    in_child = hasattr(workload, "child_calibration")
    meter = Meter()
    runs = []
    pending = []  # (index into runs, last sample before the op, first sample after it)
    gc.collect()
    gc.freeze()
    try:
        for items in passes:
            with contextlib.nullcontext() if in_child else meter:
                for item in items:
                    span = tracer.begin_op(item.variant) if tracer else None
                    first, spent = len(meter.samples) - 1, meter.spent
                    t0 = perf_counter()
                    try:
                        result, exc = workload.op(api, item), None
                    except Exception as err:  # a crashing op is a failed op, not the end of the run
                        result, exc = None, err
                    latency = perf_counter() - t0 - (meter.spent - spent)
                    after = len(meter.samples)
                    if tracer:
                        tracer.end_op(span)
                    reason = judge(workload, item, result, exc)
                    calibration = workload.child_calibration(result) if in_child and exc is None else None
                    if calibration:
                        before, after_child, child_spent = calibration
                        runs.append((item, latency - child_spent, scale(before, after_child), reason))
                    else:
                        if not in_child:
                            pending.append((len(runs), first, after))
                        runs.append((item, latency, None, reason))
                    if tally is not None and exc is None:
                        workload.tally(item, result, tally)
                    settle(runs, pending, meter.samples)
            settle(runs, pending, meter.samples)
    finally:
        gc.unfreeze()
    # An op left without samples (a child that died before it wrote them)
    # takes the run's median scale.
    known = [factor for _, _, factor, _ in runs if factor is not None]
    fallback = statistics.median(known) if known else 1.0
    return [(item, seconds, fallback if factor is None else factor, reason)
            for item, seconds, factor, reason in runs]


def settle(runs, pending, samples):
    """Scale each pending op whose first sample after it is in, by the samples around and inside it."""
    from calibrate import scale

    while pending and pending[0][2] < len(samples):
        i, first, after = pending.pop(0)
        item, seconds, _, reason = runs[i]
        runs[i] = (item, seconds, scale(*samples[first:after + 1]), reason)


def scaled(runs):
    return [seconds * factor for _, seconds, factor, _ in runs]


def ops_per_s(runs, times=None):
    """Correct op runs over the summed time of all op runs, failed ones included."""
    ok = sum(reason is None for *_, reason in runs)
    return ok / sum(scaled(runs) if times is None else times)


def input_medians(runs, times):
    """Each op run's time replaced by the median time of its input over the run.

    Every input runs once per pass, at places spread over the whole run. A
    percentile over single op runs would land inside one input's
    repetitions and move with what happened at those moments, a garbage
    collection that an earlier op's garbage set off, say; the input's
    median is its typical time. ops_per_s, a sum, keeps every cost.
    """
    by_input = {}
    for (item, *_), t in zip(runs, times):
        by_input.setdefault(id(item), []).append(t)
    medians = {key: statistics.median(ts) for key, ts in by_input.items()}
    return [medians[id(item)] for item, *_ in runs]


def ranked(times, reasons):
    """Times in rank order, a failed op ranking slower than every successful one."""
    return [t for _, t in sorted((reason is not None, t) for t, reason in zip(times, reasons))]


def tail(order):
    """The highest percentile with at least 10 samples beyond it: (value, percentile, beyond)."""
    i = max(0, len(order) - 11)
    return order[i], 100.0 * (i + 1) / len(order), len(order) - 1 - i


def end_to_end(runs, setup, peak_rss_kb):
    reasons = [reason for *_, reason in runs]
    order = ranked(input_medians(runs, scaled(runs)), reasons)
    tail_value, pct, beyond = tail(order)
    failed = sum(r is not None for r in reasons)
    metrics = {
        "ops_per_s": (ops_per_s(runs), "op/s"),
        "op_p50_ms": (statistics.median(order) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "setup_s": (statistics.median(setup[0]), "s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
    }
    wall = [seconds for _, seconds, _, _ in runs]
    wall_order = ranked(input_medians(runs, wall), reasons)
    factors = [factor for _, _, factor, _ in runs]
    notes = [
        f"{len(runs)} op runs of {len({id(item) for item, *_ in runs})} distinct inputs",
        f"op_tail_ms is p{pct:.3f} of {len(order)} op runs, {beyond} beyond it",
        f"times are scaled to the reference speed by factors from {min(factors):.4g} to {max(factors):.4g},"
        f" median {statistics.median(factors):.4g}",
        f"unscaled wall time: ops_per_s {ops_per_s(runs, wall):.6g} op/s,"
        f" op_p50_ms {statistics.median(wall_order) * 1e3:.6g} ms, op_tail_ms {tail(wall_order)[0] * 1e3:.6g} ms,"
        f" setup_s {statistics.median(setup[1]):.6g} s",
        f"setup_s is the median of {[round(s, 4) for s in setup[0]]}",
        f"metric fail_ratio {failed / len(runs):.6g} 1 (failed/attempted; 0 on some workloads,"
        " so it is not in the JSON metrics)",
    ]
    return metrics, notes


def slope_note(name, points, slope):
    pts = ", ".join(f"({x}, {y:.6g})" for x, y in points)
    return f"{name} {slope:.4f} over points {pts}"


def layer_metrics(s, tally, overhead, spans):
    """Every per-layer metric; one that this workload does not exercise reads 0.

    tally holds what the workload counted from its ops' results.
    """
    from tracing import loglog_slope

    m, notes = {}, []
    busy = lambda name, **kw: (s.busy(name, **kw), "s")  # noqa: E731
    parse_busy = s.busy("terms.parse_term")
    m["terms.parse_term.busy_s"] = (parse_busy, "s")
    m["terms.parse_term.chars_per_s"] = (s.parsed_chars / parse_busy if parse_busy else 0.0, "char/s")
    m["terms.format_term.busy_s"] = busy("terms.format_term")
    m["terms.classify.busy_s"] = busy("terms.classify")
    # Counts for one run of each unit sum, n = 5..40; a count that repeats exactly.
    sums = [f"n{n}" for n in (5, 10, 20, 40)]
    per_op = [s.calls("terms.contains_div", variant=v) // s.op_count(v) for v in sums if s.op_count(v)]
    m["terms.contains_div.calls"] = (sum(per_op), "count")
    for policy, shape in POLICY_SHAPES:
        name = f"semantics.eval_term.{policy}.{shape}"
        m[f"{name}.busy_s"] = busy(name)
    m["semantics.eval_term.calls"] = (s.calls("semantics.eval_term.", prefix=True), "count")
    evals = tally.get("meadow_evals", 0)
    m["semantics.eval_term.bottom_share"] = (tally.get("meadow_bottoms", 0) / evals if evals else 0.0, "1")
    m["ratio.rn_eval.busy_s"] = busy("ratio.rn_eval")
    for variant in ("n5", "n10", "n20", "n40", "random"):
        m[f"rewrite.flatten.{variant}.busy_s"] = busy("rewrite.flatten", variant=variant)
    for metric, (span, series) in SERIES.items():
        points = [(x, s.busy(span, variant=v) / s.op_count(v)) for x, v in series if s.op_count(v)]
        slope = loglog_slope(points) if len(points) == len(series) else 0.0
        m[metric] = (slope, "1")
        if points:
            notes.append(slope_note(metric, points, slope))
    m["rewrite.flatten.steps"] = (sum(tally.get(f"{v}.steps", 0) for v in sums), "count")
    m["rewrite.flatten.out_chars"] = (sum(tally.get(f"{v}.out_chars", 0) for v in sums), "char")
    for name in ("rewrite.RewriteTrace.to_json", "rewrite.simplify", "rewrite.add_family_all"):
        m[f"{name}.busy_s"] = busy(name)
    m["rewrite.flatten.calls"] = (s.calls("rewrite.flatten"), "count")
    parse_script = s.busy("fractalk.parse_script")
    m["fractalk.parse_script.busy_s"] = (parse_script, "s")
    claims = tally.get("claims", 0)
    m["fractalk.parse_script.claims_per_s"] = (claims / parse_script if parse_script else 0.0, "claim/s")
    m["fractalk.infer_levels.busy_s"] = busy("fractalk.infer_levels")
    m["fractalk.check.self_s"] = (s.self_time("fractalk.check"), "s")
    for name in CORPUS_NAMES:
        m[f"fractalk.check.{name}.busy_s"] = busy("fractalk.check", variant=name)
    by_bound = {}
    for shape in NORMALITY_SHAPES:
        for bound in NORMALITY_BOUNDS:
            name = f"shapes.normality_report.{shape}.b{bound}"
            m[f"{name}.busy_s"] = busy(name)
            by_bound[bound] = by_bound.get(bound, 0.0) + s.busy(name) / max(1, s.calls(name))
    points = [(b, v) for b, v in by_bound.items() if v > 0]
    slope = loglog_slope(points) if len(points) == len(NORMALITY_BOUNDS) else 0.0
    m["shapes.normality_report.exponent"] = (slope, "1")
    if points:
        notes.append(slope_note("shapes.normality_report.exponent (both shapes summed)", points, slope))
    points = []
    for k in VN_KS:
        name = f"shapes.instance_to_json.nat.vn.k{k}"
        chars = tally.get(f"vn.k{k}.out_chars", 0)
        m[f"{name}.out_chars"] = (chars, "char")
        m[f"{name}.busy_s"] = busy("shapes.instance_to_json", variant=f"vn.k{k}")
        if chars:
            points.append((k, chars))
    slope = loglog_slope(points) if len(points) == len(VN_KS) else 0.0
    m["shapes.instance_to_json.nat.vn.exponent"] = (slope, "1")
    if points:
        notes.append(slope_note("shapes.instance_to_json.nat.vn.exponent (out_chars over k)", points, slope))
    imports = s.calls("cli.import")
    m["cli.import_s"] = (s.busy("cli.import") / imports if imports else 0.0, "s")
    for command in CLI_COMMANDS:
        m[f"cli.main.{command}.busy_s"] = busy(f"cli.main.{command}")
    m["trace.overhead_ops_per_s"] = (overhead, "op/s")
    m["trace.spans"] = (spans, "count")
    return m, notes


def run(workload_name, seed, seconds, trace):
    from tracing import Tracer, plain_api, rebound, traced_api
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    notes = [f"env {json.dumps(environment(seed))}"]
    if not trace:
        passes = workload.passes(seed, seconds)
        setup = sample_setup(workload.import_module)
        runs = run_passes(workload, with_context(plain_api()), passes)
        usage = resource.RUSAGE_CHILDREN if workload_name == "cli-oneshot" else resource.RUSAGE_SELF
        metrics, more = end_to_end(runs, setup, resource.getrusage(usage).ru_maxrss)
        notes += more
    else:
        passes = workload.passes(seed, seconds / 2)
        plain_runs = run_passes(workload, with_context(plain_api()), passes)
        tracer = Tracer()
        api = with_context(traced_api(tracer), tracer)
        tally = {}
        with rebound(tracer):
            traced_runs = run_passes(workload, api, passes, tracer, tally)
        plain_rate, traced_rate = ops_per_s(plain_runs), ops_per_s(traced_runs)
        summary = tracer.summary()
        metrics, more = layer_metrics(summary, tally, plain_rate - traced_rate, summary.spans)
        out = HERE / "out" / f"spans-{workload_name}-seed{seed}.jsonl.gz"
        out.parent.mkdir(exist_ok=True)
        tracer.write(out, {"workload": workload_name, "env": environment(seed)})
        notes += more
        notes.append(f"tracing overhead: untraced {plain_rate:.4f} op/s, traced {traced_rate:.4f} op/s")
        notes.append(f"spans written to {out.relative_to(ROOT)}")
        runs = plain_runs + traced_runs
    return metrics, notes, [(item.variant, reason, item.known_defect) for item, *_, reason in runs]


def with_context(api, tracer=None):
    """The layer API plus the tracer and the file the CLI launcher reports to."""
    api.tracer = tracer
    api.child_file = HERE / "out" / "child.json"
    api.child_file.parent.mkdir(exist_ok=True)
    return api


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"],
                        help="'all' runs every workload, untraced and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracterm").is_dir() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"no fracterm source tree (src/fracterm, tests/oracle.py) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

    if args.workload != "all":
        report(args.workload, args.seed, args.seconds, args.trace)
        return 0
    # Each report in a process of its own, so that peak_rss_mb is that run's.
    code = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            code = max(code, subprocess.run([sys.executable, __file__, *argv]).returncode)
    return code


def report(workload, seed, seconds, trace) -> None:
    """Run one workload and print its report; the last line is the JSON result."""
    metrics, notes, verdicts = run(workload, seed, seconds, trace)
    failures = {}
    for variant, reason, known_defect in verdicts:
        if reason is not None:
            key = (variant, reason, known_defect)
            failures[key] = failures.get(key, 0) + 1
    unexpected = [key for key in failures if not key[2]]
    for line in notes:
        print(line)
    for (variant, reason, known_defect), count in sorted(failures.items()):
        print(f"failed {count}x {variant}: {reason}{' (known defect)' if known_defect else ''}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": not unexpected,
        "attempted": len(verdicts),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
