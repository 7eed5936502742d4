"""Run the fracterm CLI in this process, as ``python -m fracterm.cli`` would.

Usage: PERFBENCH_OUT=<file> python3 perfbench/launch.py <fracterm arguments...>

Output, exit code and traceback are those of ``python -m fracterm.cli``.
Around the CLI the launcher reads the host's speed (calibrate.py) and
writes to PERFBENCH_OUT a JSON object {"calibration": [sample before,
sample after, seconds the samples took]}. With PERFBENCH_TRACE=1 it also
records spans of [name, start, end, parent index] for the import of
fracterm.cli, for main and for the shape functions main reaches, under
"spans"; times are perf_counter, which is shared by every process on the
machine.
"""

import json
import os
import runpy
import sys
from time import perf_counter

import calibrate

spans = []


def _span(name, parent=-1):
    spans.append([name, perf_counter(), 0.0, parent])
    return len(spans) - 1


def _end(i):
    spans[i][2] = perf_counter()


def _wrap(module, attr, name_of, parent):
    fn = getattr(module, attr)

    def traced(*args, **kwargs):
        i = _span(name_of(*args), parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _end(i)

    setattr(module, attr, traced)


def traced_main(argv):
    i = _span("cli.import")
    import fracterm.cli
    from fracterm import shapes

    _end(i)
    top = _span(f"cli.main.{argv[0] if argv else 'none'}")
    _wrap(shapes, "normality_report", lambda shape, bound: f"shapes.normality_report.{shape}.b{bound}", top)
    _wrap(shapes, "instance_to_json", lambda inst: "shapes.instance_to_json", top)
    try:
        return fracterm.cli.main(argv)
    finally:
        _end(top)


def main(argv):
    t0 = perf_counter()
    before = calibrate.sample()
    spent = perf_counter() - t0
    try:
        if os.environ.get("PERFBENCH_TRACE") == "1":
            return traced_main(argv)
        sys.argv = [sys.argv[0], *argv]
        runpy.run_module("fracterm.cli", run_name="__main__", alter_sys=True)
        return 0
    finally:
        t0 = perf_counter()
        after = calibrate.sample()
        spent += perf_counter() - t0
        report = {"calibration": [before, after, spent]}
        if spans:
            report["spans"] = spans
        with open(os.environ["PERFBENCH_OUT"], "w") as out:
            json.dump(report, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
