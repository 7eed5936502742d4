"""The four workloads: seeded inputs, the op each input drives, and its check.

Every workload is a closed loop with one caller: ``op`` runs one input to
the end before the next starts. Inputs and their expected outcomes are made
from the seed before timing starts; ``check`` compares an op's result with
the expectation as soon as the op returns, outside the op's interval.

``passes`` returns the ops of a run grouped into passes. Each pass runs
the same pool of inputs, in a new seeded order (flatten-sums keeps one
order), so that every input is timed many times across the run; the
end-to-end percentiles read each input's median time (see run.py). The
amount of work is fixed by the seed and ``--seconds``: each workload turns
the seconds into a number of passes with a nominal rate measured on a
2-core x86-64 box at the seed commit. A run therefore repeats the same ops
on every commit, and a faster program ends sooner.
"""

from __future__ import annotations

import ast
import bisect
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from fracterm.errors import DivisionByZero, NotSimple
from fracterm.semantics import POLICIES, EvalConfig
from fracterm.terms import Div, Lit

import reference as ref
from gen import random_closed_term
from oracle import eval_exact, eval_exact_bot

ROOT = Path(__file__).resolve().parent.parent
RAISES = "raises"


@dataclass
class Item:
    variant: str  # groups ops for the per-layer metrics
    data: object  # what the op is given
    expect: object  # what the reference predicts
    # One of the inputs that fail at the seed commit (recursion limit,
    # traceback). Their failures count in fail_ratio; a failure on any other
    # input makes the run incorrect.
    known_defect: bool = False


def child_env() -> dict:
    """The environment of a child interpreter: this checkout's src first, default shape unset."""
    env = dict(os.environ)
    env.pop("FRACTERM_DEFAULT_SHAPE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _term_texts(t):
    return tuple(ref.print_term(t, f) for f in ("inline", "colon", "frac"))


# ---------------------------------------------------------------------------
# eval-mix


EVAL_PAIRS = [EvalConfig(p, s) for p in POLICIES for s in ("rat.pcs", "rat.ssft")] + [
    EvalConfig("common-meadow", "rat.rns")
]
SUM_LENGTHS = (250, 500, 1000, 2000)
# How many random depth-8 terms of each size (in nodes) the pool holds:
# sizes below 2, 2-7, 8-15, ..., 128-159, in proportion to how often
# random_closed_term makes them; the 1% above 159 nodes is left out, so
# that no random term outweighs the 250-literal sum. Drawing the same mix
# on every seed keeps the pool's mean cost within about 1% from seed to
# seed, and the narrow buckets around 28-31 nodes hold the median op.
SIZE_EDGES = (2, 8, 16, 20, 24, 28, 32, 48, 64, 96, 128, 160)
SIZE_QUOTAS = (92, 50, 11, 7, 8, 10, 10, 43, 41, 58, 28, 10, 0)
PAREN_DEPTHS = (100, 200, 400, 800)


def stratified_terms(rng):
    """Random depth-8 terms drawn until every size bucket holds its quota."""
    need = list(SIZE_QUOTAS)
    terms = []
    while any(need):
        t = random_closed_term(rng, 8)
        bucket = bisect.bisect_right(SIZE_EDGES, sum(1 for _ in ref.nodes(t)))
        if need[bucket]:
            need[bucket] -= 1
            terms.append(t)
    return terms


@dataclass(frozen=True)
class EvalExpect:
    term: object
    printed: tuple
    flags: tuple
    values: dict  # policy -> Fraction, BOT or RAISES


class EvalMix:
    """Parse, print, classify and evaluate one term per op.

    Mostly random depth-8 terms, which hold zero divisors, so the raise,
    totalise and bottom paths of every policy run. A seeded share are deep
    chains whose values are known in closed form: left-leaning sums of
    250-2000 literals and 100-800 nested parentheses. At the seed commit
    the sums of 500 and more literals and the 400 and 800 parentheses hit
    the recursion limit; they are the known-defect share of fail_ratio.
    """

    name = "eval-mix"
    import_module = "fracterm"
    ops_per_second = 320

    def passes(self, seed, seconds):
        rng = random.Random(seed)
        pool = [self._random(t) for t in stratified_terms(rng)]
        pool.append(self._sum(rng, SUM_LENGTHS[0]))
        passes = []
        for _ in range(max(1, round(seconds * self.ops_per_second / len(pool)))):
            rng.shuffle(pool)
            passes.append(list(pool))
        # The 250-literal sum, in every pass, is the slowest op that
        # succeeds today and sets op_tail_ms. The other deep inputs run once
        # per run: fewer than ten samples, so they stay beyond the tail
        # whether they fail, as today, or succeed after a fix.
        deep = [self._sum(rng, n) for n in SUM_LENGTHS[1:]]
        deep += [self._parens(rng, d) for d in PAREN_DEPTHS]
        for item in deep:
            target = rng.choice(passes)
            target.insert(rng.randrange(len(target) + 1), item)
        return passes

    @staticmethod
    def _random(t):
        try:
            partial = eval_exact(t)
        except ZeroDivisionError:
            partial = RAISES
        meadow = eval_exact_bot(t)
        values = {
            "partial": partial,
            "suppes-ono": ref.evaluate(t, "suppes-ono"),
            "common-meadow": ref.BOT if meadow is None else meadow,
        }
        texts = _term_texts(t)
        return Item("random", texts, EvalExpect(t, texts, ref.flags(t), values))

    @staticmethod
    def _sum(rng, length):
        digits = [str(rng.randint(-9, 9)) for _ in range(length)]
        text = "+".join(digits)
        term = ref.left_sum([Lit(d) for d in digits])
        value = Fraction(sum(int(d) for d in digits))
        expect = EvalExpect(term, (text,) * 3, ref.flags(term), dict.fromkeys(POLICIES, value))
        return Item(f"sum{length}", (text,) * 3, expect, known_defect=length >= 500)

    @staticmethod
    def _parens(rng, depth):
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        printed = (f"{a}/{b}", f"{a}:{b}", f"frac({a},{b})")
        texts = tuple("(" * depth + p + ")" * depth for p in printed)
        term = Div(Lit(str(a)), Lit(str(b)))
        expect = EvalExpect(term, printed, ref.flags(term), dict.fromkeys(POLICIES, Fraction(a, b)))
        return Item(f"parens{depth}", texts, expect, known_defect=depth >= 400)

    def reset(self):
        pass

    def op(self, api, item):
        inline, colon, frac = item.data
        parsed = (
            api.parse_term(inline, "inline"),
            api.parse_term(colon, "colon"),
            api.parse_term(frac, "frac"),
        )
        t = parsed[0]
        printed = (api.format_term(t, "inline"), api.format_term(t, "colon"), api.format_term(t, "frac"))
        flags = api.classify(t)
        values = []
        for cfg in EVAL_PAIRS:
            try:
                values.append(api.eval_term(t, cfg))
            except DivisionByZero as exc:
                values.append(exc)
        return parsed, printed, flags, values, api.rn_eval(t)

    def check(self, item, result):
        parsed, printed, flags, values, pair = result
        e = item.expect
        if not all(ref.term_eq(p, e.term) for p in parsed):
            return "parse_term"
        if printed != e.printed:
            return "format_term"
        got = (flags.is_fracterm, flags.closed, flags.flat, flags.simple, flags.safe,
               flags.simplified, flags.proper)
        if got != e.flags:
            return "classify"
        for cfg, v in zip(EVAL_PAIRS, values):
            got = RAISES if isinstance(v, DivisionByZero) else ref.fracvalue(v)
            if got != e.values[cfg.policy]:
                return f"eval_term {cfg.policy} {cfg.shape_id}"
        got = ref.BOT if pair.b == 0 else Fraction(pair.a, pair.b)
        if got != e.values["common-meadow"]:
            return "rn_eval"
        return None

    def tally(self, item, result, acc):
        for cfg, v in zip(EVAL_PAIRS, result[3]):
            if cfg.policy == "common-meadow":
                acc["meadow_evals"] = acc.get("meadow_evals", 0) + 1
                acc["meadow_bottoms"] = acc.get("meadow_bottoms", 0) + (getattr(v, "name", None) == "bot")


# ---------------------------------------------------------------------------
# flatten-sums


UNIT_SUMS = (5, 10, 20, 40)
RANDOM_PER_PASS = 1
MEDIAN_REPEATS = 3  # runs of the n=10 sum, the median op, in each pass


@dataclass(frozen=True)
class FlattenExpect:
    value: object  # common-meadow value of the input
    has_div: bool


class FlattenSums:
    """flatten, RewriteTrace.to_json, simplify, then add_family_all.

    The pool holds the unit-fraction sums 1/2+...+1/(n+1) for n = 5, 10,
    20, 40 and one random depth-2 term, far cheaper than the n=10 sum. The
    n=10 sum runs three times a pass: it is then the median op whatever the
    seed's random term costs (with more random terms the median would hinge
    on the seed's draw), and its median rests on three times the samples.
    With at least eleven passes (12 at 15 s) the tail op is the n=40 sum.
    n = 80 is left out: at the seed commit one flatten of it takes 37 s.
    Every pass runs the pool in the same order, the random term first and
    then the sums by size: the op after the n=40 sum pays for part of its
    garbage, and a shuffled order would move that cost between inputs from
    seed to seed. add_family_all adds the simplified result of the previous
    op that had one.
    """

    name = "flatten-sums"
    import_module = "fracterm"
    seconds_per_pass = 1.25

    def passes(self, seed, seconds):
        rng = random.Random(seed)
        pool = []
        for _ in range(RANDOM_PER_PASS):
            t = random_closed_term(rng, 2)
            value = eval_exact_bot(t)
            pool.append(Item("random", t, FlattenExpect(ref.BOT if value is None else value, ref.has_div(t))))
        for n in UNIT_SUMS:
            t, value = ref.unit_sum(n)
            pool += [Item(f"n{n}", t, FlattenExpect(value, True))] * (MEDIAN_REPEATS if n == 10 else 1)
        count = max(1, round(seconds / self.seconds_per_pass))
        return [list(pool) for _ in range(count)]

    def reset(self):
        self.prev = Div(Lit("1"), Lit("1"))

    def op(self, api, item):
        result, trace = api.flatten(item.data)
        js = api.to_json(trace)
        try:
            simple = api.simplify(result)
        except NotSimple as exc:
            return result, trace, js, exc, None
        addend = self.prev
        added = api.add_family_all(addend, simple)
        self.prev = simple
        return result, trace, js, simple, (addend, added)

    def check(self, item, result):
        flat, trace, js, simple, sums = result
        e = item.expect
        try:
            replayed = trace.replay(item.data)
        except ValueError:
            return "RewriteTrace.replay does not compose"
        if not ref.term_eq(replayed, flat):
            return "RewriteTrace.replay misses the result"
        if [s["rule"] for s in js] != [s.rule for s in trace.steps]:
            return "RewriteTrace.to_json"
        if not e.has_div:
            ok = ref.term_eq(flat, item.data) and isinstance(simple, NotSimple) and sums is None
            return None if ok else "flatten changed a division-free term"
        if not ref.flags(flat)[2] or ref.evaluate(flat, "common-meadow") != e.value:
            return "flatten"
        if not (isinstance(simple, Div) and isinstance(simple.left, Lit) and isinstance(simple.right, Lit)):
            return "simplify"
        if e.value is ref.BOT:
            numerator = ref.evaluate(flat.left, "common-meadow")
            want = ref.bottom_simplified_text(numerator.numerator)
        else:
            want = ref.simplified_text(e.value)
        if f"{simple.left.digits}/{simple.right.digits}" != want:
            return "simplify"
        addend, added = sums
        addend_value = ref.evaluate(addend, "common-meadow")
        total = ref.BOT if ref.BOT in (e.value, addend_value) else e.value + addend_value
        if set(added) != {"cross", "same-denom", "numeral"} or not ref.flags(added["numeral"])[3]:
            return "add_family_all"
        if any(ref.evaluate(t, "common-meadow") != total for t in added.values()):
            return "add_family_all"
        return None

    def tally(self, item, result, acc):
        if item.variant != "random":
            acc[f"{item.variant}.steps"] = len(result[1].steps)
            acc[f"{item.variant}.out_chars"] = len(ref.print_term(result[0], "inline"))


# ---------------------------------------------------------------------------
# fractalk-scripts


CORPUS = {
    "A": ("paradox-blocked", 5),
    "B": ("paradox-blocked", 4),
    "Bprime": ("paradox-blocked", 4),
    "Bpp": ("paradox-blocked", 4),
    "C": ("paradox-blocked", 2),
    "Cprime": ("paradox-blocked", 2),
    "D": ("sound", None),
    "E": ("paradox-blocked", 2),
    "F": ("sound", None),
}
SCRIPT_LENGTHS = (25, 50, 100, 200, 400, 800)


@dataclass(frozen=True)
class ScriptExpect:
    overall: str
    blocked_at: object
    statuses: object  # every step's status, or None for the corpus
    occurrences: object


def _claim(rng, index, rational_targets):
    """One synthetic claim: (body, valid, occurrences, directed assertion or None).

    Validity is decided by the oracle and the template, never by fractalk.
    """

    def small():
        t = random_closed_term(rng, 2)
        v = eval_exact_bot(t)
        return t, ref.print_term(t, "inline"), ref.BOT if v is None else v

    kind = rng.randrange(9)
    if kind == 0:
        if rng.random() < 0.5:
            a, b, k = rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3)
            value = ref.BOT if b == 0 else Fraction(a, b)
            (left, lv), (right, rv) = (f"{a}/{b}", value), (f"{a * k}/{b * k}", value)
        else:
            (_, left, lv), (_, right, rv) = small(), small()
        return f"{left} == {right}", lv == rv, 2, None
    if kind == 1:
        _, text, v = small()
        op, bound = rng.choice(("<", "<=", ">", ">=")), rng.randint(-3, 3)
        holds = v is not ref.BOT and {
            "<": v < bound, "<=": v <= bound, ">": v > bound, ">=": v >= bound
        }[op]
        return f"{text} {op} {bound}", holds, 1, None
    if kind == 2:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        which, part = rng.choice((("num", a), ("denom", b)))
        n = part if rng.random() < 0.7 else part + 1
        return f"{which}({a}/{b}) = {n}", n == part, 1, None
    if kind == 3:
        _, text, v = small()
        if rng.random() < 0.5:
            rational_targets.append(index)
            return f"{text} is rational", v is not ref.BOT, 1, None
        return f"{text} is not rational", v is ref.BOT, 1, None
    if kind == 4:
        t, text, _ = small()
        positive = rng.random() < 0.5
        body = f"{text} is {'' if positive else 'not '}fracterm"
        return body, isinstance(t, Div) == positive, 1, None
    if kind == 5:
        _, text, v = small()
        if v is ref.BOT:
            witness, wv = "1/0", ref.BOT
        else:
            wv = v if rng.random() < 0.7 else v + 1
            witness = f"{wv.numerator}/{wv.denominator}"
        return f"{text} can be written flat as {witness}", wv == v, 1, None
    if kind == 6 and rational_targets:  # with no target left, fall through to the last template
        target = rational_targets.pop(rng.randrange(len(rational_targets)))
        return f"level({target}) = ft", True, 0, target
    if kind == 7:
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        ok = b != 0 and not (b > 0 and math.gcd(abs(a), b) == 1)
        return f"{a}/{b} can be simplified", ok, 1, None
    _, text, v = small()
    even = v is not ref.BOT and v.denominator == 1 and v.numerator % 2 == 0
    return f"{text} is an even integer", even, 1, None


def synthetic_script(rng, length):
    """A script of `length` assertions and the verdict the reference predicts."""
    lines, valid, occurrences, targets = [], [], 0, []
    for index in range(1, length + 1):
        body, ok, occ, directed = _claim(rng, index, targets)
        if directed is not None:
            # level(k) = ft reads the earlier `x is rational` as a fracterm,
            # and no fracterm is a rational number under rat.pcs.
            valid[directed - 1] = False
        lines.append(f"{index}: {body}")
        valid.append(ok)
        occurrences += occ
    statuses = tuple("valid" if ok else "invalid" for ok in valid)
    first_bad = next((i + 1 for i, ok in enumerate(valid) if not ok), None)
    overall = "sound" if first_bad is None else "paradox-blocked"
    return "\n".join(lines) + "\n", ScriptExpect(overall, first_bad, statuses, occurrences)


class FractalkScripts:
    """Parse one script, infer its levels and check it.

    The pool holds the nine corpus sequences and one seeded synthetic
    script each of 25, 50, 100, 200, 400 and 800 assertions. The synthetic
    claims come from templates whose status the oracle decides without
    running fractalk. The doubling lengths expose per-script quadratic
    costs. The corpus sequences, each shorter than 25 assertions, set the
    median op: with fifteen inputs it is the eighth cheapest, one corpus
    sequence, rather than the mean of two.
    """

    name = "fractalk-scripts"
    import_module = "fracterm"
    seconds_per_pass = 0.16

    def passes(self, seed, seconds):
        rng = random.Random(seed)
        pool = [
            Item(name, (resources.files("fracterm") / "corpus" / f"{name}.ftk").read_text(),
                 ScriptExpect(overall, blocked, None, None))
            for name, (overall, blocked) in CORPUS.items()
        ]
        for length in SCRIPT_LENGTHS:
            text, expect = synthetic_script(rng, length)
            pool.append(Item(f"s{length}", text, expect))
        count = max(1, round(seconds / self.seconds_per_pass))
        return [rng.sample(pool, len(pool)) for _ in range(count)]

    def reset(self):
        pass

    def op(self, api, item):
        script = api.parse_script(item.data)
        levels = api.infer_levels(script)
        return script, levels, api.check(script)

    def check(self, item, result):
        script, levels, verdict = result
        e = item.expect
        if verdict.overall != e.overall or verdict.blocked_at != e.blocked_at:
            return "check verdict"
        if e.statuses is None:
            if e.overall == "sound" and not all(s.valid for s in verdict.steps):
                return "check steps"
            return None
        if tuple(s.status for s in verdict.steps) != e.statuses:
            return "check steps"
        if len(levels) != e.occurrences:
            return "infer_levels"
        return None

    def tally(self, item, result, acc):
        acc["claims"] = acc.get("claims", 0) + len(result[0].assertions)


# ---------------------------------------------------------------------------
# cli-oneshot


VN_KS = (10, 12, 14, 16)  # every +2 multiplies the JSON by about 4: never go above 16
NORMALITY = [(s, b) for s in ("rat.pcs", "rat.ssft") for b in (50, 100, 200)]
CLI_TIMEOUT_S = 60


def golden_rows():
    """GOLDENS from the CLI golden test, read without importing pytest."""
    tree = ast.parse((ROOT / "tests" / "test_cli_goldens.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "GOLDENS":
            return ast.literal_eval(node.value)
    raise RuntimeError("GOLDENS not found")


class CliOneshot:
    """One fresh CLI process per op: `python perfbench/launch.py ... --json`.

    The launcher runs fracterm.cli as `python -m fracterm.cli` does, and
    reads the host's speed just before and after it, inside the child, so
    that the op's time is scaled by the speed of the processor that ran it;
    the few hundred microseconds those samples take are not counted.

    The argv list is fixed: every argv of the CLI goldens, nat.vn encodings
    for k = 10-16, normality searches for rat.pcs and rat.ssft at bounds
    50-200, and three inputs that print a traceback at the seed commit
    (nat.zermelo 800, 400 nested parentheses, a 2000-literal sum). The
    seed sets the order and the literals of the sum. Three passes at 15 s
    run each argv three times; the crashing inputs run once per run and
    stay beyond op_tail_ms, which then falls on the third-slowest argv (a
    normality search or the k=16 encoding today).
    """

    name = "cli-oneshot"
    import_module = "fracterm.cli"
    seconds_per_pass = 5.0

    def passes(self, seed, seconds):
        rng = random.Random(seed)
        grouped: dict[tuple, list] = {}
        for argv, path, expected in golden_rows():
            grouped.setdefault(tuple(argv), []).append((path, expected))
        base = [Item(f"golden.{argv[0]}", list(argv), rows) for argv, rows in grouped.items()]
        for k in VN_KS:
            want = {"shape": "nat.vn", "value": ref.vn_json(k)}
            base.append(Item(f"vn.k{k}", ["shape", "encode", str(k), "--shape", "nat.vn"], [([], want)]))
        for shape, bound in NORMALITY:
            argv = ["shape", "normality", "--shape", shape, "--bound", str(bound)]
            want = {"shape": shape, "bound": bound, "normal": True}
            base.append(Item(f"normality.{shape}.b{bound}", argv, [([], want)]))
        count = max(1, round(seconds / self.seconds_per_pass))
        passes = [rng.sample(base, len(base)) for _ in range(count)]
        # The three inputs that crash today run once per run: fewer than ten
        # samples, so they stay beyond op_tail_ms, failing or not.
        parens = "(" * 400 + "1/2" + ")" * 400
        digits = [str(rng.randint(1, 9)) for _ in range(2000)]
        want = {"kind": "number", "shape": "rat.pcs", "value": [sum(map(int, digits)), 1]}
        defects = [
            Item("defect.zermelo800", ["shape", "encode", "800", "--shape", "nat.zermelo"], "zermelo800", True),
            Item("defect.parens400", ["parse", parens], [(["inline"], "1/2"), (["frac"], "frac(1,2)")], True),
            Item("defect.sum2000", ["eval", "+".join(digits)], [([], want)], True),
        ]
        for item in defects:
            target = rng.choice(passes)
            target.insert(rng.randrange(len(target) + 1), item)
        return passes

    def reset(self):
        self.env = child_env()

    def op(self, api, item):
        """(exit code, stdout, stderr, the child's calibration or None)."""
        api.child_file.write_text("")
        env = dict(self.env, PERFBENCH_OUT=str(api.child_file))
        if api.tracer:
            env["PERFBENCH_TRACE"] = "1"
        cmd = [sys.executable, str(ROOT / "perfbench" / "launch.py"), *item.data, "--json"]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        text = api.child_file.read_text()
        report = json.loads(text) if text else {}
        if api.tracer and report.get("spans"):
            api.tracer.add_child_spans(report["spans"])
        return proc.returncode, proc.stdout, proc.stderr, report.get("calibration")

    @staticmethod
    def child_calibration(result):
        return result[3]

    def check(self, item, result):
        code, out, err, _ = result
        if code not in (0, 1):
            return f"exit code {code}"
        if code == 1:
            try:
                error = json.loads(err)
            except ValueError:
                return "exit 1 without a JSON error"
            if not (isinstance(error, dict) and "error" in error):
                return "exit 1 without a JSON error"
            return f"refused: {error['error']}"
        data = json.loads(out)
        if item.expect == "zermelo800":
            return None if ref.zermelo_depth_ok(data.get("value"), 800) else "zermelo value"
        for path, want in item.expect:
            got = data
            for key in path:
                got = got[key]
            if got != want:
                return f"output at {path}"
        return None

    def tally(self, item, result, acc):
        if item.variant.startswith("vn.k"):
            acc[f"{item.variant}.out_chars"] = len(result[1].rstrip("\n"))


WORKLOADS = {w.name: w for w in (EvalMix, FlattenSums, FractalkScripts, CliOneshot)}
