"""Seeded random generators for terms, used across the suite."""

import random

from fracterm.terms import Add, Div, Lit, Mul, Neg, Sub, Term, Var


def random_term(rng: random.Random, depth: int, lo: int = -9, hi: int = 9, var_share: float = 0.0) -> Term:
    """A random term of the given maximum depth with literals in [lo, hi].

    Each leaf is the variable x or y with probability var_share; at 0 the
    term is closed, and the draws are those of random_closed_term.
    """
    if depth <= 0 or rng.random() < 0.25:
        if var_share and rng.random() < var_share:
            return Var(rng.choice("xy"))
        return Lit(str(rng.randint(lo, hi)))
    kind = rng.randrange(5)
    if kind == 0:
        return Neg(random_term(rng, depth - 1, lo, hi, var_share))
    left = random_term(rng, depth - 1, lo, hi, var_share)
    right = random_term(rng, depth - 1, lo, hi, var_share)
    return (Add, Sub, Mul, Div)[kind - 1](left, right)


def random_dag(rng: random.Random, steps: int, var_share: float = 0.0) -> Term:
    """A random term that shares subterms.

    Two random terms of depth 2 start a pool; each step adds to it a node
    over one or two earlier members, mostly recent ones, and the last is the
    result. So its distinct nodes grow linearly in steps, its tree up to
    exponentially.
    """
    pool = [random_term(rng, 2, var_share=var_share) for _ in range(2)]

    def earlier():
        return pool[rng.randrange(max(0, len(pool) - 3), len(pool))] if rng.random() < 0.8 else rng.choice(pool)

    for _ in range(steps):
        kind = rng.randrange(5)
        pool.append(Neg(earlier()) if kind == 0 else (Add, Sub, Mul, Div)[kind - 1](earlier(), earlier()))
    return pool[-1]


def random_closed_term(rng: random.Random, depth: int, lo: int = -9, hi: int = 9) -> Term:
    """A random closed term of the given maximum depth with literals in [lo, hi]."""
    return random_term(rng, depth, lo, hi)


def random_simple_fracterm(rng: random.Random, lo: int = -9, hi: int = 9,
                           nonzero_den: bool = False) -> Div:
    n = rng.randint(lo, hi)
    d = rng.randint(lo, hi)
    while nonzero_den and d == 0:
        d = rng.randint(lo, hi)
    return Div(Lit(str(n)), Lit(str(d)))


def random_flat_fracterm(rng: random.Random, nonzero_den: bool = True) -> Div:
    """A flat fracterm whose components are small division-free terms."""

    def component(depth: int) -> Term:
        if depth <= 0 or rng.random() < 0.5:
            return Lit(str(rng.randint(-9, 9)))
        kind = rng.randrange(3)
        if kind == 0:
            return Neg(component(depth - 1))
        left = component(depth - 1)
        right = component(depth - 1)
        return (Add, Mul)[kind - 1](left, right)

    from oracle import eval_exact

    num = component(2)
    den = component(2)
    while nonzero_den and eval_exact(den) == 0:
        den = component(2)
    return Div(num, den)


def unit_sum(n: int) -> Term:
    """1/2 + 1/3 + ... + 1/(n+1), left-leaning: its flat form shares its denominator products."""
    t: Term = Div(Lit("1"), Lit("2"))
    for k in range(3, n + 2):
        t = Add(t, Div(Lit("1"), Lit(str(k))))
    return t


def doubled(n: int) -> Term:
    """1/2 doubled n times over, Add(t, t) with one t: n + 3 distinct nodes, printed in 5 * 2**n - 3 characters."""
    t: Term = Div(Lit("1"), Lit("2"))
    for _ in range(n):
        t = Add(t, t)
    return t


def substitute_hole(t: Term, filler: Term) -> Term:
    """Replace the marker literal 999 in t by filler."""
    if isinstance(t, Lit):
        return filler if t.digits == "999" else t
    if isinstance(t, Neg):
        return Neg(substitute_hole(t.operand, filler))
    if isinstance(t, (Add, Sub, Mul, Div)):
        cls = type(t)
        left = substitute_hole(t.left, filler)
        right = substitute_hole(t.right, filler)
        if isinstance(t, Div):
            return Div(left, right, t.decoration)
        return cls(left, right)
    return t


def random_context(rng: random.Random, depth: int) -> Term:
    """A random one-hole context over {+,-,*,/}; the hole is the literal 999."""
    hole = Lit("999")
    ctx = hole
    for _ in range(depth):
        other = random_closed_term(rng, 2)
        kind = rng.randrange(4)
        cls = (Add, Sub, Mul, Div)[kind]
        ctx = cls(ctx, other) if rng.random() < 0.5 else cls(other, ctx)
    return ctx
