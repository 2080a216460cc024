"""Seeded input recipes for the benchmark workloads.

The recipes restate those of the test suite (the depth-2 pool, the corpus of
singleton and three-sided sequents, the 64-theory family, the acceptance
sweep) so that editing a test cannot move the benchmark.  The random draws
take a ``random.Random`` seeded from the benchmark's ``--seed``, except the
corpus: it is the test suite's fixed corpus, because the proofs of its
three-sided sequents are so unevenly sized that a fresh draw per seed moves
certificate size and throughput by half.
"""

from __future__ import annotations

import random

from luk3.defaults import BraveSequent, SignedConstraint, SkepticalSequent
from luk3.sequent import Sequent3
from luk3.syntax import (
    And,
    Atom,
    Cert,
    Default,
    DefaultTheory,
    Impl,
    Not,
    Or,
    Poss,
    sort_key,
)

UNARY = (Not, Cert, Poss)
BINARY = (Impl, And, Or)


def depth2_pool():
    """All 1262 formulas of depth <= 2 over atoms p, q, canonically sorted."""

    def grow(pool):
        out = set(pool)
        out.update(u(f) for u in UNARY for f in pool)
        out.update(b(l, r) for b in BINARY for l in pool for r in pool)
        return out

    depth1 = grow([Atom("p"), Atom("q")])
    return sorted(grow(sorted(depth1, key=sort_key)), key=sort_key)


CORPUS_SEED = 74301


def corpus(pool):
    """One singleton sequent per pool formula plus 500 random sequents with
    formulas in all three components (1762 sequents)."""
    rng = random.Random(CORPUS_SEED)
    out = [Sequent3.of((), (), (f,)) for f in pool]
    for _ in range(500):
        comps = [frozenset(rng.choice(pool) for _ in range(rng.randint(1, 2)))
                 for _ in range(3)]
        out.append(Sequent3(*comps))
    return out


def family():
    """The 64 theories with facts within {a, ~b} and defaults within
    {a:b/b, a:~b/~b, b:b/b, ~b:a/a}."""
    a, b = Atom("a"), Atom("b")
    fact_pool = (a, Not(b))
    default_pool = (
        Default(a, (b,), b),
        Default(a, (Not(b),), Not(b)),
        Default(b, (b,), b),
        Default(Not(b), (a,), a),
    )
    out = []
    for wmask in range(4):
        facts = frozenset(f for i, f in enumerate(fact_pool) if wmask >> i & 1)
        for dmask in range(16):
            defaults = tuple(d for i, d in enumerate(default_pool) if dmask >> i & 1)
            out.append(DefaultTheory(facts, defaults))
    return out


def query_pool():
    """Formulas over the family's atoms used to build sweep queries."""
    a, b = Atom("a"), Atom("b")
    return [a, b, Not(a), Not(b), Poss(a), Poss(b), Poss(Not(b)),
            Cert(a), Cert(b), Not(Cert(b)), Impl(a, b), And(a, b)]


def brave_query(theory, pool, rng):
    return BraveSequent(theory.facts, theory.defaults,
                        frozenset(rng.sample(pool, rng.randint(0, 2))),
                        frozenset(rng.sample(pool, rng.randint(0, 2))))


def skeptical_query(theory, pool, rng):
    constraints = frozenset(SignedConstraint(rng.random() < 0.5, f)
                            for f in rng.sample(pool, rng.randint(0, 2)))
    return SkepticalSequent(constraints, theory.facts, theory.defaults,
                            frozenset(rng.sample(pool, rng.randint(0, 2))))


def sweep(theories, rng):
    """The acceptance sweep: 200 brave then 200 skeptical queries cycling
    through the family."""
    pool = query_pool()
    brave = [brave_query(theories[k % len(theories)], pool, rng) for k in range(200)]
    skeptical = [skeptical_query(theories[k % len(theories)], pool, rng) for k in range(200)]
    return brave, skeptical


NO_EXTENSION = DefaultTheory(frozenset({Atom("a")}),
                             (Default(Atom("a"), (Not(Atom("b")),), Cert(Atom("b"))),))


def non_normal_theories(rng, count=15):
    """Theories outside the family's normal shape: several justifications per
    default and L/M consequents over atoms a, b, c; the fixed theory without
    an extension comes first."""
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    literals = [a, b, c, Not(a), Not(b), Not(c)]
    formulas = literals + [Poss(b), Cert(c), Impl(a, b), Or(b, c)]
    consequents = literals + [Cert(b), Poss(c), Cert(Not(a)), Poss(Not(c))]
    out = [NO_EXTENSION]
    while len(out) < count + 1:
        facts = frozenset(rng.sample(literals[:3] + [Poss(a), Cert(a)], rng.randint(0, 2)))
        defaults = []
        for _ in range(rng.randint(2, 3)):
            d = Default(rng.choice(formulas), tuple(rng.sample(formulas, rng.randint(1, 3))),
                        rng.choice(consequents))
            if d not in defaults:
                defaults.append(d)
        out.append(DefaultTheory(facts, tuple(defaults)))
    return out


def non_normal_pool():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    return [a, b, c, Not(a), Not(b), Poss(b), Poss(c), Cert(a), Cert(b), Cert(c),
            Not(Cert(c)), Impl(a, c)]


def chain(n_defaults: int) -> DefaultTheory:
    """Fact a0, the chain a_i : a_{i+1} / a_{i+1} and the fork a0 : z / z,
    a0 : ~z / ~z; ``n_defaults`` counts the fork's two defaults."""
    a = [Atom(f"a{i}") for i in range(n_defaults - 1)]
    z = Atom("z")
    defaults = [Default(a[i], (a[i + 1],), a[i + 1]) for i in range(n_defaults - 2)]
    defaults += [Default(a[0], (z,), z), Default(a[0], (Not(z),), Not(z))]
    return DefaultTheory(frozenset({a[0]}), tuple(defaults))

