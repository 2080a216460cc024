from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import strategies as st

from luk3.sequent import Sequent3
from luk3.syntax import (
    And,
    Atom,
    Cert,
    Default,
    DefaultTheory,
    Formula,
    Impl,
    Not,
    Or,
    Poss,
    sort_key,
)

UNARY = (Not, Cert, Poss)
BINARY = (Impl, And, Or)


def formulas_strategy(atom_names=("p", "q", "r"), max_leaves=10):
    base = st.sampled_from([Atom(n) for n in atom_names])

    def extend(inner):
        return st.one_of(
            st.builds(Not, inner),
            st.builds(Cert, inner),
            st.builds(Poss, inner),
            st.builds(Impl, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
        )

    return st.recursive(base, extend, max_leaves=max_leaves)


def depth2_pool() -> list[Formula]:
    """All 1262 formulas of depth <= 2 over atoms p, q, canonically sorted."""

    def grow(pool):
        out = set(pool)
        out.update(u(f) for u in UNARY for f in pool)
        out.update(b(l, r) for b in BINARY for l in pool for r in pool)
        return out

    depth1 = grow([Atom("p"), Atom("q")])
    return sorted(grow(sorted(depth1, key=sort_key)), key=sort_key)


def corpus_sequents(pool: list[Formula]) -> list[Sequent3]:
    """One singleton sequent per pool formula plus 500 seeded random sequents
    with formulas in all three components."""
    out = [Sequent3.of((), (), (f,)) for f in pool]
    rng = random.Random(74301)
    for _ in range(500):
        comps = [frozenset(rng.choice(pool) for _ in range(rng.randint(1, 2)))
                 for _ in range(3)]
        out.append(Sequent3(*comps))
    return out


@cache
def context_variants() -> tuple[tuple[frozenset[Formula], ...], ...]:
    """Component contexts for rule tests: each of r, p and q (the principals'
    arguments) placed in every subset of the three components, then seeded
    contexts of six depth-2 formulas per component, large enough for a
    set's iteration order to depend on the order of its insertions."""
    out = [tuple(frozenset({Atom(name)}) if mask >> k & 1 else frozenset() for k in range(3))
           for name in ("r", "p", "q") for mask in range(8)]
    pool = depth2_pool()
    rng = random.Random(5)
    out += [tuple(frozenset(rng.sample(pool, 6)) for _ in range(3)) for _ in range(20)]
    return tuple(out)


@cache
def sampled_principals(conn: str) -> tuple[Formula, ...]:
    """Ten seeded principals with connective ``conn`` over depth-2 arguments.
    Inserting these arguments into the contexts above often collides in a
    set's table, where a different insertion order shows up as a different
    iteration order."""
    make = {"~": Not, "->": Impl, "&": And, "|": Or, "L": Cert, "M": Poss}[conn]
    pool = depth2_pool()
    rng = random.Random(11)
    return tuple(make(*rng.sample(pool, 1 if make in UNARY else 2)) for _ in range(10))


def family_theories() -> list[DefaultTheory]:
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


def query_pool() -> list[Formula]:
    """Formulas over the family's atoms used to build sweep queries."""
    a, b = Atom("a"), Atom("b")
    return [a, b, Not(a), Not(b), Poss(a), Poss(b), Poss(Not(b)),
            Cert(a), Cert(b), Not(Cert(b)), Impl(a, b), And(a, b)]


@pytest.fixture(scope="session")
def pool():
    return depth2_pool()


@pytest.fixture(scope="session")
def corpus(pool):
    return corpus_sequents(pool)


@pytest.fixture(scope="session")
def family():
    return family_theories()
