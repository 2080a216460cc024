"""Truth-table references for the default engine.

This restates the extension semantics of the test suite's oracle (staged
firing against a fixed context, exhaustive over fired subsets) on top of
``luk3.semantics.tt_entails`` only; the sequent, anti-sequent and default
engines are never called.

Entailment enumerates each independent block of atoms on its own: premises
that share no atom with the goal's block can change the answer only by being
unsatisfiable, so ``W |= g`` holds iff some block of W is unsatisfiable or
the premises connected to g's atoms entail g.  Interpretations of disjoint
atom sets combine freely, so this is the same truth-table answer at a cost
exponential in the largest block instead of in all atoms (the chain theories
have up to 13 atoms but blocks of one or two).
"""

from __future__ import annotations

from functools import lru_cache

from luk3.semantics import tt_entails
from luk3.syntax import And, Atom, Cert, Not, Poss, atoms


@lru_cache(maxsize=None)
def _blocks(basis: frozenset):
    """Premises grouped into connected components by shared atoms."""
    groups: list[tuple[set, list]] = []
    for f in sorted(basis, key=repr):
        names = set(atoms(f))
        merged = [g for g in groups if g[0] & names]
        for g in merged:
            groups.remove(g)
            names |= g[0]
        groups.append((names, [f] + [p for g in merged for p in g[1]]))
    return tuple((frozenset(names), frozenset(fs)) for names, fs in groups)


@lru_cache(maxsize=None)
def _satisfiable(block: frozenset) -> bool:
    name = min(n for f in block for n in atoms(f))
    return not tt_entails(block, And(Atom(name), Not(Atom(name))))


@lru_cache(maxsize=None)
def entailed(basis: frozenset, f) -> bool:
    blocks = _blocks(basis)
    if not all(_satisfiable(fs) for _, fs in blocks):
        return True
    goal_atoms = set(atoms(f))
    relevant = [p for names, fs in blocks if names & goal_atoms for p in fs]
    return bool(tt_entails(relevant, f))


def blocked(context: frozenset, d) -> bool:
    checks = [Not(b) for b in d.justifications] + [Not(Cert(d.consequent))]
    return any(entailed(context, f) for f in checks)


def gamma_fired(theory, context: frozenset):
    """Staged firing against a fixed context: (fired list, resulting basis)."""
    basis = set(theory.facts)
    fired = []
    admissible = [d for d in theory.defaults if not blocked(context, d)]
    progress = True
    while progress:
        progress = False
        stage = frozenset(basis)
        for d in admissible:
            if d not in fired and entailed(stage, d.prereq):
                fired.append(d)
                basis.add(Poss(d.consequent))
                progress = True
    return fired, frozenset(basis)


def equivalent(b1: frozenset, b2: frozenset) -> bool:
    return all(entailed(b2, f) for f in b1) and all(entailed(b1, f) for f in b2)


@lru_cache(maxsize=None)
def extensions(theory) -> tuple:
    """Bases of all extensions, exhaustive over the 2^n candidate subsets."""
    out: list[frozenset] = []
    n = len(theory.defaults)
    for rank in range(1 << n):
        subset = [d for i, d in enumerate(theory.defaults) if rank >> i & 1]
        cand = frozenset(theory.facts) | {Poss(d.consequent) for d in subset}
        fired, gbasis = gamma_fired(theory, cand)
        if set(fired) != set(subset) or not equivalent(gbasis, cand):
            continue
        if any(equivalent(cand, e) for e in out):
            continue
        out.append(cand)
    return tuple(out)


def brave_holds(theory, sigma, theta) -> bool:
    return any(all(entailed(e, f) for f in sigma) and not any(entailed(e, f) for f in theta)
               for e in extensions(theory))


def skeptical_holds(theory, constraints, theta) -> bool:
    for e in extensions(theory):
        if all(entailed(e, c.formula) == c.positive for c in constraints):
            if not any(entailed(e, f) for f in theta):
                return False
    return True
