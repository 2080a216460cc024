"""Truth-table oracles for the default engine.

Everything here decides entailment by enumerating interpretations through the
semantics module only; the sequent, anti-sequent and default engines are
never imported, so agreement with them is a genuine two-route check.
"""

from __future__ import annotations

from functools import lru_cache

from luk3.semantics import tt_entails
from luk3.syntax import Cert, Default, DefaultTheory, Formula, Not, Poss


@lru_cache(maxsize=None)
def entailed(basis: frozenset[Formula], f: Formula) -> bool:
    return bool(tt_entails(basis, f))


def blocked(context: frozenset[Formula], d: Default) -> bool:
    checks = [Not(b) for b in d.justifications] + [Not(Cert(d.consequent))]
    return any(entailed(context, f) for f in checks)


def gamma_fired(theory: DefaultTheory, context: frozenset[Formula]):
    """Staged firing against a fixed context: (fired list, resulting basis)."""
    basis = set(theory.facts)
    fired: list[Default] = []
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


def kept_flags(theory: DefaultTheory) -> list[bool]:
    """For each of the 2^n candidate ranks, in order, whether staged firing
    against the candidate fires exactly its subset: a sweep with no
    pruning."""
    out = []
    for rank in range(1 << len(theory.defaults)):
        subset = {d for i, d in enumerate(theory.defaults) if rank >> i & 1}
        fired, _ = gamma_fired(theory, frozenset(theory.facts) | {Poss(d.consequent) for d in subset})
        out.append(set(fired) == subset)
    return out


def equivalent(b1: frozenset[Formula], b2: frozenset[Formula]) -> bool:
    return (all(entailed(b2, f) for f in b1)
            and all(entailed(b1, f) for f in b2))


def extensions(theory: DefaultTheory) -> list[frozenset[Formula]]:
    """Bases of all extensions, exhaustive over the 2^n candidate subsets."""
    out: list[frozenset[Formula]] = []
    n = len(theory.defaults)
    for rank in range(1 << n):
        subset = [d for i, d in enumerate(theory.defaults) if rank >> i & 1]
        cand = frozenset(theory.facts) | {Poss(d.consequent) for d in subset}
        fired, gbasis = gamma_fired(theory, cand)
        if set(fired) != set(subset):
            continue
        if not equivalent(gbasis, cand):
            continue
        if any(equivalent(cand, e) for e in out):
            continue
        out.append(cand)
    return out


def is_extension(theory: DefaultTheory, basis: frozenset[Formula]) -> bool:
    _, gbasis = gamma_fired(theory, basis)
    return equivalent(gbasis, basis)


def brave_holds(theory: DefaultTheory, sigma, theta) -> bool:
    return any(
        all(entailed(e, f) for f in sigma) and not any(entailed(e, f) for f in theta)
        for e in extensions(theory))


def skeptical_holds(theory: DefaultTheory, constraints, theta) -> bool:
    for e in extensions(theory):
        if all(entailed(e, c.formula) == c.positive for c in constraints):
            if not any(entailed(e, f) for f in theta):
                return False
    return True
