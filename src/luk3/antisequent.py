"""Anti-sequent calculus: establish invalidity by deduction.

An anti-sequent Gamma1 || Gamma2 || Gamma3 is refutable when some
interpretation makes the matching sequent false, i.e. every formula avoids
its component's value.  Each rule commits to one tuple of argument values
that keeps the principal's connective from taking the component's value: the
principal is removed and every argument is inserted into both components
other than its committed value, which pins that value in any refuting
interpretation.  A refutation is a chain of such single-premise steps ending
in an atomic anti-axiom that carries an explicit witness interpretation.

The rules are not invertible, but search does not backtrack: refutability is
decided by ``prove`` on the matching sequent, and when that fails its
countermodel falsifies every node of the chain, so committing each principal
to its arguments' values under the countermodel always leads to an
anti-axiom.  The chain decomposes the deepest formula first, so it is
linear in the size of the root, and it is built in one pass: a heap keyed
by depth, then formula, then position yields each principal, and the
semantics' memoized evaluator gives every subformula of the root its value
under the countermodel once.  ``check_refutation`` replays the chain
without that model: it checks each rule step and the leaf, whose witness
alone is evaluated.

Anti-sequents are named tuples of their three components that equal only
an anti-sequent; ``RefutationTree`` and ``RefutationFailure`` are immutable
named tuples.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from functools import cache
from heapq import heapify, heappop, heappush
from itertools import product
from typing import NamedTuple

from .semantics import (
    VALUES,
    Interpretation,
    TruthValue,
    _evaluate,
    apply_connective,
    atomic_countermodel,
    tt_sequent_true,
)
from .sequent import (
    ComponentTriple,
    ProofFailure,
    Sequent3,
    _extend_witness,
    _index,
    _node_fields,
    _parse_triple,
    _premises,
    _print_triple,
    _read_components,
    prove,
)
from .syntax import ARITY, Atom, Formula, connective

__all__ = [
    "AntiSequent3",
    "RefutationFailure",
    "RefutationTree",
    "apply_antirule",
    "as_sequent",
    "check_refutation",
    "countermodel_of",
    "generate_antirules",
    "is_antiaxiom",
    "parse_antisequent",
    "print_antisequent",
    "refutation_from_doc",
    "refutation_from_failure",
    "refutation_to_doc",
    "refute",
]


class AntiSequent3(ComponentTriple):
    """Refutable when some interpretation falsifies the matching sequent."""

    __slots__ = ()


def as_sequent(a: AntiSequent3) -> Sequent3:
    return Sequent3(*a.components)


@cache
def generate_antirules(conn: str, position: int) -> tuple[tuple[TruthValue, ...], ...]:
    """Argument-value tuples keeping ``conn`` from taking the value of
    ``position``; each tuple is one single-premise rule."""
    target = VALUES[position - 1]
    return tuple(w for w in product(VALUES, repeat=ARITY[conn])
                 if apply_connective(conn, w) is not target)


@cache
def _rule_name(conn: str, position: int, values: tuple[TruthValue, ...]) -> str:
    return f"{conn}:{position}@{','.join(v.symbol for v in values)}"


@cache
def _antirule_inserts(values: tuple[TruthValue, ...]) -> tuple[tuple[int, int], ...]:
    """(component index, argument index) of each insertion that pins the
    arguments to ``values``, in rule order."""
    return tuple((k, j) for j, v in enumerate(values) for k in range(3) if k != v.rank)


def apply_antirule(a: AntiSequent3, principal: Formula, position: int,
                   values: tuple[TruthValue, ...]) -> AntiSequent3:
    """Premise: drop the principal, pin each argument to its committed value by
    inserting it into both other components.  It is built by the sequent
    calculus's premise builder, with ``_antirule_inserts`` as the one
    template.  ``position`` is 1, 2 or 3 (ValueError otherwise)."""
    _index(position)
    return next(_premises(a, principal, position, (_antirule_inserts(values),)))


def is_antiaxiom(a: AntiSequent3) -> Interpretation | None:
    """Witness interpretation for an all-atomic anti-sequent, or None when
    every assignment satisfies some component.

    Precondition: every formula is atomic (ValueError otherwise).  The
    witness gives each atom the value of the least component not containing
    it; atoms outside all components would get f.
    """
    return atomic_countermodel(a.components)


class RefutationTree(NamedTuple):
    """A refutation step: its conclusion, the anti-rule applied
    (``conn:position@values``, or ``anti-axiom`` at the leaf), the premise,
    and at the leaf the witness interpretation."""

    conclusion: AntiSequent3
    rule: str
    premise: "RefutationTree | None" = None
    witness: Interpretation | None = None


class RefutationFailure(NamedTuple):
    """No refutation exists: the matching sequent is valid."""

    root: AntiSequent3

    def __bool__(self) -> bool:
        return False


def refute(a: AntiSequent3) -> RefutationTree | RefutationFailure:
    """Refutation of ``a``, or RefutationFailure when its sequent is valid.

    Nothing backtracks: ``prove`` decides, and on failure the anti-sequent
    derivation follows the countermodel of the failed proof
    (``refutation_from_failure``).  ``check_refutation`` replays it without
    that model.  The same input always yields the same chain.
    """
    proof = prove(as_sequent(a))
    return RefutationFailure(a) if proof else refutation_from_failure(a, proof)


def refutation_from_failure(a: AntiSequent3, failure: ProofFailure) -> RefutationTree:
    """The refutation chain of ``a`` guided by the countermodel of
    ``failure``, the failed proof of ``as_sequent(a)``.

    The countermodel is ``atomic_countermodel`` of the failure's atomic
    leaf, with f for every atom the leaf does not name; ``_evaluate`` gives
    each subformula of ``a`` its value once per chain.  Each principal is
    committed to the tuple of its arguments' values.  The countermodel
    falsifies the root, and a tuple it gives keeps falsifying the premise,
    so every tuple is admissible and the atomic leaf has a witness.
    ValueError when the leaf is an axiom or not atomic, or its countermodel
    does not falsify ``a``.

    Principals are taken deepest first, ties going to the canonically least
    formula and then to the least position.  An anti-rule inserts each
    argument into two components, so every subformula is inserted into all
    its components before it is decomposed, and none is decomposed twice.
    A heap of (depth, formula, position) entries, seeded from ``a`` and fed
    with each premise's non-atomic inserts, yields the principals in that
    order; an entry whose formula has already left its component is
    skipped.  The chain is built in one pass over the subformulas of ``a``.
    """
    witness = atomic_countermodel(failure.leaf)
    if witness is None:
        raise ValueError("leaf is an axiom, not a failure witness")
    table = defaultdict(lambda: TruthValue.F, witness.assignment)  # f where the leaf has no atom
    model: dict[Formula, TruthValue] = {}
    heap = []
    for position, (target, comp) in enumerate(zip(VALUES, a), 1):
        for f in comp:
            if _evaluate(f, table, model) is target:
                raise ValueError("the failure's countermodel does not falsify the anti-sequent")
            if f._depth:  # an atom has depth 0
                heap.append((-f._depth, f._key, position, f))
    heapify(heap)
    steps = []
    while heap:
        _, _, position, principal = heappop(heap)
        if principal not in a[position - 1]:
            continue  # decomposed through an earlier entry
        args = principal._args
        values = tuple(map(model.__getitem__, args))
        steps.append((a, _rule_name(connective(principal), position, values)))
        a = apply_antirule(a, principal, position, values)
        for k, j in _antirule_inserts(values):
            arg = args[j]
            if arg._depth:
                heappush(heap, (-arg._depth, arg._key, k + 1, arg))
    tree = RefutationTree(a, "anti-axiom", witness=is_antiaxiom(a))
    for conclusion, rule in reversed(steps):
        tree = RefutationTree(conclusion, rule, premise=tree)
    return tree


def countermodel_of(tree: RefutationTree) -> Interpretation:
    """The leaf witness extended (with f) to all atoms of the root; it
    falsifies the root's sequent reading."""
    node = tree
    while node.premise is not None:
        node = node.premise
    if node.witness is None:
        raise ValueError("malformed refutation: leaf carries no witness")
    return _extend_witness(node.witness, tree.conclusion)


# ---------------------------------------------------------------------------
# Checking


def check_refutation(tree: RefutationTree, conclusion: AntiSequent3 | None = None) -> bool:
    """Audit a refutation chain without redoing search.

    Each step must apply its named rule to the one formula the named
    component loses, and the leaf must be an atomic anti-axiom whose witness
    names exactly the leaf's atoms, as ``refute`` writes it, and falsifies
    its sequent reading.  Like ``check_proof``, this checks the derivation's
    steps and its leaf, and evaluates nothing else: a matched step is sound
    (an interpretation that falsifies its premise falsifies its conclusion)
    and keeps its conclusion's atoms, so the witness, extended to the root's
    atoms, falsifies every node of the chain.
    """
    if conclusion is not None and tree.conclusion != conclusion:
        return False
    node = tree
    while node.premise is not None:
        if node.witness is not None or not _rule_matches(node, node.premise):
            return False
        node = node.premise
    if node.rule != "anti-axiom" or node.witness is None:
        return False
    if any(not isinstance(f, Atom) for comp in node.conclusion.components for f in comp):
        return False
    if node.witness.atoms != node.conclusion.atoms():
        return False
    return not tt_sequent_true(node.conclusion, node.witness)


@cache
def _antirules() -> dict[str, tuple[str, int, tuple[TruthValue, ...]]]:
    """Every anti-rule name the calculus generates, with its connective,
    position and committed argument values."""
    return {_rule_name(conn, position, values): (conn, position, values)
            for conn in ARITY for position in (1, 2, 3)
            for values in generate_antirules(conn, position)}


def _rule_matches(parent: RefutationTree, child: RefutationTree) -> bool:
    rule = _antirules().get(parent.rule)
    if rule is None:
        return False
    conn, position, values = rule
    # an anti-rule removes only its principal and inserts proper subformulas
    lost = parent.conclusion.component(position) - child.conclusion.component(position)
    if len(lost) != 1:
        return False
    (f,) = lost
    return (connective(f) == conn
            and apply_antirule(parent.conclusion, f, position, values) == child.conclusion)


# ---------------------------------------------------------------------------
# Text and document forms


def print_antisequent(a: AntiSequent3) -> str:
    return _print_triple(a, "![", {})


def parse_antisequent(text: str) -> AntiSequent3:
    """Parse ``![ f1 ; f2 ; f3 ]``."""
    return _parse_triple(text, "![", AntiSequent3)


def refutation_to_doc(tree: RefutationTree) -> dict:
    """The chain's document, built from the leaf up without recursion.
    Each distinct component is sorted and printed once per document: a
    step changes one or two components of its conclusion and keeps the
    rest."""
    chain = []
    while tree is not None:
        chain.append(tree)
        tree = tree.premise
    fields: dict[frozenset[Formula], str] = {}
    doc = None
    for node in reversed(chain):
        doc = {"rule": node.rule, "sequent": _print_triple(node.conclusion, "![", fields),
               "premises": [] if doc is None else [doc]}
        if node.witness is not None:
            doc["witness"] = {name: v.symbol for name, v in node.witness.assignment}
    return doc


def refutation_from_doc(doc) -> RefutationTree:
    """Read a refutation document back.  Each formula entry is looked up by
    its text among the live formulas' canonical prints, and tokenized only
    when it names none; a text that does not split into entries is parsed
    in full.  Raises ParseError for a bad anti-sequent text, exactly as
    ``parse_antisequent`` does on it, and ValueError for a malformed
    node."""
    nodes = []
    premises = [doc]
    while premises:
        doc = premises[0]
        rule, text, premises = _node_fields(doc, "refutation")
        if len(premises) > 1:
            raise ValueError("malformed refutation document: multiple premises")
        witness = None
        if "witness" in doc:
            if (not isinstance(doc["witness"], Mapping)
                    or not all(isinstance(v, str) for v in doc["witness"].values())):
                raise ValueError("malformed refutation document")
            witness = Interpretation.from_mapping(doc["witness"])
        comps = _read_components(text, "![")
        nodes.append((parse_antisequent(text) if comps is None else AntiSequent3(*comps),
                      rule, witness))
    tree = None
    for conclusion, rule, witness in reversed(nodes):
        tree = RefutationTree(conclusion, rule, premise=tree, witness=witness)
    return tree
