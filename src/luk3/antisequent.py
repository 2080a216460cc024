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
anti-axiom.  ``check_refutation`` replays the chain without that model.
``RefutationTree`` and ``RefutationFailure`` are immutable named tuples.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cache
from itertools import product
from typing import NamedTuple

from .semantics import (
    VALUES,
    Interpretation,
    TruthValue,
    apply_connective,
    atomic_countermodel,
    evaluate,
    tt_sequent_true,
)
from .sequent import (
    ComponentTriple,
    ProofFailure,
    Sequent3,
    _extend_witness,
    _node_fields,
    _read_components,
    failure_countermodel,
    parse_component_fields,
    print_sequent,
    prove,
    select_principal,
)
from .syntax import ARITY, Atom, Formula, TokenParser, children, connective, tokenize

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
    inserting it into both other components."""
    args = children(principal)
    comps = list(a)
    comps[position - 1] = comps[position - 1] - {principal}
    for k, j in _antirule_inserts(values):
        comps[k] = comps[k] | {args[j]}
    return type(a)(*comps)


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

    Each principal (chosen as in proof search) is committed to the tuple of
    its arguments' values under the countermodel.  The countermodel falsifies
    the root, and a tuple it gives keeps falsifying the premise, so every
    tuple is admissible and the atomic leaf has a witness.
    """
    model = failure_countermodel(failure, as_sequent(a))
    steps = []
    while (selected := select_principal(a)) is not None:
        principal, position = selected
        values = tuple(evaluate(arg, model) for arg in children(principal))
        steps.append((a, _rule_name(connective(principal), position, values)))
        a = apply_antirule(a, principal, position, values)
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
    component loses, the leaf must be an atomic anti-axiom, and the leaf
    witness must falsify the sequent reading of every node on the chain.
    """
    if conclusion is not None and tree.conclusion != conclusion:
        return False
    chain = [tree]
    while chain[-1].premise is not None:
        if chain[-1].witness is not None:
            return False
        chain.append(chain[-1].premise)
    leaf = chain[-1]
    if leaf.rule != "anti-axiom" or leaf.witness is None:
        return False
    if any(not isinstance(f, Atom) for comp in leaf.conclusion.components for f in comp):
        return False
    for parent, child in zip(chain, chain[1:]):
        if not _rule_matches(parent, child):
            return False
    # a matching step replaces its principal by all of its arguments, so
    # every node has the root's atoms and one extension serves the chain
    witness = _extend_witness(leaf.witness, tree.conclusion)
    return not any(tt_sequent_true(node.conclusion, witness) for node in chain)


def _rule_matches(parent: RefutationTree, child: RefutationTree) -> bool:
    conn, sep, rest = parent.rule.partition(":")
    pos_text, at, value_text = rest.partition("@")
    if not sep or not at or conn not in ARITY or pos_text not in {"1", "2", "3"}:
        return False
    position = int(pos_text)
    try:
        values = tuple(TruthValue.from_symbol(s) for s in value_text.split(","))
    except ValueError:
        return False
    if len(values) != ARITY[conn]:
        return False
    if apply_connective(conn, values) is VALUES[position - 1]:
        return False  # the committed tuple must avoid the component's value
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
    return "!" + print_sequent(a)


def parse_antisequent(text: str) -> AntiSequent3:
    """Parse ``![ f1 ; f2 ; f3 ]``."""
    p = TokenParser(tokenize(text))
    p.expect("!")
    p.expect("[")
    comps = parse_component_fields(p)
    p.expect_end()
    return AntiSequent3.of(*comps)


def refutation_to_doc(tree: RefutationTree) -> dict:
    doc = {
        "rule": tree.rule,
        "sequent": print_antisequent(tree.conclusion),
        "premises": [] if tree.premise is None else [refutation_to_doc(tree.premise)],
    }
    if tree.witness is not None:
        doc["witness"] = {name: v.symbol for name, v in tree.witness.assignment}
    return doc


def refutation_from_doc(doc) -> RefutationTree:
    """Read a refutation document back.  Within one document each formula
    entry is looked up by its text and tokenized only when first seen; a
    text that does not split into entries is parsed in full.  Raises
    ParseError for a bad anti-sequent text, exactly as ``parse_antisequent``
    does on it, and ValueError for a malformed node."""
    formulas: dict[str, Formula] = {}

    def read(doc) -> RefutationTree:
        rule, text, premises = _node_fields(doc, "refutation")
        if len(premises) > 1:
            raise ValueError("malformed refutation document: multiple premises")
        witness = None
        if "witness" in doc:
            if (not isinstance(doc["witness"], Mapping)
                    or not all(isinstance(v, str) for v in doc["witness"].values())):
                raise ValueError("malformed refutation document")
            witness = Interpretation.from_mapping(doc["witness"])
        comps = _read_components(text, "![", formulas)
        return RefutationTree(
            parse_antisequent(text) if comps is None else AntiSequent3.of(*comps),
            rule,
            premise=read(premises[0]) if premises else None,
            witness=witness,
        )

    try:
        return read(doc)
    finally:
        del read  # read refers to itself; the cycle would keep the tables until a collection
