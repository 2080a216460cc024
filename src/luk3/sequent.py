"""Three-sided sequent calculus: generated rules, proof search, checking.

A sequent Gamma1 | Gamma2 | Gamma3 pairs one component with each truth value;
it is true under an interpretation when some component holds a formula taking
that component's value, and valid when true under every interpretation.

Logical rules are generated from the truth tables.  Decomposing a connective
at component i starts from the set of argument-value tuples that give the
component's value, writes "some such tuple holds" in CNF over literals
"argument j has value v", and emits one premise per clause: the conclusion
without the principal, plus argument j inserted into the component of v for
every literal of the clause.  Every generated rule is invertible (the
conclusion is true under an interpretation iff all premises are), so backward
search needs no backtracking, and reaching a non-axiomatic atomic sequent
refutes the root definitively.  The search reads each node's rule from a table
keyed by the principal's class and position, and builds each premise only
after the one before it is proved, so a failed premise leaves the rest unbuilt.

Sequents are named tuples of their three components that equal only a
sequent; ``ProofTree``, ``ProofFailure`` and ``RuleInstance`` are immutable
named tuples.
"""

from __future__ import annotations

import weakref
from functools import cache
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .semantics import VALUES, Interpretation, TruthValue, apply_connective, atomic_countermodel
from .syntax import (
    ARITY,
    Formula,
    ParseError,
    TokenParser,
    atoms,
    children,
    connective,
    print_formula,
    sort_key,
)

__all__ = [
    "ComponentTriple",
    "ProofFailure",
    "ProofTree",
    "RuleInstance",
    "Sequent3",
    "check_proof",
    "entailment_sequent",
    "failure_countermodel",
    "generate_rules",
    "instantiate",
    "is_axiom",
    "parse_component_fields",
    "parse_sequent",
    "print_sequent",
    "proof_from_doc",
    "proof_to_doc",
    "prove",
    "prove_entailment",
]


def _index(position: int) -> int:
    """The tuple index of component ``position``; ValueError unless it is
    1, 2 or 3 (a plain index would wrap 0 and -1 round to the end)."""
    if not 1 <= position <= 3:
        raise ValueError(f"no component at position {position!r}")
    return position - 1


class _TripleFields(NamedTuple):
    gamma1: frozenset[Formula]
    gamma2: frozenset[Formula]
    gamma3: frozenset[Formula]


class ComponentTriple(_TripleFields):
    """Shared shape of sequents and anti-sequents: one formula set per value.

    A triple is a named tuple of its three components, so its storage,
    hashing and component reads run in C; its hash is that of the plain
    component tuple.  Equality is per class: a triple equals only a triple
    of the same class with equal components, never an anti-sequent or a
    plain tuple.  Subclasses keep ``__slots__ = ()`` so that they have no
    attribute dict.
    """

    __slots__ = ()

    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple's own would ignore the class
        return not self == other

    @classmethod
    def of(cls, g1: Iterable[Formula] = (), g2: Iterable[Formula] = (),
           g3: Iterable[Formula] = ()):
        return cls(frozenset(g1), frozenset(g2), frozenset(g3))

    @property
    def components(self) -> tuple[frozenset[Formula], ...]:
        return tuple(self)

    def component(self, position: int) -> frozenset[Formula]:
        """The component at ``position`` (1, 2 or 3; ValueError otherwise)."""
        return self[_index(position)]

    def with_component(self, position: int, formulas: frozenset[Formula]):
        comps = list(self)
        comps[_index(position)] = formulas
        return type(self)(*comps)

    def atoms(self) -> tuple[str, ...]:
        names: set[str] = set()
        for comp in self:
            for f in comp:
                names.update(atoms(f))
        return tuple(sorted(names))


class Sequent3(ComponentTriple):
    """Components claim value f, u, t respectively; true when one claim holds."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Rule generation

#: One insertion: (argument index, value whose component receives the argument).
Literal = tuple[int, TruthValue]
PremiseTemplate = tuple[Literal, ...]


@cache
def generate_rules(conn: str, position: int) -> tuple[PremiseTemplate, ...]:
    """Premise templates for decomposing ``conn`` in component ``position``.

    The templates are the canonical CNF of "the argument values give this
    component's value": distribute the disjunction of value tuples, drop
    clauses naming all three values of one argument (true under every
    interpretation), drop subsumed clauses, sort.
    """
    arity = ARITY[conn]
    target = VALUES[position - 1]
    terms = [
        tuple((j, w[j]) for j in range(arity))
        for w in product(VALUES, repeat=arity)
        if apply_connective(conn, w) is target
    ]
    clauses = {frozenset(picks) for picks in product(*terms)}
    clauses = {
        c for c in clauses
        if not any(all((j, v) in c for v in VALUES) for j in range(arity))
    }
    minimal: list[frozenset[Literal]] = []
    for c in sorted(clauses, key=len):
        if not any(kept <= c for kept in minimal):
            minimal.append(c)
    return tuple(sorted(tuple(sorted(c)) for c in minimal))


class RuleInstance(NamedTuple):
    """One application of a generated rule: ``name`` is ``conn:position``,
    and ``premises`` come in template order."""

    name: str
    principal: Formula
    position: int
    premises: tuple[Sequent3, ...]
    conclusion: Sequent3


#: One insertion of a premise: (component index, argument index).
Insert = tuple[int, int]
Rule = tuple[str, tuple[tuple[Insert, ...], ...]]

#: Rule name and insert templates by (principal class, position), entered
#: on first use: building all 18 rules at import would cost every process.
_RULES: dict[tuple[type, int], Rule] = {}


def _rule(principal: Formula, position: int) -> Rule:
    """The name of the rule decomposing ``principal`` at ``position``, and
    the templates of ``generate_rules`` for it as (component index, argument
    index) inserts, in template order, the form of the anti-rules' inserts.
    ValueError for an atom or for a position outside 1-3."""
    cls = type(principal)
    rule = _RULES.get((cls, position))
    if rule is None:
        conn = connective(principal)
        if conn is None:
            raise ValueError("cannot decompose an atom")
        _index(position)  # ValueError outside 1-3
        inserts = tuple(tuple((v.rank, j) for j, v in template)
                        for template in generate_rules(conn, position))
        rule = _RULES[cls, position] = (f"{conn}:{position}", inserts)
    return rule


def _premises(conclusion: ComponentTriple, principal: Formula, position: int,
              templates: tuple[tuple[Insert, ...], ...]) -> Iterator[ComponentTriple]:
    """The premises of a rule or anti-rule in template order, each of the
    conclusion's class and built only when asked for: the conclusion without
    the principal, plus each insert's argument put into its component by a
    union of its own."""
    args = children(principal)
    base = list(conclusion)
    base[position - 1] = base[position - 1] - {principal}
    make = type(conclusion)
    for inserts in templates:
        comps = base.copy()
        for k, j in inserts:
            comps[k] = comps[k] | {args[j]}
        yield tuple.__new__(make, comps)  # make(*comps) without a Python call


def instantiate(conclusion: Sequent3, principal: Formula, position: int) -> RuleInstance:
    """Apply the generated rule for the principal's connective at ``position``
    (1, 2 or 3); ValueError for another position or an atom."""
    name, templates = _rule(principal, position)
    premises = tuple(_premises(conclusion, principal, position, templates))
    return RuleInstance(name, principal, position, premises, conclusion)


# ---------------------------------------------------------------------------
# Proof search


def is_axiom(s: Sequent3) -> bool:
    """Some formula occurs in all three components, so whichever of the three
    values it takes, one component's claim holds."""
    return bool(s.gamma1 & s.gamma2 & s.gamma3)


class ProofTree(NamedTuple):
    """A proof node: its conclusion, the rule that closes it (``axiom`` or
    ``conn:position``) and the subproofs of the rule's premises."""

    conclusion: Sequent3
    rule: str
    premises: tuple[ProofTree, ...] = ()


class ProofFailure(NamedTuple):
    """Search bottomed out at this unprovable atomic sequent."""

    leaf: Sequent3

    def __bool__(self) -> bool:
        return False


def prove(s: Sequent3) -> ProofTree | ProofFailure:
    """Backward proof search.

    Returns a checkable tree, or the atomic leaf witnessing invalidity.
    Rule invertibility makes the principal choice irrelevant to the answer,
    so there is no backtracking, and the same input always yields the same
    tree.  The choice does decide the tree's size: a rule with several
    premises copies the rest of the sequent into each of them, so the
    search decomposes the formulas of one-premise rules first.  Equal
    sequents within one search share one subtree.  The memo that shares
    them is the call's own and is freed when the call returns: the search
    builds no reference cycle.

    Each node takes one frame.  The principal is the non-atomic formula
    whose rule has the fewest premises, then the canonically least one, at
    its least position; its rule is read from a table by the principal's
    class and position, and each premise is built only once the one before
    it is proved.
    """
    return _search(s, {})


def _search(s: Sequent3, memo: dict[Sequent3, ProofTree | ProofFailure]
            ) -> ProofTree | ProofFailure:
    hit = memo.get(s)
    if hit is not None:
        return hit
    if s[0] & s[1] & s[2]:  # is_axiom(s)
        result: ProofTree | ProofFailure = ProofTree(s, "axiom")
    else:
        principal = None
        for pos, comp in enumerate(s, 1):
            for f in comp:
                if f._depth:  # an atom has depth 0
                    rule = _RULES.get((type(f), pos)) or _rule(f, pos)
                    key = (len(rule[1]), f._key)  # premise count, then sort_key(f)
                    if principal is None or key < least:
                        principal, least, position, chosen = f, key, pos, rule
        if principal is None:
            result = ProofFailure(s)
        else:
            name, templates = chosen
            subproofs = []
            for premise in _premises(s, principal, position, templates):
                sub = _search(premise, memo)
                if not sub:
                    memo[s] = sub
                    return sub
                subproofs.append(sub)
            result = ProofTree(s, name, tuple(subproofs))
    memo[s] = result
    return result


def entailment_sequent(premises: Iterable[Formula], goal: Formula) -> Sequent3:
    """Entailment as a sequent: with the premises in the f and u components,
    the sequent is valid iff every model of the premises gives the goal t."""
    w = frozenset(premises)
    return Sequent3(w, w, frozenset((goal,)))


def prove_entailment(premises: Iterable[Formula], goal: Formula) -> ProofTree | ProofFailure:
    return prove(entailment_sequent(premises, goal))


def failure_countermodel(failure: ProofFailure, root: Sequent3) -> Interpretation:
    """Counter-interpretation for ``root`` recovered from the failing leaf.

    Decomposition may drop atoms, so the leaf witness is extended with f.
    """
    witness = atomic_countermodel(failure.leaf.components)
    if witness is None:
        raise ValueError("leaf is an axiom, not a failure witness")
    return _extend_witness(witness, root)


def _extend_witness(witness: Interpretation, triple: ComponentTriple) -> Interpretation:
    """``witness`` on the atoms of ``triple``, f where it has no value."""
    table = witness.as_dict()
    return Interpretation(tuple((name, table.get(name, TruthValue.F)) for name in triple.atoms()))


# ---------------------------------------------------------------------------
# Checking


def check_proof(tree: ProofTree, conclusion: Sequent3 | None = None) -> bool:
    """Audit a proof tree without redoing search.

    The root must match ``conclusion`` when given, leaves must be axioms, and
    each inner node's children must be exactly the premises obtained by
    applying the node's named rule to its principal: the one formula the
    named component loses in the first premise (every rule has a premise,
    and inserts only proper subformulas).  The call keeps the identities of
    the nodes that passed, so a shared subtree is verified once per call,
    both in trees from ``prove`` and in trees read back by
    ``proof_from_doc``; the tree is left as it was.
    """
    if conclusion is not None and tree.conclusion != conclusion:
        return False
    return _checked(tree, set())


def _checked(node: ProofTree, passed: set[int]) -> bool:
    """Check ``node``, skipping the nodes whose ids are in ``passed``, and
    add its id when it passes (ids, not nodes: a tuple hashes its whole
    subtree, and the caller's tree keeps every node alive)."""
    if id(node) in passed:
        return True
    if node.rule == "axiom":
        good = not node.premises and is_axiom(node.conclusion)
    else:
        good = False
        conn, sep, pos_text = node.rule.partition(":")
        if sep and conn in ARITY and pos_text in {"1", "2", "3"} and node.premises:
            position = int(pos_text)
            lost = (node.conclusion.component(position)
                    - node.premises[0].conclusion.component(position))
            if len(lost) == 1:
                (f,) = lost
                good = (connective(f) == conn
                        and instantiate(node.conclusion, f, position).premises
                        == tuple(p.conclusion for p in node.premises)
                        and all(_checked(p, passed) for p in node.premises))
    if good:
        passed.add(id(node))
    return good


# ---------------------------------------------------------------------------
# Text and document forms


def print_sequent(s: Sequent3) -> str:
    return _print_triple(s, "[", {})


def _print_triple(triple: ComponentTriple, head: str,
                  fields: dict[frozenset[Formula], str]) -> str:
    """``head F ; F ; F]`` for ``triple``; each component is formatted once
    per table ``fields``, which a writer keeps for one document."""
    texts = []
    for comp in triple:
        text = fields.get(comp)
        if text is None:
            text = fields[comp] = _format_component(comp)
        texts.append(text)
    return head + " ; ".join(texts) + "]"


def _format_component(comp: frozenset[Formula]) -> str:
    """The formulas of one component in canonical order, ``, ``-separated."""
    return ", ".join(print_formula(f) for f in sorted(comp, key=sort_key))


def parse_component_fields(p: TokenParser) -> list[tuple[Formula, ...]]:
    """Three ``;``-separated formula lists followed by ``]``; fields may be empty."""
    comps: list[tuple[Formula, ...]] = []
    for k in range(3):
        if p.peek().kind in (";", "]"):
            comps.append(())
        else:
            comps.append(p.formula_list())
        if k < 2:
            p.expect(";")
    p.expect("]")
    return comps


def parse_sequent(text: str) -> Sequent3:
    """Parse ``[ f1, f2 ; ; g ]``."""
    return _parse_triple(text, "[", Sequent3)


def _parse_triple(text: str, head: str, cls: type[ComponentTriple]) -> ComponentTriple:
    """Parse ``head F ; F ; F]`` as a ``cls``; each character of ``head`` is a token."""
    def triple(p: TokenParser) -> list[tuple[Formula, ...]]:
        for kind in head:
            p.expect(kind)
        return parse_component_fields(p)

    return cls.of(*TokenParser.read(text, triple))


#: The tokenizer's blanks, stripped from the ends of an entry.
_BLANKS = " \t\r\n"

#: Live formulas by the canonical print that names them in a document,
#: held weakly: at most one text per live formula, dropped when it dies.
_entries: weakref.WeakValueDictionary[str, Formula] = weakref.WeakValueDictionary()


def _read_components(text: str, head: str) -> list[frozenset[Formula]] | None:
    """The components of ``head F ; F ; F]`` read field by field, or None
    when ``text`` needs the full parser.

    ``,`` and ``;`` are one-character tokens that no atom contains, and
    without ``%`` there is no comment, so splitting the raw text at them
    splits its token stream the same way.  Each field, stripped of blanks,
    is split into entries, each read by ``_read_formula``.  An empty entry,
    an entry that is not one formula (a stray bracket makes one) or is
    nested too deeply to parse, or a text of another shape gives None, so
    the full parser decides it and raises the error of the text's first
    fault, with its position.
    """
    if not (text.startswith(head) and text.endswith("]")) or "%" in text:
        return None
    raw = text[len(head):-1].split(";")
    if len(raw) != 3:
        return None
    comps = []
    try:
        for field in raw:
            field = field.strip(_BLANKS)
            entries = field.split(",") if field else ()
            comps.append(frozenset([_read_formula(entry.strip(_BLANKS)) for entry in entries]))
    except (ParseError, RecursionError):
        return None
    return comps


def _read_formula(text: str) -> Formula:
    """The formula a certificate's formula ``text`` names.  It is looked up
    in ``_entries``; a miss is tokenized and parsed, and entered when
    ``text`` is the formula's canonical print, as the writers print it.
    Raises ParseError, as ``parse_formula`` does, when ``text`` is not
    exactly one formula."""
    f = _entries.get(text)
    if f is None:
        f = TokenParser.read(text, TokenParser.formula)
        if print_formula(f) == text:
            _entries[text] = f
    return f


def _node_fields(doc, kind: str) -> tuple[str, str, list]:
    """Rule, sequent text and premise list of one proof or refutation
    document node; ValueError when one is missing or of the wrong type."""
    if (not isinstance(doc, dict) or not isinstance(doc.get("rule"), str)
            or not isinstance(doc.get("sequent"), str)
            or not isinstance(doc.get("premises"), list)):
        raise ValueError(f"malformed {kind} document")
    return doc["rule"], doc["sequent"], doc["premises"]


def proof_to_doc(tree: ProofTree) -> dict:
    """The tree's document.  A shared subtree is written out per occurrence,
    each time as dicts of its own, so that editing one occurrence leaves the
    others; each distinct component is sorted and printed once per
    document, and each node's sequent text is joined from those prints."""
    return _write_proof(tree, {})


def _write_proof(node: ProofTree, fields: dict[frozenset[Formula], str]) -> dict:
    return {"rule": node.rule, "sequent": _print_triple(node.conclusion, "[", fields),
            "premises": [_write_proof(p, fields) for p in node.premises]}


def proof_from_doc(doc) -> ProofTree:
    """Read a proof document back as a DAG, in the size of the DAG.

    ``proof_to_doc`` writes every shared subtree out once per occurrence;
    reading rebuilds the sharing.  The first node read with each sequent
    text is kept with its document, and a later node with the same text
    whose document is equal to it (one comparison of JSON values, made in
    C) is that node, without a walk of its subtree, so ``check_proof``
    verifies each distinct subtree of an unedited document once.  Any other
    node is read in full.  Each formula entry is read by ``_read_formula``,
    so it is tokenized only when it names no live formula by its canonical
    print; a text that does not split into entries is parsed in full.
    Raises ParseError for a bad sequent text, exactly as ``parse_sequent``
    does on it, and ValueError for a malformed node.
    """
    return _read_proof(doc, {})


def _read_proof(doc, read: dict[str, tuple[dict, ProofTree]]) -> ProofTree:
    rule, text, premises = _node_fields(doc, "proof")
    first = read.get(text)
    if first is not None and first[0] == doc:
        return first[1]
    comps = _read_components(text, "[")
    s = parse_sequent(text) if comps is None else Sequent3(*comps)
    node = ProofTree(s, rule, tuple(_read_proof(p, read) for p in premises))
    read.setdefault(text, (doc, node))
    return node
