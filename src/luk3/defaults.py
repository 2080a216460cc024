"""Default reasoning over the three-valued base logic.

A default theory pairs facts W with defaults ``A : B1, ..., Bn / C``, read:
if A is derivable and none of ~B1, ..., ~Bn, ~L C are derivable, assert M C
(the conclusion is held possible, not certain).  The firing operator iterates
that reading with the consistency checks made against a fixed context basis;
extensions are its fixed points.  Every fixed point equals the closure of W
plus the M-consequents of its fired defaults, so one search over the fired
subsets answers every query.  It decides each default IN or OUT and cuts
every branch that entailment's monotonicity shows holds no fixed point; the
cuts decide every consistency check, so a remaining leaf only checks that
its IN defaults are grounded.  The leaves come out in increasing rank:
enumeration keeps one extension per subset whose IN defaults all fire, brave
queries (is there an extension containing all of Sigma and none of Theta?)
stop at the first that qualifies, and skeptical queries (does every
constraint-satisfying extension contain a goal?) check each.
Both produce certificates made of sequent proofs and anti-sequent
refutations.  A brave certificate chooses each block reason from the final
basis, and its checker replays it without any search.  A skeptical one lists
the ranks the search keeps, one record each, and its checker reruns the
search.  The search takes its entailment test as an argument: the engine
takes the sequent calculus's answer, and the skeptical checker takes it only
once check_proof or check_refutation accepts the calculus's proof or
refutation.  The engine decides ``basis |= f`` over the slice of the basis
whose atom-connected components share an atom with f, valid formulas left
out (they hold in every model): the rest shares no atom with that slice or
with f, so it changes the answer only when one of its components has no
all-t model, which one cached sequent per component decides.  Certificates
carry those sliced proofs, which the checkers accept by weakening, and
refutations over the whole basis, each guided by the failed proofs that
decided its non-entailment: no question runs a second proof search.
Both checkers replay each piece of evidence a certificate carries, so they
rest on those two calculus checkers and on no other decision procedure.
Queries, results and certificate parts are immutable named tuples.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, NamedTuple

from .antisequent import AntiSequent3, RefutationTree, check_refutation, refutation_from_doc, refutation_from_failure, refutation_to_doc
from .sequent import ProofFailure, ProofTree, Sequent3, _read_formula, check_proof, entailment_sequent, proof_from_doc, proof_to_doc, prove
from .syntax import (
    Cert,
    Default,
    DefaultTheory,
    Formula,
    Not,
    Poss,
    TokenParser,
    atoms,
    parse_default,
    print_default,
    print_formula,
    sort_key,
)

__all__ = [
    "BLOCKED_CERT",
    "BLOCKED_JUST",
    "BLOCKED_PREREQ",
    "BraveFailure",
    "BraveProof",
    "BraveSequent",
    "CandidateRecord",
    "ConstraintEvidence",
    "DEFAULT_MAX_STATES",
    "DefaultProof",
    "Disposition",
    "ExtensionBasis",
    "ExtensionVerdict",
    "FIRED",
    "SearchLimitError",
    "SignedConstraint",
    "SkepticalFailure",
    "SkepticalProof",
    "SkepticalSequent",
    "brave_prove",
    "brave_proof_from_doc",
    "brave_proof_to_doc",
    "brave_translation",
    "check_brave_proof",
    "check_skeptical_proof",
    "closure_equivalent",
    "constraint_satisfied",
    "extensions",
    "gamma",
    "is_extension",
    "member",
    "parse_constraints",
    "print_constraint",
    "skeptical_decide",
    "skeptical_proof_from_doc",
    "skeptical_proof_to_doc",
]

DEFAULT_MAX_STATES = 10 ** 6


class SearchLimitError(RuntimeError):
    """A query exceeds its state budget: its search reaches more than
    DEFAULT_MAX_STATES states."""


class ExtensionBasis(NamedTuple):
    """Finite basis (facts plus M-consequents of fired defaults) standing for
    its deductive closure; membership is decided by entailment, never by
    listing."""

    basis: frozenset[Formula]
    fired: tuple[Default, ...] = ()


# ---------------------------------------------------------------------------
# Entailment through the calculi (cached; pure)


@cache
def _proof(basis: frozenset[Formula], goals: frozenset[Formula]) -> ProofTree | ProofFailure:
    """The calculus on ``basis | basis | goals``, for one goal or none."""
    return prove(Sequent3(basis, basis, goals))


@cache
def _refutation(basis: frozenset[Formula], goal: Formula) -> RefutationTree:
    """Certificate of non-entailment over the whole basis, guided by the
    failures that decided it; only called once ``_entailed(basis, goal)``
    has failed.  Those are the slice's failed proof and, for each component
    sharing no atom with ``goal``, the failed proof of ``C | C | (empty)``
    (see ``_entailed``).  Their atomic leaves share no atom, so their union
    is one failing leaf whose countermodel makes every basis formula t and
    ``goal`` not t: valid basis formulas, in no component, are t in every
    model.  No proof search runs over the whole basis."""
    disjoint = _atoms(goal).isdisjoint
    leaves = [_entailed(basis, goal).leaf]
    leaves += [_proof(c, frozenset()).leaf for names, c in _components(basis) if disjoint(names)]
    return refutation_from_failure(AntiSequent3.of(basis, basis, (goal,)),
                                   ProofFailure(Sequent3(*map(frozenset.union, *leaves))))


@cache
def _atoms(f: Formula) -> frozenset[str]:
    """The atom names of ``f``, as a set."""
    return frozenset(atoms(f))


@cache
def _components(basis: frozenset[Formula]
                ) -> tuple[tuple[frozenset[str], frozenset[Formula]], ...] | ProofTree:
    """The atom-connected components of ``basis``, each with its atoms, or
    the proof of ``C | C | (empty)`` for the first component ``C`` (by least
    atom name) with no all-t model, so that ``basis`` entails every formula.
    A formula the calculus proves valid is t in every model, so no
    entailment needs it and no component loses its all-t model by it: it is
    left out, and links no atoms."""
    groups: list[tuple[frozenset[str], frozenset[Formula]]] = []
    for g in basis:
        if _proof(frozenset(), frozenset((g,))):
            continue
        names, members, rest = _atoms(g), {g}, []
        for group in groups:
            if names.isdisjoint(group[0]):
                rest.append(group)
            else:
                names |= group[0]
                members |= group[1]
        rest.append((names, frozenset(members)))
        groups = rest
    for _, component in sorted(groups, key=lambda group: min(group[0])):
        proof = _proof(component, frozenset())
        if proof:
            return proof
    return tuple(groups)


@cache
def _entailed(basis: frozenset[Formula], f: Formula) -> ProofTree | ProofFailure:
    """Entailment by the sequent calculus, with the proof a certificate
    carries, decided over the slice of ``basis`` sharing atoms with ``f``.
    Split the basis into ``R``, the atom-connected components that share an
    atom with ``f``, and the rest ``S``.  A countermodel of ``R |= f`` and
    an all-t model of ``S`` have disjoint atoms and so combine, hence
    ``R + S |= f`` exactly when ``R |= f`` or some component of ``S`` has no
    all-t model; a component of ``R`` without one makes ``R |= f`` as well.
    Valid basis formulas belong to no component (see ``_components``), so a
    valid fact that shares an atom with every default does not make the
    slice the whole basis.  Each proof's root weakens to
    ``entailment_sequent(basis, f)``."""
    components = _components(basis)
    if isinstance(components, ProofTree):
        return components
    goal = _atoms(f)
    return _proof(frozenset().union(*(c for names, c in components
                                      if not names.isdisjoint(goal))), frozenset((f,)))


def member(e: ExtensionBasis, f: Formula) -> bool:
    """Is ``f`` in the closure of ``e``?"""
    return bool(_entailed(e.basis, f))


def closure_equivalent(b1: frozenset[Formula], b2: frozenset[Formula]) -> bool:
    """Mutual entailment of finite bases, i.e. equality of their closures."""
    return all(_entailed(b2, f) for f in b1) and all(_entailed(b1, f) for f in b2)


def _blocking_formulas(d: Default) -> tuple[Formula, ...]:
    """Formulas whose derivability blocks the default."""
    return tuple(Not(b) for b in d.justifications) + (Not(Cert(d.consequent)),)


# ---------------------------------------------------------------------------
# The firing operator and extensions


def _ground(facts: frozenset[Formula], defaults: list[Default], entailed) -> ExtensionBasis:
    """Staged grounding: starting from the facts, each round fires every one
    of ``defaults`` not yet fired whose prerequisite is entailed by the basis
    built so far.  Converges in at most len(defaults) rounds; the fired
    defaults are recorded in firing order."""
    basis = set(facts)
    fired: list[Default] = []
    progress = True
    while progress:
        progress = False
        stage = frozenset(basis)
        for d in defaults:
            if d not in fired and entailed(stage, d.prereq):
                basis.add(Poss(d.consequent))
                fired.append(d)
                progress = True
    return ExtensionBasis(frozenset(basis), tuple(fired))


def gamma(theory: DefaultTheory, context: ExtensionBasis) -> ExtensionBasis:
    """Least basis closed under firing against the fixed ``context``: the
    staged grounding of the defaults whose blocking formulas (~Bi and ~L C)
    are all non-entailed by the context, entailment decided by the sequent
    calculus.
    """
    admissible = [d for d in theory.defaults
                  if not any(_entailed(context.basis, f) for f in _blocking_formulas(d))]
    return _ground(theory.facts, admissible, _entailed)


def is_extension(theory: DefaultTheory, candidate: ExtensionBasis) -> bool:
    """Fixed-point test: firing against the candidate reproduces its closure."""
    return closure_equivalent(gamma(theory, candidate).basis, candidate.basis)


class CandidateRecord(NamedTuple):
    """One line of the skeptical transcript: a rank the search keeps."""

    rank: int
    fired_indices: tuple[int, ...]
    kept: bool


class _Search:
    """The branch-and-bound search every query and the skeptical checker run.

    Iterating yields ``(rank, extension)`` for each rank whose fired subset
    the firing operator reproduces, in increasing rank order; ``states``
    counts the nodes reached so far, leaves plus cuts.  Defaults are decided
    from the highest index down, OUT before IN.  With IN and the still open
    defaults, every kept subset S below a node has
    ``low = basis(IN) <= basis(S) <= basis(IN + open) = high``, and
    entailment is monotone, so every node makes one cut test (``_cut``) of
    all its decided defaults against ``low`` and ``high``: it is cut when an
    IN default fires in no such S, or an OUT default fires in every one.  A
    cut node counts one state and ends its branch.  At an uncut leaf
    ``low == high``: each IN default has an entailed prerequisite and no
    entailed blocking formula, and each OUT default is blocked or has a
    prerequisite that ``low`` does not entail, so the firing operator
    against ``low`` fires IN defaults only.  A leaf therefore grounds just
    its IN defaults in stages and keeps the subset when all of them fire,
    with the operator's basis and firing order.  Closure-equivalent
    candidates fire the same set, so no two kept ranks share a closure.
    Raises SearchLimitError once the states exceed DEFAULT_MAX_STATES.
    """

    def __init__(self, theory: DefaultTheory, entailed=_entailed):
        self.theory = theory
        self.entailed = entailed
        self.states = 0
        self.blocking = tuple(map(_blocking_formulas, theory.defaults))
        self.consequents = tuple(Poss(d.consequent) for d in theory.defaults)
        # the M-consequents of the defaults below each index: the open ones
        self.below = tuple(frozenset(self.consequents[:k])
                           for k in range(len(theory.defaults) + 1))

    def __iter__(self) -> Iterator[tuple[int, ExtensionBasis]]:
        return self._visit(len(self.theory.defaults), (), (), frozenset(self.theory.facts))

    def _reach(self) -> None:
        self.states += 1
        if self.states > DEFAULT_MAX_STATES:
            raise SearchLimitError(f"default search exceeds {DEFAULT_MAX_STATES} states")

    def _cut(self, inside: tuple[int, ...], outside: tuple[int, ...],
             low: frozenset[Formula], high: frozenset[Formula]) -> bool:
        """Whether no kept subset lies between ``low`` and ``high``: an IN
        default has a prerequisite that ``high`` does not entail or a
        blocking formula that ``low`` entails (it cannot fire), or an OUT
        default has a prerequisite that ``low`` entails and no blocking
        formula that ``high`` entails (it must fire).  ``low`` is a subset
        of ``high``, so a prerequisite ``low`` entails ``high`` entails too,
        and one question decides it."""
        entailed, defaults, blocking = self.entailed, self.theory.defaults, self.blocking
        for k in inside:
            if not entailed(high, defaults[k].prereq):
                return True
            for f in blocking[k]:
                if entailed(low, f):
                    return True
        for k in outside:
            if entailed(low, defaults[k].prereq):
                for f in blocking[k]:
                    if entailed(high, f):
                        break
                else:
                    return True
        return False

    def _visit(self, k: int, inside: tuple[int, ...], outside: tuple[int, ...],
               low: frozenset[Formula]) -> Iterator[tuple[int, ExtensionBasis]]:
        """The subtree below the node where the defaults from index ``k`` up
        are decided, the ``inside`` ones IN and the ``outside`` ones OUT,
        and ``low = basis(IN)``."""
        if self._cut(inside, outside, low, low | self.below[k]):
            self._reach()
            return
        if k == 0:
            self._reach()
            g = _ground(self.theory.facts, [self.theory.defaults[i] for i in inside],
                        self.entailed)
            if len(g.fired) == len(inside):
                yield sum(1 << i for i in inside), g
            return
        k -= 1
        yield from self._visit(k, inside, (k,) + outside, low)
        yield from self._visit(k, (k,) + inside, outside, low | {self.consequents[k]})


def extensions(theory: DefaultTheory) -> tuple[ExtensionBasis, ...]:
    """All extensions, in candidate-rank order: one per fired subset that
    the firing operator reproduces, found by the branch-and-bound search.

    Raises SearchLimitError when the search reaches more than
    DEFAULT_MAX_STATES states.
    """
    return tuple(e for _, e in _Search(theory))


# ---------------------------------------------------------------------------
# Queries and constraints


class BraveSequent(NamedTuple):
    """Gamma; Delta |- Sigma; Theta: true when some extension of the theory
    (Gamma, Delta) contains every Sigma formula and no Theta formula."""

    gamma: frozenset[Formula]
    delta: tuple[Default, ...]
    sigma: frozenset[Formula]
    theta: frozenset[Formula]


class SignedConstraint(NamedTuple):
    """Membership constraint on extensions: +f requires f, -f forbids it."""

    positive: bool
    formula: Formula


class SkepticalSequent(NamedTuple):
    """Sigma; Gamma; Delta |- Theta: true when every extension of the theory
    (Gamma, Delta) satisfying the constraints Sigma contains at least one
    Theta formula."""

    sigma: frozenset[SignedConstraint]
    gamma: frozenset[Formula]
    delta: tuple[Default, ...]
    theta: frozenset[Formula]


def constraint_satisfied(e: ExtensionBasis, c: SignedConstraint) -> bool:
    return member(e, c.formula) == c.positive


def parse_constraints(text: str) -> tuple[SignedConstraint, ...]:
    """Comma-separated ``+formula`` / ``-formula``; a bare formula is positive."""
    return TokenParser.read(text, _constraint_list)


def _constraint_list(p: TokenParser) -> tuple[SignedConstraint, ...]:
    if p.at_end():
        return ()
    out = []
    while True:
        positive = not p.accept("-")
        if positive:
            p.accept("+")
        out.append(SignedConstraint(positive, p.formula()))
        if not p.accept(","):
            break
    return tuple(out)


def print_constraint(c: SignedConstraint) -> str:
    return ("+" if c.positive else "-") + print_formula(c.formula)


def _constraint_key(c: SignedConstraint):
    return (0 if c.positive else 1, sort_key(c.formula))


def brave_translation(query: SkepticalSequent) -> BraveSequent:
    """Failure dual of a skeptical sequent: the skeptical sequent holds exactly
    when this brave sequent (some extension meets every positive constraint
    while avoiding the negative constraints and all goals) is underivable."""
    positive = frozenset(c.formula for c in query.sigma if c.positive)
    negative = frozenset(c.formula for c in query.sigma if not c.positive)
    return BraveSequent(query.gamma, query.delta, positive, negative | query.theta)


# ---------------------------------------------------------------------------
# Brave queries

FIRED = "fired"
BLOCKED_PREREQ = "blocked-prerequisite"
BLOCKED_JUST = "blocked-justification"
BLOCKED_CERT = "blocked-consequent-certainty"


class Disposition(NamedTuple):
    """How a brave certificate settles one default."""

    default: Default
    kind: str
    justification_index: int | None = None  # 1-based, blocked-justification only
    groundedness: ProofTree | None = None  # prerequisite proof, fired only


class BraveProof(NamedTuple):
    query: BraveSequent
    steps: tuple[Disposition, ...]
    final_basis: frozenset[Formula]
    sigma_proofs: tuple[tuple[Formula, ProofTree], ...]
    theta_refutations: tuple[tuple[Formula, RefutationTree], ...]


class BraveFailure(NamedTuple):
    query: BraveSequent
    states: int

    def __bool__(self) -> bool:
        return False


def brave_prove(query: BraveSequent) -> BraveProof | BraveFailure:
    """First extension in rank order (one per reproduced fired subset) that
    entails every Sigma formula and no Theta formula, or failure, with the
    number of states the search reached, once the search is exhausted.

    The certificate fires the extension's defaults in firing order, each
    prerequisite proved from the basis replayed so far, then blocks every
    other default for the first reason that holds of the final basis:
    prerequisite not entailed, else the first entailed ~Bj, else ~L C.
    Raises SearchLimitError when the search reaches more than
    DEFAULT_MAX_STATES states, and ValueError on a repeated default.
    """
    search = _Search(DefaultTheory(query.gamma, query.delta))
    for _, e in search:
        if (all(_entailed(e.basis, f) for f in query.sigma)
                and not any(_entailed(e.basis, f) for f in query.theta)):
            return _brave_certificate(query, e)
    return BraveFailure(query, search.states)


def _brave_certificate(query: BraveSequent, e: ExtensionBasis) -> BraveProof:
    steps = []
    sigma, theta = set(query.sigma), set(query.theta)
    basis = frozenset(query.gamma)
    for d in e.fired:
        steps.append(Disposition(d, FIRED, groundedness=_entailed(basis, d.prereq)))
        basis |= {Poss(d.consequent)}
        theta.update(_blocking_formulas(d))
    for d in query.delta:
        if d in e.fired:
            continue
        if not _entailed(basis, d.prereq):
            steps.append(Disposition(d, BLOCKED_PREREQ))
            theta.add(d.prereq)
            continue
        # an unfired default with an entailed prerequisite is blocked by the extension
        blocking = _blocking_formulas(d)
        k = next(k for k, f in enumerate(blocking) if _entailed(basis, f))
        sigma.add(blocking[k])
        steps.append(Disposition(d, BLOCKED_CERT) if k == len(d.justifications)
                     else Disposition(d, BLOCKED_JUST, justification_index=k + 1))
    return BraveProof(query, tuple(steps), basis,
                      tuple((f, _entailed(basis, f)) for f in sorted(sigma, key=sort_key)),
                      tuple((f, _refutation(basis, f)) for f in sorted(theta, key=sort_key)))


# ---------------------------------------------------------------------------
# Skeptical decision


class ConstraintEvidence(NamedTuple):
    """Entailment or non-entailment evidence for one constraint against one
    extension; exactly one of proof/refutation is present."""

    constraint: SignedConstraint
    satisfied: bool
    proof: ProofTree | None = None
    refutation: RefutationTree | None = None


class ExtensionVerdict(NamedTuple):
    extension: ExtensionBasis
    evidence: tuple[ConstraintEvidence, ...]
    satisfies_constraints: bool
    goal: Formula | None = None
    goal_proof: ProofTree | None = None


class SkepticalProof(NamedTuple):
    query: SkepticalSequent
    transcript: tuple[CandidateRecord, ...]
    verdicts: tuple[ExtensionVerdict, ...]


class SkepticalFailure(NamedTuple):
    query: SkepticalSequent
    counterexample: ExtensionBasis

    def __bool__(self) -> bool:
        return False


def _evidence(basis: frozenset[Formula], f: Formula
              ) -> tuple[ProofTree | None, RefutationTree | None]:
    """The calculus's evidence on whether ``basis`` entails ``f``: the proof,
    or else the refutation chain of the failed proof; the other is None."""
    proof = _entailed(basis, f)
    return (proof, None) if proof else (None, _refutation(basis, f))


def _constraint_evidence(e: ExtensionBasis, c: SignedConstraint) -> ConstraintEvidence:
    proof, refutation = _evidence(e.basis, c.formula)
    return ConstraintEvidence(c, (proof is not None) == c.positive, proof, refutation)


def _transcript(n: int, kept: list[int]) -> tuple[CandidateRecord, ...]:
    """One kept record for each of the ``kept`` ranks of ``n`` defaults, in
    the order given."""
    return tuple(CandidateRecord(r, tuple(i for i in range(n) if r >> i & 1), True)
                 for r in kept)


def skeptical_decide(query: SkepticalSequent) -> SkepticalProof | SkepticalFailure:
    """Check every constraint-satisfying extension for a goal.

    The extensions come from the branch-and-bound search, in rank order.
    Succeeds when each such extension entails some Theta formula; the
    certificate carries the transcript (one kept record per rank the search
    yields, in rank order, with the rank's default indices), per-extension
    constraint evidence, and one goal proof per satisfying extension.  Fails
    with the first counterexample extension otherwise (in particular, an
    empty Theta fails as soon as any extension satisfies the constraints).
    Raises SearchLimitError when the search reaches more than
    DEFAULT_MAX_STATES states.
    """
    theory = DefaultTheory(query.gamma, query.delta)
    constraints = sorted(query.sigma, key=_constraint_key)
    goals = sorted(query.theta, key=sort_key)
    kept = []
    verdicts = []
    for rank, e in _Search(theory):
        kept.append(rank)
        evidence = tuple(_constraint_evidence(e, c) for c in constraints)
        satisfied = all(ev.satisfied for ev in evidence)
        goal = goal_proof = None
        if satisfied:
            goal = next((f for f in goals if _entailed(e.basis, f)), None)
            if goal is None:
                return SkepticalFailure(query, e)
            goal_proof = _entailed(e.basis, goal)
        verdicts.append(ExtensionVerdict(e, evidence, satisfied, goal, goal_proof))
    return SkepticalProof(query, _transcript(len(query.delta), kept), tuple(verdicts))


DefaultProof = BraveProof | SkepticalProof


# ---------------------------------------------------------------------------
# Certificate checking


def _replayed(basis: frozenset[Formula], f: Formula, proof: ProofTree | None,
              refutation: RefutationTree | None) -> bool | None:
    """Whether ``basis`` entails ``f``, decided by replaying the one piece of
    evidence given: a proof of a sub-sequent of the entailment sequent, which
    weakening proves, or a refutation of its anti-sequent.  None when neither
    or both are given, or the one given fails its checker; both are sound."""
    if refutation is None and proof is not None:
        weakens = all(map(frozenset.issubset, proof.conclusion, entailment_sequent(basis, f)))
        return True if weakens and check_proof(proof) else None
    if proof is None and refutation is not None:
        return False if check_refutation(refutation, AntiSequent3.of(basis, basis, (f,))) else None
    return None


def check_brave_proof(proof: BraveProof) -> bool:
    """Replay the dispositions and re-verify every embedded certificate.

    No search is rerun: groundedness proofs are checked against the replayed
    basis at their step, and the final proof/refutation obligations must
    list exactly the accumulated Sigma and Theta, each formula once and in
    canonical order, as brave_prove writes them.  A proof may range over a
    subset of its basis, by weakening; a refutation ranges over all of it.
    A query that repeats a default is rejected, as brave_prove refuses it.
    """
    q = proof.query
    try:
        DefaultTheory(q.gamma, q.delta)
    except ValueError:
        return False
    remaining = list(q.delta)
    basis = frozenset(q.gamma)
    sigma = set(q.sigma)
    theta = set(q.theta)
    for step in proof.steps:
        d = step.default
        if d not in remaining:
            return False
        remaining.remove(d)
        # each optional field is given exactly on the steps of its kind
        if ((step.groundedness is None) == (step.kind == FIRED)
                or (step.justification_index is None) == (step.kind == BLOCKED_JUST)):
            return False
        if step.kind == FIRED:
            if not _replayed(basis, d.prereq, step.groundedness, None):
                return False
            basis |= {Poss(d.consequent)}
            theta |= set(_blocking_formulas(d))
        elif step.kind == BLOCKED_PREREQ:
            theta.add(d.prereq)
        elif step.kind == BLOCKED_JUST:
            j = step.justification_index
            if not isinstance(j, int) or isinstance(j, bool) or not 1 <= j <= len(d.justifications):
                return False
            sigma.add(Not(d.justifications[j - 1]))
        elif step.kind == BLOCKED_CERT:
            sigma.add(Not(Cert(d.consequent)))
        else:
            return False
    if remaining or proof.final_basis != basis:
        return False
    if [f for f, _ in proof.sigma_proofs] != sorted(sigma, key=sort_key):
        return False
    if [f for f, _ in proof.theta_refutations] != sorted(theta, key=sort_key):
        return False
    return (all(_replayed(basis, f, t, None) for f, t in proof.sigma_proofs)
            and all(_replayed(basis, f, None, r) is False for f, r in proof.theta_refutations))


@cache
def _certified(basis: frozenset[Formula], f: Formula) -> bool:
    """Entailment by the calculus, counted once its checker accepts the
    evidence: the skeptical checker's route.  ValueError when it does not."""
    entailed = _replayed(basis, f, *_evidence(basis, f))
    if entailed is None:
        raise ValueError("the calculus's evidence fails its checker")
    return entailed


def check_skeptical_proof(proof: SkepticalProof) -> bool:
    """Audit a skeptical certificate with the calculus's two checkers.

    The checker runs the engine's branch-and-bound search, taking each
    entailment from the calculus's proof or refutation once check_proof or
    check_refutation accepts it.  The verdicts must be its extensions in
    rank order, each with its basis and its fired defaults in firing order,
    and the transcript must be the one skeptical_decide writes for the
    ranks it yields: one kept record per rank, with its indices, in rank
    order, so a record marked unkept, added, dropped or moved is rejected.
    Constraint and goal entailments are decided by replaying the evidence
    (a proof may cover a subset of the basis, by weakening), and each
    satisfying extension must carry a proof of its first entailed goal in
    canonical order.  Evidence from the calculus that fails its checker
    rejects the certificate.  Raises SearchLimitError, as the engine does,
    when the search reaches more than DEFAULT_MAX_STATES states.
    """
    q = proof.query
    try:
        theory = DefaultTheory(q.gamma, q.delta)
        constraints = tuple(sorted(q.sigma, key=_constraint_key))
        goals = sorted(q.theta, key=sort_key)
        kept = []
        verdicts = iter(proof.verdicts)
        for rank, e in _Search(theory, _certified):
            kept.append(rank)
            verdict = next(verdicts, None)
            if (verdict is None or verdict.extension != e
                    or tuple(ev.constraint for ev in verdict.evidence) != constraints):
                return False
            for ev in verdict.evidence:
                entailed = _replayed(e.basis, ev.constraint.formula, ev.proof, ev.refutation)
                if entailed is None or ev.satisfied != (entailed == ev.constraint.positive):
                    return False
            if verdict.satisfies_constraints != all(ev.satisfied for ev in verdict.evidence):
                return False
            if verdict.satisfies_constraints:
                if (any(_certified(e.basis, g) for g in goals[:goals.index(verdict.goal)])
                        or not _replayed(e.basis, verdict.goal, verdict.goal_proof, None)):
                    return False
            elif verdict.goal is not None or verdict.goal_proof is not None:
                return False
    except ValueError:  # a repeated default, a goal outside Theta, or evidence failing its checker
        return False
    return (next(verdicts, None) is None
            and tuple(proof.transcript) == _transcript(len(q.delta), kept))


# ---------------------------------------------------------------------------
# Document forms


def _formula_list_doc(formulas: Iterable[Formula]) -> list[str]:
    return [print_formula(f) for f in sorted(formulas, key=sort_key)]


def brave_proof_to_doc(proof: BraveProof) -> dict:
    q = proof.query
    steps = []
    for step in proof.steps:
        doc: dict = {"default": print_default(step.default), "disposition": step.kind}
        if step.justification_index is not None:
            doc["justification"] = step.justification_index
        if step.groundedness is not None:
            doc["groundedness"] = proof_to_doc(step.groundedness)
        steps.append(doc)
    return {
        "kind": "brave",
        "query": {
            "gamma": _formula_list_doc(q.gamma),
            "delta": [print_default(d) for d in q.delta],
            "sigma": _formula_list_doc(q.sigma),
            "theta": _formula_list_doc(q.theta),
        },
        "steps": steps,
        "basis": _formula_list_doc(proof.final_basis),
        "sigma_proofs": [{"formula": print_formula(f), "proof": proof_to_doc(t)}
                         for f, t in proof.sigma_proofs],
        "theta_refutations": [{"formula": print_formula(f), "refutation": refutation_to_doc(r)}
                              for f, r in proof.theta_refutations],
    }


def _typed(value, kind: type, what: str):
    """``value`` if it is a ``kind`` (a bool is no int), else ValueError."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ValueError(f"malformed {what} certificate")
    return value


def _list(doc: dict, key: str, kind: type, what: str) -> list:
    return [_typed(item, kind, what) for item in _typed(doc.get(key), list, what)]


def _formulas(doc: dict, key: str, what: str) -> frozenset[Formula]:
    return frozenset(_read_formula(t) for t in _list(doc, key, str, what))


def brave_proof_from_doc(doc) -> BraveProof:
    """ValueError for a missing or mistyped field, and ParseError for a
    bad formula or default text; a well-typed but wrong certificate is read
    and left to the checker."""
    if not isinstance(doc, dict) or doc.get("kind") != "brave":
        raise ValueError("malformed brave certificate")
    qd = _typed(doc.get("query"), dict, "brave")
    query = BraveSequent(_formulas(qd, "gamma", "brave"),
                         tuple(parse_default(t) for t in _list(qd, "delta", str, "brave")),
                         _formulas(qd, "sigma", "brave"), _formulas(qd, "theta", "brave"))
    steps = tuple(Disposition(
        parse_default(_typed(sd.get("default"), str, "brave")),
        _typed(sd.get("disposition"), str, "brave"),
        justification_index=(_typed(sd["justification"], int, "brave")
                             if "justification" in sd else None),
        groundedness=proof_from_doc(sd["groundedness"]) if "groundedness" in sd else None,
    ) for sd in _list(doc, "steps", dict, "brave"))
    return BraveProof(
        query,
        steps,
        _formulas(doc, "basis", "brave"),
        tuple((_read_formula(_typed(e.get("formula"), str, "brave")),
               proof_from_doc(e.get("proof"))) for e in _list(doc, "sigma_proofs", dict, "brave")),
        tuple((_read_formula(_typed(e.get("formula"), str, "brave")),
               refutation_from_doc(e.get("refutation")))
              for e in _list(doc, "theta_refutations", dict, "brave")),
    )


def skeptical_proof_to_doc(proof: SkepticalProof) -> dict:
    q = proof.query
    index_of = {d: i for i, d in enumerate(q.delta)}
    verdicts = []
    for v in proof.verdicts:
        evidence = []
        for ev in v.evidence:
            ed: dict = {"constraint": print_constraint(ev.constraint), "satisfied": ev.satisfied}
            if ev.proof is not None:
                ed["proof"] = proof_to_doc(ev.proof)
            if ev.refutation is not None:
                ed["refutation"] = refutation_to_doc(ev.refutation)
            evidence.append(ed)
        vd: dict = {
            "basis": _formula_list_doc(v.extension.basis),
            "fired": [index_of[d] for d in v.extension.fired],
            "constraints": evidence,
            "satisfies_constraints": v.satisfies_constraints,
        }
        if v.goal is not None:
            vd["goal"] = print_formula(v.goal)
            vd["goal_proof"] = proof_to_doc(v.goal_proof)
        verdicts.append(vd)
    return {
        "kind": "skeptical",
        "query": {
            "constraints": [print_constraint(c) for c in sorted(q.sigma, key=_constraint_key)],
            "gamma": _formula_list_doc(q.gamma),
            "delta": [print_default(d) for d in q.delta],
            "theta": _formula_list_doc(q.theta),
        },
        "transcript": [{"rank": r.rank, "fired": list(r.fired_indices), "kept": r.kept}
                       for r in proof.transcript],
        "extensions": verdicts,
    }


def _constraint(text) -> SignedConstraint:
    parsed = parse_constraints(_typed(text, str, "skeptical"))
    if len(parsed) != 1:
        raise ValueError("malformed constraint entry")
    return parsed[0]


def _indices(doc: dict, n: int) -> tuple[int, ...]:
    """``doc["fired"]``: indices of defaults, each below ``n``."""
    indices = tuple(_list(doc, "fired", int, "skeptical"))
    if not all(0 <= i < n for i in indices):
        raise ValueError("malformed skeptical certificate")
    return indices


def skeptical_proof_from_doc(doc) -> SkepticalProof:
    """ValueError for a missing or mistyped field or a default index out of
    range, and ParseError for a bad formula, default or constraint text; a
    well-typed but wrong certificate is read and left to the checker."""
    if not isinstance(doc, dict) or doc.get("kind") != "skeptical":
        raise ValueError("malformed skeptical certificate")
    qd = _typed(doc.get("query"), dict, "skeptical")
    delta = tuple(parse_default(t) for t in _list(qd, "delta", str, "skeptical"))
    query = SkepticalSequent(
        frozenset(map(_constraint, _list(qd, "constraints", str, "skeptical"))),
        _formulas(qd, "gamma", "skeptical"), delta, _formulas(qd, "theta", "skeptical"))
    transcript = tuple(CandidateRecord(_typed(r.get("rank"), int, "skeptical"),
                                       _indices(r, len(delta)),
                                       _typed(r.get("kept"), bool, "skeptical"))
                       for r in _list(doc, "transcript", dict, "skeptical"))
    verdicts = []
    for vd in _list(doc, "extensions", dict, "skeptical"):
        fired = tuple(delta[i] for i in _indices(vd, len(delta)))
        evidence = tuple(ConstraintEvidence(
            _constraint(ed.get("constraint")),
            _typed(ed.get("satisfied"), bool, "skeptical"),
            proof=proof_from_doc(ed["proof"]) if "proof" in ed else None,
            refutation=refutation_from_doc(ed["refutation"]) if "refutation" in ed else None,
        ) for ed in _list(vd, "constraints", dict, "skeptical"))
        verdicts.append(ExtensionVerdict(
            ExtensionBasis(_formulas(vd, "basis", "skeptical"), fired),
            evidence,
            _typed(vd.get("satisfies_constraints"), bool, "skeptical"),
            goal=_read_formula(_typed(vd["goal"], str, "skeptical")) if "goal" in vd else None,
            goal_proof=proof_from_doc(vd["goal_proof"]) if "goal_proof" in vd else None,
        ))
    return SkepticalProof(query, transcript, tuple(verdicts))
