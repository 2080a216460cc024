"""Certificate mutators: every yielded mutant corrupts exactly one node in a
way the independent checkers are required to reject."""

from __future__ import annotations

from typing import Iterator

from luk3.antisequent import RefutationTree
from luk3.defaults import BLOCKED_PREREQ, FIRED, BraveProof, Disposition, SkepticalProof
from luk3.sequent import ProofTree
from luk3.syntax import Atom

_MUT = Atom("zz_mut")


def _bump(triple):
    return triple.with_component(1, triple.component(1) | {_MUT})


def proof_mutants(tree: ProofTree) -> Iterator[ProofTree]:
    """Mutants bumping one node's conclusion with a fresh atom.

    Proof search memoises, so equal subtrees are shared objects; a deep
    mutation is re-tested only along the first path to its subtree (rejection
    happens at the mutated node's immediate parent, which is path-independent),
    while the subtree's own root bump is emitted for every distinct edge.
    """
    seen: set[int] = set()

    def walk(node: ProofTree, descend: bool) -> Iterator[ProofTree]:
        yield ProofTree(_bump(node.conclusion), node.rule, node.premises)
        if not descend:
            return
        for i, p in enumerate(node.premises):
            first = id(p) not in seen
            seen.add(id(p))
            for m in walk(p, first):
                yield ProofTree(node.conclusion, node.rule,
                                node.premises[:i] + (m,) + node.premises[i + 1:])

    yield from walk(tree, True)


def refutation_mutants(tree: RefutationTree) -> Iterator[RefutationTree]:
    yield tree._replace(conclusion=_bump(tree.conclusion))
    if tree.premise is not None:
        for m in refutation_mutants(tree.premise):
            yield tree._replace(premise=m)


def brave_mutants(proof: BraveProof) -> Iterator[BraveProof]:
    for i, step in enumerate(proof.steps):
        flipped_kind = BLOCKED_PREREQ if step.kind == FIRED else FIRED
        flipped = Disposition(step.default, flipped_kind,
                              justification_index=None,
                              groundedness=step.groundedness)
        yield proof._replace(steps=proof.steps[:i] + (flipped,) + proof.steps[i + 1:])
        yield proof._replace(steps=proof.steps[:i] + proof.steps[i + 1:])  # dropped step
        if step.groundedness is not None:
            for m in proof_mutants(step.groundedness):
                mutated = step._replace(groundedness=m)
                yield proof._replace(steps=proof.steps[:i] + (mutated,) + proof.steps[i + 1:])
    yield proof._replace(final_basis=proof.final_basis | {_MUT})
    for i, (f, t) in enumerate(proof.sigma_proofs):
        yield proof._replace(sigma_proofs=proof.sigma_proofs[:i] + ((_MUT, t),)
                             + proof.sigma_proofs[i + 1:])
        for m in proof_mutants(t):
            yield proof._replace(sigma_proofs=proof.sigma_proofs[:i] + ((f, m),)
                                 + proof.sigma_proofs[i + 1:])
    for i, (f, r) in enumerate(proof.theta_refutations):
        yield proof._replace(theta_refutations=proof.theta_refutations[:i] + ((_MUT, r),)
                             + proof.theta_refutations[i + 1:])
        for m in refutation_mutants(r):
            yield proof._replace(theta_refutations=proof.theta_refutations[:i] + ((f, m),)
                                 + proof.theta_refutations[i + 1:])


def skeptical_mutants(proof: SkepticalProof) -> Iterator[SkepticalProof]:
    for i, record in enumerate(proof.transcript):
        flipped = record._replace(kept=not record.kept)
        yield proof._replace(transcript=proof.transcript[:i] + (flipped,)
                             + proof.transcript[i + 1:])
    for i, verdict in enumerate(proof.verdicts):
        def swap(v):
            return proof._replace(verdicts=proof.verdicts[:i] + (v,) + proof.verdicts[i + 1:])

        bumped = verdict._replace(extension=verdict.extension._replace(
            basis=verdict.extension.basis | {_MUT}))
        yield swap(bumped)
        fired = verdict.extension.fired
        if len(fired) >= 2:  # the firing order alone
            yield swap(verdict._replace(extension=verdict.extension._replace(fired=fired[::-1])))
        yield swap(verdict._replace(satisfies_constraints=not verdict.satisfies_constraints))
        for j, ev in enumerate(verdict.evidence):
            yield swap(verdict._replace(evidence=verdict.evidence[:j]
                                        + (ev._replace(satisfied=not ev.satisfied),)
                                        + verdict.evidence[j + 1:]))
            if ev.proof is not None:
                for m in proof_mutants(ev.proof):
                    yield swap(verdict._replace(evidence=verdict.evidence[:j]
                                                + (ev._replace(proof=m),)
                                                + verdict.evidence[j + 1:]))
            if ev.refutation is not None:
                for m in refutation_mutants(ev.refutation):
                    yield swap(verdict._replace(evidence=verdict.evidence[:j]
                                                + (ev._replace(refutation=m),)
                                                + verdict.evidence[j + 1:]))
        if verdict.goal is not None:
            yield swap(verdict._replace(goal=_MUT))
            for m in proof_mutants(verdict.goal_proof):
                yield swap(verdict._replace(goal_proof=m))
