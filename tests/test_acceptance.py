"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and asserts zero discrepancies at its stated budget.  Heavy artifacts (the
depth-2 corpus runs and the 64-theory sweep) are built once per session and
shared across criteria.
"""

from __future__ import annotations

import hashlib
import json
import random
from time import perf_counter
from types import SimpleNamespace

import pytest

import oracles
from conftest import query_pool
from mutation import brave_mutants, proof_mutants, refutation_mutants, skeptical_mutants
from luk3.antisequent import AntiSequent3, check_refutation, refutation_to_doc, refute
from luk3.defaults import (
    BraveSequent,
    SignedConstraint,
    SkepticalSequent,
    brave_prove,
    brave_translation,
    check_brave_proof,
    check_skeptical_proof,
    extensions,
    skeptical_decide,
)
from luk3.semantics import enumerate_interpretations, evaluate, tt_sequent_valid
from luk3.sequent import check_proof, failure_countermodel, proof_to_doc, prove
from luk3.syntax import Atom, Cert, DefaultTheory, Impl, Not, Poss, atoms, parse_theory, print_formula

SEED = 20260809


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})")


#: Criterion 7's audit: genuine certificates, and single-node mutants, all rejected.
AUDITED_CERTIFICATES = 1930
AUDITED_MUTANTS = 20041

#: The corpus's certificates and countermodels, pinned: SHA-256 over the
#: canonical JSON of every proof and refutation document and the text of
#: every failed proof's countermodel, and the distinct nodes of the proofs.
CORPUS_ANSWERS_SHA256 = "4a3bcfed3b4a34921ea27f34b2c2478c501a76ad192411e996d30ca15ad42ab8"
CORPUS_PROOF_NODES = 5276


@pytest.fixture(scope="session")
def calculus_runs(corpus):
    t0 = perf_counter()
    proofs = [(s, prove(s)) for s in corpus]
    prove_seconds = perf_counter() - t0
    t0 = perf_counter()
    refutations = [(AntiSequent3(*s.components), refute(AntiSequent3(*s.components)))
                   for s in corpus]
    refute_seconds = perf_counter() - t0
    t0 = perf_counter()
    oracle = [bool(tt_sequent_valid(s)) for s in corpus]
    oracle_seconds = perf_counter() - t0
    return SimpleNamespace(proofs=proofs, refutations=refutations, oracle=oracle,
                           prove_seconds=prove_seconds, refute_seconds=refute_seconds,
                           oracle_seconds=oracle_seconds)


@pytest.fixture(scope="session")
def sweep(family):
    pool = query_pool()
    rng = random.Random(SEED)
    brave_queries = []
    for k in range(200):
        t = family[k % len(family)]
        sigma = frozenset(rng.sample(pool, rng.randint(0, 2)))
        theta = frozenset(rng.sample(pool, rng.randint(0, 2)))
        brave_queries.append(BraveSequent(t.facts, t.defaults, sigma, theta))
    skeptical_queries = []
    for k in range(200):
        t = family[k % len(family)]
        constraints = frozenset(SignedConstraint(rng.random() < 0.5, f)
                                for f in rng.sample(pool, rng.randint(0, 2)))
        theta = frozenset(rng.sample(pool, rng.randint(0, 2)))
        skeptical_queries.append(SkepticalSequent(constraints, t.facts, t.defaults, theta))
    t0 = perf_counter()
    brave_results = [brave_prove(q) for q in brave_queries]
    skeptical_results = [skeptical_decide(q) for q in skeptical_queries]
    engine_seconds = perf_counter() - t0
    return SimpleNamespace(brave_queries=brave_queries, brave_results=brave_results,
                           skeptical_queries=skeptical_queries,
                           skeptical_results=skeptical_results,
                           engine_seconds=engine_seconds)


def test_criterion_1_calculus_oracle_equivalence(corpus, calculus_runs):
    discrepancies = sum(bool(proof) != verdict
                        for (_, proof), verdict in zip(calculus_runs.proofs, calculus_runs.oracle))
    seconds = calculus_runs.prove_seconds + calculus_runs.oracle_seconds
    ok = discrepancies == 0 and seconds < 60.0
    report(1, "calculus-oracle equivalence", ok,
           f"{len(corpus)} sequents, {discrepancies} discrepancies, {seconds:.1f}s")
    assert discrepancies == 0
    assert seconds < 60.0


def test_criterion_2_complementarity(corpus, calculus_runs):
    overlap = gap = 0
    for (_, proof), (_, refutation) in zip(calculus_runs.proofs, calculus_runs.refutations):
        if bool(proof) and bool(refutation):
            overlap += 1
        if not bool(proof) and not bool(refutation):
            gap += 1
    seconds = calculus_runs.prove_seconds + calculus_runs.refute_seconds
    ok = overlap == 0 and gap == 0 and seconds < 120.0
    report(2, "prove/refute complementarity", ok,
           f"{len(corpus)} instances, overlap {overlap}, gap {gap}, {seconds:.1f}s")
    assert overlap == 0 and gap == 0
    assert seconds < 120.0


def test_criterion_3_modal_definitional_equivalence(pool):
    t0 = perf_counter()
    mismatches = 0
    for f in pool:
        defined_cert = Not(Impl(f, Not(f)))
        defined_poss = Impl(Not(f), f)
        for i in enumerate_interpretations(atoms(f)):
            if evaluate(Cert(f), i) is not evaluate(defined_cert, i):
                mismatches += 1
            if evaluate(Poss(f), i) is not evaluate(defined_poss, i):
                mismatches += 1
    seconds = perf_counter() - t0
    ok = mismatches == 0
    report(3, "modal definitional equivalence", ok,
           f"{len(pool)} formulas, {mismatches} mismatches, {seconds:.1f}s")
    assert mismatches == 0


WORKED_THEORIES = [
    ("fact: a.\ndefault: a : b / b.", [("M b", "a")]),
    ("fact: a.\ndefault: a : b / b.\ndefault: b : c / c.", [("M b", "a")]),
    ("", [()]),
    ("default: c : b / c.", [()]),
    ("fact: a.\ndefault: a : b / b.\ndefault: a : ~b / ~b.",
     [("M b", "a"), ("M ~b", "a")]),
]


def test_criterion_4_extension_fixtures():
    t0 = perf_counter()
    failures = 0
    for text, expected in WORKED_THEORIES:
        theory = parse_theory(text)
        got = [tuple(sorted(print_formula(f) for f in e.basis)) for e in extensions(theory)]
        want = [tuple(sorted(basis)) for basis in expected]
        oracle = [tuple(sorted(print_formula(f) for f in basis))
                  for basis in oracles.extensions(theory)]
        if got != want or oracle != want:
            failures += 1
    seconds = perf_counter() - t0
    ok = failures == 0 and seconds < 10.0
    report(4, "worked extension fixtures", ok,
           f"{len(WORKED_THEORIES)} theories, {failures} failures, {seconds:.1f}s")
    assert failures == 0
    assert seconds < 10.0


def test_criterion_5_family_sweep(sweep):
    t0 = perf_counter()
    brave_disagreements = sum(
        bool(result) != oracles.brave_holds(
            DefaultTheory(q.gamma, q.delta), q.sigma, q.theta)
        for q, result in zip(sweep.brave_queries, sweep.brave_results))
    skeptical_disagreements = sum(
        bool(result) != oracles.skeptical_holds(
            DefaultTheory(q.gamma, q.delta), q.sigma, q.theta)
        for q, result in zip(sweep.skeptical_queries, sweep.skeptical_results))
    seconds = sweep.engine_seconds + (perf_counter() - t0)
    ok = brave_disagreements == 0 and skeptical_disagreements == 0 and seconds < 300.0
    report(5, "family sweep vs extension semantics", ok,
           f"200 brave + 200 skeptical queries, "
           f"{brave_disagreements}+{skeptical_disagreements} discrepancies, {seconds:.1f}s")
    assert brave_disagreements == 0
    assert skeptical_disagreements == 0
    assert seconds < 300.0


def test_criterion_6_groundedness():
    theory = parse_theory("default: c : b / c.")
    query = BraveSequent(theory.facts, theory.defaults,
                         frozenset({Poss(Atom("c"))}), frozenset())
    brave = brave_prove(query)
    exts = extensions(theory)
    ok = (not brave) and len(exts) == 1 and exts[0].basis == frozenset() and exts[0].fired == ()
    report(6, "groundedness guard", ok,
           f"brave derivable={bool(brave)}, extensions={len(exts)}")
    assert not brave
    assert len(exts) == 1 and exts[0].basis == frozenset()


def test_criterion_7_certificate_audit(calculus_runs, sweep):
    t0 = perf_counter()
    audited = rejected_ok = failures = 0
    for s, proof in calculus_runs.proofs:
        if not proof:
            continue
        audited += 1
        if not check_proof(proof, s):
            failures += 1
        for mutant in proof_mutants(proof):
            if check_proof(mutant, s):
                failures += 1
            else:
                rejected_ok += 1
    for a, refutation in calculus_runs.refutations:
        if not refutation:
            continue
        audited += 1
        if not check_refutation(refutation, a):
            failures += 1
        for mutant in refutation_mutants(refutation):
            if check_refutation(mutant, a):
                failures += 1
            else:
                rejected_ok += 1
    for result in sweep.brave_results:
        if not result:
            continue
        audited += 1
        if not check_brave_proof(result):
            failures += 1
        for mutant in brave_mutants(result):
            if check_brave_proof(mutant):
                failures += 1
            else:
                rejected_ok += 1
    for result in sweep.skeptical_results:
        if not result:
            continue
        audited += 1
        if not check_skeptical_proof(result):
            failures += 1
        for mutant in skeptical_mutants(result):
            if check_skeptical_proof(mutant):
                failures += 1
            else:
                rejected_ok += 1
    seconds = perf_counter() - t0
    # the exact counts: a mutator or corpus change that shrinks the audit fails here
    ok = failures == 0 and (audited, rejected_ok) == (AUDITED_CERTIFICATES, AUDITED_MUTANTS)
    report(7, "certificate audit", ok,
           f"{audited} certificates, {rejected_ok} mutants rejected, "
           f"{failures} failures, {seconds:.1f}s")
    assert failures == 0
    assert (audited, rejected_ok) == (AUDITED_CERTIFICATES, AUDITED_MUTANTS)


def _canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _distinct_nodes(tree) -> int:
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.premises)
    return len(seen)


def test_corpus_answers_are_pinned(calculus_runs):
    # every proof tree, failure countermodel and refutation chain of the
    # corpus stays byte-identical, and the proofs keep their size
    digest = hashlib.sha256()
    nodes = 0
    for s, proof in calculus_runs.proofs:
        if proof:
            digest.update(_canonical(proof_to_doc(proof)).encode() + b"\n")
            nodes += _distinct_nodes(proof)
        else:
            digest.update(failure_countermodel(proof, s).to_text().encode() + b"\n")
    for _, refutation in calculus_runs.refutations:
        if refutation:
            digest.update(_canonical(refutation_to_doc(refutation)).encode() + b"\n")
    assert (digest.hexdigest(), nodes) == (CORPUS_ANSWERS_SHA256, CORPUS_PROOF_NODES)


def test_criterion_8_skeptical_brave_duality(sweep):
    t0 = perf_counter()
    disagreements = sum(
        bool(result) != (not brave_prove(brave_translation(q)))
        for q, result in zip(sweep.skeptical_queries, sweep.skeptical_results))
    seconds = perf_counter() - t0
    ok = disagreements == 0
    report(8, "skeptical/brave duality", ok,
           f"200 queries, {disagreements} disagreements, {seconds:.1f}s")
    assert disagreements == 0


def test_extension_existence_report(family):
    """Informational only: extension existence over the sweep family.

    All family defaults are normal-shaped (the justification matches the
    consequent), and no guarantee is asserted; theories outside this family
    can lack extensions (for instance facts {a} with default a : ~b / L b).
    """
    without = [t for t in family if not extensions(t)]
    print(f"[report] extension existence over the 64-theory family: "
          f"{len(family) - len(without)}/{len(family)} have at least one extension")
    assert len(without) + (len(family) - len(without)) == len(family)
