from __future__ import annotations

import json
import random
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import luk3.defaults
import luk3.semantics
import luk3.syntax
import oracles
from mutation import brave_mutants, skeptical_mutants
from conftest import formulas_strategy, query_pool
from luk3.defaults import (
    BLOCKED_JUST,
    BLOCKED_PREREQ,
    FIRED,
    BraveFailure,
    BraveProof,
    BraveSequent,
    CandidateRecord,
    Disposition,
    ExtensionBasis,
    SearchLimitError,
    SignedConstraint,
    SkepticalFailure,
    SkepticalProof,
    SkepticalSequent,
    brave_proof_from_doc,
    brave_proof_to_doc,
    brave_prove,
    brave_translation,
    check_brave_proof,
    check_skeptical_proof,
    closure_equivalent,
    constraint_satisfied,
    extensions,
    gamma,
    is_extension,
    member,
    parse_constraints,
    print_constraint,
    skeptical_decide,
    skeptical_proof_from_doc,
    skeptical_proof_to_doc,
)
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
    parse_formula,
    parse_theory,
)
from luk3.antisequent import AntiSequent3, check_refutation
from luk3.sequent import Sequent3, check_proof, entailment_sequent, prove

A, B, C, Z = Atom("a"), Atom("b"), Atom("c"), Atom("z")
MB = Poss(B)


def theory(text: str) -> DefaultTheory:
    return parse_theory(text)


T_SIMPLE = theory("fact: a.\ndefault: a : b / b.")
T_CHAIN = theory("fact: a.\ndefault: a : b / b.\ndefault: b : c / c.")
T_EMPTY = theory("")
T_GROUND = theory("default: c : b / c.")
T_FORK = theory("fact: a.\ndefault: a : b / b.\ndefault: a : ~b / ~b.")


class TestGamma:
    def test_fires_against_empty_context(self):
        result = gamma(T_SIMPLE, ExtensionBasis(frozenset()))
        assert result.basis == frozenset({A, MB})
        assert result.fired == T_SIMPLE.defaults

    def test_blocked_by_context(self):
        result = gamma(T_SIMPLE, ExtensionBasis(frozenset({Not(B)})))
        assert result.basis == frozenset({A})
        assert result.fired == ()

    def test_ungrounded_prerequisite_never_fires(self):
        for context in (frozenset(), frozenset({Poss(C)}), frozenset({C})):
            result = gamma(T_GROUND, ExtensionBasis(context))
            assert result.basis == frozenset()

    def test_matches_oracle_staging_on_family(self, family):
        for t in family:
            for rank in range(1 << len(t.defaults)):
                subset = tuple(d for i, d in enumerate(t.defaults) if rank >> i & 1)
                context = frozenset(t.facts) | {Poss(d.consequent) for d in subset}
                engine = gamma(t, ExtensionBasis(context, subset))
                fired, basis = oracles.gamma_fired(t, context)
                assert list(engine.fired) == fired
                assert oracles.equivalent(engine.basis, basis)


class TestIsExtension:
    def test_accepts_fixed_point(self):
        assert is_extension(T_SIMPLE, ExtensionBasis(frozenset({A, MB})))

    def test_rejects_incomplete(self):
        assert not is_extension(T_SIMPLE, ExtensionBasis(frozenset({A})))

    def test_rejects_self_supporting(self):
        assert not is_extension(T_GROUND, ExtensionBasis(frozenset({Poss(C)})))


class TestExtensions:
    def test_single_extension(self):
        (e,) = extensions(T_SIMPLE)
        assert e.basis == frozenset({A, MB})
        assert e.fired == T_SIMPLE.defaults

    def test_chaining_blocked(self):
        (e,) = extensions(T_CHAIN)
        assert e.basis == frozenset({A, MB})

    def test_empty_theory_single_trivial_extension(self):
        (e,) = extensions(T_EMPTY)
        assert e.basis == frozenset()

    def test_groundedness(self):
        (e,) = extensions(T_GROUND)
        assert e.basis == frozenset()
        assert e.fired == ()

    def test_two_extensions(self):
        e1, e2 = extensions(T_FORK)
        assert e1.basis == frozenset({A, MB})
        assert e2.basis == frozenset({A, Poss(Not(B))})

    def test_zero_extension_theory(self):
        # firing adds M L b, forcing b = t, which refutes the justification
        # ~b; not firing is no fixed point either, so nothing survives
        t = theory("fact: a.\ndefault: a : ~b / L b.")
        assert extensions(t) == ()
        assert oracles.extensions(t) == []

    def test_inconsistent_facts_single_trivial_extension(self):
        t = theory("fact: L (a & ~a).\ndefault: a : b / b.")
        (e,) = extensions(t)
        assert e.fired == ()
        assert e.basis == t.facts

    def test_candidate_is_extension_iff_equivalent_to_returned(self, family):
        for t in family:
            kept = extensions(t)
            for rank in range(1 << len(t.defaults)):
                subset = tuple(d for i, d in enumerate(t.defaults) if rank >> i & 1)
                cand = ExtensionBasis(
                    frozenset(t.facts) | {Poss(d.consequent) for d in subset}, subset)
                covered = any(closure_equivalent(cand.basis, e.basis) for e in kept)
                assert is_extension(t, cand) == covered

    def test_agrees_with_oracle_on_family(self, family):
        for t in family:
            engine = [e.basis for e in extensions(t)]
            oracle = oracles.extensions(t)
            assert len(engine) == len(oracle)
            for eb, ob in zip(engine, oracle):
                assert oracles.equivalent(eb, ob)


def test_gamma_is_antitone_on_closures(family):
    for t in family[::7]:
        contexts = [frozenset(t.facts) | {Poss(d.consequent) for d in sub}
                    for sub in [(), t.defaults[:1], t.defaults]]
        for small in contexts:
            for large in contexts:
                if all(oracles.entailed(large, f) for f in small):
                    g_small = gamma(t, ExtensionBasis(small)).basis
                    g_large = gamma(t, ExtensionBasis(large)).basis
                    assert all(oracles.entailed(g_small, f) for f in g_large)


class TestRouting:
    """Decisions go through proof search; refutations are built only for
    certificates that are emitted."""

    @pytest.fixture
    def no_refutations(self, monkeypatch):
        import luk3.defaults

        def forbidden(basis, goal):
            raise AssertionError("refutation built for a decision")

        monkeypatch.setattr(luk3.defaults, "_refutation", forbidden)

    def test_extensions_and_gamma_build_none(self, family, no_refutations):
        for t in family:
            for e in extensions(t):
                gamma(t, e)

    def test_failed_brave_end_check_builds_none(self, no_refutations):
        # M b needs the first default fired, and the fact a always violates Theta
        q = BraveSequent(T_FORK.facts, T_FORK.defaults, frozenset({MB}), frozenset({A}))
        assert isinstance(brave_prove(q), BraveFailure)
        assert not oracles.brave_holds(T_FORK, q.sigma, q.theta)


class TestMember:
    def test_basis_formula(self):
        e = ExtensionBasis(frozenset({A, MB}))
        assert member(e, MB)

    def test_possibility_does_not_give_fact(self):
        e = ExtensionBasis(frozenset({A, MB}))
        assert not member(e, B)

    def test_tautology_in_empty_closure(self):
        assert member(ExtensionBasis(frozenset()), parse_formula("p -> p"))


class TestBrave:
    def test_spec_fixture_derivable(self):
        q = BraveSequent(T_SIMPLE.facts, T_SIMPLE.defaults,
                         frozenset({MB}), frozenset({B}))
        proof = brave_prove(q)
        assert isinstance(proof, BraveProof)
        assert proof.final_basis == frozenset({A, MB})
        assert check_brave_proof(proof)

    def test_groundedness_blocks_self_support(self):
        q = BraveSequent(T_GROUND.facts, T_GROUND.defaults,
                         frozenset({Poss(C)}), frozenset())
        result = brave_prove(q)
        assert isinstance(result, BraveFailure)
        assert not result

    def test_empty_query_succeeds(self):
        proof = brave_prove(BraveSequent(frozenset(), (), frozenset(), frozenset()))
        assert proof and not proof.steps
        assert check_brave_proof(proof)

    def test_formula_in_sigma_and_theta_fails(self):
        q = BraveSequent(frozenset({A}), (), frozenset({A}), frozenset({A}))
        assert not brave_prove(q)

    def test_fire_order_explored(self):
        # the second default only becomes applicable after the first fires
        t = theory("fact: a.\ndefault: a : b / b.\ndefault: M b : c / c.")
        q = BraveSequent(t.facts, t.defaults, frozenset({Poss(C)}), frozenset())
        proof = brave_prove(q)
        assert proof and check_brave_proof(proof)

    def test_repeated_default_rejected(self):
        q = BraveSequent(T_SIMPLE.facts, T_SIMPLE.defaults * 2, frozenset({MB}), frozenset())
        with pytest.raises(ValueError):
            brave_prove(q)

    def test_checker_rejects_repeated_default(self):
        # a certificate for a : b / b that fires the default twice
        proof = brave_prove(BraveSequent(T_SIMPLE.facts, T_SIMPLE.defaults,
                                         frozenset({MB}), frozenset()))
        (d,) = T_SIMPLE.defaults
        again = Disposition(d, FIRED, groundedness=prove(entailment_sequent(proof.final_basis, A)))
        twice = proof._replace(query=proof.query._replace(delta=(d, d)),
                               steps=proof.steps + (again,))
        assert check_brave_proof(proof)
        assert not check_brave_proof(twice)
        assert not check_brave_proof(brave_proof_from_doc(json.loads(json.dumps(
            brave_proof_to_doc(twice)))))

    def test_checker_requires_each_obligation_once_in_canonical_order(self):
        proof = brave_prove(BraveSequent(T_FORK.facts, T_FORK.defaults,
                                         frozenset({MB}), frozenset({B})))
        sigma, theta = proof.sigma_proofs, proof.theta_refutations
        assert len(sigma) >= 2 and len(theta) >= 2
        variants = [proof._replace(sigma_proofs=sigma + sigma[:1]),
                    proof._replace(theta_refutations=theta + theta[:1]),
                    proof._replace(sigma_proofs=(sigma[1], sigma[0]) + sigma[2:]),
                    proof._replace(theta_refutations=(theta[1], theta[0]) + theta[2:])]
        assert check_brave_proof(proof)
        for variant in variants:
            assert not check_brave_proof(variant)
            assert not check_brave_proof(brave_proof_from_doc(json.loads(json.dumps(
                brave_proof_to_doc(variant)))))

    def test_deterministic(self):
        q = BraveSequent(T_FORK.facts, T_FORK.defaults, frozenset({MB}), frozenset())
        assert brave_prove(q) == brave_prove(q)


class TestConstraints:
    def test_parse_signs(self):
        cs = parse_constraints("+M b, -b, a")
        assert cs == (SignedConstraint(True, MB), SignedConstraint(False, B),
                      SignedConstraint(True, A))

    def test_print_round_trip(self):
        for c in parse_constraints("+a, -M b"):
            assert parse_constraints(print_constraint(c)) == (c,)

    def test_empty(self):
        assert parse_constraints("") == ()

    def test_satisfaction(self):
        e = ExtensionBasis(frozenset({A, MB}))
        assert constraint_satisfied(e, SignedConstraint(True, MB))
        assert constraint_satisfied(e, SignedConstraint(False, B))
        assert not constraint_satisfied(ExtensionBasis(frozenset()), SignedConstraint(True, A))


class TestSkeptical:
    def test_disjunction_across_extensions(self):
        q = SkepticalSequent(frozenset(), T_FORK.facts, T_FORK.defaults,
                             frozenset({parse_formula("M b | M ~b")}))
        proof = skeptical_decide(q)
        assert isinstance(proof, SkepticalProof)
        assert check_skeptical_proof(proof)

    def test_constraint_filters_extensions(self):
        q = SkepticalSequent(frozenset(parse_constraints("+M b")),
                             T_FORK.facts, T_FORK.defaults, frozenset({MB}))
        proof = skeptical_decide(q)
        assert proof and check_skeptical_proof(proof)

    def test_empty_theta_fails_with_counterexample(self):
        q = SkepticalSequent(frozenset(), frozenset(), (), frozenset())
        result = skeptical_decide(q)
        assert isinstance(result, SkepticalFailure)
        assert result.counterexample is not None
        assert result.counterexample.basis == frozenset()

    def test_failure_counterexample_is_extension(self):
        q = SkepticalSequent(frozenset(), T_FORK.facts, T_FORK.defaults,
                             frozenset({B}))
        result = skeptical_decide(q)
        assert not result
        assert is_extension(T_FORK, result.counterexample)


def count_leaf_groundings(monkeypatch) -> list:
    """A list that grows by one at each leaf grounding of the search."""
    calls = []
    real = luk3.defaults._ground
    monkeypatch.setattr(luk3.defaults, "_ground", lambda *args: calls.append(1) or real(*args))
    return calls


def assert_transcript_is_the_oracles(proof: SkepticalProof, t: DefaultTheory) -> None:
    """The transcript lists, in rank order, exactly the ranks that an
    unpruned sweep of the firing operator keeps, each kept and with the
    indices of its defaults."""
    assert all(r.kept for r in proof.transcript)
    ranks = [r for r, kept in enumerate(oracles.kept_flags(t)) if kept]
    assert [r.rank for r in proof.transcript] == ranks
    assert [r.fired_indices for r in proof.transcript] == [
        tuple(i for i in range(len(t.defaults)) if r >> i & 1) for r in ranks]


def chain(n_defaults: int) -> DefaultTheory:
    """Fact a0, the chain a_i : a_{i+1} / a_{i+1} and the fork a0 : z / z,
    a0 : ~z / ~z; ``n_defaults`` counts the fork's two defaults."""
    a = [Atom(f"a{i}") for i in range(n_defaults - 1)]
    defaults = [Default(a[i], (a[i + 1],), a[i + 1]) for i in range(n_defaults - 2)]
    defaults += [Default(a[0], (Z,), Z), Default(a[0], (Not(Z),), Not(Z))]
    return DefaultTheory(frozenset({a[0]}), tuple(defaults))


class TestChain:
    """Only the chain's first default and the fork ever fire, so the search
    stays cheap however long the chain grows."""

    def test_underivable_brave_within_default_budget(self):
        t = chain(12)
        result = brave_prove(BraveSequent(t.facts, t.defaults, frozenset({Z}), frozenset()))
        assert isinstance(result, BraveFailure)
        # two leaves, one per side of the fork, each beside 10 cuts (the
        # chain's defaults 1 to 9 IN, its default 0 OUT), and the cuts with
        # both fork defaults OUT and both IN: 24 states of the 2^12 ranks
        assert result.states == 24

    def test_derivable_brave_certificate(self):
        t = chain(12)
        q = BraveSequent(t.facts, t.defaults, frozenset({Poss(Z), Poss(Atom("a1"))}),
                         frozenset({Poss(Not(Z))}))
        proof = brave_prove(q)
        assert isinstance(proof, BraveProof)
        # the two fired defaults first, then the ten blocked ones
        assert [s.kind == FIRED for s in proof.steps] == [True] * 2 + [False] * 10
        assert check_brave_proof(proof)
        assert not any(check_brave_proof(m) for m in brave_mutants(proof))

    def test_two_extensions(self):
        assert len(extensions(chain(12))) == 2

    def test_skeptical_certificate_checks_with_the_engine_sweep(self, monkeypatch):
        t = chain(8)
        q = SkepticalSequent(frozenset(), t.facts, t.defaults, frozenset({Poss(Atom("a1"))}))
        calls = count_leaf_groundings(monkeypatch)
        proof = skeptical_decide(q)
        decided = len(calls)
        assert isinstance(proof, SkepticalProof)
        # the cuts leave one leaf per extension
        assert decided == len(proof.verdicts) == 2
        assert check_skeptical_proof(proof)
        # the checker runs the engine's search, with the same cuts
        assert len(calls) == 2 * decided
        mutants = list(skeptical_mutants(proof))
        # a flip of each of the 2 kept records, 4 mutants of each verdict,
        # and one reordering for each of 2 verdicts firing two
        assert len(mutants) == 12
        assert not any(check_skeptical_proof(m) for m in mutants)

    def test_twelve_default_skeptical_certificate_checks_without_truth_tables(self, monkeypatch):
        t = chain(12)
        proof = skeptical_decide(SkepticalSequent(frozenset(), t.facts, t.defaults,
                                                  frozenset({Poss(Atom("a1"))})))
        assert isinstance(proof, SkepticalProof)
        # truth tables over the 13 atoms would evaluate formulas millions of
        # times; replaying the calculus's evidence takes a few hundred calls
        calls = []
        evaluate = luk3.semantics.evaluate

        def counted(*args):
            calls.append(1)
            assert len(calls) <= 10_000, "the checker re-decides entailment by truth tables"
            return evaluate(*args)

        monkeypatch.setattr(luk3.semantics, "evaluate", counted)
        assert check_skeptical_proof(proof)
        mutants = []
        for i, v in enumerate(proof.verdicts):
            e = v.extension
            assert len(e.fired) == 2
            for mutated in (v._replace(extension=e._replace(fired=e.fired[::-1])),
                            v._replace(extension=e._replace(basis=e.basis | {Atom("zz_mut")})),
                            v._replace(satisfies_constraints=not v.satisfies_constraints)):
                mutants.append(proof._replace(verdicts=proof.verdicts[:i] + (mutated,)
                                              + proof.verdicts[i + 1:]))
        # the chain's first default with either side of the fork is kept, as
        # the oracle finds on shorter chains
        assert proof.transcript == (CandidateRecord(1 | 1 << 10, (0, 10), True),
                                    CandidateRecord(1 | 1 << 11, (0, 11), True))
        for i, record in enumerate(proof.transcript):
            mutants.append(proof._replace(transcript=proof.transcript[:i]
                                          + (record._replace(kept=False),)
                                          + proof.transcript[i + 1:]))
        # a record for a rank the search does not keep, in its rank order
        mutants += [proof._replace(transcript=(CandidateRecord(0, (), True),) + proof.transcript),
                    proof._replace(transcript=proof.transcript
                                   + (CandidateRecord(1 | 3 << 10, (0, 10, 11), True),))]
        # the transcript's order, indices and length are checked as well as its flags
        swapped = proof._replace(transcript=proof.transcript[::-1])
        transcript = list(proof.transcript)
        transcript[0] = transcript[0]._replace(fired_indices=(0,))
        mutants += [swapped, proof._replace(transcript=tuple(transcript)),
                    proof._replace(transcript=proof.transcript[:-1]),
                    proof._replace(transcript=proof.transcript + proof.transcript[-1:])]
        assert not any(check_skeptical_proof(m) for m in mutants)
        assert not check_skeptical_proof(skeptical_proof_from_doc(json.loads(json.dumps(
            skeptical_proof_to_doc(swapped)))))

    def test_skeptical_transcript_agrees_with_oracle(self):
        for n in range(3, 7):
            t = chain(n)
            proof = skeptical_decide(SkepticalSequent(frozenset(), t.facts, t.defaults,
                                                      frozenset({Poss(Atom("a1"))})))
            assert_transcript_is_the_oracles(proof, t)
            assert [r.rank for r in proof.transcript] == [1 | 1 << (n - 2), 1 | 1 << (n - 1)]

    def test_brave_agrees_with_oracle(self):
        a1, a2 = Atom("a1"), Atom("a2")
        pool = [Z, Not(Z), Poss(Z), Poss(Not(Z)), a1, Poss(a1), Poss(a2), Atom("a0")]
        rng = random.Random(17)
        for n in range(3, 8):
            t = chain(n)
            for _ in range(8):
                sigma = frozenset(rng.sample(pool, rng.randint(0, 2)))
                theta = frozenset(rng.sample(pool, rng.randint(0, 2)))
                result = brave_prove(BraveSequent(t.facts, t.defaults, sigma, theta))
                assert bool(result) == oracles.brave_holds(t, sigma, theta)
                if result:
                    assert check_brave_proof(result)


def test_never_fireable_defaults_are_rejected_unswept():
    # c is never entailed, and the facts alone entail ~~a, blocking a : ~a / d
    t = theory("fact: a.\ndefault: a : b / b.\ndefault: c : b / c.\ndefault: a : ~a / d.")
    (e,) = extensions(t)
    assert e.fired == t.defaults[:1]
    q = SkepticalSequent(frozenset(), t.facts, t.defaults, frozenset({MB}))
    proof = skeptical_decide(q)
    assert_transcript_is_the_oracles(proof, t)
    assert [r.rank for r in proof.transcript] == [1]
    assert check_skeptical_proof(proof)


def test_sweep_budget_covers_every_query(monkeypatch):
    # 20 forked pairs have 2^20 extensions, so their search exceeds the
    # budget; lowered, it is exceeded within a few leaves
    forked = forked_pairs(20)
    monkeypatch.setattr(luk3.defaults, "DEFAULT_MAX_STATES", 50)
    with pytest.raises(SearchLimitError):
        extensions(forked)
    with pytest.raises(SearchLimitError):
        brave_prove(BraveSequent(forked.facts, forked.defaults, frozenset({MB}), frozenset()))
    with pytest.raises(SearchLimitError):
        skeptical_decide(SkepticalSequent(frozenset(), forked.facts, forked.defaults,
                                          frozenset({A})))


def forked_pairs(n: int) -> DefaultTheory:
    return theory("fact: a.\n" + "".join(f"default: a : z{i} / z{i}.\ndefault: a : ~z{i} / ~z{i}.\n"
                                        for i in range(n)))


def linked_pairs(n: int, valid: bool = True) -> DefaultTheory:
    """``forked_pairs(n)`` plus the valid fact ``(z0 -> z0) | ... |
    (z{n-1} -> z{n-1})``, which shares an atom with every pair.  With
    ``valid=False`` the fact is ``a & (...)``, which the fact ``a`` makes
    redundant but which is not valid, so it stays in every slice."""
    forked = forked_pairs(n)
    link = " | ".join(f"(z{i} -> z{i})" for i in range(n))
    link = parse_formula(link if valid else f"a & ({link})")
    return DefaultTheory(forked.facts | {link}, forked.defaults)


def test_linked_pairs_prove_over_the_whole_basis_fast(cold_caches):
    """Every entailment of 4 pairs linked by a fact that is not valid is
    proved over the whole basis.  Decomposing the one-premise formulas
    first keeps those proofs small: the 16 extensions took over 20 s when
    the principal was the least formula by sort key alone."""
    t0 = perf_counter()
    assert len(extensions(linked_pairs(4, valid=False))) == 16
    assert perf_counter() - t0 < 0.5


def test_valid_link_is_dropped_before_slicing(cold_caches):
    """A valid fact is t in every model, so it links no atoms: 8 pairs
    linked by one are decided pair by pair.  Sliced over the whole basis
    they took 5.6 s and left 16,385 entries in ``_proof``."""
    t0 = perf_counter()
    assert len(extensions(linked_pairs(8))) == 256
    assert perf_counter() - t0 < 1
    assert luk3.defaults._proof.cache_info().currsize < 500


def _read_back(proof):
    """The certificate after a round trip through its JSON document."""
    if isinstance(proof, BraveProof):
        return brave_proof_from_doc(json.loads(json.dumps(brave_proof_to_doc(proof))))
    return skeptical_proof_from_doc(json.loads(json.dumps(skeptical_proof_to_doc(proof))))


class TestSlicedEvidence:
    """Certificates carry the proof that decided each entailment, over the
    slice of the basis that shares its atoms; the checkers accept a proof
    whose root weakens to the entailment sequent, and nothing else."""

    def _forked_brave(self) -> BraveProof:
        forked = forked_pairs(3)
        proof = brave_prove(BraveSequent(forked.facts, forked.defaults,
                                         frozenset({Poss(Atom("z0"))}), frozenset()))
        assert proof
        return proof

    def test_forked_pair_proofs_name_one_pair(self):
        proof = self._forked_brave()
        for cert in (proof, _read_back(proof)):
            trees = ([s.groundedness for s in cert.steps if s.groundedness is not None]
                     + [t for _, t in cert.sigma_proofs])
            assert len(trees) > 3
            for tree in trees:
                assert len({n for n in tree.conclusion.atoms() if n.startswith("z")}) <= 1
            assert check_brave_proof(cert)

    def test_swapped_sigma_proofs_rejected(self):
        proof = self._forked_brave()
        (f0, t0), (f1, t1) = proof.sigma_proofs[:2]
        swapped = proof._replace(sigma_proofs=((f0, t1), (f1, t0)) + proof.sigma_proofs[2:])
        for cert in (swapped, _read_back(swapped)):
            assert not check_brave_proof(cert)

    def test_root_outside_the_basis_rejected(self):
        proof = self._forked_brave()
        f, t = proof.sigma_proofs[0]
        # a genuine proof of a sequent that holds a formula the basis lacks
        alien = prove(Sequent3(t.conclusion.gamma1 | {Atom("y")}, t.conclusion.gamma2,
                               t.conclusion.gamma3))
        assert check_proof(alien)
        mutant = proof._replace(sigma_proofs=((f, alien),) + proof.sigma_proofs[1:])
        for cert in (mutant, _read_back(mutant)):
            assert not check_brave_proof(cert)

    def test_unsatisfiable_component_proof_is_canonical(self):
        # two components without an all-t model: the proof is that of the
        # one with the least atom name, whatever the hash seed
        r = Atom("r")
        contradiction = frozenset({A, Not(A)})
        proof = luk3.defaults._entailed(contradiction | {r, Not(r)}, Atom("q"))
        assert proof.conclusion == Sequent3(contradiction, contradiction, frozenset())

    def test_skeptical_goal_is_the_first_entailed(self):
        t = theory("fact: a.\ndefault: a : b / b.")
        proof = skeptical_decide(SkepticalSequent(frozenset(), t.facts, t.defaults,
                                                  frozenset({A, MB})))
        (verdict,) = proof.verdicts
        assert verdict.goal == A
        # M b is entailed too, but a comes first in canonical order
        later = verdict._replace(goal=MB, goal_proof=prove(entailment_sequent(
            verdict.extension.basis, MB)))
        mutant = proof._replace(verdicts=(later,))
        for cert in (proof, _read_back(proof)):
            assert check_skeptical_proof(cert)
        for cert in (mutant, _read_back(mutant)):
            assert not check_skeptical_proof(cert)


def test_refutations_search_no_proof_over_the_whole_basis(monkeypatch, cold_caches):
    """A refutation is read off the failed proofs that decided its
    non-entailment: the one over the goal's slice and the one of ``C | C |
    (empty)`` for each other component.  Each forked pair is one component
    of the final bases, so no sequent the calculus is asked names atoms of
    two pairs: not for the brave Theta refutations, the skeptical
    constraint refutations, or the skeptical checker's replay."""
    asked = []
    real = luk3.defaults.prove
    monkeypatch.setattr(luk3.defaults, "prove", lambda s: asked.append(s) or real(s))
    forked = forked_pairs(3)
    z0, z1 = Atom("z0"), Atom("z1")
    brave = brave_prove(BraveSequent(forked.facts, forked.defaults,
                                     frozenset({Poss(z0)}), frozenset({Poss(Not(z1))})))
    assert brave and brave.theta_refutations
    skeptical = skeptical_decide(SkepticalSequent(frozenset(parse_constraints("-M ~z0")),
                                                  forked.facts, forked.defaults,
                                                  frozenset({Poss(z0)})))
    assert skeptical and any(ev.refutation for v in skeptical.verdicts for ev in v.evidence)
    for c in vars(luk3.defaults).values():
        if hasattr(c, "cache_clear"):
            c.cache_clear()
    assert check_skeptical_proof(skeptical)
    assert asked
    for s in asked:
        assert len({n for n in s.atoms() if n.startswith("z")}) <= 1


def test_search_meets_the_wide_theory_targets(monkeypatch, cold_caches):
    """16 independent defaults give their one extension in at most 17 leaf
    groundings, not 2^16; 8 and 10 forked pairs keep all 2^8 and 2^10
    extensions.  The search's states (leaves plus cuts) are pinned on these
    and on the 16-default chain.  From cold caches, the 10 pairs prove only
    a few hundred distinct entailments: each is decided over the pair that
    shares its atoms, not over the whole basis."""
    forked = forked_pairs(10)
    assert len(extensions(forked)) == 1024
    search = luk3.defaults._Search(forked)
    assert len(list(search)) == 1024
    assert search.states == 3070
    assert luk3.defaults._proof.cache_info().currsize <= 300
    calls = count_leaf_groundings(monkeypatch)
    wide = theory("fact: a.\n" + "".join(f"default: a : b{i} / b{i}.\n" for i in range(16)))
    (e,) = extensions(wide)
    assert e.fired == wide.defaults
    assert 1 <= len(calls) <= 17
    search = luk3.defaults._Search(wide)
    assert len(list(search)) == 1
    # one leaf, and one cut beside each default decided OUT
    assert search.states == 17
    forked = forked_pairs(8)
    assert len(extensions(forked)) == 256
    search = luk3.defaults._Search(forked)
    assert len(list(search)) == 256
    assert search.states == 766
    search = luk3.defaults._Search(chain(16))
    assert len(list(search)) == 2
    assert search.states == 32


SMALL_FORMULAS = {g: formulas_strategy(g, max_leaves=4) for g in ("p", "pq", "r", "rs", "s", "u")}


@st.composite
def sliced_entailments(draw):
    """A basis of formulas over 2 or 3 disjoint atom groups and a goal over
    one group, over two, or over an atom the basis does not hold."""
    groups = [SMALL_FORMULAS[g]
              for g in draw(st.sampled_from([("pq", "r"), ("p", "rs"), ("pq", "r", "s")]))]
    basis = frozenset(draw(st.lists(st.one_of(groups), max_size=4)))
    two = st.builds(lambda op, f, g: op(f, g), st.sampled_from([And, Or, Impl]), *groups[:2])
    return basis, draw(st.one_of(*groups, two, SMALL_FORMULAS["u"]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sliced_entailments())
@example((frozenset(), parse_formula("p -> p")))
@example((frozenset(), parse_formula("p | ~p")))
@example((frozenset({parse_formula("p & q")}), parse_formula("u -> u")))
@example((frozenset({parse_formula("p & q")}), parse_formula("M u")))
# a component without an all-t model entails every goal, though it shares
# no atom with it
@example((frozenset({parse_formula("p"), parse_formula("r"), parse_formula("~r")}),
          parse_formula("q")))
@example((frozenset({parse_formula("p | q"), parse_formula("L s & ~s")}), parse_formula("~p")))
def test_sliced_entailment_agrees_with_truth_tables(drawn):
    basis, f = drawn
    decided = luk3.defaults._entailed(basis, f)
    assert (bool(decided) == oracles.entailed(basis, f)
            == bool(prove(entailment_sequent(basis, f))))
    # a proof over the slice checks, and its root is, component by
    # component, a subset of the entailment sequent, which weakening proves
    if decided:
        assert check_proof(decided)
        assert all(map(frozenset.issubset, decided.conclusion, entailment_sequent(basis, f)))


PAIR_FORMULAS = {(f"x{i}", f"x{j}"): formulas_strategy((f"x{i}", f"x{j}"), max_leaves=4)
                 for i in range(8) for j in range(i, 8)}


@st.composite
def non_entailments(draw):
    """A basis of 1 to 6 formulas over 6 to 8 atoms, each formula over one
    or two of them, sometimes with a valid formula, and a goal it does not
    entail, over the same atoms or over one the basis does not hold."""
    n = draw(st.integers(6, 8))
    groups = st.sampled_from([g for g in PAIR_FORMULAS if int(g[1][1:]) < n])
    basis = [draw(PAIR_FORMULAS[draw(groups)]) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        x = Atom(f"x{draw(st.integers(0, n - 1))}")
        basis.append(Impl(x, x))
    goal = draw(PAIR_FORMULAS[draw(groups)] if draw(st.booleans()) else SMALL_FORMULAS["u"])
    assume(not luk3.defaults._entailed(frozenset(basis), goal))
    return frozenset(basis), goal


@settings(derandomize=True, max_examples=200, deadline=None)
@given(non_entailments())
@example((frozenset({parse_formula("x0 -> x0"), parse_formula("x1 & x2"),
                     parse_formula("M x3")}), parse_formula("u")))
@example((frozenset({parse_formula("(x0 -> x0) | (x1 -> x1)"), parse_formula("x0 | ~x1"),
                     parse_formula("L x2"), parse_formula("x3 -> ~x4")}),
          parse_formula("x1 & x5")))
def test_refutation_from_the_deciding_failures_checks(drawn):
    basis, f = drawn
    assert check_refutation(luk3.defaults._refutation(basis, f),
                            AntiSequent3.of(basis, basis, (f,)))


@st.composite
def non_normal_queries(draw):
    """A theory of at most 4 defaults over 2 or 3 atoms, with several
    justifications, L/M consequents and closure-equivalent consequents
    (b, b & b, ~~b, b | b), plus brave and skeptical query sets.  Half the
    defaults come from shapes that fork or defeat themselves, since random
    defaults seldom conflict."""
    atoms = [Atom(n) for n in draw(st.sampled_from(["ab", "abc"]))]
    a, b, c = atoms[0], atoms[1], atoms[-1]
    literals = atoms + [Not(x) for x in atoms]
    formulas = st.sampled_from(literals + [Poss(b), Cert(a), Impl(a, b), Or(b, c)])
    prereqs = st.sampled_from([Impl(a, a), a, Poss(a), Poss(b)])
    consequents = st.sampled_from([a, b, Not(a), Not(b), And(b, b), Not(Not(b)), Or(b, b),
                                   Poss(b), Poss(Poss(b)), Cert(b), Cert(Not(a)), c])
    shapes = st.sampled_from([
        Default(a, (b,), b), Default(Impl(a, a), (Not(b),), Not(b)),  # a fork
        Default(a, (Not(b),), Cert(b)),  # fires and defeats itself
        Default(Impl(a, a), (b, c), And(b, b)), Default(Poss(a), (b,), Not(Not(b))),
        Default(Poss(b), (c, Not(a)), Poss(c)), Default(Impl(a, a), (Not(c),), Not(c)),
    ])
    defaults = []
    for _ in range(draw(st.integers(1, 4))):
        d = draw(shapes) if draw(st.booleans()) else Default(
            draw(prereqs), tuple(draw(st.lists(formulas, min_size=1, max_size=3, unique=True))),
            draw(consequents))
        if d not in defaults:
            defaults.append(d)
    t = DefaultTheory(draw(st.frozensets(st.sampled_from([a, Poss(a), Cert(a), Not(b), c]),
                                         max_size=2)),
                      tuple(defaults))
    queries = st.frozensets(st.sampled_from(literals + [Poss(b), Cert(b), Impl(a, b)]), max_size=2)
    constraints = st.frozensets(st.builds(SignedConstraint, st.booleans(), formulas), max_size=2)
    return t, draw(queries), draw(queries), draw(constraints)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(non_normal_queries())
@example((theory("fact: a.\ndefault: a : ~b / L b."), frozenset(), frozenset(), frozenset()))
@example((theory("fact: a.\ndefault: a : b / b.\ndefault: a : b / ~~b.\ndefault: a : ~b / b & b."),
          frozenset({MB}), frozenset({B}), frozenset({SignedConstraint(False, MB)})))
@example((theory("fact: a.\ndefault: M b : c / c.\ndefault: a : b / b."),  # fires index 1 first
          frozenset(), frozenset({A}), frozenset()))
# 6 to 8 defaults with the fork and the self-defeating shape: a search whose
# IN child or whose OUT child tests only the default just decided, not the
# ones decided above it, keeps the wrong ranks on one of them
@example((theory("fact: a.\ndefault: a -> a : L a, M b / M M b.\ndefault: a : b / b.\n"
                 "default: M b : M b, ~b, b | c / L b.\ndefault: M a : b | c, a / L b.\n"
                 "default: a -> a : ~b / ~b.\ndefault: a : ~b / L b."),
          frozenset({MB}), frozenset({B}), frozenset({SignedConstraint(True, MB)})))
@example((theory("fact: a.\ndefault: M a : b / M b.\ndefault: a -> a : ~b / ~b.\n"
                 "default: a : b / b.\ndefault: M b : b, ~c, ~a / b.\ndefault: a : ~b / L b.\n"
                 "default: M b : c, ~a / M c.\ndefault: a -> a : b, c / b & b."),  # no extension
          frozenset(), frozenset(), frozenset()))
@example((theory("fact: a.\ndefault: M a : b, a, ~b / c.\ndefault: a : a -> b / L ~a.\n"
                 "default: a : b, M b, a -> b / b | b.\ndefault: a : b / b.\n"
                 "default: M a : c, M b, L a / L b.\ndefault: a -> a : b, c / b & b.\n"
                 "default: a -> a : ~b / ~b.\ndefault: a : ~b / L b."),
          frozenset({MB}), frozenset({Poss(C)}), frozenset({SignedConstraint(True, Poss(Not(B)))})))
def test_non_normal_agrees_with_oracles(drawn):
    t, sigma, theta, constraints = drawn
    engine = [e.basis for e in extensions(t)]
    oracle = oracles.extensions(t)
    assert len(engine) == len(oracle)
    for eb, ob in zip(engine, oracle):
        assert oracles.equivalent(eb, ob)
    # the leaves ground only their IN defaults: the search keeps exactly the
    # ranks an unpruned sweep of the firing operator keeps, in its firing order
    kept = dict(luk3.defaults._Search(t))
    assert [r in kept for r in range(1 << len(t.defaults))] == oracles.kept_flags(t)
    for e in kept.values():
        assert list(e.fired) == oracles.gamma_fired(t, e.basis)[0]
        assert gamma(t, e) == e
    brave = brave_prove(BraveSequent(t.facts, t.defaults, sigma, theta))
    assert bool(brave) == oracles.brave_holds(t, sigma, theta)
    skeptical = skeptical_decide(SkepticalSequent(constraints, t.facts, t.defaults, theta))
    assert bool(skeptical) == oracles.skeptical_holds(t, constraints, theta)
    # every emitted certificate checks, in memory and read back from its document
    if brave:
        assert check_brave_proof(brave)
        assert check_brave_proof(brave_proof_from_doc(json.loads(json.dumps(
            brave_proof_to_doc(brave)))))
    if skeptical:
        # the search keeps exactly the ranks an unpruned sweep keeps
        assert_transcript_is_the_oracles(skeptical, t)
        assert check_skeptical_proof(skeptical)
        assert check_skeptical_proof(skeptical_proof_from_doc(json.loads(json.dumps(
            skeptical_proof_to_doc(skeptical)))))


def _sweep_queries(family, count, seed):
    pool = query_pool()
    rng = random.Random(seed)
    for k in range(count):
        t = family[k % len(family)]
        sigma = frozenset(rng.sample(pool, rng.randint(0, 2)))
        theta = frozenset(rng.sample(pool, rng.randint(0, 2)))
        yield t, sigma, theta


def test_brave_agrees_with_oracle_on_small_sweep(family):
    for t, sigma, theta in _sweep_queries(family, 64, seed=11):
        q = BraveSequent(t.facts, t.defaults, sigma, theta)
        assert bool(brave_prove(q)) == oracles.brave_holds(t, sigma, theta)


def _skeptical_sweep_queries(family, count, seed):
    pool = query_pool()
    rng = random.Random(seed)
    for k in range(count):
        t = family[k % len(family)]
        constraints = frozenset(SignedConstraint(rng.random() < 0.5, f)
                                for f in rng.sample(pool, rng.randint(0, 2)))
        theta = frozenset(rng.sample(pool, rng.randint(0, 2)))
        yield t, SkepticalSequent(constraints, t.facts, t.defaults, theta)


def test_skeptical_brave_duality_on_small_sweep(family):
    for t, q in _skeptical_sweep_queries(family, 64, seed=13):
        result = skeptical_decide(q)
        assert bool(result) == (not brave_prove(brave_translation(q)))
        assert bool(result) == oracles.skeptical_holds(t, q.sigma, q.theta)
        if result:
            assert_transcript_is_the_oracles(result, t)


@pytest.fixture
def cold_caches():
    """Every cache of luk3.defaults (the calculus's caches, the engine's
    sliced decisions and the skeptical checker's memo among them), empty
    when the test starts and emptied again when it ends."""
    named = {name: c for name, c in vars(luk3.defaults).items() if hasattr(c, "cache_clear")}
    assert {"_proof", "_refutation", "_entailed", "_components", "_atoms",
            "_certified"} <= named.keys()
    caches = named.values()
    for c in caches:
        c.cache_clear()
    yield
    for c in caches:
        c.cache_clear()


def test_skeptical_checker_trusts_the_calculus_only_through_its_checkers(family, monkeypatch,
                                                                          cold_caches):
    proofs = [p for p in (skeptical_decide(q) for _, q in _skeptical_sweep_queries(family, 64, 13))
              if p]
    assert proofs
    for proof in proofs:
        assert check_skeptical_proof(proof)
        for mutant in skeptical_mutants(proof):
            assert not check_skeptical_proof(mutant)
    # two calculi that lie about every entailment of one sign: a failed proof
    # (of another sequent) for each that holds, and a proof of another
    # sequent for each that does not
    real = luk3.defaults._proof
    caches = [c for c in vars(luk3.defaults).values() if hasattr(c, "cache_clear")]
    lies = {True: prove(entailment_sequent(frozenset(), Z)),
            False: prove(entailment_sequent(frozenset({Z}), Z))}
    for holds, lie in lies.items():
        told = []

        def lying(basis, goals):
            answer = real(basis, goals)
            if bool(answer) == holds:
                told.append(goals)
                return lie
            return answer

        monkeypatch.setattr(luk3.defaults, "_proof", lying)
        rejected = 0
        for proof in proofs:
            # the engine's decisions cache the calculus's answers, the lies
            # among them, so each check starts from empty caches
            for c in caches:
                c.cache_clear()
            told.clear()
            accepted = check_skeptical_proof(proof)
            # one lie to the checker's search rejects a genuine certificate:
            # evidence that fails its checker never counts as the other answer
            assert accepted == (not told)
            rejected += not accepted
        assert rejected


class TestCertificates:
    def _brave_proof(self):
        q = BraveSequent(T_FORK.facts, T_FORK.defaults,
                         frozenset({MB}), frozenset({Not(B)}))
        proof = brave_prove(q)
        assert proof
        return proof

    def _skeptical_proof(self):
        q = SkepticalSequent(frozenset(parse_constraints("+M b")),
                             T_FORK.facts, T_FORK.defaults, frozenset({MB}))
        proof = skeptical_decide(q)
        assert proof
        return proof

    def test_brave_checker_rejects_all_mutants(self):
        proof = self._brave_proof()
        assert check_brave_proof(proof)
        for mutant in brave_mutants(proof):
            assert not check_brave_proof(mutant)

    def test_skeptical_checker_rejects_all_mutants(self):
        proof = self._skeptical_proof()
        assert check_skeptical_proof(proof)
        for mutant in skeptical_mutants(proof):
            assert not check_skeptical_proof(mutant)

    def test_read_back_tokenizes_no_live_formula_field(self, monkeypatch):
        # the formula fields of a certificate read while an earlier read of
        # it lives name live formulas by their canonical prints, so only
        # the default and constraint texts go through the tokenizer
        seen: list[str] = []
        real = luk3.syntax.tokenize

        def counting(text, *args):
            seen.append(text)
            return real(text, *args)

        for doc, read in ((brave_proof_to_doc(self._brave_proof()), brave_proof_from_doc),
                          (skeptical_proof_to_doc(self._skeptical_proof()),
                           skeptical_proof_from_doc)):
            doc = json.loads(json.dumps(doc))
            first = read(doc)
            q = doc["query"]
            fields = set(q["gamma"]) | set(q["theta"])
            if doc["kind"] == "brave":
                fields |= set(q["sigma"]) | set(doc["basis"])
                fields |= {e["formula"] for e in doc["sigma_proofs"] + doc["theta_refutations"]}
            else:
                for v in doc["extensions"]:
                    fields |= set(v["basis"]) | ({v["goal"]} if "goal" in v else set())
            seen.clear()
            monkeypatch.setattr(luk3.syntax, "tokenize", counting)
            assert read(doc) == first
            monkeypatch.undo()
            assert fields and not fields & set(seen)
            assert set(seen) <= set(q["delta"]) | set(q.get("constraints", ()))

    def test_brave_doc_round_trip(self):
        proof = self._brave_proof()
        doc = json.loads(json.dumps(brave_proof_to_doc(proof)))
        again = brave_proof_from_doc(doc)
        assert again == proof
        assert check_brave_proof(again)

    def test_skeptical_doc_round_trip(self):
        proof = self._skeptical_proof()
        doc = json.loads(json.dumps(skeptical_proof_to_doc(proof)))
        again = skeptical_proof_from_doc(doc)
        assert again == proof
        assert check_skeptical_proof(again)

    def test_malformed_docs_rejected(self):
        with pytest.raises(ValueError):
            brave_proof_from_doc({"kind": "skeptical"})
        with pytest.raises(ValueError):
            skeptical_proof_from_doc({"kind": "brave"})

    @pytest.mark.parametrize("edit", [
        lambda d: d["steps"][0].update(justification="1"),
        lambda d: d["steps"][1].update(justification=True),
        lambda d: d.pop("basis"),
        lambda d: d.update(steps=None),
        lambda d: d["steps"].append("fire"),
        lambda d: d["steps"][0].update(disposition=None),
        lambda d: d["sigma_proofs"][0].update(formula=7),
        lambda d: d["sigma_proofs"][0].pop("proof"),
        lambda d: d["query"].update(delta=[7]),
    ], ids=["text-justification", "bool-justification", "missing-basis", "null-steps",
            "text-step", "null-disposition", "int-formula", "missing-proof", "int-default"])
    def test_mistyped_brave_doc_rejected(self, edit):
        doc = json.loads(json.dumps(brave_proof_to_doc(self._brave_proof())))
        edit(doc)
        with pytest.raises(ValueError, match="malformed"):
            brave_proof_from_doc(doc)

    @pytest.mark.parametrize("edit", [
        lambda d: d["transcript"][1].update(fired=["0"]),
        lambda d: d["transcript"][1].update(fired=[True]),
        lambda d: d["transcript"][0].update(rank="0"),
        lambda d: d["transcript"][0].update(kept=0),
        lambda d: d["extensions"][0].update(fired=[9]),
        lambda d: d["extensions"][0].update(fired=[-1]),
        lambda d: d["extensions"][0].update(satisfies_constraints=1),
        lambda d: d["extensions"][0]["constraints"][0].update(satisfied="yes"),
        lambda d: d["extensions"][0]["constraints"][0].update(constraint=None),
        lambda d: d["extensions"][0].update(goal=["M b"]),
        lambda d: d.update(transcript=None),
        lambda d: d["query"].update(gamma=[7]),
    ], ids=["text-index", "bool-index", "text-rank", "int-kept", "index-past-end",
            "negative-index", "int-satisfies", "text-satisfied", "null-constraint",
            "list-goal", "null-transcript", "int-fact"])
    def test_mistyped_skeptical_doc_rejected(self, edit):
        doc = json.loads(json.dumps(skeptical_proof_to_doc(self._skeptical_proof())))
        edit(doc)
        with pytest.raises(ValueError, match="malformed"):
            skeptical_proof_from_doc(doc)

    def test_well_typed_wrong_docs_reach_the_checker(self):
        doc = json.loads(json.dumps(brave_proof_to_doc(self._brave_proof())))
        doc["steps"][1]["justification"] = 1  # a blocked-consequent-certainty step
        assert not check_brave_proof(brave_proof_from_doc(doc))
        doc = json.loads(json.dumps(skeptical_proof_to_doc(self._skeptical_proof())))
        doc["extensions"][0]["fired"] = [1]
        assert not check_skeptical_proof(skeptical_proof_from_doc(doc))

    @pytest.mark.parametrize("edit", [
        lambda t: t[0].update(kept=False),
        lambda t: t.insert(0, {"rank": 0, "fired": [], "kept": True}),
        lambda t: t.pop(),
    ], ids=["unkept-record", "unkept-rank", "dropped-record"])
    def test_well_typed_wrong_transcripts_reach_the_checker(self, edit):
        # the fork keeps ranks 1 and 2, one record each; a wrong transcript
        # is read without error, and the checker rejects it
        doc = json.loads(json.dumps(skeptical_proof_to_doc(self._skeptical_proof())))
        assert doc["transcript"] == [{"rank": 1, "fired": [0], "kept": True},
                                     {"rank": 2, "fired": [1], "kept": True}]
        edit(doc["transcript"])
        assert not check_skeptical_proof(skeptical_proof_from_doc(doc))

    @pytest.mark.parametrize("index", ["1", True, 1.0, None])
    def test_checker_rejects_mistyped_justification_index(self, index):
        t = theory("fact: a.\nfact: ~b.\ndefault: a : b / c.")
        proof = brave_prove(BraveSequent(t.facts, t.defaults, frozenset(), frozenset()))
        (step,) = proof.steps
        assert step.kind == BLOCKED_JUST and step.justification_index == 1
        assert check_brave_proof(proof)
        bad = proof._replace(steps=(step._replace(justification_index=index),))
        assert check_brave_proof(bad) is False

    def test_checker_rejects_foreign_step(self):
        proof = self._brave_proof()
        from luk3.defaults import Disposition

        alien = Disposition(Default(C, (C,), C), BLOCKED_PREREQ)
        assert not check_brave_proof(proof._replace(steps=proof.steps + (alien,)))
