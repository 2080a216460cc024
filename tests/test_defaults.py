from __future__ import annotations

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import luk3.defaults
import oracles
from mutation import brave_mutants, skeptical_mutants
from conftest import query_pool
from luk3.defaults import (
    BLOCKED_JUST,
    BLOCKED_PREREQ,
    FIRED,
    BraveFailure,
    BraveProof,
    BraveSequent,
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
from luk3.sequent import entailment_sequent, prove

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
        assert len(mutants) == 266  # 264, plus one reordering for each of 2 verdicts firing two
        assert not any(check_skeptical_proof(m) for m in mutants)

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
    assert [r.kept for r in proof.transcript] == [False, True] + [False] * 6
    assert check_skeptical_proof(proof)


def test_sweep_budget_covers_every_query(monkeypatch):
    # a skeptical transcript lists all 2^20 ranks, past the budget
    t = theory("fact: a.\n" + "".join(f"default: a : b{i} / b{i}.\n" for i in range(20)))
    with pytest.raises(SearchLimitError):
        skeptical_decide(SkepticalSequent(frozenset(), t.facts, t.defaults, frozenset({A})))
    # 20 forked pairs have 2^20 extensions, so their search exceeds the
    # budget; lowered, it is exceeded within a few leaves
    forked = theory("fact: a.\n" + "".join(f"default: a : z{i} / z{i}.\ndefault: a : ~z{i} / ~z{i}.\n"
                                           for i in range(20)))
    monkeypatch.setattr(luk3.defaults, "DEFAULT_MAX_STATES", 50)
    with pytest.raises(SearchLimitError):
        extensions(forked)
    with pytest.raises(SearchLimitError):
        brave_prove(BraveSequent(forked.facts, forked.defaults, frozenset({MB}), frozenset()))


def test_search_meets_the_wide_theory_targets(monkeypatch):
    """16 independent defaults give their one extension in at most 17 leaf
    groundings, not 2^16; 8 forked pairs keep all 2^8 extensions."""
    calls = count_leaf_groundings(monkeypatch)
    wide = theory("fact: a.\n" + "".join(f"default: a : b{i} / b{i}.\n" for i in range(16)))
    (e,) = extensions(wide)
    assert e.fired == wide.defaults
    assert 1 <= len(calls) <= 17
    forked = theory("fact: a.\n" + "".join(f"default: a : z{i} / z{i}.\ndefault: a : ~z{i} / ~z{i}.\n"
                                           for i in range(8)))
    assert len(extensions(forked)) == 256


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
        assert [r.kept for r in skeptical.transcript] == oracles.kept_flags(t)
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
            assert [r.kept for r in result.transcript] == oracles.kept_flags(t)


def test_skeptical_checker_never_calls_the_calculus(family, monkeypatch):
    proofs = [p for p in (skeptical_decide(q) for _, q in _skeptical_sweep_queries(family, 64, 13))
              if p]
    assert proofs

    def refuse(*args):
        raise AssertionError("the calculus was called")

    monkeypatch.setattr(luk3.defaults, "_proof", refuse)
    monkeypatch.setattr(luk3.defaults, "prove", refuse)
    with pytest.raises(AssertionError, match="the calculus was called"):
        extensions(family[-1])  # the engine's default route is cut off
    for proof in proofs:
        assert check_skeptical_proof(proof)
        for mutant in skeptical_mutants(proof):
            assert not check_skeptical_proof(mutant)


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
