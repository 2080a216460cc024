from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formulas_strategy
from luk3.semantics import (
    VALUES,
    Interpretation,
    TruthValue,
    UndeclaredAtomError,
    atomic_countermodel,
    enumerate_interpretations,
    evaluate,
    tt_entails,
    tt_sequent_true,
    tt_sequent_valid,
    tt_valid,
)
from luk3.sequent import Sequent3
from luk3.syntax import And, Atom, Cert, Impl, Not, Or, Poss, atoms, parse_formula

F, U, T = VALUES
P, Q = Atom("p"), Atom("q")


class TestTruthValues:
    def test_order(self):
        assert F < U < T

    def test_numeric_view_is_exact(self):
        # read f, u, t as 0, 1/2, 1: the tables are Lukasiewicz's functions
        num = {v: Fraction(v.rank, 2) for v in VALUES}
        for x in VALUES:
            assert num[evaluate(Not(P), Interpretation.of(p=x))] == 1 - num[x]
            for y in VALUES:
                value = Interpretation.of(p=x, q=y)
                assert num[evaluate(Impl(P, Q), value)] == min(1, 1 - num[x] + num[y])
                assert num[evaluate(And(P, Q), value)] == min(num[x], num[y])
                assert num[evaluate(Or(P, Q), value)] == max(num[x], num[y])

    def test_hash_is_the_identity(self):
        # members are singletons, so caches keyed by them hash in C
        assert TruthValue.__hash__ is object.__hash__
        assert len({F, U, T, F, U, T}) == 3

    def test_ranks_are_component_indices(self):
        # a plain attribute on each member, read by the truth tables
        assert [v.rank for v in VALUES] == [0, 1, 2]
        assert all("rank" in vars(v) for v in VALUES)

    def test_members_survive_pickle_and_copy_as_themselves(self):
        for v in VALUES:
            assert pickle.loads(pickle.dumps(v)) is v
            assert copy.copy(v) is v and copy.deepcopy(v) is v

    def test_symbols_round_trip(self):
        for v in VALUES:
            assert TruthValue.from_symbol(v.symbol) is v
        with pytest.raises(ValueError):
            TruthValue.from_symbol("x")


class TestEvaluate:
    def test_implication_at_u_f(self):
        assert evaluate(Impl(P, Q), Interpretation.of(p=U, q=F)) is U

    def test_identity_implication_always_true(self):
        for i in enumerate_interpretations(["p"]):
            assert evaluate(Impl(P, P), i) is T

    def test_modalities_at_u(self):
        i = Interpretation.of(p=U)
        assert evaluate(Poss(P), i) is T
        assert evaluate(Cert(P), i) is F

    def test_undeclared_atom(self):
        with pytest.raises(UndeclaredAtomError) as err:
            evaluate(P, Interpretation.of(q=T))
        assert err.value.atom == "p"

    def test_tables(self):
        # negation / conjunction / disjunction on the diagonal cases
        i = Interpretation.of(p=U, q=T)
        assert evaluate(parse_formula("~p"), i) is U
        assert evaluate(parse_formula("p & q"), i) is U
        assert evaluate(parse_formula("p | q"), i) is T
        assert evaluate(parse_formula("q -> p"), i) is U

    def test_shared_subformulas_are_valued_once(self, monkeypatch):
        # p | ~q doubled 20 times by f = f & f: 24 distinct subformulas, 2^20
        # occurrences of p; walking every occurrence took seconds
        import luk3.semantics as semantics

        calls = 0

        def counting(table):
            def counted(*values):
                nonlocal calls
                calls += 1
                return table(*values)
            return counted

        for cls, table in list(semantics._TABLE_OF.items()):
            monkeypatch.setitem(semantics._TABLE_OF, cls, counting(table))
        f = Or(P, Not(Q))
        for _ in range(20):
            f = And(f, f)
        connectives = 22  # the distinct subformulas that are not atoms
        assert evaluate(f, Interpretation.of(p=F, q=U)) is U
        assert calls <= connectives
        calls = 0
        # p=f,q=f makes f true and p=f,q=u does not: two interpretations
        assert tt_valid(f) == (False, Interpretation.of(p=F, q=U))
        assert calls <= 2 * connectives
        with pytest.raises(UndeclaredAtomError) as err:
            evaluate(f, Interpretation.of(p=T))
        assert err.value.atom == "q"
        with pytest.raises(TypeError, match="^not a formula: 'p'$"):
            evaluate("p", Interpretation.of(p=T))


class TestEnumerate:
    def test_empty_domain(self):
        assert list(enumerate_interpretations([])) == [Interpretation(())]

    def test_single_atom_order(self):
        vals = [i.value("p") for i in enumerate_interpretations(["p"])]
        assert vals == [F, U, T]

    def test_two_atoms(self):
        interps = list(enumerate_interpretations(["q", "p"]))
        assert len(interps) == 9
        assert interps[0] == Interpretation.of(p=F, q=F)
        # last atom varies fastest on the sorted atom list
        assert interps[1] == Interpretation.of(p=F, q=U)


class TestValid:
    def test_identity(self):
        assert tt_valid(parse_formula("p -> p"))

    def test_excluded_middle_fails_at_u(self):
        verdict = tt_valid(parse_formula("p | ~p"))
        assert not verdict
        assert verdict.counter == Interpretation.of(p=U)

    def test_possibly_or_not(self):
        assert tt_valid(parse_formula("M p | ~p"))


class TestEntails:
    def test_fact_entails_possibility(self):
        assert tt_entails({P}, Poss(P))

    def test_possibility_does_not_entail_fact(self):
        verdict = tt_entails({Poss(P)}, P)
        assert not verdict
        assert verdict.counter == Interpretation.of(p=U)

    def test_certainty_negation_counterexample(self):
        verdict = tt_entails({Atom("a"), Poss(Atom("b"))}, parse_formula("~L b"))
        assert not verdict
        assert verdict.counter == Interpretation.of(a=T, b=T)

    def test_unsatisfiable_premises_entail_anything(self):
        assert tt_entails({parse_formula("L (p & ~p)")}, Q)


class TestSequentTruth:
    def test_component_one_matches_false(self):
        s = Sequent3.of((P,), (), ())
        assert tt_sequent_true(s, Interpretation.of(p=F))

    def test_component_two_requires_u(self):
        s = Sequent3.of((), (P,), ())
        assert not tt_sequent_true(s, Interpretation.of(p=T))

    def test_shared_formula_always_true(self):
        s = Sequent3.of((Q,), (Q,), (Q,))
        for i in enumerate_interpretations(["q"]):
            assert tt_sequent_true(s, i)

    def test_sequent_valid_examples(self):
        assert tt_sequent_valid(Sequent3.of((P,), (P,), (P,)))
        verdict = tt_sequent_valid(Sequent3.of((), (), (parse_formula("p | ~p"),)))
        assert not verdict and verdict.counter == Interpretation.of(p=U)
        verdict = tt_sequent_valid(Sequent3.of((P,), (P,), (Q,)))
        assert not verdict and verdict.counter == Interpretation.of(p=T, q=F)


class TestAtomicCountermodel:
    def test_single_goal_atom(self):
        assert atomic_countermodel(((), (), (P,))) == Interpretation.of(p=F)

    def test_fully_occupied_atom(self):
        assert atomic_countermodel(((P,), (P,), (P,))) is None

    def test_least_free_component(self):
        assert atomic_countermodel(((P,), (Q,), ())) == Interpretation.of(p=U, q=F)

    def test_non_atomic_rejected(self):
        with pytest.raises(ValueError):
            atomic_countermodel(((Not(P),), (), ()))


class TestInterpretation:
    def test_text_round_trip(self):
        i = Interpretation.from_text("b=u , a=t")
        assert i.to_text() == "a=t,b=u"
        assert Interpretation.from_text(i.to_text()) == i

    def test_blank_is_empty(self):
        assert Interpretation.from_text("") == Interpretation(())

    def test_bad_assignment(self):
        with pytest.raises(ValueError):
            Interpretation.from_text("a")
        with pytest.raises(ValueError):
            Interpretation.from_text("a=x")
        with pytest.raises(ValueError):
            Interpretation.from_text("A=t")

    def test_duplicate_atom_rejected(self):
        with pytest.raises(ValueError):
            Interpretation.from_text("a=t,a=u")

    @pytest.mark.parametrize("name", ["", "P", "1bad", "a b", 1, None])
    def test_mapping_names_must_be_atoms(self, name):
        with pytest.raises(ValueError, match="invalid atom name"):
            Interpretation.from_mapping({name: "t"})
        if isinstance(name, str):  # keyword names are strings in any call
            with pytest.raises(ValueError, match="invalid atom name"):
                Interpretation.of(**{name: T})
        # an unhashable value is not a truth value's symbol either
        with pytest.raises(ValueError, match="not a truth value"):
            Interpretation.from_mapping({"a": [name]})

    def test_order_insensitive_equality(self):
        assert Interpretation.of(a=T, b=U) == Interpretation.of(b=U, a=T)


def _all_interps(*formulas):
    names = set()
    for f in formulas:
        names.update(atoms(f))
    return enumerate_interpretations(names)


@given(formulas_strategy(atom_names=("p", "q")))
def test_modal_definitions(f):
    for i in _all_interps(f):
        assert evaluate(Cert(f), i) is evaluate(Not(Impl(f, Not(f))), i)
        assert evaluate(Poss(f), i) is evaluate(Impl(Not(f), f), i)


@given(formulas_strategy(atom_names=("p", "q")))
def test_double_negation(f):
    for i in _all_interps(f):
        assert evaluate(Not(Not(f)), i) is evaluate(f, i)


@given(formulas_strategy(atom_names=("p", "q")))
def test_valid_iff_singleton_sequent_valid(f):
    assert bool(tt_valid(f)) == bool(tt_sequent_valid(Sequent3.of((), (), (f,))))


@given(st.sets(formulas_strategy(atom_names=("p", "q")), max_size=3),
       formulas_strategy(atom_names=("p", "q")))
def test_entails_iff_premise_sequent_valid(premises, goal):
    w = frozenset(premises)
    assert bool(tt_entails(w, goal)) == bool(tt_sequent_valid(Sequent3(w, w, frozenset({goal}))))


@given(st.sets(formulas_strategy(atom_names=("p", "q")), max_size=2),
       st.sets(formulas_strategy(atom_names=("p", "q")), max_size=2),
       formulas_strategy(atom_names=("p", "q")))
def test_entailment_is_monotone(w, extra, goal):
    if tt_entails(w, goal):
        assert tt_entails(frozenset(w) | frozenset(extra), goal)
