from __future__ import annotations

import gc
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BINARY, UNARY, context_variants, sampled_principals
from mutation import refutation_mutants
from luk3.antisequent import (
    AntiSequent3,
    RefutationFailure,
    RefutationTree,
    apply_antirule,
    as_sequent,
    check_refutation,
    countermodel_of,
    generate_antirules,
    is_antiaxiom,
    parse_antisequent,
    print_antisequent,
    refutation_from_doc,
    refutation_from_failure,
    refutation_to_doc,
    refute,
)
from luk3.semantics import (
    VALUES,
    Interpretation,
    TruthValue,
    apply_connective,
    enumerate_interpretations,
    tt_sequent_true,
    tt_sequent_valid,
)
from luk3.sequent import ProofFailure, Sequent3, _extend_witness, prove
from luk3.syntax import (
    ARITY,
    Atom,
    Not,
    ParseError,
    Poss,
    children,
    connective,
    parse_formula,
    sort_key,
)

F, U, T = VALUES
P, Q = Atom("p"), Atom("q")


class TestGenerateAntirules:
    def test_negation_avoiding_t(self):
        # ~A is not t exactly when A is u or t
        assert generate_antirules("~", 3) == ((U,), (T,))

    def test_possibility_avoiding_t(self):
        assert generate_antirules("M", 3) == ((F,),)

    def test_conjunction_avoiding_f(self):
        assert generate_antirules("&", 1) == ((U, U), (U, T), (T, U), (T, T))

    def test_tuples_exclude_the_component_value(self):
        from luk3.semantics import apply_connective

        for conn in ARITY:
            for position in (1, 2, 3):
                for values in generate_antirules(conn, position):
                    assert apply_connective(conn, values) is not VALUES[position - 1]


def _literal_by_literal(a, principal, position, values):
    """apply_antirule's premise built as one new anti-sequent per insertion."""
    s = a.with_component(position, a.component(position) - {principal})
    for arg, v in zip(children(principal), values):
        for pos in (1, 2, 3):
            if pos != v.rank + 1:
                s = s.with_component(pos, s.component(pos) | {arg})
    return s


@pytest.mark.parametrize("conn", sorted(ARITY))
@pytest.mark.parametrize("position", [1, 2, 3])
def test_antirules_are_sound(conn, position):
    """An interpretation falsifying the premise falsifies the conclusion; the
    premise is the one built one insertion at a time, with the same set order."""
    texts = [f"{conn} p"] if ARITY[conn] == 1 else [f"p {conn} q", f"p {conn} p"]
    small = [parse_formula(text) for text in texts]
    for principal in small + list(sampled_principals(conn)):
        for context in context_variants():
            conclusion = AntiSequent3(*context).with_component(
                position, context[position - 1] | {principal})
            for values in generate_antirules(conn, position):
                premise = apply_antirule(conclusion, principal, position, values)
                reference = _literal_by_literal(conclusion, principal, position, values)
                assert premise == reference
                assert ([list(c) for c in premise.components]
                        == [list(c) for c in reference.components])
                if principal not in small:
                    continue  # the truth tables are checked on the small principals
                for i in enumerate_interpretations(["p", "q", "r"]):
                    if not tt_sequent_true(as_sequent(premise), i):
                        assert not tt_sequent_true(as_sequent(conclusion), i)


@pytest.mark.parametrize("position", [0, -1, 4])
def test_apply_antirule_rejects_positions_outside_1_to_3(position):
    # index 0 and -1 would wrap round to the last components
    a = AntiSequent3.of((Not(P),), (Not(P),), (Not(P),))
    with pytest.raises(ValueError, match="no component at position"):
        apply_antirule(a, Not(P), position, (T,))


class TestIsAntiaxiom:
    def test_single_goal_atom(self):
        a = AntiSequent3.of((), (), (P,))
        assert is_antiaxiom(a) == Interpretation.of(p=F)

    def test_fully_occupied(self):
        assert is_antiaxiom(AntiSequent3.of((P,), (P,), (P,))) is None

    def test_least_free_position(self):
        assert is_antiaxiom(AntiSequent3.of((P,), (Q,), ())) == Interpretation.of(p=U, q=F)

    def test_non_atomic_precondition(self):
        with pytest.raises(ValueError):
            is_antiaxiom(AntiSequent3.of((Not(P),), (), ()))


class TestRefute:
    def test_excluded_middle_refutable(self):
        result = refute(parse_antisequent("![ ; ; p | ~p]"))
        assert isinstance(result, RefutationTree)
        assert countermodel_of(result) == Interpretation.of(p=U)

    def test_identity_irrefutable(self):
        result = refute(parse_antisequent("![ ; ; p -> p]"))
        assert isinstance(result, RefutationFailure)
        assert not result

    def test_shared_formula_irrefutable(self):
        # no interpretation lets one formula avoid all three values
        assert not refute(parse_antisequent("![p ; p ; p]"))
        assert not refute(parse_antisequent("![p -> q ; p -> q ; p -> q]"))

    def test_forced_witness(self):
        a = parse_antisequent("![a, M b ; a, M b ; ~L b]")
        result = refute(a)
        assert result
        assert countermodel_of(result) == Interpretation.of(a=T, b=T)

    def test_countermodel_extends_to_root_atoms(self):
        result = refute(parse_antisequent("![ ; ; q]"))
        assert countermodel_of(result) == Interpretation.of(q=F)
        result = refute(parse_antisequent("![p ; ; ]"))
        assert countermodel_of(result) == Interpretation.of(p=U)

    def test_deterministic(self):
        a = parse_antisequent("![p & q ; ~p ; p -> q]")
        assert refute(a) == refute(a)


def test_refute_agrees_with_oracle_and_witnesses_falsify(pool):
    for f in pool[::13]:
        a = AntiSequent3.of((), (), (f,))
        result = refute(a)
        assert bool(result) == (not tt_sequent_valid(as_sequent(a)))
        if result:
            counter = countermodel_of(result)
            assert not tt_sequent_true(as_sequent(a), counter)


def test_refute_is_linear_in_chain_length(pool, monkeypatch):
    # no backtracking: each anti-rule applied ends up on the returned chain,
    # and valid inputs are settled by proof search alone
    import luk3.antisequent as antisequent

    calls = 0
    apply = antisequent.apply_antirule

    def counting(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    monkeypatch.setattr(antisequent, "apply_antirule", counting)
    for f in pool:
        a = AntiSequent3.of((), (), (f,))
        calls = 0
        result = refute(a)
        if result:
            length = 0
            node = result
            while node is not None:
                length += 1
                node = node.premise
            assert calls == length - 1, f
            assert not tt_sequent_true(as_sequent(a), countermodel_of(result))
        else:
            assert calls == 0, f


def _depth(f) -> int:
    return 1 + max(map(_depth, children(f))) if children(f) else 0


@st.composite
def _formulas(draw, depth: int):
    """A formula over p, q, r of depth at most ``depth``."""
    cls = draw(st.sampled_from((Atom, *UNARY, *BINARY))) if depth else Atom
    if cls is Atom:
        return Atom(draw(st.sampled_from("pqr")))
    return cls(*(draw(_formulas(depth - 1)) for _ in range(1 if cls in UNARY else 2)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.tuples(*[st.frozensets(_formulas(4), max_size=2)] * 3))
def test_chain_takes_the_deepest_formula_first(components):
    # certificate bytes depend on this order: deepest non-atomic formula,
    # then least sort key, then least position
    a = AntiSequent3(*components)
    result = refute(a)
    if not result:
        return
    assert check_refutation(result, a)
    node = result
    while node.premise is not None:
        candidates = [(-_depth(f), sort_key(f), position, f)
                      for position, comp in enumerate(node.conclusion, 1)
                      for f in comp if children(f)]
        *_, position, expected = min(candidates)  # sort keys differ, so no formulas are compared
        conn, rest = node.rule.split(":")
        assert int(rest.partition("@")[0]) == position
        assert node.conclusion.component(position) - node.premise.conclusion.component(position) \
            == {expected}
        assert conn == connective(expected)
        node = node.premise


def test_chain_values_each_subformula_once(monkeypatch):
    # one memoized valuation per chain: the truth tables run at most once
    # per subformula, where evaluating each principal's arguments afresh
    # ran them quadratically often
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
    a = parse_antisequent("![ ; ; " + "~" * 400 + "p]")
    result = refute(a)
    assert calls <= 400
    assert check_refutation(result, a)


@pytest.mark.parametrize("leaf, message", [
    # p=f, q=u makes p -> q t: the root formula takes its component's value
    (Sequent3.of((Q,), (), ()), "does not falsify"),
    (Sequent3.of((P,), (P,), (P,)), "axiom"),
])
def test_failure_that_does_not_refute_is_rejected(leaf, message):
    with pytest.raises(ValueError, match=message):
        refutation_from_failure(parse_antisequent("![ ; ; p -> q]"), ProofFailure(leaf))


@pytest.mark.parametrize("prefix, per_level", [("~", 2), ("L", 2), ("~M", 4)])
@pytest.mark.parametrize("n", [1, 2, 8, 12])
def test_chain_is_linear_in_nesting_depth(prefix, per_level, n):
    # principals are taken deepest first, so each subformula is inserted into
    # both of its components before it is decomposed, and none is redone
    a = parse_antisequent("![ ; ; " + prefix * n + "p]")
    result = refute(a)
    steps = 0
    node = result
    while node.premise is not None:
        steps += 1
        node = node.premise
    assert steps == per_level * n - 1
    assert check_refutation(result, a)


def test_check_reads_each_principal_off(corpus, monkeypatch):
    # the checker applies one anti-rule per step, to the formula the step's
    # component loses, however many formulas share the connective
    import luk3.antisequent as antisequent

    calls = 0
    apply = antisequent.apply_antirule

    def counting(*args):
        nonlocal calls
        calls += 1
        return apply(*args)

    refutations = [r for r in (refute(AntiSequent3(*s.components)) for s in corpus[::5]) if r]
    monkeypatch.setattr(antisequent, "apply_antirule", counting)
    for r in refutations:
        steps = 0
        node = r
        while node.premise is not None:
            steps += 1
            node = node.premise
        calls = 0
        assert check_refutation(r)
        assert calls == steps


def test_complementarity_on_sample(pool, corpus):
    for s in corpus[::37]:
        proved = bool(prove(s))
        refuted = bool(refute(AntiSequent3(*s.components)))
        assert proved != refuted, s


class TestChecker:
    def test_accepts_own_refutations(self, pool):
        for f in pool[::41]:
            a = AntiSequent3.of((f,), (), ())
            result = refute(a)
            if result:
                assert check_refutation(result, a)

    def test_rejects_wrong_root(self):
        result = refute(parse_antisequent("![ ; ; p | ~p]"))
        assert not check_refutation(result, parse_antisequent("![ ; ; q | ~q]"))

    def test_rejects_every_single_node_mutation(self):
        roots = [
            "![ ; ; p | ~p]",
            "![a, M b ; a, M b ; ~L b]",
            "![p & q ; ~p ; q]",
        ]
        for text in roots:
            a = parse_antisequent(text)
            result = refute(a)
            assert result and check_refutation(result, a)
            for mutant in refutation_mutants(result):
                assert not check_refutation(mutant, a)

    def test_rejects_tampered_witness_when_forced(self):
        a = parse_antisequent("![a, M b ; a, M b ; ~L b]")
        result = refute(a)
        leaf_chain = []
        node = result
        while node is not None:
            leaf_chain.append(node)
            node = node.premise
        tampered_leaf = leaf_chain[-1]._replace(witness=Interpretation.of(a=T, b=U))
        rebuilt = tampered_leaf
        for node in reversed(leaf_chain[:-1]):
            rebuilt = node._replace(premise=rebuilt)
        assert not check_refutation(rebuilt, a)


def _reference_check_refutation(tree, conclusion=None):
    """The refutation checker as first written: rule names parsed from their
    text, and the leaf witness, extended to the root's atoms, required to
    falsify the sequent reading of every node on the chain."""
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
        if not _reference_rule_matches(parent, child):
            return False
    witness = _extend_witness(leaf.witness, tree.conclusion)
    return not any(tt_sequent_true(node.conclusion, witness) for node in chain)


def _reference_rule_matches(parent, child):
    conn, sep, rest = parent.rule.partition(":")
    pos_text, at, value_text = rest.partition("@")
    if not sep or not at or conn not in ARITY or pos_text not in {"1", "2", "3"}:
        return False
    position = int(pos_text)
    try:
        values = tuple(TruthValue.from_symbol(s) for s in value_text.split(","))
    except ValueError:
        return False
    if len(values) != ARITY[conn] or apply_connective(conn, values) is VALUES[position - 1]:
        return False
    lost = parent.conclusion.component(position) - child.conclusion.component(position)
    if len(lost) != 1:
        return False
    (f,) = lost
    return (connective(f) == conn
            and apply_antirule(parent.conclusion, f, position, values) == child.conclusion)


def _with_leaf(tree, leaf):
    """``tree`` with its leaf replaced by ``leaf``."""
    chain = []
    while tree.premise is not None:
        chain.append(tree)
        tree = tree.premise
    for node in reversed(chain):
        leaf = node._replace(premise=leaf)
    return leaf


def _witness_variants(tree):
    """``tree`` with one atom of its leaf witness changed to each other value."""
    leaf = tree
    while leaf.premise is not None:
        leaf = leaf.premise
    table = leaf.witness.as_dict()
    for name, value in table.items():
        for other in VALUES:
            if other is not value:
                witness = Interpretation.from_mapping({**table, name: other.symbol})
                yield _with_leaf(tree, leaf._replace(witness=witness))


@pytest.fixture(scope="module")
def corpus_refutations(corpus):
    return [r for r in (refute(AntiSequent3(*s.components)) for s in corpus) if r]


def test_checker_agrees_with_reference(corpus_refutations):
    verdicts = set()
    for r in corpus_refutations:
        for tree in [r, *refutation_mutants(r), *_witness_variants(r)]:
            verdict = check_refutation(tree)
            assert verdict == _reference_check_refutation(tree), tree
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_checker_evaluates_the_leaf_only(corpus_refutations, monkeypatch):
    # every chain that reaches the witness test costs one truth-table call
    import luk3.antisequent as antisequent

    calls = 0
    real = antisequent.tt_sequent_true

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(antisequent, "tt_sequent_true", counting)
    for r in corpus_refutations:
        for tree in [r, *_witness_variants(r)]:
            calls = 0
            check_refutation(tree)
            assert calls == 1


@pytest.mark.parametrize("text, witness", [
    ("![ ; ; p | ~p]", {"p": "u", "zz": "t"}),  # an atom the leaf lacks
    ("![ ; ; p]", {}),  # f for p would falsify the leaf
])
def test_checker_requires_the_leaf_atoms_in_the_witness(text, witness):
    a = parse_antisequent(text)
    result = refute(a)
    leaf = result
    while leaf.premise is not None:
        leaf = leaf.premise
    assert check_refutation(result, a)
    forged = _with_leaf(result, leaf._replace(witness=Interpretation.from_mapping(witness)))
    assert not check_refutation(forged, a)
    assert not check_refutation(refutation_from_doc(refutation_to_doc(forged)), a)


@pytest.mark.parametrize("name", ["", "P", "1bad"])
def test_reader_rejects_a_witness_name_that_is_not_an_atom(name):
    doc = refutation_to_doc(refute(parse_antisequent("![ ; ; p]")))
    doc["witness"] = {name: "f"}
    with pytest.raises(ValueError, match="invalid atom name"):
        refutation_from_doc(doc)


@pytest.mark.parametrize("rule", ["~:1@t", "~:4@u", "->:1@t", "~:1@ u", "&:1@t,t,t"])
def test_rejects_near_miss_rule_names(rule):
    a = parse_antisequent("![~p ; ; ~p]")
    result = refute(a)
    assert result.rule == "~:1@u" and check_refutation(result, a)
    assert not check_refutation(result._replace(rule=rule), a)
    assert not _reference_check_refutation(result._replace(rule=rule), a)


class TestTextAndDocs:
    def test_print_form(self):
        a = AntiSequent3.of((P,), (), (Q,))
        assert print_antisequent(a) == "![p ;  ; q]"
        assert parse_antisequent(print_antisequent(a)) == a

    def test_leaf_doc_carries_witness(self):
        result = refute(parse_antisequent("![ ; ; p | ~p]"))
        doc = refutation_to_doc(result)
        node = doc
        while node["premises"]:
            assert "witness" not in node
            node = node["premises"][0]
        assert node["witness"] == {"p": "u"}

    def test_doc_round_trip(self):
        a = parse_antisequent("![p & q ; ~p ; q]")
        result = refute(a)
        doc = json.loads(json.dumps(refutation_to_doc(result)))
        again = refutation_from_doc(doc)
        assert again == result
        assert check_refutation(again, a)

    def test_reading_leaves_no_cycle(self):
        doc = refutation_to_doc(refute(parse_antisequent("![ ; ; (p | q) & ~p]")))
        gc.collect()
        gc.disable()
        try:
            assert refutation_from_doc(doc)
            assert gc.collect() == 0  # the reader builds no reference cycle
        finally:
            gc.enable()

    @pytest.mark.parametrize("text", [
        "![p ; q % ; r\n ; r]",     # a comment in a field
        "![p ; q ; r % , s\n]",
        "![p ; q ; r",              # no closing bracket
        "![p ; p ; p\n | q]",       # a newline inside an entry
        "! [p ; ; q]",              # text outside the brackets
        "![p ; ; q] ",
        "![p,\tq\t;\t;\tr]",       # tab separators
        "![p,,q ; ; r]",            # empty entries
        "![p, ; ; r]",
        "![p ; [q ; r]",            # a stray bracket in a field
        "![p ; q] ; r]",
        "![p ; q]",                 # two or four fields
        "![p ; q ; r ; r]",
        "![p q ; ; r]",             # entries that are not one formula
        "![p ; ~ ; r]",
        "![p ; ; r\x0c]",
        "[p ; ; q]",
        pytest.param("![" + "~" * 3000 + "p ; ; p @]", id="too-deep-then-bad-character"),
    ])
    def test_reader_agrees_with_parse_antisequent(self, text):
        doc = {"rule": "anti-axiom", "sequent": text, "premises": [], "witness": {"p": "f"}}
        try:
            expected = parse_antisequent(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                refutation_from_doc(doc)
            assert ((got.value.message, got.value.line, got.value.column)
                    == (err.message, err.line, err.column))
        else:
            assert refutation_from_doc(doc).conclusion == expected

    def test_malformed_docs_rejected(self):
        with pytest.raises(ValueError):
            refutation_from_doc({"rule": "anti-axiom"})
        with pytest.raises(ValueError):
            refutation_from_doc({"rule": "x", "sequent": "![ ; ; p]",
                                 "premises": [1, 2]})

    @pytest.mark.parametrize("doc", [
        {"rule": "anti-axiom", "sequent": 7, "premises": [], "witness": {"p": "f"}},
        {"rule": "anti-axiom", "sequent": ["![ ; ; p]"], "premises": [],
         "witness": {"p": "f"}},
        {"rule": None, "sequent": "![ ; ; p]", "premises": [], "witness": {"p": "f"}},
        {"rule": "anti-axiom", "sequent": "![ ; ; p]", "premises": None,
         "witness": {"p": "f"}},
        {"rule": "anti-axiom", "sequent": "![ ; ; p]", "premises": [], "witness": None},
        {"rule": "anti-axiom", "sequent": "![ ; ; p]", "premises": [],
         "witness": [["p", "f"]]},
        {"rule": "~:3@t", "sequent": "![ ; ; ~p]",
         "premises": [{"rule": "anti-axiom", "sequent": "![ ; ; p]", "premises": [],
                       "witness": "p=f"}]},
        {"rule": "anti-axiom", "sequent": "![ ; ; p]", "premises": [], "witness": {"p": ["f"]}},
    ], ids=["int-sequent", "list-sequent", "null-rule", "null-premises", "null-witness",
            "list-witness", "nested-text-witness", "list-witness-value"])
    def test_mistyped_fields_rejected(self, doc):
        with pytest.raises(ValueError, match="malformed refutation document"):
            refutation_from_doc(doc)


def test_rule_application_shrinks_occurrence_multiset():
    # each step removes the principal and inserts proper subformulas, so the
    # refutation chain's length is bounded and search always terminates
    a = AntiSequent3.of((parse_formula("~(p -> q) | M p"),), (P,), (Q,))
    result = refute(a)
    assert result
    seen = set()
    node = result
    while node is not None:
        assert node.conclusion not in seen
        seen.add(node.conclusion)
        node = node.premise
