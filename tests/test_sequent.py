from __future__ import annotations

import copy
import gc
import json
import pickle
import sys
import threading
from itertools import product

import pytest

import luk3.sequent
import luk3.syntax
from conftest import context_variants, sampled_principals
from mutation import proof_mutants
from luk3.antisequent import AntiSequent3, print_antisequent, refutation_to_doc, refute
from luk3.semantics import VALUES, enumerate_interpretations, tt_sequent_true, tt_sequent_valid
from luk3.sequent import (
    ProofFailure,
    ProofTree,
    RuleInstance,
    Sequent3,
    check_proof,
    entailment_sequent,
    failure_countermodel,
    generate_rules,
    instantiate,
    is_axiom,
    parse_sequent,
    print_sequent,
    proof_from_doc,
    proof_to_doc,
    prove,
    prove_entailment,
)
from luk3.syntax import (
    ARITY,
    Atom,
    Impl,
    Not,
    Or,
    ParseError,
    Poss,
    children,
    connective,
    parse_formula,
    print_formula,
    sort_key,
)

F, U, T = VALUES
P, Q, R = Atom("p"), Atom("q"), Atom("r")


class TestGenerateRules:
    def test_negation_at_t(self):
        assert generate_rules("~", 3) == (((0, F),),)

    def test_negation_at_u(self):
        assert generate_rules("~", 2) == (((0, U),),)

    def test_conjunction_at_t(self):
        assert generate_rules("&", 3) == (((0, T),), ((1, T),))

    def test_certainty_never_u(self):
        # L takes only values f and t, so the rule has one context-only premise
        assert generate_rules("L", 2) == ((),)
        assert generate_rules("M", 2) == ((),)

    def test_deterministic(self):
        for conn in ARITY:
            for position in (1, 2, 3):
                assert generate_rules(conn, position) == generate_rules(conn, position)


def _literal_by_literal(conclusion, principal, position):
    """instantiate's premises built as one new sequent per inserted literal."""
    args = children(principal)
    base = conclusion.with_component(position, conclusion.component(position) - {principal})
    premises = []
    for template in generate_rules(connective(principal), position):
        s = base
        for j, v in template:
            pos = v.rank + 1
            s = s.with_component(pos, s.component(pos) | {args[j]})
        premises.append(s)
    return tuple(premises)


@pytest.mark.parametrize("conn", sorted(ARITY))
@pytest.mark.parametrize("position", [1, 2, 3])
def test_rules_are_invertible(conn, position):
    """Conclusion true under an interpretation iff all premises are; the
    premises are those built one literal at a time, with the same set order."""
    texts = [f"{conn} p"] if ARITY[conn] == 1 else [f"p {conn} q", f"p {conn} p"]
    small = [parse_formula(text) for text in texts]
    for principal in small + list(sampled_principals(conn)):
        for context in context_variants():
            conclusion = Sequent3(*context).with_component(
                position, context[position - 1] | {principal})
            inst = instantiate(conclusion, principal, position)
            reference = _literal_by_literal(conclusion, principal, position)
            assert inst.premises == reference
            assert ([[list(c) for c in prem.components] for prem in inst.premises]
                    == [[list(c) for c in prem.components] for prem in reference])
            if principal not in small:
                continue  # the truth tables are checked on the small principals
            for i in enumerate_interpretations(["p", "q", "r"]):
                conclusion_true = tt_sequent_true(conclusion, i)
                premises_true = all(tt_sequent_true(prem, i) for prem in inst.premises)
                assert conclusion_true == premises_true


@pytest.mark.parametrize("position", [0, -1, 4])
def test_instantiate_rejects_positions_outside_1_to_3(position):
    # index 0 and -1 would wrap round to the last components
    s = Sequent3.of((Not(P),), (Not(P),), (Not(P),))
    with pytest.raises(ValueError, match="no component at position"):
        instantiate(s, Not(P), position)


@pytest.mark.parametrize("cls", [Sequent3, AntiSequent3])
class TestSequentValue:
    """Sequents and anti-sequents are immutable values, equal per class."""

    COMPS = (frozenset({P}), frozenset(), frozenset({Not(P)}))

    def test_equality_is_per_class(self, cls):
        s = cls(*self.COMPS)
        other = AntiSequent3 if cls is Sequent3 else Sequent3
        assert s == cls(*self.COMPS) and not s != cls(*self.COMPS)
        assert s != other(*self.COMPS) and not s == other(*self.COMPS)
        assert s != self.COMPS and self.COMPS != s and not s == self.COMPS

    def test_hash_is_that_of_the_components(self, cls):
        s = cls(*self.COMPS)
        assert hash(s) == hash((s.gamma1, s.gamma2, s.gamma3))

    def test_repr(self, cls):
        assert repr(cls(*self.COMPS)) == (
            f"{cls.__name__}(gamma1=frozenset({{Atom(name='p')}}), gamma2=frozenset(), "
            "gamma3=frozenset({Not(arg=Atom(name='p'))}))")

    def test_immutable(self, cls):
        s = cls(*self.COMPS)
        with pytest.raises(AttributeError):
            s.gamma1 = frozenset()
        with pytest.raises(AttributeError):
            s.extra = 1
        assert s == cls(*self.COMPS)

    def test_copies_round_trip(self, cls):
        s = cls(*self.COMPS)
        clones = [copy.copy(s), copy.deepcopy(s)]
        clones += [pickle.loads(pickle.dumps(s, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is cls and clone == s

    def test_components(self, cls):
        s = cls.of((P,), (), (Not(P),))
        assert s == cls(*self.COMPS)
        assert type(s.components) is tuple and s.components == self.COMPS
        assert s.component(3) == frozenset({Not(P)})
        t = s.with_component(2, frozenset({Q}))
        assert type(t) is cls and t.components == (self.COMPS[0], frozenset({Q}), self.COMPS[2])
        assert s.atoms() == ("p",)

    @pytest.mark.parametrize("position", [0, -1, 4])
    def test_component_rejects_positions_outside_1_to_3(self, cls, position):
        with pytest.raises(ValueError, match="no component at position"):
            cls(*self.COMPS).component(position)

    @pytest.mark.parametrize("position", [0, -1, 4])
    def test_with_component_rejects_positions_outside_1_to_3(self, cls, position):
        with pytest.raises(ValueError, match="no component at position"):
            cls(*self.COMPS).with_component(position, frozenset({Q}))


class TestRuleInstance:
    def test_fields_in_order(self):
        s = parse_sequent("[ ; ; p & q]")
        f = parse_formula("p & q")
        premises = (parse_sequent("[ ; ; p]"), parse_sequent("[ ; ; q]"))
        inst = instantiate(s, f, 3)
        assert inst == RuleInstance("&:3", f, 3, premises, s)
        assert (inst.name, inst.principal, inst.position, inst.premises, inst.conclusion) == (
            "&:3", f, 3, premises, s)

    def test_checker_rejects_permuted_premises(self):
        s = parse_sequent("[p, q ; p, q ; p & q]")
        tree = prove(s)
        assert len(set(p.conclusion for p in tree.premises)) == 2
        assert check_proof(tree, s)
        assert not check_proof(ProofTree(tree.conclusion, tree.rule, tree.premises[::-1]), s)


class TestIsAxiom:
    def test_shared_atom(self):
        assert is_axiom(Sequent3.of((P,), (P,), (P,)))

    def test_no_shared_formula(self):
        assert not is_axiom(Sequent3.of((P,), (Q,), (P,)))

    def test_shared_compound(self):
        f = Impl(P, Q)
        assert is_axiom(Sequent3.of((f,), (f,), (f,)))


class TestProve:
    def test_identity_implication(self):
        result = prove(parse_sequent("[ ; ; p -> p]"))
        assert isinstance(result, ProofTree)
        assert check_proof(result)

    def test_excluded_middle_fails(self):
        result = prove(parse_sequent("[ ; ; p | ~p]"))
        assert isinstance(result, ProofFailure)
        assert not result

    def test_possibility_from_fact(self):
        result = prove(Sequent3.of((P,), (P,), (Poss(P),)))
        assert result

    def test_deterministic(self):
        s = parse_sequent("[p, q ; ~p ; p -> q, M q]")
        assert prove(s) == prove(s)

    def test_failure_countermodel_falsifies_root(self):
        root = parse_sequent("[ ; ; p | ~p]")
        failure = prove(root)
        counter = failure_countermodel(failure, root)
        assert counter.value("p") is U
        assert not tt_sequent_true(root, counter)

    def test_failure_countermodel_covers_dropped_atoms(self):
        # proving p & q at t decomposes into separate branches, so one leaf
        # drops the other atom; the countermodel must still cover both
        root = Sequent3.of((), (), (parse_formula("p & q"),))
        failure = prove(root)
        counter = failure_countermodel(failure, root)
        assert set(counter.atoms) == {"p", "q"}
        assert not tt_sequent_true(root, counter)


class TestProveEntailment:
    def test_possibility(self):
        assert prove_entailment({P}, Poss(P))

    def test_tautology_from_nothing(self):
        assert prove_entailment(set(), Impl(P, P))

    def test_underivable(self):
        assert not prove_entailment({Poss(P)}, P)

    def test_entailment_sequent_shape(self):
        s = entailment_sequent({P, Q}, R)
        assert s.gamma1 == s.gamma2 == frozenset({P, Q})
        assert s.gamma3 == frozenset({R})


class TestCorpusProofs:
    def test_failure_countermodels_falsify_their_roots(self, corpus):
        failures = [(s, r) for s, r in ((s, prove(s)) for s in corpus) if not r]
        assert len(failures) == 1320
        for root, failure in failures:
            assert not tt_sequent_true(root, failure_countermodel(failure, root)), \
                print_sequent(root)

    def test_principal_has_the_fewest_premises(self, corpus):
        # at every inner node the rule has the fewest premises among the
        # rules of the conclusion's non-atomic formulas; the principal is
        # the canonically least of those formulas, at its least position
        for tree in filter(None, map(prove, corpus)):
            stack, seen = [tree], set()
            while stack:
                node = stack.pop()
                if id(node) in seen or not node.premises:
                    continue
                seen.add(id(node))
                stack.extend(node.premises)
                position = int(node.rule.partition(":")[2])
                (principal,) = (node.conclusion.component(position)
                                - node.premises[0].conclusion.component(position))
                least = min((len(generate_rules(connective(f), k)), sort_key(f), k)
                            for k, comp in enumerate(node.conclusion, 1)
                            for f in comp if connective(f))
                assert least == (len(node.premises), sort_key(principal), position), \
                    print_sequent(node.conclusion)


def test_prove_agrees_with_oracle_on_small_corpus(pool):
    sample = pool[::13]  # ~100 formulas spread across the depth-2 pool
    for f in sample:
        s = Sequent3.of((), (), (f,))
        assert bool(prove(s)) == bool(tt_sequent_valid(s)), print_sequent(s)


class TestChecker:
    def test_accepts_own_proofs(self, pool):
        for f in pool[::41]:
            s = Sequent3.of((f,), (f,), (f,))
            result = prove(s)
            assert result and check_proof(result, s)

    def test_rejects_wrong_root(self):
        result = prove(parse_sequent("[ ; ; p -> p]"))
        assert not check_proof(result, parse_sequent("[ ; ; q -> q]"))

    def test_rejects_renamed_rule(self):
        result = prove(parse_sequent("[ ; ; p -> p]"))
        assert not check_proof(ProofTree(result.conclusion, "&:3", result.premises))
        assert not check_proof(ProofTree(result.conclusion, "axiom", result.premises))

    def test_rejects_every_single_node_mutation(self):
        roots = [
            parse_sequent("[ ; ; p -> p]"),
            parse_sequent("[p ; p ; M p]"),
            parse_sequent("[p & q ; ~p ; p -> q]"),
        ]
        for root in roots:
            result = prove(root)
            if not result:
                continue
            assert check_proof(result, root)
            for mutant in proof_mutants(result):
                assert not check_proof(mutant, root)


class TestVerifiedMemo:
    @staticmethod
    def _counting(monkeypatch) -> list[Sequent3]:
        """The conclusions ``instantiate`` is called on from now on."""
        conclusions = []
        real = luk3.sequent.instantiate

        def counting(conclusion, *args):
            conclusions.append(conclusion)
            return real(conclusion, *args)

        monkeypatch.setattr(luk3.sequent, "instantiate", counting)
        return conclusions

    def test_shared_subtrees_checked_once_per_call(self, corpus, monkeypatch):
        # within one call each distinct inner node is verified once, in a
        # DAG from prove and in one read back from its document
        proofs = [p for p in map(prove, corpus) if p]
        assert sum(_occurrences(p) > len(_distinct_nodes(p)) for p in proofs) > 100
        conclusions = self._counting(monkeypatch)
        for proof in proofs:
            for tree in (proof, proof_from_doc(proof_to_doc(proof))):
                inner = [node for node in _distinct_nodes(tree) if node.premises]
                conclusions.clear()
                assert check_proof(tree, proof.conclusion)
                assert len(conclusions) == len(inner)
                assert {id(c) for c in conclusions} == {id(node.conclusion) for node in inner}

    def test_second_call_checks_again(self, corpus, monkeypatch):
        # a call leaves nothing on the tree: the next call on the same
        # objects verifies every distinct inner node again
        proofs = [p for p in map(prove, corpus[::10]) if p and p.premises]
        assert proofs
        conclusions = self._counting(monkeypatch)
        for proof in proofs:
            assert check_proof(proof)
            conclusions.clear()
            assert check_proof(proof)
            assert len(conclusions) == sum(1 for node in _distinct_nodes(proof) if node.premises)

    def test_check_keeps_no_reference(self, monkeypatch):
        # checking adds no reference to any node, and a pickled copy is
        # verified in full
        proof = prove(parse_sequent("[ ; ; (p -> q) -> (~q -> ~p)]"))
        nodes = _distinct_nodes(proof)
        before = [sys.getrefcount(node) for node in nodes]
        assert check_proof(proof)
        assert [sys.getrefcount(node) for node in nodes] == before
        conclusions = self._counting(monkeypatch)
        copied = pickle.loads(pickle.dumps(proof))
        assert copied == proof and hash(copied) == hash(proof)
        assert check_proof(copied)
        assert len(conclusions) == sum(1 for node in nodes if node.premises)


class TestTextAndDocs:
    def test_print_matches_canonical_form(self):
        assert print_sequent(Sequent3.of((P,), (P,), (P,))) == "[p ; p ; p]"

    def test_parse_empty_fields(self):
        s = parse_sequent("[ ; ; g ]")
        assert s.gamma1 == frozenset() and s.gamma3 == frozenset({Atom("g")})

    def test_parse_multiple_formulas(self):
        s = parse_sequent("[ f1, f2 ; ; g ]")
        assert s.gamma1 == frozenset({Atom("f1"), Atom("f2")})

    def test_round_trip(self):
        s = parse_sequent("[p, q ; ~p ; p -> q]")
        assert parse_sequent(print_sequent(s)) == s

    def test_field_count_enforced(self):
        with pytest.raises(Exception):
            parse_sequent("[p ; q]")

    def test_doc_round_trip(self):
        result = prove(parse_sequent("[p ; p ; M p]"))
        doc = proof_to_doc(result)
        again = proof_from_doc(json.loads(json.dumps(doc)))
        assert again == result
        assert check_proof(again)

    def test_axiom_doc_shape(self):
        result = prove(parse_sequent("[p ; p ; p]"))
        assert proof_to_doc(result) == {
            "rule": "axiom", "sequent": "[p ; p ; p]", "premises": []}

    def test_doc_serialization_is_stable(self):
        result = prove(parse_sequent("[p, q ; ~p ; p -> q, M q]"))
        first = json.dumps(proof_to_doc(result), sort_keys=True)
        second = json.dumps(proof_to_doc(prove(parse_sequent("[p, q ; ~p ; p -> q, M q]"))),
                            sort_keys=True)
        assert first == second

    def test_malformed_doc_rejected(self):
        with pytest.raises(ValueError):
            proof_from_doc({"rule": "axiom"})

    @pytest.mark.parametrize("doc", [
        {"rule": "axiom", "sequent": 7, "premises": []},
        {"rule": "axiom", "sequent": ["[p ; p ; p]"], "premises": []},
        {"rule": 7, "sequent": "[p ; p ; p]", "premises": []},
        {"rule": "axiom", "sequent": "[p ; p ; p]", "premises": None},
        {"rule": "~:3", "sequent": "[p ; p ; ~p]",
         "premises": [{"rule": "axiom", "sequent": ["[p ; p ; p]"], "premises": []}]},
    ], ids=["int-sequent", "list-sequent", "int-rule", "null-premises",
            "nested-list-sequent"])
    def test_mistyped_fields_rejected(self, doc):
        with pytest.raises(ValueError, match="malformed proof document"):
            proof_from_doc(doc)


def _distinct_nodes(tree: ProofTree) -> list[ProofTree]:
    seen: dict[int, ProofTree] = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return list(seen.values())


def _occurrences(tree: ProofTree) -> int:
    """The number of nodes of ``tree`` written out as a tree."""
    return 1 + sum(map(_occurrences, tree.premises))


def _doc_nodes(doc: dict, path: tuple[int, ...] = ()):
    """(path, node) for every node of a proof document, in document order."""
    yield path, doc
    for i, p in enumerate(doc["premises"]):
        yield from _doc_nodes(p, path + (i,))


def _follow(tree: ProofTree, path: tuple[int, ...]) -> ProofTree:
    for i in path:
        tree = tree.premises[i]
    return tree


def _replaced(doc: dict, path: tuple[int, ...], text: str) -> dict:
    """Copy of ``doc`` with the sequent text of the node at ``path`` replaced."""
    if not path:
        return {**doc, "sequent": text}
    premises = list(doc["premises"])
    premises[path[0]] = _replaced(premises[path[0]], path[1:], text)
    return {**doc, "premises": premises}


class TestDocSharing:
    def test_read_back_shares_like_the_prover(self, pool, monkeypatch):
        proofs = [t for t in (prove(Sequent3.of((), (), (f,))) for f in pool) if t]
        assert len(proofs) > 200
        calls = 0
        real = luk3.sequent.instantiate

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(luk3.sequent, "instantiate", counting)
        for tree in proofs:
            again = proof_from_doc(json.loads(json.dumps(proof_to_doc(tree))))
            assert again == tree
            nodes = _distinct_nodes(again)
            assert len(nodes) == len(_distinct_nodes(tree))
            calls = 0
            assert check_proof(again, tree.conclusion)
            assert calls == sum(node.rule != "axiom" for node in nodes)

    def test_writer_prints_each_distinct_node_once(self, monkeypatch):
        tree = prove(parse_sequent("[ ; ; p | p -> p & p]"))
        expected = proof_to_doc(tree)
        formatted = []
        real = luk3.sequent._format_component

        def counting(comp):
            formatted.append(comp)
            return real(comp)

        monkeypatch.setattr(luk3.sequent, "_format_component", counting)
        doc = proof_to_doc(tree)
        assert doc == expected
        # each distinct component is formatted once per document
        components = {comp for node in _distinct_nodes(tree) for comp in node.conclusion}
        assert len(formatted) == len(set(formatted)) and set(formatted) == components
        nodes = [node for _, node in _doc_nodes(doc)]
        assert len(nodes) > len(_distinct_nodes(tree))  # shared subtrees are written out per occurrence
        assert len({id(node) for node in nodes}) == len(nodes)
        copies = [node for node in nodes if node["sequent"] == "[p ; p | p ; p]"]
        assert len(copies) == 4
        copies[0]["rule"] = "axiom"  # editing one occurrence leaves the others
        assert [node["rule"] for node in copies[1:]] == ["|:2"] * (len(copies) - 1)

    @pytest.mark.parametrize(("below", "copy"), [
        pytest.param((), 1, id="node"),
        pytest.param((0,), 1, id="its-premise"),
        pytest.param((), 0, id="first-node"),
        pytest.param((0,), 0, id="first-its-premise"),
    ])
    def test_mutated_copy_is_not_merged(self, below, copy):
        root = parse_sequent("[ ; ; p | p -> p & p]")
        doc = proof_to_doc(prove(root))
        paths = [path for path, node in _doc_nodes(doc)
                 if node["rule"] == "|:2" and node["sequent"] == "[p ; p | p ; p]"]
        assert len(paths) == 4  # one subtree written out four times
        genuine = proof_from_doc(doc)
        assert len({id(_follow(genuine, path)) for path in paths}) == 1

        # bump the text of one copy, or of the axiom below it, only; a bumped
        # first copy is the one the reader meets first with that text
        target = paths[copy] + below
        bumped = _follow(genuine, target).conclusion
        bumped = print_sequent(bumped.with_component(1, bumped.gamma1 | {Atom("zz_mut")}))
        read = proof_from_doc(_replaced(doc, target, bumped))
        assert _follow(read, target).conclusion == parse_sequent(bumped)
        mutated = _follow(read, paths[copy])
        others = [_follow(read, path) for path in paths if path != paths[copy]]
        assert all(other == others[0] != mutated for other in others)
        # the reader keeps the first node it reads with each text, so the
        # later copies are read in full when an edit below the first copy
        # leaves its text
        edited_first = copy == 0 and below
        assert len({id(other) for other in others}) == (len(others) if edited_first else 1)
        assert not check_proof(read, root)

    def test_reader_visits_each_distinct_node_once(self, pool, monkeypatch):
        proofs = [t for t in (prove(Sequent3.of((), (), (f,))) for f in pool) if t]
        assert len(proofs) == 232
        calls = 0
        real = luk3.sequent._node_fields

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(luk3.sequent, "_node_fields", counting)
        for tree in proofs:
            doc = proof_to_doc(tree)
            # the writers' component table changes no text
            assert all(node["sequent"] == print_sequent(_follow(tree, path).conclusion)
                       for path, node in _doc_nodes(doc))
            doc = json.loads(json.dumps(doc))
            calls = 0
            assert proof_from_doc(doc) == tree
            # an equal later copy of a subtree is taken whole, unvisited
            assert calls == 1 + sum(len(node.premises) for node in _distinct_nodes(tree))
        chains = [r for r in (refute(AntiSequent3.of((), (), (f,))) for f in pool) if r]
        assert len(chains) == len(pool) - len(proofs)
        for chain in chains:
            doc = refutation_to_doc(chain)
            while chain is not None:
                assert doc["sequent"] == print_antisequent(chain.conclusion)
                chain, doc = chain.premise, (doc["premises"] or [None])[0]
            assert doc is None

    def test_each_entry_is_tokenized_once(self, pool, monkeypatch):
        proofs = [t for t in (prove(Sequent3.of((), (), (f,))) for f in pool) if t]
        assert len(proofs) == 232
        seen: list[str] = []
        real = luk3.syntax.tokenize

        def counting(text, *args):
            seen.append(text)
            return real(text, *args)

        monkeypatch.setattr(luk3.syntax, "tokenize", counting)
        for tree in proofs:
            doc = json.loads(json.dumps(proof_to_doc(tree)))
            entries = {entry.strip() for _, node in _doc_nodes(doc)
                       for field in node["sequent"][1:-1].split(";")
                       for entry in field.split(",") if entry.strip()}
            seen.clear()
            assert proof_from_doc(doc) == tree
            assert len(seen) == len(set(seen)) and set(seen) <= entries

    def test_entry_table_holds_the_live_canonical_texts(self, monkeypatch):
        # atoms of their own, so that no other test keeps these formulas alive
        doc = proof_to_doc(prove(parse_sequent("[ ; ; e_p & e_q -> e_q | e_r]")))
        texts = {entry.strip() for _, node in _doc_nodes(doc)
                 for field in node["sequent"][1:-1].split(";")
                 for entry in field.split(",") if entry.strip()}
        seen: list[str] = []
        real = luk3.syntax.tokenize

        def counting(text, *args):
            seen.append(text)
            return real(text, *args)

        monkeypatch.setattr(luk3.syntax, "tokenize", counting)
        first = proof_from_doc(doc)
        assert set(seen) == texts <= set(luk3.sequent._entries)
        seen.clear()
        assert proof_from_doc(doc) == first and seen == []  # no entry is tokenized again
        # entries that are not a canonical print are read, but not kept
        odd = proof_from_doc({"rule": "axiom", "sequent": "[(e_p), e_p&e_q ; e_p ; e_p]",
                              "premises": []})
        assert odd.conclusion == parse_sequent("[e_p, e_p & e_q ; e_p ; e_p]")
        assert "e_p" in luk3.sequent._entries
        assert not {"(e_p)", "e_p&e_q"} & set(luk3.sequent._entries)
        assert all(print_formula(f) == text for text, f in luk3.sequent._entries.items())
        del first, odd
        gc.collect()
        assert not texts & set(luk3.sequent._entries)

    def test_threads_read_through_one_entry_table(self):
        # Readers in several threads enter the same texts, and drop them as
        # their trees die, at once: each must still read back its own proof.
        threads, rounds = 4, 8
        roots = [parse_sequent(f"[ ; ; t_{i} & t_{i + 1} -> t_{i + 1} | t_{i}]")
                 for i in range(10)]
        docs = [proof_to_doc(prove(root)) for root in roots]
        texts = [print_sequent(root) for root in roots]
        del roots
        barrier = threading.Barrier(threads, timeout=10)
        wrong: list[str] = []

        def read(k):
            barrier.wait()
            for r in range(rounds):
                for text, doc in zip(texts, docs):
                    if not check_proof(proof_from_doc(doc), parse_sequent(text)):
                        wrong.append(text)
                if r % threads == k:
                    gc.collect()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=read, args=(k,)) for k in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []
        assert all(print_formula(f) == text for text, f in luk3.sequent._entries.items())

    def test_reading_leaves_no_cycle(self):
        doc = proof_to_doc(prove(parse_sequent("[ ; ; p -> p | p]")))
        gc.collect()
        gc.disable()
        try:
            assert proof_from_doc(doc)
            assert gc.collect() == 0  # the per-document tables go with the call
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", ["prove", "check_proof", "proof_to_doc"])
    def test_calls_leave_no_cycle(self, call):
        s = parse_sequent("[ ; ; p -> p | p]")
        tree = prove(s)
        run = {"prove": lambda: prove(s),
               "check_proof": lambda: check_proof(tree, s),  # a tree not checked before
               "proof_to_doc": lambda: proof_to_doc(tree)}[call]
        gc.collect()
        gc.disable()
        try:
            assert run()
            assert gc.collect() == 0  # the per-call tables go with the call
        finally:
            gc.enable()

    @pytest.mark.parametrize("text", [
        "[p ; q % ; r\n ; r]",     # a comment in a field
        "[p ; q ; r %]\n]",
        "[p ; q ; r % , s\n]",
        "[p ; q ; r",              # no closing bracket
        "[p ; p ; p\n | q]",       # a newline inside an entry
        "[p ; p ; p |\n ~ ]",
        " [p ; p ; p]",            # text outside the brackets
        "[p ; p ; p]\n",
        "[p,\tq\t;\t;\tp]",       # tab separators
        "[\t ; \r ; \n]",
        "[p,,q ; ; p]",            # empty entries
        "[p, ; ; p]",
        "[ , ; ; p]",
        "[p ; [q ; p]",            # a stray bracket in a field
        "[p ; q] ; p]",
        "[p ; p]",                 # two or four fields
        "[p ; p ; p ; p]",
        "[p q ; ; p]",             # entries that are not one formula
        "[p ; ~ ; p]",
        "[p ; (p ; p)]",
        "[p ; p ; p\x0c]",
        "[P ; ; p]",
        "![p ; p ; p]",
        pytest.param("[" + "~" * 3000 + "p ; ; p @]", id="too-deep-then-bad-character"),
    ])
    def test_reader_agrees_with_parse_sequent(self, text):
        doc = {"rule": "axiom", "sequent": text, "premises": []}
        try:
            expected = parse_sequent(text)
        except ParseError as err:
            with pytest.raises(ParseError) as got:
                proof_from_doc(doc)
            assert ((got.value.message, got.value.line, got.value.column)
                    == (err.message, err.line, err.column))
        else:
            assert proof_from_doc(doc).conclusion == expected

    @pytest.mark.parametrize("bad", [
        "[p ; p ; p | p, ~]",    # the entry p | p was read before the error
        "[p ; p ; p | p p]",     # a new entry that starts like one read before
        "[p ; p ; (p | p]",      # an entry not read before
        "[p ; p ;\n p | p ; q]",  # after a line break, past an entry read before
    ])
    def test_parse_errors_unchanged_deep_in_a_document(self, bad):
        doc = proof_to_doc(prove(parse_sequent("[ ; ; p & p -> p | p]")))
        path = (1, 0)
        assert _follow(proof_from_doc(doc), path).conclusion == parse_sequent("[p ; p | p ; p | p]")
        assert "; p | p]" in doc["premises"][0]["sequent"]  # read earlier
        with pytest.raises(ParseError) as expected:
            parse_sequent(bad)
        with pytest.raises(ParseError) as got:
            proof_from_doc(_replaced(doc, path, bad))
        assert ((got.value.message, got.value.line, got.value.column)
                == (expected.value.message, expected.value.line, expected.value.column))
