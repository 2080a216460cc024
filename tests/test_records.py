"""Record contract: every record class of the public API, the formula
classes included, is an immutable value that prints like a dataclass, and
the records that validate their fields keep doing so.  Each compares and
hashes as its field tuple, except the interned formulas, which compare and
hash by identity: equal fields give one object."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys

import pytest

import luk3
from luk3.antisequent import AntiSequent3, RefutationFailure, RefutationTree
from luk3.defaults import (
    FIRED,
    BraveFailure,
    BraveProof,
    BraveSequent,
    CandidateRecord,
    ConstraintEvidence,
    Disposition,
    ExtensionBasis,
    ExtensionVerdict,
    SignedConstraint,
    SkepticalFailure,
    SkepticalProof,
    SkepticalSequent,
)
from luk3.semantics import Interpretation, TruthValue, Verdict
from luk3.sequent import ProofFailure, ProofTree, RuleInstance, Sequent3
from luk3.syntax import And, Atom, Cert, Default, DefaultTheory, Formula, Impl, Not, Or, Poss

P, Q = Atom("p"), Atom("q")
T, U = TruthValue.T, TruthValue.U

S = Sequent3.of((P,), (P,), (P,))
A = AntiSequent3.of((), (), (P,))
PROOF = ProofTree(S, "axiom")
REFUTATION = RefutationTree(A, "anti-axiom", witness=Interpretation.of(p=U))
D = Default(P, (Q,), Q)
BASIS = ExtensionBasis(frozenset({P}), (D,))
BRAVE = BraveSequent(frozenset({P}), (D,), frozenset({Q}), frozenset())
CONSTRAINT = SignedConstraint(True, P)
SKEPTICAL = SkepticalSequent(frozenset({CONSTRAINT}), frozenset({P}), (D,), frozenset({Q}))
EVIDENCE = ConstraintEvidence(CONSTRAINT, True, proof=PROOF)
RECORD = CandidateRecord(1, (0,), True)
VERDICT = ExtensionVerdict(BASIS, (EVIDENCE,), True, goal=Q, goal_proof=PROOF)

#: One sample per record class, with the field names in declaration order.
SAMPLES = {
    And: (And(P, Not(Q)), ("left", "right")),
    Atom: (P, ("name",)),
    Cert: (Cert(P), ("arg",)),
    Impl: (Impl(Poss(P), Q), ("left", "right")),
    Not: (Not(P), ("arg",)),
    Or: (Or(Q, P), ("left", "right")),
    Poss: (Poss(Not(Q)), ("arg",)),
    BraveFailure: (BraveFailure(BRAVE, 2), ("query", "states")),
    BraveProof: (BraveProof(BRAVE, (Disposition(D, FIRED, groundedness=PROOF),),
                            frozenset({P}), ((Q, PROOF),), ((Not(Q), REFUTATION),)),
                 ("query", "steps", "final_basis", "sigma_proofs", "theta_refutations")),
    BraveSequent: (BRAVE, ("gamma", "delta", "sigma", "theta")),
    CandidateRecord: (RECORD, ("rank", "fired_indices", "kept")),
    ConstraintEvidence: (EVIDENCE, ("constraint", "satisfied", "proof", "refutation")),
    Default: (D, ("prereq", "justifications", "consequent")),
    DefaultTheory: (DefaultTheory(frozenset({P}), (D,)), ("facts", "defaults")),
    Disposition: (Disposition(D, FIRED, groundedness=PROOF),
                  ("default", "kind", "justification_index", "groundedness")),
    ExtensionBasis: (BASIS, ("basis", "fired")),
    ExtensionVerdict: (VERDICT, ("extension", "evidence", "satisfies_constraints", "goal",
                                 "goal_proof")),
    Interpretation: (Interpretation.of(p=T, q=U), ("assignment",)),
    ProofFailure: (ProofFailure(Sequent3.of((), (), (P,))), ("leaf",)),
    ProofTree: (ProofTree(Sequent3.of((P,), (), (Not(P), P)), "~:3", (PROOF,)),
                ("conclusion", "rule", "premises")),
    RefutationFailure: (RefutationFailure(A), ("root",)),
    RefutationTree: (RefutationTree(AntiSequent3.of((), (), (Not(P),)), "~:3@u", REFUTATION),
                     ("conclusion", "rule", "premise", "witness")),
    RuleInstance: (RuleInstance("~:3", Not(P), 3, (S,), S),
                   ("name", "principal", "position", "premises", "conclusion")),
    SignedConstraint: (CONSTRAINT, ("positive", "formula")),
    SkepticalFailure: (SkepticalFailure(SKEPTICAL, BASIS), ("query", "counterexample")),
    SkepticalProof: (SkepticalProof(SKEPTICAL, (RECORD,), (VERDICT,)),
                     ("query", "transcript", "verdicts")),
    SkepticalSequent: (SKEPTICAL, ("sigma", "gamma", "delta", "theta")),
    Verdict: (Verdict(False, Interpretation.of(p=U)), ("holds", "counter")),
}

CLASSES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in SAMPLES[type(record)][1])


def test_every_public_record_has_a_sample():
    records = {obj for obj in map(luk3.__dict__.get, luk3.__all__)
               if isinstance(obj, type) and hasattr(obj, "__match_args__")
               and obj is not Formula}
    assert records and records <= set(SAMPLES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_in_order(self, cls):
        record, names = SAMPLES[cls]
        assert cls.__match_args__ == names
        assert cls(*values(record)) == record

    def test_hash_is_that_of_the_field_tuple(self, cls):
        record, _ = SAMPLES[cls]
        if issubclass(cls, Formula):
            assert cls.__hash__ is object.__hash__ and "_hash" not in Formula.__slots__
        else:
            assert hash(record) == hash(values(record))
        assert hash(cls(*values(record))) == hash(record)

    def test_repr_is_dataclass_style(self, cls):
        record, names = SAMPLES[cls]
        fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in names)
        assert repr(record) == f"{cls.__name__}({fields})"

    def test_assignment_raises(self, cls):
        record, names = SAMPLES[cls]
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert values(record) == values(SAMPLES[cls][0])

    def test_copies_round_trip(self, cls):
        record, _ = SAMPLES[cls]
        clones = [copy.copy(record), copy.deepcopy(record)]
        clones += [pickle.loads(pickle.dumps(record, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is cls and clone == record and hash(clone) == hash(record)


class TestRecordValues:
    def test_repr_text(self):
        assert repr(Verdict(True)) == "Verdict(holds=True, counter=None)"
        assert repr(Interpretation.of(q=U, p=T)) == (
            "Interpretation(assignment=(('p', <TruthValue.T: 2>), ('q', <TruthValue.U: 1>)))")
        assert repr(PROOF) == (
            "ProofTree(conclusion=Sequent3(gamma1=frozenset({Atom(name='p')}), "
            "gamma2=frozenset({Atom(name='p')}), gamma3=frozenset({Atom(name='p')})), "
            "rule='axiom', premises=())")
        assert repr(D) == ("Default(prereq=Atom(name='p'), justifications=(Atom(name='q'),), "
                           "consequent=Atom(name='q'))")

    def test_defaults_fill_in(self):
        assert Verdict(True).counter is None
        assert ExtensionBasis(frozenset()).fired == ()
        assert ProofTree(S, "axiom").premises == ()
        assert RefutationTree(A, "anti-axiom")[2:] == (None, None)
        assert Disposition(D, FIRED)[2:] == (None, None)

    @pytest.mark.parametrize("record", [
        ProofFailure(S), RefutationFailure(A), BraveFailure(BRAVE, 2),
        SkepticalFailure(SKEPTICAL, None), Verdict(False),
    ], ids=lambda record: type(record).__name__)
    def test_failures_are_false(self, record):
        assert not record and bool(record) is False

    def test_successes_are_true(self):
        assert Verdict(True) and PROOF and REFUTATION and SAMPLES[BraveProof][0]

    def test_records_of_another_class_differ(self):
        assert Interpretation(()) != () and Interpretation(()) == Interpretation(())

    def test_named_tuples_equal_their_field_tuple(self):
        assert PROOF != SAMPLES[ProofTree][0] and PROOF == tuple(values(PROOF))
        assert Verdict(True) == (True, None)

    def test_validation_messages(self):
        with pytest.raises(ValueError, match="^a default needs at least one justification$"):
            Default(P, (), Q)
        with pytest.raises(ValueError, match="^a default needs at least one justification$"):
            D._replace(justifications=())
        with pytest.raises(ValueError, match="^duplicate default in theory$"):
            DefaultTheory(frozenset(), (D, D))
        with pytest.raises(ValueError, match="^duplicate default in theory$"):
            DefaultTheory(frozenset(), (D,))._replace(defaults=(D, D))
        with pytest.raises(ValueError, match="^duplicate atom in interpretation$"):
            Interpretation((("p", T), ("p", U)))

    def test_replace_keeps_the_class(self):
        assert D._replace(consequent=P) == Default(P, (Q,), P)
        assert type(D._replace(consequent=P)) is Default
        assert Verdict(True)._replace(holds=False) == Verdict(False)
        assert type(PROOF._replace(rule="~:3")) is ProofTree
        assert PROOF._replace(premises=(PROOF,)) == ProofTree(S, "axiom", (PROOF,))

    def test_interpretation_sorts_and_looks_up(self):
        i = Interpretation((("q", U), ("p", T)))
        assert i.assignment == (("p", T), ("q", U)) and i.atoms == ("p", "q")
        for clone in (copy.deepcopy(i), pickle.loads(pickle.dumps(i))):
            assert clone.value("q") is U and clone.as_dict() == {"p": T, "q": U}

    def test_match_patterns(self):
        match PROOF:
            case ProofTree(conclusion, "axiom", ()):
                assert conclusion == S
            case _:
                pytest.fail("ProofTree pattern did not match")
        match Interpretation.of(p=T):
            case Interpretation(assignment=(("p", value),)):
                assert value is T
            case _:
                pytest.fail("Interpretation pattern did not match")


def test_cli_import_leaves_heavy_modules_unloaded():
    # the CLI pays for every module it imports on each invocation
    code = (
        "import sys\n"
        "import luk3.cli\n"
        "heavy = {'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)\n"
        "assert not heavy, sorted(heavy)\n"
        "import dataclasses\n"
        "from luk3.syntax import Atom\n"
        "try:\n"
        "    Atom('a').name = 'b'\n"
        "except dataclasses.FrozenInstanceError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('Atom accepted an assignment')\n"
    )
    src = os.path.dirname(os.path.dirname(luk3.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
