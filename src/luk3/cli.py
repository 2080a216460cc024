"""Command-line front end.

Exit codes: 0 the answer is yes (true/derivable), 1 the answer is no
(counter-evidence goes to stdout), 2 input or resource error (stderr only).

Each command computes its answer and returns it with one document and the
certificate to write, if any.  ``--json`` prints that document; without it
stdout is a text view rendered from the same document, so ``--json``
changes stdout only.  ``--proof PATH`` writes the certificate, validated by
the independent checker first.  ``main`` alone writes, prints and picks the
exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .antisequent import (
    RefutationTree,
    check_refutation,
    countermodel_of,
    parse_antisequent,
    refutation_to_doc,
    refute,
)
from .defaults import (
    BraveProof,
    BraveSequent,
    SearchLimitError,
    SkepticalProof,
    SkepticalSequent,
    _formula_list_doc,
    brave_proof_to_doc,
    brave_prove,
    check_brave_proof,
    check_skeptical_proof,
    extensions,
    parse_constraints,
    skeptical_decide,
    skeptical_proof_to_doc,
)
from .semantics import Interpretation, TruthValue, UndeclaredAtomError, evaluate, tt_valid
from .sequent import (
    ProofTree,
    check_proof,
    failure_countermodel,
    parse_sequent,
    proof_to_doc,
    prove,
)
from .syntax import DuplicateWarning, ParseError, parse_formula, parse_formula_list, parse_theory

__all__ = ["format_certificate", "main"]


def format_certificate(certificate) -> str:
    """Canonical JSON for a proof, refutation, brave or skeptical certificate.

    The matching checker runs first; a certificate it rejects raises
    ValueError rather than being serialized.
    """
    if isinstance(certificate, ProofTree):
        ok, doc = check_proof(certificate), proof_to_doc(certificate)
    elif isinstance(certificate, RefutationTree):
        ok, doc = check_refutation(certificate), refutation_to_doc(certificate)
    elif isinstance(certificate, BraveProof):
        ok, doc = check_brave_proof(certificate), brave_proof_to_doc(certificate)
    elif isinstance(certificate, SkepticalProof):
        ok, doc = check_skeptical_proof(certificate), skeptical_proof_to_doc(certificate)
    else:
        raise ValueError(f"not a certificate: {certificate!r}")
    if not ok:
        raise ValueError("malformed certificate")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _interp_doc(interp: Interpretation) -> dict:
    return {name: v.symbol for name, v in interp.assignment}


def _basis_text(formulas: list[str]) -> str:
    return ", ".join(formulas) or "(empty)"


def _read_theory(path: str):
    """The theory in ``path``; each dropped duplicate line is reported on
    stderr as one ``warning:`` line."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DuplicateWarning)
        theory = parse_theory(text)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return theory


# ---------------------------------------------------------------------------
# Commands, each with the view that renders its document as text


#: What a command returns: its answer (yes or no), the document ``--json``
#: prints, and the certificate ``--proof`` writes, or None.
_Answer = tuple[bool, dict, object]


def _cmd_eval(args) -> _Answer:
    value = evaluate(parse_formula(args.formula), Interpretation.from_text(args.interp))
    return value is TruthValue.T, {"value": value.symbol}, None


def _view_eval(doc: dict) -> str:
    return doc["value"]


def _cmd_valid(args) -> _Answer:
    verdict = tt_valid(parse_formula(args.formula))
    if verdict:
        return True, {"valid": True}, None
    return False, {"valid": False, "counter": _interp_doc(verdict.counter)}, None


def _view_valid(doc: dict) -> str:
    return "valid" if doc["valid"] else Interpretation.from_mapping(doc["counter"]).to_text()


def _cmd_prove(args) -> _Answer:
    s = parse_sequent(args.sequent)
    result = prove(s)
    if result:
        return True, {"proved": True, "certificate": proof_to_doc(result)}, result
    counter = failure_countermodel(result, s)
    return False, {"proved": False, "counter": _interp_doc(counter)}, None


def _view_prove(doc: dict) -> str:
    """One line per node of the certificate document, indented by its depth."""
    if not doc["proved"]:
        return Interpretation.from_mapping(doc["counter"]).to_text()
    lines: list[str] = []
    stack = [(doc["certificate"], 0)]
    while stack:
        node, depth = stack.pop()
        lines.append("  " * depth + f"{node['rule']}: {node['sequent']}")
        stack.extend((p, depth + 1) for p in reversed(node["premises"]))
    return "\n".join(lines)


def _cmd_refute(args) -> _Answer:
    result = refute(parse_antisequent(args.antisequent))
    if result:
        return True, {"refuted": True, "witness": _interp_doc(countermodel_of(result)),
                      "certificate": refutation_to_doc(result)}, result
    return False, {"refuted": False}, None


def _view_refute(doc: dict) -> str:
    if not doc["refuted"]:
        return "irrefutable"
    return Interpretation.from_mapping(doc["witness"]).to_text()


def _cmd_extensions(args) -> _Answer:
    theory = _read_theory(args.theory)
    index_of = {d: i for i, d in enumerate(theory.defaults)}
    docs = [{"basis": _formula_list_doc(e.basis), "fired": [index_of[d] for d in e.fired]}
            for e in extensions(theory)]
    return bool(docs), {"extensions": docs}, None


def _view_extensions(doc: dict) -> str:
    lines = []
    for k, e in enumerate(doc["extensions"]):
        fired = ",".join(str(i) for i in e["fired"]) or "-"
        lines.append(f"extension {k}: {_basis_text(e['basis'])} [fired: {fired}]")
    return "\n".join(lines) or "no extensions"


def _cmd_brave(args) -> _Answer:
    theory = _read_theory(args.theory)
    query = BraveSequent(theory.facts, theory.defaults,
                         frozenset(parse_formula_list(args.sigma)),
                         frozenset(parse_formula_list(args.theta)))
    result = brave_prove(query)
    if result:
        return True, {"derivable": True, "certificate": brave_proof_to_doc(result)}, result
    return False, {"derivable": False}, None


def _view_brave(doc: dict) -> str:
    if not doc["derivable"]:
        return "underivable"
    lines = ["derivable"]
    for step in doc["certificate"]["steps"]:
        if step["disposition"] == "fired":
            lines.append(f"  fire {step['default']}")
        else:
            detail = step["disposition"]
            if "justification" in step:
                detail += f" {step['justification']}"
            lines.append(f"  block {step['default']} ({detail})")
    lines.append(f"  basis: {_basis_text(doc['certificate']['basis'])}")
    return "\n".join(lines)


def _cmd_skeptical(args) -> _Answer:
    theory = _read_theory(args.theory)
    query = SkepticalSequent(frozenset(parse_constraints(args.constraints)),
                             theory.facts, theory.defaults,
                             frozenset(parse_formula_list(args.goals)))
    result = skeptical_decide(query)
    if result:
        return True, {"derivable": True, "certificate": skeptical_proof_to_doc(result)}, result
    return False, {"derivable": False, "counterexample": {
        "basis": _formula_list_doc(result.counterexample.basis)}}, None


def _view_skeptical(doc: dict) -> str:
    if not doc["derivable"]:
        return ("underivable\ncounterexample extension: "
                + _basis_text(doc["counterexample"]["basis"]))
    lines = ["derivable"]
    for v in doc["certificate"]["extensions"]:
        verdict = (f"contains {v['goal']}" if v["satisfies_constraints"]
                   else "constraints not satisfied, skipped")
        lines.append(f"  extension {_basis_text(v['basis'])}: {verdict}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luk3",
        description="Three-valued default logic reasoner: validity, sequent "
                    "proofs, anti-sequent refutations, extensions, brave and "
                    "skeptical queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, view, proof=False):
        p.add_argument("--json", action="store_true",
                       help="emit the document format on stdout")
        if proof:
            p.add_argument("--proof", metavar="PATH",
                           help="write the certificate (canonical JSON) to PATH")
        p.set_defaults(handler=handler, view=view)

    p = sub.add_parser("eval", help="evaluate a formula under an interpretation")
    p.add_argument("formula")
    p.add_argument("--interp", default="", metavar="ASSIGN",
                   help="interpretation like a=t,b=u")
    common(p, _cmd_eval, _view_eval)

    p = sub.add_parser("valid", help="decide validity by truth tables")
    p.add_argument("formula")
    common(p, _cmd_valid, _view_valid)

    p = sub.add_parser("prove", help="prove a three-sided sequent [f1, f2 ; ; g]")
    p.add_argument("sequent")
    common(p, _cmd_prove, _view_prove, proof=True)

    p = sub.add_parser("refute", help="refute an anti-sequent ![f1 ; f2 ; f3]")
    p.add_argument("antisequent")
    common(p, _cmd_refute, _view_refute, proof=True)

    p = sub.add_parser("extensions", help="enumerate the extensions of a .dl3 theory")
    p.add_argument("theory", help="path to a .dl3 file")
    common(p, _cmd_extensions, _view_extensions)

    p = sub.add_parser("brave",
                       help="brave query: some extension contains every --in "
                            "formula and no --out formula")
    p.add_argument("theory", help="path to a .dl3 file")
    p.add_argument("--in", dest="sigma", default="", metavar="FORMULAS",
                   help="comma-separated formulas required in the extension")
    p.add_argument("--out", dest="theta", default="", metavar="FORMULAS",
                   help="comma-separated formulas forbidden in the extension")
    common(p, _cmd_brave, _view_brave, proof=True)

    p = sub.add_parser(
        "skeptical",
        help="skeptical query: every constraint-satisfying extension contains "
             "some --goals formula",
        epilog="With empty --goals the query fails as soon as any extension "
               "satisfies the constraints: an empty goal set can never be met.")
    p.add_argument("theory", help="path to a .dl3 file")
    p.add_argument("--constraints", default="", metavar="CONSTRAINTS",
                   help="comma-separated +formula / -formula (bare formula means +)")
    p.add_argument("--goals", default="", metavar="FORMULAS",
                   help="comma-separated goal formulas")
    common(p, _cmd_skeptical, _view_skeptical, proof=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        answer, doc, certificate = args.handler(args)
        out = json.dumps(doc, indent=2, sort_keys=True) if args.json else args.view(doc)
        if certificate is not None and getattr(args, "proof", None):
            # formatted before the file is opened, so a failure leaves no file behind
            text = format_certificate(certificate)
            with open(args.proof, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(out)
        return 0 if answer else 1
    except (ParseError, ValueError, UndeclaredAtomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchLimitError, RecursionError) as exc:
        # RecursionError: a formula nested deeper than the recursive parser,
        # printer and calculi can follow
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
