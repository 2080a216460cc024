"""Command-line front end.

Exit codes: 0 the answer is yes (true/derivable), 1 the answer is no
(counter-evidence goes to stdout), 2 input or resource error (stderr only).
``--json`` switches stdout to the document format; ``--proof PATH`` writes
the certificate, validated by the independent checker first.
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
    print_antisequent,
    refutation_to_doc,
    refute,
)
from .defaults import (
    BraveProof,
    BraveSequent,
    SearchLimitError,
    SkepticalProof,
    SkepticalSequent,
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
    print_sequent,
    proof_to_doc,
    prove,
)
from .syntax import (
    DuplicateWarning,
    ParseError,
    parse_formula,
    parse_formula_list,
    parse_theory,
    print_default,
    print_formula,
    sort_key,
)

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


def _emit(args, doc: dict, text: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def _write_certificate(args, certificate) -> None:
    if getattr(args, "proof", None):
        # formatted before the file is opened, so a failure leaves no file behind
        text = format_certificate(certificate)
        with open(args.proof, "w", encoding="utf-8") as fh:
            fh.write(text)


def _interp_doc(interp: Interpretation) -> dict:
    return {name: v.symbol for name, v in interp.assignment}


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
# Commands


def _cmd_eval(args) -> int:
    value = evaluate(parse_formula(args.formula), Interpretation.from_text(args.interp))
    _emit(args, {"value": value.symbol}, value.symbol)
    return 0 if value is TruthValue.T else 1


def _cmd_valid(args) -> int:
    verdict = tt_valid(parse_formula(args.formula))
    if verdict:
        _emit(args, {"valid": True}, "valid")
        return 0
    counter = verdict.counter
    _emit(args, {"valid": False, "counter": _interp_doc(counter)}, counter.to_text())
    return 1


def _render_proof(tree: ProofTree) -> str:
    """One line per occurrence of a node, indented by its depth; a shared
    subtree is printed at each occurrence, but each distinct node's sequent
    is printed to text once."""
    texts: dict[int, str] = {}
    lines: list[str] = []
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        text = texts.get(id(node))
        if text is None:
            text = texts[id(node)] = print_sequent(node.conclusion)
        lines.append("  " * depth + f"{node.rule}: {text}")
        stack.extend((p, depth + 1) for p in reversed(node.premises))
    return "\n".join(lines)


def _cmd_prove(args) -> int:
    s = parse_sequent(args.sequent)
    result = prove(s)
    if result:
        _write_certificate(args, result)
        _emit(args, {"proved": True, "certificate": proof_to_doc(result)}, _render_proof(result))
        return 0
    counter = failure_countermodel(result, s)
    _emit(args, {"proved": False, "counter": _interp_doc(counter)}, counter.to_text())
    return 1


def _render_refutation(tree: RefutationTree) -> str:
    lines = []
    node = tree
    while node is not None:
        lines.append(f"{node.rule}: {print_antisequent(node.conclusion)}")
        node = node.premise
    return "\n".join(lines)


def _cmd_refute(args) -> int:
    a = parse_antisequent(args.antisequent)
    result = refute(a)
    if result:
        witness = countermodel_of(result)
        _write_certificate(args, result)
        _emit(args,
              {"refuted": True, "witness": _interp_doc(witness),
               "certificate": refutation_to_doc(result)},
              witness.to_text())
        return 0
    _emit(args, {"refuted": False}, "irrefutable")
    return 1


def _basis_text(basis) -> str:
    return ", ".join(print_formula(f) for f in sorted(basis, key=sort_key)) or "(empty)"


def _cmd_extensions(args) -> int:
    theory = _read_theory(args.theory)
    index_of = {d: i for i, d in enumerate(theory.defaults)}
    results = extensions(theory)
    docs = []
    lines = []
    for k, e in enumerate(results):
        fired = [index_of[d] for d in e.fired]
        docs.append({"basis": [print_formula(f) for f in sorted(e.basis, key=sort_key)],
                     "fired": fired})
        fired_text = ",".join(str(i) for i in fired) or "-"
        lines.append(f"extension {k}: {_basis_text(e.basis)} [fired: {fired_text}]")
    _emit(args, {"extensions": docs}, "\n".join(lines) if results else "no extensions")
    return 0 if results else 1


def _render_brave(proof: BraveProof) -> str:
    lines = ["derivable"]
    for step in proof.steps:
        if step.kind == "fired":
            lines.append(f"  fire {print_default(step.default)}")
        else:
            detail = step.kind
            if step.justification_index is not None:
                detail += f" {step.justification_index}"
            lines.append(f"  block {print_default(step.default)} ({detail})")
    lines.append(f"  basis: {_basis_text(proof.final_basis)}")
    return "\n".join(lines)


def _cmd_brave(args) -> int:
    theory = _read_theory(args.theory)
    query = BraveSequent(theory.facts, theory.defaults,
                         frozenset(parse_formula_list(args.sigma)),
                         frozenset(parse_formula_list(args.theta)))
    result = brave_prove(query)
    if result:
        _write_certificate(args, result)
        _emit(args, {"derivable": True, "certificate": brave_proof_to_doc(result)},
              _render_brave(result))
        return 0
    _emit(args, {"derivable": False}, "underivable")
    return 1


def _cmd_skeptical(args) -> int:
    theory = _read_theory(args.theory)
    query = SkepticalSequent(frozenset(parse_constraints(args.constraints)),
                             theory.facts, theory.defaults,
                             frozenset(parse_formula_list(args.goals)))
    result = skeptical_decide(query)
    if result:
        _write_certificate(args, result)
        lines = ["derivable"]
        for v in result.verdicts:
            if v.satisfies_constraints:
                lines.append(f"  extension {_basis_text(v.extension.basis)}: "
                             f"contains {print_formula(v.goal)}")
            else:
                lines.append(f"  extension {_basis_text(v.extension.basis)}: "
                             f"constraints not satisfied, skipped")
        _emit(args, {"derivable": True, "certificate": skeptical_proof_to_doc(result)},
              "\n".join(lines))
        return 0
    doc: dict = {"derivable": False}
    text = "underivable"
    if result.counterexample is not None:
        ce = result.counterexample
        doc["counterexample"] = {"basis": [print_formula(f) for f in sorted(ce.basis, key=sort_key)]}
        text += f"\ncounterexample extension: {_basis_text(ce.basis)}"
    _emit(args, doc, text)
    return 1


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="luk3",
        description="Three-valued default logic reasoner: validity, sequent "
                    "proofs, anti-sequent refutations, extensions, brave and "
                    "skeptical queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, proof=False):
        p.add_argument("--json", action="store_true",
                       help="emit the document format on stdout")
        if proof:
            p.add_argument("--proof", metavar="PATH",
                           help="write the certificate (canonical JSON) to PATH")

    p = sub.add_parser("eval", help="evaluate a formula under an interpretation")
    p.add_argument("formula")
    p.add_argument("--interp", default="", metavar="ASSIGN",
                   help="interpretation like a=t,b=u")
    common(p)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("valid", help="decide validity by truth tables")
    p.add_argument("formula")
    common(p)
    p.set_defaults(handler=_cmd_valid)

    p = sub.add_parser("prove", help="prove a three-sided sequent [f1, f2 ; ; g]")
    p.add_argument("sequent")
    common(p, proof=True)
    p.set_defaults(handler=_cmd_prove)

    p = sub.add_parser("refute", help="refute an anti-sequent ![f1 ; f2 ; f3]")
    p.add_argument("antisequent")
    common(p, proof=True)
    p.set_defaults(handler=_cmd_refute)

    p = sub.add_parser("extensions", help="enumerate the extensions of a .dl3 theory")
    p.add_argument("theory", help="path to a .dl3 file")
    common(p)
    p.set_defaults(handler=_cmd_extensions)

    p = sub.add_parser("brave",
                       help="brave query: some extension contains every --in "
                            "formula and no --out formula")
    p.add_argument("theory", help="path to a .dl3 file")
    p.add_argument("--in", dest="sigma", default="", metavar="FORMULAS",
                   help="comma-separated formulas required in the extension")
    p.add_argument("--out", dest="theta", default="", metavar="FORMULAS",
                   help="comma-separated formulas forbidden in the extension")
    common(p, proof=True)
    p.set_defaults(handler=_cmd_brave)

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
    common(p, proof=True)
    p.set_defaults(handler=_cmd_skeptical)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, ValueError, UndeclaredAtomError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchLimitError, RecursionError) as exc:
        # RecursionError: a formula nested deeper than the recursive parser,
        # printer and calculi can follow
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
