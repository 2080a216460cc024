"""Seeded single-node mutants of certificate documents.

The mutation kinds are those the test suite audits: bump one proof or
refutation node's conclusion with a fresh atom, flip or drop one brave
disposition, bump the brave basis, swap an obligation's formula, flip one
skeptical transcript record, verdict flag or piece of evidence.  Each kind
corrupts a certificate in a way the independent checkers must reject.  Here
one mutant is drawn per certificate, and it is made on the document, so that
it is serialized exactly like the genuine certificate.
"""

from __future__ import annotations

from luk3 import antisequent, sequent
from luk3.syntax import Atom

MUT = "zz_mut"


def _bumped(text: str) -> str:
    """The sequent or anti-sequent text with the fresh atom added to its
    first component, printed canonically."""
    if text.startswith("!"):
        a = antisequent.parse_antisequent(text)
        return antisequent.print_antisequent(a.with_component(1, a.component(1) | {Atom(MUT)}))
    s = sequent.parse_sequent(text)
    return sequent.print_sequent(s.with_component(1, s.component(1) | {Atom(MUT)}))


def tree_mutant(doc: dict, rng) -> dict:
    """Proof or refutation document with the node at the end of a random
    path bumped; only the nodes on the path are copied."""
    if doc["premises"] and rng.random() < 0.8:
        i = rng.randrange(len(doc["premises"]))
        premises = list(doc["premises"])
        premises[i] = tree_mutant(premises[i], rng)
        return {**doc, "premises": premises}
    return {**doc, "sequent": _bumped(doc["sequent"])}


def _set(items: list, i: int, item) -> list:
    return items[:i] + [item] + items[i + 1:]


def brave_mutant(doc: dict, rng) -> dict:
    options = []
    steps = doc["steps"]
    for i, step in enumerate(steps):
        flipped = {k: v for k, v in step.items() if k != "justification"}
        flipped["disposition"] = "blocked-prerequisite" if step["disposition"] == "fired" else "fired"
        options.append(lambda i=i, flipped=flipped: {**doc, "steps": _set(steps, i, flipped)})
        options.append(lambda i=i: {**doc, "steps": steps[:i] + steps[i + 1:]})
        if "groundedness" in step:
            options.append(lambda i=i, step=step: {**doc, "steps": _set(steps, i, {
                **step, "groundedness": tree_mutant(step["groundedness"], rng)})})
    options.append(lambda: {**doc, "basis": doc["basis"] + [MUT]})
    for key, inner in (("sigma_proofs", "proof"), ("theta_refutations", "refutation")):
        entries = doc[key]
        for i, entry in enumerate(entries):
            options.append(lambda key=key, entries=entries, i=i, entry=entry: {
                **doc, key: _set(entries, i, {**entry, "formula": MUT})})
            options.append(lambda key=key, entries=entries, i=i, entry=entry, inner=inner: {
                **doc, key: _set(entries, i, {**entry, inner: tree_mutant(entry[inner], rng)})})
    return rng.choice(options)()


def skeptical_mutant(doc: dict, rng) -> dict:
    options = []
    transcript, verdicts = doc["transcript"], doc["extensions"]
    for i, record in enumerate(transcript):
        options.append(lambda i=i, record=record: {
            **doc, "transcript": _set(transcript, i, {**record, "kept": not record["kept"]})})
    for i, v in enumerate(verdicts):
        def swap(new, i=i):
            return {**doc, "extensions": _set(verdicts, i, new)}

        options.append(lambda v=v, swap=swap: swap({**v, "basis": v["basis"] + [MUT]}))
        options.append(lambda v=v, swap=swap: swap(
            {**v, "satisfies_constraints": not v["satisfies_constraints"]}))
        for j, ev in enumerate(v["constraints"]):
            def swap_ev(new, v=v, j=j, swap=swap):
                return swap({**v, "constraints": _set(v["constraints"], j, new)})

            options.append(lambda ev=ev, swap_ev=swap_ev: swap_ev(
                {**ev, "satisfied": not ev["satisfied"]}))
            for inner in ("proof", "refutation"):
                if inner in ev:
                    options.append(lambda ev=ev, swap_ev=swap_ev, inner=inner: swap_ev(
                        {**ev, inner: tree_mutant(ev[inner], rng)}))
        if "goal" in v:
            options.append(lambda v=v, swap=swap: swap({**v, "goal": MUT}))
            options.append(lambda v=v, swap=swap: swap(
                {**v, "goal_proof": tree_mutant(v["goal_proof"], rng)}))
    return rng.choice(options)()
