"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of ``luk3.syntax``,
``luk3.semantics``, ``luk3.sequent``, ``luk3.antisequent`` and
``luk3.defaults`` with wrappers, in every luk3 module namespace that binds
them (``from .sequent import prove`` makes a binding of its own, which is
how calls from ``luk3.defaults`` into the calculi are told apart).  Entry
points record spans (name, start, end, parent span, query id); hot inner
functions (``sort_key``, ``evaluate``, ``instantiate``, ``apply_antirule``,
``gamma``) are only counted, attributed to the innermost open span.  A
span's self time is its duration minus that of its child spans.

Wrappers do nothing but call through while the tracer is inactive, so set-up
and reference checks outside the timed phase are not traced.  Spans are kept
in memory and written out by ``dump``.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter_ns

import luk3
import luk3.antisequent
import luk3.cli
import luk3.defaults
import luk3.semantics
import luk3.sequent
import luk3.syntax

MODULES = (luk3.syntax, luk3.semantics, luk3.sequent, luk3.antisequent,
           luk3.defaults, luk3.cli, luk3)

# (module, function, span name); span names group functions into layer metrics.
SPANS = [
    (luk3.syntax, "parse_formula", "syntax.parse"),
    (luk3.syntax, "parse_formula_list", "syntax.parse"),
    (luk3.syntax, "parse_default", "syntax.parse"),
    (luk3.syntax, "parse_theory", "syntax.parse"),
    (luk3.sequent, "parse_sequent", "syntax.parse"),
    (luk3.antisequent, "parse_antisequent", "syntax.parse"),
    (luk3.defaults, "parse_constraints", "syntax.parse"),
    (luk3.syntax, "print_formula", "syntax.print"),
    (luk3.syntax, "print_default", "syntax.print"),
    (luk3.sequent, "print_sequent", "syntax.print"),
    (luk3.antisequent, "print_antisequent", "syntax.print"),
    (luk3.defaults, "print_constraint", "syntax.print"),
    (luk3.semantics, "tt_valid", "semantics.tt"),
    (luk3.semantics, "tt_entails", "semantics.tt"),
    (luk3.semantics, "tt_sequent_true", "semantics.tt"),
    (luk3.semantics, "tt_sequent_valid", "semantics.tt"),
    (luk3.sequent, "prove", "sequent.prove"),
    (luk3.sequent, "check_proof", "sequent.check_proof"),
    (luk3.antisequent, "refute", "antisequent.refute"),
    (luk3.antisequent, "check_refutation", "antisequent.check_refutation"),
    (luk3.defaults, "extensions", "defaults.extensions"),
    (luk3.defaults, "brave_prove", "defaults.brave_prove"),
    (luk3.defaults, "skeptical_decide", "defaults.skeptical_decide"),
    (luk3.defaults, "check_brave_proof", "defaults.check_brave_proof"),
    (luk3.defaults, "check_skeptical_proof", "defaults.check_skeptical_proof"),
]

# (module, function, counter name); counted, never timed on their own.
COUNTS = [
    (luk3.syntax, "sort_key", "syntax.sort_key.calls"),
    (luk3.semantics, "evaluate", "semantics.evaluate.calls"),
    (luk3.sequent, "instantiate", "sequent.instantiate"),
    (luk3.antisequent, "apply_antirule", "antisequent.apply_antirule"),
    (luk3.defaults, "gamma", "defaults.gamma.calls"),
]

# The contexts that split a counter by the innermost open span.
CONTEXT = {
    "sequent.instantiate": {"sequent.prove": "search", "sequent.check_proof": "check"},
    "antisequent.apply_antirule": {"antisequent.refute": "search",
                                   "antisequent.check_refutation": "check"},
}


def _proof_nodes(tree) -> tuple[int, int]:
    """Distinct nodes and distinct inner nodes of a proof DAG."""
    seen: set[int] = set()
    inner = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.premises:
            inner += 1
            stack.extend(node.premises)
    return len(seen), inner


def _chain_steps(tree) -> int:
    steps = 0
    while tree.premise is not None:
        steps += 1
        tree = tree.premise
    return steps


class Tracer:
    def __init__(self):
        self.active = False
        self.query = -1
        self.raw: Counter = Counter()  # counters and self times in ns, summable across processes
        self.spans: list[tuple] = []  # (query, index, parent, name, start_ns, end_ns)
        self._stack: list[list] = []  # open spans: [index, name, child_ns]

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        replacements = {}
        for module, name, span in SPANS:
            replacements[id(getattr(module, name))] = (getattr(module, name), span, None)
        for module, name, counter in COUNTS:
            replacements[id(getattr(module, name))] = (getattr(module, name), None, counter)
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is None:
                    continue
                fn, span, counter = hit
                if span is not None:
                    caller = "defaults" if module is luk3.defaults and span in (
                        "sequent.prove", "antisequent.refute") else None
                    setattr(module, attr, self._span_wrapper(fn, span, caller))
                else:
                    setattr(module, attr, self._count_wrapper(fn, counter))

    def _count_wrapper(self, fn, counter):
        contexts = CONTEXT.get(counter)

        def wrapper(*args, **kwargs):
            if self.active:
                if contexts is None:
                    self.raw[counter] += 1
                else:
                    where = contexts.get(self._stack[-1][1]) if self._stack else None
                    self.raw[f"{counter}.{where or 'other'}.calls"] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, fn, span, caller):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            raw = self.raw
            index = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, span, 0]
            self._stack.append(frame)
            self.spans.append(None)
            before = raw["sequent.instantiate.check.calls"]
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[index] = (self.query, index, parent, span, start, end)
                self_ns = duration - frame[2]
                raw[span + ".calls"] += 1
                raw[span + ".ns"] += self_ns
                if caller is not None:
                    short = span.split(".")[1]
                    raw[f"defaults.entail.{short}.calls"] += 1
                    raw[f"defaults.entail.{short}.ns"] += duration
                self._account(span, args, result, self_ns,
                              raw["sequent.instantiate.check.calls"] - before)

        wrapper.__wrapped__ = fn
        return wrapper

    def _account(self, span, args, result, self_ns, check_instantiates) -> None:
        raw = self.raw
        if span == "sequent.prove" and result:
            raw["sequent.proof_nodes"] += _proof_nodes(result)[0]
        elif span == "sequent.check_proof" and result:
            raw["check.inner_nodes"] += _proof_nodes(args[0])[1]
            raw["check.instantiates"] += check_instantiates
        elif span == "antisequent.refute":
            raw["antisequent.refute.%s.ns" % ("invalid" if result else "valid")] += self_ns
            if result:
                raw["refute.chain_steps"] += _chain_steps(result)
        elif span == "defaults.extensions" and result is not None:
            raw["extensions.kept"] += len(result)
            raw["extensions.candidates"] += 1 << len(args[0].defaults)
        elif span == "defaults.brave_prove" and result is not None and not result:
            raw["defaults.brave.failure_states"] += result.states

    # -- queries ----------------------------------------------------------------

    def start(self, query: int) -> None:
        self.query = query
        self.active = True

    def stop(self) -> None:
        self.active = False

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
