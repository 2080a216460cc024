"""Metric names and units, and the per-layer metrics computed from the
tracer's raw counters.  Imports nothing from luk3, so the parent process can
use it."""

from __future__ import annotations

from collections import Counter

# Failure kinds that mean a wrong answer was given; the others (an uncaught
# exception, a budget refusal) mean no answer was given.
WRONG = ("wrong-verdict", "wrong-exit", "wrong-output",
         "checker-rejected-genuine", "checker-accepted-mutant")

END_TO_END = [("setup_s", "s"), ("query_p50_ms", "ms"), ("query_tail_ms", "ms"),
              ("queries_per_s", "1/s"), ("peak_rss_mb", "MB"), ("cert_kb", "KB")]

LAYER_METRICS = [
    ("syntax.parse.s", "s"), ("syntax.parse.calls", "count"), ("syntax.print.s", "s"),
    ("syntax.sort_key.calls", "count"),
    ("semantics.tt.calls", "count"), ("semantics.tt.s", "s"),
    ("semantics.evaluate.calls", "count"),
    ("sequent.prove.calls", "count"), ("sequent.prove.s", "s"),
    ("sequent.proof_nodes", "count"), ("sequent.instantiate.search.calls", "count"),
    ("sequent.instantiate.check.calls", "count"), ("sequent.check_proof.calls", "count"),
    ("sequent.check_proof.s", "s"), ("sequent.check.instantiate_per_node", "ratio"),
    ("antisequent.refute.calls", "count"), ("antisequent.refute.valid.s", "s"),
    ("antisequent.refute.invalid.s", "s"), ("antisequent.apply_antirule.calls", "count"),
    ("antisequent.chain_per_antirule", "ratio"), ("antisequent.check_refutation.s", "s"),
    ("defaults.extensions.s", "s"), ("defaults.brave_prove.s", "s"),
    ("defaults.skeptical_decide.s", "s"), ("defaults.gamma.calls", "count"),
    ("defaults.kept_per_candidate", "ratio"), ("defaults.entail.prove.calls", "count"),
    ("defaults.entail.refute.calls", "count"), ("defaults.entail.refute.s", "s"),
    ("defaults.brave.failure_states", "count"), ("defaults.check_brave_proof.s", "s"),
    ("defaults.check_skeptical_proof.s", "s"),
]

# Metrics that must repeat exactly across two runs with the same seed.
EXACT = [name for name, unit in LAYER_METRICS if unit in ("count", "ratio")]

CLI_LAYER = [("cli.python_startup_ms", "ms"), ("cli.import_ms", "ms"), ("cli.command_ms", "ms")]


def layer_metrics(raw: Counter) -> dict[str, float]:
    """Per-layer metrics from summed raw counters."""
    def s(key):
        return raw[key] / 1e9

    def ratio(num, den):
        return raw[num] / raw[den] if raw[den] else 0.0

    return {
        "syntax.parse.s": s("syntax.parse.ns"),
        "syntax.parse.calls": raw["syntax.parse.calls"],
        "syntax.print.s": s("syntax.print.ns"),
        "syntax.sort_key.calls": raw["syntax.sort_key.calls"],
        "semantics.tt.calls": raw["semantics.tt.calls"],
        "semantics.tt.s": s("semantics.tt.ns"),
        "semantics.evaluate.calls": raw["semantics.evaluate.calls"],
        "sequent.prove.calls": raw["sequent.prove.calls"],
        "sequent.prove.s": s("sequent.prove.ns"),
        "sequent.proof_nodes": raw["sequent.proof_nodes"],
        "sequent.instantiate.search.calls": raw["sequent.instantiate.search.calls"],
        "sequent.instantiate.check.calls": raw["sequent.instantiate.check.calls"],
        "sequent.check_proof.calls": raw["sequent.check_proof.calls"],
        "sequent.check_proof.s": s("sequent.check_proof.ns"),
        "sequent.check.instantiate_per_node": ratio("check.inner_nodes", "check.instantiates"),
        "antisequent.refute.calls": raw["antisequent.refute.calls"],
        "antisequent.refute.valid.s": s("antisequent.refute.valid.ns"),
        "antisequent.refute.invalid.s": s("antisequent.refute.invalid.ns"),
        "antisequent.apply_antirule.calls": raw["antisequent.apply_antirule.search.calls"]
        + raw["antisequent.apply_antirule.check.calls"]
        + raw["antisequent.apply_antirule.other.calls"],
        "antisequent.chain_per_antirule": ratio("refute.chain_steps",
                                                "antisequent.apply_antirule.search.calls"),
        "antisequent.check_refutation.s": s("antisequent.check_refutation.ns"),
        "defaults.extensions.s": s("defaults.extensions.ns"),
        "defaults.brave_prove.s": s("defaults.brave_prove.ns"),
        "defaults.skeptical_decide.s": s("defaults.skeptical_decide.ns"),
        "defaults.gamma.calls": raw["defaults.gamma.calls"],
        "defaults.kept_per_candidate": ratio("extensions.kept", "extensions.candidates"),
        "defaults.entail.prove.calls": raw["defaults.entail.prove.calls"],
        "defaults.entail.refute.calls": raw["defaults.entail.refute.calls"],
        "defaults.entail.refute.s": s("defaults.entail.refute.ns"),
        "defaults.brave.failure_states": raw["defaults.brave.failure_states"],
        "defaults.check_brave_proof.s": s("defaults.check_brave_proof.ns"),
        "defaults.check_skeptical_proof.s": s("defaults.check_skeptical_proof.ns"),
    }
