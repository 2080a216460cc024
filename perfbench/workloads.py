"""The four workloads: inputs built at set-up, a fixed query list, and the
check of every outcome against a reference that is not the engine under test.

A workload object is built in a fresh worker process (its set-up), then its
``queries`` run once in order (the timed phase), then ``check`` compares the
outcomes with truth-table references.  Library functions are always called
through their module attribute so that a tracer installed beforehand sees
every call.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from time import perf_counter_ns

import inputs
import mutants
import oracle
from luk3 import antisequent, defaults, semantics, sequent, syntax
from luk3.antisequent import AntiSequent3
from luk3.defaults import SearchLimitError
from luk3.semantics import Interpretation, TruthValue


def canonical(doc) -> str:
    """Canonical JSON of a certificate document: sorted keys, no whitespace.
    (The CLI's ``--proof`` files add indentation; the cli workload counts
    those files as written.)"""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def cert_doc(cert) -> dict:
    if isinstance(cert, sequent.ProofTree):
        return sequent.proof_to_doc(cert)
    if isinstance(cert, antisequent.RefutationTree):
        return antisequent.refutation_to_doc(cert)
    if isinstance(cert, defaults.BraveProof):
        return defaults.brave_proof_to_doc(cert)
    return defaults.skeptical_proof_to_doc(cert)


def run_query(fn):
    """(value, error) of one query; any escaping exception is an outcome."""
    try:
        return fn(), None
    except SearchLimitError:
        return None, "refused"
    except Exception as exc:  # recorded and reported as a failure, never hidden
        return None, f"exception:{type(exc).__name__}"


class Workload:
    """Base: ``queries`` is a list of (label, thunk) pairs."""

    def __init__(self):
        self.queries: list[tuple[str, object]] = []

    # Whether the probe samples on a timer, during queries (see speed.py).
    PROBE_TIMER = True

    def timed_phase(self, probe, tracer=None) -> tuple[list[int], list[float], list]:
        """Raw latencies (ns), the same on the probe's scale, and outcomes.
        A traced pass takes no probe samples, so that none enters a span."""
        latencies, starts, outcomes = [], [], []
        timer = self.PROBE_TIMER and tracer is None
        if timer:
            probe.start_timer()
        try:
            for i, (_, fn) in enumerate(self.queries):
                if not timer and tracer is None:
                    probe.maybe_sample()
                if tracer is not None:
                    tracer.start(i)
                spent = probe.spent_ns
                start = perf_counter_ns()
                outcome = run_query(fn)
                latencies.append(perf_counter_ns() - start - (probe.spent_ns - spent))
                if tracer is not None:
                    tracer.stop()
                starts.append(start)
                outcomes.append(outcome)
        finally:
            if timer:
                probe.stop_timer()
        probe.sample()
        scaled = [ns * probe.scale(t, t + ns) for t, ns in zip(starts, latencies)]
        return latencies, scaled, outcomes

    def check(self, outcomes) -> dict:
        """Failures as (query index, label, kind), the verdict mix, and the
        canonical size of the certificates emitted."""
        failures, mix, cert_bytes = [], Counter(), 0
        for i, ((label, _), (value, error)) in enumerate(zip(self.queries, outcomes)):
            kind, tag, emitted = self.judge(i, value, error)
            mix[f"{label}:{tag}"] += 1
            cert_bytes += emitted
            if kind is not None:
                failures.append((i, label, kind))
        return {"failures": failures, "mix": dict(sorted(mix.items())),
                "cert_bytes": cert_bytes}


class Calculus(Workload):
    """Every corpus sequent as one ``prove`` and one ``refute`` query.

    The order is shuffled once, from a fixed seed, so that the costly
    three-sided sequents are spread over the timed phase; a per-seed order
    made peak memory vary by a sixth, through allocator fragmentation.
    """

    def __init__(self, seed):
        super().__init__()
        self.sequents = inputs.corpus(inputs.depth2_pool())
        random.Random(inputs.CORPUS_SEED).shuffle(self.sequents)
        for s in self.sequents:
            a = AntiSequent3(*s.components)
            self.queries.append(("prove", lambda s=s: sequent.prove(s)))
            self.queries.append(("refute", lambda a=a: antisequent.refute(a)))

    def check(self, outcomes):
        self.valid = [bool(semantics.tt_sequent_valid(s)) for s in self.sequents]
        return super().check(outcomes)

    def judge(self, i, value, error):
        valid = self.valid[i // 2]
        tag = "valid" if valid else "invalid"
        if error:
            return error, tag, 0
        expect = valid if i % 2 == 0 else not valid
        emitted = len(canonical(cert_doc(value))) if value else 0
        return (None if bool(value) == expect else "wrong-verdict"), tag, emitted


CHAIN_SIZES = (3, 4, 5, 6, 7)
CHAIN_TARGET = 12


def chain_queries():
    """(label, query, theory) of the chain part, in increasing default count.

    Underivable brave queries exhaust the disposition search, whose state
    count grows about fivefold per default; at the 12-default target the seed
    exceeds its state budget, which counts as a failure.
    """
    out = []
    z = syntax.Atom("z")
    for n in CHAIN_SIZES + (CHAIN_TARGET,):
        t = inputs.chain(n)
        first = syntax.Poss(syntax.Atom("a1"))  # only the chain's first default fires
        brave_yes = defaults.BraveSequent(t.facts, t.defaults, frozenset({syntax.Poss(z), first}),
                                          frozenset({syntax.Poss(syntax.Not(z))}))
        brave_no = defaults.BraveSequent(t.facts, t.defaults, frozenset({z}), frozenset())
        if n != CHAIN_TARGET:
            out.append(("chain-extensions", t, t))
            out.append(("chain-skeptical", defaults.SkepticalSequent(
                frozenset(), t.facts, t.defaults, frozenset({first})), t))
            out.append(("chain-skeptical", defaults.SkepticalSequent(
                frozenset(), t.facts, t.defaults, frozenset({syntax.Poss(z)})), t))
        out.append(("chain-brave", brave_yes, t))
        out.append(("chain-brave", brave_no, t))
    return out


class Defaults(Workload):
    """Shared-work part (family and non-normal theories), with the chain
    part's queries spread evenly through it in increasing size.

    The order is fixed, because it decides which queries fill the entailment
    caches and which hit them.  The spread keeps the many fast shared queries
    sampled over the whole timed phase instead of its first second.  The
    sweep queries, the non-normal theories and their queries are drawn once,
    from a fixed seed, so the workload takes nothing from the benchmark's
    seed: the median latency lies between the fast sweep queries and the
    slower rest, and a per-seed sweep moved it by a fifth.  With 110
    non-normal theories a pass holds over a thousand queries, so its tail is
    p99.
    """

    NON_NORMAL = 110

    def __init__(self, seed):
        super().__init__()
        family = inputs.family()
        brave, skeptical = inputs.sweep(family, random.Random(inputs.CORPUS_SEED))
        shared = [("family-extensions", t, t) for t in family]
        shared += [("family-brave", q, None) for q in brave]
        shared += [("family-skeptical", q, None) for q in skeptical]
        pool = inputs.non_normal_pool()
        fixed = random.Random(inputs.CORPUS_SEED)
        for t in inputs.non_normal_theories(fixed, self.NON_NORMAL):
            shared.append(("nonnormal-extensions", t, t))
            shared += [("nonnormal-brave", inputs.brave_query(t, pool, fixed), None)
                       for _ in range(2)]
            shared += [("nonnormal-skeptical", inputs.skeptical_query(t, pool, fixed), None)
                       for _ in range(2)]
        chain = chain_queries()
        step = len(shared) / len(chain)
        items = []
        for k, item in enumerate(chain):
            items += shared[round(k * step):round((k + 1) * step)] + [item]
        self.items = items
        for label, q, _ in items:
            if label.endswith("extensions"):
                fn = lambda q=q: defaults.extensions(q)
            elif label.endswith("brave"):
                fn = lambda q=q: defaults.brave_prove(q)
            else:
                fn = lambda q=q: defaults.skeptical_decide(q)
            self.queries.append((label, fn))

    def judge(self, i, value, error):
        label, q, theory = self.items[i]
        if label.endswith("extensions"):
            want = oracle.extensions(theory)
            tag = f"{len(want)}-extensions"
            if error:
                return error, tag, 0
            ok = len(value) == len(want) and {e.basis for e in value} == set(want)
            return (None if ok else "wrong-verdict"), tag, 0
        theory = syntax.DefaultTheory(q.gamma, q.delta)
        if label.endswith("brave"):
            want = oracle.brave_holds(theory, q.sigma, q.theta)
        else:
            want = oracle.skeptical_holds(theory, q.sigma, q.theta)
        tag = "derivable" if want else "underivable"
        if error:
            return error, tag + "-refused", 0
        emitted = len(canonical(cert_doc(value))) if value else 0
        return (None if bool(value) == want else "wrong-verdict"), tag, emitted


class Audit(Workload):
    """Read path: parse one canonical certificate document, then check it
    against the expected conclusion; every genuine document must pass and
    every mutant must be rejected.

    Certificates come from every fourth corpus sequent, so the sample keeps
    the corpus's mix of small and large proofs, and from the family sweep;
    the documents are read in seeded order.
    """

    STRIDE = 4

    def __init__(self, seed):
        super().__init__()
        self.rng = rng = random.Random(seed)
        self.docs = []  # (label, text, expected conclusion, genuine, reference)
        for s in inputs.corpus(inputs.depth2_pool())[::self.STRIDE]:
            proof = sequent.prove(s)
            if proof:
                self._add("proof", proof, s, mutants.tree_mutant, s)
            else:
                a = AntiSequent3(*s.components)
                self._add("refutation", antisequent.refute(a), a, mutants.tree_mutant, s)
        brave, skeptical = inputs.sweep(inputs.family(), rng)
        for q in brave:
            result = defaults.brave_prove(q)
            if result:
                self._add("brave", result, q, mutants.brave_mutant, q)
        for q in skeptical:
            result = defaults.skeptical_decide(q)
            if result:
                self._add("skeptical", result, q, mutants.skeptical_mutant, q)
        rng.shuffle(self.docs)
        for label, text, expected, _, _ in self.docs:
            self.queries.append((label, lambda l=label, t=text, e=expected: self.read(l, t, e)))

    def _add(self, label, cert, expected, mutate, reference):
        doc = cert_doc(cert)
        self.docs.append((label, canonical(doc), expected, True, reference))
        self.docs.append((label, canonical(mutate(doc, self.rng)), expected, False, reference))

    @staticmethod
    def read(label, text, expected) -> bool:
        doc = json.loads(text)
        if label == "proof":
            return sequent.check_proof(sequent.proof_from_doc(doc), expected)
        if label == "refutation":
            return antisequent.check_refutation(antisequent.refutation_from_doc(doc), expected)
        if label == "brave":
            cert = defaults.brave_proof_from_doc(doc)
            return cert.query == expected and defaults.check_brave_proof(cert)
        cert = defaults.skeptical_proof_from_doc(doc)
        return cert.query == expected and defaults.check_skeptical_proof(cert)

    def judge(self, i, value, error):
        label, text, _, genuine, reference = self.docs[i]
        tag = "genuine" if genuine else "mutant"
        if error:
            return error, tag, len(text)
        if genuine and not self._holds(label, reference):
            return "wrong-verdict", tag, len(text)
        if bool(value) != genuine:
            kind = "checker-rejected-genuine" if genuine else "checker-accepted-mutant"
            return kind, tag, len(text)
        return None, tag, len(text)

    @staticmethod
    def _holds(label, reference) -> bool:
        """Truth-table verdict the certificate's kind claims."""
        if label in ("proof", "refutation"):
            return bool(semantics.tt_sequent_valid(reference)) == (label == "proof")
        theory = syntax.DefaultTheory(reference.gamma, reference.delta)
        if label == "brave":
            return oracle.brave_holds(theory, reference.sigma, reference.theta)
        return oracle.skeptical_holds(theory, reference.sigma, reference.theta)


# The console-script entry point of the package, run the way ``luk3`` runs it.
CLI_ENTRY = "import sys; from luk3.cli import main; sys.exit(main())"
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")


def theory_text(theory) -> str:
    lines = [f"fact: {syntax.print_formula(f)}." for f in sorted(theory.facts, key=syntax.sort_key)]
    lines += [f"default: {syntax.print_default(d)}." for d in theory.defaults]
    return "\n".join(lines) + "\n"


def formulas_arg(formulas) -> str:
    return ",".join(syntax.print_formula(f) for f in sorted(formulas, key=syntax.sort_key))


class Cli(Workload):
    """``luk3`` subprocess invocations, one at a time, with references from
    truth tables; written certificates are re-checked.

    The list of invocations is drawn once, from a fixed seed, and the
    benchmark's seed only orders it: the certificates a random draw writes
    differ in size by a factor of ten.

    Two invocations nest formulas 3000 and 2000 levels deep; the CLI contract
    says they exit 2, and at the seed they exit 1 through an uncaught
    ``RecursionError``, which counts as a failure.
    """

    # The queries are other processes; this one samples between them.
    PROBE_TIMER = False

    # Invocations per command and expected exit code (for extensions: per
    # number of extensions).  Fixing the verdict mix keeps the work and the
    # certificates written alike from seed to seed.
    QUOTAS = {"eval": {0: 8, 1: 7}, "valid": {0: 5, 1: 10}, "prove": {0: 8, 1: 8},
              "refute": {0: 8, 1: 8}, "extensions": {0: 1, 1: 9, 2: 4},
              "brave": {0: 8, 1: 8}, "skeptical": {0: 8, 1: 8}}

    def __init__(self, seed, workdir, trace_dir=None):
        super().__init__()
        rng = random.Random(inputs.CORPUS_SEED)
        self.workdir = workdir
        self.trace_dir = trace_dir
        os.makedirs(workdir, exist_ok=True)
        self.pool = inputs.depth2_pool()
        family = inputs.family()
        self.brave, self.skeptical = inputs.sweep(family, rng)
        self.theories = family + inputs.non_normal_theories(rng)
        self.theory_of = {(t.facts, t.defaults): t for t in self.theories}
        self.paths = {}
        for k, t in enumerate(self.theories):
            self.paths[t] = os.path.join(workdir, f"theory{k}.dl3")
            with open(self.paths[t], "w", encoding="utf-8") as fh:
                fh.write(theory_text(t))
        self.cases = []  # (label, argv, expected exit, reference, certificate path)
        for label, quota in self.QUOTAS.items():
            taken = dict.fromkeys(quota, 0)
            while taken != quota:
                argv, want, stratum, ref, certifies = self._draw(label, rng)
                if taken[stratum] == quota[stratum]:
                    continue
                j = taken[stratum]
                taken[stratum] += 1
                cert = None
                if certifies and j % 2 == 0:
                    cert = os.path.join(self.workdir, f"{label}{len(self.cases)}.json")
                    argv.append(f"--proof={cert}")
                if j % 4 >= 2:
                    argv.append("--json")
                self.cases.append((label, argv, want, ref, cert if want == 0 else None))
        self.cases.append(("deep", ["eval", "~" * 3000 + "p", "--interp", "p=t"], 2, None, None))
        self.cases.append(("deep", ["valid", "(" * 2000 + "p" + ")" * 2000], 2, None, None))
        random.Random(seed).shuffle(self.cases)
        for i, case in enumerate(self.cases):
            self.queries.append((case[0], lambda i=i, argv=case[1]: self.invoke(i, argv)))

    def _draw(self, label, rng):
        """One random invocation: (argv, expected exit, stratum, reference,
        whether it takes ``--proof``)."""
        if label == "eval":
            f = rng.choice(self.pool)
            interp = Interpretation.from_mapping({"p": rng.choice("fut"), "q": rng.choice("fut")})
            value = semantics.evaluate(f, interp)
            want = 0 if value is TruthValue.T else 1
            argv = ["eval", syntax.print_formula(f), f"--interp={interp.to_text()}"]
            return argv, want, want, value.symbol, False
        if label in ("valid", "prove", "refute"):
            f = rng.choice(self.pool)
            if label == "valid":
                want = 0 if semantics.tt_valid(f) else 1
                return ["valid", syntax.print_formula(f)], want, want, f, False
            s = sequent.Sequent3.of((), (), (f,))
            valid = bool(semantics.tt_sequent_valid(s))
            if label == "prove":
                return ["prove", sequent.print_sequent(s)], 1 - valid, 1 - valid, s, True
            text = antisequent.print_antisequent(AntiSequent3(*s.components))
            return ["refute", text], int(valid), int(valid), s, True
        if label == "extensions":
            t = rng.choice(self.theories)
            count = len(oracle.extensions(t))
            return ["extensions", self.paths[t]], 0 if count else 1, count, t, False
        if label == "brave":
            q = rng.choice(self.brave)
            t = self.theory_of[(q.gamma, q.delta)]
            want = 0 if oracle.brave_holds(t, q.sigma, q.theta) else 1
            argv = ["brave", self.paths[t], f"--in={formulas_arg(q.sigma)}",
                    f"--out={formulas_arg(q.theta)}"]
            return argv, want, want, q, True
        q = rng.choice(self.skeptical)
        t = self.theory_of[(q.gamma, q.delta)]
        want = 0 if oracle.skeptical_holds(t, q.sigma, q.theta) else 1
        constraints = ",".join(defaults.print_constraint(c) for c in sorted(
            q.sigma, key=lambda c: (not c.positive, syntax.sort_key(c.formula))))
        argv = ["skeptical", self.paths[t], f"--constraints={constraints}",
                f"--goals={formulas_arg(q.theta)}"]
        return argv, want, want, q, True

    def invoke(self, i, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", CLI_ENTRY] + argv
        else:
            cmd = [sys.executable, SHIM, os.path.join(self.trace_dir, f"{i}.json")] + argv
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        return done.returncode, done.stdout, done.stderr

    def judge(self, i, value, error):
        label, argv, want, ref, cert = self.cases[i]
        tag = f"exit{want}"
        if error:
            return error, tag, 0
        code, stdout, stderr = value
        if "Traceback" in stderr:
            return "exception:" + stderr.strip().splitlines()[-1].split(":")[0], tag, 0
        if code != want:
            return "wrong-exit", tag, 0
        if want == 2:
            return (None if not stdout else "wrong-output"), tag, 0
        try:
            ok = self._output_ok(label, "--json" in argv, ref, code, stdout)
            if ok and cert is not None:
                with open(cert, encoding="utf-8") as fh:
                    text = fh.read()
                ok = self._cert_ok(label, ref, json.loads(text))
                return (None if ok else "wrong-output"), tag, len(text)
        except (ValueError, LookupError, OSError):
            ok = False
        return (None if ok else "wrong-output"), tag, 0

    @staticmethod
    def _output_ok(label, as_json, ref, code, stdout) -> bool:
        """The counter-evidence on stdout must really be counter-evidence."""
        doc = json.loads(stdout) if as_json else None
        text = stdout.strip()

        def interp(key):
            return Interpretation.from_mapping(doc[key]) if as_json else Interpretation.from_text(text)

        if label == "eval":
            return (doc["value"] if as_json else text) == ref
        if label == "valid" and code == 1:
            return semantics.evaluate(ref, interp("counter")) is not TruthValue.T
        if label == "prove" and code == 1:
            return not semantics.tt_sequent_true(ref, interp("counter"))
        if label == "refute" and code == 0:
            return not semantics.tt_sequent_true(ref, interp("witness"))
        if label == "extensions":
            want = oracle.extensions(ref)
            if as_json:
                got = {frozenset(syntax.parse_formula(f) for f in e["basis"])
                       for e in doc["extensions"]}
                return len(doc["extensions"]) == len(want) and got == set(want)
            return sum(ln.startswith("extension ") for ln in text.splitlines()) == len(want)
        return True

    @staticmethod
    def _cert_ok(label, ref, doc) -> bool:
        if label == "prove":
            return sequent.check_proof(sequent.proof_from_doc(doc), ref)
        if label == "refute":
            return antisequent.check_refutation(antisequent.refutation_from_doc(doc),
                                                AntiSequent3(*ref.components))
        if label == "brave":
            cert = defaults.brave_proof_from_doc(doc)
        else:
            cert = defaults.skeptical_proof_from_doc(doc)
        check = defaults.check_brave_proof if label == "brave" else defaults.check_skeptical_proof
        return cert.query == ref and check(cert)


# The library workloads; Cli also takes its working directories.
WORKLOADS = {"calculus": Calculus, "defaults": Defaults, "audit": Audit}
