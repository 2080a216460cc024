from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import luk3

from luk3.cli import format_certificate, main
from luk3.defaults import brave_proof_from_doc, check_brave_proof, skeptical_proof_from_doc, check_skeptical_proof
from luk3.sequent import parse_sequent, prove


@pytest.fixture
def simple_theory(tmp_path):
    path = tmp_path / "t.dl3"
    path.write_text("fact: a.\ndefault: a : b / b.\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def fork_theory(tmp_path):
    path = tmp_path / "fork.dl3"
    path.write_text("fact: a.\ndefault: a : b / b.\ndefault: a : ~b / ~b.\n",
                    encoding="utf-8")
    return str(path)


@pytest.fixture
def wide_theory(tmp_path):
    """20 defaults: 2^20 candidates, past the sweep budget."""
    path = tmp_path / "wide.dl3"
    path.write_text("fact: a.\n" + "".join(f"default: a : b{i} / b{i}.\n" for i in range(20)),
                    encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_possibility_at_u(self, capsys):
        code, out, _ = run(capsys, "eval", "--interp", "p=u", "M p")
        assert (code, out) == (0, "t\n")

    def test_non_designated_value_exits_one(self, capsys):
        code, out, _ = run(capsys, "eval", "--interp", "p=u", "L p")
        assert (code, out) == (1, "f\n")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--json", "--interp", "p=t,q=u", "p & q")
        assert code == 1
        assert json.loads(out) == {"value": "u"}

    def test_undeclared_atom_is_input_error(self, capsys):
        code, out, err = run(capsys, "eval", "--interp", "q=t", "M p")
        assert code == 2
        assert out == ""
        assert "undeclared atom: p" in err


class TestValid:
    def test_valid_formula(self, capsys):
        code, out, _ = run(capsys, "valid", "p -> p")
        assert (code, out) == (0, "valid\n")

    def test_counterexample_printed(self, capsys):
        code, out, _ = run(capsys, "valid", "p | ~p")
        assert (code, out) == (1, "p=u\n")

    def test_json_counter(self, capsys):
        code, out, _ = run(capsys, "valid", "--json", "p | ~p")
        assert code == 1
        assert json.loads(out) == {"valid": False, "counter": {"p": "u"}}


class TestProveRefute:
    def test_prove_axiom(self, capsys):
        code, out, _ = run(capsys, "prove", "[p ; p ; p]")
        assert code == 0
        assert out.splitlines()[0] == "axiom: [p ; p ; p]"

    def test_prove_prints_each_distinct_sequent_once(self, capsys, monkeypatch):
        import luk3.cli
        import luk3.sequent

        printed = []
        real = luk3.sequent.print_sequent

        def counting(s):
            printed.append(s)
            return real(s)

        # every print_sequent of the invocation: the certificate writer's and
        # any the CLI would make itself
        monkeypatch.setattr(luk3.sequent, "print_sequent", counting)
        monkeypatch.setattr(luk3.cli, "print_sequent", counting, raising=False)
        code, out, _ = run(capsys, "prove", "[ ; ; p -> p | p]")
        assert code == 0
        assert out == (
            "->:3: [ ;  ; p -> p | p]\n"
            "  |:3: [p ; p ; p | p]\n"
            "    axiom: [p ; p ; p]\n"
            "  |:2: [p ; p | p ; p | p]\n"
            "    |:3: [p ; p ; p | p]\n"
            "      axiom: [p ; p ; p]\n"
            "    |:3: [p ; p ; p | p]\n"
            "      axiom: [p ; p ; p]\n"
            "    |:3: [p ; p ; p | p]\n"
            "      axiom: [p ; p ; p]\n")
        # ten lines, but the proof has four distinct nodes
        assert len(printed) == len(set(printed)) == 4
        printed.clear()
        code, _, _ = run(capsys, "prove", "--json", "[ ; ; p -> p | p]")
        assert code == 0
        assert len(printed) == len(set(printed)) == 4

    def test_prove_failure_prints_counter(self, capsys):
        code, out, _ = run(capsys, "prove", "[ ; ; p | ~p]")
        assert (code, out) == (1, "p=u\n")

    def test_prove_json_certificate(self, capsys):
        code, out, _ = run(capsys, "prove", "--json", "[p ; p ; p]")
        doc = json.loads(out)
        assert code == 0 and doc["proved"] is True
        assert doc["certificate"] == {"rule": "axiom", "sequent": "[p ; p ; p]",
                                      "premises": []}

    def test_refute_prints_witness(self, capsys):
        code, out, _ = run(capsys, "refute", "![ ; ; p | ~p]")
        assert (code, out) == (0, "p=u\n")

    def test_refute_valid_sequent(self, capsys):
        code, out, _ = run(capsys, "refute", "![ ; ; p -> p]")
        assert (code, out) == (1, "irrefutable\n")

    def test_refute_json_witness(self, capsys):
        code, out, _ = run(capsys, "refute", "--json", "![ ; ; p | ~p]")
        doc = json.loads(out)
        assert doc["refuted"] is True and doc["witness"] == {"p": "u"}

    def test_proof_file_checks_out(self, capsys, tmp_path):
        path = tmp_path / "proof.json"
        code, _, _ = run(capsys, "prove", "[p, q ; p, q ; p & q]", "--proof", str(path))
        assert code == 0
        from luk3.sequent import check_proof, proof_from_doc

        tree = proof_from_doc(json.loads(path.read_text()))
        assert check_proof(tree, parse_sequent("[p, q ; p, q ; p & q]"))


class TestExtensions:
    def test_listing(self, capsys, fork_theory):
        code, out, _ = run(capsys, "extensions", fork_theory)
        assert code == 0
        assert out.splitlines() == [
            "extension 0: a, M b [fired: 0]",
            "extension 1: a, M ~b [fired: 1]",
        ]

    def test_json(self, capsys, fork_theory):
        code, out, _ = run(capsys, "extensions", "--json", fork_theory)
        assert json.loads(out) == {"extensions": [
            {"basis": ["a", "M b"], "fired": [0]},
            {"basis": ["a", "M ~b"], "fired": [1]},
        ]}

    def test_blocked_default_leaves_facts(self, capsys, tmp_path):
        path = tmp_path / "blocked.dl3"
        path.write_text("fact: ~b.\ndefault: ~b : b / b.\n", encoding="utf-8")
        code, out, _ = run(capsys, "extensions", str(path))
        assert code == 0
        assert out == "extension 0: ~b [fired: -]\n"

    @pytest.mark.parametrize("argv", [
        ["extensions"],
        ["brave", "--in", "M b"],
        ["skeptical", "--goals", "M b"],
    ], ids=lambda argv: argv[0])
    def test_duplicate_lines_warn_once_each(self, capsys, tmp_path, simple_theory, argv):
        path = tmp_path / "dup.dl3"
        path.write_text("fact: a.\nfact: a.\ndefault: a : b / b.\nfact: a.\n"
                        "default: a : b / b.\n", encoding="utf-8")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert err.splitlines() == [
            "warning: duplicate fact 'a' dropped at line 2",
            "warning: duplicate fact 'a' dropped at line 4",
            "warning: duplicate default 'a : b / b' dropped at line 5",
        ]
        assert (code, out) == run(capsys, argv[0], simple_theory, *argv[1:])[:2]

    def test_zero_extensions_exit_code(self, capsys, tmp_path):
        # firing adds M L b, which forces b = t and so refutes the
        # justification ~b; not firing is no fixed point either
        path = tmp_path / "none.dl3"
        path.write_text("fact: a.\ndefault: a : ~b / L b.\n", encoding="utf-8")
        code, out, _ = run(capsys, "extensions", str(path))
        assert (code, out) == (1, "no extensions\n")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "extensions", "/nonexistent/x.dl3")
        assert code == 2 and out == "" and err


class TestBrave:
    def test_spec_example(self, capsys, simple_theory, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "brave", simple_theory,
                           "--in", "M b", "--out", "b", "--proof", str(cert))
        assert code == 0
        assert out.splitlines()[0] == "derivable"
        proof = brave_proof_from_doc(json.loads(cert.read_text()))
        assert check_brave_proof(proof)

    def test_underivable(self, capsys, tmp_path):
        path = tmp_path / "g.dl3"
        path.write_text("default: c : b / c.\n", encoding="utf-8")
        code, out, _ = run(capsys, "brave", str(path), "--in", "M c")
        assert (code, out) == (1, "underivable\n")

    def test_state_limit_is_resource_error(self, capsys, wide_theory):
        code, out, err = run(capsys, "brave", wide_theory, "--in", "M b0")
        assert code == 2 and out == ""
        assert "resource limit" in err

    def test_deterministic_json(self, capsys, fork_theory):
        first = run(capsys, "brave", "--json", fork_theory, "--in", "M b")
        second = run(capsys, "brave", "--json", fork_theory, "--in", "M b")
        assert first == second


class TestSkeptical:
    def test_constrained_goal(self, capsys, fork_theory, tmp_path):
        cert = tmp_path / "cert.json"
        code, out, _ = run(capsys, "skeptical", fork_theory,
                           "--constraints", "+M b", "--goals", "M b",
                           "--proof", str(cert))
        assert code == 0 and out.splitlines()[0] == "derivable"
        proof = skeptical_proof_from_doc(json.loads(cert.read_text()))
        assert check_skeptical_proof(proof)

    def test_proof_of_extension_fired_out_of_index_order(self, capsys, tmp_path):
        # the one extension fires a : b / b (index 1) before M b : c / c (index 0)
        path = tmp_path / "t.dl3"
        path.write_text("fact: a.\ndefault: M b : c / c.\ndefault: a : b / b.\n",
                        encoding="utf-8")
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, "skeptical", str(path), "--goals", "a",
                             "--proof", str(cert))
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "derivable"
        proof = skeptical_proof_from_doc(json.loads(cert.read_text()))
        assert [v.fired_indices for v in proof.verdicts] == [(1, 0)]
        assert check_skeptical_proof(proof)

    def test_underivable_prints_counterexample(self, capsys, fork_theory):
        code, out, _ = run(capsys, "skeptical", fork_theory, "--goals", "b")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "underivable"
        assert lines[1].startswith("counterexample extension: a, M")

    def test_empty_goals_fail(self, capsys, simple_theory):
        code, out, _ = run(capsys, "skeptical", simple_theory)
        assert code == 1 and out.splitlines()[0] == "underivable"


class TestInputErrors:
    def test_formula_syntax_error(self, capsys):
        code, out, err = run(capsys, "valid", "p -> ")
        assert code == 2 and out == ""
        assert "line 1" in err

    def test_theory_syntax_error(self, capsys, tmp_path):
        path = tmp_path / "bad.dl3"
        path.write_text("fact: a.\nfact ~b.\n", encoding="utf-8")
        code, out, err = run(capsys, "extensions", str(path))
        assert code == 2 and out == ""
        assert "line 2" in err

    def test_bad_sequent(self, capsys):
        code, out, err = run(capsys, "prove", "[p ; q]")
        assert code == 2 and out == "" and err


class TestResourceLimits:
    # nesting deeper than the recursion limit is a resource error, not a "no"
    def test_deep_negation(self, capsys):
        code, out, err = run(capsys, "eval", "~" * 3000 + "p", "--interp", "p=t")
        assert code == 2 and out == ""
        assert err.startswith("error: resource limit: ") and err.count("\n") == 1

    def test_deep_parentheses(self, capsys):
        code, out, err = run(capsys, "valid", "(" * 2000 + "p" + ")" * 2000)
        assert code == 2 and out == ""
        assert err.startswith("error: resource limit: ") and err.count("\n") == 1

    def test_failed_certificate_leaves_no_file(self, capsys, tmp_path):
        # proved, but the certificate is too deep to check and serialize
        path = tmp_path / "pf.json"
        code, out, err = run(capsys, "prove", "[p ; p ; " + "~" * 450 + "p]", "--proof", str(path))
        assert code == 2 and out == ""
        assert "resource limit" in err
        assert not path.exists()

    def test_extensions_over_sweep_budget(self, capsys, wide_theory):
        code, out, err = run(capsys, "extensions", wide_theory)
        assert code == 2 and out == ""
        assert "resource limit" in err

    def test_skeptical_over_sweep_budget(self, capsys, wide_theory):
        code, out, err = run(capsys, "skeptical", wide_theory, "--goals", "a")
        assert code == 2 and out == ""
        assert "resource limit" in err


def test_format_certificate_round_trips():
    tree = prove(parse_sequent("[p & q ; p & q ; M (p & q)]"))
    text = format_certificate(tree)
    from luk3.sequent import check_proof, proof_from_doc

    assert check_proof(proof_from_doc(json.loads(text)))
    assert format_certificate(tree) == text  # byte-stable


def test_format_certificate_rejects_mutants():
    from mutation import proof_mutants

    tree = prove(parse_sequent("[p & q ; p & q ; M (p & q)]"))
    mutant = next(proof_mutants(tree))
    with pytest.raises(ValueError):
        format_certificate(mutant)


@pytest.mark.parametrize("argv", [
    ["prove", "[p, q, r ; p, q ; (p & q) | M r]", "--proof", "{cert}"],
    ["refute", "![p, q ; p ; q & r | ~p]", "--proof", "{cert}"],
    ["brave", "{theory}", "--in", "M b, M e", "--out", "b", "--proof", "{cert}"],
    ["skeptical", "{theory}", "--constraints", "+a, -b", "--goals", "M b | M ~b, M f",
     "--proof", "{cert}"],
    ["extensions", "--json", "{theory}"],
], ids=lambda argv: argv[0])
def test_output_is_byte_stable_across_hash_seeds(tmp_path, argv):
    theory = tmp_path / "t.dl3"
    theory.write_text("fact: a.\nfact: c.\nfact: ~d.\ndefault: a : b / b.\n"
                      "default: a : ~b / ~b.\ndefault: c : e, ~d / e.\n"
                      "default: M b : f / f.\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(luk3.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for seed in ("1", "12345"):
        cert = tmp_path / f"cert-{seed}.json"
        done = subprocess.run(
            [sys.executable, "-m", "luk3.cli"]
            + [a.format(theory=theory, cert=cert) for a in argv],
            capture_output=True, env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed))
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, cert.read_bytes() if "--proof" in argv else b""))
    assert outputs[0] == outputs[1]


THEORIES = {
    "fork": "fact: a.\ndefault: a : b / b.\ndefault: a : ~b / ~b.\n",
    "empty": "default: c : b / c.\n",
    "none": "fact: a.\ndefault: a : ~b / L b.\n",
    "blocked": "fact: a.\nfact: ~c.\ndefault: a : b, c / b.\ndefault: a : ~b / ~b.\n",
    "dup": "fact: a.\nfact: a.\ndefault: a : b / b.\ndefault: a : ~b / ~b.\n",
}


def _theory_argv(tmp_path, argv):
    """``argv`` with ``{name}`` replaced by the path of that theory file."""
    out = []
    for a in argv:
        if a.startswith("{") and a.endswith("}"):
            path = tmp_path / f"{a[1:-1]}.dl3"
            path.write_text(THEORIES[a[1:-1]], encoding="utf-8")
            a = str(path)
        out.append(a)
    return out


# One invocation per rendering branch, with its exact stdout and exit code.
GOLDEN = [
    (["eval", "M p", "--interp", "p=u"], 0, "t\n"),
    (["eval", "L p", "--interp", "p=u", "--json"], 1, '{\n  "value": "f"\n}\n'),
    (["valid", "p -> p"], 0, "valid\n"),
    (["valid", "p | ~p", "--json"], 1,
     '{\n  "counter": {\n    "p": "u"\n  },\n  "valid": false\n}\n'),
    (["prove", "[p ; p ; M p]"], 0, "M:3: [p ; p ; M p]\n  axiom: [p ; p ; p]\n"),
    (["prove", "[ ; ; p | ~p]", "--json"], 1,
     '{\n  "counter": {\n    "p": "u"\n  },\n  "proved": false\n}\n'),
    (["refute", "![ ; ; p | ~p]", "--json"], 0, """{
  "certificate": {
    "premises": [
      {
        "premises": [
          {
            "premises": [
              {
                "premises": [],
                "rule": "anti-axiom",
                "sequent": "![p ;  ; p]",
                "witness": {
                  "p": "u"
                }
              }
            ],
            "rule": "~:3@u",
            "sequent": "![p ;  ; p, ~p]"
          }
        ],
        "rule": "~:1@u",
        "sequent": "![p, ~p ;  ; p, ~p]"
      }
    ],
    "rule": "|:3@u,u",
    "sequent": "![ ;  ; p | ~p]"
  },
  "refuted": true,
  "witness": {
    "p": "u"
  }
}
"""),
    (["refute", "![ ; ; p -> p]", "--json"], 1, '{\n  "refuted": false\n}\n'),
    (["extensions", "{fork}"], 0,
     "extension 0: a, M b [fired: 0]\nextension 1: a, M ~b [fired: 1]\n"),
    (["extensions", "{empty}"], 0, "extension 0: (empty) [fired: -]\n"),
    (["extensions", "{none}", "--json"], 1, '{\n  "extensions": []\n}\n'),
    (["brave", "{blocked}", "--in", "M ~b"], 0,
     "derivable\n"
     "  fire a : ~b / ~b\n"
     "  block a : b, c / b (blocked-justification 2)\n"
     "  basis: a, ~c, M ~b\n"),
    (["brave", "{fork}", "--in", "b", "--json"], 1, '{\n  "derivable": false\n}\n'),
    (["skeptical", "{fork}", "--constraints", "+M b", "--goals", "M b"], 0,
     "derivable\n"
     "  extension a, M b: contains M b\n"
     "  extension a, M ~b: constraints not satisfied, skipped\n"),
    (["skeptical", "{fork}", "--goals", "b", "--json"], 1,
     '{\n  "counterexample": {\n    "basis": [\n      "a",\n      "M b"\n    ]\n  },\n'
     '  "derivable": false\n}\n'),
    (["skeptical", "{empty}"], 1, "underivable\ncounterexample extension: (empty)\n"),
]


@pytest.mark.parametrize("argv, code, out", GOLDEN, ids=[
    " ".join(argv).replace("[", "(").replace("]", ")") for argv, _, _ in GOLDEN])
def test_golden_output(capsys, tmp_path, argv, code, out):
    assert run(capsys, *_theory_argv(tmp_path, argv)) == (code, out, "")


@pytest.mark.parametrize("argv", [
    pytest.param(["prove", "[p, q ; p, q ; p & q]"], id="prove-yes"),
    pytest.param(["prove", "[ ; ; p | ~p]"], id="prove-no"),
    pytest.param(["prove", "[p ; p ; " + "~" * 450 + "p]"], id="prove-too-deep"),
    pytest.param(["refute", "![ ; ; p | ~p]"], id="refute-yes"),
    pytest.param(["refute", "![ ; ; p -> p]"], id="refute-no"),
    pytest.param(["brave", "{dup}", "--in", "M b"], id="brave-yes-warned"),
    pytest.param(["brave", "{fork}", "--in", "b"], id="brave-no"),
    pytest.param(["skeptical", "{dup}", "--constraints", "+M b", "--goals", "M b"],
                 id="skeptical-yes-warned"),
    pytest.param(["skeptical", "{fork}", "--goals", "b"], id="skeptical-no"),
])
def test_json_changes_stdout_only(capsys, tmp_path, argv):
    argv = _theory_argv(tmp_path, argv)
    seen = []
    for extra in ([], ["--json"]):
        cert = tmp_path / "cert.json"
        code, out, err = run(capsys, *argv, "--proof", str(cert), *extra)
        if extra:
            assert out == "" if code == 2 else json.loads(out)
        seen.append((code, err, cert.read_bytes() if cert.exists() else None))
        if cert.exists():
            cert.unlink()
    assert seen[0] == seen[1]
