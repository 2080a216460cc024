from __future__ import annotations

import copy
import gc
import itertools
import pickle
import re
import sys
import threading
import weakref
from dataclasses import FrozenInstanceError
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import formulas_strategy
from luk3.antisequent import AntiSequent3, countermodel_of, parse_antisequent, refute
from luk3.defaults import parse_constraints
from luk3.semantics import Interpretation
from luk3.sequent import (
    Sequent3,
    _read_components,
    _read_formula,
    failure_countermodel,
    parse_sequent,
    prove,
)
from luk3.syntax import (
    And,
    Atom,
    Cert,
    Default,
    DefaultTheory,
    DuplicateWarning,
    Impl,
    Not,
    Or,
    ParseError,
    Poss,
    atoms,
    children,
    parse_default,
    parse_formula,
    parse_formula_list,
    parse_theory,
    print_default,
    print_formula,
    sort_key,
    tokenize,
)
from luk3.syntax import _BINARY

A, B, C = Atom("a"), Atom("b"), Atom("c")


class TestParseFormula:
    def test_negated_atom(self):
        assert parse_formula("~a") == Not(A)

    def test_implication_is_right_associative(self):
        assert parse_formula("a -> b -> c") == Impl(A, Impl(B, C))

    def test_precedence(self):
        assert parse_formula("L a & M b | c") == Or(And(Cert(A), Poss(B)), C)

    def test_whitespace_insensitive(self):
        assert parse_formula("a->b") == parse_formula("  a  ->\t b ")

    def test_parentheses(self):
        assert parse_formula("a & (b | c)") == And(A, Or(B, C))
        assert parse_formula("L (a -> b)") == Cert(Impl(A, B))

    def test_binary_left_associative(self):
        assert parse_formula("a & b & c") == And(And(A, B), C)
        assert parse_formula("a | b | c") == Or(Or(A, B), C)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("")
        with pytest.raises(ParseError):
            parse_formula("   ")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("a & ")
        assert err.value.line == 1
        assert err.value.column == 5
        assert "expected" in str(err.value)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("a b")
        assert "end of input" in err.value.message

    def test_unknown_character_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_formula("a @ b")
        assert err.value.column == 3

    def test_uppercase_atom_rejected(self):
        with pytest.raises(ParseError):
            parse_formula("Foo")

    def test_unclosed_parenthesis(self):
        with pytest.raises(ParseError) as err:
            parse_formula("(a -> b")
        assert "')'" in err.value.message

    @pytest.mark.parametrize("first, second", list(itertools.product(_BINARY, repeat=2)))
    def test_infix_grouping_follows_the_printer_table(self, first, second):
        # b is the right operand of the first operator when the second binds
        # at least as tightly as that operand's floor
        cls = {"->": Impl, "|": Or, "&": And}
        assert cls.keys() == _BINARY.keys()
        text = f"a {first} b {second} c"
        if _BINARY[second][0] >= _BINARY[first][2]:
            expected = cls[first](A, cls[second](B, C))
        else:
            expected = cls[second](cls[first](A, B), C)
        f = parse_formula(text)
        assert f == expected
        assert print_formula(f) == text  # so the printed text parses back to f

    def test_deep_parentheses(self):
        # one parenthesised level costs the parser two frames
        assert parse_formula("(" * 400 + "p" + ")" * 400) == Atom("p")


class TestPrintFormula:
    def test_negated_atom(self):
        assert print_formula(Not(A)) == "~a"

    def test_conjunction_under_implication_needs_no_parens(self):
        assert print_formula(Impl(And(A, B), C)) == "a & b -> c"

    def test_modal_over_implication_is_parenthesized(self):
        assert print_formula(Cert(Impl(A, B))) == "L (a -> b)"

    def test_nested_unaries(self):
        assert print_formula(Not(Not(A))) == "~~a"
        assert print_formula(Poss(Not(A))) == "M ~a"
        assert print_formula(Not(And(A, B))) == "~(a & b)"

    def test_associativity_parens(self):
        assert print_formula(Impl(Impl(A, B), C)) == "(a -> b) -> c"
        assert print_formula(Or(A, Or(B, C))) == "a | (b | c)"
        assert print_formula(And(And(A, B), C)) == "a & b & c"


class TestAtoms:
    def test_duplicates_collapse(self):
        assert atoms(parse_formula("a -> a")) == ("a",)

    def test_sorted(self):
        assert atoms(parse_formula("L p & ~q")) == ("p", "q")
        assert atoms(parse_formula("M (x -> y) | x")) == ("x", "y")

    def test_matches_a_walk_of_every_occurrence(self, pool):
        def names(f):
            return {f.name} if isinstance(f, Atom) else set().union(*map(names, children(f)))

        assert all(atoms(f) == tuple(sorted(names(f))) for f in pool)

    def test_shared_subformulas_are_visited_once(self):
        # f & f shares f, so 24 rounds make 2**24 occurrences of p | ~q
        # out of 28 distinct nodes; a walk per occurrence takes seconds
        f = parse_formula("p | ~q")
        for _ in range(24):
            f = And(f, f)
        t0 = perf_counter()
        assert atoms(f) == ("p", "q")
        root = Sequent3.of((), (), (f,))
        counter = Interpretation.of(p="f", q="u")
        assert failure_countermodel(prove(root), root) == counter
        assert countermodel_of(refute(AntiSequent3.of((), (), (f,)))) == counter
        assert perf_counter() - t0 < 1


class TestTheoryFiles:
    def test_fact_and_default(self):
        t = parse_theory("fact: a.\ndefault: a : b / b.")
        assert t.facts == frozenset({A})
        assert t.defaults == (Default(A, (B,), B),)

    def test_comment_lines_skipped(self):
        t = parse_theory("% c\nfact: ~b.")
        assert t.facts == frozenset({Not(B)})
        assert t.defaults == ()

    def test_multiple_justifications(self):
        t = parse_theory("default: a : b1, b2 / c.")
        (d,) = t.defaults
        assert d.justifications == (Atom("b1"), Atom("b2"))

    def test_default_order_preserved(self):
        t = parse_theory("default: a : b / b.\ndefault: b : c / c.\nfact: a.")
        assert [print_default(d) for d in t.defaults] == ["a : b / b", "b : c / c"]

    def test_duplicate_fact_warns_and_dedups(self):
        with pytest.warns(DuplicateWarning, match="^duplicate fact 'a' dropped at line 2$"):
            t = parse_theory("fact: a.\nfact: a.")
        assert t.facts == frozenset({A})

    def test_duplicate_default_warns_and_dedups(self):
        with pytest.warns(DuplicateWarning,
                          match="^duplicate default 'a : b / b' dropped at line 2$"):
            t = parse_theory("default: a : b / b.\ndefault: a : b / b.")
        assert len(t.defaults) == 1

    def test_bad_directive(self):
        with pytest.raises(ParseError) as err:
            parse_theory("fact: a.\nrule: b.")
        assert err.value.line == 2

    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_theory("fact: a")

    def test_error_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_theory("fact: a.\n\n% ok\nfact: ~.")
        assert err.value.line == 4

    @pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\u2029"])
    def test_only_newlines_end_lines(self, sep):
        # str.splitlines would break at each of these characters
        for text, line, column in [(f"fact: a.{sep}fact: b.\n", 1, 9),
                                   (f"fact: a.\n\nfact: b. {sep}\n", 3, 10),
                                   (f"% ok\n{sep}\nfact: a.", 2, 1)]:
            with pytest.raises(ParseError) as err:
                parse_theory(text)
            assert ((err.value.message, err.value.line, err.value.column)
                    == (f"unexpected character {sep!r}", line, column))

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files(self, newline):
        text = newline.join(["% c", "fact: a.", "", "default: a : b / b.", ""])
        t = parse_theory(text)
        assert t.facts == frozenset({A}) and t.defaults == (Default(A, (B,), B),)
        with pytest.raises(ParseError) as err:
            parse_theory(text + newline.join(["fact: b.", "fact: ~."]))
        assert (err.value.line, err.value.column) == (6, 8)


class TestDefaults:
    def test_parse_print_round_trip(self):
        d = parse_default("a : b1, b2 / c")
        assert print_default(d) == "a : b1, b2 / c"
        assert parse_default(print_default(d)) == d

    def test_justifications_required(self):
        with pytest.raises(ValueError):
            Default(A, (), B)

    def test_duplicate_defaults_rejected(self):
        d = Default(A, (B,), B)
        with pytest.raises(ValueError):
            DefaultTheory(frozenset(), (d, d))


class TestFormulaList:
    def test_empty(self):
        assert parse_formula_list("") == ()
        assert parse_formula_list("   ") == ()

    def test_split_on_commas(self):
        assert parse_formula_list("a, M b") == (A, Poss(B))

    def test_dangling_comma_rejected(self):
        with pytest.raises(ParseError):
            parse_formula_list("a,")


# Every whole-text reader, with a bad text and the error it gives.
DOOR_ERRORS = [
    (parse_formula, "", "expected a formula, found end of input", 1, 1),
    (parse_formula, "  % c", "expected a formula, found end of input", 1, 3),
    (parse_formula, "p\n q", "expected end of input, found 'q'", 2, 2),
    (parse_formula, "(p", "expected ')', found end of input", 1, 3),
    (parse_formula_list, "p,", "expected a formula, found end of input", 1, 3),
    (parse_formula_list, ",p", "expected a formula, found ','", 1, 1),
    (parse_formula_list, "p q", "expected end of input, found 'q'", 1, 3),
    (parse_default, "", "expected a formula, found end of input", 1, 1),
    (parse_default, "a b", "expected ':', found 'b'", 1, 3),
    (parse_default, "a : / b", "expected a formula, found '/'", 1, 5),
    (parse_default, "a : b / c.", "expected end of input, found '.'", 1, 10),
    (parse_constraints, "+", "expected a formula, found end of input", 1, 2),
    (parse_constraints, "-", "expected a formula, found end of input", 1, 2),
    (parse_constraints, "+-p", "expected a formula, found '-'", 1, 2),
    (parse_constraints, "p,", "expected a formula, found end of input", 1, 3),
    (parse_constraints, "+p -q", "expected end of input, found '-'", 1, 4),
    (parse_theory, "fact: a.\nrule: b.", "expected 'fact' or 'default', found 'rule'", 2, 1),
    (parse_theory, "fact: a.\n: b.", "expected 'fact' or 'default', found ':'", 2, 1),
    (parse_theory, "fact: a.\ndefault a : b / b.", "expected ':', found 'a'", 2, 9),
    (parse_theory, "fact: a.\nfact: b", "expected '.', found end of input", 2, 8),
    (parse_theory, "fact: a.\nfact: b. c", "expected end of input, found 'c'", 2, 10),
    (parse_theory, "fact: a.\r\n  default: a : b / b c.", "expected '.', found 'c'", 2, 22),
    (parse_sequent, "[p ; q]", "expected ';', found ']'", 1, 7),
    (parse_sequent, "[p ; q ; r] s", "expected end of input, found 's'", 1, 13),
    (parse_sequent, "![p;;]", "expected '[', found '!'", 1, 1),
    (parse_antisequent, "[p;;]", "expected '!', found '['", 1, 1),
    (parse_antisequent, "![", "expected a formula, found end of input", 1, 3),
    (parse_antisequent, "![ ; ; p,]", "expected a formula, found ']'", 1, 10),
]


@pytest.mark.parametrize("read, text, message, line, column", DOOR_ERRORS,
                         ids=[f"{read.__name__}-{text!r}" for read, text, *_ in DOOR_ERRORS])
def test_every_door_reports_its_error(read, text, message, line, column):
    with pytest.raises(ParseError) as err:
        read(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


@pytest.mark.parametrize("entry", ["p q", "", "p,", "(p"])
def test_entry_that_is_not_one_formula_reads_as_none(entry):
    with pytest.raises(ParseError):
        _read_formula(entry)
    # the component reader leaves such a text to the full parser
    assert _read_components(f"[p, {entry} ; ; ]", "[") is None


@given(formulas_strategy())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas_strategy(), formulas_strategy())
def test_ordering_is_total(f, g):
    kf, kg = sort_key(f), sort_key(g)
    assert (kf < kg) + (kf == kg) + (kf > kg) == 1
    assert (kf == kg) == (f == g)


_REFERENCE_ATOM = re.compile(r"[a-z][A-Za-z0-9_]*")


def _reference_tokenize(text, first_line=1):
    """The lexer as a per-character loop: (kind, text, line, column) tuples."""
    tokens = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "~&|(),;:/.[]!+-" or ch in ("L", "M"):
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = _REFERENCE_ATOM.match(text, i)
        if m:
            name = m.group()
            tokens.append(("atom", name, line, col))
            i = m.end()
            col += len(name)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("end", "", line, col))
    return tokens


_LEXEMES = (list("~&|(),;:/.[]!+-LM") + ["->", "% c", "%;]", "\n", "\t", "\r", " ",
             "p", "q1", "aL", "x_M9", "z"]
            + list("AKNZ0_") + ["\u00e9", "\u03bb", "\x0c", "\x85", "\u2028", "\U0001d400"])


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_LEXEMES), max_size=16).map("".join),
       st.integers(min_value=1, max_value=3))
@example("p % c", 1)  # the end token sits at the comment's column
@example("a->-b\r\n% c\n", 2)
def test_tokenize_matches_reference(text, first_line):
    try:
        expected = _reference_tokenize(text, first_line)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            tokenize(text, first_line)
        assert ((got.value.message, got.value.line, got.value.column)
                == (err.message, err.line, err.column))
    else:
        assert [(tok.kind, tok.text, tok.line, tok.column)
                for tok in tokenize(text, first_line)] == expected


def test_atom_name_validation():
    with pytest.raises(ValueError):
        Atom("Upper")
    with pytest.raises(ValueError):
        Atom("")
    assert Atom("a_1X").name == "a_1X"


#: Constructor ranks of the canonical order, restated for the reference key.
_RANKS = {Atom: 0, Not: 1, Impl: 2, And: 3, Or: 4, Cert: 5, Poss: 6}


def _reference_key(f):
    """The canonical sort key, recomputed recursively."""
    if isinstance(f, Atom):
        return (0, f.name)
    return (_RANKS[type(f)],) + tuple(_reference_key(c) for c in children(f))


class TestInterning:
    def test_equal_formulas_are_one_object(self, pool):
        f = Impl(And(A, Not(B)), Poss(C))
        assert Impl(And(Atom("a"), Not(Atom("b"))), Poss(Atom("c"))) is f
        assert parse_formula("a & ~b -> M c") is f
        for f in pool:
            rebuilt = [copy.copy(f), copy.deepcopy(f), parse_formula(print_formula(f))]
            rebuilt += [pickle.loads(pickle.dumps(f, protocol))
                        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            assert all(g is f for g in rebuilt)

    def test_hash_is_the_identity(self, pool):
        for f in pool:
            assert hash(f) == object.__hash__(f)
        # one field tuple under three classes: three live objects, three hashes
        for same_fields in ([Not(A), Cert(A), Poss(A)], [Impl(A, B), And(A, B), Or(A, B)]):
            assert len(set(map(hash, same_fields))) == 3

    def test_sort_key_matches_reference_on_pool(self, pool):
        for f in pool:
            assert sort_key(f) == _reference_key(f)

    def test_node_made_around_the_table_equals_only_itself(self):
        # equality and the hash are the identity (test_hash_is_the_identity)
        f = Impl(A, Not(B))
        g = object.__new__(Impl)
        object.__setattr__(g, "left", A)
        object.__setattr__(g, "right", Not(B))
        assert g == g and not g != g
        assert g != f and f != g

    def test_threads_build_one_object_per_formula(self):
        # Threads that miss the table together must still agree on one node:
        # with a racy table two of them each enter their own, and identity
        # equality would then tell equal formulas apart.
        threads, width = 4, 400
        barrier = threading.Barrier(threads, timeout=10)
        built: list[list | None] = [None] * threads

        def build(k):
            barrier.wait()
            out = []
            for i in range(width):
                a = Atom(f"zz_thread_{i}")
                out.append(Or(And(a, Not(a)), Not(Not(a))))
            built[k] = out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=build, args=(k,)) for k in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert all(out is not None for out in built)
        for position in zip(*built):
            assert all(f is position[0] for f in position)

    def test_nodes_are_immutable(self):
        with pytest.raises(FrozenInstanceError):
            A.name = "b"
        with pytest.raises(FrozenInstanceError):
            del Not(A).arg
        assert Atom("a").name == "a"

    def test_deep_formula_needs_no_recursion(self):
        f = g = Atom("p")
        for _ in range(5000):
            f, g = Not(f), Not(g)
        assert f is g and f == g and hash(f) == hash(g)
        assert f != Not(f) and hash(f) == object.__hash__(f)
        assert sorted([Poss(f), f, Not(A), A], key=sort_key) == [A, Not(A), f, Poss(f)]
        assert frozenset({f, Not(f), g}) == {f, Not(f)}

    def test_unreferenced_formula_dies(self):
        f = Impl(Atom("zz_dies"), Not(Atom("zz_dies")))
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None

    def test_invalid_atom_name_still_raises(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                Atom("Upper")


@given(formulas_strategy())
def test_sort_key_matches_reference(f):
    assert sort_key(f) == _reference_key(f)
