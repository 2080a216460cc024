"""Syntax of the three-valued language and of default theories.

Formulas are built from lowercase atoms with negation ``~``, implication
``->``, conjunction ``&``, disjunction ``|``, and the unary operators ``L``
("certainly") and ``M`` ("possibly").  ``L`` and ``M`` are reserved uppercase
tokens while atoms start with a lowercase letter, so the lexer never confuses
the two.

Grammar (whitespace between tokens is ignored)::

    formula := disj ("->" formula)?        right-associative
    disj    := conj ("|" conj)*            left-associative
    conj    := unary ("&" unary)*          left-associative
    unary   := ("~" | "L" | "M") unary | atom | "(" formula ")"
    atom    := [a-z][A-Za-z0-9_]*

The infix levels are the rows of ``_BINARY``, a strength and the floors of
the two operands; the parser and the printer both read them.

Theory files (``.dl3``) are line-oriented UTF-8::

    % a comment line
    fact: <formula>.
    default: <prereq> : <just> ("," <just>)* / <consequent>.

Parsing a theory preserves the order of defaults as written; a duplicate fact
or default raises :class:`DuplicateWarning`, naming its line, and the
duplicate is dropped.

Every whole text, here or in a module that embeds the grammar, enters the
parser through ``TokenParser.read``, its one whole-text entry.

Formula nodes are hash-consed: every constructor looks the node up in a weak
table that threads enter under one lock, so equal live formulas are one
object, and they compare and hash by identity.  Each node stores its sort
key, its depth and its arguments, so none depends on the formula's size.
Formulas and ``Interpretation`` share one frozen-record base, ``_Record``.
``Default`` and ``DefaultTheory`` are immutable named tuples that validate
their fields on construction and in ``_replace``.
"""

from __future__ import annotations

import _thread
import re
import warnings
import weakref
from typing import Callable, NamedTuple, NoReturn, TypeVar

__all__ = [
    "ARITY",
    "And",
    "Atom",
    "Cert",
    "Default",
    "DefaultTheory",
    "DuplicateWarning",
    "Formula",
    "Impl",
    "Not",
    "Or",
    "ParseError",
    "Poss",
    "Token",
    "TokenParser",
    "atoms",
    "children",
    "connective",
    "parse_default",
    "parse_formula",
    "parse_formula_list",
    "parse_theory",
    "print_default",
    "print_formula",
    "sort_key",
    "tokenize",
]

_ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*")

_T = TypeVar("_T")


class ParseError(Exception):
    """Rejected input, with a 1-based source position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} at line {line}, column {column}")
        self.message = message
        self.line = line
        self.column = column


class DuplicateWarning(UserWarning):
    """A duplicate fact or default in a theory file (the duplicate is dropped)."""


# ---------------------------------------------------------------------------
# Formulas


class _Record:
    """Frozen value record: the base of formulas and interpretations.  It
    equals only a record of its own class with equal fields (those in
    ``__match_args__``; other slots are private), hashes as its field
    tuple, prints like a dataclass and pickles through its constructor.
    Assignment and deletion raise ``FrozenInstanceError``.  ``Formula``
    compares and hashes by identity instead (see its table)."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on this error path
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Formula(_Record):
    """Base class of the formula AST: immutable, interned nodes.

    Constructing a node equal to a live one returns that object, in any
    thread, so ``==`` and the hash are the object's identity.  A copy is
    the node itself.  Each node stores its sort key, its depth and its
    arguments (``children``); all three are built in O(1) from the
    children's stored values.
    """

    __slots__ = ("_key", "_depth", "_args", "__weakref__")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __deepcopy__(self, memo):
        return self


#: Live formula nodes by (class, *fields), held weakly, entered and dropped
#: under ``_lock`` (reentrant, as a weakref callback may run while it is held).
_interned: dict[tuple, weakref.KeyedRef] = {}
_lock = _thread.RLock()


def _interned_node(key: tuple) -> Formula | None:
    ref = _interned.get(key)
    return None if ref is None else ref()


def _intern(key: tuple, order: tuple, depth: int) -> Formula:
    """The live node of class ``key[0]`` with fields ``key[1:]``, or a new
    one with sort key ``order`` and depth ``depth``, entered in the table."""
    with _lock:
        node = _interned_node(key)  # another thread may have made it
        if node is None:
            cls, *values = key
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, values):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", order)
            object.__setattr__(node, "_depth", depth)
            object.__setattr__(node, "_args", tuple(values) if depth else ())  # an atom has depth 0
            _interned[key] = weakref.KeyedRef(node, _forget, key)
        return node


def _forget(ref: weakref.KeyedRef) -> None:
    with _lock:
        if _interned.get(ref.key) is ref:
            del _interned[ref.key]


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        node = _interned_node(key)
        if node is None:
            if not (isinstance(name, str) and _ATOM_RE.fullmatch(name)):
                raise ValueError(f"invalid atom name {name!r}")
            node = _intern(key, (0, name), 0)
        return node


class _Unary(Formula):
    __slots__ = ("arg",)
    __match_args__ = ("arg",)

    def __new__(cls, arg: Formula):
        key = (cls, arg)
        node = _interned_node(key)
        if node is None:
            node = _intern(key, (_RANK[cls], arg._key), arg._depth + 1)
        return node


class _Binary(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Formula, right: Formula):
        key = (cls, left, right)
        node = _interned_node(key)
        if node is None:
            node = _intern(key, (_RANK[cls], left._key, right._key),
                           max(left._depth, right._depth) + 1)
        return node


class Not(_Unary):
    __slots__ = ()


class Impl(_Binary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Cert(_Unary):
    __slots__ = ()


class Poss(_Unary):
    __slots__ = ()


_RANK = {Atom: 0, Not: 1, Impl: 2, And: 3, Or: 4, Cert: 5, Poss: 6}
_CONNECTIVE = {Not: "~", Impl: "->", And: "&", Or: "|", Cert: "L", Poss: "M"}

#: The class of each prefix and each infix token, which ``TokenParser`` reads.
_PREFIX = {token: cls for cls, token in _CONNECTIVE.items() if issubclass(cls, _Unary)}
_INFIX = {token: cls for cls, token in _CONNECTIVE.items() if issubclass(cls, _Binary)}

#: Each infix token's binding strength, and the floors of its left and
#: right operands: an operand binding less tightly than its floor is
#: parenthesized.  A prefix operand's floor is above them all.  The
#: parser reads the same rows, so it groups as the printer does.
_BINARY = {"->": (1, 2, 1), "|": (2, 2, 3), "&": (3, 3, 4)}

#: Argument count of each connective token.
ARITY = {token: 1 if issubclass(cls, _Unary) else 2 for cls, token in _CONNECTIVE.items()}


def connective(f: Formula) -> str | None:
    """Token of the outermost connective, or None for atoms."""
    return _CONNECTIVE.get(type(f))


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas, left to right; stored on the node."""
    return f._args


def sort_key(f: Formula) -> tuple:
    """Key for the canonical total order on formulas.

    Orders by constructor rank, then recursively by children, then by atom
    name; equal keys coincide with equality.  The key is stored on the node.
    """
    return f._key


def atoms(f: Formula) -> tuple[str, ...]:
    """Atom names occurring in ``f``, sorted lexicographically.  Each
    distinct subformula is visited once, however often it occurs."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            stack.extend(g._args)
    return tuple(sorted(g.name for g in seen if isinstance(g, Atom)))


# ---------------------------------------------------------------------------
# Defaults and theories


class _DefaultFields(NamedTuple):
    prereq: Formula
    justifications: tuple[Formula, ...]
    consequent: Formula


class Default(_DefaultFields):
    """Inference rule ``prereq : just1, ..., justn / consequent`` with n >= 1."""

    __slots__ = ()

    def __new__(cls, prereq: Formula, justifications: tuple[Formula, ...],
                consequent: Formula):
        if not justifications:
            raise ValueError("a default needs at least one justification")
        return tuple.__new__(cls, (prereq, justifications, consequent))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class _TheoryFields(NamedTuple):
    facts: frozenset[Formula]
    defaults: tuple[Default, ...]


class DefaultTheory(_TheoryFields):
    """Facts plus an ordered, duplicate-free list of defaults."""

    __slots__ = ()

    def __new__(cls, facts: frozenset[Formula], defaults: tuple[Default, ...]):
        if len(set(defaults)) != len(defaults):
            raise ValueError("duplicate default in theory")
        return tuple.__new__(cls, (facts, defaults))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


# ---------------------------------------------------------------------------
# Lexer


class Token(NamedTuple):
    """One lexeme: ``kind`` is the symbol itself, "atom", or "end"; ``line``
    and ``column`` are 1-based."""

    kind: str
    text: str
    line: int
    column: int


#: One alternative per lexeme class; the group that matched names the class.
_TOKEN_RE = re.compile(r"""
    (\n)                         # 1: newline
  | [ \t\r]+                     #    blanks
  | (%[^\n]*)                    # 2: comment, up to the end of the line
  | (->|[~&|(),;:/.\[\]!+\-LM])  # 3: symbol
  | ([a-z][A-Za-z0-9_]*)         # 4: atom
  | (.)                          # 5: anything else is an error
""", re.VERBOSE | re.DOTALL)


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """Split ``text`` into tokens, skipping blanks (space, tab, carriage
    return, newline) and ``%`` comments, and end with an "end" token.

    Columns count code points from the start of the line.  After a comment
    that ends the text, the "end" token sits at the comment's column.
    """
    tokens: list[Token] = []
    line, line_start = first_line, 0
    comment_at = None
    for m in _TOKEN_RE.finditer(text):
        group = m.lastindex
        if group is None:
            continue
        if group == 3:
            symbol = m.group()
            tokens.append(Token(symbol, symbol, line, m.start() - line_start + 1))
        elif group == 4:
            tokens.append(Token("atom", m.group(), line, m.start() - line_start + 1))
        elif group == 1:
            line += 1
            line_start = m.end()
            comment_at = None
        elif group == 2:
            comment_at = m.start()
        else:
            raise ParseError(f"unexpected character {m.group()!r}",
                             line, m.start() - line_start + 1)
    end = len(text) if comment_at is None else comment_at
    tokens.append(Token("end", "", line, end - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser


class TokenParser:
    """Recursive-descent parser over a token list; ``read`` is the one
    entry for a whole text.  ``formula`` reads the infix operators by one
    precedence-climbing loop over ``_BINARY``'s strengths and right floors.

    The grammar entry points are methods so that other modules can embed
    formulas and defaults in their own surface syntax (sequents, constraint
    lists, theory files).
    """

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    @classmethod
    def read(cls, text: str, rule: Callable[[TokenParser], _T], first_line: int = 1) -> _T:
        """Tokenize ``text``, apply ``rule`` and require end of input."""
        p = cls(tokenize(text, first_line))
        out = rule(p)
        p.expect_end()
        return out

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def at_end(self) -> bool:
        return self.peek().kind == "end"

    def accept(self, kind: str) -> Token | None:
        tok = self.peek()
        if tok.kind == kind:
            self._pos += 1
            return tok
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.accept(kind)
        if tok is None:
            self.fail(what or f"'{kind}'")
        return tok

    def expect_end(self) -> None:
        if not self.at_end():
            self.fail("end of input")

    def fail(self, expected: str) -> NoReturn:
        tok = self.peek()
        found = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected {expected}, found {found}", tok.line, tok.column)

    # -- formula grammar ----------------------------------------------------

    def formula(self) -> Formula:
        return self._infix(0)

    def _infix(self, floor: int) -> Formula:
        """A unary operand joined by every infix operator whose strength
        reaches ``floor``, each right operand read at its right floor."""
        f = self.unary()
        while (row := _BINARY.get(token := self.peek().kind)) and row[0] >= floor:
            self._pos += 1
            f = _INFIX[token](f, self._infix(row[2]))
        return f

    def unary(self) -> Formula:
        prefix = _PREFIX.get(self.peek().kind)
        if prefix is not None:
            self._pos += 1
            return prefix(self.unary())
        tok = self.accept("atom")
        if tok is not None:
            return Atom(tok.text)
        if self.accept("("):
            f = self._infix(0)
            self.expect(")")
            return f
        self.fail("a formula")

    def formula_list(self) -> tuple[Formula, ...]:
        out = [self.formula()]
        while self.accept(","):
            out.append(self.formula())
        return tuple(out)

    def default(self) -> Default:
        prereq = self.formula()
        self.expect(":")
        justifications = self.formula_list()
        self.expect("/")
        return Default(prereq, justifications, self.formula())


def parse_formula(text: str) -> Formula:
    """Parse a single formula; rejects empty input and trailing garbage."""
    return TokenParser.read(text, TokenParser.formula)


def parse_formula_list(text: str) -> tuple[Formula, ...]:
    """Comma-separated formulas; blank input is the empty list."""
    return TokenParser.read(text, lambda p: () if p.at_end() else p.formula_list())


def parse_default(text: str) -> Default:
    """A bare default ``A : B1, ..., Bn / C`` (no trailing dot)."""
    return TokenParser.read(text, TokenParser.default)


#: The line ends of a theory file: those that text-mode ``open`` translates.
_LINE_END = re.compile(r"\r\n|\r|\n")


def _theory_line(p: TokenParser) -> tuple[str, Formula | Default]:
    """``fact: F.`` or ``default: D.``, read as its keyword and its item."""
    if p.peek().text not in ("fact", "default"):
        p.fail("'fact' or 'default'")
    keyword = p.expect("atom").text
    p.expect(":")
    item = p.formula() if keyword == "fact" else p.default()
    p.expect(".")
    return keyword, item


def parse_theory(text: str) -> DefaultTheory:
    """Parse a ``.dl3`` theory file; default order is preserved as written.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so a form feed or
    another separator that ``str.splitlines`` would break at is an
    unexpected character."""
    kept: dict[str, list] = {"fact": [], "default": []}
    for lineno, raw in enumerate(_LINE_END.split(text), start=1):
        stripped = raw.strip(" \t")
        if not stripped or stripped.startswith("%"):
            continue
        keyword, item = TokenParser.read(raw, _theory_line, lineno)
        if item in kept[keyword]:
            shown = print_formula(item) if keyword == "fact" else print_default(item)
            warnings.warn(f"duplicate {keyword} {shown!r} dropped at line {lineno}",
                          DuplicateWarning, stacklevel=2)
        else:
            kept[keyword].append(item)
    return DefaultTheory(frozenset(kept["fact"]), tuple(kept["default"]))


# ---------------------------------------------------------------------------
# Printer


def print_formula(f: Formula) -> str:
    """Minimal-parentheses rendering; parses back to a structurally equal tree."""
    return _render(f, 0)


def _render(f: Formula, floor: int) -> str:
    if isinstance(f, Atom):
        return f.name
    token = _CONNECTIVE[type(f)]
    binary = _BINARY.get(token)
    if binary is None:  # a prefix; a letter is followed by a blank
        return token + (" " if token.isalpha() else "") + _render(f.arg, 4)
    strength, left, right = binary
    text = f"{_render(f.left, left)} {token} {_render(f.right, right)}"
    return f"({text})" if strength < floor else text


def print_default(d: Default) -> str:
    justs = ", ".join(print_formula(b) for b in d.justifications)
    return f"{print_formula(d.prereq)} : {justs} / {print_formula(d.consequent)}"
