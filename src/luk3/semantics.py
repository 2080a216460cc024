"""Model theory of the three-valued base logic.

Truth values are f < u < t, read as the numbers 0, 1/2, 1.  Negation is
1 - x, implication is min(1, 1 - x + y), conjunction and disjunction are min
and max.  The modalities have the tables L: (f,u,t) -> (f,f,t) and
M: (f,u,t) -> (f,t,t); they coincide with the definable ~(A -> ~A) and
~A -> A, which the test suite pins down.  Only t is designated, so entailment
means: every interpretation making all premises t makes the goal t.

Everything here works by exhaustive enumeration of interpretations and serves
as ground truth for the sequent and anti-sequent calculi.

One memoized evaluator values formulas for ``evaluate``, the truth tables
and the anti-sequent calculus's refutation chains: within one call, or one
interpretation, each distinct subformula is valued once, however often it
occurs.

``Verdict`` and ``Interpretation`` are immutable named tuples; an
``Interpretation`` sorts its assignment and rejects a repeated atom on
construction and in ``_replace``.
"""

from __future__ import annotations

from enum import Enum
from functools import total_ordering
from itertools import product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple

from .syntax import _CONNECTIVE, Atom, Formula, atoms

if TYPE_CHECKING:  # pragma: no cover
    from .sequent import Sequent3

__all__ = [
    "Interpretation",
    "TruthValue",
    "UndeclaredAtomError",
    "VALUES",
    "Verdict",
    "apply_connective",
    "atomic_countermodel",
    "enumerate_interpretations",
    "evaluate",
    "tt_entails",
    "tt_sequent_true",
    "tt_sequent_valid",
    "tt_valid",
]


class UndeclaredAtomError(LookupError):
    """Evaluation hit an atom outside the interpretation's domain."""

    def __init__(self, atom: str):
        super().__init__(f"undeclared atom: {atom}")
        self.atom = atom


@total_ordering
class TruthValue(Enum):
    F = 0
    U = 1
    T = 2

    __hash__ = object.__hash__  # members are singletons; Enum's own hashes the name in Python

    def __init__(self, rank: int):
        # a plain attribute: the truth tables read it with no Python call,
        # where a property over ``value`` makes two through enum.py
        self.rank = rank

    def __lt__(self, other):
        if not isinstance(other, TruthValue):
            return NotImplemented
        return self.rank < other.rank

    @property
    def symbol(self) -> str:
        return self.name.lower()

    @classmethod
    def from_symbol(cls, s: str) -> "TruthValue":
        try:
            return _BY_SYMBOL[s]
        except (KeyError, TypeError):  # TypeError: an unhashable s
            raise ValueError(f"not a truth value: {s!r} (expected f, u or t)") from None


#: All values in component order (component 1 is f, 2 is u, 3 is t).
VALUES = (TruthValue.F, TruthValue.U, TruthValue.T)
_BY_SYMBOL = {v.symbol: v for v in VALUES}


def neg(v: TruthValue) -> TruthValue:
    return VALUES[2 - v.rank]


def impl(v: TruthValue, w: TruthValue) -> TruthValue:
    return VALUES[min(2, 2 - v.rank + w.rank)]


def conj(v: TruthValue, w: TruthValue) -> TruthValue:
    return VALUES[min(v.rank, w.rank)]


def disj(v: TruthValue, w: TruthValue) -> TruthValue:
    return VALUES[max(v.rank, w.rank)]


def cert(v: TruthValue) -> TruthValue:
    return TruthValue.T if v is TruthValue.T else TruthValue.F


def poss(v: TruthValue) -> TruthValue:
    return TruthValue.F if v is TruthValue.F else TruthValue.T


_TABLES = {"~": neg, "->": impl, "&": conj, "|": disj, "L": cert, "M": poss}

#: The same tables by formula class, the key that ``evaluate`` has at hand.
_TABLE_OF = {cls: _TABLES[conn] for cls, conn in _CONNECTIVE.items()}


def apply_connective(conn: str, args: tuple[TruthValue, ...]) -> TruthValue:
    """Look up a connective's truth table."""
    return _TABLES[conn](*args)


class _InterpretationFields(NamedTuple):
    assignment: tuple[tuple[str, TruthValue], ...]


class Interpretation(_InterpretationFields):
    """Total map from a finite atom set to truth values: one field,
    ``assignment``, sorted by atom name."""

    __slots__ = ()

    def __new__(cls, assignment: tuple[tuple[str, TruthValue], ...]):
        pairs = tuple(sorted(assignment))
        if len({name for name, _ in pairs}) != len(pairs):
            raise ValueError("duplicate atom in interpretation")
        return tuple.__new__(cls, (pairs,))

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, "TruthValue | str"]) -> "Interpretation":
        """ValueError for a name that is not an atom's or a value that is
        not a truth value or its symbol."""
        pairs = []
        for name, v in dict(mapping).items():
            Atom(name)  # validates the atom name
            pairs.append((name, v if isinstance(v, TruthValue) else TruthValue.from_symbol(v)))
        return cls(tuple(pairs))

    @classmethod
    def of(cls, **values: "TruthValue | str") -> "Interpretation":
        return cls.from_mapping(values)

    @classmethod
    def from_text(cls, text: str) -> "Interpretation":
        """Parse ``a=t,b=u``; blank input is the empty interpretation."""
        text = text.strip()
        if not text:
            return cls(())
        pairs = []
        for part in text.split(","):
            name, eq, value = part.partition("=")
            name, value = name.strip(), value.strip()
            if not eq:
                raise ValueError(f"bad assignment {part.strip()!r} (expected atom=value)")
            Atom(name)  # validates the atom name
            pairs.append((name, TruthValue.from_symbol(value)))
        return cls(tuple(pairs))

    def to_text(self) -> str:
        return ",".join(f"{name}={v.symbol}" for name, v in self.assignment)

    def value(self, atom: str) -> TruthValue:
        try:
            return self.as_dict()[atom]
        except KeyError:
            raise UndeclaredAtomError(atom) from None

    @property
    def atoms(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.assignment)

    def as_dict(self) -> dict[str, TruthValue]:
        return dict(self.assignment)


def evaluate(f: Formula, interp: Interpretation) -> TruthValue:
    """Truth value of ``f`` under ``interp``; every atom of ``f`` must be
    declared.  Each distinct subformula is valued once per call."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return _evaluate(f, interp.as_dict(), {})


def _evaluate(f: Formula, table: Mapping[str, TruthValue],
              memo: dict[Formula, TruthValue]) -> TruthValue:
    """The value of ``f`` when each atom takes its value in ``table``, by
    atom name.  ``memo`` keeps the value of every subformula valued so far,
    so each distinct subformula is valued once per memo, by a recursion of
    one frame per formula level.  UndeclaredAtomError for an atom that
    ``table`` lacks."""
    v = memo.get(f)
    if v is None:
        args = f._args
        if not args:
            try:
                v = table[f.name]
            except KeyError:
                raise UndeclaredAtomError(f.name) from None
        elif len(args) == 1:
            v = _TABLE_OF[type(f)](_evaluate(args[0], table, memo))
        else:
            v = _TABLE_OF[type(f)](_evaluate(args[0], table, memo),
                                   _evaluate(args[1], table, memo))
        memo[f] = v
    return v


def enumerate_interpretations(atom_names: Iterable[str]) -> Iterator[Interpretation]:
    """All 3^n interpretations of the given atoms.

    Deterministic lexicographic order: atoms sorted, values in order
    f < u < t, the last atom varying fastest.
    """
    names = sorted(set(atom_names))
    for combo in product(VALUES, repeat=len(names)):
        yield Interpretation(tuple(zip(names, combo)))


class Verdict(NamedTuple):
    """Yes/no answer of a brute-force check, with the first counterexample."""

    holds: bool
    counter: Interpretation | None = None

    def __bool__(self) -> bool:
        return self.holds


def tt_valid(f: Formula) -> Verdict:
    """Is ``f`` true under every interpretation of its atoms?"""
    return _first_counter(atoms(f), lambda i: _evaluate(f, i.as_dict(), {}) is TruthValue.T)


def tt_entails(premises: Iterable[Formula], goal: Formula) -> Verdict:
    """Does every model making all premises t make the goal t?

    Holds vacuously when the premises are unsatisfiable.
    """
    premises = tuple(premises)
    names = set(atoms(goal))
    for p in premises:
        names.update(atoms(p))

    def holds(i: Interpretation) -> bool:
        table = i.as_dict()
        memo: dict[Formula, TruthValue] = {}
        return (not all(_evaluate(p, table, memo) is TruthValue.T for p in premises)
                or _evaluate(goal, table, memo) is TruthValue.T)

    return _first_counter(names, holds)


def tt_sequent_true(sequent: "Sequent3", interp: Interpretation) -> bool:
    """A three-sided sequent is true under ``interp`` when some component
    holds a formula taking that component's value (f, u, t in order)."""
    table = interp.as_dict()
    memo: dict[Formula, TruthValue] = {}
    for value, comp in zip(VALUES, sequent.components):
        for f in comp:
            if _evaluate(f, table, memo) is value:
                return True
    return False


def tt_sequent_valid(sequent: "Sequent3") -> Verdict:
    """Is the sequent true under every interpretation of its atoms?"""
    names: set[str] = set()
    for comp in sequent.components:
        for f in comp:
            names.update(atoms(f))
    return _first_counter(names, lambda i: tt_sequent_true(sequent, i))


def _first_counter(names: Iterable[str], holds: Callable[[Interpretation], bool]) -> Verdict:
    """The first interpretation of ``names`` where ``holds`` fails is the counterexample."""
    for i in enumerate_interpretations(names):
        if not holds(i):
            return Verdict(False, i)
    return Verdict(True)


def atomic_countermodel(components: tuple) -> Interpretation | None:
    """Falsifying interpretation for an all-atomic sequent, or None when every
    assignment satisfies some component.

    Each atom gets the value of the least component it does not occupy; an
    atom occupying all three components makes the sequent unfalsifiable.
    Raises ValueError when a non-atomic formula is present.
    """
    occupied: dict[str, set[int]] = {}
    for position, comp in enumerate(components, start=1):
        for f in comp:
            if not isinstance(f, Atom):
                raise ValueError(f"non-atomic formula in atomic sequent: {f!r}")
            occupied.setdefault(f.name, set()).add(position)
    out = []
    for name in sorted(occupied):
        free = [p for p in (1, 2, 3) if p not in occupied[name]]
        if not free:
            return None
        out.append((name, VALUES[free[0] - 1]))
    return Interpretation(tuple(out))
