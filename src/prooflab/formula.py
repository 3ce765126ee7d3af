"""Formula ASTs over {~, &, |}, their grammar, and Boolean valuations.

Grammar (whitespace insignificant)::

    formula := iff
    iff     := or ( "<->" or )*
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "~" unary | atom | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

``<->`` is parser sugar only: ``a <-> b`` desugars to
``(~a | b) & (~b | a)``, so the AST carries exactly the three
connectives ~, &, |.  Binary operators associate to the left.

The one grammar builds into any algebra (:meth:`Scanned.build`):
:func:`parse` builds the AST, and ``propclass.canonicalize_text``
builds truth tables with no tree in between.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ParseError

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

# The deepest formula or proof the parsers accept, in levels of the
# tree and in "(" and "~" open at once. It keeps every recursive walk
# of a parsed tree far below the interpreter's recursion limit.
MAX_DEPTH = 100


@dataclass(frozen=True)
class Atom:
    name: str

    def __post_init__(self):
        if ATOM_RE.fullmatch(self.name) is None:
            raise ValueError(f"invalid atom name {self.name!r}")


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or]


@dataclass(frozen=True, eq=True)
class Valuation:
    """Total atom assignment: an explicit map plus a default bit.

    Atoms absent from ``assign`` take ``default``, which makes every
    valuation total over the whole alphabet.
    """

    assign: Mapping[str, int]
    default: int = 0

    def bit(self, atom: str) -> int:
        return self.assign.get(atom, self.default)


def evaluate(f: Formula, v: Valuation) -> int:
    """Evaluate ``f`` under ``v`` with the standard Boolean semantics."""
    if isinstance(f, Atom):
        return v.bit(f.name)
    if isinstance(f, Not):
        return 1 - evaluate(f.child, v)
    if isinstance(f, And):
        return evaluate(f.left, v) & evaluate(f.right, v)
    if isinstance(f, Or):
        return evaluate(f.left, v) | evaluate(f.right, v)
    raise TypeError(f"not a formula: {f!r}")


def level(f: Formula) -> int:
    """Connective nesting depth: atoms sit at level 0."""
    memo: dict[int, int] = {}

    # ``<->`` shares its operands, so binary nodes are walked once each,
    # keyed on identity: the dataclass hash would itself walk the tree
    def walk(g: Formula) -> int:
        if isinstance(g, Atom):
            return 0
        if isinstance(g, Not):
            return walk(g.child) + 1
        key = id(g)
        if key not in memo:
            memo[key] = max(walk(g.left), walk(g.right)) + 1
        return memo[key]

    return walk(f)


def atoms_of(f: Formula) -> set[str]:
    """All atom names occurring in ``f``; shared subtrees are visited once."""
    names: set[str] = set()
    _collect_atoms(f, names, set())
    return names


def _collect_atoms(f: Formula, names: set[str], seen: set[int]) -> None:
    if isinstance(f, Atom):
        names.add(f.name)
    elif isinstance(f, Not):
        _collect_atoms(f.child, names, seen)
    elif id(f) not in seen:
        seen.add(id(f))
        _collect_atoms(f.left, names, seen)
        _collect_atoms(f.right, names, seen)


# --- parsing -----------------------------------------------------------

# one token per match; a character that starts no token comes out as a
# one-character token outside _ONE_CHAR_TOKENS
_TOKEN_RE = re.compile(r"\s*([a-z][a-z0-9_]*|<->|[~&|()]|\S)")
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyz~&|()")
# the tokens that are not atoms; "" marks the end of input
_SYMBOLS = frozenset(("<->", "~", "&", "|", "(", ")", ""))
# how error messages name the tokens the grammar requires
_KIND = {")": "rpar", "": "eof"}


def _is_stray(token: str) -> bool:
    return len(token) == 1 and token not in _ONE_CHAR_TOKENS


class Scanned:
    """A formula text cut into tokens, ready to be built into any algebra.

    Cutting the text first gives the atoms before any node is built, so
    a caller can size what each atom maps to. A character that starts
    no token raises :class:`ParseError` here, before any grammar error.
    """

    __slots__ = ("text", "tokens", "distinct")

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.distinct = set(self.tokens)
        if any(_is_stray(t) for t in self.distinct):
            k = next(k for k, t in enumerate(self.tokens) if _is_stray(t))
            raise ParseError(f"unexpected character {self.tokens[k]!r}", self.position(k))
        self.tokens.append("")

    def atoms(self) -> list[str]:
        """The atom names in the text, sorted."""
        return sorted(self.distinct.difference(_SYMBOLS))

    def build(self, atom, neg, conj, disj, iff):
        """The value of the formula in the algebra given by one function
        per token: ``atom(name)``, ``neg(x)``, ``conj(x, y)``,
        ``disj(x, y)`` and ``iff(x, y)``.

        Raises :class:`ParseError` on malformed input and on input
        nested deeper than ``MAX_DEPTH``.
        """
        return _Descent(self, atom, neg, conj, disj, iff).run()

    def position(self, k: int) -> int:
        """Where the k-th token starts; the end of input is one past the
        last."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return (starts + [len(self.text)])[k]


class _Descent:
    """Recursive descent; each grammar rule returns a value and its level.

    Both the open ``(`` and ``~`` around the current token and the level
    of every node built are held to ``MAX_DEPTH``: the first bounds the
    parser's own recursion, the second every later walk of the tree
    (a left fold ``p & p & ...`` is deep without any nesting). ``<->``
    counts three levels, those of its desugared form."""

    def __init__(self, scanned: Scanned, atom, neg, conj, disj, iff):
        self.scanned = scanned
        self.tokens = scanned.tokens
        self.i = 0
        self.open = 0
        self.atom, self.neg, self.conj, self.disj, self.iff = atom, neg, conj, disj, iff

    def run(self):
        value = self.formula()[0]
        self.take("")
        return value

    def fail(self, message: str, k: int):
        raise ParseError(message, self.scanned.position(k))

    def too_deep(self, k: int):
        self.fail(f"nested deeper than {MAX_DEPTH} levels", k)

    def take(self, token: str) -> None:
        found = self.tokens[self.i]
        if found != token:
            self.fail(f"expected {_KIND[token]}, found {found or 'end of input'!r}", self.i)
        self.i += 1

    def formula(self):
        value, depth = self.disjunction()
        tokens = self.tokens
        while tokens[self.i] == "<->":
            k = self.i
            self.i += 1
            rhs, rdepth = self.disjunction()
            value = self.iff(value, rhs)
            depth = max(depth, rdepth) + 3
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def disjunction(self):
        value, depth = self.conjunction()
        tokens = self.tokens
        while tokens[self.i] == "|":
            k = self.i
            self.i += 1
            rhs, rdepth = self.conjunction()
            value = self.disj(value, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def conjunction(self):
        value, depth = self.unary()
        tokens = self.tokens
        while tokens[self.i] == "&":
            k = self.i
            self.i += 1
            rhs, rdepth = self.unary()
            value = self.conj(value, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def unary(self):
        k = self.i
        token = self.tokens[k]
        if token not in _SYMBOLS:
            self.i = k + 1
            return self.atom(token), 0
        if token != "~" and token != "(":
            self.fail(f"expected a formula, found {token or 'end of input'!r}", k)
        self.i = k + 1
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(k)
        if token == "~":
            child, depth = self.unary()
            value, depth = self.neg(child), depth + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        else:
            value, depth = self.formula()
            self.take(")")
        self.open -= 1
        return value, depth


def _iff_node(a: Formula, b: Formula) -> Formula:
    return And(Or(Not(a), b), Or(Not(b), a))


def parse(text: str) -> Formula:
    """Parse ``text`` into the unique AST fixed by the precedence rules.

    Raises :class:`ParseError` with the offending position on malformed
    input, and on input nested deeper than ``MAX_DEPTH``.
    """
    return Scanned(text).build(Atom, Not, And, Or, _iff_node)


# --- printing ----------------------------------------------------------

_PREC = {Or: 0, And: 1, Not: 2, Atom: 3}


def _wrap(child: Formula, parent_prec: int, right_operand: bool) -> str:
    text = render(child)
    prec = _PREC[type(child)]
    # Left-associative printing: a same-precedence right operand keeps
    # its parentheses so the round trip reproduces the tree.
    if prec < parent_prec or (prec == parent_prec and right_operand):
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Minimal-parentheses text form; ``parse(render(f))`` equals ``f``."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + _wrap(f.child, _PREC[Not], False)
    if isinstance(f, And):
        return f"{_wrap(f.left, 1, False)} & {_wrap(f.right, 1, True)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left, 0, False)} | {_wrap(f.right, 0, True)}"
    raise TypeError(f"not a formula: {f!r}")
