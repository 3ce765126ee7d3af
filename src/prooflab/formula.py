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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

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

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<atom>[a-z][a-z0-9_]*)|(?P<iff><->)|(?P<not>~)|(?P<and>&)"
    r"|(?P<or>\|)|(?P<lpar>\()|(?P<rpar>\)))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        yield m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)
        pos = m.end()
    yield "eof", "", len(text)


def _too_deep(pos: int) -> None:
    raise ParseError(f"nested deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    """Recursive descent; each grammar rule returns a node and its level.

    Both the open ``(`` and ``~`` around the current token and the level
    of every node built are held to ``MAX_DEPTH``: the first bounds the
    parser's own recursion, the second every later walk of the tree
    (a left fold ``p & p & ...`` is deep without any nesting)."""

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.open = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        self.i += 1
        return tok

    def formula(self) -> tuple[Formula, int]:
        node, depth = self.disjunction()
        while self.peek()[0] == "iff":
            pos = self.take("iff")[2]
            rhs, rdepth = self.disjunction()
            node = And(Or(Not(node), rhs), Or(Not(rhs), node))
            depth = max(depth, rdepth) + 3
            if depth > MAX_DEPTH:
                _too_deep(pos)
        return node, depth

    def disjunction(self) -> tuple[Formula, int]:
        node, depth = self.conjunction()
        while self.peek()[0] == "or":
            pos = self.take("or")[2]
            rhs, rdepth = self.conjunction()
            node = Or(node, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                _too_deep(pos)
        return node, depth

    def conjunction(self) -> tuple[Formula, int]:
        node, depth = self.unary()
        while self.peek()[0] == "and":
            pos = self.take("and")[2]
            rhs, rdepth = self.unary()
            node = And(node, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                _too_deep(pos)
        return node, depth

    def unary(self) -> tuple[Formula, int]:
        kind, text, pos = self.peek()
        if kind == "atom":
            self.take("atom")
            return Atom(text), 0
        if kind not in ("not", "lpar"):
            raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)
        self.take(kind)
        self.open += 1
        if self.open > MAX_DEPTH:
            _too_deep(pos)
        if kind == "not":
            child, depth = self.unary()
            node, depth = Not(child), depth + 1
            if depth > MAX_DEPTH:
                _too_deep(pos)
        else:
            node, depth = self.formula()
            self.take("rpar")
        self.open -= 1
        return node, depth


def parse(text: str) -> Formula:
    """Parse ``text`` into the unique AST fixed by the precedence rules.

    Raises :class:`ParseError` with the offending position on malformed
    input, and on input nested deeper than ``MAX_DEPTH``.
    """
    p = _Parser(text)
    node = p.formula()[0]
    p.take("eof")
    return node


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
