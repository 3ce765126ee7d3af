"""Formula ASTs over {~, &, |}, their grammar, and Boolean valuations.

Grammar (whitespace insignificant)::

    formula := iff
    iff     := or ( "<->" or )*
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "~" unary | atom | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

One precedence-climbing loop reads the three binary rules from an
operator table that gives each operator its binding strength.
``<->`` is parser sugar only: ``a <-> b`` desugars to
``(~a | b) & (~b | a)``, so the AST carries exactly the three
connectives ~, &, |.  Binary operators associate to the left. A node
adds one level to the deeper of its operands, and a ``<->`` node three,
those of its desugared form.

The one grammar builds into any algebra (:meth:`Scanned.build`):
:func:`parse` builds the AST, and ``propclass.canonicalize_text``
builds truth tables with no tree in between. Since ``<->`` shares its
operands, a parsed formula is a DAG; every walk of one is a call to
:func:`fold`, which evaluates the AST in any algebra and visits each
shared subtree once.
"""

from __future__ import annotations

import re
from operator import and_, is_, not_, or_
from typing import Mapping, Union

from ._record import record
from .errors import ParseError

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

# The deepest formula or proof the parsers accept, in levels of the
# tree and in "(" and "~" open at once. It keeps every recursive walk
# of a parsed tree far below the interpreter's recursion limit.
MAX_DEPTH = 100


@record
class Atom:
    name: str

    def __post_init__(self):
        if ATOM_RE.fullmatch(self.name) is None:
            raise ValueError(f"invalid atom name {self.name!r}")


@record
class Not:
    child: "Formula"


@record
class And:
    left: "Formula"
    right: "Formula"


@record
class Or:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or]


@record
class Valuation:
    """Total atom assignment: an explicit map plus a default bit.

    Atoms absent from ``assign`` take ``default``, which makes every
    valuation total over the whole alphabet.
    """

    assign: Mapping[str, int]
    default: int = 0

    def bit(self, atom: str) -> int:
        return self.assign.get(atom, self.default)


def fold(f: Formula, atom, neg, conj, disj):
    """The value of ``f`` in the algebra given by one function per node
    kind: ``atom(name)``, ``neg(x)``, ``conj(x, y)`` and ``disj(x, y)``.

    The AST counterpart of :meth:`Scanned.build`. ``<->`` shares its
    operands, so a parsed formula is a DAG: ``atom`` is called once per
    distinct name and each binary node is computed once per call, keyed
    on its identity (hashing a node hashes its fields, so it would
    itself walk the tree).
    Raises ``TypeError`` at the first node, left to right, whose type is
    not ``Atom``, ``Not``, ``And`` or ``Or``.
    """
    return _fold(f, {}, atom, neg, conj, disj)


# one recursive function, not a closure: building a closure's cells
# costs more than the whole walk of a small formula
def _fold(g, memo, atom, neg, conj, disj):
    kind = type(g)
    if kind is Atom:
        name = g.name
        if name not in memo:  # names and node ids share the memo
            memo[name] = atom(name)
        return memo[name]
    if kind is Not:
        return neg(_fold(g.child, memo, atom, neg, conj, disj))
    key = id(g)
    if key in memo:
        return memo[key]
    if kind is And:
        value = conj(
            _fold(g.left, memo, atom, neg, conj, disj),
            _fold(g.right, memo, atom, neg, conj, disj),
        )
    elif kind is Or:
        value = disj(
            _fold(g.left, memo, atom, neg, conj, disj),
            _fold(g.right, memo, atom, neg, conj, disj),
        )
    else:
        raise TypeError(f"not a formula: {g!r}")
    memo[key] = value
    return value


def evaluate(f: Formula, v: Valuation) -> int:
    """Evaluate ``f`` under ``v`` with the standard Boolean semantics."""
    return fold(f, v.bit, lambda x: 1 - x, and_, or_)


def level(f: Formula) -> int:
    """Connective nesting depth: atoms sit at level 0."""
    return fold(f, lambda name: 0, (1).__add__, _above, _above)


def _above(x: int, y: int) -> int:
    return (x if x > y else y) + 1


def atoms_of(f: Formula) -> set[str]:
    """All atom names occurring in ``f``."""
    names: set[str] = set()
    # only the calls to names.add count; not_ and is_ are the cheapest
    # functions of one and two arguments
    fold(f, names.add, not_, is_, is_)
    return names


# --- parsing -----------------------------------------------------------

# one token per match; a character that starts no token comes out as a
# one-character token outside _ONE_CHAR_TOKENS
_TOKEN_RE = re.compile(r"\s*([a-z][a-z0-9_]*|<->|[~&|()]|\S)")
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyz~&|()")
# per binary operator: its binding strength, the algebra function that
# builds its node, and the levels that node adds
_BINARY = {"<->": (0, "iff", 3), "|": (1, "disj", 1), "&": (2, "conj", 1)}
# the tokens that are not atoms; "" marks the end of input
_SYMBOLS = frozenset(_BINARY).union(("~", "(", ")", ""))
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
    """Precedence climbing (Clarke 1986): one loop, :meth:`binary`, reads
    every binary operator from ``_BINARY``; it and :meth:`unary` return
    a value and its level.

    Both the open ``(`` and ``~`` around the current token and the level
    of every node built are held to ``MAX_DEPTH``: the first bounds the
    parser's own recursion, the second every later walk of the tree
    (a left fold ``p & p & ...`` is deep without any nesting)."""

    def __init__(self, scanned: Scanned, atom, neg, conj, disj, iff):
        self.scanned = scanned
        self.tokens = scanned.tokens
        self.i = 0
        self.open = 0
        self.atom, self.neg, self.conj, self.disj, self.iff = atom, neg, conj, disj, iff

    def run(self):
        value = self.binary(*self.unary(), 0)[0]
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

    def binary(self, value, depth: int, floor: int):
        """``value``, of level ``depth``, joined left to right with the
        operands of the operators that bind at least ``floor`` strongly.
        An operand is one unary, or more when a stronger operator follows
        it."""
        tokens = self.tokens
        while (op := _BINARY.get(tokens[self.i])) is not None and op[0] >= floor:
            strength, name, levels = op
            k = self.i
            self.i += 1
            rhs, rdepth = self.unary()
            if (after := _BINARY.get(tokens[self.i])) is not None and after[0] > strength:
                rhs, rdepth = self.binary(rhs, rdepth, strength + 1)
            value = getattr(self, name)(value, rhs)
            depth = max(depth, rdepth) + levels
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
            value, depth = self.binary(*self.unary(), 0)
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

def _wrap(child: tuple[str, int], parent_prec: int, right_operand: bool) -> str:
    text, prec = child
    # Left-associative printing: a same-precedence right operand keeps
    # its parentheses so the round trip reproduces the tree.
    if prec < parent_prec or (prec == parent_prec and right_operand):
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Minimal-parentheses text form; ``parse(render(f))`` equals ``f``.

    Each node renders to its text and precedence: | 0, & 1, ~ 2, atom 3."""
    return fold(
        f,
        lambda name: (name, 3),
        lambda x: ("~" + _wrap(x, 2, False), 2),
        lambda x, y: (f"{_wrap(x, 1, False)} & {_wrap(y, 1, True)}", 1),
        lambda x, y: (f"{_wrap(x, 0, False)} | {_wrap(y, 0, True)}", 0),
    )[0]
