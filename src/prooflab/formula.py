"""Formula ASTs over {~, &, |}, their grammar, and Boolean valuations.

Grammar (whitespace insignificant)::

    formula := iff
    iff     := or ( "<->" or )*
    or      := and ( "|" and )*
    and     := unary ( "&" unary )*
    unary   := "~" unary | atom | "(" formula ")"
    atom    := [a-z][a-z0-9_]*

One loop, :func:`build`, reads every formula: an operator-precedence
loop with explicit operand and operator stacks, which takes each binary
operator's binding strength from an operator table. It raises every
parse error itself, at the token where it is found.
``<->`` is parser sugar only: ``a <-> b`` desugars to
``(~a | b) & (~b | a)``, so the AST carries exactly the three
connectives ~, &, |.  Binary operators associate to the left. A node
adds one level to the deeper of its operands, and a ``<->`` node three,
those of its desugared form.

The one grammar builds into any algebra: :func:`parse` builds the AST,
and ``propclass.canonicalize_text`` builds truth tables with no tree in
between. Since ``<->`` shares its operands, a parsed formula is a DAG;
every walk of one is a call to :func:`fold`, which evaluates the AST in
any algebra and visits each shared subtree once.
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

    The AST counterpart of :func:`build`. ``<->`` shares its
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

# one token per match, whitespace between them; a character that starts
# no token comes out as a one-character token outside _ONE_CHAR_TOKENS
_TOKEN_RE = re.compile(r"[a-z][a-z0-9_]*|<->|\S")
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyz~&|()")
# each binary operator's binding strength, and by strength the levels
# its node adds
_BINARY = {"<->": 0, "|": 1, "&": 2}
_LEVELS = (3, 1, 1)
# the tokens that are not atoms; "" marks the end of input
_SYMBOLS = frozenset(_BINARY).union(("~", "(", ")", ""))
# the strengths of "~" and "(" on the operator stack: "~" binds
# tightest, and "(" stops every reduction
_NOT, _OPEN = 3, -1
_TOO_DEEP = f"nested deeper than {MAX_DEPTH} levels"


def tokenize(text: str) -> tuple[list[str], set[str]]:
    """The tokens of ``text``, closed by the end marker "", and its atom
    names.

    Cutting the text first gives the atoms before any node is built, so
    a caller can size what each atom maps to. A character that starts
    no token raises :class:`ParseError` here, before any grammar error.
    """
    tokens = _TOKEN_RE.findall(text)
    distinct = set(tokens)
    # the only one-character tokens outside _ONE_CHAR_TOKENS are strays
    if 1 in map(len, distinct.difference(_ONE_CHAR_TOKENS)):
        k = next(k for k, t in enumerate(tokens) if len(t) == 1 and t not in _ONE_CHAR_TOKENS)
        _fail(f"unexpected character {tokens[k]!r}", text, k)
    tokens.append("")
    return tokens, distinct.difference(_SYMBOLS)


def _fail(message: str, text: str, k: int):
    """Raise :class:`ParseError` at the start of the k-th token of
    ``text``; the end of input is one past the last."""
    starts = [m.start() for m in _TOKEN_RE.finditer(text)]
    raise ParseError(message, (starts + [len(text)])[k])


def build(text: str, tokens: list[str], atom, neg, conj, disj, iff):
    """The value of ``text``, cut into ``tokens`` by :func:`tokenize`,
    in the algebra given by one function per token: ``atom(name)``,
    ``neg(x)``, ``conj(x, y)``, ``disj(x, y)`` and ``iff(x, y)``.

    Operator precedence with explicit stacks (Dijkstra's shunting yard,
    1961): each operator waits on a stack, with its token index, until
    the token after its right operand binds no more strongly; then it is
    applied to the operands, innermost first. A "~" is applied as soon
    as its operand is complete, and a ")" applies every operator back to
    its "(". Both the open "(" and "~" and the level of every value
    built are held to ``MAX_DEPTH``: the first bounds the nesting of
    the text, the second every later walk of the tree (a left fold
    ``p & p & ...`` is deep without any nesting).

    Raises :class:`ParseError` on malformed input and on input nested
    deeper than ``MAX_DEPTH``, at the token where it is found.
    """
    join = (iff, disj, conj)  # by binding strength
    operands = []  # the left operand, and its level, of each binary operator on ops
    ops = []  # (strength, token index) of each operator not yet applied
    nesting = 0  # the "(" and "~" on ops
    k = 0
    while True:
        token = tokens[k]
        if token == "~" or token == "(":
            nesting += 1
            if nesting > MAX_DEPTH:
                _fail(_TOO_DEEP, text, k)
            ops.append((_NOT if token == "~" else _OPEN, k))
            k += 1
            continue
        if token in _SYMBOLS:
            _fail(f"expected a formula, found {token or 'end of input'!r}", text, k)
        value, depth = atom(token), 0
        k += 1
        # an operand is complete: apply the "~" before it, then the
        # operators that bind at least as strongly as the next token
        while True:
            while ops and ops[-1][0] == _NOT:
                j = ops.pop()[1]
                nesting -= 1
                value, depth = neg(value), depth + 1
                if depth > MAX_DEPTH:
                    _fail(_TOO_DEEP, text, j)
            token = tokens[k]
            floor = _BINARY.get(token, 0)
            while ops and ops[-1][0] >= floor:
                strength, j = ops.pop()
                left, ldepth = operands.pop()
                value = join[strength](left, value)
                depth = (ldepth if ldepth > depth else depth) + _LEVELS[strength]
                if depth > MAX_DEPTH:
                    _fail(_TOO_DEEP, text, j)
            if token in _BINARY:
                operands.append((value, depth))
                ops.append((floor, k))
                k += 1
                break
            if token == ")" and ops:  # ops ends in its "("
                ops.pop()
                nesting -= 1
                k += 1
                continue
            if ops:
                _fail(f"expected rpar, found {token or 'end of input'!r}", text, k)
            if token:
                _fail(f"expected eof, found {token!r}", text, k)
            return value


def _iff_node(a: Formula, b: Formula) -> Formula:
    return And(Or(Not(a), b), Or(Not(b), a))


def parse(text: str) -> Formula:
    """Parse ``text`` into the unique AST fixed by the precedence rules.

    Raises :class:`ParseError` with the offending position on malformed
    input, and on input nested deeper than ``MAX_DEPTH``.
    """
    return build(text, tokenize(text)[0], Atom, Not, And, Or, _iff_node)


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
