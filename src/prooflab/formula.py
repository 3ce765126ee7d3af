"""The formula grammar, the one DAG walker, and Boolean valuations.

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
``<->`` is parser sugar only: ``a <-> b`` is built as
``(~a | b) & (~b | a)``, so every algebra has exactly the three
connectives ~, &, |.  Binary operators associate to the left. A node
adds one level to the deeper of its operands, and a ``<->`` node three,
those of its desugared form.

The one grammar builds into any algebra: ``propclass.canonicalize_text``
builds truth tables with no tree in between, and ``spec.parse`` builds
the reference AST, whose walks run on :func:`walk`, the stack walker
proofs share. ``MAX_DEPTH`` bounds input, and so keeps the ``==``,
``hash`` and ``repr`` of a parsed ``spec`` tree, which recurse, shallow.
"""

from __future__ import annotations

import re
from typing import Mapping

from ._record import record
from .errors import ParseError

ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")

# The deepest formula or proof the parsers accept, in levels of the
# tree and in "(" and "~" open at once. It bounds input, and keeps the
# record ==, hash and repr of a parsed spec tree, which recurse once
# per level, far below the interpreter's recursion limit.
MAX_DEPTH = 100


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


def walk(r, visit, known=None):
    """Evaluate ``visit(node, value)`` bottom-up over ``r``, where
    ``value(child)`` is the result already computed for a child; a
    node's ``children`` are the nodes below it, None for a leaf.

    Each distinct node is visited once per call, keyed on its identity,
    on a stack of its own, so a DAG of any depth walks: a built proof
    shares its subtrees and is as deep as its deduction is long. With
    ``known``, the walk asks ``known(node)`` before it reads a node's
    children; a node for which it is not None takes that result, and
    the walk does not enter it."""
    if known is not None and (result := known(r)) is not None:
        return result
    memo = {}

    def value(node):
        return memo[id(node)]

    stack = [(r, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if ready:
            memo[key] = visit(node, value)
        elif key in memo:
            continue
        elif (children := node.children) is None:
            memo[key] = visit(node, value)
        else:
            stack.append((node, True))
            for c in children:
                if id(c) in memo:
                    continue
                if known is not None and (result := known(c)) is not None:
                    memo[id(c)] = result
                else:
                    stack.append((c, False))
    return memo[id(r)]


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
    the text, the second the ``spec`` tree that record ``==``, ``hash``
    and ``repr`` recurse through (a left fold ``p & p & ...`` is deep
    without any nesting).

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
