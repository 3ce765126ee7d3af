"""Set-tree proof objects: construction from canonical readings,
canonical serialization, digests, and essential equality.

A node is either a premise (no justification) or carries a nonempty
unordered set of child nodes. Child sets follow set semantics: order
and duplicates cannot be observed. The canonical serialization sorts
child serializations as byte strings, which makes string equality of
serializations coincide with structural equality of trees and turns
the digest into a complete invariant of essential equality. Each
format (this text, a pretty tree and its DNF classes) is one function
over an algebra: ``TEXT`` writes it and ``LENGTH`` counts it without
writing it, so every writer measures exactly the text it then builds.

Nodes are hash-consed (Ershov 1958; Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): ``ProofNode(conclusion, children)``
returns the one live node with that conclusion and child set, held in
a weak-value intern table keyed on the two. Structurally equal proofs
are the same object, so essential equality is identity, and a node
hashes by identity. Each node computes its canonical text, digest and
normal form at most once and keeps them; a node that no proof holds
any more leaves the table with its caches.

Normalization rewrites every tautology-concluded node to premise form;
it is applied to every constructed proof. A caller's own reading,
which must be checked first, is assembled by ``spec.build_proof``.
"""

from __future__ import annotations

import hashlib
import re
import weakref
from operator import attrgetter, is_
from types import SimpleNamespace
from typing import Any, Callable, NoReturn, Optional

from ._record import FrozenInstanceError
from .errors import ParseError, ResourceLimit
from .formula import MAX_DEPTH, walk as fold
from .propclass import (
    DEFAULT_ATOM_CAP,
    PropClass,
    _columns,
    class_from_text,
    is_tautology,
)
from .deduction import Deduction, reached_steps

ProofDigest = bytes

# characters of text built for one proof's output or digest; a reading
# justifies step u by every step before it, so the text of an n-step
# proof can double per step while the proof holds n distinct nodes
MAX_PROOF_TEXT = 1 << 24


def require_budget(name: str, n: int) -> None:
    """Refuse a ``name`` text of ``n`` characters over ``MAX_PROOF_TEXT``
    with :class:`ResourceLimit`, before anything builds it."""
    if n > MAX_PROOF_TEXT:
        raise ResourceLimit(f"{name} text of {n} characters exceeds the budget of {MAX_PROOF_TEXT}")


# the normal-form cache of a node that is its own normal form; a flag
# rather than a reference to the node, so the cache makes no cycle
_NORMAL = True


class ProofNode:
    """A conclusion class plus its justification.

    ``children is None`` marks a premise; otherwise ``children`` is a
    nonempty frozenset of sub-proofs. Nodes are interned and immutable:
    equal content gives the same object, so ``==`` is ``is`` and the
    hash is the identity hash.
    """

    __slots__ = ("conclusion", "children", "_text", "_digest", "_normal", "__weakref__")

    conclusion: PropClass
    children: Optional[frozenset[ProofNode]]

    def __new__(
        cls, conclusion: PropClass, children: Optional[frozenset[ProofNode]] = None
    ) -> ProofNode:
        if children is not None and not children:
            raise ValueError("a justified node needs at least one child")
        key = (conclusion, children)
        entry = _NODES.get(key)
        node = entry and entry()
        if node is None:
            node = object.__new__(cls)
            _set_conclusion(node, conclusion)
            _set_children(node, children)
            _set_text(node, None)
            _set_digest(node, None)
            _set_normal(node, None)
            entry = _NODES[key] = _Entry(node, _forget)
            entry.key = key
        return node

    def __setattr__(self, name: str, value: Any) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickling interns again, so a round trip gives the same node
        return ProofNode, (self.conclusion, self.children)

    def __repr__(self) -> str:
        # the child count, not the children: spelled out, a built proof
        # doubles its text per deduction step
        kids = "None" if self.children is None else f"<set of {len(self.children)}>"
        return f"ProofNode(conclusion={self.conclusion!r}, children={kids})"

    @property
    def is_premise(self) -> bool:
        return self.children is None


# assignment through a node raises, so the module writes its slots
# through their descriptors
_set_conclusion = ProofNode.conclusion.__set__
_set_children = ProofNode.children.__set__
_set_text = ProofNode._text.__set__
_set_digest = ProofNode._digest.__set__
_set_normal = ProofNode._normal.__set__


class _Entry(weakref.ref):
    """A weak reference to an interned node that knows its table key."""

    __slots__ = ("key",)


# (conclusion, children) -> an entry for the live node with that
# content; keyed on content, never on id, and an entry leaves with its
# node, so a dead node is never aliased
_NODES: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """Drop the entry of a node that died, unless a new node took its key."""
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


Justification = Optional[frozenset[ProofNode]]


def canonical_serialize(r: ProofNode) -> str:
    """Order- and duplicate-insensitive text form of the tree; built
    once per distinct node and kept on it."""
    return fold(r, _serialize, attrgetter("_text"))


def _serialize(node: ProofNode, value: Callable[[ProofNode], str]) -> str:
    text = _canonical(TEXT, node, value)
    _set_text(node, text)
    return text


def digest(r: ProofNode) -> ProofDigest:
    """Collision-resistant digest of the canonical serialization; kept
    on the node. A node that holds no text is measured first, and one
    whose text would exceed ``MAX_PROOF_TEXT`` raises
    :class:`ResourceLimit` before any of it is built."""
    if r._digest is None:
        if r._text is None:
            require_budget("canonical proof", text_length(r))
        text = canonical_serialize(r).encode("utf-8")
        _set_digest(r, hashlib.sha256(text).digest())
    return r._digest


def digest_hex(r: ProofNode) -> str:
    return digest(r).hex()


def proof_eq(a: ProofNode, b: ProofNode) -> bool:
    """Essential equality of proofs: equal canonical serializations,
    which for interned nodes is identity."""
    return a is b


def _with_children(node: ProofNode, value: Callable[[ProofNode], ProofNode]) -> ProofNode:
    """``node`` with each child c replaced by ``value(c)``; the node
    itself when no child changes."""
    if node.children is None:
        return node
    kids = [value(c) for c in node.children]
    if all(map(is_, kids, node.children)):
        return node
    return ProofNode(node.conclusion, frozenset(kids))


def rejustify(r: ProofNode, hit: Callable[[PropClass], bool], children: Justification) -> ProofNode:
    """Give every node whose conclusion satisfies ``hit`` the
    justification ``children``; ancestors rebuild with set semantics,
    and a subtree with no hit is returned as it is."""

    def visit(node: ProofNode, value) -> ProofNode:
        if hit(node.conclusion):
            return ProofNode(node.conclusion, children)
        return _with_children(node, value)

    return fold(r, visit)


def _normal_of(node: ProofNode) -> Optional[ProofNode]:
    """The normal form kept on ``node``; None before it is computed."""
    normal = node._normal
    return node if normal is _NORMAL else normal


def normalize(r: ProofNode) -> ProofNode:
    """Rewrite every tautology-concluded node to premise form; idempotent.

    The normal form is computed once per distinct node and kept on it."""
    return fold(r, _normalize, _normal_of)


def _normalize(node: ProofNode, value: Callable[[ProofNode], ProofNode]) -> ProofNode:
    if is_tautology(node.conclusion):
        normal = ProofNode(node.conclusion)
    else:
        normal = _with_children(node, value)
    _set_normal(normal, _NORMAL)
    if normal is not node:
        _set_normal(node, normal)
    return normal


def prove(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> ProofNode:
    """The normalized proof tree of ``d`` under its canonical reading,
    built from :func:`reached_steps` without the reading's index sets:
    when the last step is reached, each reached step that is no
    tautology is justified by every node before it, and every other
    step is a premise (equal premises are one interned node). That
    reading validates, so it skips the check ``spec.build_proof`` makes."""
    reached = reached_steps(d, atom_cap)
    nodes: list[ProofNode] = []  # nodes[u - 1] proves step u
    for c, hit in zip(d.steps, reached):
        if hit and reached[-1] and not is_tautology(c):
            nodes.append(ProofNode(c, frozenset(nodes)))
        else:
            nodes.append(ProofNode(c))
    return nodes[-1]


# --- canonical-form parsing ----------------------------------------------

# a node's opening up to its justification, the class text running to
# the first ']': group 2 is "0}}" for a whole premise node and None
# when a child set opens; a premise without its closing '}' fails
_NODE_HEAD = re.compile(r"\{(\[[^\]]*\]),\{(?:(0\}\})|(?!0\}))")


def parse_proof(text: str) -> ProofNode:
    """Inverse of :func:`canonical_serialize`; trees deeper than
    ``MAX_DEPTH`` levels raise :class:`ParseError`.

    One left-to-right scan with an explicit stack of open nodes; each
    node is interned as it closes. A node whose input span is canonical
    (a premise's always is, a justified node's when its children's are
    and increase strictly) keeps it as its text, and a justified one is
    then kept under its conclusion and first child. No node text is a
    proper prefix of another, so a later node with both whose input
    starts with the kept node's text is that node, and is skipped to
    its end; any other node, a non-canonical repeat among them, is read
    in full. A skip counts only within ``MAX_DEPTH``, so every depth
    error keeps its position. Without a justified tautology node, every
    node is its own normal form and is marked so."""
    head = _NODE_HEAD.match
    leaves: dict[str, ProofNode] = {}  # class text -> premise node
    closed: list[ProofNode] = []  # the justified nodes, as each closes
    # (conclusion text, first child) -> (node, height) of the last node
    # closed whose span was canonical
    kept: dict[tuple[str, ProofNode], tuple[ProofNode, int]] = {}
    # [start, conclusion text, conclusion, children, last child text
    # while the span can be canonical else None, height]
    open_nodes: list[list] = []
    i = 0
    while True:
        m = head(text, i)
        if m is None:
            _node_error(text, i, len(open_nodes))
        if len(open_nodes) > MAX_DEPTH:
            raise ParseError(f"nested deeper than {MAX_DEPTH} levels", i)
        conclusion_text, premise = m.groups()
        if premise is None:
            open_nodes.append([i, conclusion_text, class_from_text(conclusion_text), [], "", 1])
            i = m.end()
            continue
        i = m.end()
        node = leaves.get(conclusion_text)
        if node is None:
            node = leaves[conclusion_text] = ProofNode(class_from_text(conclusion_text))
            if node._text is None:
                _set_text(node, "{%s,{0}}" % conclusion_text)
        height, canonical = 0, True
        while open_nodes:
            top = open_nodes[-1]
            kids = top[3]
            kids.append(node)
            if len(kids) == 1:
                seen = kept.get((top[1], node))
                if seen is not None:
                    depth = len(open_nodes) - 1
                    if depth + seen[1] <= MAX_DEPTH and text.startswith(seen[0]._text, top[0]):
                        open_nodes.pop()
                        node, height = seen
                        canonical = True
                        i = top[0] + len(node._text)
                        continue
            last = top[4]
            if last is not None:
                top[4] = node._text if canonical and last < node._text else None
            if height >= top[5]:
                top[5] = height + 1
            sep = text[i : i + 1]
            if sep == ",":
                i += 1
                break
            if sep != "}":
                raise ParseError("expected ',' or '}' in a child set", i)
            if text[i + 1 : i + 2] != "}":
                raise ParseError("expected '}' closing the node", i + 1)
            i += 2
            start, conclusion_text, conclusion, kids, last, height = open_nodes.pop()
            node = ProofNode(conclusion, frozenset(kids))
            closed.append(node)
            canonical = last is not None
            if canonical:
                if node._text is None:
                    _set_text(node, text[start:i])
                kept[conclusion_text, kids[0]] = (node, height)
        else:
            if text[i:].strip():
                raise ParseError("trailing data after proof", i)
            if not any(is_tautology(n.conclusion) for n in closed):
                for n in [*closed, *leaves.values()]:
                    if n._normal is None:
                        _set_normal(n, _NORMAL)
            return node


def _node_error(text: str, i: int, depth: int) -> NoReturn:
    """Raise the error for the node at ``i`` that ``_NODE_HEAD`` did not
    accept, checking its parts in text order."""
    if text[i : i + 1] != "{":
        raise ParseError("expected '{'", i)
    if depth > MAX_DEPTH:
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", i)
    i += 1
    if text[i : i + 1] != "[":
        raise ParseError("expected a class text '['", i)
    close = text.find("]", i)
    if close < 0:
        raise ParseError("unterminated class text", i)
    class_from_text(text[i : close + 1])
    i = close + 1
    if text[i : i + 1] != ",":
        raise ParseError("expected ',' after the conclusion", i)
    if text[i + 1 : i + 4] == "{0}":
        raise ParseError("expected '}' closing the node", i + 4)
    raise ParseError("expected a justification", i + 1)


# --- output formats ------------------------------------------------------


def _rows(c: PropClass, literals: list[tuple[str, str]], conj: str, disj: str) -> str:
    """The true rows of ``c`` joined by ``disj``, each its literals joined
    by ``conj``: atom j's pair gives the first where the row sets it to 0."""
    n = len(literals)
    return disj.join(
        conj.join(lit[m >> (n - 1 - j) & 1] for j, lit in enumerate(literals))
        for m in range(1 << n)
        if c.bits >> m & 1
    )


def _rows_length(c: PropClass, literals: list[tuple[str, str]], conj: str, disj: str) -> int:
    """The length of :func:`_rows`, from the true rows that set each atom to 1."""
    rows = c.bits.bit_count()
    chars = rows * (len(literals) - 1) * len(conj) + (rows - 1) * len(disj)
    for (neg, pos), col in zip(literals, reversed(_columns(len(literals)))):
        ones = (c.bits & col).bit_count()
        chars += ones * len(pos) + (rows - ones) * len(neg)
    return chars


_INDENT = "  "
TEXT = SimpleNamespace(literal=str, join=str.join, table=PropClass.text, rows=_rows)
LENGTH = SimpleNamespace(
    literal=len,
    join=lambda sep, parts: sum(parts) + len(sep) * (len(parts) - 1),
    table=PropClass.text_length,
    rows=_rows_length,
)


def _canonical(alg: SimpleNamespace, node: ProofNode, value: Callable[[ProofNode], Any]) -> Any:
    """``{class,{0}}``, or ``{class,{child,child,...}}`` with the child
    texts ascending (sorted lengths keep their sum)."""
    kids = node.children
    just = alg.literal("0") if kids is None else alg.join(",", sorted(map(value, kids)))
    table = alg.table(node.conclusion)
    return alg.join("", [alg.literal("{"), table, alg.literal(",{"), just, alg.literal("}}")])


def _dnf(alg: SimpleNamespace, c: PropClass) -> Any:
    """``spec.render(spec.representative(c))``, joined minterm by
    minterm rather than walked down the fold of one ``|`` per minterm."""
    if not c.support:
        return alg.literal("1" if c.bits else "0")
    return alg.rows(c, [("~" + name, name) for name in c.support], " & ", " | ")


def _pretty_line(alg: SimpleNamespace, node: ProofNode, depth: int = 0) -> Any:
    """``- class``, indented once per level, marked when a premise."""
    line = [alg.literal(_INDENT * depth), alg.literal("- "), _dnf(alg, node.conclusion)]
    return alg.join("", [*line, alg.literal("  [premise]" if node.is_premise else "")])


def pretty_class(c: PropClass) -> str:
    """Full-DNF rendering of a conclusion; constants print as 1 and 0.
    One longer than ``MAX_PROOF_TEXT`` with the newline a writer ends it
    with raises :class:`ResourceLimit` before any of it is built."""
    require_budget("pretty class", _dnf(LENGTH, c) + 1)
    return _dnf(TEXT, c)


def pretty_proof(r: ProofNode) -> str:
    """Indented, display-only tree with DNF conclusions and children in
    canonical order. This text with its final newline, and then the
    canonical text that orders the children, are refused as in
    :func:`pretty_class`; the walk keeps its own stack."""
    require_budget("pretty proof", pretty_length(r) + 1)
    require_budget("canonical proof", text_length(r))
    lines: list[str] = []
    stack = [(r, 0)]
    while stack:
        node, depth = stack.pop()
        lines.append(_pretty_line(TEXT, node, depth))
        # distinct children have distinct texts: pushed descending, popped ascending
        kids = sorted(node.children or (), key=canonical_serialize, reverse=True)
        stack.extend((c, depth + 1) for c in kids)
    return "\n".join(lines)


def text_length(r: ProofNode) -> int:
    """``len(canonical_serialize(r))``, without building the text: each
    distinct node is measured once, from its children's measures, so a
    built proof costs O(nodes + child links) however long its text. A
    node that holds its text, as a parsed one does, measures as that
    text, and the walk stops there."""
    return fold(
        r,
        lambda node, value: _canonical(LENGTH, node, value),
        lambda node: None if node._text is None else len(node._text),
    )


def _pretty_measure(node: ProofNode, value) -> tuple[int, int]:
    """(lines, characters without newlines) of the subtree printed at
    depth 0; one level deeper indents each of its lines once more."""
    kids = [value(c) for c in node.children or ()]
    chars = _pretty_line(LENGTH, node) + sum(k + len(_INDENT) * n for n, k in kids)
    return 1 + sum(n for n, _ in kids), chars


def pretty_length(r: ProofNode) -> int:
    """``len(pretty_proof(r))``, without building the text."""
    lines, chars = fold(r, _pretty_measure)
    return chars + lines - 1
