"""Set-tree proof objects: construction from interpreted deductions,
canonical serialization, digests, and essential equality.

A node is either a premise (no justification) or carries a nonempty
unordered set of child nodes. Child sets follow set semantics: order
and duplicates cannot be observed. The canonical serialization sorts
child serializations as byte strings, which makes string equality of
serializations coincide with structural equality of trees and turns
the digest into a complete invariant of essential equality.

Nodes are hash-consed (Ershov 1958; Filliâtre and Conchon, "Type-safe
modular hash-consing", 2006): ``ProofNode(conclusion, children)``
returns the one live node with that conclusion and child set, held in
a weak-value intern table keyed on the two. Structurally equal proofs
are the same object, so essential equality is identity and a node's
hash is computed once. Each node computes its canonical text, digest
and normal form at most once and keeps them; a node that no proof
holds any more leaves the table with its caches.

Normalization rewrites every tautology-concluded node to premise form;
it is applied to every constructed proof.
"""

from __future__ import annotations

import hashlib
import re
import weakref
from operator import attrgetter, is_
from typing import Any, Callable, NoReturn, Optional

from ._record import FrozenInstanceError
from .errors import InvalidInterpretation, ParseError, ResourceLimit
from .formula import MAX_DEPTH
from .propclass import (
    CONTRADICTION,
    DEFAULT_ATOM_CAP,
    PropClass,
    _columns,
    class_from_text,
    is_tautology,
)
from .deduction import Deduction, Interpretation, induce_interpretation, validate_interpretation

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
    equal content gives the same object, so ``==`` is ``is``, and the
    hash is that of the tuple ``(conclusion, children)``.
    """

    __slots__ = ("conclusion", "children", "_hash", "_text", "_digest", "_normal", "__weakref__")

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
            _set_hash(node, hash(key))
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

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling interns again, so a round trip gives the same node
        return ProofNode, (self.conclusion, self.children)

    def __repr__(self) -> str:
        return f"ProofNode(conclusion={self.conclusion!r}, children={self.children!r})"

    @property
    def is_premise(self) -> bool:
        return self.children is None


# assignment through a node raises, so the module writes its slots
# through their descriptors
_set_conclusion = ProofNode.conclusion.__set__
_set_children = ProofNode.children.__set__
_set_hash = ProofNode._hash.__set__
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


def fold(
    r: ProofNode,
    visit: Callable[[ProofNode, Callable[[ProofNode], Any]], Any],
    known: Optional[Callable[[ProofNode], Any]] = None,
) -> Any:
    """Evaluate ``visit(node, value)`` bottom-up over ``r``, where
    ``value(child)`` is the result already computed for a child.

    Each distinct node is visited once per call, keyed on its identity,
    on a stack of its own: a reading justifies each step by every step
    before it, so a built proof shares its subtrees and is as deep as
    its deduction is long. With ``known``, a node for which
    ``known(node)`` is not None takes that result, and the walk does not
    enter it."""
    if known is not None and (result := known(r)) is not None:
        return result
    memo: dict[int, Any] = {}

    def value(node: ProofNode) -> Any:
        return memo[id(node)]

    stack = [(r, False)]
    while stack:
        node, ready = stack.pop()
        key = id(node)
        if ready:
            memo[key] = visit(node, value)
        elif key in memo:
            continue
        elif node.children is None:
            memo[key] = visit(node, value)
        else:
            stack.append((node, True))
            for c in node.children:
                if id(c) in memo:
                    continue
                if known is not None and (result := known(c)) is not None:
                    memo[id(c)] = result
                else:
                    stack.append((c, False))
    return memo[id(r)]


def canonical_serialize(r: ProofNode) -> str:
    """Order- and duplicate-insensitive text form of the tree; built
    once per distinct node and kept on it."""
    return fold(r, _serialize, _text_of)


_text_of = attrgetter("_text")


def _serialize(node: ProofNode, value: Callable[[ProofNode], str]) -> str:
    if node.children is None:
        just = "{0}"
    else:
        just = "{%s}" % ",".join(sorted(map(value, node.children)))
    text = "{%s,%s}" % (node.conclusion.text(), just)
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


def build_proof(
    d: Deduction, phi: Interpretation, atom_cap: int = DEFAULT_ATOM_CAP
) -> ProofNode:
    """The proof tree of an interpreted deduction; a reading that does
    not interpret ``d`` raises :class:`InvalidInterpretation`."""
    if not validate_interpretation(d, phi, atom_cap):
        raise InvalidInterpretation("the assignment does not interpret this deduction")
    return _assemble(d, phi)


def prove(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> ProofNode:
    """The proof tree of ``d`` under its canonical reading.

    :func:`induce_interpretation` returns only readings that validate
    (every step it reaches is entailed by the steps before it, and every
    other step is an extension member), so the reading is not checked
    again as :func:`build_proof` checks a caller's."""
    return _assemble(d, induce_interpretation(d, atom_cap))


def _assemble(d: Deduction, phi: Interpretation) -> ProofNode:
    """The proof tree of a reading already known to interpret ``d``.

    Steps are built in order, since an index set names earlier steps
    only: a premise index becomes a premise node, an index set becomes
    the set of its sub-proofs (equal subtrees collapse). A tautology
    step becomes a premise node as it is built, so the result is
    normalized with one node object per step.
    """
    nodes: list[ProofNode] = []  # nodes[u - 1] proves step u
    for u in range(1, len(d) + 1):
        v = phi.assignment[u]
        if v == 0 or is_tautology(d.step(u)):
            nodes.append(ProofNode(d.step(u)))
        else:
            nodes.append(ProofNode(d.step(u), frozenset(nodes[h - 1] for h in sorted(v))))
    return nodes[-1]


def essentially_equal(
    d1: Deduction, phi1: Interpretation, d2: Deduction, phi2: Interpretation
) -> bool:
    """Whether two interpreted deductions produce the same proof tree."""
    return proof_eq(build_proof(d1, phi1), build_proof(d2, phi2))


def premises(r: ProofNode) -> frozenset[PropClass]:
    """Conclusions of all premise-justified nodes in the tree."""
    out: set[PropClass] = set()

    def visit(node: ProofNode, value) -> None:
        if node.children is None:
            out.add(node.conclusion)

    fold(r, visit)
    return frozenset(out)


def less_forced(a: ProofNode, b: ProofNode) -> bool:
    """Strictly smaller premise set."""
    return premises(a) < premises(b)


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
    and increase strictly) keeps it as its text. No node text is a
    proper prefix of another, so once a justified node has closed
    twice, its span is kept under its conclusion and first child, and a
    later node with both whose text starts with that span is skipped to
    its end. A skip counts only within ``MAX_DEPTH``, so every depth
    error keeps its position. Without a justified tautology node, every
    node is its own normal form and is marked so."""
    head = _NODE_HEAD.match
    leaves: dict[str, ProofNode] = {}  # class text -> premise node
    made: dict[tuple[PropClass, frozenset[ProofNode]], ProofNode] = {}
    # (conclusion text, first child) -> (span, node, height, whether the
    # span is canonical) of the last repeat closed
    repeats: dict[tuple[str, ProofNode], tuple[str, ProofNode, int, bool]] = {}
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
                kept = repeats.get((top[1], node))
                if kept is not None:
                    span, seen, seen_height, seen_canonical = kept
                    start = top[0]
                    depth = len(open_nodes) - 1
                    if depth + seen_height <= MAX_DEPTH and text.startswith(span, start):
                        open_nodes.pop()
                        node, height, canonical = seen, seen_height, seen_canonical
                        i = start + len(span)
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
            canonical = last is not None
            key = (conclusion, frozenset(kids))
            node = made.get(key)
            repeat = node is not None
            if not repeat:
                node = made[key] = ProofNode(*key)
            if canonical and node._text is None:
                _set_text(node, text[start:i])
            if repeat:
                span = node._text if canonical else text[start:i]
                repeats[conclusion_text, kids[0]] = (span, node, height, canonical)
        else:
            if text[i:].strip():
                raise ParseError("trailing data after proof", i)
            if not any(is_tautology(key[0]) for key in made):
                for n in [*made.values(), *leaves.values()]:
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


# --- pretty rendering ------------------------------------------------------


def pretty_class(c: PropClass) -> str:
    """Full-DNF rendering of a conclusion; constants print as 1 and 0.

    The text is ``render(representative(c))``, joined minterm by minterm
    rather than walked down the fold of one ``|`` per minterm."""
    if not c.support:
        return "1" if c != CONTRADICTION else "0"
    n = len(c.support)
    literals = [(f"~{name}", name) for name in c.support]
    return " | ".join(
        " & ".join(lit[m >> (n - 1 - j) & 1] for j, lit in enumerate(literals))
        for m in range(1 << n)
        if c.bits >> m & 1
    )


_PREMISE_MARK = "  [premise]"


def pretty_proof(r: ProofNode) -> str:
    """Indented, display-only tree with DNF conclusions."""
    lines: list[str] = []

    def walk(node: ProofNode, depth: int) -> None:
        marker = _PREMISE_MARK if node.is_premise else ""
        lines.append("  " * depth + "- " + pretty_class(node.conclusion) + marker)
        for child in sorted(node.children or (), key=canonical_serialize):
            walk(child, depth + 1)

    walk(r, 0)
    return "\n".join(lines)


# --- text lengths without the text -----------------------------------------


def _pretty_class_length(c: PropClass) -> int:
    """``len(pretty_class(c))``: each true row prints one literal per
    support atom, with a '~' on the atoms the row sets to 0."""
    n = len(c.support)
    if not n:
        return 1
    rows = c.bits.bit_count()
    ones = sum((c.bits & col).bit_count() for col in _columns(n))
    names = sum(map(len, c.support))
    return rows * (names + n + 3 * (n - 1)) - ones + 3 * (rows - 1)


def _canonical_measure(node: ProofNode, kids: list[int]) -> int:
    """Length of ``{class,{0}}`` or ``{class,{child,child,...}}``."""
    just = 3 if node.children is None else sum(kids) + len(kids) + 1
    return node.conclusion.text_length() + 3 + just


def _pretty_measure(node: ProofNode, kids: list[tuple[int, int]]) -> tuple[int, int]:
    """(lines, characters without newlines) of the subtree printed at
    depth 0; one level deeper indents each of its lines by two."""
    mark = _PREMISE_MARK if node.is_premise else ""
    chars = len("- ") + _pretty_class_length(node.conclusion) + len(mark)
    return 1 + sum(n for n, _ in kids), chars + sum(k + 2 * n for n, k in kids)


def _held_length(node: ProofNode) -> Optional[int]:
    """The length of the text a node already holds, else None."""
    return None if node._text is None else len(node._text)


def text_length(r: ProofNode, pretty: bool = False) -> int:
    """``len(canonical_serialize(r))``, or ``len(pretty_proof(r))`` with
    ``pretty``, without building either text.

    Each distinct node is measured once, from the measures of its
    children, so a built proof costs O(nodes + child links) however
    long its text. A node that holds its canonical text, as a parsed
    one does, measures as that text, and the walk stops there."""
    measure = _pretty_measure if pretty else _canonical_measure
    total = fold(
        r,
        lambda node, value: measure(node, [value(c) for c in node.children or ()]),
        None if pretty else _held_length,
    )
    if pretty:
        lines, chars = total
        return chars + lines - 1
    return total
