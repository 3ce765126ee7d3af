"""Set-tree proof objects: construction from interpreted deductions,
canonical serialization, digests, and essential equality.

A node is either a premise (no justification) or carries a nonempty
unordered set of child nodes. Child sets follow set semantics: order
and duplicates cannot be observed. The canonical serialization sorts
child serializations as byte strings, which makes string equality of
serializations coincide with structural equality of trees and turns
the digest into a complete invariant of essential equality.

Normalization rewrites every tautology-concluded node to premise form;
it is applied to every constructed proof.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InvalidInterpretation, ParseError
from .formula import MAX_DEPTH
from .propclass import (
    CONTRADICTION,
    DEFAULT_ATOM_CAP,
    PropClass,
    _columns,
    class_from_text,
    is_tautology,
)
from .deduction import Deduction, Interpretation, validate_interpretation

ProofDigest = bytes

# characters of proof text the CLI builds for one proof; a reading
# justifies step u by every step before it, so the text of an n-step
# proof can double per step while the proof holds n distinct nodes
MAX_PROOF_TEXT = 1 << 24


@dataclass(frozen=True)
class ProofNode:
    """A conclusion class plus its justification.

    ``children is None`` marks a premise; otherwise ``children`` is a
    nonempty frozenset of sub-proofs.
    """

    conclusion: PropClass
    children: Optional[frozenset["ProofNode"]] = None

    def __post_init__(self):
        if self.children is not None and not self.children:
            raise ValueError("a justified node needs at least one child")

    @property
    def is_premise(self) -> bool:
        return self.children is None


Justification = Optional[frozenset[ProofNode]]


@lru_cache(maxsize=1 << 16)
def canonical_serialize(r: ProofNode) -> str:
    """Order- and duplicate-insensitive text form of the tree."""
    if r.children is None:
        just = "{0}"
    else:
        just = "{%s}" % ",".join(sorted(canonical_serialize(c) for c in r.children))
    return "{%s,%s}" % (r.conclusion.text(), just)


def digest(r: ProofNode) -> ProofDigest:
    """Collision-resistant digest of the canonical serialization."""
    return hashlib.sha256(canonical_serialize(r).encode("utf-8")).digest()


def digest_hex(r: ProofNode) -> str:
    return digest(r).hex()


def proof_eq(a: ProofNode, b: ProofNode) -> bool:
    """Essential equality of proofs: equal canonical serializations."""
    return canonical_serialize(a) == canonical_serialize(b)


@lru_cache(maxsize=1 << 16)
def normalize(r: ProofNode) -> ProofNode:
    """Rewrite every tautology-concluded node to premise form; idempotent."""
    if is_tautology(r.conclusion):
        return ProofNode(r.conclusion)
    if r.children is None:
        return r
    return ProofNode(r.conclusion, frozenset(normalize(c) for c in r.children))


def sorted_children(r: ProofNode) -> list[ProofNode]:
    """Children in canonical (serialization) order; empty for premises."""
    if r.children is None:
        return []
    return sorted(r.children, key=canonical_serialize)


def build_proof(
    d: Deduction, phi: Interpretation, atom_cap: int = DEFAULT_ATOM_CAP
) -> ProofNode:
    """The proof tree of an interpreted deduction.

    Structural recursion from the final step: a premise index becomes a
    premise node, an index set becomes the set of its sub-proofs (equal
    subtrees collapse). A tautology step becomes a premise node as it is
    built, so the result is normalized with one node object per step and
    no lookup in the cache of :func:`normalize`, whose keys compare
    equal proofs built by an earlier call node by node, as trees.
    """
    if not validate_interpretation(d, phi, atom_cap):
        raise InvalidInterpretation("the assignment does not interpret this deduction")

    nodes: dict[int, ProofNode] = {}

    def node(u: int) -> ProofNode:
        if u not in nodes:
            v = phi.assignment[u]
            if v == 0 or is_tautology(d.step(u)):
                nodes[u] = ProofNode(d.step(u))
            else:
                nodes[u] = ProofNode(d.step(u), frozenset(node(h) for h in sorted(v)))
        return nodes[u]

    return node(len(d))


def essentially_equal(
    d1: Deduction, phi1: Interpretation, d2: Deduction, phi2: Interpretation
) -> bool:
    """Whether two interpreted deductions produce the same proof tree."""
    return proof_eq(build_proof(d1, phi1), build_proof(d2, phi2))


def premises(r: ProofNode) -> frozenset[PropClass]:
    """Conclusions of all premise-justified nodes in the tree.

    A reading justifies each step by every step before it, so a built
    proof shares its subtrees: each distinct node is visited once,
    keyed on its identity."""
    out: set[PropClass] = set()
    seen: set[int] = set()

    def walk(node: ProofNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if node.children is None:
            out.add(node.conclusion)
        else:
            for c in node.children:
                walk(c)

    walk(r)
    return frozenset(out)


def less_forced(a: ProofNode, b: ProofNode) -> bool:
    """Strictly smaller premise set."""
    return premises(a) < premises(b)


# --- canonical-form parsing ----------------------------------------------


def parse_proof(text: str) -> ProofNode:
    """Inverse of :func:`canonical_serialize`; trees deeper than
    ``MAX_DEPTH`` levels raise :class:`ParseError`."""
    node, end = _parse_node(text, 0, 0)
    if text[end:].strip():
        raise ParseError("trailing data after proof", end)
    return node


def _parse_node(text: str, i: int, depth: int) -> tuple[ProofNode, int]:
    if i >= len(text) or text[i] != "{":
        raise ParseError("expected '{'", i)
    if depth > MAX_DEPTH:
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", i)
    i += 1
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected a class text '['", i)
    close = text.find("]", i)
    if close < 0:
        raise ParseError("unterminated class text", i)
    conclusion = class_from_text(text[i : close + 1])
    i = close + 1
    if text[i : i + 1] != ",":
        raise ParseError("expected ',' after the conclusion", i)
    i += 1
    if text[i : i + 3] == "{0}":
        node = ProofNode(conclusion)
        i += 3
    elif text[i : i + 1] == "{":
        i += 1
        kids = []
        while True:
            child, i = _parse_node(text, i, depth + 1)
            kids.append(child)
            if text[i : i + 1] == ",":
                i += 1
                continue
            if text[i : i + 1] == "}":
                i += 1
                break
            raise ParseError("expected ',' or '}' in a child set", i)
        node = ProofNode(conclusion, frozenset(kids))
    else:
        raise ParseError("expected a justification", i)
    if text[i : i + 1] != "}":
        raise ParseError("expected '}' closing the node", i)
    return node, i + 1


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
        for child in sorted_children(node):
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


def text_length(r: ProofNode, pretty: bool = False) -> int:
    """``len(canonical_serialize(r))``, or ``len(pretty_proof(r))`` with
    ``pretty``, without building either text.

    Each distinct node is measured once, keyed on its identity, from
    the measures of its children, so a built proof costs O(nodes +
    child links) however long its text. The walk keeps its own stack,
    since a built proof is as deep as its deduction is long."""
    measure = _pretty_measure if pretty else _canonical_measure
    memo: dict[int, object] = {}
    stack = [r]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = node.children or ()
        todo = [c for c in kids if id(c) not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        memo[id(node)] = measure(node, [memo[id(c)] for c in kids])
    if pretty:
        lines, chars = memo[id(r)]
        return chars + lines - 1
    return memo[id(r)]
