"""Subproof surgery: locate, extract, replace, and eliminate subtrees.

Nodes are addressed by digest paths: the sequence of child digests
(hex) leading from the root to the target. Set semantics guarantees a
digest names at most one child per level. The set-algebraic chain
construction of the source material is realized as bottom-up tree
rebuilding: swap the justification at the addressed nodes, then rebuild
every ancestor with set deduplication.
"""

from __future__ import annotations

from itertools import pairwise

from .errors import BadPath, NotFound, PremiseDonor
from .propclass import PropClass
from .proof import ProofNode, canonical_serialize, digest_hex, fold, normalize, rejustify
from .sigma import SigmaPrime

ProofPath = tuple[str, ...]

# hex digits of each digest that format_path prints
PATH_PREFIX_LEN = 12


def format_path(path: ProofPath) -> str:
    """Slash-joined digest prefixes; the root path prints as '.'."""
    if not path:
        return "."
    return "/".join(d[:PATH_PREFIX_LEN] for d in path)


def parse_path(text: str) -> ProofPath:
    """Inverse of :func:`format_path`. An empty path or segment raises
    :class:`BadPath`, since an empty prefix would match every child."""
    if text == ".":
        return ()
    path = tuple(text.split("/"))
    if "" in path:
        raise BadPath(f"empty digest in path {text!r}")
    return path


def find_occurrences(r: ProofNode, sigma: PropClass) -> list[ProofPath]:
    """All digest paths to nodes concluding ``sigma``, shallowest first,
    ties broken by path text."""
    hits: list[ProofPath] = []

    def walk(node: ProofNode, path: ProofPath) -> None:
        if node.conclusion == sigma:
            hits.append(path)
        for child in node.children or ():
            walk(child, path + (digest_hex(child),))

    walk(r, ())
    return sorted(hits, key=lambda p: (len(p), p))


def _first_occurrence(r: ProofNode, sigma: PropClass) -> ProofNode | None:
    """The node at ``find_occurrences(r, sigma)[0]``, or None, found
    level by level over distinct nodes without listing paths.

    Level d holds the nodes whose shortest path has d steps; the search
    stops at the first level with a hit. Only a tie there reads digests,
    and only those of the hits and of their ancestors in the levels
    above."""
    parents: dict[ProofNode, list[ProofNode]] = {r: []}  # each one level up
    level = [r]
    while level:
        hits = [node for node in level if node.conclusion == sigma]
        if len(hits) > 1:
            return min(hits, key=_smallest_paths(hits, parents).__getitem__)
        if hits:
            return hits[0]
        below: dict[ProofNode, list[ProofNode]] = {}
        for node in level:
            for c in node.children or ():
                if c not in parents:
                    below.setdefault(c, []).append(node)
        parents.update(below)
        level = list(below)
    return None


def _smallest_paths(
    hits: list[ProofNode], parents: dict[ProofNode, list[ProofNode]]
) -> dict[ProofNode, ProofPath]:
    """The smallest shortest digest path to each node of one level and
    to each of its ancestors above it. A shortest path runs through
    nodes that are all at their own level, so a node's smallest one
    extends the smallest of its parents' one level up."""
    layers = [hits]
    while parents[layers[-1][0]]:
        layers.append(list(dict.fromkeys(p for node in layers[-1] for p in parents[node])))
    paths: dict[ProofNode, ProofPath] = {layers[-1][0]: ()}
    for layer in reversed(layers[:-1]):
        for node in layer:
            paths[node] = min(paths[p] for p in parents[node]) + (digest_hex(node),)
    return paths


def _walk(r: ProofNode, path: ProofPath) -> list[ProofNode]:
    """The nodes ``path`` passes through, from ``r`` to the one it
    addresses."""
    nodes = [r]
    for wanted in path:
        matches = [
            c for c in nodes[-1].children or () if digest_hex(c).startswith(wanted)
        ]
        if len(matches) != 1:
            raise BadPath(f"no unique child matches digest {wanted!r}")
        nodes.append(matches[0])
    return nodes


def extract_subproof(r: ProofNode, path: ProofPath) -> ProofNode:
    """The subtree addressed by ``path``, unchanged."""
    return _walk(r, path)[-1]


def require_target(r: ProofNode, sigma: PropClass, path: ProofPath | None) -> None:
    """Raise :class:`NotFound` unless ``sigma`` occurs in ``r`` and
    ``path``, when given, addresses a node concluding it."""
    if not fold(r, lambda n, value: n.conclusion == sigma or any(map(value, n.children or ()))):
        raise NotFound(f"{sigma.text()} does not occur in the target")
    if path is not None:
        target = extract_subproof(r, path)
        if target.conclusion != sigma:
            raise NotFound(f"path addresses {target.conclusion.text()}, not {sigma.text()}")


def _rewrite_at(r: ProofNode, sigma: PropClass, new_children, path: ProofPath | None) -> ProofNode:
    """Swap the justification of sigma-nodes; all of them, or only the
    one addressed by ``path``. Ancestors rebuild with set semantics."""
    if path is None:
        return rejustify(r, lambda c: c == sigma, new_children)

    nodes = _walk(r, path)
    new = ProofNode(nodes[-1].conclusion, new_children)
    for parent, old in reversed(list(pairwise(nodes))):
        new = ProofNode(parent.conclusion, parent.children - {old} | {new})
    return new


def replace_subproof(
    r_h: ProofNode,
    sigma: PropClass,
    r_k: ProofNode,
    sp: SigmaPrime,
    single_path: ProofPath | None = None,
) -> ProofNode:
    """Graft the donor justification for ``sigma`` from ``r_k`` onto every
    occurrence of ``sigma`` in ``r_h`` (or just the addressed one).

    The donor is the first occurrence of ``sigma`` in ``r_k``, the one
    :func:`find_occurrences` lists first; it must carry an actual
    justification, and the donor tree must live inside the extension.
    """
    require_target(r_h, sigma, single_path)
    donor = _first_occurrence(r_k, sigma)
    if donor is None:
        raise NotFound(f"{sigma.text()} does not occur in the donor proof")
    if donor.is_premise:
        raise PremiseDonor(f"the donor occurrence of {sigma.text()} is a bare premise")
    _require_members(r_k, sp)
    return normalize(_rewrite_at(r_h, sigma, donor.children, single_path))


def eliminate_subproof(
    r: ProofNode, sigma: PropClass, single_path: ProofPath | None = None
) -> ProofNode:
    """Demote every occurrence of ``sigma`` (or the addressed one) to an
    unjustified premise."""
    require_target(r, sigma, single_path)
    return normalize(_rewrite_at(r, sigma, None, single_path))


def _require_members(r: ProofNode, sp: SigmaPrime) -> None:
    """Raise on the first non-member conclusion in canonical pre-order,
    so the class named does not depend on set iteration order.

    Each distinct node reads its membership once; a member's value is
    the first non-member of its children by canonical order, so only a
    failing check sorts."""

    def visit(node: ProofNode, value) -> PropClass | None:
        if not sp.member(node.conclusion):
            return node.conclusion
        bad = [c for c in node.children or () if value(c) is not None]
        return value(min(bad, key=canonical_serialize)) if bad else None

    bad = fold(r, visit)
    if bad is not None:
        sp.require_member(bad)  # raises NotMember naming it
