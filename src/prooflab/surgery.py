"""Subproof surgery: locate, extract, replace, and eliminate subtrees.

Nodes are addressed by digest paths: the sequence of child digests
(hex) leading from the root to the target. Set semantics guarantees a
digest names at most one child per level. The set-algebraic chain
construction of the source material is realized as bottom-up tree
rebuilding: swap the justification at the addressed nodes, then rebuild
every ancestor with set deduplication.
"""

from __future__ import annotations

from .errors import BadPath, NotFound, PremiseDonor
from .propclass import PropClass
from .proof import ProofNode, digest_hex, normalize, sorted_children
from .sigma import SigmaPrime

ProofPath = tuple[str, ...]


def format_path(path: ProofPath, prefix_len: int = 12) -> str:
    """Slash-joined digest prefixes; the root path prints as '.'."""
    if not path:
        return "."
    return "/".join(d[:prefix_len] for d in path)


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
        for child in sorted_children(node):
            walk(child, path + (digest_hex(child),))

    walk(r, ())
    return sorted(hits, key=lambda p: (len(p), p))


def extract_subproof(r: ProofNode, path: ProofPath) -> ProofNode:
    """The subtree addressed by ``path``, unchanged."""
    node = r
    for wanted in path:
        matches = [
            c for c in node.children or () if digest_hex(c).startswith(wanted)
        ]
        if len(matches) != 1:
            raise BadPath(f"no unique child matches digest {wanted!r}")
        node = matches[0]
    return node


def _rewrite_at(r: ProofNode, sigma: PropClass, new_children, path: ProofPath | None) -> ProofNode:
    """Swap the justification of sigma-nodes; all of them, or only the
    one addressed by ``path``. Ancestors rebuild with set semantics."""
    if path is not None:
        target = extract_subproof(r, path)
        if target.conclusion != sigma:
            raise NotFound(
                f"path addresses {target.conclusion.text()}, not {sigma.text()}"
            )

        def along(node: ProofNode, rest: ProofPath) -> ProofNode:
            if not rest:
                return ProofNode(node.conclusion, new_children)
            head, tail = rest[0], rest[1:]
            rebuilt = set()
            for c in node.children or ():
                rebuilt.add(along(c, tail) if digest_hex(c).startswith(head) else c)
            return ProofNode(node.conclusion, frozenset(rebuilt))

        return along(r, path)

    def walk(node: ProofNode) -> ProofNode:
        if node.conclusion == sigma:
            return ProofNode(node.conclusion, new_children)
        if node.children is None:
            return node
        return ProofNode(node.conclusion, frozenset(walk(c) for c in node.children))

    return walk(r)


def replace_subproof(
    r_h: ProofNode,
    sigma: PropClass,
    r_k: ProofNode,
    sp: SigmaPrime,
    single_path: ProofPath | None = None,
) -> ProofNode:
    """Graft the donor justification for ``sigma`` from ``r_k`` onto every
    occurrence of ``sigma`` in ``r_h`` (or just the addressed one).

    The donor is the first occurrence of ``sigma`` in ``r_k``; it must
    carry an actual justification, and the donor tree must live inside
    the extension.
    """
    if not find_occurrences(r_h, sigma):
        raise NotFound(f"{sigma.text()} does not occur in the target proof")
    donor_paths = find_occurrences(r_k, sigma)
    if not donor_paths:
        raise NotFound(f"{sigma.text()} does not occur in the donor proof")
    donor = extract_subproof(r_k, donor_paths[0])
    if donor.is_premise:
        raise PremiseDonor(f"the donor occurrence of {sigma.text()} is a bare premise")
    _require_members(r_k, sp)
    return normalize(_rewrite_at(r_h, sigma, donor.children, single_path))


def eliminate_subproof(
    r: ProofNode, sigma: PropClass, single_path: ProofPath | None = None
) -> ProofNode:
    """Demote every occurrence of ``sigma`` (or the addressed one) to an
    unjustified premise."""
    if not find_occurrences(r, sigma):
        raise NotFound(f"{sigma.text()} does not occur in the proof")
    return normalize(_rewrite_at(r, sigma, None, single_path))


def _require_members(r: ProofNode, sp: SigmaPrime) -> None:
    """Raise on the first non-member conclusion in canonical pre-order,
    so the class named does not depend on set iteration order.

    A built proof shares its subtrees, so each distinct node is checked
    once, keyed on its identity: a node met again had its whole subtree
    checked the first time, or the walk would have stopped there."""
    seen: set[int] = set()

    def walk(node: ProofNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        sp.require_member(node.conclusion)
        for c in sorted_children(node):
            walk(c)

    walk(r)
