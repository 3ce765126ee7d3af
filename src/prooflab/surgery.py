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
from .proof import (
    ProofNode,
    canonical_serialize,
    digest_hex,
    fold,
    normalize,
    rejustify,
    require_budget,
)
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
    ties broken by path text.

    The list is measured first, as the space-joined ``format_path``
    text, and one over ``MAX_PROOF_TEXT`` raises :class:`ResourceLimit`
    before any path is built. The walk keeps its own stack and enters
    only children with a hit below them, so it costs about the size of
    what it lists."""
    paths, length = _paths_below(r, sigma)
    require_budget("occurrence list", length)
    hits: list[ProofPath] = []
    stack: list[tuple[ProofNode, ProofPath]] = [(r, ())]
    while stack:
        node, path = stack.pop()
        if node.conclusion == sigma:
            hits.append(path)
        for c in node.children or ():
            if paths[c]:
                stack.append((c, path + (digest_hex(c),)))
    return sorted(hits, key=lambda p: (len(p), p))


def _paths_below(r: ProofNode, sigma: PropClass) -> tuple[dict[ProofNode, int], int]:
    """For each distinct node of ``r``, the number of paths from it down
    to a node concluding ``sigma``; and, when ``r`` has one, the length
    of the space-joined ``format_path`` list of ``r``'s paths.

    One fold sums each node's paths and their steps S from its
    children's. A path of k > 0 steps prints 13k - 1 characters and the
    root path one, so the list prints 13S + 2[r concludes sigma] - 1."""
    paths: dict[ProofNode, int] = {}

    def visit(node: ProofNode, value) -> tuple[int, int]:
        count, steps = int(node.conclusion == sigma), 0
        for c in node.children or ():
            n, s = value(c)
            count += n
            steps += s + n
        paths[node] = count
        return count, steps

    steps = fold(r, visit)[1]
    return paths, (PATH_PREFIX_LEN + 1) * steps + 2 * (r.conclusion == sigma) - 1


def _nearest_hits(
    r: ProofNode, sigma: PropClass
) -> tuple[list[ProofNode], dict[ProofNode, list[ProofNode]]]:
    """The nodes concluding ``sigma`` at the first level that holds one
    (none when no level does), and each node's parents one level up.

    Level d holds the nodes whose shortest path has d steps, so the
    search visits each distinct node above the hits once and stops at
    the first level with a hit."""
    parents: dict[ProofNode, list[ProofNode]] = {r: []}
    level = [r]
    while level:
        hits = [node for node in level if node.conclusion == sigma]
        if hits:
            return hits, parents
        below: dict[ProofNode, list[ProofNode]] = {}
        for node in level:
            for c in node.children or ():
                if c not in parents:
                    below.setdefault(c, []).append(node)
        parents.update(below)
        level = list(below)
    return [], parents


def _first_occurrence(r: ProofNode, sigma: PropClass) -> ProofNode | None:
    """The node at ``find_occurrences(r, sigma)[0]``, or None, without
    listing paths.

    Only a tie at the nearest level reads digests: the nodes on shortest
    paths to the hits are marked level by level, and a descent from the
    root takes, at each level, the marked child with the least digest."""
    hits, parents = _nearest_hits(r, sigma)
    if len(hits) < 2:
        return hits[0] if hits else None
    marked = [set(hits)]
    while r not in marked[-1]:
        marked.append({p for node in marked[-1] for p in parents[node]})
    node = r
    for layer in reversed(marked[:-1]):
        node = min(layer.intersection(node.children), key=digest_hex)
    return node


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
    if not _nearest_hits(r, sigma)[0]:
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
