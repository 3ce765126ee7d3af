"""The module of proofs over an extension: justification merge, sum,
scalar product, and law audits.

The sum of two proofs concludes the biconditional of their conclusions
and merges their justifications by case analysis; where possible it
reuses the operands' sub-proofs, diminishing the number of unjustified
premises. Addition makes every proof an involution with the
tautology-premise proof as the neutral element; disjunction of an
extension member onto the conclusion acts as the scalar product, with
the formal identity acting trivially.

Sum associativity and the general case of scalar distributivity over
sums are NOT guaranteed by the case analysis; the audit reports them as
diagnostics with counterexamples instead of asserting them.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, product
from typing import Iterable, Iterator, Sequence

from .errors import InternalError
from .propclass import (
    DEFAULT_ATOM_CAP,
    TAUTOLOGY,
    PropClass,
    big_and,
    class_and,
    class_iff,
    class_or,
    entails,
    is_tautology,
)
from .proof import Justification, ProofNode, digest_hex, normalize, proof_eq
from .sigma import FORMAL_ONE, ClassScalar, FormalOne, LawCheck, LawReport, Scalar, SigmaPrime


def delta_merge(
    d1: Justification,
    d2: Justification,
    alpha: PropClass,
    z1: PropClass,
    z2: PropClass,
    atom_cap: int = DEFAULT_ATOM_CAP,
) -> Justification:
    """Merge two justifications for conclusions ``z1``, ``z2`` under the
    combined conclusion ``alpha``.

    Cases are tried in definition order; overlapping guards resolve to
    the earliest case. The final case takes the symmetric difference of
    the child sets and keeps it only when the conjunction of its
    conclusions reaches both operand conclusions.
    """
    if d1 == d2:
        return None if is_tautology(alpha) else d1
    if d1 is None:
        return d2
    if d2 is None:
        return d1
    diff = d1 ^ d2
    if not diff:
        raise InternalError("distinct child sets have an empty symmetric difference")
    # fold in canonical order, so an over-cap combine is the same one on every run
    parts = sorted((c.conclusion for c in diff), key=PropClass.text)
    if entails(big_and(parts, atom_cap), class_and(z1, z2, atom_cap)):
        return frozenset(diff)
    return None


def add(
    r1: ProofNode, r2: ProofNode, sp: SigmaPrime, atom_cap: int = DEFAULT_ATOM_CAP
) -> ProofNode:
    """Module sum: conclusion is the biconditional, justifications merge."""
    sp.require_member(r1.conclusion)
    sp.require_member(r2.conclusion)
    z1, z2 = r1.conclusion, r2.conclusion
    alpha = class_iff(z1, z2, atom_cap)
    # well-definedness chain: a merged set is kept only when it reaches
    # z1 & z2, which must reach the biconditional conclusion
    if not entails(class_and(z1, z2, atom_cap), alpha):
        raise InternalError(f"{z1.text()} & {z2.text()} does not entail {alpha.text()}")
    merged = delta_merge(r1.children, r2.children, alpha, z1, z2, atom_cap)
    return normalize(ProofNode(alpha, merged))


def scalar_mul(
    s: Scalar, r: ProofNode, sp: SigmaPrime, atom_cap: int = DEFAULT_ATOM_CAP
) -> ProofNode:
    """Scalar product: disjoin the scalar onto the conclusion, keep the
    justification; the formal identity returns the proof unchanged."""
    sp.require_member(r.conclusion)
    if isinstance(s, FormalOne):
        return normalize(r)
    sp.require_member(s.payload)
    return normalize(ProofNode(class_or(s.payload, r.conclusion, atom_cap), r.children))


def neutral_proof(sp: SigmaPrime) -> ProofNode:
    """The tautology premise: the additive neutral element."""
    return ProofNode(TAUTOLOGY)


# --- axiom audit -----------------------------------------------------------


def _tag(*nodes: ProofNode) -> str:
    return " ".join(digest_hex(n)[:12] for n in nodes)


def _keeps_justification(s: ClassScalar, r: ProofNode) -> bool:
    # normalization discards the justification exactly when the scalar
    # product hits a tautology conclusion
    return r.is_premise or not is_tautology(class_or(s.payload, r.conclusion))


class _RestrictedDomain:
    """The instances ``(s, a, b)`` of restricted scalar distributivity,
    in the nested ``s``, ``a``, ``b`` order of the pools, as a sequence
    that indexes them without listing them.

    The domain is the proof-matching one: equal justifications always
    work; a premise operand works as long as the scalar product keeps
    the other operand's justification. A premise keeps its own under
    every scalar, so in the row of ``(s, a)`` lie, for a premise ``a``,
    every ``b`` that ``s`` keeps, and for a justified ``a``, the ``b``
    with ``a``'s children, plus every premise when ``s`` keeps ``a``.
    Each distinct row is one list of pool indices, built once and
    shared by every ``(s, a)`` whose row it is.
    """

    def __init__(self, scalars: Sequence[ClassScalar], pool: Sequence[ProofNode]):
        self._pool = pool
        groups: dict[Justification, list[int]] = {}
        for j, r in enumerate(pool):
            groups.setdefault(r.children, []).append(j)
        premises = groups.get(None, [])
        with_premises = {
            children: sorted(group + premises)
            for children, group in groups.items()
            if children is not None
        }
        self._rows: list[tuple[ClassScalar, ProofNode, list[int]]] = []
        for s in scalars:
            keeps = [_keeps_justification(s, r) for r in pool]
            kept = [b for b, k in enumerate(keeps) if k]
            for r, k in zip(pool, keeps):
                if r.is_premise:
                    row = kept
                elif k:
                    row = with_premises[r.children]
                else:
                    row = groups[r.children]
                self._rows.append((s, r, row))
        # row k holds the indices from _starts[k] up to _starts[k + 1]
        self._starts = list(accumulate((len(row) for _, _, row in self._rows), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, i: int) -> tuple[ClassScalar, ProofNode, ProofNode]:
        if not 0 <= i < len(self):
            raise IndexError("restricted domain index out of range")
        k = bisect_right(self._starts, i) - 1
        s, a, row = self._rows[k]
        return s, a, self._pool[row[i - self._starts[k]]]

    def __iter__(self) -> Iterator[tuple[ClassScalar, ProofNode, ProofNode]]:
        for s, a, row in self._rows:
            for b in row:
                yield s, a, self._pool[b]


def check_module_axioms(
    sp: SigmaPrime,
    scalars: Iterable[Scalar],
    proofs: Iterable[ProofNode],
    samples: int = 500,
    seed: int = 0,
    exhaustive: bool = False,
) -> LawReport:
    """Audit the group and scalar laws over the given pools.

    With ``exhaustive`` the full cartesian instance spaces are checked
    (keep the pools small); otherwise ``samples`` seeded random
    instances per law. Sum associativity and general scalar
    distributivity are diagnostics: failures are reported, not asserted.
    An empty proof pool or a negative ``samples`` raises
    :class:`ValueError`.

    The restricted distributivity law runs on the proof-matching domain:
    operands with equal justifications, or a premise operand provided the
    scalar product does not normalize away the other side's
    justification. Outside that domain distributivity genuinely fails
    (see the general diagnostic), because normalizing a
    tautology-concluded scalar product discards its justification.
    """
    pool: Sequence[ProofNode] = list(proofs)
    class_scalars = [s for s in scalars if isinstance(s, ClassScalar)]
    for r in pool:
        sp.require_member(r.conclusion)
    for s in class_scalars:
        sp.require_member(s.payload)
    if not pool:
        raise ValueError("need at least one proof")
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    rng = random.Random(seed)
    neutral = neutral_proof(sp)

    def instances(*pools: Sequence) -> list[tuple]:
        if not all(pools):
            return []
        if exhaustive:
            return list(product(*pools))
        return [tuple(rng.choice(p) for p in pools) for _ in range(samples)]

    laws = []

    def run(name: str, cases: list[tuple], predicate, diagnostic=False):
        # a failing instance is named by its proof operands, in order
        failures = tuple(
            _tag(*(x for x in case if isinstance(x, ProofNode)))
            for case in cases
            if not predicate(*case)
        )
        laws.append(LawCheck(name, len(cases), failures, diagnostic))

    run(
        "sum-commutative",
        instances(pool, pool),
        lambda a, b: proof_eq(add(a, b, sp), add(b, a, sp)),
    )
    run(
        "sum-neutral",
        instances(pool),
        lambda a: proof_eq(add(a, neutral, sp), normalize(a)),
    )
    run(
        "sum-involution",
        instances(pool),
        lambda a: proof_eq(add(a, a, sp), neutral),
    )
    run(
        "sum-associative",
        instances(pool, pool, pool),
        lambda a, b, c: proof_eq(add(add(a, b, sp), c, sp), add(a, add(b, c, sp), sp)),
        diagnostic=True,
    )
    run(
        "scalar-compose",
        instances(class_scalars, class_scalars, pool),
        lambda s, t, r: proof_eq(
            scalar_mul(ClassScalar(class_or(s.payload, t.payload)), r, sp),
            scalar_mul(s, scalar_mul(t, r, sp), sp),
        ),
    )
    run(
        "scalar-identity",
        instances(pool),
        lambda r: proof_eq(scalar_mul(FORMAL_ONE, r, sp), normalize(r)),
    )

    def distributes(s: ClassScalar, a: ProofNode, b: ProofNode) -> bool:
        return proof_eq(
            scalar_mul(s, add(a, b, sp), sp),
            add(scalar_mul(s, a, sp), scalar_mul(s, b, sp), sp),
        )

    restricted = _RestrictedDomain(class_scalars, pool)
    run(
        "scalar-distributive-restricted",
        [sab for sab, in instances(restricted)],
        distributes,
    )
    run(
        "scalar-distributive-general",
        instances(class_scalars, pool, pool),
        distributes,
        diagnostic=True,
    )
    run(
        "scalar-iff-splits",
        instances(class_scalars, class_scalars, pool),
        lambda s, t, r: proof_eq(
            scalar_mul(ClassScalar(class_iff(s.payload, t.payload)), r, sp),
            add(scalar_mul(s, r, sp), scalar_mul(t, r, sp), sp),
        ),
    )
    return LawReport(tuple(laws), 33, 10)
