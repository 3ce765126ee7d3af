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
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

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
from .proof import (
    Justification,
    ProofNode,
    digest_hex,
    normalize,
    proof_eq,
)
from .sigma import FORMAL_ONE, ClassScalar, FormalOne, Scalar, SigmaPrime


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


def embed_premise(sp: SigmaPrime, c: PropClass) -> ProofNode:
    """The injection of an extension member as a one-node premise proof."""
    sp.require_member(c)
    return ProofNode(c)


# --- axiom audit -----------------------------------------------------------


@dataclass(frozen=True)
class ModuleLawCheck:
    name: str
    checked: int
    failures: tuple[str, ...]
    diagnostic: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class ModuleAxiomReport:
    laws: tuple[ModuleLawCheck, ...]

    @property
    def ok(self) -> bool:
        """All guaranteed laws hold; diagnostics may carry counterexamples."""
        return all(law.ok for law in self.laws if not law.diagnostic)

    def law(self, name: str) -> ModuleLawCheck:
        for law in self.laws:
            if law.name == name:
                return law
        raise KeyError(name)

    def render(self) -> str:
        lines = ["law                               checked  failed  kind"]
        for law in self.laws:
            kind = "diagnostic" if law.diagnostic else "guaranteed"
            lines.append(
                f"{law.name:<33} {law.checked:>7}  {len(law.failures):>6}  {kind}"
            )
        extra = [
            f"  {law.name}: {f}" for law in self.laws for f in law.failures[:10]
        ]
        if extra:
            lines.append("counterexamples:")
            lines.extend(extra)
        return "\n".join(lines)


def _eq(a: ProofNode, b: ProofNode) -> bool:
    return proof_eq(normalize(a), normalize(b))


def _tag(*nodes: ProofNode) -> str:
    return " ".join(digest_hex(n)[:12] for n in nodes)


def check_module_axioms(
    sp: SigmaPrime,
    scalars: Iterable[Scalar],
    proofs: Iterable[ProofNode],
    samples: int = 500,
    seed: int = 0,
    exhaustive: bool = False,
) -> ModuleAxiomReport:
    """Audit the group and scalar laws over the given pools.

    With ``exhaustive`` the full cartesian instance spaces are checked
    (keep the pools small); otherwise ``samples`` seeded random
    instances per law. Sum associativity and general scalar
    distributivity are diagnostics: failures are reported, not asserted.

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
    rng = random.Random(seed)
    neutral = neutral_proof(sp)

    def instances(arity_pools: Sequence[Sequence]) -> list[tuple]:
        if exhaustive:
            return list(product(*arity_pools))
        return [tuple(rng.choice(p) for p in arity_pools) for _ in range(samples)]

    laws = []

    def run(name: str, arity_pools, predicate, describe, diagnostic=False):
        if any(len(p) == 0 for p in arity_pools):
            laws.append(ModuleLawCheck(name, 0, (), diagnostic))
            return
        failures = []
        cases = instances(arity_pools)
        for case in cases:
            if not predicate(*case):
                failures.append(describe(*case))
        laws.append(ModuleLawCheck(name, len(cases), tuple(failures), diagnostic))

    run(
        "sum-commutative",
        [pool, pool],
        lambda a, b: _eq(add(a, b, sp), add(b, a, sp)),
        lambda a, b: _tag(a, b),
    )
    run(
        "sum-neutral",
        [pool],
        lambda a: _eq(add(a, neutral, sp), normalize(a)),
        lambda a: _tag(a),
    )
    run(
        "sum-involution",
        [pool],
        lambda a: _eq(add(a, a, sp), neutral),
        lambda a: _tag(a),
    )
    run(
        "sum-associative",
        [pool, pool, pool],
        lambda a, b, c: _eq(add(add(a, b, sp), c, sp), add(a, add(b, c, sp), sp)),
        lambda a, b, c: _tag(a, b, c),
        diagnostic=True,
    )
    run(
        "scalar-compose",
        [class_scalars, class_scalars, pool],
        lambda s, t, r: _eq(
            scalar_mul(ClassScalar(class_or(s.payload, t.payload)), r, sp),
            scalar_mul(s, scalar_mul(t, r, sp), sp),
        ),
        lambda s, t, r: _tag(r),
    )
    run(
        "scalar-identity",
        [pool],
        lambda r: _eq(scalar_mul(FORMAL_ONE, r, sp), normalize(r)),
        lambda r: _tag(r),
    )

    def distributes(s: ClassScalar, a: ProofNode, b: ProofNode) -> bool:
        return _eq(
            scalar_mul(s, add(a, b, sp), sp),
            add(scalar_mul(s, a, sp), scalar_mul(s, b, sp), sp),
        )

    def keeps_justification(s: ClassScalar, r: ProofNode) -> bool:
        # normalization discards the justification exactly when the
        # scalar product hits a tautology conclusion
        return r.is_premise or not is_tautology(class_or(s.payload, r.conclusion))

    def restricted_instance(s: ClassScalar, a: ProofNode, b: ProofNode) -> bool:
        # the proof-matching domain: equal justifications always work; a
        # premise operand works as long as the scalar product preserves
        # the other operand's justification
        if a.children == b.children:
            return True
        return (a.is_premise or b.is_premise) and keeps_justification(
            s, a
        ) and keeps_justification(s, b)

    restricted = [
        (s, a, b)
        for s in class_scalars
        for a in pool
        for b in pool
        if restricted_instance(s, a, b)
    ]
    run(
        "scalar-distributive-restricted",
        [restricted],
        lambda sab: distributes(*sab),
        lambda sab: _tag(sab[1], sab[2]),
    )
    run(
        "scalar-distributive-general",
        [class_scalars, pool, pool],
        distributes,
        lambda s, a, b: _tag(a, b),
        diagnostic=True,
    )
    run(
        "scalar-iff-splits",
        [class_scalars, class_scalars, pool],
        lambda s, t, r: _eq(
            scalar_mul(ClassScalar(class_iff(s.payload, t.payload)), r, sp),
            add(scalar_mul(s, r, sp), scalar_mul(t, r, sp), sp),
        ),
        lambda s, t, r: _tag(r),
    )
    return ModuleAxiomReport(tuple(laws))
