"""Maximal consistent extension of a finite base set, and its ring.

The extension is represented by a witness valuation: a class belongs to
the extension exactly when it evaluates to 1 under the witness. The
witness is the lexicographically smallest satisfying assignment of the
base conjunction (atom order lexicographic, 0 before 1, first atom most
significant), padded with a default bit for unseen atoms, so the whole
construction is a pure function of its inputs.

The ring carries the biconditional as addition (tautology is the zero
and every element is its own inverse) and disjunction as multiplication.
The multiplicative identity is the formal adjoined element
:data:`FORMAL_ONE`; no class plays that role inside the extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Union

from .errors import Inconsistent, NotMember
from .formula import Valuation
from .propclass import (
    TAUTOLOGY,
    PropClass,
    class_iff,
    class_or,
    evaluate_class,
    is_tautology,
)


@dataclass(frozen=True)
class SigmaPrime:
    """A finite base set plus the witness valuation realizing its extension."""

    base: frozenset[PropClass]
    witness: Valuation
    default_bit: int

    def member(self, c: PropClass) -> bool:
        """Membership in the extension: truth under the witness."""
        return evaluate_class(c, self.witness) == 1

    def require_member(self, c: PropClass) -> None:
        if not self.member(c):
            raise NotMember(f"{c.text()} is not in the extension")

    def witness_text(self) -> str:
        pairs = " ".join(f"{a}={b}" for a, b in sorted(self.witness.assign.items()))
        return f"{pairs} default={self.default_bit}".strip()


@dataclass(frozen=True)
class FormalOne:
    """The formal multiplicative identity adjoined to the disjunction ring."""


@dataclass(frozen=True)
class ClassScalar:
    payload: PropClass


Scalar = Union[FormalOne, ClassScalar]

FORMAL_ONE = FormalOne()


def lindenbaum_extend(
    sigma: Iterable[PropClass], default_bit: int = 0
) -> SigmaPrime:
    """Deterministically complete ``sigma`` to a maximal consistent extension.

    Raises :class:`Inconsistent` when the conjunction of ``sigma`` has no
    satisfying assignment.
    """
    base = frozenset(sigma)
    atoms = sorted({a for c in base for a in c.support})
    assign = dict(zip(atoms, _smallest_assignment(atoms, list(base))))
    return SigmaPrime(base, Valuation(assign, default_bit), default_bit)


def _smallest_assignment(atoms: list[str], classes: list[PropClass]) -> list[int]:
    """The first assignment to ``atoms`` in counting order (first atom most
    significant) satisfying every class: depth-first, 0 before 1, each
    class tested once its last support atom is assigned."""
    position = {a: k for k, a in enumerate(atoms)}
    due: list[list[tuple[PropClass, list[int]]]] = [[] for _ in range(len(atoms) + 1)]
    for c in classes:
        places = [position[a] for a in c.support]
        due[places[-1] + 1 if places else 0].append((c, places))

    def holds(depth: int) -> bool:
        for c, places in due[depth]:
            idx = 0
            for k in places:
                idx = idx << 1 | values[k]
            if not c.bits >> idx & 1:
                return False
        return True

    values: list[int] = []
    while True:
        if holds(len(values)):
            if len(values) == len(atoms):
                return values
            values.append(0)
            continue
        while values and values[-1]:
            values.pop()
        if not values:
            raise Inconsistent("the base set has no satisfying assignment")
        values[-1] = 1


def ring_add(sp: SigmaPrime, a: PropClass, b: PropClass) -> PropClass:
    """Ring addition: the biconditional of two extension members."""
    sp.require_member(a)
    sp.require_member(b)
    return class_iff(a, b)


def ring_mul(sp: SigmaPrime, a: PropClass, b: PropClass) -> PropClass:
    """Ring multiplication: the disjunction of two extension members."""
    sp.require_member(a)
    sp.require_member(b)
    return class_or(a, b)


@dataclass(frozen=True)
class LawCheck:
    name: str
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RingAxiomReport:
    laws: tuple[LawCheck, ...]

    @property
    def ok(self) -> bool:
        return all(law.ok for law in self.laws)

    @property
    def violation_count(self) -> int:
        return sum(len(law.violations) for law in self.laws)

    def render(self) -> str:
        lines = ["law                      checked  failed"]
        for law in self.laws:
            lines.append(f"{law.name:<24} {law.checked:>7}  {len(law.violations):>6}")
        for law in self.laws:
            for v in law.violations[:5]:
                lines.append(f"  {law.name}: {v}")
        return "\n".join(lines)


_BinOp = Callable[[PropClass, PropClass], PropClass]


def check_ring_axioms(
    sp: SigmaPrime,
    elements: Iterable[PropClass],
    add_op: _BinOp | None = None,
    mul_op: _BinOp | None = None,
) -> RingAxiomReport:
    """Audit the commutative-ring laws over a finite member set.

    ``add_op``/``mul_op`` default to the ring operations; a test harness
    can inject corrupted ones to confirm the audit actually detects
    violations.
    """
    elems = sorted(set(elements), key=lambda c: c.text())
    for c in elems:
        sp.require_member(c)
    add = add_op or (lambda a, b: ring_add(sp, a, b))
    mul = mul_op or (lambda a, b: ring_mul(sp, a, b))

    laws: list[LawCheck] = []

    def law(name: str, instances, failed) -> None:
        laws.append(LawCheck(name, instances, tuple(failed)))

    pairs = [(a, b) for a in elems for b in elems]
    triples = [(a, b, c) for a in elems for b in elems for c in elems]

    law(
        "add-closure",
        len(pairs),
        (f"{a} + {b} leaves the extension" for a, b in pairs if not sp.member(add(a, b))),
    )
    law(
        "mul-closure",
        len(pairs),
        (f"{a} * {b} leaves the extension" for a, b in pairs if not sp.member(mul(a, b))),
    )
    law(
        "add-commutative",
        len(pairs),
        (f"{a} + {b}" for a, b in pairs if add(a, b) != add(b, a)),
    )
    law(
        "add-associative",
        len(triples),
        (
            f"({a} + {b}) + {c}"
            for a, b, c in triples
            if add(add(a, b), c) != add(a, add(b, c))
        ),
    )
    law(
        "add-neutral",
        len(elems),
        (f"{a} + taut != {a}" for a in elems if add(a, TAUTOLOGY) != a),
    )
    law(
        "add-self-inverse",
        len(elems),
        (f"{a} + {a} not taut" for a in elems if not is_tautology(add(a, a))),
    )
    law(
        "mul-commutative",
        len(pairs),
        (f"{a} * {b}" for a, b in pairs if mul(a, b) != mul(b, a)),
    )
    law(
        "mul-associative",
        len(triples),
        (
            f"({a} * {b}) * {c}"
            for a, b, c in triples
            if mul(mul(a, b), c) != mul(a, mul(b, c))
        ),
    )
    law(
        "mul-idempotent",
        len(elems),
        (f"{a} * {a} != {a}" for a in elems if mul(a, a) != a),
    )
    law(
        "mul-distributes-over-add",
        len(triples),
        (
            f"{a} * ({b} + {c})"
            for a, b, c in triples
            if mul(a, add(b, c)) != add(mul(a, b), mul(a, c))
        ),
    )
    return RingAxiomReport(tuple(laws))
