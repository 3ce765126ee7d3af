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

from functools import partial
from typing import Callable, Iterable, Union

from ._record import record
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


@record
class SigmaPrime:
    """A finite base set plus the witness valuation realizing its extension."""

    base: frozenset[PropClass]
    witness: Valuation

    @property
    def default_bit(self) -> int:
        """The bit of every atom outside the witness's explicit map."""
        return self.witness.default

    def member(self, c: PropClass) -> bool:
        """Membership in the extension: truth under the witness."""
        return evaluate_class(c, self.witness) == 1

    def require_member(self, c: PropClass) -> None:
        if not self.member(c):
            raise NotMember(f"{c.text()} is not in the extension")

    def witness_text(self) -> str:
        pairs = " ".join(f"{a}={b}" for a, b in sorted(self.witness.assign.items()))
        return f"{pairs} default={self.default_bit}".strip()


@record
class FormalOne:
    """The formal multiplicative identity adjoined to the disjunction ring."""


@record
class ClassScalar:
    payload: PropClass


Scalar = Union[FormalOne, ClassScalar]

FORMAL_ONE = FormalOne()


def lindenbaum_extend(
    sigma: Iterable[PropClass], default_bit: int = 0
) -> SigmaPrime:
    """Deterministically complete ``sigma`` to a maximal consistent extension.

    Raises :class:`Inconsistent` when the conjunction of ``sigma`` has no
    satisfying assignment, and ``ValueError`` unless ``default_bit`` is 0 or 1.
    """
    if default_bit not in (0, 1):
        raise ValueError(f"default bit must be 0 or 1, not {default_bit!r}")
    base = frozenset(sigma)
    atoms = sorted({a for c in base for a in c.support})
    assign = dict(zip(atoms, _smallest_assignment(atoms, list(base))))
    return SigmaPrime(base, Valuation(assign, default_bit))


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


@record
class LawCheck:
    """One law of an audit: how many instances were checked, the text of
    each that failed, and whether the law is a diagnostic, reported but
    not asserted."""

    name: str
    checked: int
    failures: tuple[str, ...]
    diagnostic: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def verdict(self) -> str:
        return f"{self.name}: {'valid' if self.ok else 'INVALID'} (checked {self.checked})"


@record
class LawReport:
    """The laws of one audit; ``width`` is the name column's width and
    ``shown`` the number of failures listed per law."""

    laws: tuple[LawCheck, ...]
    width: int
    shown: int

    @property
    def ok(self) -> bool:
        """All asserted laws hold; diagnostics may carry counterexamples."""
        return all(law.ok for law in self.laws if not law.diagnostic)

    def law(self, name: str) -> LawCheck:
        for law in self.laws:
            if law.name == name:
                return law
        raise KeyError(name)

    def render(self) -> str:
        """One row per law, then its first failures; a report with a
        diagnostic law adds a kind column and heads the failures."""
        kinds = any(law.diagnostic for law in self.laws)
        lines = [f"{'law':<{self.width}} checked  failed" + ("  kind" if kinds else "")]
        for law in self.laws:
            row = f"{law.name:<{self.width}} {law.checked:>7}  {len(law.failures):>6}"
            if kinds:
                row += "  diagnostic" if law.diagnostic else "  guaranteed"
            lines.append(row)
        extra = [f"  {law.name}: {f}" for law in self.laws for f in law.failures[: self.shown]]
        if kinds and extra:
            lines.append("counterexamples:")
        return "\n".join(lines + extra)


_BinOp = Callable[[PropClass, PropClass], PropClass]


class _Numbering:
    """Classes numbered in order of first appearance, each with its
    extension membership, read once when it is numbered."""

    def __init__(self, sp: SigmaPrime):
        self.sp = sp
        self.classes: list[PropClass] = []
        self.member: list[bool] = []
        self._number: dict[PropClass, int] = {}

    def __call__(self, c: PropClass) -> int:
        k = self._number.get(c)
        if k is None:
            k = self._number[c] = len(self.classes)
            self.classes.append(c)
            self.member.append(self.sp.member(c))
        return k


class _Table(dict):
    """The Cayley table of one operation over numbered classes:
    ``table[i][j]`` is the number of ``op(classes[i], classes[j])``, the
    result of one call to ``op``, made on first use."""

    def __init__(self, numbering: _Numbering, op: _BinOp):
        self.numbering = numbering
        self.op = op

    def __missing__(self, i: int) -> "_Row":
        row = self[i] = _Row(self, i)
        return row


class _Row(dict):
    """Row ``i`` of a :class:`_Table`, filled in as it is read."""

    def __init__(self, table: _Table, i: int):
        self.table = table
        self.i = i

    def __missing__(self, j: int) -> int:
        table, numbering = self.table, self.table.numbering
        k = self[j] = numbering(table.op(numbering.classes[self.i], numbering.classes[j]))
        return k


def check_ring_axioms(
    sp: SigmaPrime,
    elements: Iterable[PropClass],
    add_op: _BinOp | None = None,
    mul_op: _BinOp | None = None,
) -> LawReport:
    """Audit the commutative-ring laws over a finite member set.

    ``add_op``/``mul_op`` default to :func:`ring_add`/:func:`ring_mul`,
    so a non-member operand raises their :class:`NotMember`; a test
    harness can inject corrupted ones, unchecked, to confirm the audit
    actually detects violations.

    The elements are numbered and each operation is tabulated once: its
    n² products of elements, plus, where a product falls outside the
    elements, that product's products as the laws reach them. Every law
    is then read off the two Cayley tables, in the order a direct check
    of every pair and triple would take, so that check's first failing
    call is still the one that raises. Each operation is called once per
    pair of operands, which makes the audit of the 128 member classes
    over three atoms take seconds, and means an injected operation must
    be a pure function of its operands.
    """
    elems = sorted(set(elements), key=lambda c: c.text())
    for c in elems:
        sp.require_member(c)
    numbering = _Numbering(sp)
    for c in elems:
        numbering(c)
    member = numbering.member
    add = _Table(numbering, add_op or partial(ring_add, sp))
    mul = _Table(numbering, mul_op or partial(ring_mul, sp))
    n = len(elems)
    span = range(n)
    t = [c.text() for c in elems]

    laws: list[LawCheck] = []

    def law(name: str, instances, failed) -> None:
        laws.append(LawCheck(name, instances, tuple(failed)))

    # the closure laws fill each table's element rows, in pair order
    law(
        "add-closure",
        n * n,
        (f"{t[a]} + {t[b]} leaves the extension" for a in span for b in span if not member[add[a][b]]),
    )
    law(
        "mul-closure",
        n * n,
        (f"{t[a]} * {t[b]} leaves the extension" for a in span for b in span if not member[mul[a][b]]),
    )
    law(
        "add-commutative",
        n * n,
        (f"{t[a]} + {t[b]}" for a in span for b in span if add[a][b] != add[b][a]),
    )
    law("add-associative", n**3, _associativity_failures(add, t, "+"))
    zero = numbering(TAUTOLOGY)
    law(
        "add-neutral",
        n,
        (f"{t[a]} + taut != {t[a]}" for a in span if add[a][zero] != a),
    )
    law(
        "add-self-inverse",
        n,
        (
            f"{t[a]} + {t[a]} not taut"
            for a in span
            if not is_tautology(numbering.classes[add[a][a]])
        ),
    )
    law(
        "mul-commutative",
        n * n,
        (f"{t[a]} * {t[b]}" for a in span for b in span if mul[a][b] != mul[b][a]),
    )
    law("mul-associative", n**3, _associativity_failures(mul, t, "*"))
    law(
        "mul-idempotent",
        n,
        (f"{t[a]} * {t[a]} != {t[a]}" for a in span if mul[a][a] != a),
    )
    law("mul-distributes-over-add", n**3, _distributivity_failures(add, mul, t))
    return LawReport(tuple(laws), 24, 5)


def _associativity_failures(op: _Table, t: list[str], sym: str) -> list[str]:
    """``(a op b) op c`` against ``a op (b op c)`` over the element triples."""
    span = range(len(t))
    failed = []
    for a in span:
        op_a = op[a]
        for b in span:
            op_ab, op_b = op[op_a[b]], op[b]
            failed.extend(
                f"({t[a]} {sym} {t[b]}) {sym} {t[c]}"
                for c in span
                if op_ab[c] != op_a[op_b[c]]
            )
    return failed


def _distributivity_failures(add: _Table, mul: _Table, t: list[str]) -> list[str]:
    """``a * (b + c)`` against ``(a * b) + (a * c)`` over the element triples."""
    span = range(len(t))
    failed = []
    for a in span:
        mul_a = mul[a]
        for b in span:
            add_b, add_ab = add[b], add[mul_a[b]]
            failed.extend(
                f"{t[a]} * ({t[b]} + {t[c]})"
                for c in span
                if mul_a[add_b[c]] != add_ab[mul_a[c]]
            )
    return failed
