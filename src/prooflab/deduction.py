"""Deduction validation and the induced interpretation picked by
greatest prime product.

A deduction is a finite sequence of classes over an extension context.
A step is justified by membership in the extension, or by the
conjunction or disjunction of some earlier steps reaching it in the
Boolean order. Checks and readings need only the prefix conjunctions
``AND(step 1..k)``, so they cost O(n²) class combines and have no step
cap; :func:`omega` and :func:`gamma` keep the subset definitions as the
reference. :func:`omega` enumerates subsets, so a step with more than
``max_prior`` predecessors raises :class:`ResourceLimit` there.

Because the extension is deductively closed, the original membership
clauses (literal membership of the base set, or one-step derivability
from a base member) collapse into plain extension membership; each step
report keeps a ``base`` tag recording which of those would have applied
against the base set alone.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import accumulate, product
from typing import Callable, Iterable, Mapping, Union

from ._record import record
from .errors import InvalidDeduction, ResourceLimit
from .propclass import (
    DEFAULT_ATOM_CAP,
    TAUTOLOGY,
    PropClass,
    all_classes,
    big_and,
    big_or,
    class_and,
    class_from_text,
    class_not,
    class_or,
    entails,
)
from .sigma import LawCheck, LawReport, SigmaPrime

DEFAULT_MAX_PRIOR = 20


@record
class Deduction:
    """A nonempty step sequence ``steps`` over the extension ``context``."""

    steps: tuple[PropClass, ...]
    context: SigmaPrime

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a deduction needs at least one step")

    def __len__(self) -> int:
        return len(self.steps)

    def step(self, i: int) -> PropClass:
        """1-based step access."""
        return self.steps[i - 1]


PhiValue = Union[int, frozenset[int]]  # 0 for a premise, else the index set


@record
class Interpretation:
    """Map from step index to 0 (premise) or a justifying index set."""

    assignment: Mapping[int, PhiValue]

    def lines(self) -> list[str]:
        out = []
        for i in sorted(self.assignment):
            v = self.assignment[i]
            if v == 0:
                out.append(f"{i}: 0")
            else:
                out.append("%d: {%s}" % (i, ",".join(map(str, sorted(v)))))
        return out


@record
class StepReport:
    index: int
    clause: str | None  # 'a' member, 'c' conjunction of earlier steps, None unjustified
    subset: frozenset[int] | None
    base: str | None  # 'a' in base, 'b' one step from a base member, else None

    @property
    def valid(self) -> bool:
        return self.clause is not None


@record
class DeductionReport:
    steps: tuple[StepReport, ...]

    @property
    def valid(self) -> bool:
        return all(s.valid for s in self.steps)

    @property
    def first_invalid(self) -> int | None:
        for s in self.steps:
            if not s.valid:
                return s.index
        return None

    def lines(self) -> list[str]:
        out = ["step  clause  H             base"]
        for s in self.steps:
            h = "-" if s.subset is None else "{%s}" % ",".join(map(str, sorted(s.subset)))
            out.append(
                f"{s.index:<5} {s.clause or 'INVALID':<7} {h:<13} {s.base or '-'}"
            )
        return out


def _subsets(upto: int) -> Iterable[frozenset[int]]:
    """All nonempty subsets of {1..upto}, in ascending bitmask order."""
    for mask in range(1, 1 << upto):
        yield frozenset(j + 1 for j in range(upto) if mask >> j & 1)


def _enumeration_guard(prior: int, max_prior: int) -> None:
    if prior > max_prior:
        raise ResourceLimit(
            f"{prior} prior steps exceed the enumeration cap of {max_prior}"
        )


def _base_tag(d: Deduction, base: list[PropClass], c: PropClass) -> str | None:
    """``base`` is the base set in class-text order, so the ``entails``
    calls repeat from run to run."""
    if c in d.context.base:
        return "a"
    if any(entails(g, c) for g in base):
        return "b"
    return None


def check_deduction(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> DeductionReport:
    """Justify every step by membership, else by the conjunction of the
    first set H of earlier steps, in ascending bitmask order, reaching it;
    no disjunction reaches more. Such sets are closed under supersets, so
    H exists when the prefix does, and from the highest index down, k is
    dropped whenever the kept indices and 1..k-1 still reach the step.
    The search takes O(n) combines per step, so no step count is capped."""
    prefix = [TAUTOLOGY]  # prefix[k] = AND(step 1..k), built once needed
    conj = accumulate(d.steps, partial(class_and, atom_cap=atom_cap))
    base = sorted(d.context.base, key=PropClass.text)
    reports = []
    for i in range(1, len(d) + 1):
        c = d.step(i)
        if d.context.member(c):
            reports.append(StepReport(i, "a", None, _base_tag(d, base, c)))
            continue
        while len(prefix) < i:
            prefix.append(next(conj))
        if i == 1 or not entails(prefix[i - 1], c):
            reports.append(StepReport(i, None, None, None))
            continue
        kept, kept_and = [], TAUTOLOGY
        for k in range(i - 1, 0, -1):
            if (kept or k > 1) and entails(class_and(kept_and, prefix[k - 1], atom_cap), c):
                continue
            kept.append(k)
            kept_and = class_and(kept_and, d.step(k), atom_cap)
        reports.append(StepReport(i, "c", frozenset(kept), None))
    return DeductionReport(tuple(reports))


def omega(d: Deduction, u: int, max_prior: int = DEFAULT_MAX_PRIOR) -> frozenset[frozenset[int]]:
    """All nonempty prior index sets whose conjunction or disjunction
    reaches step ``u`` in the Boolean order."""
    if not 1 <= u <= len(d):
        raise ValueError(f"step index {u} out of range")
    _enumeration_guard(u - 1, max_prior)
    target = d.step(u)
    hits = []
    for h in _subsets(u - 1):
        parts = [d.step(j) for j in sorted(h)]
        if entails(big_and(parts), target) or entails(big_or(parts), target):
            hits.append(h)
    return frozenset(hits)


# --- positional primes ---------------------------------------------------

_PRIMES = [2, 3, 5, 7, 11, 13]


def nth_prime(j: int) -> int:
    """The j-th prime, 1-based: nth_prime(1) == 2."""
    if j < 1:
        raise ValueError("prime index must be positive")
    while len(_PRIMES) < j:
        candidate = _PRIMES[-1] + 2
        while any(candidate % p == 0 for p in _PRIMES if p * p <= candidate):
            candidate += 2
        _PRIMES.append(candidate)
    return _PRIMES[j - 1]


def gamma(h: Iterable[int]) -> int:
    """Product of the positional primes of ``h``; exact integer arithmetic."""
    indices = sorted(h)
    if not indices:
        raise ValueError("gamma needs a nonempty index set")
    return math.prod(nth_prime(j) for j in indices)


def induce_interpretation(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> Interpretation:
    """The canonical reading: depth-first from the last step, each visited
    step takes the justifying set with the greatest prime product, and
    every step never reached is a premise. Justifying sets are closed
    under supersets, so that set is the whole prefix {1..u-1}, and a
    justified last step leads to every earlier step.

    The prefix conjunctions are built first, so a prefix over the atom
    cap raises :class:`ResourceLimit` before any step is judged. One pass
    then marks step u reached when u > 1 and ``AND(step 1..u-1)`` entails
    it; the first step neither reached nor a member raises
    :class:`InvalidDeduction`, naming the step :func:`check_deduction`
    reports first."""
    prefix = [TAUTOLOGY, *accumulate(d.steps[:-1], partial(class_and, atom_cap=atom_cap))]
    reached = []
    for u, c in enumerate(d.steps, 1):
        hit = u > 1 and entails(prefix[u - 1], c)
        if not hit and not d.context.member(c):
            raise InvalidDeduction(f"step {u} is not justified")
        reached.append(hit)
    last = reached[-1]
    return Interpretation(
        {u: frozenset(range(1, u)) if last and hit else 0 for u, hit in enumerate(reached, 1)}
    )


def validate_interpretation(
    d: Deduction, phi: Interpretation, atom_cap: int = DEFAULT_ATOM_CAP
) -> bool:
    """Check the reading conditions: premises must belong to the extension
    and every index set must reach its step by conjunction or disjunction."""
    if set(phi.assignment) != set(range(1, len(d) + 1)):
        return False
    for i in range(1, len(d) + 1):
        v = phi.assignment[i]
        if v == 0:
            if not d.context.member(d.step(i)):
                return False
            continue
        if not v or not all(1 <= h < i for h in v):
            return False
        parts = [d.step(j) for j in sorted(v)]
        if not (
            entails(big_and(parts, atom_cap), d.step(i))
            or entails(big_or(parts, atom_cap), d.step(i))
        ):
            return False
    return True


# --- the classical rule table -------------------------------------------


@record
class InferenceRule:
    """A rule schema: metavariable tuple -> (premises, conclusion)."""

    name: str
    arity: int
    make: Callable[..., tuple[tuple[PropClass, ...], PropClass]]


def _imp(a: PropClass, b: PropClass) -> PropClass:
    return class_or(class_not(a), b)


CLASSICAL_RULES: tuple[InferenceRule, ...] = (
    InferenceRule("modus-ponens", 2, lambda a, b: ((a, _imp(a, b)), b)),
    InferenceRule("and-elim-left", 2, lambda a, b: ((class_and(a, b),), a)),
    InferenceRule("and-elim-right", 2, lambda a, b: ((class_and(a, b),), b)),
    InferenceRule("or-intro-left", 2, lambda a, b: ((a,), class_or(a, b))),
    InferenceRule("or-intro-right", 2, lambda a, b: ((b,), class_or(a, b))),
    InferenceRule("pair-or", 2, lambda a, b: ((a, b), class_or(b, a))),
    InferenceRule(
        "disjunctive-syllogism",
        2,
        lambda a, b: ((class_or(a, b), class_not(a)), b),
    ),
    InferenceRule(
        "modus-tollens",
        2,
        lambda a, b: ((_imp(a, b), class_not(b)), class_not(a)),
    ),
    InferenceRule("double-neg-intro", 1, lambda a: ((a,), class_not(class_not(a)))),
    InferenceRule("double-neg-elim", 1, lambda a: ((class_not(class_not(a)),), a)),
)

_RULE_ATOMS = ("p", "q", "r")


def check_rule(rule: InferenceRule, atom_budget: int = 2) -> LawCheck:
    """Semantic validity of one rule over every class instantiation on
    ``atom_budget`` atoms: the premise conjunction must entail the conclusion.

    ``make`` must be built from class operations, so it commutes with
    substitution: an instance is the schema on fresh atoms with classes
    put for those atoms. The schema is decided once on fresh atoms. If
    it holds, so does every instance, and the |pool|^arity instances are
    counted, not built. If it fails, some row of the fresh atoms
    falsifies it, and the constant classes, which are in every pool,
    realize that row; only then is every instance checked, in pool
    order."""
    if not 1 <= atom_budget <= 3:
        raise ValueError("atom budget must be between 1 and 3")
    fresh = [class_from_text(f"[m{j};01]") for j in range(rule.arity)]
    premises, conclusion = rule.make(*fresh)
    if entails(big_and(premises), conclusion):
        return LawCheck(rule.name, (1 << (1 << atom_budget)) ** rule.arity, ())
    pool = all_classes(_RULE_ATOMS[:atom_budget])
    failures = []
    for combo in product(pool, repeat=rule.arity):
        premises, conclusion = rule.make(*combo)
        if not entails(big_and(premises), conclusion):
            failures.append("%s with (%s)" % (rule.name, ", ".join(c.text() for c in combo)))
    return LawCheck(rule.name, len(pool) ** rule.arity, tuple(failures))


def classical_rules_report(atom_budget: int = 2) -> LawReport:
    """Audit all ten rules of the standard system at class level."""
    return LawReport(tuple(check_rule(r, atom_budget) for r in CLASSICAL_RULES), 24, 5)
