"""Deduction validation and the flags of the induced reading.

A deduction is a finite sequence of classes over an extension context.
A step is justified by membership in the extension, or by the
conjunction or disjunction of some earlier steps reaching it in the
Boolean order. Checks and readings need only the prefix conjunctions
``AND(step 1..k)``, so neither has a step cap. The reading picked by
greatest prime product gives a step the whole prefix ``{1..u-1}`` or
nothing, so it is one flag per step, :func:`reached_steps`; a reading of
n steps costs fewer than n combines and n entailments, and
:func:`reading_lines` writes it from those flags. Only a check's greedy
search for the earlier steps H a justification uses is O(n²) combines.
``spec.omega``, ``spec.gamma`` and ``spec.induce_interpretation`` keep
the subset definitions and the index-set reading as the reference the
tests check these against.

Because the extension is deductively closed, the original membership
clauses (literal membership of the base set, or one-step derivability
from a base member) collapse into plain extension membership; each step
report keeps a ``base`` tag recording which of those would have applied
against the base set alone.
"""

from __future__ import annotations

from functools import partial
from itertools import accumulate, product
from typing import Callable, Iterator

from ._record import record
from .errors import InvalidDeduction
from .propclass import (
    DEFAULT_ATOM_CAP,
    TAUTOLOGY,
    PropClass,
    all_classes,
    big_and,
    class_and,
    class_from_text,
    class_not,
    class_or,
    entails,
)
from .sigma import LawCheck, LawReport, SigmaPrime


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


def reached_steps(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> list[bool]:
    """Whether each step u is reached: u > 1 and ``AND(step 1..u-1)``
    entails it. The prefix conjunctions are built first, so a prefix
    over the atom cap raises :class:`ResourceLimit` before any step is
    judged; the first step neither reached nor a member raises
    :class:`InvalidDeduction`, naming the step :func:`check_deduction`
    reports first."""
    prefix = [TAUTOLOGY, *accumulate(d.steps[:-1], partial(class_and, atom_cap=atom_cap))]
    reached = []
    for u, c in enumerate(d.steps, 1):
        hit = u > 1 and entails(prefix[u - 1], c)
        if not hit and not d.context.member(c):
            raise InvalidDeduction(f"step {u} is not justified")
        reached.append(hit)
    return reached


def reading_lines(reached: list[bool]) -> Iterator[str]:
    """The induced reading from the flags of :func:`reached_steps`, one
    line per step as it is asked for: ``u: {1,...,u-1}`` when step u and
    the last step are reached, else ``u: 0`` (a premise)."""
    last, prior = reached[-1], []
    for u, hit in enumerate(reached, 1):
        yield "%d: {%s}" % (u, ",".join(prior)) if last and hit else f"{u}: 0"
        prior.append(str(u))


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
