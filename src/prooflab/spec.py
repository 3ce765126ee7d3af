"""The paper's reference definitions: formulas, Ω, γ and the
prime-product reading, as the paper states them.

The tests check the fast paths against these definitions, and library
users may call them; no command does. Neither ``prooflab`` nor
``prooflab.cli`` imports this module, so a ``prooflab`` run does not
compile it. It holds:

- the formula tree (:class:`Atom`, :class:`Not`, :class:`And`,
  :class:`Or`), its walks (:func:`fold`, :func:`evaluate`,
  :func:`level`, :func:`atoms_of`), :func:`parse` and :func:`render`;
  the grammar itself is ``formula.build``, which the CLI runs straight
  into truth tables (``propclass.canonicalize_text``);
- :func:`canonicalize` of a tree, the full-DNF :func:`representative`
  of a class, and :func:`big_or`;
- the subset definitions of readings: :func:`omega`, the positional
  primes and their product :func:`gamma`, the index-set reading
  :class:`Interpretation` that :func:`induce_interpretation` picks by
  greatest prime product, and :func:`validate_interpretation` of a
  caller's reading. ``check`` needs only the prefix conjunctions, and
  ``interpret`` and ``prove`` only the flags of
  ``deduction.reached_steps``;
- :func:`build_proof`, which checks and assembles a caller's reading
  itself, :func:`essentially_equal`, :func:`premises`,
  :func:`less_forced` and :func:`embed_premise`.

Limit: the records ``==``, ``hash`` and ``repr`` recurse through their
fields once per level of a formula. A parsed tree is at most
``MAX_DEPTH`` (100) levels deep, far below the interpreter's recursion
limit, but a tree built in code has no such bound:
``representative`` of ``x0 | … | x9`` is a left fold of one ``|`` per
minterm over 1,023 minterms, 1,032 levels deep, and ``==``, ``hash``
and ``repr`` of it each raise ``RecursionError`` (Python 3.11, default
recursion limit). Every walk above keeps its own stack and finishes on
it.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from operator import and_, is_, not_, or_
from typing import Iterable, Mapping, Union

from ._record import record
from .errors import InvalidInterpretation, ResourceLimit
from .formula import ATOM_RE, Valuation, build, tokenize, walk
from .propclass import DEFAULT_ATOM_CAP, PropClass, _columns, _pruned, big_and, class_or, entails
from .deduction import Deduction, reached_steps
from .proof import ProofNode, normalize, proof_eq
from .sigma import SigmaPrime

# --- formulas ------------------------------------------------------------


@record
class Atom:
    name: str

    children = None  # a leaf

    def __post_init__(self):
        if ATOM_RE.fullmatch(self.name) is None:
            raise ValueError(f"invalid atom name {self.name!r}")


@record
class Not:
    child: "Formula"

    children = property(lambda self: (self.child,))


@record
class And:
    left: "Formula"
    right: "Formula"

    children = property(lambda self: (self.left, self.right))


@record
class Or:
    left: "Formula"
    right: "Formula"

    children = property(lambda self: (self.left, self.right))


Formula = Union[Atom, Not, And, Or]


def fold(f: Formula, atom, neg, conj, disj):
    """The value of ``f`` in the algebra given by one function per node
    kind: ``atom(name)``, ``neg(x)``, ``conj(x, y)`` and ``disj(x, y)``.

    The AST counterpart of ``formula.build``, on ``formula.walk``.
    ``<->`` shares its operands, so a parsed formula is a DAG: ``atom``
    is called once per distinct name and each node is computed once per
    call, keyed on its identity (hashing a node hashes its fields, so it
    would itself walk the tree).
    Raises ``TypeError`` at a node whose type is not ``Atom``, ``Not``,
    ``And`` or ``Or``, before its children are read.
    """
    names = {}  # each occurrence of an atom is a node of its own

    def visit(g, value):
        kind = type(g)
        if kind is Atom:
            name = g.name
            if name not in names:
                names[name] = atom(name)
            return names[name]
        if kind is Not:
            return neg(value(g.child))
        return (conj if kind is And else disj)(value(g.left), value(g.right))

    def foreign(g):
        if type(g) not in (Atom, Not, And, Or):
            raise TypeError(f"not a formula: {g!r}")

    return walk(f, visit, foreign)


def evaluate(f: Formula, v: Valuation) -> int:
    """Evaluate ``f`` under ``v`` with the standard Boolean semantics."""
    return fold(f, v.bit, lambda x: 1 - x, and_, or_)


def level(f: Formula) -> int:
    """Connective nesting depth: atoms sit at level 0."""
    return fold(f, lambda name: 0, (1).__add__, _above, _above)


def _above(x: int, y: int) -> int:
    return (x if x > y else y) + 1


def atoms_of(f: Formula) -> set[str]:
    """All atom names occurring in ``f``."""
    names: set[str] = set()
    # only the calls to names.add count; not_ and is_ are the cheapest
    # functions of one and two arguments
    fold(f, names.add, not_, is_, is_)
    return names


def _iff_node(a: Formula, b: Formula) -> Formula:
    return And(Or(Not(a), b), Or(Not(b), a))


def parse(text: str) -> Formula:
    """Parse ``text`` into the unique AST fixed by the precedence rules.

    Raises :class:`ParseError` with the offending position on malformed
    input, and on input nested deeper than ``MAX_DEPTH``.
    """
    return build(text, tokenize(text)[0], Atom, Not, And, Or, _iff_node)


def _wrap(child: tuple[str, int], parent_prec: int, right_operand: bool) -> str:
    text, prec = child
    # Left-associative printing: a same-precedence right operand keeps
    # its parentheses so the round trip reproduces the tree.
    if prec < parent_prec or (prec == parent_prec and right_operand):
        return f"({text})"
    return text


def render(f: Formula) -> str:
    """Minimal-parentheses text form; ``parse(render(f))`` equals ``f``.

    Each node renders to its text and precedence: | 0, & 1, ~ 2, atom 3."""
    return fold(
        f,
        lambda name: (name, 3),
        lambda x: ("~" + _wrap(x, 2, False), 2),
        lambda x, y: (f"{_wrap(x, 1, False)} & {_wrap(y, 1, True)}", 1),
        lambda x, y: (f"{_wrap(x, 0, False)} | {_wrap(y, 0, True)}", 0),
    )[0]


# --- classes -------------------------------------------------------------


def canonicalize(f: Formula, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    """The equivalence class of ``f``: full table, inessential atoms dropped."""
    atoms = sorted(atoms_of(f))
    n = len(atoms)
    if n > atom_cap:
        raise ResourceLimit(f"{n} atoms exceed the support cap of {atom_cap}")
    full = (1 << (1 << n)) - 1
    column = dict(zip(atoms, reversed(_columns(n))))
    return _pruned(atoms, fold(f, column.__getitem__, full.__xor__, and_, or_))


def big_or(classes: Iterable[PropClass], atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    parts = list(classes)
    if not parts:
        raise ValueError("big_or needs a nonempty list")
    return reduce(partial(class_or, atom_cap=atom_cap), parts)


def representative(c: PropClass) -> Formula:
    """A canonical representative formula: full DNF over the support.

    The constant classes have empty support, so they fall back to
    ``p | ~p`` and ``p & ~p``.
    """
    if not c.support:
        p = Atom("p")
        return Or(p, Not(p)) if c.bits else And(p, Not(p))
    n = len(c.support)
    minterms = []
    for m in range(1 << n):
        if not c.bits >> m & 1:
            continue
        lits = [
            Atom(name) if m >> (n - 1 - j) & 1 else Not(Atom(name))
            for j, name in enumerate(c.support)
        ]
        minterms.append(reduce(And, lits))
    return reduce(Or, minterms)


# --- readings --------------------------------------------------------------

DEFAULT_MAX_PRIOR = 20


def _subsets(upto: int) -> Iterable[frozenset[int]]:
    """All nonempty subsets of {1..upto}, in ascending bitmask order."""
    for mask in range(1, 1 << upto):
        yield frozenset(j + 1 for j in range(upto) if mask >> j & 1)


def _enumeration_guard(prior: int, max_prior: int) -> None:
    if prior > max_prior:
        raise ResourceLimit(
            f"{prior} prior steps exceed the enumeration cap of {max_prior}"
        )


def omega(d: Deduction, u: int, max_prior: int = DEFAULT_MAX_PRIOR) -> frozenset[frozenset[int]]:
    """All nonempty prior index sets whose conjunction or disjunction
    reaches step ``u`` in the Boolean order. The sets are enumerated, so
    a step with more than ``max_prior`` predecessors raises
    :class:`ResourceLimit`."""
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


PhiValue = Union[int, frozenset[int]]  # 0 for a premise, else the index set


@record
class Interpretation:
    """Map from step index to 0 (premise) or a justifying index set."""

    assignment: Mapping[int, PhiValue]


def induce_interpretation(d: Deduction, atom_cap: int = DEFAULT_ATOM_CAP) -> Interpretation:
    """The canonical reading: depth-first from the last step, each visited
    step takes the justifying set with the greatest prime product, and
    every step never reached is a premise. Justifying sets are closed
    under supersets, so that set is the whole prefix {1..u-1}, given to
    each reached step when the last step is reached."""
    reached = reached_steps(d, atom_cap)
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


# --- proofs ----------------------------------------------------------------


def build_proof(
    d: Deduction, phi: Interpretation, atom_cap: int = DEFAULT_ATOM_CAP
) -> ProofNode:
    """The normalized proof tree of an interpreted deduction, a node per
    step; a reading that does not interpret ``d`` raises
    :class:`InvalidInterpretation`."""
    if not validate_interpretation(d, phi, atom_cap):
        raise InvalidInterpretation("the assignment does not interpret this deduction")
    nodes: list[ProofNode] = []  # nodes[u - 1] proves step u
    for u, c in enumerate(d.steps, 1):
        v = phi.assignment[u]
        nodes.append(ProofNode(c, None if v == 0 else frozenset(nodes[h - 1] for h in v)))
    return normalize(nodes[-1])


def essentially_equal(
    d1: Deduction, phi1: Interpretation, d2: Deduction, phi2: Interpretation
) -> bool:
    """Whether two interpreted deductions produce the same proof tree."""
    return proof_eq(build_proof(d1, phi1), build_proof(d2, phi2))


def premises(r: ProofNode) -> frozenset[PropClass]:
    """Conclusions of all premise-justified nodes in the tree."""
    out: set[PropClass] = set()

    def visit(node: ProofNode, value) -> None:
        if node.children is None:
            out.add(node.conclusion)

    walk(r, visit)
    return frozenset(out)


def less_forced(a: ProofNode, b: ProofNode) -> bool:
    """Strictly smaller premise set."""
    return premises(a) < premises(b)


def embed_premise(sp: SigmaPrime, c: PropClass) -> ProofNode:
    """The injection of an extension member as a one-node premise proof."""
    sp.require_member(c)
    return ProofNode(c)
