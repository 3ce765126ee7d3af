"""Independent oracles and generators for cross-checking the library.

Everything here recomputes expected values from first principles:
formula evaluation with plain Python booleans, truth tables as integer
bitmasks, and explicit subset enumeration. Only the *data contracts*
of the library types (AST fields, PropClass support/table, witness
valuation entries) are touched, never the operation paths under test.
"""

from __future__ import annotations

import hashlib
import random
import re
from itertools import combinations, product

from prooflab import Deduction, ParseError, ProofNode, PropClass, SigmaPrime
from prooflab import TAUTOLOGY
from prooflab.formula import MAX_DEPTH
from prooflab.spec import And, Atom, Not, Or, fold, render, representative


def eval_bool(f, assignment: dict[str, int], default: int = 0) -> int:
    """Reference formula evaluation, independent of prooflab.evaluate."""
    if isinstance(f, Atom):
        return assignment.get(f.name, default)
    if isinstance(f, Not):
        return 0 if eval_bool(f.child, assignment, default) else 1
    if isinstance(f, And):
        return eval_bool(f.left, assignment, default) and eval_bool(f.right, assignment, default)
    if isinstance(f, Or):
        return eval_bool(f.left, assignment, default) or eval_bool(f.right, assignment, default)
    raise TypeError(f)


def all_assignments(atoms: list[str]):
    """Binary-counting assignments, first atom most significant."""
    n = len(atoms)
    for m in range(1 << n):
        yield {a: (m >> (n - 1 - j)) & 1 for j, a in enumerate(atoms)}


def _row_index(support, assignment: dict[str, int], default: int) -> int:
    idx = 0
    for name in support:
        idx = (idx << 1) | assignment.get(name, default)
    return idx


def class_value(c: PropClass, assignment: dict[str, int], default: int = 0) -> int:
    """Table lookup by hand, using only the PropClass data contract."""
    return c.table[_row_index(c.support, assignment, default)]


def class_mask(c: PropClass, atoms: list[str], default: int = 0) -> int:
    """The class's truth values over ``atoms`` packed into an int: bit m
    holds the value at the m-th counting assignment."""
    mask = 0
    for m, assignment in enumerate(all_assignments(atoms)):
        if class_value(c, assignment, default):
            mask |= 1 << m
    return mask


def mask_entails(lhs: int, rhs: int, rows: int) -> bool:
    return (lhs & ~rhs) & ((1 << rows) - 1) == 0


def mask_depends(mask: int, atoms: list[str], name: str) -> bool:
    """Whether flipping ``name`` changes the value of some row of ``mask``."""
    stride = 1 << (len(atoms) - 1 - atoms.index(name))
    return any(mask >> m & 1 != mask >> (m ^ stride) & 1 for m in range(1 << len(atoms)))


def witness_oracle(base, default: int = 0) -> str | None:
    """The witness text of the first assignment, in counting order over
    the base atoms, satisfying every base class: a scan of all 2^n rows.
    None when no assignment does."""
    atoms = sorted({a for c in base for a in c.support})
    tables = [(c, c.table) for c in base]
    for assignment in all_assignments(atoms):
        if all(
            table[_row_index(c.support, assignment, default)] for c, table in tables
        ):
            pairs = " ".join(f"{a}={assignment[a]}" for a in atoms)
            return f"{pairs} default={default}".strip()
    return None


def member_oracle(sp: SigmaPrime, c: PropClass) -> bool:
    """Membership by direct witness lookup."""
    return class_value(c, dict(sp.witness.assign), sp.default_bit) == 1


def deduction_atoms(d: Deduction) -> list[str]:
    return sorted({a for c in d.steps for a in c.support})


def omega_oracle(d: Deduction, u: int) -> set[frozenset[int]]:
    """Full-subset brute force over bitmask truth tables."""
    atoms = deduction_atoms(d)
    rows = 1 << len(atoms)
    masks = [class_mask(c, atoms) for c in d.steps]
    target = masks[u - 1]
    hits = set()
    for size in range(1, u):
        for combo in combinations(range(1, u), size):
            conj = (1 << rows) - 1
            disj = 0
            for h in combo:
                conj &= masks[h - 1]
                disj |= masks[h - 1]
            if mask_entails(conj, target, rows) or mask_entails(disj, target, rows):
                hits.add(frozenset(combo))
    return hits


def first_subset_oracle(d: Deduction, i: int) -> tuple[str, frozenset[int]] | None:
    """The first prior index set, in ascending bitmask order, whose
    conjunction reaches step ``i`` (clause 'c'); failing that, the first
    whose disjunction does (clause 'd'); None when neither exists."""
    atoms = deduction_atoms(d)
    rows = 1 << len(atoms)
    masks = [class_mask(c, atoms) for c in d.steps]
    for clause in ("c", "d"):
        for bits in range(1, 1 << (i - 1)):
            h = [j + 1 for j in range(i - 1) if bits >> j & 1]
            conj = (1 << rows) - 1
            disj = 0
            for j in h:
                conj &= masks[j - 1]
                disj |= masks[j - 1]
            if mask_entails(conj if clause == "c" else disj, masks[i - 1], rows):
                return clause, frozenset(h)
    return None


def reading_oracle(d: Deduction) -> dict[int, object]:
    """The induced reading from its definition: depth-first from the last
    step, each visited step takes the set in ``omega_oracle`` with the
    greatest product of positional primes, and unvisited steps are 0."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < len(d):
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1

    def product(h: frozenset[int]) -> int:
        out = 1
        for j in h:
            out *= primes[j - 1]
        return out

    assignment: dict[int, object] = {}

    def visit(u: int) -> None:
        if u in assignment:
            return
        hits = omega_oracle(d, u)
        assignment[u] = max(hits, key=product) if hits else 0
        for h in sorted(assignment[u] or (), reverse=True):
            visit(h)

    visit(len(d))
    return {u: assignment.get(u, 0) for u in range(1, len(d) + 1)}


def step_valid_oracle(d: Deduction, i: int) -> bool:
    """Clause oracle: membership, or some prior subset reaching the step."""
    if member_oracle(d.context, d.step(i)):
        return True
    return bool(omega_oracle(d, i))


def deduction_valid_oracle(d: Deduction) -> bool:
    return all(step_valid_oracle(d, i) for i in range(1, len(d) + 1))


# --- generators -------------------------------------------------------------


def random_formula(rng: random.Random, atoms: list[str], depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(atoms))
    pick = rng.random()
    if pick < 0.3:
        return Not(random_formula(rng, atoms, depth - 1))
    left = random_formula(rng, atoms, depth - 1)
    right = random_formula(rng, atoms, depth - 1)
    return And(left, right) if pick < 0.65 else Or(left, right)


def random_member_class(rng: random.Random, sp: SigmaPrime, atoms: list[str]) -> PropClass:
    from prooflab import class_not
    from prooflab.spec import canonicalize

    c = canonicalize(random_formula(rng, atoms))
    return c if sp.member(c) else class_not(c)


def random_valid_deduction(
    rng: random.Random, sp: SigmaPrime, atoms: list[str], max_steps: int = 8
) -> Deduction:
    """Valid by construction: every step is a member or an and/or
    consequence of earlier steps."""
    from prooflab import big_and, class_or
    from prooflab.spec import big_or, canonicalize

    n = rng.randint(1, max_steps)
    steps: list[PropClass] = []
    for _ in range(n):
        if not steps or rng.random() < 0.4:
            steps.append(random_member_class(rng, sp, atoms))
            continue
        k = rng.randint(1, len(steps))
        h = rng.sample(range(len(steps)), k)
        parts = [steps[j] for j in h]
        base = big_and(parts) if rng.random() < 0.5 else big_or(parts)
        if rng.random() < 0.5:
            steps.append(base)
        else:
            steps.append(class_or(base, canonicalize(random_formula(rng, atoms))))
    return Deduction(tuple(steps), sp)


def random_proof(
    rng: random.Random, sp: SigmaPrime, classes: list[PropClass], depth: int = 2
) -> ProofNode:
    """Random normalized proof with member conclusions."""
    from prooflab import normalize

    members = [c for c in classes if sp.member(c)]
    conclusion = rng.choice(members)
    if depth == 0 or rng.random() < 0.45:
        return ProofNode(conclusion)
    kids = frozenset(
        random_proof(rng, sp, classes, depth - 1)
        for _ in range(rng.randint(1, 3))
    )
    return normalize(ProofNode(conclusion, kids))


def check_rule_oracle(rule, atom_budget: int = 2) -> tuple[str, int, tuple[str, ...]]:
    """(name, instances, violations) of a rule, from a check of every
    instance over the classes on ``atom_budget`` atoms, in pool order."""
    from prooflab import all_classes, big_and, entails

    pool = all_classes(("p", "q", "r")[:atom_budget])
    violations = []
    count = 0
    for combo in product(pool, repeat=rule.arity):
        count += 1
        premises, conclusion = rule.make(*combo)
        if not entails(big_and(premises), conclusion):
            violations.append(
                "%s with (%s)" % (rule.name, ", ".join(c.text() for c in combo))
            )
    return rule.name, count, tuple(violations)


def ring_audit_oracle(sp: SigmaPrime, elements, add_op=None, mul_op=None):
    """The ring-law audit as a direct check of every pair and triple,
    calling the operations afresh for every instance: the reference
    that ``check_ring_axioms``'s Cayley tables must agree with, in the
    report and in the exception the first failing call raises."""
    from prooflab import TAUTOLOGY, is_tautology, ring_add, ring_mul
    from prooflab.sigma import LawCheck, LawReport

    elems = sorted(set(elements), key=lambda c: c.text())
    for c in elems:
        sp.require_member(c)
    add = add_op or (lambda a, b: ring_add(sp, a, b))
    mul = mul_op or (lambda a, b: ring_mul(sp, a, b))
    laws = []

    def law(name, instances, failed):
        laws.append(LawCheck(name, instances, tuple(failed)))

    pairs = [(a, b) for a in elems for b in elems]
    triples = [(a, b, c) for a in elems for b in elems for c in elems]
    law("add-closure", len(pairs),
        (f"{a} + {b} leaves the extension" for a, b in pairs if not sp.member(add(a, b))))
    law("mul-closure", len(pairs),
        (f"{a} * {b} leaves the extension" for a, b in pairs if not sp.member(mul(a, b))))
    law("add-commutative", len(pairs), (f"{a} + {b}" for a, b in pairs if add(a, b) != add(b, a)))
    law("add-associative", len(triples),
        (f"({a} + {b}) + {c}" for a, b, c in triples if add(add(a, b), c) != add(a, add(b, c))))
    law("add-neutral", len(elems), (f"{a} + taut != {a}" for a in elems if add(a, TAUTOLOGY) != a))
    law("add-self-inverse", len(elems),
        (f"{a} + {a} not taut" for a in elems if not is_tautology(add(a, a))))
    law("mul-commutative", len(pairs), (f"{a} * {b}" for a, b in pairs if mul(a, b) != mul(b, a)))
    law("mul-associative", len(triples),
        (f"({a} * {b}) * {c}" for a, b, c in triples if mul(mul(a, b), c) != mul(a, mul(b, c))))
    law("mul-idempotent", len(elems), (f"{a} * {a} != {a}" for a in elems if mul(a, a) != a))
    law("mul-distributes-over-add", len(triples),
        (f"{a} * ({b} + {c})" for a, b, c in triples
         if mul(a, add(b, c)) != add(mul(a, b), mul(a, c))))
    return LawReport(tuple(laws), 24, 5)


def restricted_domain_oracle(scalars, pool) -> list[tuple]:
    """Every ``(s, a, b)`` of restricted scalar distributivity, listed by
    testing the proof-matching predicate on each triple."""
    from prooflab import class_or, is_tautology

    def keeps_justification(s, r):
        return r.is_premise or not is_tautology(class_or(s.payload, r.conclusion))

    def restricted_instance(s, a, b):
        if a.children == b.children:
            return True
        return (a.is_premise or b.is_premise) and keeps_justification(
            s, a
        ) and keeps_justification(s, b)

    return [(s, a, b) for s in scalars for a in pool for b in pool if restricted_instance(s, a, b)]


# --- proof walks as plain tree recursions ----------------------------------
# The reference for proof.fold's callers: each walks the proof as a tree,
# so it costs one visit per root-to-node path. Keep the inputs small.


def normalize_oracle(r: ProofNode) -> ProofNode:
    from prooflab import is_tautology

    if is_tautology(r.conclusion):
        return ProofNode(r.conclusion)
    if r.children is None:
        return r
    return ProofNode(r.conclusion, frozenset(normalize_oracle(c) for c in r.children))


def premises_oracle(r: ProofNode) -> frozenset[PropClass]:
    if r.children is None:
        return frozenset({r.conclusion})
    return frozenset().union(*(premises_oracle(c) for c in r.children))


def rewrite_oracle(r: ProofNode, sigma: PropClass, new_children) -> ProofNode:
    """Every node concluding ``sigma`` takes ``new_children``."""
    if r.conclusion == sigma:
        return ProofNode(r.conclusion, new_children)
    if r.children is None:
        return r
    return ProofNode(
        r.conclusion, frozenset(rewrite_oracle(c, sigma, new_children) for c in r.children)
    )


def find_occurrences_oracle(r: ProofNode, sigma: PropClass) -> list[tuple[str, ...]]:
    """Every digest path to a node concluding ``sigma``, collected in
    canonical pre-order and listed shallowest first, ties by path text;
    a digest is the SHA-256 of ``serialize_oracle``'s text."""
    hits = []

    def walk(node, path):
        if node.conclusion == sigma:
            hits.append(path)
        texts = {serialize_oracle(c): c for c in node.children or ()}
        for text in sorted(texts):
            walk(texts[text], path + (hashlib.sha256(text.encode("utf-8")).hexdigest(),))

    walk(r, ())
    return sorted(hits, key=lambda p: (len(p), p))


def require_members_oracle(r: ProofNode, sp: SigmaPrime) -> None:
    """``require_member`` on every conclusion in canonical pre-order."""
    sp.require_member(r.conclusion)
    for c in sorted(r.children or (), key=serialize_oracle):
        require_members_oracle(c, sp)


def pretty_oracle(r: ProofNode, depth: int = 0) -> str:
    """``pretty_proof`` by recursion: the node's line, then each child's
    subtree one level deeper in ``serialize_oracle`` order; a class
    prints as its rendered representative, and a constant as 1 or 0."""
    c = r.conclusion
    text = "1" if c == TAUTOLOGY else "0" if not c.support else render(representative(c))
    lines = ["  " * depth + "- " + text + ("  [premise]" if r.children is None else "")]
    for child in sorted(r.children or (), key=serialize_oracle):
        lines.append(pretty_oracle(child, depth + 1))
    return "\n".join(lines)


# --- the recursive proof parser ----------------------------------------------
# The reference for parse_proof's scan: one call per node and a slice per
# class text, checking each part of a node in text order.


def parse_proof_oracle(text: str) -> ProofNode:
    from prooflab import ParseError

    node, end = _parse_node_oracle(text, 0, 0)
    if text[end:].strip():
        raise ParseError("trailing data after proof", end)
    return node


def _parse_node_oracle(text: str, i: int, depth: int) -> tuple[ProofNode, int]:
    from prooflab import ParseError
    from prooflab.formula import MAX_DEPTH
    from prooflab.propclass import class_from_text

    if i >= len(text) or text[i] != "{":
        raise ParseError("expected '{'", i)
    if depth > MAX_DEPTH:
        raise ParseError(f"nested deeper than {MAX_DEPTH} levels", i)
    i += 1
    if i >= len(text) or text[i] != "[":
        raise ParseError("expected a class text '['", i)
    close = text.find("]", i)
    if close < 0:
        raise ParseError("unterminated class text", i)
    conclusion = class_from_text(text[i : close + 1])
    i = close + 1
    if text[i : i + 1] != ",":
        raise ParseError("expected ',' after the conclusion", i)
    i += 1
    if text[i : i + 3] == "{0}":
        node = ProofNode(conclusion)
        i += 3
    elif text[i : i + 1] == "{":
        i += 1
        kids = []
        while True:
            child, i = _parse_node_oracle(text, i, depth + 1)
            kids.append(child)
            if text[i : i + 1] == ",":
                i += 1
                continue
            if text[i : i + 1] == "}":
                i += 1
                break
            raise ParseError("expected ',' or '}' in a child set", i)
        node = ProofNode(conclusion, frozenset(kids))
    else:
        raise ParseError("expected a justification", i)
    if text[i : i + 1] != "}":
        raise ParseError("expected '}' closing the node", i)
    return node, i + 1


def serialize_oracle(r: ProofNode) -> str:
    """The canonical text of ``r``, written recursively from its
    definition: every child set sorted by the children's texts."""
    if r.children is None:
        return "{%s,{0}}" % r.conclusion.text()
    kids = sorted(serialize_oracle(c) for c in r.children)
    return "{%s,{%s}}" % (r.conclusion.text(), ",".join(kids))


def scrambled_text(rng: random.Random, r: ProofNode) -> str:
    """A serialization of ``r`` with every child set in random order and
    some children repeated: a valid text that is not canonical."""
    if r.children is None:
        return "{%s,{0}}" % r.conclusion.text()
    kids = list(r.children)
    kids += [rng.choice(kids) for _ in range(rng.randint(0, 2))]
    rng.shuffle(kids)
    return "{%s,{%s}}" % (r.conclusion.text(), ",".join(scrambled_text(rng, c) for c in kids))


# --- the formula grammar, one method per rule ----------------------------------
# The references for formula.build's operator-precedence loop: the
# tokenizer and precedence-climbing loop (Clarke 1986) it replaced, and
# recursive descent with one method per binary rule, each with its own
# level check, run on the same tokens.

_TOKEN_RE = re.compile(r"\s*([a-z][a-z0-9_]*|<->|[~&|()]|\S)")
_ONE_CHAR_TOKENS = frozenset("abcdefghijklmnopqrstuvwxyz~&|()")
_BINARY = {"<->": (0, "iff", 3), "|": (1, "disj", 1), "&": (2, "conj", 1)}
_SYMBOLS = frozenset(_BINARY).union(("~", "(", ")", ""))
_KIND = {")": "rpar", "": "eof"}


def _is_stray(token: str) -> bool:
    return len(token) == 1 and token not in _ONE_CHAR_TOKENS


class Scanned:
    """A formula text cut into tokens; a character that starts no token
    raises :class:`ParseError` here, before any grammar error."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        if any(_is_stray(t) for t in set(self.tokens)):
            k = next(k for k, t in enumerate(self.tokens) if _is_stray(t))
            raise ParseError(f"unexpected character {self.tokens[k]!r}", self.position(k))
        self.tokens.append("")

    def position(self, k: int) -> int:
        """Where the k-th token starts; the end of input is one past the
        last."""
        starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return (starts + [len(self.text)])[k]


class ClimbingOracle:
    """Precedence climbing: one loop, :meth:`binary`, reads every binary
    operator from ``_BINARY``; it and :meth:`unary` return a value and
    its level."""

    def __init__(self, scanned: Scanned, atom, neg, conj, disj, iff):
        self.scanned = scanned
        self.tokens = scanned.tokens
        self.i = 0
        self.open = 0
        self.atom, self.neg, self.conj, self.disj, self.iff = atom, neg, conj, disj, iff

    def run(self):
        value = self.binary(*self.unary(), 0)[0]
        self.take("")
        return value

    def fail(self, message: str, k: int):
        raise ParseError(message, self.scanned.position(k))

    def too_deep(self, k: int):
        self.fail(f"nested deeper than {MAX_DEPTH} levels", k)

    def take(self, token: str) -> None:
        found = self.tokens[self.i]
        if found != token:
            self.fail(f"expected {_KIND[token]}, found {found or 'end of input'!r}", self.i)
        self.i += 1

    def binary(self, value, depth: int, floor: int):
        """``value``, of level ``depth``, joined left to right with the
        operands of the operators that bind at least ``floor`` strongly."""
        tokens = self.tokens
        while (op := _BINARY.get(tokens[self.i])) is not None and op[0] >= floor:
            strength, name, levels = op
            k = self.i
            self.i += 1
            rhs, rdepth = self.unary()
            if (after := _BINARY.get(tokens[self.i])) is not None and after[0] > strength:
                rhs, rdepth = self.binary(rhs, rdepth, strength + 1)
            value = getattr(self, name)(value, rhs)
            depth = max(depth, rdepth) + levels
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def unary(self):
        k = self.i
        token = self.tokens[k]
        if token not in _SYMBOLS:
            self.i = k + 1
            return self.atom(token), 0
        if token != "~" and token != "(":
            self.fail(f"expected a formula, found {token or 'end of input'!r}", k)
        self.i = k + 1
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(k)
        if token == "~":
            child, depth = self.unary()
            value, depth = self.neg(child), depth + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        else:
            value, depth = self.binary(*self.unary(), 0)
            self.take(")")
        self.open -= 1
        return value, depth


class DescentOracle:
    SYMBOLS = frozenset(("<->", "~", "&", "|", "(", ")", ""))
    KIND = {")": "rpar", "": "eof"}

    def __init__(self, scanned, atom, neg, conj, disj, iff):
        self.scanned = scanned
        self.tokens = scanned.tokens
        self.i = 0
        self.open = 0
        self.atom, self.neg, self.conj, self.disj, self.iff = atom, neg, conj, disj, iff

    def run(self):
        value = self.formula()[0]
        self.take("")
        return value

    def fail(self, message: str, k: int):
        raise ParseError(message, self.scanned.position(k))

    def too_deep(self, k: int):
        self.fail(f"nested deeper than {MAX_DEPTH} levels", k)

    def take(self, token: str) -> None:
        found = self.tokens[self.i]
        if found != token:
            self.fail(f"expected {self.KIND[token]}, found {found or 'end of input'!r}", self.i)
        self.i += 1

    def formula(self):
        value, depth = self.disjunction()
        while self.tokens[self.i] == "<->":
            k = self.i
            self.i += 1
            rhs, rdepth = self.disjunction()
            value = self.iff(value, rhs)
            depth = max(depth, rdepth) + 3
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def disjunction(self):
        value, depth = self.conjunction()
        while self.tokens[self.i] == "|":
            k = self.i
            self.i += 1
            rhs, rdepth = self.conjunction()
            value = self.disj(value, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def conjunction(self):
        value, depth = self.unary()
        while self.tokens[self.i] == "&":
            k = self.i
            self.i += 1
            rhs, rdepth = self.unary()
            value = self.conj(value, rhs)
            depth = max(depth, rdepth) + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        return value, depth

    def unary(self):
        k = self.i
        token = self.tokens[k]
        if token not in self.SYMBOLS:
            self.i = k + 1
            return self.atom(token), 0
        if token != "~" and token != "(":
            self.fail(f"expected a formula, found {token or 'end of input'!r}", k)
        self.i = k + 1
        self.open += 1
        if self.open > MAX_DEPTH:
            self.too_deep(k)
        if token == "~":
            child, depth = self.unary()
            value, depth = self.neg(child), depth + 1
            if depth > MAX_DEPTH:
                self.too_deep(k)
        else:
            value, depth = self.formula()
            self.take(")")
        self.open -= 1
        return value, depth


def _iff_oracle(a, b):
    return And(Or(Not(a), b), Or(Not(b), a))


def parse_oracle(text: str):
    """The AST of ``text`` by the one-method-per-rule grammar."""
    return DescentOracle(Scanned(text), Atom, Not, And, Or, _iff_oracle).run()


def parse_climbing_oracle(text: str):
    """The AST of ``text`` by the precedence-climbing loop."""
    return ClimbingOracle(Scanned(text), Atom, Not, And, Or, _iff_oracle).run()


def subtree_number(f, table: dict) -> int:
    """``f`` as a number: equal subtrees get equal numbers within one
    ``table``. A fold that visits each shared subtree once, since ``==``
    on a parsed ``<->`` chain walks it as a tree."""

    def number(*key):
        return table.setdefault(key, len(table))

    return fold(
        f,
        lambda name: number("atom", name),
        lambda x: number("~", x),
        lambda x, y: number("&", x, y),
        lambda x, y: number("|", x, y),
    )
