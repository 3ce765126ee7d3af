"""Seeded input generators for the three workloads.

``make_op(workload, seed, i)`` returns the i-th operation of a run: the
CLI arguments, the input files, the expected outcome (computed by
``oracle``) and the input properties the traffic report aggregates.
Every op draws its inputs fresh from ``random.Random("<workload>/<seed>/<i>")``,
so the same seed always gives byte-identical inputs.

The op kind and size class come from a fixed schedule that each cycle
of ops visits in a seeded order. A run therefore always holds the same
mix, whatever its length, and run-to-run spread reflects the program
rather than how many large inputs a seed happened to draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce

from oracle import (
    TAUT,
    Cls,
    at_path,
    Deduction,
    Node,
    canon,
    combine,
    format_path,
    from_text,
    occurrences,
    occurrences_line,
    render,
    rewrite,
    witness,
)


@dataclass
class Op:
    """One CLI call. ``argv`` names input files as ``@<name>``."""

    kind: str
    argv: list[str]
    files: dict[str, str]
    expect: dict
    props: dict = field(default_factory=dict)


# --- formulas ---------------------------------------------------------------


def formula(rng: random.Random, leaves: list[str]):
    """A random formula whose leaves are ``leaves`` in order."""
    if len(leaves) == 1:
        f = ("atom", leaves[0])
        return ("not", f) if rng.random() < 0.4 else f
    k = rng.randint(1, len(leaves) - 1)
    op = "iff" if len(leaves) <= 3 and rng.random() < 0.2 else rng.choice(("and", "or"))
    f = (op, formula(rng, leaves[:k]), formula(rng, leaves[k:]))
    return ("not", f) if rng.random() < 0.1 else f


def small_formula(rng: random.Random, atoms: list[str], lo: int, hi: int):
    picked = rng.sample(atoms, rng.randint(lo, hi))
    leaves = picked + rng.choices(picked, k=rng.randint(0, 1))
    rng.shuffle(leaves)
    return formula(rng, leaves)


def fold(op: str, parts: list):
    return reduce(lambda a, b: (op, a, b), parts)


def lines_text(formulas: list, comment: str) -> str:
    return f"# {comment}\n" + "".join(render(f) + "\n" for f in formulas)


def cycle_slot(workload: str, seed: int, i: int, slots: list) -> tuple[int, object]:
    """The schedule slot of op ``i`` and its cycle number."""
    cycle, pos = divmod(i, len(slots))
    order = list(slots)
    random.Random(f"{workload}/{seed}/cycle{cycle}").shuffle(order)
    return cycle, order[pos]


# --- deduce -----------------------------------------------------------------

DEDUCE_ATOMS = list("abcdefgh")
DEDUCE_KINDS = ("check", "check-nonmember", "interpret", "prove")
# Longer deductions cost about twice as much per step, so they are drawn
# less often: each step count then carries a similar share of op time.
DEDUCE_STEPS = {8: 6, 9: 4, 10: 3, 11: 2, 12: 1, 13: 1}
DEDUCE_SLOTS = [(k, n) for k in DEDUCE_KINDS for n, m in DEDUCE_STEPS.items() for _ in range(m)]


def _base(rng: random.Random, atoms: list[str], count: int, lo: int, hi: int, default: int):
    while True:
        fs = [small_formula(rng, atoms, lo, hi) for _ in range(count)]
        classes = [canon(f) for f in fs]
        wit = witness(classes, default)
        if wit is not None:
            return fs, classes, wit


def _member_formula(rng, atoms, wit, lo, hi, member=True):
    f = small_formula(rng, atoms, lo, hi)
    return f if wit.member(canon(f)) == member else ("not", f)


def _deduce_steps(rng: random.Random, count: int, wit) -> list:
    """A valid deduction: member steps over three atoms each, and at every
    third position and the last a step derived by and/or from two earlier
    member steps, every other one weakened by a disjunct. The member
    steps take their atoms in turn from a shuffled cycle of all atoms, so
    every deduction spans the whole alphabet. The last step is derived,
    so the reading visits every step."""
    cycle = rng.sample(DEDUCE_ATOMS, len(DEDUCE_ATOMS))
    steps, premises = [], []
    for pos in range(count):
        if pos % 3 == 2 or (pos == count - 1 and len(premises) >= 2):
            f = fold(rng.choice(("and", "or")), [steps[j] for j in rng.sample(premises, 2)])
            if pos % 6 == 5:
                f = ("or", f, small_formula(rng, DEDUCE_ATOMS, 1, 1))
            steps.append(f)
        else:
            picked = [cycle[(3 * len(premises) + t) % len(cycle)] for t in range(3)]
            premises.append(pos)
            steps.append(_member_formula(rng, picked, wit, 3, 3))
    return steps


def deduce_op(seed: int, i: int) -> Op:
    cycle, (kind, count) = cycle_slot("deduce", seed, i, DEDUCE_SLOTS)
    rng = random.Random(f"deduce/{seed}/{i}")
    default = 1 if rng.random() < 0.25 else 0
    base_fs, base, wit = _base(rng, DEDUCE_ATOMS, rng.randint(2, 4), 2, 3, default)
    nonmember = None
    if kind == "check-nonmember":
        steps = _deduce_steps(rng, count - 1, wit)
        nonmember = count - (cycle + count) % 3
        bad = _member_formula(rng, DEDUCE_ATOMS, wit, 2, 4, member=False)
        steps.insert(nonmember - 1, bad)
    else:
        steps = _deduce_steps(rng, count, wit)
    d = Deduction(steps, base, wit)

    files = {"s.txt": lines_text(base_fs, "base set")}
    body = lines_text(steps, "deduction")
    argv = [kind.split("-")[0], "@d.txt"]
    if rng.random() < 0.5:
        body = "premises: s.txt\n" + body
    else:
        argv += ["--sigma", "@s.txt"]
    if default:
        argv += ["--default-bit", "1"]
    files["d.txt"] = body

    expect = {"rc": 0, "stderr_lines": [wit.line()]}
    if kind.startswith("check"):
        expect["stdout"] = d.check_stdout()
    else:
        phi = d.reading()
        if kind == "interpret":
            expect["stdout"] = d.interpret_stdout(phi)
        elif rng.random() < 0.3:
            argv += ["--output", "@out.proof"]
            expect["stdout"], expect["file"] = "", d.proof_text(phi)
        else:
            expect["stdout"] = d.proof_text(phi)
    props = {
        "steps": count,
        "nonmember_pos": nonmember,
        "classes": {c.text() for c in d.classes} | {c.text() for c in base},
    }
    return Op(kind, argv, files, expect, props)


# --- wide -------------------------------------------------------------------

WIDE_ATOMS = [f"x{j:02d}" for j in range(16)]
# Each extra atom doubles the cost of both ops; the wider inputs are drawn
# less often so that no single size dominates a run. The median op falls
# among the 11-atom parses and 13-atom checks, and the 90th percentile
# among the 13-atom parses and 15-atom checks, clusters of similar cost.
WIDE_PARSE_ATOMS = {10: 3, 11: 3, 12: 1, 13: 1}
WIDE_BASE_ATOMS = {12: 3, 13: 3, 14: 2, 15: 1, 16: 1}
WIDE_SLOTS = [("parse", n) for n, m in WIDE_PARSE_ATOMS.items() for _ in range(m)] + [
    ("check", n) for n, m in WIDE_BASE_ATOMS.items() for _ in range(m)
]


def _essential_formula(rng: random.Random, atoms: list[str], extra: int):
    """A formula over exactly ``atoms``, every one of them essential."""
    while True:
        leaves = atoms + rng.choices(atoms, k=extra)
        rng.shuffle(leaves)
        f = formula(rng, leaves)
        if canon(f).support == tuple(sorted(atoms)):
            return f


def _wide_base(rng: random.Random, n: int):
    """Groups of 2-4 atoms, each with its own constraint, plus an
    occasional clause bridging two groups. The first group forces the
    first atom to 1, so the witness lies in the upper half of the
    counting order."""
    atoms = WIDE_ATOMS[:n]
    groups, j = [], 0
    while j < n:
        size = min(rng.randint(2, 4), n - j)
        if n - j - size == 1:
            size += 1
        groups.append(atoms[j : j + size])
        j += size
    while True:
        first = groups[0]
        fs = [("and", ("atom", first[0]), _essential_formula(rng, first[1:], 0))]
        fs += [_essential_formula(rng, g, rng.randint(0, 1)) for g in groups[1:]]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(atoms[1:], 2)
            fs.append(("or", ("not", ("atom", a)), ("atom", b)))
        classes = [canon(f) for f in fs]
        wit = witness(classes, 0)
        if wit is not None:
            return fs, classes, wit


def wide_op(seed: int, i: int) -> Op:
    _, (kind, n) = cycle_slot("wide", seed, i, WIDE_SLOTS)
    rng = random.Random(f"wide/{seed}/{i}")
    if kind == "parse":
        atoms = sorted(rng.sample(WIDE_ATOMS, n))
        leaves = atoms + rng.choices(atoms, k=rng.randint(n // 2, n))
        rng.shuffle(leaves)
        f = formula(rng, leaves)
        c = canon(f)
        expect = {"rc": 0, "stdout": c.text() + "\n"}
        props = {"atoms": n, "classes": {c.text()}}
        return Op(kind, ["parse", render(f)], {}, expect, props)

    base_fs, base, wit = _wide_base(rng, n)
    steps = [_member_formula(rng, WIDE_ATOMS[:n], wit, 2, 3) for _ in range(rng.randint(1, 2))]
    nonmember = None
    if len(steps) == 2 and rng.random() < 0.25:
        steps[1] = _member_formula(rng, WIDE_ATOMS[:n], wit, 2, 3, member=False)
        nonmember = 2
    d = Deduction(steps, base, wit)
    files = {"s.txt": lines_text(base_fs, "base set"), "d.txt": lines_text(steps, "deduction")}
    expect = {"rc": 0, "stdout": d.check_stdout(), "stderr_lines": [wit.line()]}
    props = {
        "base_atoms": n,
        "steps": len(steps),
        "nonmember_pos": nonmember,
        "classes": {c.text() for c in d.classes} | {c.text() for c in base},
    }
    return Op(kind, ["check", "@d.txt", "--sigma", "@s.txt"], files, expect, props)


# --- algebra ----------------------------------------------------------------

ALGEBRA_ATOMS = ["p", "q", "r", "s", "t"]
# The law audits are a small share (4 of 90 ops): their cost swings
# between runs more than that of the other ops, so latency_p90_ms is kept
# among the proof ops and the audits show in throughput_ops_s. rules
# belongs to the deduction layer.
ALGEBRA_SLOTS = (
    [("add", e) for e in [False] * 16 + [True] * 2]
    + [("smul", e) for e in [False] * 12 + [True] * 2]
    + [("eq", False)] * 14
    + [("extract", e) for e in [False] * 11 + [True] * 2]
    + [("eliminate", e) for e in [False] * 11 + [True] * 2]
    + [("replace", e) for e in [False] * 12 + [True] * 2]
    + [("axioms", False)] * 3
    + [("rules", False)]
)
AUDIT_SAMPLES = 20


class _Pool:
    """Member classes an op's proofs are drawn from, with formulas
    naming them."""

    def __init__(self, rng: random.Random, wit, size: int):
        self.formulas: dict[str, tuple] = {}
        while len(self.formulas) < size:
            f = small_formula(rng, ALGEBRA_ATOMS, 1, 3)
            c = canon(f)
            if not wit.member(c):
                f = ("not", f)
                c = canon(f)
            if c.text() != TAUT:
                self.formulas.setdefault(c.text(), f)
        self.texts = sorted(self.formulas)

    def outside(self, rng: random.Random, wit, member: bool, avoid: set[str]):
        """A formula whose class has the given membership and is not in ``avoid``."""
        while True:
            f = small_formula(rng, ALGEBRA_ATOMS, 1, 3)
            c = canon(f)
            if wit.member(c) != member:
                f = ("not", f)
                c = canon(f)
            if c.text() not in avoid and c.text() != TAUT:
                return f, c


def _tree(rng: random.Random, pool: _Pool, size: int) -> Node:
    cls = rng.choice(pool.texts)
    if size <= 1:
        return Node(cls)
    k = rng.randint(1, min(4, size - 1))
    cuts = sorted(rng.sample(range(1, size - 1), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [size - 1])]
    return Node(cls, [_tree(rng, pool, p) for p in parts])


def _proof_file(rng: random.Random, r: Node, scrambled: bool = False) -> str:
    """Proof-file text; scrambled text lists children out of order and
    repeats some, which the reader must treat as the same set."""

    def text(node: Node) -> str:
        if node.kids is None:
            return node.ser
        kids = [text(k) for k in node.kids]
        rng.shuffle(kids)
        if rng.random() < 0.2:
            kids.append(kids[0])
        return "{%s,{%s}}" % (node.cls, ",".join(kids))

    body = text(r) if scrambled else r.ser
    if rng.random() < 0.2:
        body = "\n".join(body[j : j + 60] for j in range(0, len(body), 60))
    return f"format: 1\n{body}\n"


def _classes(r: Node) -> set[str]:
    return {n.cls for n in r.walk()}


def _pick_occurrence(rng: random.Random, r: Node, cls: str, single: bool):
    occ = occurrences(r, cls)
    path = rng.choice(occ) if single else None
    return path, ([] if path is None else ["--single-path", format_path(path)])


def algebra_op(seed: int, i: int) -> Op:
    _, (kind, error) = cycle_slot("algebra", seed, i, ALGEBRA_SLOTS)
    rng = random.Random(f"algebra/{seed}/{i}")
    base_fs, base, wit = _base(rng, ALGEBRA_ATOMS, rng.randint(1, 3), 1, 3, 0)
    pool = _Pool(rng, wit, rng.randint(6, 10))
    files = {"s.txt": lines_text(base_fs, "base set")}
    sigma = ["--sigma", "@s.txt"]
    expect: dict = {"rc": 1, "error": "NotFound"} if error else {"rc": 0}
    props: dict = {"error": error}

    def size() -> int:
        return rng.randint(10, 100)

    def emit(argv: list[str], r: Node) -> list[str]:
        if rng.random() < 0.25:
            expect["stdout"], expect["file"] = "", r.file_text()
            return argv + ["--output", "@out.proof"]
        expect["stdout"] = r.file_text()
        return argv

    if kind == "axioms":
        seed_arg = rng.randint(0, 999)
        members = sum(wit.member(Cls(("p", "q"), t)) for t in range(16))
        argv = ["axioms", *sigma, "--atoms", "2", "--samples", str(AUDIT_SAMPLES), "--seed", str(seed_arg)]
        expect["laws"] = [
            f"ring laws over {members} member classes on atoms p,q",
            f"module laws: pool={members + AUDIT_SAMPLES} samples={AUDIT_SAMPLES} seed={seed_arg}",
        ]
        expect["stderr_lines"] = [wit.line()]
        return Op(kind, argv, files, expect, props)
    if kind == "rules":
        expect["rules"] = 10
        return Op(kind, ["rules", "--atoms", "2"], {}, expect, props)

    a = _tree(rng, pool, size())
    files["a.proof"] = _proof_file(rng, a)
    props["nodes"] = a.count()
    props["classes"] = _classes(a)

    if kind == "add":
        b = _tree(rng, pool, size()) if rng.random() < 0.7 else Node(rng.choice(pool.texts), a.kids)
        if error:
            _, bad = pool.outside(rng, wit, member=False, avoid=set())
            a = Node(bad.text(), a.kids)
            files["a.proof"] = _proof_file(rng, a)
            expect["error"] = "NotMember"
        else:
            expect["proof_root"] = combine("iff", from_text(a.cls), from_text(b.cls)).text()
            expect["children_within"] = [k.ser for r in (a, b) for k in r.kids or ()]
        files["b.proof"] = _proof_file(rng, b)
        props["nodes"] += b.count()
        expect["stderr_lines"] = [wit.line()]
        return Op(kind, ["add", "@a.proof", "@b.proof", *sigma], files, expect, props)

    if kind == "smul":
        if error:
            f, _ = pool.outside(rng, wit, member=False, avoid=set())
            expect["error"] = "NotMember"
            argv = ["smul", render(f), "@a.proof", *sigma]
        elif rng.random() < 0.2:
            argv = emit(["smul", "e", "@a.proof", *sigma], a)
        else:
            if rng.random() < 0.5:
                f = pool.formulas[rng.choice(pool.texts)]
            else:
                f, _ = pool.outside(rng, wit, member=True, avoid=set())
            c = combine("or", canon(f), from_text(a.cls))
            r = Node(TAUT) if c.text() == TAUT else Node(c.text(), a.kids)
            argv = emit(["smul", render(f), "@a.proof", *sigma], r)
        expect["stderr_lines"] = [wit.line()]
        return Op(kind, argv, files, expect, props)

    if kind == "eq":
        if rng.random() < 0.5:
            b = a
        else:
            nodes = list(a.walk())
            victim = rng.choice(nodes)
            b = rewrite(a, victim.cls, None, None) if victim.kids else Node(rng.choice(pool.texts), a.kids)
        files["b.proof"] = _proof_file(rng, b, scrambled=True)
        props["nodes"] += b.count()
        if a.ser == b.ser:
            expect["stdout"] = f"equal {a.digest()}\n"
        else:
            expect["stdout"] = f"different {a.digest()} {b.digest()}\n"
        return Op(kind, ["eq", "@a.proof", "@b.proof"], files, expect, props)

    target_classes = _classes(a)
    if error:
        f, c = pool.outside(rng, wit, member=True, avoid=target_classes)
        cls = c.text()
    else:
        cls = rng.choice(sorted(target_classes))
        f = pool.formulas[cls]
    argv = [kind, "--target", "@a.proof", "--sigma-class", render(f)]
    expect["stderr_lines"] = [occurrences_line(a, cls)]

    if kind == "extract":
        if not error:
            path, extra = _pick_occurrence(rng, a, cls, rng.random() < 0.3)
            argv = emit(argv + extra, at_path(a, path if path is not None else occurrences(a, cls)[0]))
        return Op(kind, argv, files, expect, props)

    if kind == "eliminate":
        if not error:
            path, extra = _pick_occurrence(rng, a, cls, rng.random() < 0.25)
            argv = emit(argv + extra, rewrite(a, cls, None, path))
        return Op(kind, argv, files, expect, props)

    # replace: the donor's first occurrence of the class must carry children
    donor = None
    for _ in range(20):
        cand = _tree(rng, pool, size())
        occ = occurrences(cand, cls)
        if error or (occ and at_path(cand, occ[0]).kids):
            donor = cand
            break
    if donor is None:
        donor = Node(rng.choice(pool.texts), [Node(cls, [Node(rng.choice(pool.texts))])])
    files["b.proof"] = _proof_file(rng, donor)
    props["nodes"] += donor.count()
    argv += ["--donor", "@b.proof", *sigma]
    if not error:
        path, extra = _pick_occurrence(rng, a, cls, rng.random() < 0.2)
        first = at_path(donor, occurrences(donor, cls)[0])
        argv = emit(argv + extra, rewrite(a, cls, first.kids, path))
        expect["stderr_lines"].append(wit.line())
    return Op(kind, argv, files, expect, props)


WORKLOADS = {"deduce": deduce_op, "wide": wide_op, "algebra": algebra_op}
SCHEDULES = {"deduce": DEDUCE_SLOTS, "wide": WIDE_SLOTS, "algebra": ALGEBRA_SLOTS}


def make_op(workload: str, seed: int, i: int) -> Op:
    return WORKLOADS[workload](seed, i)
