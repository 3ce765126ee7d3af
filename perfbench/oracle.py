"""Expected answers for the benchmark's operations, computed independently.

Nothing here imports prooflab. Formulas are the benchmark's own ASTs
(nested tuples), truth tables are Python ints, and proofs are the
benchmark's own trees. A table over an atom list holds the value at the
m-th assignment in bit m, with assignments in binary counting order and
the first atom most significant: the order the CLI documents for class
text and for the witness search.

The module also holds the checker that compares one CLI outcome (exit
code, stdout, stderr, output file) with an expected answer.
"""

from __future__ import annotations

import hashlib
import re
from functools import lru_cache
from typing import NamedTuple

TAUT = "[;1]"

# --- formulas ---------------------------------------------------------------
# ("atom", name) | ("not", f) | (op, f, g) with op in "and", "or", "iff"


def render(f) -> str:
    """Fully parenthesized text in the CLI grammar."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    sym = {"and": "&", "or": "|", "iff": "<->"}[kind]
    return f"({render(f[1])} {sym} {render(f[2])})"


def atoms_in(f) -> set[str]:
    if f[0] == "atom":
        return {f[1]}
    if f[0] == "not":
        return atoms_in(f[1])
    return atoms_in(f[1]) | atoms_in(f[2])


# --- truth tables -----------------------------------------------------------


@lru_cache(maxsize=None)
def columns(n: int) -> tuple[int, ...]:
    """Per-atom column tables over n atoms."""
    rows = 1 << n
    cols = []
    for j in range(n):
        stride = 1 << (n - 1 - j)
        block = ((1 << stride) - 1) << stride
        cols.append(block * ((1 << rows) - 1) // ((1 << 2 * stride) - 1))
    return tuple(cols)


def full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def table_of(f, atoms: list[str]) -> int:
    """Truth table of formula ``f`` over ``atoms`` (which cover its atoms)."""
    cols = dict(zip(atoms, columns(len(atoms))))
    full = full_mask(len(atoms))

    def ev(g):
        kind = g[0]
        if kind == "atom":
            return cols[g[1]]
        if kind == "not":
            return full ^ ev(g[1])
        a, b = ev(g[1]), ev(g[2])
        if kind == "and":
            return a & b
        if kind == "or":
            return a | b
        return full ^ (a ^ b)

    return ev(f)


def entails_t(a: int, b: int, n: int) -> bool:
    return a & (full_mask(n) ^ b) == 0


class Cls(NamedTuple):
    """A class: essential support and its table over that support."""

    support: tuple[str, ...]
    t: int

    def text(self) -> str:
        rows = 1 << len(self.support)
        bits = format(self.t, f"0{rows}b")[::-1]
        return "[%s;%s]" % (",".join(self.support), bits)


def prune(atoms: list[str], t: int) -> Cls:
    """Drop the atoms ``t`` does not depend on."""
    n = len(atoms)
    cols = columns(n)
    full = full_mask(n)
    keep = []
    for j in range(n):
        zero = full ^ cols[j]
        if (t >> (1 << (n - 1 - j))) & zero != t & zero:
            keep.append(j)
    if len(keep) == n:
        return Cls(tuple(atoms), t)
    k = len(keep)
    out = 0
    for m in range(1 << k):
        idx = 0
        for pos, j in enumerate(keep):
            if m >> (k - 1 - pos) & 1:
                idx |= 1 << (n - 1 - j)
        if t >> idx & 1:
            out |= 1 << m
    return Cls(tuple(atoms[j] for j in keep), out)


def canon(f) -> Cls:
    atoms = sorted(atoms_in(f))
    return prune(atoms, table_of(f, atoms))


def lift(c: Cls, atoms: list[str]) -> int:
    """Table of ``c`` over a superset ``atoms`` of its support."""
    n = len(atoms)
    cols = columns(n)
    full = full_mask(n)
    pos = [atoms.index(a) for a in c.support]
    k = len(pos)
    out = 0
    for m in range(1 << k):
        if not c.t >> m & 1:
            continue
        term = full
        for i, j in enumerate(pos):
            term &= cols[j] if m >> (k - 1 - i) & 1 else full ^ cols[j]
        out |= term
    return out


def from_text(text: str) -> Cls:
    head, _, bits = text[1:-1].partition(";")
    support = tuple(head.split(",")) if head else ()
    return Cls(support, int(bits[::-1], 2))


def combine(op: str, a: Cls, b: Cls) -> Cls:
    atoms = sorted(set(a.support) | set(b.support))
    x, y = lift(a, atoms), lift(b, atoms)
    full = full_mask(len(atoms))
    t = {"and": x & y, "or": x | y, "iff": full ^ (x ^ y)}[op]
    return prune(atoms, t)


def value_at(c: Cls, assign: dict[str, int], default: int) -> int:
    idx = 0
    for a in c.support:
        idx = idx << 1 | assign.get(a, default)
    return c.t >> idx & 1


# --- the witness ------------------------------------------------------------


class Witness(NamedTuple):
    assign: dict[str, int]
    default: int

    def line(self) -> str:
        pairs = " ".join(f"{a}={b}" for a, b in sorted(self.assign.items()))
        return "witness: " + f"{pairs} default={self.default}".strip()

    def member(self, c: Cls) -> bool:
        return value_at(c, self.assign, self.default) == 1


def witness(base: list[Cls], default: int) -> Witness | None:
    """The smallest satisfying assignment of the base in counting order."""
    atoms = sorted({a for c in base for a in c.support})
    n = len(atoms)
    conj = full_mask(n)
    for c in base:
        conj &= lift(c, atoms)
    if conj == 0:
        return None
    m = (conj & -conj).bit_length() - 1
    assign = {a: m >> (n - 1 - j) & 1 for j, a in enumerate(atoms)}
    return Witness(assign, default)


# --- deductions -------------------------------------------------------------


class Deduction:
    """Step tables over one atom list, with the witness and base classes."""

    def __init__(self, steps: list, base: list[Cls], wit: Witness):
        atoms = {a for f in steps for a in atoms_in(f)} | {a for c in base for a in c.support}
        self.atoms = sorted(atoms)
        self.n = len(self.atoms)
        self.tables = [table_of(f, self.atoms) for f in steps]
        self.classes = [prune(self.atoms, t) for t in self.tables]
        self.base = base
        self.base_tables = [lift(c, self.atoms) for c in base]
        self.members = [wit.member(c) for c in self.classes]
        self._conj: list[int] = [full_mask(self.n)]
        self._disj: list[int] = [0]

    def _extend(self, priors: int) -> None:
        """Conjunction and disjunction of every subset of the first
        ``priors`` steps, indexed by bitmask (bit j is step j+1)."""
        while len(self._conj) < 1 << priors:
            mask = len(self._conj)
            low = mask & -mask
            step = self.tables[low.bit_length() - 1]
            self._conj.append(self._conj[mask ^ low] & step)
            self._disj.append(self._disj[mask ^ low] | step)

    def first_subset(self, i: int, table: list[int]) -> int | None:
        target = self.tables[i - 1]
        for mask in range(1, 1 << (i - 1)):
            if entails_t(table[mask], target, self.n):
                return mask
        return None

    def omega(self, u: int) -> list[int]:
        """Every prior subset (as a bitmask) reaching step ``u``."""
        self._extend(u - 1)
        target = self.tables[u - 1]
        return [
            mask
            for mask in range(1, 1 << (u - 1))
            if entails_t(self._conj[mask], target, self.n)
            or entails_t(self._disj[mask], target, self.n)
        ]

    def base_tag(self, i: int) -> str:
        c = self.classes[i - 1]
        if c in self.base:
            return "a"
        if any(entails_t(g, self.tables[i - 1], self.n) for g in self.base_tables):
            return "b"
        return "-"

    def check_stdout(self) -> str:
        lines = ["step  clause  H             base"]
        first_invalid = None
        for i in range(1, len(self.tables) + 1):
            if self.members[i - 1]:
                clause, h, tag = "a", "-", self.base_tag(i)
            else:
                self._extend(i - 1)
                clause, h, tag = "INVALID", "-", "-"
                for name, table in (("c", self._conj), ("d", self._disj)):
                    mask = self.first_subset(i, table)
                    if mask is not None:
                        clause, h = name, "{%s}" % ",".join(map(str, indices(mask)))
                        break
                if clause == "INVALID" and first_invalid is None:
                    first_invalid = i
            lines.append(f"{i:<5} {clause:<7} {h:<13} {tag}")
        lines.append("valid" if first_invalid is None else f"invalid at step {first_invalid}")
        return "\n".join(lines) + "\n"

    def reading(self) -> dict[int, list[int] | int]:
        """Depth-first from the last step; each visited step takes the
        justifying set with the greatest product of positional primes."""
        out: dict[int, list[int] | int] = {}
        todo = [len(self.tables)]
        while todo:
            u = todo.pop()
            if u in out:
                continue
            hits = self.omega(u)
            if not hits:
                out[u] = 0
                continue
            best = max(hits, key=prime_product)
            out[u] = indices(best)
            todo.extend(out[u])
        for u in range(1, len(self.tables) + 1):
            out.setdefault(u, 0)
        return out

    def interpret_stdout(self, phi) -> str:
        lines = []
        for i in sorted(phi):
            v = phi[i]
            lines.append(f"{i}: 0" if v == 0 else "%d: {%s}" % (i, ",".join(map(str, v))))
        return "\n".join(lines) + "\n"

    def proof_text(self, phi) -> str:
        memo: dict[int, str] = {}

        def ser(u: int) -> str:
            if u not in memo:
                text = self.classes[u - 1].text()
                if phi[u] == 0 or text == TAUT:
                    memo[u] = "{%s,{0}}" % text
                else:
                    kids = sorted({ser(h) for h in phi[u]})
                    memo[u] = "{%s,{%s}}" % (text, ",".join(kids))
            return memo[u]

        return f"format: 1\n{ser(len(self.tables))}\n"


def indices(mask: int) -> list[int]:
    return [j + 1 for j in range(mask.bit_length()) if mask >> j & 1]


_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


def prime_product(mask: int) -> int:
    out = 1
    for j in indices(mask):
        out *= _PRIMES[j - 1]
    return out


# --- proofs -----------------------------------------------------------------


class Node:
    """A proof tree: a class text and a child set (None for a premise)."""

    __slots__ = ("cls", "kids", "ser")

    def __init__(self, cls: str, kids=None):
        self.cls = cls
        if kids is not None:
            uniq = {k.ser: k for k in kids}
            kids = tuple(uniq[s] for s in sorted(uniq))
        self.kids = kids
        body = "{0}" if kids is None else "{%s}" % ",".join(k.ser for k in kids)
        self.ser = "{%s,%s}" % (cls, body)

    def count(self) -> int:
        return 1 + sum(k.count() for k in self.kids or ())

    def digest(self) -> str:
        return hashlib.sha256(self.ser.encode()).hexdigest()

    def walk(self):
        yield self
        for k in self.kids or ():
            yield from k.walk()

    def file_text(self) -> str:
        return f"format: 1\n{self.ser}\n"


def normalize(r: Node) -> Node:
    if r.cls == TAUT:
        return Node(TAUT)
    if r.kids is None:
        return r
    return Node(r.cls, [normalize(k) for k in r.kids])


def occurrences(r: Node, cls: str) -> list[tuple[str, ...]]:
    """Digest paths to every node concluding ``cls``, shallowest first."""
    hits = []

    def walk(node: Node, path: tuple[str, ...]) -> None:
        if node.cls == cls:
            hits.append(path)
        for k in node.kids or ():
            walk(k, path + (k.digest(),))

    walk(r, ())
    return sorted(hits, key=lambda p: (len(p), p))


def format_path(path: tuple[str, ...]) -> str:
    return "/".join(d[:12] for d in path) if path else "."


def occurrences_line(r: Node, cls: str) -> str:
    occ = occurrences(r, cls)
    return "occurrences: " + (" ".join(format_path(p) for p in occ) or "none")


def at_path(r: Node, path: tuple[str, ...]) -> Node:
    node = r
    for d in path:
        node = next(k for k in node.kids if k.digest().startswith(d))
    return node


def rewrite(r: Node, cls: str, kids, path: tuple[str, ...] | None) -> Node:
    """Give the ``cls`` nodes (or only the one at ``path``) the child set
    ``kids``; ancestors rebuild with set semantics, then normalize."""
    if path is not None:

        def along(node: Node, rest) -> Node:
            if not rest:
                return Node(node.cls, kids)
            return Node(
                node.cls,
                [along(k, rest[1:]) if k.digest().startswith(rest[0]) else k for k in node.kids],
            )

        return normalize(along(r, path))

    def walk(node: Node) -> Node:
        if node.cls == cls:
            return Node(node.cls, kids)
        if node.kids is None:
            return node
        return Node(node.cls, [walk(k) for k in node.kids])

    return normalize(walk(r))


# --- outcome checking -------------------------------------------------------

_LAW_ROW = re.compile(r"^(\S+)\s+(\d+)\s+(\d+)(?:\s+(guaranteed|diagnostic))?$")
_RULE_ROW = re.compile(r"^[a-z-]+: valid \(checked (16|256)\)$")


def check_outcome(expect: dict, rc, out: str, err: str, out_file: str | None) -> list[str]:
    """Every way the outcome differs from ``expect``; empty when correct.

    ``expect`` keys: ``rc``; ``stdout`` (exact); ``stderr_lines`` (each
    must be a line of stderr); ``error`` (the kind on the last stderr
    line); ``file`` (exact text of the --output file); ``proof_root``
    and ``children_within`` (the emitted proof's root class, and a set
    its child serializations must lie in); ``laws`` (an axioms report
    whose guaranteed laws all hold, with the given header lines);
    ``rules`` (a rules report with that many valid rules).
    """
    bad = []
    if rc != expect["rc"]:
        bad.append(f"exit code {rc!r}, expected {expect['rc']}")
    if "stdout" in expect and out != expect["stdout"]:
        bad.append(f"stdout {_clip(out)!r}, expected {_clip(expect['stdout'])!r}")
    err_lines = err.splitlines()
    for line in expect.get("stderr_lines", ()):
        if line not in err_lines:
            bad.append(f"stderr lacks {_clip(line)!r}")
    if "error" in expect:
        want = f"error: {expect['error']}: "
        if not err_lines or not err_lines[-1].startswith(want):
            bad.append(f"stderr does not end with {want!r}")
    if "file" in expect and out_file != expect["file"]:
        bad.append(f"output file {_clip(out_file)!r}, expected {_clip(expect['file'])!r}")
    if "proof_root" in expect:
        bad.extend(_check_proof(out, expect["proof_root"], expect.get("children_within")))
    if "laws" in expect:
        bad.extend(_check_laws(out, expect["laws"]))
    if "rules" in expect:
        rows = out.splitlines()
        if len(rows) != expect["rules"] or not all(_RULE_ROW.match(r) for r in rows):
            bad.append(f"rules report {_clip(out)!r}")
    return bad


def _check_proof(out: str, root: str, within) -> list[str]:
    lines = out.splitlines()
    if len(lines) != 2 or lines[0] != "format: 1":
        return [f"not a proof file: {_clip(out)!r}"]
    body = lines[1]
    if not body.startswith("{" + root + ","):
        return [f"proof root {_clip(body)!r}, expected {root}"]
    just = body[len(root) + 2 : -1]
    if just == "{0}" or within is None:
        return []
    kids = split_children(just[1:-1])
    if not set(kids) <= set(within) or kids != sorted(set(kids)):
        return [f"children {_clip(just)!r} not drawn from the operands"]
    return []


def split_children(text: str) -> list[str]:
    """Top-level comma-separated node texts."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(text[start:i])
            start = i + 1
    out.append(text[start:])
    return out


def _check_laws(out: str, headers: list[str]) -> list[str]:
    lines = out.splitlines()
    bad = [f"axioms report lacks {h!r}" for h in headers if h not in lines]
    rows = 0
    for line in lines:
        m = _LAW_ROW.match(line)
        if not m:
            continue
        rows += 1
        if m.group(4) != "diagnostic" and m.group(3) != "0":
            bad.append(f"guaranteed law failed: {line.strip()}")
    if rows == 0:
        bad.append("axioms report has no law rows")
    return bad


def _clip(text, limit: int = 160):
    if text is None or len(text) <= limit:
        return text
    return text[:limit] + "..."
