"""Canonical Boolean-function classes: the quotient of formulas by
logical equivalence, represented by essential support plus truth table.

A :class:`PropClass` stores the sorted tuple of atoms the function
actually depends on and its truth table over those atoms. Assignments
are enumerated by binary counting with the first support atom most
significant, which fixes a bit-exact canonical form: two formulas are
logically equivalent exactly when they canonicalize to the same value.

The table is one ``int`` whose bit m is the value at the m-th
assignment, so every table operation works on whole rows at once
(Knuth, TAOCP 4A, 7.1.1-7.1.2). Over n atoms, *variable* i is the
atom at support position n-1-i: row m sets variable i when bit i of m
is 1.

Tables are bounded by an atom cap (``DEFAULT_ATOM_CAP`` unless the
caller passes another); operations that would exceed it raise
:class:`ResourceLimit`. ``MAX_ATOM_CAP`` is the largest cap a caller
should ask for: a 24-atom table takes 2 MB.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from operator import and_, or_, xor
from typing import Iterable, Sequence

from ._record import _frozen_delattr, _frozen_setattr
from .errors import ParseError, ResourceLimit
from .formula import ATOM_RE, Valuation, build, tokenize

DEFAULT_ATOM_CAP = 16
MAX_ATOM_CAP = 24


class PropClass:
    """An equivalence class of formulas as an essential-support table.

    ``PropClass(support, table)`` validates a table given as a tuple of
    bits; ``bits`` holds the same table packed into one int.
    """

    support: tuple[str, ...]
    bits: int

    # every cache and intern key hashes classes, so the hash is stored;
    # its value is the hash of the field tuple, as a record's is
    __slots__ = ("support", "bits", "_hash")
    # frozen as a record is; the class defines a record's other methods
    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def __init__(self, support: tuple[str, ...], table: tuple[int, ...]):
        _check_shape(support, len(table))
        if any(b not in (0, 1) for b in table):
            raise ValueError("table entries must be bits")
        bits = sum(1 << m for m, b in enumerate(table) if b)
        _check_essential(support, bits)
        _fill(self, tuple(support), bits)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not PropClass:
            return NotImplemented
        return (
            self._hash == other._hash and self.bits == other.bits and self.support == other.support
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the hash of a str differs between processes: recompute it
        return _make, (self.support, self.bits)

    @property
    def table(self) -> tuple[int, ...]:
        """The truth table as a tuple of bits in counting order."""
        return tuple(self.bits >> m & 1 for m in range(1 << len(self.support)))

    def text(self) -> str:
        """Canonical text form ``[a,b;0101]``; tautology is ``[;1]``."""
        rows = 1 << len(self.support)
        return "[%s;%s]" % (",".join(self.support), format(self.bits, f"0{rows}b")[::-1])

    def text_length(self) -> int:
        """``len(self.text())``, without building the table digits."""
        return len(",".join(self.support)) + (1 << len(self.support)) + 3

    def __str__(self) -> str:
        return self.text()

    def __repr__(self) -> str:
        return f"PropClass(support={self.support!r}, table={self.table!r})"


def _check_shape(support: Sequence[str], rows: int) -> None:
    if list(support) != sorted(set(support)):
        raise ValueError("support must be sorted and duplicate-free")
    for name in support:
        if ATOM_RE.fullmatch(name) is None:
            raise ValueError(f"invalid atom name {name!r}")
    if rows != 1 << len(support):
        raise ValueError("table length must be 2**len(support)")


def _check_essential(support: Sequence[str], bits: int) -> None:
    n = len(support)
    cols = _columns(n)
    for j in range(n):
        if not _essential(bits, cols, n - 1 - j):
            raise ValueError(f"support atom {support[j]!r} is not essential")


def _make(support: tuple[str, ...], bits: int) -> PropClass:
    """A class from a table already known to be canonical."""
    c = object.__new__(PropClass)
    _fill(c, support, bits)
    return c


# assignment through a class raises, so its slots are written through
# their descriptors
_set_support = PropClass.support.__set__
_set_bits = PropClass.bits.__set__
_set_hash = PropClass._hash.__set__


def _fill(c: PropClass, support: tuple[str, ...], bits: int) -> None:
    _set_support(c, support)
    _set_bits(c, bits)
    _set_hash(c, hash((support, bits)))


def _columns(n: int) -> tuple[int, ...]:
    """``cols[i]``: the rows over n variables where variable i is 1.

    Memoized up to the default cap (240 KB in all); above it they are
    rebuilt per operation, so the 48 MB of a 24-atom set is not kept."""
    if n <= DEFAULT_ATOM_CAP:
        return _small_columns(n)
    return _double(_columns(n - 1))


@lru_cache(maxsize=DEFAULT_ATOM_CAP + 1)
def _small_columns(n: int) -> tuple[int, ...]:
    return _double(_small_columns(n - 1)) if n else ()


def _double(cols: tuple[int, ...]) -> tuple[int, ...]:
    """The columns over one more variable, the new one most significant."""
    half = 1 << len(cols)
    return tuple(c | c << half for c in cols) + (((1 << half) - 1) << half,)


def _essential(t: int, cols: tuple[int, ...], i: int) -> bool:
    """Whether the table ``t`` over the columns ``cols`` depends on variable i."""
    return t & cols[i] != (t << (1 << i)) & cols[i]


def _swap(t: int, cols: tuple[int, ...], i: int) -> int:
    """Exchange variables i and i+1: one delta swap."""
    up = cols[i] & ~cols[i + 1]  # rows with variable i set, i+1 clear
    s = 1 << i
    down = up << s
    return t & ~(up | down) | (t & up) << s | (t & down) >> s


TAUTOLOGY = PropClass((), (1,))
CONTRADICTION = PropClass((), (0,))


def _expand(c: PropClass, atoms: Sequence[str]) -> int:
    """The table of ``c`` over ``atoms``, a sorted superset of its support."""
    k, n = len(c.support), len(atoms)
    t = c.bits
    if k == n:
        return t
    for v in range(k, n):  # repeat the table once per new variable
        t |= t << (1 << v)
    cols = _columns(n)
    target = {a: n - 1 - j for j, a in enumerate(atoms)}
    # highest variable first, so every slot it passes holds a new one
    for j, a in enumerate(c.support):
        for v in range(k - 1 - j, target[a]):
            t = _swap(t, cols, v)
    return t


def _pruned(atoms: Sequence[str], t: int) -> PropClass:
    """Project out the atoms the table does not depend on, in one pass
    from the lowest variable up, as :func:`_quantified` does."""
    n = len(atoms)
    kept, gap = [], 0
    for i, col in enumerate(_columns(n)):  # variable i is atom n-1-i
        x = t & col
        if x == (t << (1 << i)) & col:  # inessential: drop its rows
            t ^= x
            gap += 1
        else:
            if gap:  # move its rows down past the dropped variables
                t = t ^ x | x >> ((1 << i) - (1 << (i - gap)))
            kept.append(atoms[n - 1 - i])
    return _make(tuple(reversed(kept)), t)


def canonicalize_text(text: str, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    """The class of ``text``, as ``spec.canonicalize(spec.parse(text),
    atom_cap)`` gives it, built straight from the text: the grammar
    evaluates each connective on the atoms' columns, with no tree in
    between.

    Malformed input raises :class:`ParseError` before an atom count over
    the cap raises :class:`ResourceLimit`: input over the cap still runs
    through the grammar, with every table 0.
    """
    tokens, names = tokenize(text)
    n = len(names)
    if n > atom_cap:
        build(text, tokens, dict.fromkeys(names, 0).__getitem__, (0).__xor__, and_, or_, xor)
        raise ResourceLimit(f"{n} atoms exceed the support cap of {atom_cap}")
    atoms = sorted(names)
    full = (1 << (1 << n)) - 1
    column = dict(zip(atoms, reversed(_columns(n))))
    t = build(text, tokens, column.__getitem__, full.__xor__, and_, or_, lambda a, b: full ^ a ^ b)
    return _pruned(atoms, t)


def evaluate_class(c: PropClass, v: Valuation) -> int:
    """Table lookup of ``c`` at the assignment ``v`` restricted to its support."""
    idx = 0
    for name in c.support:
        idx = idx << 1 | v.bit(name)
    return c.bits >> idx & 1


@lru_cache(maxsize=1 << 16)
def _combine2(op: str, a: PropClass, b: PropClass, atom_cap: int) -> PropClass:
    atoms = sorted(set(a.support) | set(b.support))
    if len(atoms) > atom_cap:
        raise ResourceLimit(
            f"combined support of {len(atoms)} atoms exceeds the cap of {atom_cap}"
        )
    x, y = _expand(a, atoms), _expand(b, atoms)
    if op == "and":
        t = x & y
    elif op == "or":
        t = x | y
    else:
        t = ((1 << (1 << len(atoms))) - 1) ^ x ^ y
    return _pruned(atoms, t)


def class_and(a: PropClass, b: PropClass, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    return _combine2("and", a, b, atom_cap)


def class_or(a: PropClass, b: PropClass, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    return _combine2("or", a, b, atom_cap)


def class_not(a: PropClass) -> PropClass:
    # complementation preserves essential support, so no re-pruning
    return _make(a.support, ((1 << (1 << len(a.support))) - 1) ^ a.bits)


def class_iff(a: PropClass, b: PropClass, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    """The biconditional class ``(~a | b) & (~b | a)``."""
    return _combine2("iff", a, b, atom_cap)


def big_and(classes: Iterable[PropClass], atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    parts = list(classes)
    if not parts:
        raise ValueError("big_and needs a nonempty list")
    return reduce(partial(class_and, atom_cap=atom_cap), parts)


def _quantified(c: PropClass, keep: set[str], exists: bool) -> int:
    """The table of ``c`` over its atoms in ``keep``, with every other
    atom quantified out existentially or universally.

    One pass from the lowest variable up: a variable quantified out
    merges its rows where it is 1 into those where it is 0, and every
    later variable moves its rows down past the gaps this leaves."""
    t, n, gap = c.bits, len(c.support), 0
    for i, col in enumerate(_columns(n)):  # variable i is atom n-1-i
        x = t & col
        if c.support[n - 1 - i] not in keep:
            t = t ^ x | x >> (1 << i) if exists else (t ^ x) & x >> (1 << i)
            gap += 1
        elif gap:
            t = t ^ x | x >> ((1 << i) - (1 << (i - gap)))
    return t


@lru_cache(maxsize=1 << 16)
def entails(a: PropClass, b: PropClass) -> bool:
    """The Boolean order: every assignment satisfying ``a`` satisfies ``b``.

    One-step derivability by the restricted calculus (drop a conjunct /
    add a disjunct) coincides with this order at class level.

    Compared over the shared atoms: ``a`` entails ``b`` exactly when
    ``a`` with its own atoms quantified existentially entails ``b`` with
    its own atoms quantified universally, so no table grows beyond its
    operands and no cap applies. Over no shared atom that leaves the
    constants: every other class is satisfiable and not valid.
    """
    shared = set(a.support) & set(b.support)
    if not shared:
        return a == CONTRADICTION or b == TAUTOLOGY
    return _quantified(a, shared, True) & ~_quantified(b, shared, False) == 0


def is_tautology(c: PropClass) -> bool:
    return c == TAUTOLOGY


def all_classes(atoms: Sequence[str]) -> list[PropClass]:
    """Every Boolean-function class over ``atoms`` (2^(2^k) of them)."""
    names = sorted(set(atoms))
    rows = 1 << len(names)
    # t lists the table first row most significant, as the text form does
    return [
        _pruned(names, int(format(t, f"0{rows}b")[::-1], 2)) for t in range(1 << rows)
    ]


@lru_cache(maxsize=1 << 16)
def class_from_text(text: str) -> PropClass:
    """Inverse of :meth:`PropClass.text`; validates every invariant, in
    the order and with the messages of the ``PropClass`` constructor.

    Memoized: the class texts of a proof file repeat, and only a text
    that decodes is kept."""
    if not (text.startswith("[") and text.endswith("]")) or ";" not in text:
        raise ParseError(f"malformed class text {text!r}")
    head, _, bits = text[1:-1].partition(";")
    support = tuple(head.split(",")) if head else ()
    if bits.strip("01") or not bits:
        raise ParseError(f"malformed class table in {text!r}")
    try:
        _check_shape(support, len(bits))
        t = int(bits[::-1], 2)  # the text lists row 0 first
        _check_essential(support, t)
    except ValueError as exc:
        raise ParseError(f"non-canonical class text {text!r}: {exc}") from None
    return _make(support, t)
