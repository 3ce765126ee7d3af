import random

import pytest
from hypothesis import example, given, settings, strategies as st

from prooflab import (
    CONTRADICTION,
    And,
    Atom,
    Not,
    Or,
    TAUTOLOGY,
    ParseError,
    PropClass,
    ResourceLimit,
    all_classes,
    big_and,
    big_or,
    canonicalize,
    class_and,
    class_from_text,
    class_iff,
    class_not,
    class_or,
    entails,
    is_tautology,
    parse,
    render,
    representative,
)

from _oracles import (
    all_assignments,
    class_mask,
    eval_bool,
    mask_depends,
    mask_entails,
    random_formula,
)
from test_formula import formulas


def cls(text):
    return canonicalize(parse(text))


def test_canonicalize_examples():
    assert cls("p | ~p") == PropClass((), (1,))
    assert cls("p & ~p") == CONTRADICTION
    # redundant atom is projected out
    assert cls("p & (q | ~q)") == PropClass(("p",), (0, 1))
    # oracle: exhaustive truth tables agree, so the classes coincide
    f, g = parse("~(p&q)"), parse("~p | ~q")
    assert all(
        eval_bool(f, a) == eval_bool(g, a) for a in all_assignments(["p", "q"])
    )
    assert canonicalize(f) == canonicalize(g)


def test_table_layout_first_atom_most_significant():
    c = cls("p & ~q")
    assert c.support == ("p", "q")
    # rows in counting order: 00, 01, 10, 11
    assert c.table == (0, 0, 1, 0)


def test_propclass_invariants_enforced():
    with pytest.raises(ValueError):
        PropClass(("q", "p"), (0, 0, 0, 1))  # unsorted support
    with pytest.raises(ValueError):
        PropClass(("p",), (0, 1, 1))  # wrong table length
    with pytest.raises(ValueError, match="table entries must be bits"):
        PropClass(("p",), (0, 2))
    with pytest.raises(ValueError):
        PropClass(("p", "q"), (0, 0, 1, 1))  # q inessential


def test_class_text_round_trip():
    for text in ("p", "p & q", "p | ~q & r", "p <-> q", "p | ~p", "p & ~p"):
        c = cls(text)
        assert class_from_text(c.text()) == c
    assert TAUTOLOGY.text() == "[;1]"
    assert CONTRADICTION.text() == "[;0]"
    with pytest.raises(ParseError):
        class_from_text("[p,q;0011]")  # p inessential: not canonical
    with pytest.raises(ParseError):
        class_from_text("[p;2]")


def test_connective_examples():
    a, b, c = cls("p"), cls("q"), cls("r")
    assert is_tautology(class_iff(a, a))
    assert class_iff(a, TAUTOLOGY) == a
    assert class_or(a, class_iff(b, c)) == class_iff(class_or(a, b), class_or(a, c))
    assert class_and(a, b) == cls("p & q")
    assert class_not(class_not(a)) == a


def test_big_and_big_or():
    assert big_and([cls("p"), cls("q"), cls("r")]) == cls("p & q & r")
    assert big_or([cls("p"), cls("q")]) == cls("p | q")
    assert big_and([cls("p")]) == cls("p")
    with pytest.raises(ValueError):
        big_and([])
    with pytest.raises(ValueError):
        big_or([])


def test_entails():
    assert entails(cls("p & q"), cls("p"))
    assert entails(cls("p"), cls("p | q"))
    assert not entails(cls("p"), cls("q"))
    assert entails(CONTRADICTION, cls("p"))
    assert entails(cls("p"), TAUTOLOGY)
    assert entails(cls("p"), cls("p"))


def test_is_tautology():
    assert is_tautology(cls("p | ~p"))
    assert not is_tautology(cls("p"))
    # oracle: the truth table of (p -> q) <-> (~p | q) is constant 1
    f = parse("(~p | q) <-> (~p | q)")
    assert all(eval_bool(f, a) for a in all_assignments(["p", "q"]))
    assert is_tautology(canonicalize(f))


def test_all_classes_two_atoms():
    pool = all_classes(["p", "q"])
    assert len(pool) == 16
    assert len(set(pool)) == 16
    assert TAUTOLOGY in pool and CONTRADICTION in pool


def test_boolean_algebra_laws_over_two_atom_classes():
    pool = all_classes(["p", "q"])
    for a in pool:
        assert class_and(a, a) == a
        assert class_or(a, a) == a
        assert class_or(a, class_not(a)) == TAUTOLOGY
        assert class_and(a, class_not(a)) == CONTRADICTION
        for b in pool:
            assert class_and(a, b) == class_and(b, a)
            assert class_or(a, b) == class_or(b, a)
            # De Morgan
            assert class_not(class_and(a, b)) == class_or(class_not(a), class_not(b))
            assert class_and(a, class_or(a, b)) == a
            for c in pool:
                assert class_and(class_and(a, b), c) == class_and(a, class_and(b, c))
                assert class_or(class_or(a, b), c) == class_or(a, class_or(b, c))
                assert class_and(a, class_or(b, c)) == class_or(
                    class_and(a, b), class_and(a, c)
                )


def test_no_operation_output_carries_inessential_atoms():
    # PropClass.__post_init__ enforces essentiality, so construction is proof
    rng = random.Random(7)
    for _ in range(300):
        a = canonicalize(random_formula(rng, ["p", "q", "r"]))
        b = canonicalize(random_formula(rng, ["q", "r", "s"]))
        for c in (class_and(a, b), class_or(a, b), class_iff(a, b), class_not(a)):
            assert isinstance(c, PropClass)


def test_soundness_completeness_2000_random_pairs():
    # class equality must coincide with agreement under every valuation
    rng = random.Random(42)
    atoms = ["p", "q", "r", "s"]
    for _ in range(2000):
        f = random_formula(rng, atoms)
        g = random_formula(rng, atoms)
        semantically_equal = all(
            eval_bool(f, a) == eval_bool(g, a) for a in all_assignments(atoms)
        )
        assert (canonicalize(f) == canonicalize(g)) == semantically_equal


def test_canonical_representative_idempotence():
    rng = random.Random(3)
    for _ in range(200):
        c = canonicalize(random_formula(rng, ["p", "q", "r"]))
        assert canonicalize(parse(render(representative(c)))) == c
    assert canonicalize(representative(TAUTOLOGY)) == TAUTOLOGY
    assert canonicalize(representative(CONTRADICTION)) == CONTRADICTION


@given(formulas, formulas)
def test_entailment_antisymmetry(f, g):
    a, b = canonicalize(f), canonicalize(g)
    assert (entails(a, b) and entails(b, a)) == (a == b)


def test_atom_cap():
    wide = " & ".join(f"a{i}" for i in range(17))
    with pytest.raises(ResourceLimit):
        canonicalize(parse(wide))
    # combining two classes may also exceed the cap
    left = canonicalize(parse(" & ".join(f"a{i}" for i in range(9))))
    right = canonicalize(parse(" & ".join(f"b{i}" for i in range(9))))
    with pytest.raises(ResourceLimit):
        class_and(left, right)
    assert canonicalize(parse(wide), atom_cap=17).support == tuple(
        sorted(f"a{i}" for i in range(17))
    )


POOL = [f"v{i}" for i in range(8)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
# seeds whose classes share no atom: both constant ([;0] and [;0]),
# disjoint supports of one to four atoms each, and a constant ([;0] or
# [;1]) on either side of a class over one to three atoms
@example(19)
@example(1)
@example(15)
@example(191)
@example(29930)
@example(3)
@example(4)
@example(175)
@example(0)
def test_table_ops_match_mask_oracle(seed):
    # two formulas over random subsets of eight atoms, so their supports
    # interleave in sorted order, each padded with up to three atoms it
    # does not depend on; every result is compared as a truth table over
    # all eight atoms
    rng = random.Random(seed)  # uniform draws, so wide supports are common
    full = (1 << 256) - 1
    fs = []
    for _ in range(2):
        f = random_formula(rng, rng.sample(POOL, rng.randint(1, 6)), 4)
        for x in rng.sample(POOL, rng.randint(0, 3)):
            f = And(f, Or(Atom(x), Not(Atom(x))))
        fs.append(f)
    a, b = (canonicalize(f) for f in fs)
    for f, c in zip(fs, (a, b)):
        direct = sum(
            1 << m for m, row in enumerate(all_assignments(POOL)) if eval_bool(f, row)
        )
        assert class_mask(c, POOL) == direct
    ma, mb = class_mask(a, POOL), class_mask(b, POOL)
    results = {
        class_and(a, b): ma & mb,
        class_or(a, b): ma | mb,
        class_iff(a, b): full ^ ma ^ mb,
        class_not(a): full ^ ma,
    }
    for c, mask in [(a, ma), (b, mb), *results.items()]:
        assert class_mask(c, POOL) == mask
        assert c.support == tuple(x for x in POOL if mask_depends(mask, POOL, x))
        assert PropClass(c.support, c.table) == c
        assert class_from_text(c.text()) == c
        assert c.text_length() == len(c.text())
    assert entails(a, b) == mask_entails(ma, mb, 256)
    assert entails(b, a) == mask_entails(mb, ma, 256)


def test_sixteen_atom_tables():
    # no timing gate: a per-row walk takes about a second here, and a
    # regression to it shows as a slow suite, not as a failure
    atoms = [f"a{i:02d}" for i in range(16)]
    f = parse(" | ".join(f"({x} & ~{y})" for x, y in zip(atoms[::2], atoms[1::2])))
    c = canonicalize(f)
    assert c.support == tuple(atoms)
    table = c.table
    rng = random.Random(16)
    for _ in range(200):
        row = {x: rng.randint(0, 1) for x in atoms}
        assert table[int("".join(str(row[x]) for x in atoms), 2)] == eval_bool(f, row)
    assert class_and(c, class_not(c)) == CONTRADICTION
    assert entails(c, class_or(c, canonicalize(parse("a00"))))
    assert not entails(TAUTOLOGY, c)
    # entails compares over the shared atoms, so a 17-atom union is fine
    assert not entails(c, canonicalize(parse("b")))
    assert entails(CONTRADICTION, c)


# --- class-text decoding against the validating constructor -------------


def decode_by_constructor(text):
    """The reference decode: the table as a tuple of bits through the
    validating ``PropClass`` constructor."""
    if not (text.startswith("[") and text.endswith("]")) or ";" not in text:
        raise ParseError(f"malformed class text {text!r}")
    head, _, bits = text[1:-1].partition(";")
    support = tuple(head.split(",")) if head else ()
    if any(ch not in "01" for ch in bits) or not bits:
        raise ParseError(f"malformed class table in {text!r}")
    try:
        return PropClass(support, tuple(int(ch) for ch in bits))
    except ValueError as exc:
        raise ParseError(f"non-canonical class text {text!r}: {exc}") from None


def decoded(fn, text):
    try:
        c = fn(text)
    except ParseError as exc:
        return "error", str(exc)
    return "ok", c.support, c.bits


CANONICAL_TEXTS = [c.text() for c in all_classes(["a", "p", "q"])]
CLASS_PIECES = ["[", "]", ";", ",", "0", "1", "2", "p", "q", "P", "1p", "", " ", "p,p", "_"]

class_texts = st.one_of(
    st.sampled_from(CANONICAL_TEXTS),
    # any support and any bits: unsorted, repeated, invalid or
    # inessential atoms, tables of the wrong length
    st.builds(
        lambda names, bits: "[%s;%s]" % (",".join(names), bits),
        st.lists(st.sampled_from(["a", "b", "p", "q", "x_1", "P", "1p", ""]), max_size=4),
        st.text("01", max_size=17),
    ),
)


@st.composite
def mutated_class_texts(draw):
    text = draw(class_texts)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:at] + draw(st.sampled_from(CLASS_PIECES)) + text[at + cut:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_class_texts())
def test_class_text_decode_matches_constructor(text):
    assert decoded(class_from_text, text) == decoded(decode_by_constructor, text)


def test_class_text_cache():
    text = "[p,q;0110]"
    first = class_from_text(text)
    hits = class_from_text.cache_info().hits
    again = class_from_text(text)
    assert again == first and again.text() == text
    assert class_from_text.cache_info().hits == hits + 1
    # an error is raised again on every call, never kept
    size = class_from_text.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ParseError, match="non-canonical class text"):
            class_from_text("[p,q;0011]")
    assert class_from_text.cache_info().currsize == size
