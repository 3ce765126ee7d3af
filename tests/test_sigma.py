import random

import pytest
from hypothesis import example, given, settings, strategies as st

from prooflab import (
    CONTRADICTION,
    TAUTOLOGY,
    Inconsistent,
    NotMember,
    SigmaPrime,
    Valuation,
    all_classes,
    canonicalize,
    check_ring_axioms,
    class_and,
    class_iff,
    class_not,
    class_or,
    entails,
    lindenbaum_extend,
    parse,
    ring_add,
    ring_mul,
)
from prooflab.sigma import LawCheck, LawReport

from _oracles import class_value, member_oracle, random_formula, ring_audit_oracle, witness_oracle


def cls(text):
    return canonicalize(parse(text))


def test_default_bit_is_the_witness_default():
    # membership and the witness text read the one default bit
    for bit in (0, 1):
        sp = SigmaPrime(frozenset({cls("p")}), Valuation({"p": 1}, bit))
        assert sp.default_bit == bit
        assert sp.member(cls("q")) == bool(bit)
        assert sp.witness_text() == f"p=1 default={bit}"
        assert lindenbaum_extend({cls("p")}, bit) == sp


def test_extend_smallest_witness():
    sp = lindenbaum_extend({cls("p")}, 0)
    assert dict(sp.witness.assign) == {"p": 1}
    assert sp.member(cls("p | q"))
    # q is outside the base support: the default bit decides
    assert not sp.member(cls("q"))
    sp1 = lindenbaum_extend({cls("p")}, 1)
    assert sp1.member(cls("q"))


def test_extend_lexicographic_tie_break():
    # p | q has three satisfying rows; 01 is the smallest in counting order
    sp = lindenbaum_extend({cls("p | q")}, 0)
    assert dict(sp.witness.assign) == {"p": 0, "q": 1}


def test_extend_inconsistent():
    with pytest.raises(Inconsistent):
        lindenbaum_extend({cls("p"), cls("~p")}, 0)
    with pytest.raises(Inconsistent):
        lindenbaum_extend({cls("p & ~p")}, 0)


def test_extend_empty_base(sp_empty):
    assert sp_empty.member(TAUTOLOGY)
    assert not sp_empty.member(cls("p"))
    assert sp_empty.member(cls("~p"))


def test_member_examples(sp_p):
    assert sp_p.member(cls("p & (q | ~q)"))  # the class equals [p]
    assert not sp_p.member(CONTRADICTION)
    assert sp_p.member(TAUTOLOGY)


def test_extension_property(sp_pq):
    for c in sp_pq.base:
        assert sp_pq.member(c)


def test_maximality_and_deductive_closure(sp_p):
    rng = random.Random(11)
    for _ in range(300):
        a = canonicalize(random_formula(rng, ["p", "q", "r"]))
        assert sp_p.member(a) != sp_p.member(class_not(a))
        assert sp_p.member(a) == member_oracle(sp_p, a)
        b = canonicalize(random_formula(rng, ["p", "q", "r"]))
        if sp_p.member(a) and entails(a, b):
            assert sp_p.member(b)
        if sp_p.member(a) and sp_p.member(b):
            assert sp_p.member(class_iff(a, b))
            assert sp_p.member(class_or(a, b))


def test_determinism():
    base = frozenset({cls("p | q"), cls("~r | q")})
    a = lindenbaum_extend(base, 0)
    b = lindenbaum_extend(base, 0)
    assert a == b


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(0, 1))
def test_extend_matches_witness_scan(seed, groups, default_bit):
    # up to 12 atoms dealt into 1-4 groups whose names interleave in
    # sorted order; each class draws its atoms from one group and holds
    # at a hidden assignment, and a quarter of the bases also hold the
    # negation of one of their classes, which makes them inconsistent
    rng = random.Random(seed)  # uniform draws, so large bases are common
    names = rng.sample([f"a{i:02d}" for i in range(12)], rng.randint(groups, 12))
    hidden = {a: rng.randint(0, 1) for a in names}
    base = set()
    for k in range(groups):
        group = names[k::groups]
        for _ in range(rng.randint(1, 6)):
            atoms = rng.sample(group, rng.randint(1, min(4, len(group))))
            c = canonicalize(random_formula(rng, atoms))
            base.add(c if class_value(c, hidden) else class_not(c))
    if rng.random() < 0.25:
        base.add(class_not(rng.choice(sorted(base, key=lambda c: c.text()))))
    expected = witness_oracle(base, default_bit)
    if expected is None:
        with pytest.raises(Inconsistent):
            lindenbaum_extend(base, default_bit)
    else:
        assert lindenbaum_extend(base, default_bit).witness_text() == expected


def test_extend_thirty_atoms():
    # a scan of all 2^30 rows would take hours; no timing gate
    units = [cls(f"u{i:02d}") for i in range(30)]
    assert dict(lindenbaum_extend(units).witness.assign) == {f"u{i:02d}": 1 for i in range(30)}
    chain = [cls(f"~c{i:02d} | c{i + 1:02d}") for i in range(29)]
    assert dict(lindenbaum_extend(chain, 1).witness.assign) == {f"c{i:02d}": 0 for i in range(30)}
    # forcing the head of the chain forces every later atom
    forced = lindenbaum_extend([*chain, cls("c00")])
    assert dict(forced.witness.assign) == {f"c{i:02d}": 1 for i in range(30)}
    with pytest.raises(Inconsistent):
        lindenbaum_extend([*chain, cls("c00"), cls("~c29")])


def test_ring_add_examples(sp_p):
    a = cls("p")
    assert ring_add(sp_p, a, a) == TAUTOLOGY
    assert ring_add(sp_p, a, TAUTOLOGY) == a
    # [p] l [p|q] computed from the truth-table oracle
    assert ring_add(sp_p, a, cls("p | q")) == cls("p <-> (p | q)")
    with pytest.raises(NotMember):
        ring_add(sp_p, cls("q"), a)


def test_ring_mul_examples(sp_pq):
    a, b = cls("p"), cls("q")
    assert ring_mul(sp_pq, a, a) == a
    assert ring_mul(sp_pq, a, b) == cls("p | q")
    c = cls("p | q")
    assert ring_mul(sp_pq, a, ring_add(sp_pq, b, c)) == ring_add(
        sp_pq, ring_mul(sp_pq, a, b), ring_mul(sp_pq, a, c)
    )
    with pytest.raises(NotMember):
        ring_mul(sp_pq, a, cls("~p"))


def _member_classes(sp, atoms):
    return [c for c in all_classes(atoms) if sp.member(c)]


def test_ring_axioms_all_member_classes(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    assert len(members) == 8  # exactly half of the 16 classes hold at any witness
    report = check_ring_axioms(sp_pq, members)
    assert report.ok
    assert sum(len(law.failures) for law in report.laws) == 0


def test_ring_axioms_singleton_tautology(sp_empty):
    assert check_ring_axioms(sp_empty, [TAUTOLOGY]).ok


def test_ring_axioms_reject_non_member(sp_pq):
    with pytest.raises(NotMember):
        check_ring_axioms(sp_pq, [cls("~p")])


def test_ring_audit_tabulates_the_ring_operations(sp_pq, monkeypatch):
    import prooflab.sigma as sigma

    called = set()
    for name in ("ring_add", "ring_mul"):
        op = getattr(sigma, name)
        monkeypatch.setattr(sigma, name, lambda sp, a, b, op=op, name=name: called.add(name) or op(sp, a, b))
    assert check_ring_axioms(sp_pq, _member_classes(sp_pq, ["p", "q"])).ok
    assert called == {"ring_add", "ring_mul"}


def test_ring_axioms_detect_corrupted_op(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    # a wrong addition: conjunction is not the ring add
    from prooflab import class_and

    report = check_ring_axioms(sp_pq, members, add_op=class_and)
    assert not report.ok
    assert sum(len(law.failures) for law in report.laws) > 0


# the bytes of one failing audit, written out: the direct-check oracle
# renders through the same report type, so only this pins the layout.
# Conjunction fails self-inverse on 7 of the 8 members; 5 are shown
CORRUPTED_ADD_REPORT = """\
law                      checked  failed
add-closure                   64       0
mul-closure                   64       0
add-commutative               64       0
add-associative              512       0
add-neutral                    8       0
add-self-inverse               8       7
mul-commutative               64       0
mul-associative              512       0
mul-idempotent                 8       0
mul-distributes-over-add     512       0
  add-self-inverse: [p,q;0001] + [p,q;0001] not taut
  add-self-inverse: [p,q;0111] + [p,q;0111] not taut
  add-self-inverse: [p,q;1001] + [p,q;1001] not taut
  add-self-inverse: [p,q;1011] + [p,q;1011] not taut
  add-self-inverse: [p,q;1101] + [p,q;1101] not taut"""


def test_corrupted_ring_audit_renders_its_bytes(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    report = check_ring_axioms(sp_pq, members, add_op=class_and)
    assert report.render() == CORRUPTED_ADD_REPORT


# injected operations: the ring's own, one that stays among the members,
# and two whose results leave the extension
RING_OPS = {
    "ring": None,
    "and": class_and,
    "not-iff": lambda a, b: class_not(class_iff(a, b)),
    "nor": lambda a, b: class_not(class_or(a, b)),
}


@settings(max_examples=200, deadline=None)
@given(
    base=st.sampled_from(("", "p", "~p", "p | q", "~q", "p & ~q")),
    bit=st.integers(0, 1),
    atoms=st.sampled_from((("p",), ("p", "q"))),
    subset=st.integers(0, 255),
    add_name=st.sampled_from(sorted(RING_OPS)),
    mul_name=st.sampled_from(sorted(RING_OPS)),
)
# a sum outside the extension reaches the ring product
@example(base="p", bit=0, atoms=("p", "q"), subset=255, add_name="not-iff", mul_name="ring")
# a product outside the extension reaches the ring sum
@example(base="p", bit=0, atoms=("p", "q"), subset=255, add_name="ring", mul_name="nor")
def test_ring_audit_matches_the_direct_check(base, bit, atoms, subset, add_name, mul_name):
    # member subsets are mostly not closed under the operations, so the
    # tables also hold products of classes outside the element list
    sp = lindenbaum_extend({cls(base)} if base else set(), bit)
    members = _member_classes(sp, atoms)
    elements = [c for k, c in enumerate(members) if subset >> k & 1]
    ops = RING_OPS[add_name], RING_OPS[mul_name]
    try:
        expected = ring_audit_oracle(sp, elements, *ops)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            check_ring_axioms(sp, elements, *ops)
        assert type(raised.value) is type(exc) and str(raised.value) == str(exc)
        return
    report = check_ring_axioms(sp, elements, *ops)
    assert report.laws == expected.laws
    assert report.render() == expected.render()


def test_law_report_kind_column_and_heading_follow_diagnostic_laws():
    laws = (LawCheck("a", 3, ()), LawCheck("bb", 12, ("x", "y")))
    plain = LawReport(laws, 4, 1)
    assert not plain.ok
    assert plain.render() == "law  checked  failed\na          3       0\nbb        12       2\n  bb: x"
    mixed = LawReport((laws[0], LawCheck("c", 2, ("z",), True)), 4, 1)
    assert mixed.ok  # a diagnostic's failures are reported, not asserted
    assert mixed.render() == (
        "law  checked  failed  kind\n"
        "a          3       0  guaranteed\n"
        "c          2       1  diagnostic\n"
        "counterexamples:\n"
        "  c: z"
    )
    # the heading stands over counterexamples only
    quiet = LawReport((LawCheck("c", 2, (), True),), 4, 1)
    assert quiet.render() == "law  checked  failed  kind\nc          2       0  diagnostic"


def test_law_lookup_and_verdict():
    report = LawReport((LawCheck("a", 3, ()), LawCheck("b", 4, ("x",))), 24, 5)
    assert report.law("b") is report.laws[1]
    with pytest.raises(KeyError):
        report.law("c")
    assert [law.verdict() for law in report.laws] == [
        "a: valid (checked 3)",
        "b: INVALID (checked 4)",
    ]


def test_report_render(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    text = check_ring_axioms(sp_pq, members).render()
    assert "add-associative" in text and "mul-distributes-over-add" in text
