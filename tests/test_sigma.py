import random

import pytest
from hypothesis import given, settings, strategies as st

from prooflab import (
    CONTRADICTION,
    TAUTOLOGY,
    Inconsistent,
    NotMember,
    all_classes,
    canonicalize,
    check_ring_axioms,
    class_iff,
    class_not,
    class_or,
    entails,
    lindenbaum_extend,
    parse,
    ring_add,
    ring_mul,
)

from _oracles import class_value, member_oracle, random_formula, witness_oracle


def cls(text):
    return canonicalize(parse(text))


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
    assert report.violation_count == 0


def test_ring_axioms_singleton_tautology(sp_empty):
    assert check_ring_axioms(sp_empty, [TAUTOLOGY]).ok


def test_ring_axioms_reject_non_member(sp_pq):
    with pytest.raises(NotMember):
        check_ring_axioms(sp_pq, [cls("~p")])


def test_ring_axioms_detect_corrupted_op(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    # a wrong addition: conjunction is not the ring add
    from prooflab import class_and

    report = check_ring_axioms(sp_pq, members, add_op=class_and)
    assert not report.ok
    assert report.violation_count > 0


def test_report_render(sp_pq):
    members = _member_classes(sp_pq, ["p", "q"])
    text = check_ring_axioms(sp_pq, members).render()
    assert "add-associative" in text and "mul-distributes-over-add" in text
