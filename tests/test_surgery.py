import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from prooflab import (
    BadPath,
    Deduction,
    NotFound,
    NotMember,
    PremiseDonor,
    ProofNode,
    SigmaPrime,
    build_proof,
    canonical_serialize,
    canonicalize,
    digest_hex,
    eliminate_subproof,
    extract_subproof,
    find_occurrences,
    format_path,
    induce_interpretation,
    lindenbaum_extend,
    normalize,
    parse,
    parse_path,
    premises,
    proof_eq,
    replace_subproof,
)
from prooflab.proof import text_length
from prooflab.surgery import _first_occurrence, _require_members

from _oracles import (
    find_occurrences_oracle,
    random_member_class,
    random_proof,
    random_valid_deduction,
)


def cls(text):
    return canonicalize(parse(text))


def node(text, *kids):
    return ProofNode(cls(text), frozenset(kids) if kids else None)


@pytest.fixture
def sp():
    return lindenbaum_extend({cls("p"), cls("q"), cls("s")}, 0)


@pytest.fixture
def target():
    # [p | q] justified by the bare premise [p]
    return node("p | q", node("p"))


@pytest.fixture
def donor():
    # contains [p] justified by [p & s]
    return node("p", node("p & s"))


def test_find_occurrences(target):
    occ = find_occurrences(target, cls("p"))
    assert len(occ) == 1
    assert occ[0] == (digest_hex(node("p")),)
    assert find_occurrences(target, cls("q")) == []
    assert find_occurrences(target, cls("p | q")) == [()]


def test_find_occurrences_two_depths():
    # [p] concludes a depth-1 child and a depth-2 grandchild
    nested = node("q", node("p"))
    tree = node("p | q", node("p"), nested)
    occ = find_occurrences(tree, cls("p"))
    assert len(occ) == 2
    assert len(occ[0]) == 1 and len(occ[1]) == 2  # shallower first
    # exhaustive traversal oracle: count nodes concluding [p]
    def count(n):
        return (n.conclusion == cls("p")) + sum(count(c) for c in n.children or ())

    assert count(tree) == 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_find_occurrences_matches_the_canonical_walk(seed):
    # built proofs share subtrees, so one node sits on several paths;
    # a chain of n steps has 2**(n - 2) paths to its first step
    rng = random.Random(seed)
    sp = lindenbaum_extend({cls("p")}, rng.randint(0, 1))
    atoms = ["p", "q", "r"]
    classes = [random_member_class(rng, sp, atoms) for _ in range(4)]
    d = random_valid_deduction(rng, sp, atoms, max_steps=6)
    chain = Deduction((cls("p"),) + (cls("p | q"),) * rng.randint(0, 9), sp)
    proofs = [
        random_proof(rng, sp, classes, depth=4),
        build_proof(d, induce_interpretation(d)),
        build_proof(chain, induce_interpretation(chain)),
    ]
    for r in proofs:
        for sigma in {*classes, *d.steps, cls("p"), cls("p | q"), cls("~p")}:
            assert find_occurrences(r, sigma) == find_occurrences_oracle(r, sigma)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_donor_search_picks_the_first_listed_occurrence(seed):
    # conclusions drawn from a small pool repeat within and across levels
    rng = random.Random(seed)
    sp = lindenbaum_extend({cls("p")}, 0)
    atoms = ["p", "q", "r"]
    classes = [random_member_class(rng, sp, atoms) for _ in range(4)]
    r = random_proof(rng, sp, classes, depth=4)
    for sigma in classes + [cls("~p")]:
        occ = find_occurrences(r, sigma)
        expected = extract_subproof(r, occ[0]) if occ else None
        assert _first_occurrence(r, sigma) is expected


def test_extract(target, donor):
    assert extract_subproof(target, ()) is target
    path = find_occurrences(target, cls("p"))[0]
    assert extract_subproof(target, path) == node("p")
    dpath = find_occurrences(donor, cls("p & s"))[0]
    sub = extract_subproof(donor, dpath)
    assert digest_hex(sub) == dpath[-1]
    with pytest.raises(BadPath):
        extract_subproof(target, ("0000",))


def test_replace_example(target, donor, sp):
    out = replace_subproof(target, cls("p"), donor, sp)
    expected = node("p | q", node("p", node("p & s")))
    assert proof_eq(out, expected)
    # target untouched elsewhere, root conclusion preserved
    assert out.conclusion == target.conclusion


def test_replace_premise_donor_rejected(target, sp):
    with pytest.raises(PremiseDonor):
        replace_subproof(target, cls("p"), node("p"), sp)


def test_replace_not_found(target, donor, sp):
    with pytest.raises(NotFound):
        replace_subproof(target, cls("s"), donor, sp)
    with pytest.raises(NotFound):
        replace_subproof(target, cls("p"), node("q", node("q & s")), sp)


def test_replace_requires_donor_membership(target, sp):
    bad_donor = node("p", node("~q & p"))
    with pytest.raises(NotMember):
        replace_subproof(target, cls("p"), bad_donor, sp)


def test_replace_identical_justification_is_idempotent(sp):
    tree = node("p | q", node("p", node("p & s")))
    donor = node("p", node("p & s"))
    assert proof_eq(replace_subproof(tree, cls("p"), donor, sp), tree)


def test_replace_all_occurrences_vs_single_path(sp):
    left = node("p | q", node("p"))
    tree = node("q | p", node("p"), left)
    donor = node("p", node("p & s"))
    out = replace_subproof(tree, cls("p"), donor, sp)
    grafted = node("p", node("p & s"))
    # every [p] node carries the donor justification now
    def all_p_justified(n):
        if n.conclusion == cls("p"):
            assert n.children == grafted.children
        for c in n.children or ():
            all_p_justified(c)

    all_p_justified(out)
    # restricting to one path leaves the other occurrence alone
    path = find_occurrences(tree, cls("p"))[0]
    single = replace_subproof(tree, cls("p"), donor, sp, single_path=path)
    leaves = find_occurrences(single, cls("p"))
    subtrees = {digest_hex(extract_subproof(single, q)) for q in leaves}
    assert digest_hex(grafted) in subtrees
    assert digest_hex(node("p")) in subtrees


def test_eliminate(sp):
    tree = node("p | q", node("p", node("p & s")))
    out = eliminate_subproof(tree, cls("p"))
    assert proof_eq(out, node("p | q", node("p")))
    assert premises(out) == premises(node("p | q", node("p")))
    # eliminating a node that is already a premise changes nothing
    assert proof_eq(eliminate_subproof(out, cls("p")), out)
    assert cls("p") in premises(out)
    with pytest.raises(NotFound):
        eliminate_subproof(tree, cls("s"))


def test_surgery_locality(target, donor, sp):
    # replace then eliminate equals eliminating the original
    replaced = replace_subproof(target, cls("p"), donor, sp)
    assert proof_eq(
        eliminate_subproof(replaced, cls("p")),
        eliminate_subproof(target, cls("p")),
    )


def test_donor_recovery(target, donor, sp):
    replaced = replace_subproof(target, cls("p"), donor, sp)
    path = find_occurrences(replaced, cls("p"))[0]
    recovered = extract_subproof(replaced, path)
    assert proof_eq(recovered, normalize(donor))


def test_membership_preserved(target, donor, sp):
    replaced = replace_subproof(target, cls("p"), donor, sp)

    def walk(n):
        assert sp.member(n.conclusion)
        for c in n.children or ():
            walk(c)

    walk(replaced)


def test_root_conclusion_never_changes(target, donor, sp):
    assert replace_subproof(target, cls("p"), donor, sp).conclusion == target.conclusion
    assert eliminate_subproof(target, cls("p")).conclusion == target.conclusion


def test_path_formatting():
    p = (digest_hex(ProofNode(cls("p"))),)
    text = format_path(p)
    assert "/" not in text and len(text) == 12
    assert parse_path(text) == (text,)
    assert format_path(()) == "."
    assert parse_path(".") == ()
    # an empty digest prefix would match every child
    for bad in ("", "/", f"{text}/", f"{text}//{text}", f"/{text}"):
        with pytest.raises(BadPath, match="empty digest"):
            parse_path(bad)


def test_require_members_checks_each_distinct_node_once(monkeypatch):
    # a reading justifies each step by every step before it, so the
    # proof of this 18-step chain has 18 distinct nodes and 2**17
    # root-to-leaf paths
    base_sp = lindenbaum_extend({cls("p")}, 0)
    d = Deduction((cls("p"),) + (cls("p | q"),) * 17, base_sp)
    r = build_proof(d, induce_interpretation(d))
    checked = []
    real = SigmaPrime.member
    monkeypatch.setattr(SigmaPrime, "member", lambda self, c: checked.append(c) or real(self, c))
    _require_members(r, base_sp)
    assert len(checked) == 18
    assert set(checked) == {cls("p"), cls("p | q")}


def test_require_members_names_the_first_non_member_in_canonical_pre_order(sp):
    # [~p], [~q] and [~s] lie outside the extension (witness p=q=s=1);
    # [~s] sits at two depths and [~q] below a node shared by two parents
    shared = node("p & q", node("~q"))
    tree = node(
        "p | q",
        node("q", shared, node("~s")),
        node("s", node("~p"), shared),
        node("~s"),
    )
    # canonical pre-order: [p,q;0111], [q;01], [p,q;0001], [q;10], ...
    with pytest.raises(NotMember, match=re.escape("[q;10] is not in the extension")):
        _require_members(tree, sp)


def test_proof_walks_finish_on_a_200_step_chain():
    # 200 distinct nodes and 2**199 root-to-leaf paths: a walk over the
    # tree instead of the distinct nodes does not finish; no timing gate
    sp = lindenbaum_extend({cls("p")}, 0)
    d = Deduction((cls("p"),) + (cls("p | q"),) * 199, sp)
    r = build_proof(d, induce_interpretation(d))
    assert normalize(r).conclusion == cls("p | q")
    assert premises(normalize(r)) == premises(r) == frozenset({cls("p")})
    assert text_length(r) > 1 << 199
    _require_members(r, sp)
    assert canonical_serialize(eliminate_subproof(r, cls("p | q"))) == "{[p,q;0111],{0}}"
    # the donor search stops at the first depth that holds [p]
    with pytest.raises(PremiseDonor):
        replace_subproof(r, cls("p"), r, sp)
