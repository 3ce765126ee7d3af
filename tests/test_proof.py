import random
from itertools import product

import pytest

from prooflab import (
    Deduction,
    Interpretation,
    InvalidInterpretation,
    ParseError,
    ProofNode,
    TAUTOLOGY,
    all_classes,
    build_proof,
    canonical_serialize,
    canonicalize,
    digest,
    digest_hex,
    essentially_equal,
    induce_interpretation,
    less_forced,
    lindenbaum_extend,
    normalize,
    parse,
    parse_proof,
    premises,
    proof_eq,
    render,
    representative,
)

from prooflab.formula import MAX_DEPTH
from prooflab.proof import pretty_class

from _oracles import random_proof, random_valid_deduction


def cls(text):
    return canonicalize(parse(text))


def ded(sp, *texts):
    return Deduction(tuple(cls(t) for t in texts), sp)


def test_node_invariants():
    with pytest.raises(ValueError):
        ProofNode(cls("p"), frozenset())
    leaf = ProofNode(cls("p"))
    assert leaf.is_premise
    assert not ProofNode(cls("p | q"), frozenset({leaf})).is_premise


def test_serialization_examples():
    leaf = ProofNode(cls("p"))
    assert canonical_serialize(leaf) == "{[p;01],{0}}"
    a, b = ProofNode(cls("p")), ProofNode(cls("q"))
    left = ProofNode(cls("p | q"), frozenset([a, b]))
    right = ProofNode(cls("p | q"), frozenset([b, a]))
    assert canonical_serialize(left) == canonical_serialize(right)
    # duplicates collapse by set semantics
    dup = ProofNode(cls("p | q"), frozenset([a, a]))
    assert canonical_serialize(dup) == "{[p,q;0111],{{[p;01],{0}}}}"


def test_distinct_small_trees_distinct_serializations():
    leaves = [ProofNode(c) for c in (cls("p"), cls("q"), cls("p & q"))]
    conclusions = (cls("p | q"), cls("p"), TAUTOLOGY)
    trees = list(leaves)
    for c in conclusions:
        for r in range(1, len(leaves) + 1):
            for combo in product(leaves, repeat=r):
                trees.append(ProofNode(c, frozenset(combo)))
    texts = {canonical_serialize(t) for t in trees}
    structs = {(t.conclusion, t.children) for t in trees}
    assert len(texts) == len(structs)


def test_digest_is_complete_invariant():
    rng = random.Random(77)
    sp = lindenbaum_extend({cls("p")}, 0)
    pool_classes = [cls(t) for t in ("p", "p | q", "~q", "p | ~q", "q | ~q")]
    pool = [random_proof(rng, sp, pool_classes) for _ in range(120)]
    for a in pool:
        for b in pool:
            assert (digest(a) == digest(b)) == proof_eq(a, b)
    assert all(len(digest(t)) == 32 for t in pool[:5])


def test_proof_eq_is_equivalence():
    rng = random.Random(5)
    sp = lindenbaum_extend({cls("p")}, 0)
    pool_classes = [cls(t) for t in ("p", "p | q", "~q")]
    pool = [random_proof(rng, sp, pool_classes) for _ in range(30)]
    for a in pool:
        assert proof_eq(a, a)
        for b in pool:
            assert proof_eq(a, b) == proof_eq(b, a)
            for c in pool:
                if proof_eq(a, b) and proof_eq(b, c):
                    assert proof_eq(a, c)


def test_build_proof_example(sp_p):
    d = ded(sp_p, "p", "p | q", "p | q | r")
    phi = induce_interpretation(d)
    r = build_proof(d, phi)
    assert r.conclusion == cls("p | q | r")
    kids = {canonical_serialize(k) for k in r.children}
    assert canonical_serialize(ProofNode(cls("p"))) in kids
    inner = ProofNode(cls("p | q"), frozenset([ProofNode(cls("p"))]))
    assert canonical_serialize(inner) in kids
    assert len(kids) == 2


def test_build_proof_single_step(sp_p):
    d = ded(sp_p, "p")
    assert build_proof(d, Interpretation({1: 0})) == ProofNode(cls("p"))


def test_build_proof_normalizes_tautology(sp_empty):
    d = ded(sp_empty, "p | ~p")
    r = build_proof(d, Interpretation({1: 0}))
    assert r == ProofNode(TAUTOLOGY)
    # a justified tautology node also collapses to premise form
    d2 = ded(sp_empty, "~p | q | p", "q | p | ~p")
    r2 = build_proof(d2, induce_interpretation(d2))
    assert r2 == ProofNode(TAUTOLOGY)


def test_build_proof_rejects_bad_interpretation(sp_p):
    d = ded(sp_p, "q", "q | s")
    with pytest.raises(InvalidInterpretation):
        build_proof(d, Interpretation({1: 0, 2: 0}))


def test_duplicate_subtrees_collapse(sp_pq):
    # two premise steps with the same class yield one child in the set
    d = ded(sp_pq, "p", "p", "p | q")
    phi = Interpretation({1: 0, 2: 0, 3: frozenset({1, 2})})
    r = build_proof(d, phi)
    assert len(r.children) == 1
    # the induced reading instead justifies step 2 from step 1, which
    # keeps the children distinct
    r2 = build_proof(d, induce_interpretation(d))
    assert len(r2.children) == 2


def test_normalize_idempotent_and_local():
    taut_kid = ProofNode(TAUTOLOGY, frozenset([ProofNode(cls("p"))]))
    tree = ProofNode(cls("p | q"), frozenset([taut_kid, ProofNode(cls("q"))]))
    n1 = normalize(tree)
    assert normalize(n1) == n1
    kids = {canonical_serialize(k) for k in n1.children}
    assert canonical_serialize(ProofNode(TAUTOLOGY)) in kids
    assert canonical_serialize(ProofNode(cls("q"))) in kids
    # non-tautology conclusions never change
    assert n1.conclusion == tree.conclusion
    # one-level oracle: every node of the result with a tautology
    # conclusion is a premise
    def check(node):
        if node.conclusion == TAUTOLOGY:
            assert node.is_premise
        for c in node.children or ():
            check(c)

    check(n1)


def test_essential_equality(sp_pq):
    d1 = ded(sp_pq, "p", "q", "p & q")
    d2 = ded(sp_pq, "q", "p", "p & q")
    assert essentially_equal(d1, induce_interpretation(d1), d2, induce_interpretation(d2))
    d3 = ded(sp_pq, "p", "p | q")
    d4 = ded(sp_pq, "q", "p | q")
    assert not essentially_equal(d3, induce_interpretation(d3), d4, induce_interpretation(d4))
    assert essentially_equal(d1, induce_interpretation(d1), d1, induce_interpretation(d1))


def test_premises_and_less_forced():
    a = ProofNode(cls("p"))
    b = ProofNode(cls("q"))
    r1 = ProofNode(cls("p | q"), frozenset([a]))
    r2 = ProofNode(cls("p | q"), frozenset([a, b]))
    assert premises(r1) == frozenset({cls("p")})
    assert premises(r2) == frozenset({cls("p"), cls("q")})
    assert less_forced(r1, r2)
    assert not less_forced(r2, r1)
    assert not less_forced(r1, r1)
    # a premise root is its own premise set
    assert premises(ProofNode(cls("p"))) == frozenset({cls("p")})


def test_premises_of_a_long_chain_proof(sp_pq):
    # a reading justifies each step by every step before it, so these
    # proofs have 30 distinct nodes but 2**28 root-to-leaf paths
    chain = ("p", "p | q") * 15
    d1, d2 = ded(sp_pq, *chain), ded(sp_pq, "q", *chain[:-1])
    r1 = build_proof(d1, induce_interpretation(d1))
    r2 = build_proof(d2, induce_interpretation(d2))
    assert premises(r1) == frozenset({cls("p")})
    assert premises(r2) == frozenset({cls("p"), cls("q")})
    assert less_forced(r1, r2)
    assert not less_forced(r2, r1)


def test_conclusions_of_proofs_over_extension_are_members(sp_p):
    rng = random.Random(31)
    for _ in range(40):
        d = random_valid_deduction(rng, sp_p, ["p", "q", "r"], max_steps=6)
        r = build_proof(d, induce_interpretation(d))

        def walk(node):
            assert sp_p.member(node.conclusion)
            if node.children:
                from prooflab import big_and, big_or, entails

                parts = [c.conclusion for c in node.children]
                assert entails(big_and(parts), node.conclusion) or entails(
                    big_or(parts), node.conclusion
                )
                for c in node.children:
                    walk(c)

        walk(r)


def test_parse_proof_round_trip():
    a, b = ProofNode(cls("p")), ProofNode(cls("~q"))
    tree = ProofNode(
        cls("p | ~q"),
        frozenset([ProofNode(cls("p | ~q"), frozenset([a, b])), a]),
    )
    text = canonical_serialize(tree)
    assert canonical_serialize(parse_proof(text)) == text
    assert parse_proof(text) == tree


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "{[p;01]}",
        "{[p;01],{}}",
        "{[p;01],{0}",
        "{[p;01],{0}}x",
        "{[p;0],{0}}",
        "{p,{0}}",
    ],
)
def test_parse_proof_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_proof(bad)


def nested_proof_text(depth):
    """A chain of ``depth`` justified ``p`` nodes above one premise."""
    text = "{[p;01],{0}}"
    for _ in range(depth):
        text = "{[p;01],{%s}}" % text
    return text


def test_parse_proof_depth_limit():
    text = nested_proof_text(MAX_DEPTH)
    assert canonical_serialize(normalize(parse_proof(text))) == text
    with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as exc:
        parse_proof(nested_proof_text(MAX_DEPTH + 1))
    # at the premise's "{", below MAX_DEPTH + 1 wrappers "{[p;01],{"
    assert exc.value.position == 9 * (MAX_DEPTH + 1)


def test_digest_hex_stable():
    r = ProofNode(TAUTOLOGY)
    assert digest_hex(r) == digest(r).hex()
    assert len(digest_hex(r)) == 64


def test_pretty_class_is_the_rendered_representative():
    for c in all_classes(["p", "q", "r"]):
        expected = "1" if c == TAUTOLOGY else "0" if not c.support else render(representative(c))
        assert pretty_class(c) == expected
