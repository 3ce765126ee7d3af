import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from prooflab import (
    FORMAL_ONE,
    ClassScalar,
    InternalError,
    NotMember,
    ProofNode,
    TAUTOLOGY,
    add,
    all_classes,
    big_and,
    canonical_serialize,
    canonicalize,
    check_module_axioms,
    class_and,
    class_iff,
    class_or,
    delta_merge,
    digest_hex,
    embed_premise,
    entails,
    lindenbaum_extend,
    neutral_proof,
    normalize,
    parse,
    proof_eq,
    scalar_mul,
)

from prooflab.cli import run
from prooflab.module_algebra import _RestrictedDomain

from _oracles import random_proof, restricted_domain_oracle


def cls(text):
    return canonicalize(parse(text))


def node(text, *kids):
    return ProofNode(cls(text), frozenset(kids) if kids else None)


@pytest.fixture
def sp():
    return lindenbaum_extend({cls("p"), cls("q"), cls("r"), cls("s")}, 0)


def test_delta_merge_equal_justifications():
    d = frozenset([node("p")])
    assert delta_merge(d, d, TAUTOLOGY, cls("p"), cls("p")) is None
    assert delta_merge(d, d, cls("p"), cls("p"), cls("q")) == d
    assert delta_merge(None, None, cls("p"), cls("p"), cls("q")) is None


def test_delta_merge_premise_side():
    d = frozenset([node("p")])
    assert delta_merge(None, d, cls("p"), cls("p"), cls("q")) == d
    assert delta_merge(d, None, cls("p"), cls("p"), cls("q")) == d


def test_delta_merge_symmetric_difference_kept():
    # hand evaluation: S = {A, C}; [p&q] & [q&r] = [p&q&r] entails
    # z1&z2 = [p&r], so the merged set is kept
    a, b, c = node("p & q"), node("q"), node("q & r")
    d1 = frozenset([a, b])
    d2 = frozenset([b, c])
    z1, z2 = cls("p"), cls("r")
    assert entails(class_and(a.conclusion, c.conclusion), class_and(z1, z2))
    merged = delta_merge(d1, d2, class_iff(z1, z2), z1, z2)
    assert merged == frozenset([a, c])


def test_delta_merge_symmetric_difference_dropped():
    # the symmetric difference does not reach z1 & z2: premise marker wins
    a, b, c = node("p"), node("q"), node("r")
    d1 = frozenset([a, b])
    d2 = frozenset([b, c])
    z1, z2 = cls("s"), cls("s | p")
    assert not entails(class_and(a.conclusion, c.conclusion), class_and(z1, z2))
    assert delta_merge(d1, d2, class_iff(z1, z2), z1, z2) is None


def test_delta_merge_symmetry(sp):
    rng = random.Random(17)
    pool_classes = [cls(t) for t in ("p", "q", "r", "p | q", "p & q")]
    for _ in range(200):
        r1 = random_proof(rng, sp, pool_classes)
        r2 = random_proof(rng, sp, pool_classes)
        alpha = class_iff(r1.conclusion, r2.conclusion)
        left = delta_merge(r1.children, r2.children, alpha, r1.conclusion, r2.conclusion)
        right = delta_merge(r2.children, r1.children, alpha, r2.conclusion, r1.conclusion)
        assert left == right


def test_add_checks_its_invariants(sp, monkeypatch):
    # an entails that answers every question wrongly; the check is a
    # raise, so python -O does not strip it
    monkeypatch.setattr("prooflab.module_algebra.entails", lambda a, b: not entails(a, b))
    with pytest.raises(InternalError, match=r"\[q;01\] & \[s;01\] does not entail"):
        add(node("q", node("p")), node("s", node("r")), sp)


def test_sum_of_two_premises(sp):
    out = add(node("p"), node("q"), sp)
    assert out == ProofNode(cls("p <-> q"))


def test_sum_neutral_and_involution(sp):
    rng = random.Random(23)
    pool_classes = [cls(t) for t in ("p", "q", "p | q", "p & q", "r")]
    n = neutral_proof(sp)
    for _ in range(80):
        r = random_proof(rng, sp, pool_classes)
        assert proof_eq(add(r, n, sp), normalize(r))
        assert proof_eq(add(r, r, sp), n)
        other = random_proof(rng, sp, pool_classes)
        assert proof_eq(add(r, other, sp), add(other, r, sp))


def test_sum_conclusion_and_membership(sp):
    r1 = node("p | q", node("p"))
    r2 = node("q", node("p & q"))
    out = add(r1, r2, sp)
    assert out.conclusion == class_iff(cls("p | q"), cls("q"))
    assert sp.member(out.conclusion)
    with pytest.raises(NotMember):
        add(node("~p"), r2, sp)


def test_sum_children_come_from_operands(sp):
    rng = random.Random(29)
    pool_classes = [cls(t) for t in ("p", "q", "r", "p | q", "q & r")]
    for _ in range(150):
        r1 = random_proof(rng, sp, pool_classes)
        r2 = random_proof(rng, sp, pool_classes)
        out = add(r1, r2, sp)
        allowed = {
            canonical_serialize(c)
            for c in (r1.children or frozenset()) | (r2.children or frozenset())
        }
        for c in out.children or ():
            assert canonical_serialize(c) in allowed


def test_scalar_mul_examples(sp):
    r = node("q", node("p & q"))
    assert proof_eq(scalar_mul(FORMAL_ONE, r, sp), r)
    out = scalar_mul(ClassScalar(cls("p")), r, sp)
    assert out.conclusion == cls("p | q")
    assert out.children == r.children
    # disjoining the negation of the conclusion produces a tautology,
    # which normalizes to the neutral proof
    taut = scalar_mul(ClassScalar(cls("~q | p")), node("q | ~p", node("p")), sp)
    assert proof_eq(taut, neutral_proof(sp))
    with pytest.raises(NotMember):
        scalar_mul(ClassScalar(cls("~p")), r, sp)
    with pytest.raises(NotMember):
        scalar_mul(FORMAL_ONE, node("~q"), sp)


def test_neutral_proof_constant(sp):
    n = neutral_proof(sp)
    assert n == ProofNode(TAUTOLOGY)
    assert normalize(n) == n
    assert proof_eq(add(n, n, sp), n)
    assert digest_hex(n) == digest_hex(neutral_proof(sp))


def test_embed_premise(sp):
    assert embed_premise(sp, cls("p")) == node("p")
    assert embed_premise(sp, TAUTOLOGY) == neutral_proof(sp)
    with pytest.raises(NotMember):
        embed_premise(sp, cls("~p"))
    members = [c for c in (cls("p"), cls("q"), cls("p | q"), cls("p & q"))]
    digests = {digest_hex(embed_premise(sp, c)) for c in members}
    assert len(digests) == len(members)


def test_scalar_laws_universal(sp):
    rng = random.Random(41)
    pool_classes = [cls(t) for t in ("p", "q", "r", "p | q", "p & q", "q & r")]
    members = [c for c in pool_classes if sp.member(c)]
    for _ in range(150):
        r = random_proof(rng, sp, pool_classes)
        theta = ClassScalar(rng.choice(members))
        beta = ClassScalar(rng.choice(members))
        lhs = scalar_mul(ClassScalar(class_or(theta.payload, beta.payload)), r, sp)
        rhs = scalar_mul(theta, scalar_mul(beta, r, sp), sp)
        assert proof_eq(lhs, rhs)
        assert proof_eq(scalar_mul(FORMAL_ONE, r, sp), normalize(r))
        # (alpha l beta) . r == alpha . r + beta . r
        lhs4 = scalar_mul(ClassScalar(class_iff(theta.payload, beta.payload)), r, sp)
        rhs4 = add(scalar_mul(theta, r, sp), scalar_mul(beta, r, sp), sp)
        assert proof_eq(lhs4, rhs4)


def test_scalar_iff_splits_tautology_branch(sp):
    # (p l q) | (p | q) is a tautology: both sides collapse to neutral
    alpha, beta = cls("p"), cls("q")
    r = node("p | q", node("p"))
    scal = class_iff(alpha, beta)
    assert sp.member(scal)
    lhs = scalar_mul(ClassScalar(scal), r, sp)
    assert proof_eq(lhs, neutral_proof(sp))
    rhs = add(
        scalar_mul(ClassScalar(alpha), r, sp),
        scalar_mul(ClassScalar(beta), r, sp),
        sp,
    )
    assert proof_eq(lhs, rhs)


def test_case4_well_definedness_chain(sp):
    # exercised inside add(); reaching case 4 must not trip the asserts
    a, b, c = node("p & q"), node("q"), node("q & r")
    r1 = ProofNode(cls("p"), frozenset([a, b]))
    r2 = ProofNode(cls("r"), frozenset([b, c]))
    out = add(r1, r2, sp)
    assert out.children == frozenset([a, c])
    assert entails(big_and(k.conclusion for k in out.children), out.conclusion)


def test_check_module_axioms_guaranteed_laws(sp):
    rng = random.Random(53)
    pool_classes = [cls(t) for t in ("p", "q", "r", "p | q", "p & q")]
    proofs = [random_proof(rng, sp, pool_classes) for _ in range(40)]
    members = [c for c in pool_classes if sp.member(c)]
    scalars = [ClassScalar(c) for c in members] + [FORMAL_ONE]
    report = check_module_axioms(sp, scalars, proofs, samples=150, seed=1)
    assert report.ok
    for name in (
        "sum-commutative",
        "sum-neutral",
        "sum-involution",
        "scalar-compose",
        "scalar-identity",
        "scalar-distributive-restricted",
        "scalar-iff-splits",
    ):
        law = report.law(name)
        assert law.ok, law
        assert not law.diagnostic
        assert law.checked > 0
    assert report.law("sum-associative").diagnostic
    assert report.law("scalar-distributive-general").diagnostic
    assert "checked" in report.render()


def test_check_module_axioms_rejects_non_member(sp):
    with pytest.raises(NotMember):
        check_module_axioms(sp, [ClassScalar(cls("~p"))], [node("p")])
    with pytest.raises(NotMember):
        check_module_axioms(sp, [], [node("~p")])


@pytest.mark.parametrize("exhaustive", [False, True])
def test_check_module_axioms_without_class_scalars(sp, exhaustive):
    # a law with an empty pool checks nothing
    proofs = [node("p"), node("q", node("p")), node("p | q", node("q"))]
    report = check_module_axioms(sp, [FORMAL_ONE], proofs, samples=30, exhaustive=exhaustive)
    checked = {law.name: law.checked for law in report.laws}
    n = 3 if exhaustive else 30
    assert checked == {
        "sum-commutative": n * (3 if exhaustive else 1),
        "sum-neutral": n,
        "sum-involution": n,
        "sum-associative": n * (9 if exhaustive else 1),
        "scalar-compose": 0,
        "scalar-identity": n,
        "scalar-distributive-restricted": 0,
        "scalar-distributive-general": 0,
        "scalar-iff-splits": 0,
    }
    assert report.ok


def test_check_module_axioms_needs_a_proof(sp):
    with pytest.raises(ValueError, match="need at least one proof"):
        check_module_axioms(sp, [ClassScalar(cls("p"))], [])


def test_check_module_axioms_rejects_negative_samples(sp):
    # a negative count would sample no instance and report every law ok
    scalars, proofs = [ClassScalar(cls("p")), FORMAL_ONE], [node("p")]
    for exhaustive in (False, True):
        with pytest.raises(ValueError, match="samples must be non-negative, got -5"):
            check_module_axioms(sp, scalars, proofs, samples=-5, exhaustive=exhaustive)
    report = check_module_axioms(sp, scalars, proofs, samples=0)
    assert [law.checked for law in report.laws] == [0] * 9


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restricted_domain_indexes_the_listed_triples(seed):
    # a random.Random from an integer seed, since st.randoms() draws skew small
    rng = random.Random(seed)
    sp = lindenbaum_extend({cls("p")}, rng.randint(0, 1))
    members = [c for c in all_classes(["p", "q"]) if sp.member(c)]
    premises = [ProofNode(c) for c in rng.sample(members, rng.randint(0, 4))]
    shared = frozenset(premises[:2] or [node("p")])
    pool = [
        *premises,
        *(ProofNode(rng.choice(members), shared) for _ in range(rng.randint(0, 3))),
        *(random_proof(rng, sp, members) for _ in range(rng.randint(0, 4))),
    ]
    rng.shuffle(pool)
    # the tautology scalar, and members such as ~p | q that reach one on
    # some conclusions, make scalar products drop justifications
    scalars = [ClassScalar(c) for c in [TAUTOLOGY, *rng.sample(members, rng.randint(0, 4))]]
    scalars = rng.sample(scalars, rng.randint(0, len(scalars)))
    domain = _RestrictedDomain(scalars, pool)
    expected = restricted_domain_oracle(scalars, pool)
    assert len(domain) == len(expected)
    assert [domain[i] for i in range(len(expected))] == expected
    assert list(domain) == expected
    with pytest.raises(IndexError):
        domain[len(expected)]


def axioms_stdout(capsys, tmp_path, base, *args):
    path = tmp_path / "base.txt"
    path.write_text(base + "\n")
    assert run(["axioms", "--sigma", str(path), *args]) == 0
    return capsys.readouterr().out


# SHA-256 of the concatenated stdout of `axioms` over --atoms 1|2,
# --seed 0|5 and --samples 0|5|20, per base set
AUDIT_DIGESTS = {
    "p": "548a8cf3b454965e7836059ba81e7b8f80b5d96bf10b19482c16aa60e1910c56",
    "q | r": "63813df0d20eb0d4ebe3d7bb7efc4513396be44fba0db957426a80cc22d4d752",
    "~p & q": "9067fe74467ca828b75e567df5b6ba7dd6fe5ac31bae079e9f29d14d7a59a193",
}


@pytest.mark.parametrize("base", sorted(AUDIT_DIGESTS))
def test_axioms_report_bytes_are_pinned(capsys, tmp_path, base):
    out = "".join(
        axioms_stdout(capsys, tmp_path, base, "--atoms", atoms, "--seed", seed, "--samples", n)
        for atoms in ("1", "2")
        for seed in ("0", "5")
        for n in ("0", "5", "20")
    )
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[base]


# operations that break guaranteed laws, so the audit names failing
# instances; the digest pins the `axioms --atoms 2 --samples 20` stdout
BROKEN = {
    "add": (
        lambda r1, r2, sp, atom_cap=0: ProofNode(r1.conclusion, frozenset({r2})),
        "761654b787820e85592726ace7f0ec392e43c0f6a429457cfeb00c79902139c6",
    ),
    "scalar_mul": (
        lambda s, r, sp, atom_cap=0: (
            ProofNode(r.conclusion) if s is FORMAL_ONE else ProofNode(s.payload, r.children)
        ),
        "f0e219baa72a3ab0313cc5e0737e7045bf4a0dea7a6e40ce1f76a57d42ebe905",
    ),
}


def test_axioms_report_tags_every_failing_law(capsys, tmp_path, monkeypatch):
    tagged = {}
    for name, (broken, digest) in BROKEN.items():
        with monkeypatch.context() as m:
            m.setattr(f"prooflab.module_algebra.{name}", broken)
            out = axioms_stdout(capsys, tmp_path, "p\nq", "--atoms", "2", "--samples", "20")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name
        for line in out[out.index("counterexamples:\n") :].splitlines()[1:]:
            law, tag = line.strip().split(": ")
            tagged.setdefault(law, set()).add(len(tag.split()))
    # each law names its proof operands, and only those
    assert tagged == {
        "sum-commutative": {2},
        "sum-neutral": {1},
        "sum-involution": {1},
        "sum-associative": {3},
        "scalar-compose": {1},
        "scalar-identity": {1},
        "scalar-distributive-restricted": {2},
        "scalar-distributive-general": {2},
        "scalar-iff-splits": {1},
    }
