import gc
import pickle
import random
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from prooflab import (
    Deduction,
    Interpretation,
    InvalidDeduction,
    InvalidInterpretation,
    NotMember,
    ParseError,
    ProofNode,
    PropClass,
    ResourceLimit,
    TAUTOLOGY,
    add,
    all_classes,
    build_proof,
    canonical_serialize,
    canonicalize,
    class_not,
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
    prove,
    render,
    replace_subproof,
    representative,
    validate_interpretation,
)

from prooflab.files import proof_file_length, proof_file_text, read_proof_text
from prooflab.formula import MAX_DEPTH
from prooflab.proof import (
    _NODES,
    _pretty_class_length,
    fold,
    pretty_class,
    pretty_proof,
    text_length,
)
from prooflab.surgery import _require_members, _rewrite_at

from _oracles import (
    normalize_oracle,
    random_formula,
    parse_proof_oracle,
    premises_oracle,
    random_member_class,
    random_proof,
    random_valid_deduction,
    require_members_oracle,
    rewrite_oracle,
    scrambled_text,
    serialize_oracle,
)


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
    # an index set naming a later step would index past the built nodes
    with pytest.raises(InvalidInterpretation):
        build_proof(ded(sp_p, "p", "p | s"), Interpretation({1: 0, 2: frozenset({3})}))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(0, 1))
def test_induced_readings_validate_so_prove_skips_the_check(rng, n_atoms, inserted):
    # prove does not validate the reading it induces: every reading that
    # induce_interpretation returns must pass validate_interpretation,
    # and prove must give the proof build_proof gives after checking it
    atoms = ["p", "q", "r", "s", "t"][:n_atoms]
    base = frozenset(cls(a) for a in rng.sample(atoms, rng.randint(0, n_atoms)))
    sp = lindenbaum_extend(base, rng.randint(0, 1))
    steps = list(random_valid_deduction(rng, sp, atoms, max_steps=7).steps)
    for _ in range(inserted):
        c = canonicalize(random_formula(rng, atoms))
        steps.insert(rng.randint(0, len(steps)), class_not(c) if sp.member(c) else c)
    d = Deduction(tuple(steps), sp)
    try:
        phi = induce_interpretation(d)
    except InvalidDeduction as exc:
        with pytest.raises(InvalidDeduction, match=str(exc)):
            prove(d)
        return
    assert validate_interpretation(d, phi)
    assert prove(d) is build_proof(d, phi)


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
    assert parse_proof(text) is tree


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


def _random_proofs(rng, count):
    """Built, random and summed proofs over a random extension."""
    atoms = ["p", "q", "x01"]
    base = frozenset(cls(rng.choice(atoms)) for _ in range(rng.randint(0, 2)))
    sp = lindenbaum_extend(base, rng.randint(0, 1))
    d = random_valid_deduction(rng, sp, atoms, max_steps=7)
    classes = [random_member_class(rng, sp, atoms) for _ in range(6)]
    pool = [random_proof(rng, sp, classes, depth=3) for _ in range(count)]
    return [build_proof(d, induce_interpretation(d)), add(pool[0], pool[-1], sp)] + pool


def _parse_outcome(parser, text):
    try:
        return canonical_serialize(parser(text))
    except ParseError as exc:
        return ("ParseError", str(exc), exc.position)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_proof_matches_the_recursive_parser_on_valid_texts(seed):
    # child sets in any order, with repeats, and wrapped over lines the
    # way a proof file may hold them
    rng = random.Random(seed)
    for r in _random_proofs(rng, 3):
        text = scrambled_text(rng, r)
        assert canonical_serialize(parse_proof(text)) == canonical_serialize(r)
        assert parse_proof(text) is parse_proof_oracle(text) is r
        cuts = sorted(rng.sample(range(len(text) + 1), k=min(4, len(text) + 1)))
        lines = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
        wrapped = "format: 1\n" + "\n".join("  " * rng.randint(0, 2) + line for line in lines)
        assert read_proof_text(wrapped) is parse_proof_oracle(text)


_MUTATION_CHARS = "{}[],;01pq~x "


def _mutated(rng, text):
    """``text`` after one to three random edits of a kind a damaged file
    shows: a deleted, inserted, replaced or repeated span, or a cut."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        kind = rng.randrange(5)
        if kind == 0:
            text = text[:i] + text[j:]
        elif kind == 1:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
        elif kind == 2:
            text = text[:i] + rng.choice(_MUTATION_CHARS) + text[i + 1 :]
        elif kind == 3:
            text = text[:j] + text[i:j] + text[j:]
        else:
            text = text[:i]
    return text


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_parse_proof_matches_the_recursive_parser_on_damaged_texts(seed):
    rng = random.Random(seed)
    texts = [scrambled_text(rng, r) for r in _random_proofs(rng, 2)]
    texts.append(nested_proof_text(MAX_DEPTH + rng.randint(-1, 1)))
    for text in texts:
        for _ in range(5):
            bad = _mutated(rng, text)
            assert _parse_outcome(parse_proof, bad) == _parse_outcome(parse_proof_oracle, bad)


# --- the reader on texts that repeat subtrees --------------------------------

_READER_CLASSES = ("p", "q", "p | q", "p & q", "~q", "p | ~q", "q | r", "q | ~q")
_TREE_CAP = 300  # nodes of a drawn proof, written out as a tree


def _tree_size(node, sizes):
    if node not in sizes:
        sizes[node] = 1 + sum(_tree_size(c, sizes) for c in node.children or ())
    return sizes[node]


def _capped(kids, sizes):
    """The longest prefix of ``kids`` whose trees fit the cap together."""
    kept, total = [], 1
    for kid in kids:
        total += _tree_size(kid, sizes)
        if total > _TREE_CAP:
            break
        kept.append(kid)
    return kept


@st.composite
def shared_proofs(draw):
    """A proof whose nodes are drawn one by one, each a premise or
    justified by nodes drawn before it, so its subtrees repeat; the
    root is justified by some of them."""
    classes = st.sampled_from(_READER_CLASSES).map(cls)
    nodes, sizes = [], {}
    for _ in range(draw(st.integers(1, 10))):
        drawn = draw(st.lists(st.sampled_from(tuple(nodes)), max_size=3)) if nodes else []
        kids = _capped(drawn, sizes)
        nodes.append(ProofNode(draw(classes), frozenset(kids) or None))
    kids = _capped(draw(st.lists(st.sampled_from(tuple(nodes)), min_size=1, max_size=3)), sizes)
    return ProofNode(draw(classes), frozenset(kids or nodes[:1]))


def _chain_above(node, n):
    for _ in range(n):
        node = ProofNode(cls("p"), frozenset({node}))
    return node


def _repeated_near_the_limit(sub, n):
    """``sub`` inside a p & q node, then as a child of the root, then
    under ``n`` wrappers."""
    twice = {ProofNode(cls("p & q"), frozenset({sub})), sub}
    return ProofNode(cls("q | r"), frozenset({*twice, _chain_above(sub, n)}))


# a two-premise subtree; under 98 wrappers its premises sit at depth
# MAX_DEPTH
_PAIR = ProofNode(cls("p | q"), frozenset({ProofNode(cls("p")), ProofNode(cls("q"))}))
_SHALLOW_THEN_DEEP = _repeated_near_the_limit(_PAIR, MAX_DEPTH - 2)
# a height-2 subtree whose first child is a premise, so its deepest
# node comes after the child the reader reads before it may skip
_LATE_DEEP = ProofNode(
    cls("p | q"),
    frozenset({ProofNode(cls("p & q")), ProofNode(cls("p"), frozenset({ProofNode(cls("q"))}))}),
)
# the pair written three times, the first time out of order in the
# first-only reversed text
_THRICE = ProofNode(
    cls("q | r"),
    frozenset({_PAIR, *(ProofNode(cls(c), frozenset({_PAIR})) for c in ("p & q", "~q"))}),
)


def _reversed_text(r, first_only=False):
    """The canonical text of ``r`` with every child set in reverse
    order, or with only the first occurrence of each node's set so."""
    seen = set()

    def write(node):
        if node.children is None:
            return serialize_oracle(node)
        kids = sorted(node.children, key=serialize_oracle)
        if node not in seen:
            kids.reverse()
            if first_only:
                seen.add(node)
        return "{%s,{%s}}" % (node.conclusion.text(), ",".join(map(write, kids)))

    return write(r)


def _scrambled(rng, r):
    """``r`` with every child set in random order and some children
    repeated, writing at most ``_TREE_CAP`` nodes more than its tree;
    ``scrambled_text`` may repeat a child at every level of a chain."""
    sizes, spare = {}, [_TREE_CAP]

    def write(node):
        if node.children is None:
            return serialize_oracle(node)
        kids = list(node.children)
        for _ in range(rng.randint(0, 2)):
            kid = rng.choice(kids)
            if _tree_size(kid, sizes) <= spare[0]:
                spare[0] -= _tree_size(kid, sizes)
                kids.append(kid)
        rng.shuffle(kids)
        return "{%s,{%s}}" % (node.conclusion.text(), ",".join(map(write, kids)))

    return write(r)


def _reader_texts(rng, r):
    """``r`` written in reverse order, with the first occurrence of each
    node out of order, scrambled, and canonically, the last last, so
    the others meet nodes that hold no text yet."""
    return [_reversed_text(r), _reversed_text(r, True), _scrambled(rng, r), serialize_oracle(r)]


def _nodes(r):
    nodes = []
    fold(r, lambda node, value: nodes.append(node))
    return nodes


@settings(max_examples=100, deadline=None)
@given(shared_proofs(), st.integers(0, 2**32 - 1))
@example(_SHALLOW_THEN_DEEP, 0)
@example(_THRICE, 0)
def test_reader_matches_the_recursive_parser_on_shared_subtrees(r, seed):
    rng = random.Random(seed)
    for text in _reader_texts(rng, r):
        assert parse_proof(text) is parse_proof_oracle(text) is r
        # the reader marks the nodes of a text in normal form as normal
        assert normalize(parse_proof(text)) is normalize_oracle(r)
        cuts = sorted(rng.sample(range(len(text) + 1), k=min(4, len(text) + 1)))
        lines = [text[a:b] for a, b in zip([0] + cuts, cuts + [len(text)])]
        assert read_proof_text("format: 1\n" + "\n".join(lines)) is r
        # every text a node holds, whether the reader set it or not, is
        # the recursive serializer's
        for node in _nodes(r):
            assert node._text is None or node._text == serialize_oracle(node)
    # a canonical text gives every node its text
    parse_proof(serialize_oracle(r))
    assert all(node._text is not None for node in _nodes(r))


def _repeat_spans(text):
    """(start, end) of the second and later occurrences, in text order,
    of each justified node of the valid proof text ``text``."""
    opens, by_node = [], {}
    for i, ch in enumerate(text):
        if ch == "{":
            opens.append(i)
        elif ch == "}":
            a = opens.pop()
            if text.startswith("{[", a) and not text.endswith(",{0}}", a, i + 1):
                node = parse_proof_oracle(text[a : i + 1])
                by_node.setdefault(node, []).append((a, i + 1))
    return sorted(span for spans in by_node.values() for span in spans[1:])


def _damaged_within(rng, text, a, b):
    """``text`` with one character deleted, inserted or replaced at a
    position in ``[a, b)``."""
    i = rng.randrange(a, b)
    c = rng.choice(_MUTATION_CHARS)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1 :]
    if kind == 1:
        return text[:i] + c + text[i:]
    return text[:i] + c + text[i + 1 :]


@settings(max_examples=100, deadline=None)
@given(shared_proofs(), st.integers(0, 2**32 - 1))
@example(_SHALLOW_THEN_DEEP, 0)
@example(_THRICE, 0)
@example(_repeated_near_the_limit(_LATE_DEEP, MAX_DEPTH - 3), 0)
def test_reader_matches_the_recursive_parser_on_damaged_repeats(r, seed):
    # damage inside a later occurrence of a repeated subtree, where the
    # reader tries the spans it kept, and anywhere else
    rng = random.Random(seed)
    for text in _reader_texts(rng, r):
        later = _repeat_spans(text)
        for _ in range(6):
            if later and rng.random() < 0.75:
                bad = _damaged_within(rng, text, *rng.choice(later))
            else:
                bad = _mutated(rng, text)
            assert _parse_outcome(parse_proof, bad) == _parse_outcome(parse_proof_oracle, bad)


def test_reader_skips_a_repeat_only_within_the_depth_limit():
    # a subtree of height h closes twice near the root, then sits under
    # n wrappers, which puts its deepest premise at depth n + 1 + h
    subtrees = [(_PAIR, 1), (ProofNode(cls("p & q"), frozenset({_PAIR})), 2), (_LATE_DEEP, 2)]
    for sub, height in subtrees:
        for n in (MAX_DEPTH - 1 - height, MAX_DEPTH - height):
            text = serialize_oracle(_repeated_near_the_limit(sub, n))
            chain = serialize_oracle(_chain_above(sub, n))
            assert text.index(serialize_oracle(sub)) < text.index(chain)
            assert _parse_outcome(parse_proof, text) == _parse_outcome(parse_proof_oracle, text)
            if n + 1 + height <= MAX_DEPTH:
                assert parse_proof(text)._text == text
            else:
                with pytest.raises(ParseError, match="nested deeper"):
                    parse_proof(text)


def test_equal_nodes_are_one_object():
    a = ProofNode(cls("p | q"), frozenset({ProofNode(cls("p")), ProofNode(cls("q"))}))
    kids = [ProofNode(cls("q")), ProofNode(cls("p")), ProofNode(cls("q"))]
    b = ProofNode(cls("q | p"), frozenset(kids))
    assert a is b
    assert ProofNode(cls("p")) is ProofNode(cls("p"), None)
    assert ProofNode(cls("p")) is not ProofNode(cls("q"))
    with pytest.raises(AttributeError):
        a.conclusion = cls("q")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hashes_are_the_field_tuple_hashes(seed):
    # set iteration order, and with it every output, follows these values
    rng = random.Random(seed)
    for r in _random_proofs(rng, 3):
        nodes = []
        fold(r, lambda node, value: nodes.append(node))
        for node in nodes:
            assert hash(node) == hash((node.conclusion, node.children))
            c = node.conclusion
            assert hash(c) == hash((c.support, c.bits))


def test_pickling_a_node_gives_the_same_node(sp_p):
    d = ded(sp_p, "p", "p | q", "p | q | r", "p | q")
    r = build_proof(d, induce_interpretation(d))
    canonical_serialize(r)  # a node pickles as its content, caches left out
    assert pickle.loads(pickle.dumps(r)) is r
    c = pickle.loads(pickle.dumps(cls("p | ~q")))
    assert c == cls("p | ~q") and hash(c) == hash(cls("p | ~q"))


def test_a_dropped_proof_leaves_the_intern_table():
    # atoms no other test uses, so no live proof shares these classes
    sp = lindenbaum_extend({cls("gc_a")}, 0)
    d = ded(sp, "gc_a", "gc_a | gc_b", "gc_a | gc_b | gc_c", "gc_a | gc_b")
    r = build_proof(d, induce_interpretation(d))
    s = replace_subproof(parse_proof(canonical_serialize(r)), cls("gc_a | gc_b"), r, sp)
    digest(s), normalize(ProofNode(TAUTOLOGY, frozenset({s}))), premises(s)
    assert any("gc_a" in key[0].support for key in _NODES)
    del r, s
    # the caches make no reference cycle, so reference counts free it all
    assert not any("gc_a" in key[0].support for key in _NODES)
    gc.collect()
    assert not any("gc_a" in key[0].support for key in _NODES)


def test_digest_hex_stable():
    r = ProofNode(TAUTOLOGY)
    assert digest_hex(r) == digest(r).hex()
    assert len(digest_hex(r)) == 64


def _chain_proof(n):
    """The proof of ``p``, then ``p | q`` n - 1 times, under base ``p``:
    step u is justified by every step before it, so the proof holds n
    distinct nodes and its text doubles per step."""
    sp = lindenbaum_extend(frozenset({cls("p")}), 0)
    return prove(ded(sp, "p", *["p | q"] * (n - 1)))


def test_digest_refuses_a_built_proof_over_the_budget(monkeypatch):
    r = _chain_proof(22)
    assert text_length(r) == 29_360_127

    def no_text(*args):
        raise AssertionError("proof text built over the budget")

    monkeypatch.setattr("prooflab.proof.canonical_serialize", no_text)
    with pytest.raises(ResourceLimit) as exc:
        digest_hex(r)
    assert str(exc.value) == (
        "canonical proof text of 29360127 characters exceeds the budget of 16777216"
    )
    assert r._text is None and r._digest is None


def test_digest_of_the_21_step_chain():
    # the digest the CLI prints for eq on the file prove writes
    r = _chain_proof(21)
    assert text_length(r) == 14_680_063
    assert digest_hex(r) == "558f91f0b3ff923340c44f1d19480d4bb8748308de3526015f368e35ec41b960"


def test_pretty_class_is_the_rendered_representative():
    for c in all_classes(["p", "q", "r"]):
        expected = "1" if c == TAUTOLOGY else "0" if not c.support else render(representative(c))
        assert pretty_class(c) == expected
        assert _pretty_class_length(c) == len(expected)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_text_length_is_the_length_of_the_written_text(seed):
    # built proofs share their subtrees, parsed ones repeat equal
    # subtrees as separate objects, and add and replace rebuild both
    rng = random.Random(seed)
    atoms = ["p", "q", "x01", "a_1"]
    base = frozenset(cls(rng.choice(atoms)) for _ in range(rng.randint(0, 2)))
    sp = lindenbaum_extend(base, rng.randint(0, 1))
    d = random_valid_deduction(rng, sp, atoms, max_steps=7)
    built = build_proof(d, induce_interpretation(d))
    classes = [random_member_class(rng, sp, atoms) for _ in range(6)]
    a, b = (random_proof(rng, sp, classes, depth=3) for _ in range(2))
    proofs = [built, parse_proof(canonical_serialize(a)), add(a, b, sp)]
    if not built.is_premise:
        donor = ProofNode(built.conclusion, frozenset({a, b}))
        proofs.append(replace_subproof(built, built.conclusion, donor, sp))
    for r in proofs:
        assert proof_file_length(r) == len(proof_file_text(r))
        assert text_length(r, pretty=True) + 1 == len(pretty_proof(r) + "\n")


def _not_member_message(f, *args):
    try:
        f(*args)
    except NotMember as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_folds_match_tree_walks(seed):
    # the same input kinds as the length test, plus a tautology node
    # with children, which normalize turns into a premise
    rng = random.Random(seed)
    atoms = ["p", "q", "x01"]
    base = frozenset(cls(rng.choice(atoms)) for _ in range(rng.randint(0, 2)))
    sp = lindenbaum_extend(base, rng.randint(0, 1))
    other = lindenbaum_extend(frozenset({cls(rng.choice(["~p", "~q", "p & ~x01"]))}), 0)
    d = random_valid_deduction(rng, sp, atoms, max_steps=7)
    built = build_proof(d, induce_interpretation(d))
    classes = [random_member_class(rng, sp, atoms) for _ in range(6)]
    a, b = (random_proof(rng, sp, classes, depth=3) for _ in range(2))
    proofs = [
        built,
        parse_proof(canonical_serialize(a)),
        add(a, b, sp),
        ProofNode(a.conclusion, frozenset({ProofNode(TAUTOLOGY, frozenset({b})), built})),
    ]
    if not built.is_premise:
        donor = ProofNode(built.conclusion, frozenset({a, b}))
        proofs.append(replace_subproof(built, built.conclusion, donor, sp))
    for r in proofs:
        assert canonical_serialize(normalize(r)) == canonical_serialize(normalize_oracle(r))
        assert premises(r) == premises_oracle(r)
        candidates = premises_oracle(r) | {r.conclusion, a.conclusion}
        sigma = rng.choice(sorted(candidates, key=PropClass.text))
        for new in (None, b.children, frozenset({a})):
            expected = canonical_serialize(rewrite_oracle(r, sigma, new))
            assert canonical_serialize(_rewrite_at(r, sigma, new, None)) == expected
        for ext in (sp, other):
            expected = _not_member_message(require_members_oracle, r, ext)
            assert _not_member_message(_require_members, r, ext) == expected


def test_fold_visits_each_distinct_node_once(sp_p):
    # an 18-step chain proof: 18 distinct nodes, 2**17 root-to-leaf paths
    d = ded(sp_p, "p", *["p | q"] * 17)
    r = build_proof(d, induce_interpretation(d))
    visited = []

    def depth(node, value):
        visited.append(node)
        return 1 + max(map(value, node.children or ()), default=0)

    assert fold(r, depth) == 18
    assert len(visited) == len({id(n) for n in visited}) == 18
