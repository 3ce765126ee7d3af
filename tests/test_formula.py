import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from prooflab import (
    And,
    Atom,
    Not,
    Or,
    ParseError,
    ResourceLimit,
    Valuation,
    atoms_of,
    canonicalize,
    canonicalize_text,
    evaluate,
    level,
    parse,
    render,
)
from prooflab.formula import MAX_DEPTH

from _oracles import (
    all_assignments,
    eval_bool,
    parse_climbing_oracle,
    parse_oracle,
    subtree_number,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def test_parse_atoms_and_negation():
    assert parse("p | ~p") == Or(p, Not(p))
    assert parse("foo_1") == Atom("foo_1")
    assert parse("~~p") == Not(Not(p))


def test_parse_precedence():
    # ~ binds tighter than &, which binds tighter than |
    assert parse("p & q | r") == Or(And(p, q), r)
    assert parse("p | q & r") == Or(p, And(q, r))
    assert parse("~p & q") == And(Not(p), q)
    assert parse("p & (q | r)") == And(p, Or(q, r))


def test_parse_left_associativity():
    assert parse("p | q | r") == Or(Or(p, q), r)
    assert parse("p & q & r") == And(And(p, q), r)


def test_iff_desugars():
    assert parse("p <-> q") == And(Or(Not(p), q), Or(Not(q), p))
    # sugar only: the AST never contains a biconditional node
    assert parse("p <-> q <-> r") == parse("(p <-> q) <-> r")


@pytest.mark.parametrize(
    "text,pos",
    [
        ("p &", 3), ("", 0), ("(p | q", 6), ("p ? q", 2), ("P", 0), ("p | | q", 4),
        # inside parentheses and under "~"
        ("(p ? q)", 3), ("~)", 1), ("~~~", 3), ("(p q", 3), ("p & (q", 6), ("(p))", 3),
        ("~p q", 3),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.position == pos


def test_parse_depth_limit():
    deep = MAX_DEPTH + 1
    # at the limit: open "~" and "(", and the level of a left fold
    assert level(parse("~" * MAX_DEPTH + "p")) == MAX_DEPTH
    assert parse("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH) == p
    assert level(parse(" & ".join(["p"] * deep))) == MAX_DEPTH
    # one past it, the error points at the token that goes too deep
    for text, pos in [
        ("~" * deep + "p", MAX_DEPTH),
        ("(" * deep + "p" + ")" * deep, MAX_DEPTH),
        ("~(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, MAX_DEPTH),
        (" & ".join(["p"] * (deep + 1)), 4 * deep - 2),
        (" | ".join(["p"] * (deep + 1)), 4 * deep - 2),
        ("~(" + " | ".join(["p"] * deep) + ")", 0),
        (" <-> ".join(["p"] * 35), 6 * 34 - 4),
    ]:
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH} levels") as exc:
            parse(text)
        assert exc.value.position == pos, text[:12]


def test_iff_chain_walks_each_shared_subtree_once():
    # every <-> shares both operands, so a tree walk of this 30-atom
    # chain would visit about 2**30 nodes
    names = [f"x{i:02d}" for i in range(30)]
    f = parse(" <-> ".join(names))
    assert atoms_of(f) == set(names)
    assert level(f) == 3 * 29
    # two atoms keep the tables small; a tree walk still visits about 2**33 nodes
    assert canonicalize(parse(" <-> ".join(["p", "q"] * 17))).text() == "[p,q;1001]"


def test_render_examples():
    assert render(p) == "p"
    assert render(Not(And(p, q))) == "~(p & q)"
    assert render(Or(p, Or(q, r))) == "p | (q | r)"
    assert render(Or(Or(p, q), r)) == "p | q | r"


def test_atom_name_grammar():
    with pytest.raises(ValueError):
        Atom("Q")
    with pytest.raises(ValueError):
        Atom("1p")


def test_evaluate():
    assert evaluate(parse("p | ~p"), Valuation({})) == 1
    assert evaluate(parse("p | ~p"), Valuation({"p": 1})) == 1
    assert evaluate(parse("p & q"), Valuation({"p": 1, "q": 0})) == 0
    # oracle: enumerate the 4-row table of ~(p & q) by hand
    f = parse("~(p & q)")
    for a in all_assignments(["p", "q"]):
        assert evaluate(f, Valuation(a)) == eval_bool(f, a)
    assert evaluate(f, Valuation({"p": 1, "q": 0})) == 1


def test_valuation_default_bit():
    assert evaluate(parse("z9"), Valuation({}, default=1)) == 1
    assert evaluate(parse("z9"), Valuation({}, default=0)) == 0


def _depth(f):
    if isinstance(f, Atom):
        return 0
    if isinstance(f, Not):
        return 1 + _depth(f.child)
    return 1 + max(_depth(f.left), _depth(f.right))


def test_level():
    assert level(p) == 0
    assert level(Not(p)) == 1
    assert level(And(Not(p), q)) == 2
    for text in ("p & q | ~r", "~~~p", "(p | q) & (q | r) & ~p"):
        f = parse(text)
        assert level(f) == _depth(f)


def iff(a, b):
    """``a <-> b`` as the parser builds it: both operands shared."""
    return And(Or(Not(a), b), Or(Not(b), a))


formulas = st.recursive(
    st.sampled_from("pqrs").map(Atom),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda ab: And(*ab)),
        st.tuples(kids, kids).map(lambda ab: Or(*ab)),
        st.tuples(kids, kids).map(lambda ab: iff(*ab)),
    ),
    max_leaves=12,
)


@given(formulas)
def test_render_parse_round_trip(f):
    assert parse(render(f)) == f


@given(formulas, st.integers(0, 15))
def test_render_preserves_semantics(f, m):
    a = {name: (m >> j) & 1 for j, name in enumerate("pqrs")}
    assert eval_bool(parse(render(f)), a) == eval_bool(f, a)


@given(formulas, st.integers(0, 7), st.integers(0, 1))
def test_walks_match_tree_walks(f, m, default):
    # s is left to the default bit
    a = {name: (m >> j) & 1 for j, name in enumerate("pqr")}
    assert evaluate(f, Valuation(a, default)) == eval_bool(f, a, default)
    assert level(f) == _depth(f)
    assert atoms_of(f) == set(re.findall("[pqrs]", render(f)))
    assert canonicalize(f) == canonicalize_text(render(f))


def test_evaluate_reads_each_atom_once(monkeypatch):
    # a tree walk of this chain reads about 2**20 bits
    names = [f"x{i:02d}" for i in range(20)]
    f = parse(" <-> ".join(names))
    reads = []
    bit = Valuation.bit
    monkeypatch.setattr(Valuation, "bit", lambda v, name: reads.append(name) or bit(v, name))
    assert evaluate(f, Valuation({}, 1)) == 1
    assert sorted(reads) == names
    # one false operand makes the whole chain false
    assert evaluate(f, Valuation({"x07": 0}, 1)) == 0
    assert len(reads) == 40


def test_fold_rejects_foreign_nodes():
    for walk in (render, level, atoms_of, canonicalize, lambda f: evaluate(f, Valuation({}))):
        for f in (And(p, "q"), Not(Or(p, None)), iff(p, 3)):
            with pytest.raises(TypeError, match="not a formula: "):
                walk(f)


# --- the text path against the reference path ----------------------------

def outcome(fn, *args):
    """The class text, or the error kind and message (with position)."""
    try:
        return "ok", fn(*args).text()
    except (ParseError, ResourceLimit) as exc:
        return type(exc).__name__, str(exc)


def reference(text, cap):
    return canonicalize(parse(text), cap)


def chain(n, op=" <-> "):
    return op.join(f"x{i:02d}" for i in range(n))


# pieces that mutations splice in: tokens, their fragments, characters
# outside the grammar (upper case, digits, Unicode space and letters)
HOSTILE = [
    "~", "&", "|", "(", ")", "<->", "<-", "->", "<", "-", ">", " ", "\t", "\n",
    "\u2003", "P", "1", "_", "x9", "\u00e9", "\x00", "p", "q_1", "((", "))", "~~",
]

EDGE_TEXTS = [
    "", " ", "p", "~" * MAX_DEPTH + "p", "~" * (MAX_DEPTH + 1) + "p",
    "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
    "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1),
    "~(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
    " & ".join(["p"] * (MAX_DEPTH + 1)), " & ".join(["p"] * (MAX_DEPTH + 2)),
    " | ".join(["p"] * (MAX_DEPTH + 1)) + " & q", "~(" + " | ".join(["p"] * 101) + ")",
    " <-> ".join(["p"] * 34), " <-> ".join(["p"] * 35), " <-> ".join(["p", "q"] * 17),
    chain(3), chain(16), chain(17), chain(20), chain(17) + " &", chain(17) + " & (",
    "(" + chain(17, " | ") + " Q", chain(18, " & ") + ")", "~" * 101 + chain(17, " | "),
    "p )", "(p", "p q", "p ~ q", "p <- q", "p<->q<->~r", "p & | q", " p ",
]


@pytest.mark.parametrize("text", EDGE_TEXTS)
def test_text_path_matches_reference_on_edge_texts(text):
    for cap in range(17):
        assert outcome(canonicalize_text, text, cap) == outcome(reference, text, cap)


def test_over_cap_syntax_error_is_a_parse_error():
    # the grammar runs before the cap, so malformed input names its fault
    for text in (chain(17) + " &", "(" + chain(20, " | "), chain(17, " & ") + " ? p"):
        with pytest.raises(ParseError):
            canonicalize_text(text)
    with pytest.raises(ResourceLimit, match="17 atoms exceed the support cap of 16"):
        canonicalize_text(chain(17))


@st.composite
def mutated_formulas(draw):
    text = draw(st.one_of(
        formulas.map(render),
        st.integers(1, 40).map(chain),
        st.builds(lambda f, g: f"{render(f)} <-> {render(g)}", formulas, formulas),
        st.integers(95, 105).map(lambda k: "~" * k + "p"),
        st.integers(95, 105).map(lambda k: "(" * k + "p" + ")" * k),
        st.integers(95, 105).map(lambda k: " & ".join(["p"] * k)),
    ))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 3))
        piece = draw(st.sampled_from(HOSTILE + [""]))
        text = text[:at] + piece + text[at + cut:]
    return text


@settings(max_examples=400, deadline=None)
@given(mutated_formulas(), st.integers(0, 16))
def test_text_path_matches_reference(text, cap):
    assert outcome(canonicalize_text, text, cap) == outcome(reference, text, cap)


# --- the precedence loop against the one-method-per-rule grammar ---------

BINARY_OPS = ["&", "|", "<->"]


@st.composite
def long_chains(draw):
    """95 to 105 atoms joined by one operator, or by a mix of all three:
    most go past MAX_DEPTH."""
    k = draw(st.integers(95, 105))
    ops = draw(st.sampled_from([[op] for op in BINARY_OPS] + [BINARY_OPS]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return rng.choice("pq") + "".join(f" {rng.choice(ops)} {rng.choice('pq')}" for _ in range(k - 1))


def grammar_outcome(text, cap, parse_text, class_of_text, table):
    """The AST as a subtree number in ``table`` (or the ParseError with
    its position), and the class's outcome."""
    try:
        ast = subtree_number(parse_text(text), table)
    except ParseError as exc:
        ast = "ParseError", str(exc), exc.position
    return ast, outcome(class_of_text, text, cap)


def reference_grammar_class(text, cap):
    return canonicalize(parse_oracle(text), cap)


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_formulas(), long_chains()), st.integers(0, 16))
# a depth error at each of &, |, <->, ~ and (
@example(" & ".join(["p"] * 102), 16)
@example(" | ".join(["q"] * 102), 16)
@example(" <-> ".join(["p"] * 35), 16)
@example("~" * 101 + "p", 16)
@example("(" * 101 + "p" + ")" * 101, 16)
def test_grammar_matches_reference_grammar(text, cap):
    table = {}
    assert grammar_outcome(text, cap, parse, canonicalize_text, table) == grammar_outcome(
        text, cap, parse_oracle, reference_grammar_class, table
    )


def climbing_class(text, cap):
    return canonicalize(parse_climbing_oracle(text), cap)


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_formulas(), long_chains()), st.integers(0, 16))
# each error kind inside parentheses and under "~"
@example("(p ? q)", 16)
@example("~?", 16)
@example("(p &)", 16)
@example("~)", 16)
@example("~~~", 16)
@example("(p q", 16)
@example("p & (q", 16)
@example("~(p", 16)
@example("(p))", 16)
@example("~p q", 16)
@example("(" + "~" * 100 + "p)", 16)
@example("~(" + " & ".join(["p"] * 101) + ")", 16)
@example("(" + chain(17) + " q", 16)
def test_loop_matches_precedence_climbing(text, cap):
    # the loop against the precedence-climbing loop it replaced
    table = {}
    assert grammar_outcome(text, cap, parse, canonicalize_text, table) == grammar_outcome(
        text, cap, parse_climbing_oracle, climbing_class, table
    )


def test_reading_files_skips_the_reference_path(tmp_path, monkeypatch):
    # parse and canonicalize are the library API and the reference only
    from prooflab import files, proof_eq

    sigma = tmp_path / "s.txt"
    sigma.write_text("p\nq | r <-> s\n")
    ded = tmp_path / "d.txt"
    ded.write_text("premises: s.txt\np\np | ~q\n")
    expected = {cls.text() for cls in (reference("p", 16), reference("q | r <-> s", 16))}
    proof = "format: 1\n{[p,q;0111],{{[p;01],{0}}}}\n"

    def banned(*args, **kwargs):
        raise AssertionError("reference path called while reading a file")

    for module in ("formula", "propclass", "files"):
        for name in ("parse", "canonicalize"):
            monkeypatch.setattr(f"prooflab.{module}.{name}", banned, raising=False)
    assert {c.text() for c in files.read_sigma_file(str(sigma))} == expected
    assert {c.text() for c in files.read_sigma_text(sigma.read_text())} == expected
    steps, premises = files.read_deduction_file(str(ded))
    assert [c.text() for c in steps] == ["[p;01]", "[p,q;1011]"]
    assert premises == str(tmp_path / "s.txt")
    assert files.read_formula_arg("~p & q").text() == "[p,q;0100]"
    assert proof_eq(files.read_proof_text(proof), files.read_proof_text(proof))
