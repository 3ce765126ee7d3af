import pytest
from hypothesis import given, strategies as st

from prooflab import (
    And,
    Atom,
    Not,
    Or,
    ParseError,
    Valuation,
    atoms_of,
    canonicalize,
    evaluate,
    level,
    parse,
    render,
)
from prooflab.formula import MAX_DEPTH

from _oracles import all_assignments, eval_bool

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
    [("p &", 3), ("", 0), ("(p | q", 6), ("p ? q", 2), ("P", 0), ("p | | q", 4)],
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


formulas = st.recursive(
    st.sampled_from("pqrs").map(Atom),
    lambda kids: st.one_of(
        kids.map(Not),
        st.tuples(kids, kids).map(lambda ab: And(*ab)),
        st.tuples(kids, kids).map(lambda ab: Or(*ab)),
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
