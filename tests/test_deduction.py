import ast
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import prooflab
from prooflab import cli, deduction
from prooflab import (
    Deduction,
    InvalidDeduction,
    ResourceLimit,
    check_deduction,
    check_rule,
    classical_rules_report,
    class_and,
    class_iff,
    class_not,
    class_or,
    lindenbaum_extend,
)
from prooflab.spec import (
    Interpretation,
    canonicalize,
    gamma,
    induce_interpretation,
    nth_prime,
    omega,
    parse,
    validate_interpretation,
)
from prooflab.deduction import CLASSICAL_RULES, InferenceRule, reached_steps, reading_lines

from _oracles import (
    check_rule_oracle,
    deduction_valid_oracle,
    first_subset_oracle,
    member_oracle,
    omega_oracle,
    random_formula,
    random_valid_deduction,
    reading_oracle,
    step_valid_oracle,
)


def cls(text):
    return canonicalize(parse(text))


def ded(sp, *texts):
    return Deduction(tuple(cls(t) for t in texts), sp)


def test_check_deduction_collapsed_membership(sp_p):
    # over the extension every step of a valid deduction is a member, so
    # clause 'a' fires; the base tag records the literal-Σ provenance
    sp = lindenbaum_extend({cls("p & q")}, 0)
    report = check_deduction(ded(sp, "p & q", "p", "p | r"))
    assert report.valid
    assert report.first_invalid is None
    assert [s.clause for s in report.steps] == ["a", "a", "a"]
    assert [s.base for s in report.steps] == ["a", "b", "b"]


def test_check_deduction_clause_c(sp_p):
    # the extension is deductively closed, so prior-step clauses can only
    # label steps whose own justifiers are outside it: here step 1 is
    # invalid, and steps 2-3 are non-members reached from it
    d = ded(sp_p, "q", "q | s", "q | s | t")
    report = check_deduction(d)
    assert not report.valid
    assert report.first_invalid == 1
    assert report.steps[1].clause == "c"
    assert report.steps[1].subset == frozenset({1})
    assert report.steps[2].clause == "c"
    assert report.steps[2].subset == frozenset({1})


def test_member_step_reports_closure_only_base(sp_p):
    report = check_deduction(ded(sp_p, "~q"))
    assert report.steps[0].clause == "a"
    assert report.steps[0].base is None  # member via closure only


def test_check_deduction_invalid(sp_p):
    sp = lindenbaum_extend({cls("p")}, 0)  # witness q=0
    report = check_deduction(ded(sp, "q"))
    assert not report.valid
    assert report.first_invalid == 1
    assert report.steps[0].clause is None


def test_tautology_in_every_extension(sp_empty):
    report = check_deduction(ded(sp_empty, "p | ~p"))
    assert report.valid
    assert report.steps[0].clause == "a"


def test_prefixes_of_valid_deductions_are_valid(sp_p):
    rng = random.Random(5)
    for _ in range(40):
        d = random_valid_deduction(rng, sp_p, ["p", "q", "r"], max_steps=6)
        for u in range(1, len(d) + 1):
            assert check_deduction(Deduction(d.steps[:u], d.context)).valid


def test_check_monotone_in_sigma(sp_p):
    # enlarging the base never invalidates a prior-step justification
    d = ded(sp_p, "q", "q | s")
    before = check_deduction(d)
    assert before.steps[1].clause == "c"
    bigger = lindenbaum_extend(sp_p.base | {cls("q")}, 0)
    after = check_deduction(Deduction(d.steps, bigger))
    assert after.valid
    assert after.steps[1].valid


def test_omega_examples(sp_pq):
    d = ded(sp_pq, "p", "q", "p & q")
    assert omega(d, 3) == frozenset({frozenset({1, 2})})
    assert omega(d, 1) == frozenset()
    d2 = ded(sp_pq, "p", "p | q")
    assert omega(d2, 2) == frozenset({frozenset({1})})
    for u in (0, 3):
        with pytest.raises(ValueError, match=f"step index {u} out of range"):
            omega(d2, u)


def test_omega_matches_brute_force(sp_p):
    rng = random.Random(9)
    for _ in range(50):
        d = random_valid_deduction(rng, sp_p, ["p", "q", "r"], max_steps=6)
        for u in range(1, len(d) + 1):
            assert omega(d, u) == frozenset(omega_oracle(d, u))


def test_resource_limit(sp_pq):
    # only omega enumerates subsets, so only omega has a step cap
    steps = tuple(cls("p") for _ in range(6)) + (cls("~q"),)
    d = Deduction(steps, sp_pq)
    with pytest.raises(ResourceLimit):
        omega(d, 7, max_prior=5)
    assert omega(d, 6, max_prior=5)
    assert check_deduction(d).first_invalid == 7
    # prefix conjunctions take O(n^2) combines: 200 steps need no cap
    long = Deduction(tuple(cls(t) for t in ("p", "p | q") * 100), sp_pq)
    assert check_deduction(long).valid
    assignment = induce_interpretation(long).assignment
    assert assignment[1] == 0
    assert all(assignment[u] == frozenset(range(1, u)) for u in range(2, 201))


def test_reading_needs_no_check_report(sp_p, monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("check report built for a reading")

    monkeypatch.setattr("prooflab.deduction.check_deduction", banned)
    phi = induce_interpretation(ded(sp_p, "p", "p | q", "p | q | r"))
    assert phi.assignment == {1: 0, 2: frozenset({1}), 3: frozenset({1, 2})}
    # the first step neither reached nor a member, as check names it
    with pytest.raises(InvalidDeduction, match="^step 2 is not justified$"):
        induce_interpretation(ded(sp_p, "p", "q", "q & r", "s"))


def test_nth_prime_and_gamma():
    assert [nth_prime(j) for j in range(1, 9)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert gamma({1, 2}) == 6
    assert gamma({1, 3}) == 10
    assert gamma({4}) == 7
    with pytest.raises(ValueError):
        gamma(set())
    with pytest.raises(ValueError, match="prime index must be positive"):
        nth_prime(0)


def test_gamma_injective_up_to_twelve():
    products = {1}
    for size in range(1, 13):
        for combo in combinations(range(1, 13), size):
            products.add(gamma(combo))
    assert len(products) == 4096


def test_induced_interpretation_example(sp_p):
    d = ded(sp_p, "p", "p | q", "p | q | r")
    phi = induce_interpretation(d)
    assert phi.assignment == {1: 0, 2: frozenset({1}), 3: frozenset({1, 2})}
    assert validate_interpretation(d, phi)


def test_induced_interpretation_single_premise():
    sp = lindenbaum_extend({cls("p & q")}, 0)
    d = ded(sp, "p & q")
    assert induce_interpretation(d).assignment == {1: 0}


def test_induced_interpretation_takes_full_prefix(sp_p):
    # the and-condition is superset-monotone, so whenever any subset
    # justifies a step the whole prefix does, and the prime product is
    # maximal there
    d = ded(sp_p, "p", "~q", "p | s")
    phi = induce_interpretation(d)
    assert phi.assignment[3] == frozenset({1, 2})
    assert phi.assignment[2] == 0  # visited, but nothing reaches ~q


def test_induced_interpretation_unvisited_steps_are_premises(sp_p):
    # final step has empty omega: nothing is visited, everything is a premise
    d = ded(sp_p, "p", "~q")
    assert induce_interpretation(d).assignment == {1: 0, 2: 0}


def test_check_and_reading_skip_the_reference_spec(sp_p, monkeypatch):
    # omega, gamma and the subset enumeration are the reference only
    def banned(*args, **kwargs):
        raise AssertionError("reference spec called on the fast path")

    for name in ("_subsets", "omega", "gamma"):
        monkeypatch.setattr(f"prooflab.spec.{name}", banned)
    # the first set in ascending bitmask order: {1,2} for q & r, and {2}
    # (bitmask 2) before {1,2} or {3} for r | t
    report = check_deduction(ded(sp_p, "q", "r", "q & r", "p", "r | t"))
    assert [s.subset for s in report.steps] == [
        None, None, frozenset({1, 2}), None, frozenset({2})
    ]
    phi = induce_interpretation(ded(sp_p, "p", "p | q", "p | q | r"))
    assert phi.assignment == {1: 0, 2: frozenset({1}), 3: frozenset({1, 2})}


def test_induce_rejects_invalid(sp_p):
    sp = lindenbaum_extend({cls("p")}, 0)
    with pytest.raises(InvalidDeduction):
        induce_interpretation(ded(sp, "q"))


def test_induced_interpretations_always_validate(sp_p):
    rng = random.Random(21)
    for _ in range(60):
        d = random_valid_deduction(rng, sp_p, ["p", "q", "r", "s"], max_steps=6)
        assert validate_interpretation(d, induce_interpretation(d))


def test_validate_interpretation_rejections(sp_p):
    d = ded(sp_p, "q", "q | s")
    assert not validate_interpretation(d, Interpretation({1: 0, 2: 0}))  # non-member premise
    assert not validate_interpretation(d, Interpretation({1: 0}))  # wrong domain
    assert not validate_interpretation(d, Interpretation({1: 0, 2: frozenset({2})}))
    d2 = ded(sp_p, "p", "~q & ~p")
    assert not validate_interpretation(d2, Interpretation({1: 0, 2: frozenset({1})}))
    # accepting case: the index set reaches the step by conjunction
    d3 = ded(sp_p, "p", "p | s")
    assert validate_interpretation(d3, Interpretation({1: 0, 2: frozenset({1})}))
    # past a member premise: an empty index set, or one naming the step
    # itself or a later one
    for bad in (frozenset(), frozenset({2}), frozenset({1, 3})):
        assert not validate_interpretation(d3, Interpretation({1: 0, 2: bad}))


def test_deduction_needs_a_step(sp_p):
    with pytest.raises(ValueError, match="a deduction needs at least one step"):
        Deduction((), sp_p)


def test_checker_matches_oracle_on_mutants(sp_p):
    rng = random.Random(13)
    for trial in range(60):
        d = random_valid_deduction(rng, sp_p, ["p", "q", "r"], max_steps=5)
        steps = list(d.steps)
        steps[rng.randrange(len(steps))] = canonicalize(
            random_formula(rng, ["p", "q", "r"])
        )
        mutant = Deduction(tuple(steps), sp_p)
        report = check_deduction(mutant)
        assert report.valid == deduction_valid_oracle(mutant)
        for s in report.steps:
            assert s.valid == step_valid_oracle(mutant, s.index)


def _set_text(h):
    return "{%s}" % ",".join(map(str, sorted(h)))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6), st.integers(0, 2))
def test_check_and_reading_match_subset_oracles(rng, n_atoms, inserted):
    # valid deductions of at most 8 steps over at most 6 atoms, with up to
    # two non-member steps inserted anywhere
    atoms = ["p", "q", "r", "s", "t", "u"][:n_atoms]
    literals = [a if rng.random() < 0.5 else "~" + a for a in atoms]
    base = frozenset(cls(t) for t in rng.sample(literals, rng.randint(0, n_atoms)))
    sp = lindenbaum_extend(base, rng.randint(0, 1))
    steps = list(random_valid_deduction(rng, sp, atoms, max_steps=8 - inserted).steps)
    for _ in range(inserted):
        c = canonicalize(random_formula(rng, atoms))
        steps.insert(rng.randint(0, len(steps)), class_not(c) if sp.member(c) else c)
    d = Deduction(tuple(steps), sp)

    expected = []
    for i in range(1, len(d) + 1):
        if member_oracle(sp, d.step(i)):
            row = ["a", "-"]
        else:
            found = first_subset_oracle(d, i)
            row = [found[0], _set_text(found[1])] if found else ["INVALID", "-"]
        expected.append([str(i), *row])
    report = check_deduction(d)
    assert [line.split()[:3] for line in report.lines()[1:]] == expected

    if not report.valid:
        with pytest.raises(InvalidDeduction):
            reached_steps(d)
        return
    reading = reading_oracle(d)
    assert induce_interpretation(d).assignment == reading
    assert list(reading_lines(reached_steps(d))) == [
        f"{u}: 0" if reading[u] == 0 else f"{u}: {_set_text(reading[u])}"
        for u in sorted(reading)
    ]


def test_classical_rules_all_valid():
    report = classical_rules_report(atom_budget=2)
    assert report.ok
    assert len(report.laws) == 10
    assert {r.name for r in report.laws} == {
        "modus-ponens",
        "and-elim-left",
        "and-elim-right",
        "or-intro-left",
        "or-intro-right",
        "pair-or",
        "disjunctive-syllogism",
        "modus-tollens",
        "double-neg-intro",
        "double-neg-elim",
    }
    for r in report.laws:
        rule = next(x for x in CLASSICAL_RULES if x.name == r.name)
        assert r.checked == 16 ** rule.arity


def test_injected_wrong_rule_detected():
    wrong = InferenceRule("broken", 2, lambda a, b: ((a,), class_and(a, b)))
    result = check_rule(wrong, atom_budget=2)
    assert not result.ok
    assert result.failures
    assert result.failures == check_rule_oracle(wrong, 2)[2]


def test_rules_verdict_lines_name_an_invalid_rule(capsys, monkeypatch):
    # the verdict bytes `rules` prints, with an invalid rule in the table
    wrong = InferenceRule("broken", 2, lambda a, b: ((a,), class_and(a, b)))
    monkeypatch.setattr(deduction, "CLASSICAL_RULES", (wrong, *CLASSICAL_RULES[:2]))
    assert cli.run(["rules", "--atoms", "2"]) == 0
    assert capsys.readouterr().out == (
        "broken: INVALID (checked 256)\n"
        "modus-ponens: valid (checked 256)\n"
        "and-elim-left: valid (checked 256)\n"
    )


_SCHEMA_OPS = {"and": class_and, "or": class_or, "iff": class_iff}


def _schema_terms(arity):
    """Terms over metavariables 0..arity-1: an index, or a tuple naming
    a class operation and its operand terms."""
    return st.recursive(
        st.integers(0, arity - 1),
        lambda sub: st.one_of(
            st.tuples(st.just("not"), sub),
            st.tuples(st.sampled_from(sorted(_SCHEMA_OPS)), sub, sub),
        ),
        max_leaves=5,
    )


def _apply(term, xs):
    if isinstance(term, int):
        return xs[term]
    if term[0] == "not":
        return class_not(_apply(term[1], xs))
    return _SCHEMA_OPS[term[0]](_apply(term[1], xs), _apply(term[2], xs))


@st.composite
def _schemas(draw):
    """(arity, premise terms, conclusion term); about half are valid by
    construction, since a premise entails its disjunction with anything."""
    arity = draw(st.integers(1, 2))
    terms = _schema_terms(arity)
    premises = tuple(draw(st.lists(terms, min_size=1, max_size=3)))
    conclusion = draw(terms)
    if draw(st.booleans()):
        conclusion = ("or", draw(st.sampled_from(premises)), conclusion)
    return arity, premises, conclusion


def _schema_rule(schema):
    arity, premises, conclusion = schema
    return InferenceRule(
        "schema",
        arity,
        lambda *xs: (tuple(_apply(t, xs) for t in premises), _apply(conclusion, xs)),
    )


@settings(max_examples=80, deadline=None)
@given(_schemas(), st.integers(1, 2))
@example((2, (0, ("or", ("not", 0), 1)), 1), 3)  # modus ponens
@example((2, (0,), ("and", 0, 1)), 3)  # the injected rule
@example((1, (("iff", 0, 0),), ("not", 0)), 3)
def test_rules_decided_on_the_schema_match_every_instance(schema, atoms):
    result = check_rule(_schema_rule(schema), atom_budget=atoms)
    assert (result.name, result.checked, result.failures) == check_rule_oracle(
        _schema_rule(schema), atoms
    )


def test_classical_rules_match_every_instance():
    for rule in CLASSICAL_RULES:
        for atoms in (1, 2):
            result = check_rule(rule, atom_budget=atoms)
            assert (result.name, result.checked, result.failures) == check_rule_oracle(
                rule, atoms
            )


def test_rule_budget_guard():
    with pytest.raises(ValueError):
        check_rule(CLASSICAL_RULES[0], atom_budget=4)


# Linux keeps a process's peak RSS across exec, so a child forked from
# the test runner would start at the runner's peak: a fresh interpreter
# forks the command instead, and prints its exit code and ru_maxrss
WAIT4 = """
import os, subprocess, sys

with open(sys.argv[1], "wb") as out:
    child = subprocess.Popen(sys.argv[2:], stdout=out)
    _, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for the child's peak RSS")
def test_interpret_writes_a_long_reading_in_small_memory(tmp_path):
    # under base p, p repeated 3,000 times reaches every step but the
    # first, so the reading spells out 4.5 million indices (19.7 MB of
    # text); interpret writes it line by line from one flag per step,
    # so it never holds the index sets
    n = 3000
    (tmp_path / "base.txt").write_text("p\n")
    (tmp_path / "d.txt").write_text("premises: base.txt\n" + "p\n" * n)
    expected = hashlib.sha256(b"1: 0\n")
    for u in range(2, n + 1):
        expected.update(b"%d: {%s}\n" % (u, ",".join(map(str, range(1, u))).encode()))
    src = str(Path(prooflab.__file__).resolve().parent.parent)
    out = tmp_path / "out.txt"
    argv = [sys.executable, "-m", "prooflab.cli", "interpret", str(tmp_path / "d.txt")]
    done = subprocess.run(
        [sys.executable, "-c", WAIT4, str(out), *argv],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    code, maxrss = map(int, done.stdout.split())
    assert code == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).digest() == expected.digest()
    # ru_maxrss is in kilobytes, and in bytes on macOS
    peak_mb = maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"


BASE_TAG_CALLS = """
import prooflab.deduction as deduction
from prooflab import Deduction, canonicalize_text, check_deduction, lindenbaum_extend

calls = []
real = deduction.entails


def entails(a, b):
    calls.append((a.text(), b.text()))
    return real(a, b)


deduction.entails = entails
base = frozenset(map(canonicalize_text, ["p", "q", "r", "s", "p & q", "t | u"]))
steps = tuple(map(canonicalize_text, ["p | q", "q | s", "r | t", "~v"]))
report = check_deduction(Deduction(steps, lindenbaum_extend(base, 0)))
print(report.lines())
print(calls)
"""


def test_base_tags_call_entails_in_the_same_order_on_every_run():
    # each step is a member outside the base, so its tag scans the base
    # for an element that entails it; ~v is entailed by none of them
    src = str(Path(prooflab.__file__).resolve().parent.parent)
    runs = {
        subprocess.run(
            [sys.executable, "-c", BASE_TAG_CALLS],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(8)
    }
    assert len(runs) == 1
    report, calls = runs.pop().splitlines()
    assert [line[-1] for line in ast.literal_eval(report)[1:]] == ["b", "b", "b", "-"]
    # the base in class-text order: "[p,q;" sorts before "[p;"
    order = ["[p,q;0001]", "[p;01]", "[q;01]", "[r;01]", "[s;01]", "[t,u;0111]"]
    assert ast.literal_eval(calls) == [
        ("[p,q;0001]", "[p,q;0111]"),
        ("[p,q;0001]", "[q,s;0111]"),
        *((g, "[r,t;0111]") for g in order[:4]),
        *((g, "[v;10]") for g in order),
    ]
