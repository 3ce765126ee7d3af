import argparse
import hashlib
import io
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import prooflab
from prooflab import (
    ParseError,
    ProofNode,
    canonical_serialize,
    canonicalize,
    class_from_text,
    digest_hex,
    format_path,
    lindenbaum_extend,
    parse,
    proof_eq,
    replace_subproof,
)
from prooflab import cli
from prooflab.cli import _build_parser, _table_args, main, run
from prooflab.files import (
    proof_file_length,
    proof_file_text,
    read_deduction_file,
    read_proof_file,
    read_proof_text,
    read_sigma_file,
    write_proof_file,
)
from prooflab.formula import MAX_DEPTH

from test_proof import nested_proof_text


def cls(text):
    return canonicalize(parse(text))


def node(text, *kids):
    return ProofNode(cls(text), frozenset(kids) if kids else None)


@pytest.fixture
def sigma_file(tmp_path):
    path = tmp_path / "sigma.txt"
    path.write_text("# base set\np\nq | r\n\n")
    return str(path)


@pytest.fixture
def ded_file(tmp_path):
    path = tmp_path / "ded.txt"
    path.write_text("p\np | q\np | q | r\n")
    return str(path)


def test_read_sigma(sigma_file):
    base = read_sigma_file(sigma_file)
    assert base == frozenset({cls("p"), cls("q | r")})


def test_read_deduction_with_directive(tmp_path, sigma_file):
    ded = tmp_path / "d.txt"
    ded.write_text(f"premises: {sigma_file}\n# comment\np\np | s\n")
    steps, premises_path = read_deduction_file(str(ded))
    assert steps == [cls("p"), cls("p | s")]
    assert premises_path.endswith("sigma.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ParseError):
        read_deduction_file(str(empty))


# the line boundaries of str.splitlines other than LF, CR LF and CR
UNICODE_LINE_BOUNDARIES = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", UNICODE_LINE_BOUNDARIES)
def test_unicode_line_boundaries_do_not_end_a_line(capsys, tmp_path, sep):
    base = tmp_path / "base.txt"
    base.write_text(f"p{sep}q\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected eof, found 'q'"):
        read_sigma_file(str(base))
    ded = tmp_path / "ded.txt"
    ded.write_text(f"p\np | q{sep}r\np | r\n", encoding="utf-8")
    with pytest.raises(ParseError, match="expected eof, found 'r'"):
        read_deduction_file(str(ded))
    # the CLI reads the base line as one malformed formula, not as p and q
    ded.write_text("p\n")
    code, out, err = run_cli(capsys, "check", str(ded), "--sigma", str(base))
    assert (code, out, err) == (1, "", "error: ParseError: expected eof, found 'q' (at position 2)\n")


def test_lines_end_at_lf_crlf_and_cr():
    from prooflab.files import read_sigma_text

    assert read_sigma_text("p\r\nq\rr\n\r\n# s\r") == frozenset({cls("p"), cls("q"), cls("r")})


def test_proof_lines_end_at_lf_crlf_and_cr_only():
    # str.splitlines would end the version line at U+2028 and join the
    # body across it
    with pytest.raises(ParseError, match="must start with 'format: 1'"):
        read_proof_text("format: 1\u2028{[p;01],{0}}\n")
    with pytest.raises(ParseError):
        read_proof_text("format: 1\n{[p;01],\u2028{0}}\n")
    text = "format: 1\n{[p,q;0111],\n{{[p;01],\n{0}}}}\n"
    reads = [read_proof_text(text.replace("\n", end)) for end in ("\n", "\r\n", "\r")]
    assert reads[0] == reads[1] == reads[2] == node("p | q", node("p"))


def test_proof_file_round_trip(tmp_path):
    tree = node("p | q", node("p"), node("q", node("p & q")))
    path = tmp_path / "a.proof"
    write_proof_file(str(path), tree)
    text1 = path.read_text()
    assert text1.startswith("format: 1\n")
    again = read_proof_file(str(path))
    assert proof_eq(again, tree)
    # write -> read -> write is byte-identical
    assert proof_file_text(again) == text1
    with pytest.raises(ParseError):
        read_proof_text("format: 2\n{[p;01],{0}}")
    with pytest.raises(ParseError):
        read_proof_text("{[p;01],{0}}")


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv, env=None):
    """``python -m prooflab.cli`` in a fresh interpreter, in this
    environment plus ``env``."""
    src = str(Path(prooflab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "prooflab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **(env or {}), "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_parse(capsys):
    code, out, _ = run_cli(capsys, "parse", "p|~p", "--format", "canonical")
    assert code == 0
    assert out == "[;1]\n"
    code, out, _ = run_cli(capsys, "parse", "p & (q | ~q)")
    assert out == "[p;01]\n"
    code, out, _ = run_cli(capsys, "parse", "p & ~q | ~p & q", "--format", "pretty")
    assert code == 0
    assert out == "~p & q | p & ~q\n"



def test_cli_pretty_dnf_of_ten_atoms(capsys):
    # 1,023 minterms: no recursion depth grows with the minterm count
    names = [f"x{i}" for i in range(10)]
    code, out, err = run_cli(capsys, "parse", " | ".join(names), "--format", "pretty")
    assert (code, err) == (0, "")
    minterms = out.rstrip("\n").split(" | ")
    assert len(minterms) == 1023
    assert minterms[0] == " & ".join(f"~{n}" for n in names[:-1]) + " & x9"
    assert minterms[-1] == " & ".join(names)


def test_cli_parse_pretty_checks_the_text_budget_before_building_text(capsys, monkeypatch):
    names = [f"x{i:02}" for i in range(18)]
    formula = " | ".join(names)
    # 2**16 - 1 minterms of sixteen 3-character atoms fit the budget
    code, out, err = run_cli(capsys, "parse", " | ".join(names[:16]), "--format", "pretty")
    assert (code, err, len(out)) == (0, "", 6815630)

    def no_text(*args, **kwargs):
        raise AssertionError("class text built over the budget")

    monkeypatch.setattr("prooflab.cli.pretty_class", no_text)
    code, out, err = run_cli(capsys, "parse", formula, "--format", "pretty", "--atom-cap", "18")
    assert (code, out) == (1, "")
    assert err == (
        "error: ResourceLimit: pretty class text of 30670720 characters "
        "exceeds the budget of 16777216\n"
    )

def test_cli_parse_error(capsys):
    code, out, err = run_cli(capsys, "parse", "p &")
    assert code == 1
    assert err.startswith("error: ParseError:")


def test_cli_usage_error(capsys):
    code, _, _ = run_cli(capsys, "parse", "p", "--no-such-flag")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


@pytest.mark.parametrize("argv,code", [(["parse", "p"], 0), (["nope"], 2)])
def test_console_script_exits_with_the_run_code(capsys, monkeypatch, argv, code):
    # pyproject's console script `prooflab` calls main, which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["prooflab", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code
    assert capsys.readouterr().out == ("[p;01]\n" if code == 0 else "")


def test_cli_check_prints_witness_and_table(capsys, ded_file, sigma_file):
    code, out, err = run_cli(capsys, "check", ded_file, "--sigma", sigma_file)
    assert code == 0
    assert "witness: p=1 q=0 r=1 default=0" in err
    assert out.strip().endswith("valid")
    assert out.count("\n") == 5  # header + three steps + verdict


def test_cli_interpret(capsys, ded_file, sigma_file):
    code, out, _ = run_cli(capsys, "interpret", ded_file, "--sigma", sigma_file)
    assert code == 0
    assert out == "1: 0\n2: {1}\n3: {1,2}\n"


def test_cli_prove_eq_roundtrip(capsys, tmp_path, ded_file, sigma_file):
    out_path = str(tmp_path / "out.proof")
    code, _, _ = run_cli(
        capsys, "prove", ded_file, "--sigma", sigma_file, "--output", out_path
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "eq", out_path, out_path)
    assert code == 0
    assert out.startswith("equal ")
    other = str(tmp_path / "other.proof")
    write_proof_file(other, node("p"))
    code, out, _ = run_cli(capsys, "eq", out_path, other)
    assert out.startswith("different ")
    assert len(out.split()) == 3


def test_cli_prove_pretty(capsys, ded_file, sigma_file):
    code, out, _ = run_cli(
        capsys, "prove", ded_file, "--sigma", sigma_file, "--format", "pretty"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("- ")
    assert "[premise]" in out


def test_cli_add_smul(capsys, tmp_path, sigma_file):
    a, b = str(tmp_path / "a.proof"), str(tmp_path / "b.proof")
    write_proof_file(a, node("p"))
    write_proof_file(b, node("p"))
    code, out, _ = run_cli(capsys, "add", a, b, "--sigma", sigma_file)
    assert code == 0
    assert "format: 1\n{[;1],{0}}\n" == out
    code, out, _ = run_cli(capsys, "smul", "q | r", a, "--sigma", sigma_file)
    assert code == 0
    assert "{[p,q,r;01111111],{0}}" in out
    code, out, _ = run_cli(capsys, "smul", "e", a, "--sigma", sigma_file)
    assert "{[p;01],{0}}" in out
    # scalar outside the extension is a domain error
    code, _, err = run_cli(capsys, "smul", "~p", a, "--sigma", sigma_file)
    assert code == 1
    assert err.splitlines()[-1].startswith("error: NotMember:")


def test_cli_axioms(capsys, tmp_path, sigma_file):
    report_path = str(tmp_path / "axioms.txt")
    code, out, _ = run_cli(
        capsys,
        "axioms",
        "--sigma",
        sigma_file,
        "--atoms",
        "2",
        "--samples",
        "40",
        "--report",
        report_path,
    )
    assert code == 0
    assert "ring laws" in out and "module laws" in out
    with open(report_path) as fh:
        assert fh.read().strip() in out


def test_cli_axioms_over_three_atoms(capsys, tmp_path):
    base = tmp_path / "p.txt"
    base.write_text("p\n")
    code, out, _ = run_cli(
        capsys, "axioms", "--sigma", str(base), "--atoms", "3", "--samples", "5"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring laws over 128 member classes on atoms p,q,r"
    ring_laws = lines[2 : lines.index("")]
    assert len(ring_laws) == 10
    assert all(line.split()[-1] == "0" for line in ring_laws)


def test_cli_axioms_samples_must_be_non_negative_int(capsys, sigma_file):
    # a negative count audits nothing and would report every law as passing
    argv = ("axioms", "--sigma", sigma_file, "--atoms", "1", "--samples")
    code, out, err = run_cli(capsys, *argv, "-4")
    assert code == 2 and out == ""
    assert "usage:" in err and "non-negative integer" in err
    code, out, _ = run_cli(capsys, *argv, "0")
    assert code == 0 and "samples=0" in out


def test_cli_rules(capsys):
    code, out, _ = run_cli(capsys, "rules")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(": valid" in line for line in lines)


def test_cli_surgery(capsys, tmp_path, sigma_file):
    target = str(tmp_path / "t.proof")
    donor = str(tmp_path / "d.proof")
    write_proof_file(target, node("p | q", node("p")))
    # witness of {p, q|r} is p=1 q=0 r=1, so p & r is a member
    write_proof_file(donor, node("p", node("p & r")))
    code, out, _ = run_cli(
        capsys,
        "replace",
        "--target",
        target,
        "--donor",
        donor,
        "--sigma-class",
        "p",
        "--sigma",
        sigma_file,
    )
    assert code == 0
    replaced = read_proof_text(out)
    assert not next(iter(replaced.children)).is_premise
    code, out, _ = run_cli(capsys, "extract", "--target", target, "--sigma-class", "p")
    assert code == 0
    assert read_proof_text(out) == node("p")
    code, out, _ = run_cli(
        capsys, "eliminate", "--target", donor, "--sigma-class", "p"
    )
    assert code == 0
    assert read_proof_text(out) == node("p")
    code, _, err = run_cli(
        capsys, "extract", "--target", target, "--sigma-class", "q & p"
    )
    assert code == 1
    assert "error: NotFound:" in err


def test_cli_single_path_addressing(capsys, tmp_path, sigma_file):
    # two occurrences of [p]; surgery commands disclose their paths on
    # stderr, and --single-path narrows the operation to one of them
    inner = node("q | p", node("p", node("p & r")))
    tree = node("p | q", node("p"), inner)
    target = str(tmp_path / "t.proof")
    write_proof_file(target, tree)
    code, out, err = run_cli(capsys, "eliminate", "--target", target, "--sigma-class", "p")
    assert code == 0
    occ_line = next(l for l in err.splitlines() if l.startswith("occurrences: "))
    paths = occ_line.split()[1:]
    assert len(paths) == 2
    deep = max(paths, key=lambda p: p.count("/"))
    code, out, _ = run_cli(
        capsys,
        "eliminate",
        "--target",
        target,
        "--sigma-class",
        "p",
        "--single-path",
        deep,
    )
    assert code == 0
    pruned = read_proof_text(out)
    # the deep justification is gone, the shallow occurrence is untouched
    assert "[p,r;0001]" not in canonical_serialize(pruned)
    assert node("p") in pruned.children



@pytest.mark.parametrize("command", ["extract", "eliminate"])
@pytest.mark.parametrize("path", ["", "{deep}//{leaf}", "/", "{deep}/"])
def test_cli_empty_single_path_is_a_bad_path(capsys, tmp_path, command, path):
    # an empty path is not the root path '.', and an empty digest would
    # match every child
    leaf = node("p")
    tree = node("p | q", node("p", leaf))
    target = str(tmp_path / "t.proof")
    write_proof_file(target, tree)
    deep = digest_hex(next(iter(tree.children)))[:12]
    output = tmp_path / "out.proof"
    argv = ["--target", target, "--sigma-class", "p", "--output", str(output)]
    path = path.format(deep=deep, leaf=digest_hex(leaf)[:12])
    code, out, err = run_cli(capsys, command, *argv, "--single-path", path)
    assert (code, out) == (1, "")
    assert err == f"error: BadPath: empty digest in path {path!r}\n"
    assert not output.exists()


@pytest.mark.parametrize("command", ["extract", "eliminate", "replace"])
def test_cli_surgery_checks_the_class_at_the_path(capsys, tmp_path, sigma_file, command):
    # the three commands refuse alike, and write nothing, when the class
    # is absent or the path addresses another class
    tree = node("p | q", node("p"), node("q | r", node("p & r")))
    target, donor = str(tmp_path / "t.proof"), str(tmp_path / "d.proof")
    write_proof_file(target, tree)
    write_proof_file(donor, node("q | r", node("r")))
    output = tmp_path / "out.proof"
    argv = [command, "--target", target, "--sigma", sigma_file, "--output", str(output)]
    if command == "replace":
        argv += ["--donor", donor]
    p_path = format_path((digest_hex(node("p")),))
    cases = [
        ("q | r", p_path, "path addresses [p;01], not [q,r;0111]"),
        ("q | r", ".", "path addresses [p,q;0111], not [q,r;0111]"),
        ("s", p_path, "[s;01] does not occur in the target"),
        ("s", None, "[s;01] does not occur in the target"),
    ]
    for sigma, path, message in cases:
        extra = [] if path is None else ["--single-path", path]
        code, out, err = run_cli(capsys, *argv, "--sigma-class", sigma, *extra)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: NotFound: {message}\n")
        assert not output.exists()


def test_cli_replace_names_the_first_non_member_in_canonical_order(tmp_path, sigma_file):
    target, donor = str(tmp_path / "t.proof"), str(tmp_path / "d.proof")
    write_proof_file(target, node("p | q", node("p")))
    # several non-members below the donor's [p], so set order could pick any
    kids = ("~p", "r & ~p", "t", "s & t", "~q & ~r", "p & s", "p & ~t")
    write_proof_file(donor, node("p", *(node(k) for k in kids)))
    # the canonical text lists every child set in canonical order, so its
    # class texts in reading order are the canonical pre-order walk
    sp = lindenbaum_extend(read_sigma_file(sigma_file), 0)
    serialized = canonical_serialize(read_proof_file(donor))
    texts = re.findall(r"\[[^\]]*\]", serialized)
    outside = [t for t in texts if not sp.member(class_from_text(t))]
    assert len(set(outside)) > 2
    argv = ["replace", "--target", target, "--donor", donor, "--sigma-class", "p"]
    runs = {
        run_process(*argv, "--sigma", sigma_file, env={"PYTHONHASHSEED": str(seed)})
        for seed in range(5)
    }
    assert len(runs) == 1
    code, out, err = runs.pop()
    assert (code, out) == (1, "")
    assert err.endswith(f"error: NotMember: {outside[0]} is not in the extension\n")


def test_cli_add_names_the_same_over_cap_combine_on_every_run(tmp_path):
    # the symmetric difference of the two child sets holds five premises;
    # folding their conclusions in set order overflowed a cap of 2 at
    # support 3 or 4 depending on the hash seed
    a, b, sigma = (tmp_path / name for name in ("a.proof", "b.proof", "s.txt"))
    a.write_text("format: 1\n{[x;10],{{[a;10],{0}},{[b,c;1000],{0}},{[d,e;1000],{0}}}}\n")
    b.write_text("format: 1\n{[x;10],{{[f;10],{0}},{[g,h;1000],{0}}}}\n")
    sigma.write_text("")
    argv = ["add", str(a), str(b), "--sigma", str(sigma), "--atom-cap", "2"]
    runs = {run_process(*argv, env={"PYTHONHASHSEED": str(seed)}) for seed in range(8)}
    assert len(runs) == 1
    code, out, err = runs.pop()
    assert (code, out) == (1, "")
    # canonical text order: [a;10] & [b,c;1000] is the first combine
    assert err.endswith(
        "error: ResourceLimit: combined support of 3 atoms exceeds the cap of 2\n"
    )


def test_cli_premise_donor_error(capsys, tmp_path, sigma_file):
    target = str(tmp_path / "t.proof")
    donor = str(tmp_path / "d.proof")
    write_proof_file(target, node("p | q", node("p")))
    write_proof_file(donor, node("p"))
    code, _, err = run_cli(
        capsys,
        "replace",
        "--target",
        target,
        "--donor",
        donor,
        "--sigma-class",
        "p",
        "--sigma",
        sigma_file,
    )
    assert code == 1
    assert "error: PremiseDonor:" in err


def test_cli_deterministic(capsys, ded_file, sigma_file):
    first = run_cli(capsys, "check", ded_file, "--sigma", sigma_file)
    second = run_cli(capsys, "check", ded_file, "--sigma", sigma_file)
    assert first == second
    a1 = run_cli(capsys, "axioms", "--sigma", sigma_file, "--samples", "25")
    a2 = run_cli(capsys, "axioms", "--sigma", sigma_file, "--samples", "25")
    assert a1 == a2


@pytest.mark.parametrize("command", ["check", "interpret", "prove"])
def test_cli_max_steps_must_be_non_negative_int(
    capsys, monkeypatch, command, ded_file, sigma_file
):
    # no command has a step cap: --max-steps is unknown to all three,
    # and the environment variable that once set it is not read
    code, _, err = run_cli(
        capsys, command, ded_file, "--sigma", sigma_file, "--max-steps", "-1"
    )
    assert code == 2
    assert "usage:" in err and "unrecognized arguments: --max-steps -1" in err
    monkeypatch.setenv("PROOFLAB_MAX_STEPS", "abc")
    code, _, err = run_cli(capsys, command, ded_file, "--sigma", sigma_file)
    assert code == 0


@pytest.fixture
def long_ded_file(tmp_path):
    # 200 steps, p and p | q alternating: a valid deduction under base p
    path = tmp_path / "long.txt"
    path.write_text("premises: base.txt\n" + "p\np | q\n" * 100)
    (tmp_path / "base.txt").write_text("p\n")
    return str(path)


def test_cli_check_and_interpret_have_no_step_cap(capsys, long_ded_file):
    code, out, err = run_cli(capsys, "check", long_ded_file)
    assert (code, err) == (0, "witness: p=1 default=0\n")
    assert out.splitlines()[-2:] == ["200   a       -             b", "valid"]
    code, out, _ = run_cli(capsys, "interpret", long_ded_file)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 200
    assert lines[:2] == ["1: 0", "2: {1}"]
    assert lines[-1] == "200: {%s}" % ",".join(map(str, range(1, 200)))
    for command in ("check", "interpret", "prove"):
        code, out, err = run_cli(capsys, command, long_ded_file, "--max-steps", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-steps 5" in err


def chain_text_length(steps):
    """Length of the proof file ``prove`` writes for a chain in which
    every step after the first is justified by all steps before it."""
    total = 0  # summed serialization length of the steps so far
    for u, text in enumerate(steps, 1):
        just = 3 if u == 1 else total + (u - 1) + 1
        length = len(text) + 3 + just
        total += length
    return len("format: 1\n") + length + 1


@pytest.mark.parametrize("fmt", ["canonical", "pretty"])
def test_cli_prove_checks_the_text_budget_before_building_text(
    capsys, monkeypatch, long_ded_file, fmt
):
    def no_text(*args, **kwargs):
        raise AssertionError("proof text built over the budget")

    for name in ("prooflab.proof.canonical_serialize", "prooflab.files.canonical_serialize",
                 "prooflab.cli.pretty_proof"):
        monkeypatch.setattr(name, no_text)
    # twice: building a proof equal to one built before in the process
    # must not compare the two node by node, as trees of 2**199 paths
    runs = [run_cli(capsys, "prove", long_ded_file, "--format", fmt) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert (code, out) == (1, "")
    witness, error = err.splitlines()
    assert witness == "witness: p=1 default=0"
    if fmt == "canonical":
        length = chain_text_length(["[p;01]", "[p,q;0111]"] * 100)
        assert error == (
            f"error: ResourceLimit: canonical proof text of {length} characters "
            "exceeds the budget of 16777216"
        )
    else:
        assert re.fullmatch(
            r"error: ResourceLimit: pretty proof text of \d{60,} characters "
            r"exceeds the budget of 16777216",
            error,
        )


def test_cli_prove_budget_admits_21_steps_of_the_chain(capsys, tmp_path):
    # p, then p | q: 21 steps was the most the old default step cap of
    # 20 prior steps allowed, and 22 steps double the text past 2**24
    (tmp_path / "base.txt").write_text("p\n")
    steps = ["[p;01]"] + ["[p,q;0111]"] * 21
    for n, code in [(21, 0), (22, 1)]:
        ded = tmp_path / f"chain{n}.txt"
        ded.write_text("premises: base.txt\np\n" + "p | q\n" * (n - 1))
        got, out, err = run_cli(capsys, "prove", str(ded))
        length = chain_text_length(steps[:n])
        assert got == code
        if code == 0:
            assert len(out) == length == 14_680_074
            assert hashlib.sha256(out.encode()).hexdigest() == (
                "819f11c77504e8205b66eadf8a724162663cfff1851c38618ce05e1bc898bddd"
            )
        else:
            assert out == ""
            assert err.splitlines()[-1] == (
                f"error: ResourceLimit: canonical proof text of {length} characters "
                "exceeds the budget of 16777216"
            )


def test_reading_a_proof_file_copies_its_body_once():
    # the canonical text of an 18-step chain u, then u | v, written out
    # without nodes (atoms no other test uses, so no live node holds its
    # text); a one-line body reaches the parser as the line itself, and
    # the nodes keep spans of it, about one more body in all
    texts = ["{[u;01],{0}}"]
    for _ in range(17):
        texts.append("{[u,v;0111],{%s}}" % ",".join(sorted(texts)))
    body = texts[-1]
    text = f"format: 1\n{body}\n"
    tracemalloc.start()
    try:
        r = read_proof_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert canonical_serialize(r) == body
    assert peak < 2.5 * len(body)


def _no_proof_text(monkeypatch):
    def no_text(*args, **kwargs):
        raise AssertionError("proof text built over the budget")

    for name in ("prooflab.files.canonical_serialize", "prooflab.cli.pretty_proof"):
        monkeypatch.setattr(name, no_text)


def test_cli_add_checks_the_text_budget(capsys, monkeypatch, tmp_path):
    # the sum of the 21-step chain p, p | q and the 20-step chain p, p | r
    # justifies p <-> p by both child sets, 22,020,071 characters
    (tmp_path / "base.txt").write_text("p\n")
    chains = {"chain21": "p | q\n" * 20, "chain20": "p | q\n" * 19, "chainr20": "p | r\n" * 19}
    for name, steps in chains.items():
        (tmp_path / f"{name}.txt").write_text("premises: base.txt\np\n" + steps)
        proof = str(tmp_path / f"{name}.proof")
        assert run_cli(capsys, "prove", str(tmp_path / f"{name}.txt"), "--output", proof)[0] == 0

    def add(a, b):
        proofs = [str(tmp_path / f"{name}.proof") for name in (a, b)]
        return run_cli(capsys, "add", *proofs, "--sigma", str(tmp_path / "base.txt"))

    code, out, _ = add("chain20", "chainr20")
    assert (code, len(out)) == (0, 14_680_039)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ee44933c235d2e344a695561889d6ea98bb15eeffbe6da63e7742378a9fab3ea"
    )
    _no_proof_text(monkeypatch)
    code, out, err = add("chain21", "chainr20")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "error: ResourceLimit: canonical proof text of 22020071 characters "
        "exceeds the budget of 16777216"
    )


def test_cli_replace_checks_the_text_budget(capsys, monkeypatch, tmp_path):
    # a 2 KB target whose 60 children each hold the premise x0 | y, and a
    # donor justifying x0 | y by 12,000 four-atom premises: the graft
    # writes the donor's set 60 times
    sp = lindenbaum_extend(frozenset({cls("x0")}), 0)
    premise = ProofNode(cls("x0 | y"))
    target = ProofNode(
        cls("x0"),
        frozenset(ProofNode(cls(f"x0 | z{i}"), frozenset({premise})) for i in range(60)),
    )
    kids = [
        ProofNode(cls(f"x0 | a{i} & b{j} & c{k}"))
        for i in range(23) for j in range(23) for k in range(23)
    ][:12_000]
    donor = ProofNode(cls("x0 | y"), frozenset(kids))
    paths = {"t": str(tmp_path / "t.proof"), "d": str(tmp_path / "d.proof")}
    write_proof_file(paths["t"], target)
    write_proof_file(paths["d"], donor)
    (tmp_path / "s.txt").write_text("x0\n")
    length = proof_file_length(replace_subproof(target, cls("x0 | y"), donor, sp))
    assert length > 16_777_216
    _no_proof_text(monkeypatch)
    output = tmp_path / "out.proof"
    code, out, err = run_cli(
        capsys, "replace", "--target", paths["t"], "--donor", paths["d"],
        "--sigma-class", "x0 | y", "--sigma", str(tmp_path / "s.txt"), "--output", str(output),
    )
    assert (code, out, output.exists()) == (1, "", False)
    assert err.splitlines()[-1] == (
        f"error: ResourceLimit: canonical proof text of {length} characters "
        "exceeds the budget of 16777216"
    )


def test_cli_prove_long_deduction_with_a_short_proof(capsys, tmp_path):
    # the last step is a member but not reached, so every step is a
    # premise and the proof is one node, however many steps precede it
    (tmp_path / "base.txt").write_text("p\n")
    ded = tmp_path / "long.txt"
    ded.write_text("premises: base.txt\n" + "~q\n" * 199 + "p\n")
    for fmt, text in [("canonical", "format: 1\n{[p;01],{0}}\n"), ("pretty", "- p  [premise]\n")]:
        code, out, err = run_cli(capsys, "prove", str(ded), "--format", fmt)
        assert (code, out, err) == (0, text, "witness: p=1 default=0\n")


def test_cli_prefix_conjunction_above_atom_cap(capsys, tmp_path):
    # steps 1-5 are members over 15 atoms and step 6 is not; justifying
    # step 7 conjoins the prefix 1..6, whose support of 17 atoms exceeds
    # the table cap, although step 6 alone would reach it
    ded = tmp_path / "wide.txt"
    ded.write_text(
        "~x01 & ~x02 & ~x03\n~x04 & ~x05 & ~x06\n~x07 & ~x08 & ~x09\n"
        "~x10 & ~x11 & ~x12\n~x13 & ~x14 & ~x15\ny & z\ny\n"
    )
    sigma = tmp_path / "a.txt"
    sigma.write_text("a\n")
    for command in ("check", "interpret", "prove"):
        code, out, err = run_cli(capsys, command, str(ded), "--sigma", str(sigma))
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == (
            "error: ResourceLimit: combined support of 17 atoms exceeds the cap of 16"
        )


def test_cli_atom_cap_reaches_combines(capsys, tmp_path):
    # the deduction above under --atom-cap 17: the prefix conjunction now
    # fits, and the report is the subset-enumeration one ({6} is the
    # first set in bitmask order whose conjunction reaches y)
    ded = tmp_path / "wide.txt"
    ded.write_text(
        "~x01 & ~x02 & ~x03\n~x04 & ~x05 & ~x06\n~x07 & ~x08 & ~x09\n"
        "~x10 & ~x11 & ~x12\n~x13 & ~x14 & ~x15\ny & z\ny\n"
    )
    sigma = tmp_path / "a.txt"
    sigma.write_text("a\n")
    argv = [str(ded), "--sigma", str(sigma), "--atom-cap", "17"]
    code, out, err = run_cli(capsys, "check", *argv)
    assert code == 0
    assert err == "witness: a=1 default=0\n"
    assert out.splitlines() == [
        "step  clause  H             base",
        *(f"{i}     a       -             -" for i in range(1, 6)),
        "6     INVALID -             -",
        "7     c       {6}           -",
        "invalid at step 6",
    ]
    for command in ("interpret", "prove"):
        code, out, err = run_cli(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err.splitlines()[-1] == "error: InvalidDeduction: step 6 is not justified"


def test_cli_prove_atom_cap_reaches_validation(capsys, tmp_path):
    # a valid deduction whose prefix 1..6 spans 17 atoms: the reading
    # sets phi(7) = {1..6}, found with the conjunction of all six steps
    ded = tmp_path / "valid.txt"
    ded.write_text(
        "~x01 & ~x02 & ~x03\n~x04 & ~x05 & ~x06\n~x07 & ~x08 & ~x09\n"
        "~x10 & ~x11 & ~x12\n~x13 & ~x14 & ~x15\n~y & ~z\n~y\n"
    )
    sigma = tmp_path / "a.txt"
    sigma.write_text("a\n")
    argv = [str(ded), "--sigma", str(sigma)]
    code, out, err = run_cli(capsys, "prove", *argv)
    assert code == 1
    assert err.splitlines()[-1] == (
        "error: ResourceLimit: combined support of 17 atoms exceeds the cap of 16"
    )
    code, out, err = run_cli(capsys, "interpret", *argv, "--atom-cap", "17")
    assert code == 0
    assert out.splitlines() == [*(f"{u}: 0" for u in range(1, 7)), "7: {1,2,3,4,5,6}"]
    code, out, err = run_cli(capsys, "prove", *argv, "--atom-cap", "17")
    assert code == 0
    assert err == "witness: a=1 default=0\n"
    premises = [
        "[x01,x02,x03;10000000]", "[x04,x05,x06;10000000]", "[x07,x08,x09;10000000]",
        "[x10,x11,x12;10000000]", "[x13,x14,x15;10000000]", "[y,z;1000]",
    ]
    assert out == "format: 1\n{[y;10],{%s}}\n" % ",".join("{%s,{0}}" % p for p in premises)


def test_cli_atom_cap_ceiling_is_a_usage_error(capsys, monkeypatch):
    def no_tables(*args, **kwargs):
        raise AssertionError("a table was built")

    monkeypatch.setattr("prooflab.files.canonicalize_text", no_tables)
    for cap in ("25", "40", "-1"):
        code, out, err = run_cli(capsys, "parse", "p", "--atom-cap", cap)
        assert code == 2
        assert out == ""
        assert "usage:" in err and "--atom-cap" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "parse", "p", "--atom-cap", "24")
    assert (code, out) == (0, "[p;01]\n")


def test_cli_read_errors_are_domain_errors(capsys, tmp_path, ded_file, sigma_file):
    code, out, err = run_cli(capsys, "check", str(tmp_path / "nosuch.txt"))
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError: ") and "nosuch.txt" in err
    latin = tmp_path / "latin.txt"
    latin.write_bytes("caf\xe9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "check", ded_file, "--sigma", str(latin))
    assert (code, out) == (1, "")
    assert err.startswith("error: UnicodeDecodeError: ")
    code, out, err = run_cli(
        capsys, "prove", ded_file, "--sigma", sigma_file, "--output", str(tmp_path)
    )
    assert (code, out) == (1, "")
    assert err.splitlines()[-1].startswith("error: IsADirectoryError: ")
    assert "Traceback" not in err


# 285 comment lines of 63 bytes put the latin-1 byte past 16 KiB
LATIN_TAIL = ("# " + "x" * 60 + "\n") * 285 + "p\ncaf\xe9\n"


def test_cli_readers_keep_their_decode_error(capsys, tmp_path, ded_file, sigma_file):
    # the lines text-mode reads printed: both ways decode the whole file
    # in one call, so the position is the same
    for name in ("base.txt", "ded.txt"):
        (tmp_path / name).write_bytes(LATIN_TAIL.encode("latin-1"))
    (tmp_path / "a.proof").write_bytes(
        ("format: 1\n" + " " * 18000 + "{[p;01],{0}}\xe9\n").encode("latin-1")
    )
    error = (
        "error: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xe9"
        " in position %d: invalid continuation byte\n"
    )
    for argv, position in [
        (["check", ded_file, "--sigma", str(tmp_path / "base.txt")], 17960),
        (["check", str(tmp_path / "ded.txt"), "--sigma", sigma_file], 17960),
        (["eq", str(tmp_path / "a.proof"), str(tmp_path / "a.proof")], 18022),
    ]:
        assert run_cli(capsys, *argv) == (1, "", error % position)


def test_cli_readers_fold_line_ends_and_keep_a_bom(capsys, tmp_path):
    files = {"base.txt": "# base\np\nq | r\n", "ded.txt": "p\np | q\n\np | q | r\n"}
    files["a.proof"] = proof_file_text(node("p | q", node("p"), node("q")))

    def outputs(end, lead=""):
        for name, text in files.items():
            (tmp_path / name).write_bytes((lead + text.replace("\n", end)).encode("utf-8"))
        paths = {name: str(tmp_path / name) for name in files}
        return [
            run_cli(capsys, "check", paths["ded.txt"], "--sigma", paths["base.txt"]),
            run_cli(capsys, "eq", paths["a.proof"], paths["a.proof"]),
        ]

    lf = outputs("\n")
    assert [code for code, _, _ in lf] == [0, 0]
    assert outputs("\r\n") == outputs("\r") == lf
    # text mode kept a byte order mark as U+FEFF, and so do bytes
    bom = "error: ParseError: unexpected character '\\ufeff' (at position 0)\n"
    assert outputs("\n", "\ufeff") == [
        (1, "", bom),
        (1, "", "error: ParseError: proof file must start with 'format: 1'\n"),
    ]
    (tmp_path / "ded.txt").write_text(files["ded.txt"])
    argv = ["check", str(tmp_path / "ded.txt"), "--sigma", str(tmp_path / "base.txt")]
    assert run_cli(capsys, *argv) == (1, "", bom)


@pytest.mark.parametrize(
    "argv",
    [
        ["axioms", "--sigma", "", "--atoms", "1", "--samples", "0"],
        ["check", "@d.txt", "--sigma", ""],
        ["check", "d.txt"],
    ],
)
def test_cli_empty_base_path_is_unreadable(capsys, tmp_path, monkeypatch, argv):
    # an empty --sigma names no file, not no base set, and does not hand
    # over to the premises directive; nor does an empty directive
    monkeypatch.chdir(tmp_path)
    (tmp_path / "base.txt").write_text("p\n")
    (tmp_path / "d.txt").write_text("premises:\np\n")
    (tmp_path / "e.txt").write_text("premises: base.txt\np\n")
    argv = [str(tmp_path / "e.txt") if a == "@d.txt" else a for a in argv]
    error = "error: FileNotFoundError: [Errno 2] No such file or directory: ''\n"
    assert run_cli(capsys, *argv) == (1, "", error)


@pytest.mark.parametrize("command", ["rules", "axioms"])
def test_cli_atoms_range(capsys, command, sigma_file):
    sigma = ["--sigma", sigma_file, "--samples", "5"] if command == "axioms" else []
    for atoms in ("0", "4", "-1"):
        code, out, err = run_cli(capsys, command, *sigma, "--atoms", atoms)
        assert (code, out) == (2, "")
        assert "usage:" in err and "--atoms" in err
    code, out, _ = run_cli(capsys, command, *sigma, "--atoms", "1")
    assert code == 0 and out


def test_cli_inconsistent_sigma(capsys, tmp_path, ded_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("p\n~p\n")
    code, _, err = run_cli(capsys, "check", ded_file, "--sigma", str(bad))
    assert code == 1
    assert "error: Inconsistent:" in err


def test_cli_builds_parser_once(capsys):
    _build_parser.cache_clear()
    for argv in [["parse", "p"], ["rules", "--atoms", "1"], ["parse", "p &"], ["nope"]] * 3:
        run_cli(capsys, *argv)
    info = _build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 11)


HELP_AND_USAGE = [
    ["--help"],
    ["check", "--help"],
    ["parse"],
    ["nope"],
    ["parse", "p", "--atom-cap", "25"],
    ["prove", "d.txt", "--format", "dnf"],
]


def test_cli_help_and_usage_bytes_repeat(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "72")
    _build_parser.cache_clear()
    first = [run_cli(capsys, *argv) for argv in HELP_AND_USAGE]
    assert [code for code, _, _ in first] == [0, 0, 2, 2, 2, 2]
    run_cli(capsys, "parse", "p")
    assert [run_cli(capsys, *argv) for argv in HELP_AND_USAGE] == first
    assert [run_process(*argv) for argv in HELP_AND_USAGE] == first
    # the width is read when the text is printed, not when the parser is built
    monkeypatch.setenv("COLUMNS", "40")
    narrow = run_cli(capsys, "check", "--help")
    assert narrow != first[1]
    assert narrow == run_process("check", "--help")


# argv pieces: command names and near misses, full and abbreviated
# options, and values in and out of range
DISPATCH_HEADS = [
    "parse", "check", "interpret", "prove", "eq", "add", "smul", "axioms",
    "replace", "extract", "eliminate", "rules",
    "chec", "pars", "ru", "nope", "Check", "check ", "", "-h", "--help", "--", "--sigma",
]
DISPATCH_OPTIONS = [
    "--sigma", "--sig", "--atom-cap", "--atom", "--default-bit", "--format", "--form",
    "--output", "--atoms", "--samples", "--seed", "--report", "--target", "--donor",
    "--sigma-class", "--single-path", "-h", "--help", "--he", "--nope", "-x",
]
DISPATCH_VALUES = [
    "p", "p & q", "~", "nosuch.txt", "0", "1", "2", "3", "24", "25", "-1", "x", "",
    "canonical", "pretty", "dnf", "e",
]


@st.composite
def dispatch_argvs(draw):
    argv = [draw(st.sampled_from(DISPATCH_HEADS))]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            argv.append(draw(st.sampled_from(DISPATCH_OPTIONS)))
        elif kind == 1:
            option, value = draw(st.sampled_from(DISPATCH_OPTIONS)), draw(st.sampled_from(DISPATCH_VALUES))
            argv.append(f"{option}={value}")
        elif kind == 2:
            argv.append(draw(st.sampled_from(DISPATCH_VALUES)))
        else:
            argv.append("--")
    return argv


def test_cli_dispatch_changes_no_byte(tmp_path, monkeypatch):
    # run decodes an argv that names a command with that command's option
    # table, and hands any other argv to the full parser; with the table
    # route shut, or with the map of commands emptied, every argv takes
    # the full parser
    monkeypatch.setenv("COLUMNS", "72")
    monkeypatch.chdir(tmp_path)
    commands = _build_parser()[1]

    def captured(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = run(list(argv))
        return code, out.getvalue(), err.getvalue()

    @settings(max_examples=400, deadline=None)
    @given(dispatch_argvs())
    def same_bytes(argv):
        table = captured(argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_table_args", lambda *args: None)
            assert captured(argv) == table
        saved = dict(commands)
        commands.clear()
        try:
            assert captured(argv) == table
        finally:
            commands.update(saved)

    same_bytes()


# one argv for each reason the option table leaves an argv to argparse:
# an option with "=", abbreviated or not declared; a repeated option
# whose first value fails its choices; a value that fails its type or
# starts with "-"; "--" and "-"; an empty value that fails its type; an
# extra positional, and a required option left out
TABLE_FALLBACKS = [
    ["check", "d.txt", "--sigma=s.txt"],
    ["check", "d.txt", "--sig", "s.txt"],
    ["parse", "p", "-h"],
    ["check", "d.txt", "--default-bit", "5", "--default-bit", "1"],
    ["parse", "p", "--atom-cap", "25"],
    ["axioms", "--sigma", "s.txt", "--seed", "-5"],
    ["check", "--", "d.txt"],
    ["check", "-"],
    ["rules", "--atoms", ""],
    ["eq", "a.proof", "b.proof", "c.proof"],
    ["add", "a.proof", "b.proof"],
]


def command_argvs():
    """Argv for one command: its positionals and some of its options in
    any order, with values in and out of each option's type and choices,
    and now and then a piece only argparse serves."""
    commands = _build_parser()[1]
    values = DISPATCH_VALUES + ["-5", "3", "s.txt"]
    noise = ["--sig", "--sigma=s.txt", "--", "-", "-h", "--nope", "p"]

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(sorted(commands)))
        groups = []
        for action in commands[command]._actions:
            if action.dest == "help" or action.option_strings and draw(st.booleans()):
                continue
            pool = [str(c) for c in action.choices or ()] or values
            groups.append(action.option_strings[-1:] + [draw(st.sampled_from(pool))])
        argv = [command] + [w for g in draw(st.permutations(groups)) for w in g]
        if draw(st.integers(0, 3)) == 0:
            argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(noise)))
        return argv

    return argvs()


@settings(max_examples=600, deadline=None)
@given(command_argvs())
@example(["check", "d.txt", "--sigma", ""])
def test_table_namespace_is_the_command_parsers(argv):
    parser = _build_parser()[1][argv[0]]
    args = _table_args(argv[0], argv[1:], parser)
    if args is not None:
        assert args == parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


for _argv in TABLE_FALLBACKS:
    test_table_namespace_is_the_command_parsers = example(_argv)(
        test_table_namespace_is_the_command_parsers
    )


@pytest.mark.parametrize("argv", TABLE_FALLBACKS)
def test_table_leaves_argv_to_argparse(argv):
    assert _table_args(argv[0], argv[1:], _build_parser()[1][argv[0]]) is None


def test_table_takes_each_commands_full_argv():
    # the shapes of the benchmark's calls, options in any order, and a
    # repeated option, of which the last wins as in argparse
    for argv in [
        ["parse", "~(p & q)", "--atom-cap", "24", "--format", "pretty"],
        ["check", "d.txt", "--sigma", "s.txt", "--default-bit", "1"],
        ["prove", "--output", "o.proof", "d.txt", "--format", "pretty"],
        ["add", "a.proof", "--sigma", "s.txt", "b.proof", "--output", "o.proof"],
        ["smul", "e", "a.proof", "--sigma", "s.txt"],
        ["axioms", "--sigma", "s.txt", "--atoms", "2", "--samples", "4", "--seed", "7"],
        ["replace", "--target", "a", "--donor", "b", "--sigma-class", "p", "--sigma", "s"],
        ["extract", "--target", "a", "--sigma-class", "p", "--single-path", "{x}"],
        ["rules", "--atoms", "3", "--atoms", "1"],
        ["eq", "", "b.proof"],
    ]:
        parser = _build_parser()[1][argv[0]]
        args = _table_args(argv[0], argv[1:], parser)
        assert args is not None, argv
        assert args == parser.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    rules = _build_parser()[1]["rules"]
    assert _table_args("rules", ["--atoms", "3", "--atoms", "1"], rules).atoms == 1


DEEP_INPUTS = {
    "negations": ["parse", "~" * 3000 + "p"],
    "parentheses": ["parse", "(" * 1200 + "p" + ")" * 1200],
    "flat conjunction": ["parse", " & ".join(["p"] * 1500)],
    "proof": ["eq", "@deep.proof", "@deep.proof"],
}


@pytest.mark.parametrize("kind", DEEP_INPUTS)
def test_cli_deep_input_is_a_parse_error(tmp_path, kind):
    (tmp_path / "deep.proof").write_text("format: 1\n" + nested_proof_text(1500) + "\n")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in DEEP_INPUTS[kind]]
    code, out, err = run_process(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: ParseError: nested deeper than {MAX_DEPTH} levels (at ")
    assert "Traceback" not in err


def test_cli_commands_at_the_depth_limit(capsys, tmp_path, sigma_file):
    deep = tmp_path / "deep.proof"
    text = nested_proof_text(MAX_DEPTH)
    deep.write_text(f"format: 1\n{text}\n")
    base = tmp_path / "base.txt"
    base.write_text(" & ".join(["p"] * (MAX_DEPTH + 1)) + "\n" + "~" * MAX_DEPTH + "q\n")
    ded = tmp_path / "ded.txt"
    ded.write_text("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH + "\n")
    sigma = ["--sigma", str(base)]
    for argv, expected in [
        (["eq", str(deep), str(deep)], "equal "),
        (["smul", "p", str(deep), *sigma], f"format: 1\n{text}\n"),
        (["add", str(deep), str(deep), *sigma], "format: 1\n{[;1],{0}}\n"),
        (["eliminate", "--target", str(deep), "--sigma-class", "p"], "format: 1\n"),
        (["check", str(ded), *sigma], "step  clause  H             base\n1     a"),
    ]:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith(expected), argv[0]


def test_cli_iff_chain_of_twenty_atoms(capsys):
    # no timing gate: a tree walk of this chain makes about 2**20
    # operations on 2**20-bit tables, about a minute on a 2-vCPU VM
    names = [f"x{i:02d}" for i in range(20)]
    chain = " <-> ".join(names)
    code, out, err = run_cli(capsys, "parse", chain, "--atom-cap", "20")
    # a <-> b is a ^ b ^ 1, so the chain of 19 is 1 on rows with an even number of 1s
    table = "".join("10"[bin(m).count("1") % 2] for m in range(1 << 20))
    assert (code, out, err) == (0, f"[{','.join(names)};{table}]\n", "")
    code, out, err = run_cli(capsys, "parse", chain)
    assert (code, out, err) == (1, "", "error: ResourceLimit: 20 atoms exceed the support cap of 16\n")
