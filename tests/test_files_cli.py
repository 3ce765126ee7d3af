import pytest

from prooflab import ParseError, ProofNode, canonicalize, parse, proof_eq
from prooflab.cli import run
from prooflab.files import (
    proof_file_text,
    read_deduction_file,
    read_proof_file,
    read_proof_text,
    read_sigma_file,
    write_proof_file,
)


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


def test_cli_parse(capsys):
    code, out, _ = run_cli(capsys, "parse", "p|~p", "--format", "canonical")
    assert code == 0
    assert out == "[;1]\n"
    code, out, _ = run_cli(capsys, "parse", "p & (q | ~q)")
    assert out == "[p;01]\n"
    code, out, _ = run_cli(capsys, "parse", "p & ~q | ~p & q", "--format", "pretty")
    assert code == 0
    assert out == "~p & q | p & ~q\n"


def test_cli_parse_error(capsys):
    code, out, err = run_cli(capsys, "parse", "p &")
    assert code == 1
    assert err.startswith("error: ParseError:")


def test_cli_usage_error(capsys):
    code, _, _ = run_cli(capsys, "parse", "p", "--no-such-flag")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


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
    from prooflab import canonical_serialize

    assert "[p,r;0001]" not in canonical_serialize(pruned)
    assert node("p") in pruned.children


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


def test_cli_env_max_steps(capsys, tmp_path, sigma_file, monkeypatch):
    # six membership steps then a non-member: enumeration over six priors
    # exceeds a cap of five
    ded = tmp_path / "long.txt"
    lines = ["p"] * 6 + ["s"]
    ded.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        capsys, "check", str(ded), "--sigma", sigma_file, "--max-steps", "5"
    )
    assert code == 1
    assert "error: ResourceLimit:" in err
    monkeypatch.setenv("PROOFLAB_MAX_STEPS", "5")
    code, _, err = run_cli(capsys, "check", str(ded), "--sigma", sigma_file)
    assert code == 1
    assert "error: ResourceLimit:" in err
    monkeypatch.delenv("PROOFLAB_MAX_STEPS")
    code, out, _ = run_cli(capsys, "check", str(ded), "--sigma", sigma_file)
    assert code == 0
    assert out.strip().endswith("invalid at step 7")


@pytest.mark.parametrize("command", ["check", "interpret", "prove"])
def test_cli_max_steps_must_be_non_negative_int(
    capsys, monkeypatch, command, ded_file, sigma_file
):
    code, _, err = run_cli(
        capsys, command, ded_file, "--sigma", sigma_file, "--max-steps", "-1"
    )
    assert code == 2
    assert "usage:" in err and "non-negative integer" in err
    monkeypatch.setenv("PROOFLAB_MAX_STEPS", "abc")
    code, _, err = run_cli(capsys, command, ded_file, "--sigma", sigma_file)
    assert code == 2
    assert "usage:" in err and "non-negative integer" in err


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
    # sets phi(7) = {1..6}, and build_proof re-validates that reading
    # with the conjunction of all six steps
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

    monkeypatch.setattr("prooflab.files.canonicalize", no_tables)
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
