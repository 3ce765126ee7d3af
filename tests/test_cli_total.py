"""The CLI contract is total: any argv and any file contents end in exit
0, 1 or 2, no exception escapes ``cli.run``, and stderr never holds a
traceback. A domain error or an unreadable file ends in an
``error: <Kind>: <detail>`` line.

Half the invocations are clean: well-formed texts, readable files and
flag values in range. The other half are hostile: texts with characters
deleted, replaced or inserted, random Unicode, non-UTF-8 files,
directories, missing paths, bad flag values and missing required flags.
Deductions have at most 12 steps and ``--samples`` is at most 50.
``axioms`` and ``rules`` run over one to three atoms.
"""

import random
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from prooflab.cli import run

COMMANDS = (
    "parse", "check", "interpret", "prove", "eq", "add", "smul", "axioms",
    "replace", "extract", "eliminate", "rules",
)
ATOM_NAMES = ("p", "q", "r", "x01", "a_1")
NOISE = "pqrx01_~&|<->() #[];,{}\t\n"
CLASS_TEXTS = ("[;1]", "[;0]", "[p;01]", "[p;10]", "[p,q;0111]", "[q,r;0001]", "[x01;01]")
# flag values: (in range, out of range)
ATOM_CAPS = (("2", "8", "16", "24"), ("25", "-1", "x", ""))
DEFAULT_BITS = (("0", "1"), ("2", "-1", "x"))
RULE_ATOMS = (("1", "2", "3"), ("0", "4", "-1", "x"))
AXIOM_ATOMS = (("1", "2", "3"), ("0", "4", "-1", "x"))
SAMPLES = (("0", "7", "50"), ("-1", "x"))
SEEDS = (("0", "3", "-2"), ("x",))
FORMATS = (("canonical", "pretty"), ("dnf",))


def formula(rng, leaves=6):
    if leaves <= 1 or rng.random() < 0.3:
        return rng.choice(ATOM_NAMES)
    if rng.random() < 0.25:
        return "~" + formula(rng, leaves - 1)
    k = rng.randint(1, leaves - 1)
    op = rng.choice((" & ", " | ", " <-> "))
    return "(%s%s%s)" % (formula(rng, k), op, formula(rng, leaves - k))


def proof_node(rng, leaves=6):
    c = rng.choice(CLASS_TEXTS)
    if leaves <= 1 or rng.random() < 0.4:
        return "{%s,{0}}" % c
    kids = [proof_node(rng, leaves // 2) for _ in range(rng.randint(1, 3))]
    return "{%s,{%s}}" % (c, ",".join(kids))


class Invocation:
    """Draws one argv and writes the files it names into ``root``."""

    def __init__(self, rng, root):
        self.rng = rng
        self.root = root
        self.hostile = rng.random() < 0.5
        self.members = [self.text(formula(rng, 3)) for _ in range(rng.randint(0, 4))]
        self.base = self.file("base.txt", "\n".join(["# base set", *self.members, ""]))

    def odd(self, p=0.25):
        """Whether to spoil one part of a hostile invocation."""
        return self.hostile and self.rng.random() < p

    def text(self, text):
        rng = self.rng
        if self.odd(0.05):
            return "".join(chr(rng.randrange(1, 0x3000)) for _ in range(rng.randint(0, 12)))
        while self.odd():
            i, ch = rng.randint(0, len(text)), rng.choice(NOISE)
            # delete, replace or insert at i
            text = text[:i] + rng.choice(("", ch, ch + text[i : i + 1])) + text[i + 1 :]
        return text

    def opt(self, flag, values, always=False):
        """``[flag, value]``, or nothing unless ``always``."""
        if not always and self.rng.random() < 0.5:
            return []
        good, bad = values
        return [flag, self.rng.choice(bad if self.odd() else good)]

    def file(self, name, text):
        """A path to ``text`` written as UTF-8, or to something unreadable."""
        if self.odd(0.3):
            return str(self.root / self.rng.choice(("adir", "nosuch.txt", "latin1.txt")))
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def sigma_opts(self, required=False):
        named = required or self.rng.random() < 0.5
        flags = ["--sigma", self.base] if named and not self.odd(0.1) else []
        return flags + self.opt("--default-bit", DEFAULT_BITS) + self.opt("--atom-cap", ATOM_CAPS)

    def deduction(self):
        rng = self.rng
        pool = self.members + ["p | ~p", "p", "p | q"]
        lines = [
            self.text(rng.choice(pool) if rng.random() < 0.5 else formula(rng))
            for _ in range(rng.randint(0, 12))
        ]
        if self.odd():
            lines.insert(rng.randint(0, len(lines)), rng.choice(("# comment", "")))
        if rng.random() < 0.3:
            odd_targets = ("nosuch.txt", "adir", "latin1.txt", "")
            target = rng.choice(odd_targets) if self.odd() else "base.txt"
            lines.insert(0, f"premises: {target}")
        return self.file("ded.txt", "\n".join([*lines, ""]))

    def proof(self, name):
        header = self.rng.choice(("", "format: 2\n")) if self.odd() else "format: 1\n"
        return self.file(name, self.text(header + proof_node(self.rng) + "\n"))

    def output(self, flag="--output"):
        if self.rng.random() < 0.5:
            return []
        target = self.rng.choice(("adir", "nodir/out.txt")) if self.odd() else "out.txt"
        return [flag, str(self.root / target)]

    def argv(self):
        rng, opt = self.rng, self.opt
        command = rng.choice(COMMANDS)
        if command == "parse":
            return [command, self.text(formula(rng)), *opt("--format", FORMATS),
                    *opt("--atom-cap", ATOM_CAPS)]
        if command in ("check", "interpret"):
            return [command, self.deduction(), *self.sigma_opts()]
        if command == "prove":
            return [command, self.deduction(), *self.sigma_opts(),
                    *opt("--format", FORMATS), *self.output()]
        if command == "eq":
            return [command, self.proof("a.proof"), self.proof("b.proof")]
        if command == "add":
            return [command, self.proof("a.proof"), self.proof("b.proof"),
                    *self.sigma_opts(required=True), *self.output()]
        if command == "smul":
            scalar = "e" if rng.random() < 0.3 else self.text(formula(rng, 3))
            return [command, scalar, self.proof("a.proof"),
                    *self.sigma_opts(required=True), *self.output()]
        if command == "axioms":
            return [command, *self.sigma_opts(required=True), *opt("--atoms", AXIOM_ATOMS),
                    *opt("--samples", SAMPLES, always=True), *opt("--seed", SEEDS),
                    *self.output("--report")]
        if command == "rules":
            return [command, *opt("--atoms", RULE_ATOMS)]
        donor = ["--donor", self.proof("d.proof")] if command == "replace" else []
        path = self.text(rng.choice((".", "0123456789ab/ba9876543210")))
        single = ["--single-path", path] if rng.random() < 0.5 else []
        return [command, "--target", self.proof("t.proof"), *donor,
                "--sigma-class", self.text(formula(rng, 3)), *single,
                *self.sigma_opts(required=command == "replace"), *self.output()]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("total")
    (root / "adir").mkdir()
    (root / "latin1.txt").write_bytes("p\né\n".encode("latin-1"))
    return root


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_cli_run_is_total(workdir, seed):
    # a random.Random from an integer seed, since st.randoms() draws skew small
    argv = Invocation(random.Random(seed), workdir).argv()
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert re.fullmatch(r"error: \w+: .*", err.splitlines()[-1], re.S)
