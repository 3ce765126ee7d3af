"""The CLI keeps its bytes: the first ops of each benchmark workload
hash to the digests recorded in ``_golden.DIGESTS``, and the pretty
format, which no workload prints, hashes to the digests pinned here."""

import hashlib

import pytest

from _golden import DIGESTS, WORKLOADS, digest
from prooflab import cli


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_output_keeps_its_digest(workload):
    key = (workload, 1, 200)
    assert digest(*key) == DIGESTS[key], (
        f"{workload} output changed; compare `python tests/_golden.py {workload} 1 200 --each` "
        "before and after the change to find the first op that differs"
    )


def _stdout(capsys, *argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _chain(tmp_path, name, steps):
    (tmp_path / "base.txt").write_text("p\n")
    path = tmp_path / name
    path.write_text("premises: base.txt\n" + "".join(f"{s}\n" for s in steps))
    return str(path)


def test_pretty_output_keeps_its_bytes(capsys, tmp_path):
    chain12 = _chain(tmp_path, "chain12.txt", ["p"] + ["p | q"] * 11)
    (tmp_path / "alpha.txt").write_text("alpha_1\n")
    (tmp_path / "mixed.txt").write_text(
        "premises: alpha.txt\nalpha_1\nalpha_1 | b2\n"
        "alpha_1 & (c <-> d_long) | alpha_1 | ~b2 & alpha_1\n"
    )
    sixteen = " | ".join(f"x{i:02}" for i in range(16))
    cases = [
        (["prove", chain12, "--format", "pretty"], 64_512,
         "e26bab82a0f249b58b77096e28ece1418e8e46b5b05795d04db6450b18738a90"),
        (["parse", sixteen, "--format", "pretty"], None,
         "fe2ea6b5b3cceee055b4ed4963850872f521ad44a7df989c8d74644ab10635d7"),
        (["prove", str(tmp_path / "mixed.txt"), "--format", "pretty"], None,
         "3b6bcf671bb518a514fc0a6314ea0c216a399f983e9d983692f076b848975bf9"),
    ]
    for argv, length, want in cases:
        code, out, _ = _stdout(capsys, *argv)
        assert code == 0
        assert length is None or len(out) == length
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, argv


def test_pretty_output_of_the_22_step_chain_is_refused(capsys, tmp_path):
    chain22 = _chain(tmp_path, "chain22.txt", ["p"] + ["p | q"] * 21)
    code, out, err = _stdout(capsys, "prove", chain22, "--format", "pretty")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (
        "error: ResourceLimit: pretty proof text of 87031808 characters "
        "exceeds the budget of 16777216"
    )
