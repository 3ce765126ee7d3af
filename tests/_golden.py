"""Output digests of the benchmark workloads' ops.

Each op of ``perfbench/workloads.py`` runs through ``prooflab.cli.run``
in a temporary directory, as ``perfbench/run.py`` runs it: its files are
written there, each ``@name`` argument becomes a path there, and
``out.proof`` is removed before the call. The op's record is its index,
exit code, stdout, stderr and ``out.proof`` (or a mark for no file),
with the directory's path replaced by a fixed token, so a digest is the
same in any directory::

    PYTHONPATH=src python tests/_golden.py             # check every digest in DIGESTS
    PYTHONPATH=src python tests/_golden.py algebra 7 1500          # one SHA-256
    PYTHONPATH=src python tests/_golden.py algebra 7 1500 --each   # one per op

A digest that no longer matches is found op by op: list ``--each`` on
both sides of the change and compare the listings; the first line that
differs names the op. A change that means to alter output records the
new digests here and says which bytes changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

from workloads import WORKLOADS, make_op  # noqa: E402

TOKEN = "<work>"
NO_FILE = "<no out.proof>"

# SHA-256 of the records of ops 0..count-1, keyed (workload, seed, count);
# the same on Python 3.10-3.13 and under any PYTHONHASHSEED tried (unset, 0, 123)
DIGESTS = {
    ("deduce", 1, 200): "6ce939fb099b200cf59e0426b89befcd053282c91b0de71cb039d803d4b1b006",
    ("wide", 1, 200): "6860c3fce3b0db439260030b4febb3a6e779e5a900c01bb9619397527a3ecf1f",
    ("algebra", 1, 200): "d3d10e019c79a1c3390db14a71de21095d71461de22a0f213451dbfd2c7acef5",
    ("deduce", 1, 1500): "a506be50eb2240c9dd02009b0812913ed5e8505ec9321b3eaae99f45cce31975",
    ("wide", 1, 1500): "fdbc526eb3f736b9af89b5c25a71576fe80497d2c91a1d69705e0fe39abe3d60",
    ("algebra", 1, 1500): "b16f78ae900ef71f482e31aade057b8443f2a5417d391c59b199039e3ba9c888",
    ("deduce", 7, 1500): "155eabc476abe8d64de9814630a036bcef4a8856edb72f531a84d29588661d5a",
    ("wide", 7, 1500): "a3fe081b7828002914089c8f67f65b78a02bda52cef3197c418361991ada750d",
    ("algebra", 7, 1500): "5285185ad52c8fefff2023881181efcd138e5faceeb5676b68b6c7e8a50c07e4",
}


def records(workload: str, seed: int, count: int):
    """``(kind, record)`` of ops ``0..count-1`` of one workload and seed."""
    from prooflab import cli

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out_path = work / "out.proof"
        for i in range(count):
            op = make_op(workload, seed, i)
            for name, text in op.files.items():
                (work / name).write_text(text, encoding="utf-8")
            out_path.unlink(missing_ok=True)
            argv = [str(work / a[1:]) if a.startswith("@") else a for a in op.argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            out_file = out_path.read_text(encoding="utf-8") if out_path.exists() else NO_FILE
            fields = (str(i), str(rc), out.getvalue(), err.getvalue(), out_file)
            yield op.kind, "\0".join(fields).replace(tmp, TOKEN) + "\0"


def digest(workload: str, seed: int, count: int) -> str:
    h = hashlib.sha256()
    for _, record in records(workload, seed, count):
        h.update(record.encode("utf-8"))
    return h.hexdigest()


def each(workload: str, seed: int, count: int) -> list[str]:
    """One line per op: index, kind and the SHA-256 of its record."""
    return [
        f"{i} {kind} {hashlib.sha256(record.encode('utf-8')).hexdigest()}"
        for i, (kind, record) in enumerate(records(workload, seed, count))
    ]


def main(argv: list[str]) -> int:
    if not argv:
        bad = 0
        for (workload, seed, count), want in DIGESTS.items():
            got = digest(workload, seed, count)
            bad += got != want
            print(f"{workload} seed {seed} ops {count}: {'ok' if got == want else 'CHANGED ' + got}")
        return 1 if bad else 0
    workload, seed, count = argv[0], int(argv[1]), int(argv[2])
    if argv[3:] == ["--each"]:
        print("\n".join(each(workload, seed, count)))
    else:
        print(digest(workload, seed, count))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
