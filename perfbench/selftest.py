"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that one seed always generates byte-identical inputs, that the
checker counts an op as failed when the benchmark's expected answer is
corrupted (the program is left alone), that both modes of ``run.py``
end with a result line holding every metric of ``BENCHMARK.json`` with
its unit, that the traced run's counts repeat for a seed, and that the
benchmark refuses to run without the program's sources. Exits non-zero
at the first check that fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest failed: {message}")


def same_seed_same_inputs() -> None:
    for w in WORKLOADS:
        for i in range(8):
            a, b = make_op(w, 7, i), make_op(w, 7, i)
            check((a.argv, a.files, a.expect) == (b.argv, b.files, b.expect), f"{w} op {i} differs")
        other = [make_op(w, 8, i) for i in range(8)]
        check(
            any((o.argv, o.files) != (make_op(w, 7, i).argv, make_op(w, 7, i).files) for i, o in enumerate(other)),
            f"{w}: seeds 7 and 8 give the same inputs",
        )


def corrupted(workload: str, seed: int, i: int):
    """The i-th op with one field of its expected answer made wrong."""
    op = make_op(workload, seed, i)
    fields = [k for k in ("stdout", "file", "stderr_lines", "error", "proof_root", "laws", "rules") if k in op.expect]
    field = (fields + ["rc"])[i % (len(fields) + 1)]
    value = op.expect[field]
    if isinstance(value, list):
        op.expect[field] = value + ["corrupted"]
    elif isinstance(value, int):
        op.expect[field] = value + 1
    else:
        op.expect[field] = "[;0]" if field == "proof_root" else value + "corrupted"
    return op


def checker_catches_corruption() -> None:
    for w in WORKLOADS:
        honest = bench.Run(w, 3)
        honest.loop(0, min_ops=8)
        check(not honest.failures, f"{w}: honest ops failed: {honest.failures[:2]}")
        bad = bench.Run(w, 3, make=corrupted)
        bad.loop(0, min_ops=8)
        check(len(bad.failures) == bad.ops == 8, f"{w}: {bad.ops - len(bad.failures)} corrupted ops passed")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_schema() -> dict[str, dict]:
    traced = {}
    for w in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(w, 5, trace)
            check(done.returncode == 0, f"{w} trace={trace} exited {done.returncode}: {done.stderr[-500:]}")
            result = json.loads(done.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0, f"{w} trace={trace}: {result['failed']} failed")
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1, "attempted")
            want = {m["name"]: m["unit"] for m in SPEC[kind]}
            got = result["metrics"]
            check(set(got) == set(want), f"{w} trace={trace} metrics {sorted(set(got) ^ set(want))}")
            for name, m in got.items():
                check(set(m) == {"value", "unit"} and m["unit"] == want[name], f"{name}: {m}")
                check(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r}")
            if trace:
                traced[w] = got
    return traced


def counts_repeat(first: dict) -> None:
    """Counts repeat exactly for a seed. Hit ratios may differ in the
    fourth digit: on Python before 3.12 ``hash(None)`` follows the
    object's address, so the order in which ``module_algebra.add``
    conjoins a frozenset of premise nodes, and with it which combines
    hit the cache, changes between processes."""
    done = run_bench("algebra", 5, 1)
    again = json.loads(done.stdout.splitlines()[-1])["metrics"]
    for name, m in first["algebra"].items():
        if name.endswith(("_calls", "witness_rank", "domain_errors")):
            check(again[name] == m, f"{name} changed between runs of one seed")
        elif name.endswith("_ratio"):
            check(abs(again[name]["value"] - m["value"]) < 1e-3, f"{name} moved between runs of one seed")


def refuses_without_sources() -> None:
    bare = bench.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run_bench("algebra", 1, 0, cwd=bare)
        check(done.returncode != 0, "ran without the program's sources")
        check('"metrics"' not in done.stdout, "printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> None:
    bench.WORK.mkdir(exist_ok=True)
    same_seed_same_inputs()
    checker_catches_corruption()
    counts_repeat(result_schema())
    refuses_without_sources()
    print("selftest passed")


if __name__ == "__main__":
    main()
