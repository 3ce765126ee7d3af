"""prooflab benchmark: closed-loop runs of the ``prooflab`` CLI.

    python3 perfbench/run.py --workload deduce --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory. One op is one in-process ``prooflab.cli.run(argv)`` call on
files generated for it, with stdout and stderr captured. A single
thread sends the next op only after the previous one returns, for
``--seconds`` seconds of wall time (generation and checking included,
timing only the call). Every outcome is checked against the answer
``oracle`` computes; the program's caches start empty and are never
cleared.

Each loop runs in a fresh interpreter (see ``in_fresh_process``).
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time on an untraced reference loop and half on a traced one, and
prints the per-layer metrics (see ``tracing``) and the tracing
overhead, the traced loop's extra time over the same ops. Both print a
traffic report of the inputs' properties, and the last line of stdout
is the result as JSON. Working files and trace files go to
``.bench_work/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
for p in (str(HERE), str(SRC)):
    if p not in sys.path:
        sys.path.insert(0, p)

from oracle import check_outcome  # noqa: E402
from workloads import SCHEDULES, WORKLOADS, make_op  # noqa: E402

SETUP_RUNS = 9
# whole schedule cycles whose counts the traced run reports; a seed
# always repeats them
TRACE_COUNT_CYCLES = {"deduce": 1, "wide": 2, "algebra": 2}
# whole schedule cycles after which the measured run reads its peak RSS,
# so that memory is compared at a fixed amount of work; they fit in about
# half of a 30-second run
RSS_CYCLES = {"deduce": 3, "wide": 12, "algebra": 12}

CHILD = (
    "import pickle, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import run\n"
    "out = getattr(run, sys.argv[2])(*pickle.loads(bytes.fromhex(sys.argv[3])))\n"
    "with open(sys.argv[4], 'wb') as fh:\n"
    "    pickle.dump(out, fh)\n"
)

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import prooflab.cli\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import the CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def witness_rows(err: str) -> int:
    """Assignments the witness search scanned, read off the printed witness."""
    for line in err.splitlines():
        if line.startswith("witness: "):
            bits = "".join(p.split("=")[1] for p in line.split()[1:] if not p.startswith("default="))
            return int(bits, 2) + 1 if bits else 1
    return 0


class Run:
    """One closed-loop run: per-op latencies, outcomes and input properties."""

    def __init__(self, workload: str, seed: int, make=make_op):
        self.workload = workload
        self.seed = seed
        self.make = make
        self.latency: list[float] = []
        self.failures: list[tuple[int, str, list[str]]] = []
        self.props: list[dict] = []
        self.rss_mb = 0.0
        self._seen: set[int] = set()

    def loop(self, seconds: float, tracer=None, min_ops: int = 1, rss_after: int = 0) -> None:
        """Run ops until ``seconds`` have passed and ``min_ops`` (and
        ``rss_after``) are done; ``rss_mb`` is the peak RSS once
        ``rss_after`` ops are done."""
        from prooflab import cli

        workdir = WORK / f"{self.workload}-{self.seed}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        deadline = time.perf_counter() + seconds
        try:
            i = 0
            while i < max(min_ops, rss_after) or time.perf_counter() < deadline:
                self._one(cli, i, workdir, tracer)
                i += 1
                if i == rss_after:
                    self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    def _one(self, cli, i: int, workdir: Path, tracer) -> None:
        op = self.make(self.workload, self.seed, i)
        for name, text in op.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        out_path = workdir / "out.proof"
        out_path.unlink(missing_ok=True)
        argv = [str(workdir / a[1:]) if a.startswith("@") else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.op_span(i) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            t0 = time.perf_counter()
            try:
                rc = cli.run(argv)
            except (Exception, SystemExit) as exc:  # a traceback is a failed op
                rc = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        self.latency.append(t1 - t0)
        out_file = out_path.read_text(encoding="utf-8") if out_path.exists() else None
        bad = check_outcome(op.expect, rc, out.getvalue(), err.getvalue(), out_file)
        if bad:
            self.failures.append((i, op.kind, bad))
        classes = {hash(c) for c in op.props.get("classes", ())}
        reused = len(classes & self._seen) / len(classes) if classes else 0.0
        self._seen |= classes
        props = {k: v for k, v in op.props.items() if k != "classes"}
        props.update(kind=op.kind, error=op.expect["rc"] == 1, reused=reused,
                     witness_rows=witness_rows(err.getvalue()))
        self.props.append(props)

    @property
    def ops(self) -> int:
        return len(self.latency)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        ms = sorted(1000 * t for t in self.latency)
        p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
        return {
            "throughput_ops_s": self.ops / sum(self.latency),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": p90,
            "setup_s": setup_s,
            "peak_rss_mb": self.rss_mb,
        }

    def traffic(self) -> dict:
        """The input properties that define the workload, over this run's ops."""
        props = self.props
        kinds: dict[str, int] = {}
        for p in props:
            kinds[p["kind"]] = kinds.get(p["kind"], 0) + 1
        report = {
            "ops": len(props),
            "kind_share": {k: v / len(props) for k, v in sorted(kinds.items())},
            "error_outcome_share": _mean([p["error"] for p in props]),
            "cross_op_class_reuse": _mean([p["reused"] for p in props]),
        }
        steps = [p["steps"] for p in props if "steps" in p]
        if steps:
            report["steps_per_deduction"] = _summary(steps)
            checks = [p for p in props if p["kind"].startswith("check")]
            bad = [p for p in checks if p.get("nonmember_pos")]
            report["nonmember_share_of_checks"] = len(bad) / len(checks) if checks else 0.0
            if bad:
                report["nonmember_position"] = _summary([p["nonmember_pos"] for p in bad])
                report["nonmember_position_over_steps"] = _mean(
                    [p["nonmember_pos"] / p["steps"] for p in bad]
                )
        for key in ("atoms", "base_atoms", "nodes"):
            values = [p[key] for p in props if key in p]
            if values:
                report[key] = _summary(values)
        rows = [p for p in props if "base_atoms" in p]
        if rows:
            report["witness_rows_scanned"] = _summary([p["witness_rows"] for p in rows])
            report["witness_rows_over_space"] = _mean(
                [p["witness_rows"] / 2 ** p["base_atoms"] for p in rows]
            )
        return report


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _summary(values) -> dict:
    return {"mean": _mean(values), "min": min(values), "max": max(values)}


def in_fresh_process(seed: int, fn, *args):
    """``fn(*args)`` run in a new interpreter, so the program's caches
    start empty, with the hash seed fixed by ``seed`` so that string-keyed
    set order inside the program repeats with the inputs."""
    result = WORK / f"result-{os.getpid()}.pickle"
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        subprocess.run(
            [sys.executable, "-c", CHILD, str(HERE), fn.__name__, pickle.dumps(args).hex(), str(result)],
            env=env, cwd=ROOT, check=True, timeout=900,
        )
        with open(result, "rb") as fh:
            return pickle.load(fh)  # written by the child above
    finally:
        result.unlink(missing_ok=True)


def measured(workload: str, seed: int, seconds: float, rss_after: int = 0) -> Run:
    run = Run(workload, seed)
    run.loop(seconds, rss_after=rss_after)
    return run


def traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict[str, float], dict, Path]:
    from tracing import Tracer

    count_ops = TRACE_COUNT_CYCLES[workload] * len(SCHEDULES[workload])
    run = Run(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        run.loop(seconds, tracer, min_ops=count_ops)
    finally:
        tracer.uninstall()

    metrics = tracer.layer_metrics(run.ops, count_ops)
    metrics["sigma.witness_rank"] = _mean([p["witness_rows"] for p in run.props[:count_ops]])
    metrics["cli.domain_errors"] = sum(1 for p in run.props[:count_ops] if p["error"])
    split = tracer.split()
    path = WORK / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "op"],
        "spans": tracer.spans,
        "ops": [{"kind": p["kind"], "latency_s": t} for p, t in zip(run.props, run.latency)],
        "split": split,
    }))
    return run, metrics, split, path


def units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "prooflab" / "cli.py").is_file():
        print(f"perfbench: no prooflab sources at {SRC}", file=sys.stderr)
        return 2
    unit = units()
    WORK.mkdir(exist_ok=True)

    if args.trace:
        half = args.seconds / 2
        reference = in_fresh_process(args.seed, measured, args.workload, args.seed, half)
        run, metrics, split, path = in_fresh_process(args.seed, traced, args.workload, args.seed, half)
        print("trace split: " + json.dumps({k: round(v, 4) for k, v in split.items()}))
        print(f"trace file: {path.relative_to(ROOT)}")
        common = min(reference.ops, run.ops)
        metrics["trace.op_ms"] = 1000 * sum(run.latency) / run.ops
        metrics["trace.overhead_frac"] = (
            sum(run.latency[:common]) / sum(reference.latency[:common]) - 1
        )
    else:
        setup_s = measure_setup()
        rss_after = RSS_CYCLES[args.workload] * len(SCHEDULES[args.workload])
        run = in_fresh_process(args.seed, measured, args.workload, args.seed, args.seconds, rss_after)
        metrics = run.end_to_end(setup_s)

    checked = [run, reference] if args.trace else [run]
    attempted = sum(r.ops for r in checked)
    failures = [f for r in checked for f in r.failures]
    print("traffic: " + json.dumps(run.traffic()))
    print(f"{args.workload} seed={args.seed}: {attempted} ops, {len(failures)} failed")
    for i, kind, bad in failures[:5]:
        print(f"failed op {i} ({kind}): {'; '.join(bad)}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
