"""Spans and cache counts for the traced run.

The tracer wraps, for the duration of the traced run only, the module
attributes through which one prooflab layer calls another: every layer
function that ``prooflab.cli`` imports, the parser and canonicalizer
that ``prooflab.files`` calls, and the subset checks that
``prooflab.deduction`` calls. Each call becomes a span (name, start,
end, parent, op id) kept in memory; a span's self time is its duration
minus that of its children. Cache counts are per-op deltas of the
program's ``lru_cache`` statistics. No program file changes.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# module attribute -> the deeper calls a layer makes through it
INNER_TARGETS = [
    ("prooflab.files", "parse"),
    ("prooflab.files", "canonicalize"),
    ("prooflab.files", "parse_proof"),
    ("prooflab.deduction", "check_deduction"),
    ("prooflab.deduction", "omega"),
]

CACHES = {
    "propclass.combine": ("prooflab.propclass", "_combine2"),
    "propclass.entails": ("prooflab.propclass", "entails"),
    "proof.serialize": ("prooflab.proof", "canonical_serialize"),
    "proof.normalize": ("prooflab.proof", "normalize"),
}

# per-layer time metric -> the spans whose self time it sums
SELF_TIME = {
    "cli.self_ms": ["cli.run"],
    "files.read_ms": [
        "files.read_deduction_file",
        "files.read_sigma_file",
        "files.read_proof_file",
        "files.read_formula_arg",
    ],
    "files.emit_ms": ["files.proof_file_text"],
    "formula.parse_ms": ["formula.parse"],
    "propclass.canonicalize_ms": ["propclass.canonicalize"],
    "sigma.extend_ms": ["sigma.lindenbaum_extend"],
    "sigma.ring_audit_ms": ["sigma.check_ring_axioms"],
    "deduction.check_ms": ["deduction.check_deduction"],
    "deduction.interpret_ms": ["deduction.induce_interpretation"],
    "deduction.omega_ms": ["deduction.omega"],
    "deduction.rules_ms": ["deduction.classical_rules_report"],
    "proof.build_ms": ["proof.build_proof"],
    "proof.parse_ms": ["proof.parse_proof"],
    "proof.digest_ms": ["proof.digest_hex"],
    "module_algebra.add_ms": ["module_algebra.add"],
    "module_algebra.smul_ms": ["module_algebra.scalar_mul"],
    "module_algebra.audit_ms": ["module_algebra.check_module_axioms"],
    "surgery.find_ms": ["surgery.find_occurrences"],
    "surgery.extract_ms": ["surgery.extract_subproof"],
    "surgery.rewrite_ms": ["surgery.eliminate_subproof", "surgery.replace_subproof"],
}

# per-layer call-count metric -> the span it counts
SPAN_COUNTS = {
    "formula.parse_calls": "formula.parse",
    "propclass.canonicalize_calls": "propclass.canonicalize",
    "deduction.omega_calls": "deduction.omega",
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.cache_deltas: list[dict[str, tuple[int, int]]] = []
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return traced

    def install(self) -> None:
        """Wrap the layer boundaries; ``uninstall`` puts the originals back."""
        cli = importlib.import_module("prooflab.cli")
        targets = [
            (cli, name)
            for name, obj in vars(cli).items()
            if callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", "").startswith("prooflab.")
            and obj.__module__ != "prooflab.cli"
        ]
        targets += [(importlib.import_module(m), a) for m, a in INNER_TARGETS]
        for module, attr in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                self._restore.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, fn = self._restore.pop()
            setattr(module, attr, fn)

    @contextmanager
    def op_span(self, op_id: int):
        """The root span of one CLI call, with its cache-count deltas."""
        before = cache_counts()
        self.op = op_id
        idx = self._enter("cli.run")
        try:
            yield
        finally:
            self._exit(idx)
            after = cache_counts()
            self.cache_deltas.append(
                {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
            )

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, ops: int, count_ops: int) -> dict[str, float]:
        """Self time per op over all ``ops`` traced ops; counts and hit
        ratios per op over the first ``count_ops`` ops only, whose call
        counts a given seed always repeats."""
        selfs = self.self_times()
        by_name: dict[str, float] = {}
        counts: dict[str, int] = {}
        for span, s in zip(self.spans, selfs):
            by_name[span[0]] = by_name.get(span[0], 0.0) + s
            if span[4] < count_ops:
                counts[span[0]] = counts.get(span[0], 0) + 1
        out = {
            metric: 1000 * sum(by_name.get(n, 0.0) for n in names) / ops
            for metric, names in SELF_TIME.items()
        }
        for metric, name in SPAN_COUNTS.items():
            out[metric] = counts.get(name, 0) / count_ops
        totals = {k: [0, 0] for k in CACHES}
        for row in self.cache_deltas[:count_ops]:
            for k, (hits, misses) in row.items():
                totals[k][0] += hits
                totals[k][1] += misses
        for k, (hits, misses) in totals.items():
            out[f"{k}_calls"] = (hits + misses) / count_ops
            out[f"{k}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        return out

    def split(self) -> dict[str, float]:
        """Each module's share of total self time."""
        shares: dict[str, float] = {}
        for span, s in zip(self.spans, self.self_times()):
            module = span[0].split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + s
        total = sum(shares.values()) or 1.0
        return {k: v / total for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each program cache; (0, 0) when it is gone."""
    out = {}
    for key, (module, attr) in CACHES.items():
        info = getattr(getattr(importlib.import_module(module), attr, None), "cache_info", None)
        stats = info() if info else None
        out[key] = (stats.hits, stats.misses) if stats else (0, 0)
    return out
