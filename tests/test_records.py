"""prooflab records behave as the frozen dataclasses they replace, and
importing the CLI loads neither ``dataclasses`` nor what it imports."""

import ast
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import prooflab
from prooflab import _record
from prooflab import deduction, formula, module_algebra, propclass, sigma, spec
from prooflab import (
    ClassScalar,
    Deduction,
    DeductionReport,
    FormalOne,
    InferenceRule,
    PropClass,
    SigmaPrime,
    Valuation,
    canonicalize_text,
    lindenbaum_extend,
)
from prooflab.spec import And, Atom, Interpretation, Not, Or
from prooflab.deduction import StepReport
from prooflab.sigma import LawCheck, LawReport

RECORD_MODULES = (formula, spec, propclass, deduction, sigma, module_algebra)


def samples():
    """Record class -> instances that cover each field kind and default."""
    p, q = Atom("p"), Atom("q")
    cp, cq = canonicalize_text("p"), canonicalize_text("p | q")
    sp = lindenbaum_extend(frozenset({cp}), 0)
    step = StepReport(2, "c", frozenset({1}), None)
    law = LawCheck("add-assoc", 8, ())
    diagnostic = LawCheck("smul-one", 3, ("x",), True)
    return {
        Atom: [p, Atom("x_1")],
        Not: [Not(p), Not(Not(q))],
        And: [And(p, q), And(Not(p), q)],
        Or: [Or(p, q), Or(q, And(p, q))],
        Valuation: [Valuation({"p": 1}), Valuation({}, 1)],
        PropClass: [cp, cq, canonicalize_text("p | ~p")],
        Deduction: [Deduction((cp, cq), sp)],
        Interpretation: [Interpretation({1: 0, 2: frozenset({1})})],
        StepReport: [step, StepReport(1, "a", None, "a")],
        DeductionReport: [DeductionReport((step,)), DeductionReport(())],
        InferenceRule: [InferenceRule("max", 2, max)],
        SigmaPrime: [sp, lindenbaum_extend(frozenset(), 1)],
        FormalOne: [FormalOne()],
        ClassScalar: [ClassScalar(cp)],
        LawCheck: [law, LawCheck("mul-comm", 0, ("a", "b")), diagnostic],
        LawReport: [LawReport((law,), 24, 5), LawReport((law, diagnostic), 33, 10)],
    }


def fields(cls):
    return list(cls.__annotations__)


def own(cls, name):
    """Whether ``cls`` defines the method itself, rather than the record
    decorator adding it."""
    return getattr(cls.__dict__.get(name), "__module__", None) == cls.__module__


def twin(cls):
    """The frozen dataclass the record replaces, from its annotations and
    defaults, with its ``__post_init__``."""
    slots = cls.__dict__.get("__slots__", ())
    spec = [
        (name, kind, dataclasses.field(default=cls.__dict__[name]))
        if name in cls.__dict__ and name not in slots
        else (name, kind)
        for name, kind in cls.__annotations__.items()
    ]
    namespace = {"__post_init__": cls.__post_init__} if own(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(cls.__qualname__, spec, frozen=True, namespace=namespace)


def outcome(call, *args, **kwargs):
    """A call's value, or the type and text of what it raised."""
    try:
        return "value", call(*args, **kwargs)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def values(obj):
    return [getattr(obj, name) for name in fields(type(obj))]


def test_every_record_is_sampled():
    found = {
        obj
        for module in RECORD_MODULES
        for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__setattr__ is _record._frozen_setattr
    }
    assert found == set(samples())
    assert len(found) == 16
    assert all(obj.__module__.startswith("prooflab.") for obj in found)


@pytest.mark.parametrize("cls", list(samples()), ids=lambda cls: cls.__name__)
def test_record_matches_its_frozen_dataclass_twin(cls):
    other = twin(cls)
    objs = samples()[cls]
    twins = [other(*values(obj)) for obj in objs]
    for obj, tw in zip(objs, twins):
        if not own(cls, "__repr__"):
            assert repr(obj) == repr(tw)
        assert outcome(hash, obj) == outcome(hash, tw)
        name = (fields(cls) or ["anything"])[0]
        for target in (obj, tw):
            with pytest.raises(AttributeError) as raised:
                setattr(target, name, None)
            assert str(raised.value) == f"cannot assign to field {name!r}"
            with pytest.raises(AttributeError) as raised:
                delattr(target, name)
            assert str(raised.value) == f"cannot delete field {name!r}"
        assert pickle.loads(pickle.dumps(obj)) == obj
    # == within the class agrees on every pair, the sample with itself too
    for a, ta in zip(objs, twins):
        for b, tb in zip(objs, twins):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
    if cls is not PropClass:  # its own __init__ takes a table
        for obj in objs:
            kw = dict(zip(fields(cls), values(obj)))
            assert cls(**kw) == obj
            assert repr(other(**kw)) == repr(cls(**kw))


def test_record_defaults_and_keyword_construction():
    assert Valuation({"p": 1}) == Valuation({"p": 1}, 0) == Valuation(assign={"p": 1})
    assert repr(Valuation(default=1, assign={})) == repr(twin(Valuation)(default=1, assign={}))
    law = LawCheck("x", 1, ())
    assert law.diagnostic is False
    assert law == LawCheck(checked=1, failures=(), name="x", diagnostic=False)
    assert LawCheck("x", 1, (), diagnostic=True).diagnostic is True


@pytest.mark.parametrize(
    "cls, args, kwargs",
    [
        (Atom, (), {}),
        (Atom, ("p", "q"), {}),
        (Atom, (), {"nom": "p"}),
        (Atom, ("p",), {"name": "q"}),
        (And, (Atom("p"),), {}),
        (LawCheck, ("x",), {"failures": ()}),
        (Valuation, (), {"default": 1}),
    ],
)
def test_record_argument_errors_are_type_errors(cls, args, kwargs):
    kind, _ = outcome(cls, *args, **kwargs)
    assert kind is TypeError
    assert outcome(twin(cls), *args, **kwargs)[0] is TypeError


def test_post_init_errors_match():
    sp = lindenbaum_extend(frozenset(), 0)
    for cls, args in [(Atom, ("P",)), (Atom, ("",)), (Atom, ("1x",)), (Deduction, ((), sp))]:
        got = outcome(cls, *args)
        assert got[0] is ValueError
        assert got == outcome(twin(cls), *args)
    assert outcome(Atom, "p")[0] == outcome(twin(Atom), "p")[0] == "value"


def test_records_of_different_classes_are_unequal():
    p, q = Atom("p"), Atom("q")
    assert And(p, q) != Or(p, q)
    assert not And(p, q) == Or(p, q)
    # equal field values, different classes
    assert LawCheck(2, "c", None, None) != StepReport(2, "c", None, None)
    assert DeductionReport(()) != Interpretation(())
    # a record never equals the tuple of its fields
    assert And(p, q) != (p, q)
    assert And(p, q).__eq__((p, q)) is NotImplemented


def test_class_defined_methods_win():
    for name in ("__init__", "__eq__", "__hash__", "__reduce__"):
        assert PropClass.__dict__[name].__module__ == "prooflab.propclass"
    assert PropClass.__slots__ == ("support", "bits", "_hash")
    assert not hasattr(canonicalize_text("p"), "__dict__")
    with pytest.raises(_record.FrozenInstanceError):
        canonicalize_text("p").bits = 1


def test_frozen_errors_are_attribute_errors():
    assert issubclass(_record.FrozenInstanceError, AttributeError)
    node = prooflab.ProofNode(canonicalize_text("p"))
    with pytest.raises(_record.FrozenInstanceError):
        node.children = None


SRC = str(Path(prooflab.__file__).resolve().parent.parent)

# dataclasses and the modules that only it pulls in
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

IMPORT_PROBE = """
import sys
import prooflab.cli as cli
code = cli.run(["parse", "p"])
print(" ".join(sorted(sys.modules)))
sys.exit(code)
"""


def test_cli_import_loads_no_dataclasses():
    # -S keeps site .pth files, which may import modules of their own,
    # out of the result
    loaded = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    ).stdout.split()
    assert loaded[:1] == ["[p;01]"]
    assert "prooflab._record" in loaded
    assert [name for name in HEAVY if name in loaded] == []


# the reference spec, imported first in a fresh interpreter
SPEC_PROBE = """
import sys
from prooflab import spec
from prooflab.propclass import canonicalize_text
for text in sys.argv[1:]:
    print(spec.canonicalize(spec.parse(text)) == canonicalize_text(text))
"""


def test_cli_import_leaves_out_the_reference_spec():
    env = {**os.environ, "PYTHONPATH": SRC}
    run = partial(subprocess.run, capture_output=True, text=True, check=True, env=env)
    loaded = run([sys.executable, "-S", "-c", IMPORT_PROBE]).stdout.split()
    assert loaded[:1] == ["[p;01]"]
    assert "prooflab.cli" in loaded and "prooflab.spec" not in loaded
    texts = ["p", "p | ~p", "q & (r <-> s)", "~(a | b) & c", "x0 <-> x1 <-> x2"]
    same = run([sys.executable, "-S", "-c", SPEC_PROBE, *texts]).stdout.split()
    assert same == ["True"] * len(texts)


def test_package_imports_at_module_level_only():
    # an import moved into a function would only move its cost into the
    # first command
    package = Path(prooflab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert id(node) in top, f"{path.name}:{node.lineno}: deferred import"
                names = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                assert "dataclasses" not in names, f"{path.name}:{node.lineno}"


def test_no_function_calls_itself_by_name():
    # direct self-calls by bare name only; mutual recursion, method calls
    # and the record ==, hash and repr are not seen here, and the deep
    # walks are checked by running them (test_formula). A walk that
    # recursed once per level would fail on a formula built in code,
    # which has no depth bound; the two column builders recurse once per
    # atom, at most MAX_ATOM_CAP (24) deep
    package = Path(prooflab.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == fn.name:
                        found.add(f"{path.stem}.{fn.name}")
    assert sorted(found) == ["propclass._columns", "propclass._small_columns"]
