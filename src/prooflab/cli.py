"""Batch command-line front end.

Exit codes: 0 on success, 1 on a domain error or a file that cannot be
read or written (with a machine-readable ``error: <Kind>: <detail>``
line on stderr), 2 on usage errors. Every
command that loads a base set prints the completion witness to stderr.
All outputs are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import lru_cache

from .deduction import (
    Deduction,
    check_deduction,
    classical_rules_report,
    induce_interpretation,
)
from .errors import ProofLabError
from .files import (
    proof_file_length,
    proof_file_text,
    read_deduction_file,
    read_formula_arg,
    read_proof_file,
    read_sigma_file,
)
from .module_algebra import add, check_module_axioms, scalar_mul
from .proof import (
    ProofNode,
    _pretty_class_length,
    digest_hex,
    pretty_class,
    pretty_proof,
    proof_eq,
    prove,
    require_budget,
    text_length,
)
from .propclass import DEFAULT_ATOM_CAP, MAX_ATOM_CAP, all_classes
from .sigma import (
    FORMAL_ONE,
    ClassScalar,
    SigmaPrime,
    check_ring_axioms,
    lindenbaum_extend,
)
from .surgery import (
    eliminate_subproof,
    extract_subproof,
    find_occurrences,
    format_path,
    parse_path,
    replace_subproof,
    require_target,
)


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _atom_cap(text: str) -> int:
    # the ceiling keeps a cap from asking for tables of 2**cap bits
    value = _non_negative_int(text)
    if value > MAX_ATOM_CAP:
        raise argparse.ArgumentTypeError(f"expected at most {MAX_ATOM_CAP}, got {text!r}")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and, by name, each command's own parser, built
    on the first ``run`` and kept for the life of the process: parsing
    keeps no state in a parser, and help text is laid out when printed."""
    top = argparse.ArgumentParser(prog="prooflab")
    sub = top.add_subparsers(dest="command", required=True)

    def sigma_opts(p, required=False):
        p.add_argument("--sigma", required=required, help="base-set file")
        p.add_argument("--default-bit", type=int, choices=(0, 1), default=0)
        p.add_argument("--atom-cap", type=_atom_cap, default=DEFAULT_ATOM_CAP)

    p = sub.add_parser("parse", help="canonicalize a formula")
    p.add_argument("formula")
    p.add_argument("--format", choices=("canonical", "pretty"), default="canonical")
    p.add_argument("--atom-cap", type=_atom_cap, default=DEFAULT_ATOM_CAP)

    p = sub.add_parser("check", help="justify every deduction step")
    p.add_argument("deduction")
    sigma_opts(p)

    p = sub.add_parser("interpret", help="print the induced reading")
    p.add_argument("deduction")
    sigma_opts(p)

    p = sub.add_parser("prove", help="deduction file to proof file")
    p.add_argument("deduction")
    sigma_opts(p)
    p.add_argument("--format", choices=("canonical", "pretty"), default="canonical")
    p.add_argument("--output", help="write here instead of stdout")

    p = sub.add_parser("eq", help="compare two proof files")
    p.add_argument("proof_a")
    p.add_argument("proof_b")

    p = sub.add_parser("add", help="module sum of two proofs")
    p.add_argument("proof_a")
    p.add_argument("proof_b")
    sigma_opts(p, required=True)
    p.add_argument("--output")

    p = sub.add_parser("smul", help="scalar product; 'e' is the formal identity")
    p.add_argument("scalar")
    p.add_argument("proof")
    sigma_opts(p, required=True)
    p.add_argument("--output")

    p = sub.add_parser("axioms", help="ring and module law audit")
    sigma_opts(p, required=True)
    p.add_argument("--atoms", type=int, choices=(1, 2, 3), default=2)
    p.add_argument("--samples", type=_non_negative_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="also write the report here")

    for name in ("replace", "extract", "eliminate"):
        p = sub.add_parser(name, help=f"{name} a subproof")
        p.add_argument("--target", required=True, help="proof file to operate on")
        if name == "replace":
            p.add_argument("--donor", required=True, help="proof file supplying the justification")
        p.add_argument("--sigma-class", required=True, help="formula naming the subproof conclusion")
        p.add_argument("--single-path", help="digest path restricting the operation")
        sigma_opts(p, required=(name == "replace"))
        p.add_argument("--output")

    p = sub.add_parser("rules", help="classical rule-table validity report")
    p.add_argument("--atoms", type=int, choices=(1, 2, 3), default=2)

    return top, dict(sub.choices)


def _load_sigma(args, steps_premises: str | None = None) -> SigmaPrime:
    # an empty --sigma names an unreadable file, not a missing option
    path = steps_premises if args.sigma is None else args.sigma
    base = frozenset() if path is None else read_sigma_file(path, args.atom_cap)
    sp = lindenbaum_extend(base, args.default_bit)
    print(f"witness: {sp.witness_text()}", file=sys.stderr)
    return sp


def _load_deduction(args) -> Deduction:
    steps, directive = read_deduction_file(args.deduction, args.atom_cap)
    sp = _load_sigma(args, directive)
    return Deduction(tuple(steps), sp)


def _require_text_budget(r: ProofNode, pretty: bool) -> None:
    """Check the text ``_emit_proof`` would build against the budget.
    Pretty output sorts children by their canonical text, so that text
    has to fit too."""
    if pretty:
        require_budget("pretty proof", text_length(r, pretty=True) + 1)
    require_budget("canonical proof", proof_file_length(r))


def _emit_proof(args, r: ProofNode, pretty: bool = False) -> None:
    _require_text_budget(r, pretty)
    text = pretty_proof(r) + "\n" if pretty else proof_file_text(r)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@lru_cache(maxsize=None)
def _option_table(parser: argparse.ArgumentParser) -> tuple:
    """``parser``'s one-value options by option string, its positionals
    in order, the dests of its required options and its defaults, read
    once from its actions; the help action takes no value and is left
    out, so ``-h`` goes to argparse."""
    options, positionals, required, defaults = {}, [], set(), {}
    for action in parser._actions:
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if action.nargs is not None:
            continue
        if not action.option_strings:
            positionals.append(action)
        elif action.required:
            required.add(action.dest)
        options.update(dict.fromkeys(action.option_strings, action))
    return options, positionals, required, defaults


def _table_args(
    command: str, argv: list[str], parser: argparse.ArgumentParser
) -> argparse.Namespace | None:
    """The namespace ``parser`` makes of ``argv`` when every option is
    spelled in full and followed by a value, the positionals fill the
    command's own, every required option appears and every value passes
    its type and choices; None for any other argv."""
    options, positionals, required, defaults = _option_table(parser)
    values, filled = {}, 0
    tokens = iter(argv)
    for token in tokens:
        action = options.get(token)
        if action is not None:
            token = next(tokens, "-")
        elif filled < len(positionals):
            action = positionals[filled]
            filled += 1
        else:
            return None
        if token[:1] == "-":
            return None
        try:
            value = token if action.type is None else action.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if filled < len(positionals) or not required <= values.keys():
        return None
    return argparse.Namespace(command=command, **{**defaults, **values})


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` decoded by the option table of the command it names; any
    other argv goes through the full parser, which reports every usage
    error in its own words."""
    top, commands = _build_parser()
    if argv and argv[0] in commands:
        args = _table_args(argv[0], argv[1:], commands[argv[0]])
        if args is not None:
            return args
    return top.parse_args(argv)


def run(argv: list[str]) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return _dispatch(args)
    except ProofLabError as e:
        print(f"error: {e.kind}: {e}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "parse":
        c = read_formula_arg(args.formula, args.atom_cap)
        if args.format == "canonical":
            print(c.text())
        else:
            require_budget("pretty class", _pretty_class_length(c) + 1)
            print(pretty_class(c))
        return 0

    if args.command == "check":
        d = _load_deduction(args)
        report = check_deduction(d, args.atom_cap)
        for line in report.lines():
            print(line)
        print("valid" if report.valid else f"invalid at step {report.first_invalid}")
        return 0

    if args.command == "interpret":
        d = _load_deduction(args)
        phi = induce_interpretation(d, args.atom_cap)
        for line in phi.lines():
            print(line)
        return 0

    if args.command == "prove":
        d = _load_deduction(args)
        r = prove(d, args.atom_cap)
        _emit_proof(args, r, args.format == "pretty")
        return 0

    if args.command == "eq":
        a = read_proof_file(args.proof_a)
        b = read_proof_file(args.proof_b)
        if proof_eq(a, b):
            print(f"equal {digest_hex(a)}")
        else:
            print(f"different {digest_hex(a)} {digest_hex(b)}")
        return 0

    if args.command == "add":
        sp = _load_sigma(args)
        r = add(read_proof_file(args.proof_a), read_proof_file(args.proof_b), sp, args.atom_cap)
        _emit_proof(args, r)
        return 0

    if args.command == "smul":
        sp = _load_sigma(args)
        s = FORMAL_ONE if args.scalar == "e" else ClassScalar(
            read_formula_arg(args.scalar, args.atom_cap)
        )
        r = scalar_mul(s, read_proof_file(args.proof), sp, args.atom_cap)
        _emit_proof(args, r)
        return 0

    if args.command == "axioms":
        sp = _load_sigma(args)
        report_text = _axioms_report(sp, args.atoms, args.samples, args.seed)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report_text + "\n")
        print(report_text)
        return 0

    if args.command in ("replace", "extract", "eliminate"):
        return _surgery(args)

    if args.command == "rules":
        for law in classical_rules_report(args.atoms).laws:
            print(law.verdict())
        return 0

    raise AssertionError(f"unhandled command {args.command}")


def _axioms_report(sp: SigmaPrime, atoms: int, samples: int, seed: int) -> str:
    names = ("p", "q", "r")[:atoms]
    members = [c for c in all_classes(names) if sp.member(c)]
    ring = check_ring_axioms(sp, members)
    rng = random.Random(seed)
    premise_pool = [ProofNode(c) for c in members]
    proofs = list(premise_pool)
    for _ in range(samples):
        kids = rng.sample(premise_pool, k=rng.randint(1, min(3, len(premise_pool))))
        proofs.append(ProofNode(rng.choice(members), frozenset(kids)))
    scalars = [ClassScalar(c) for c in members] + [FORMAL_ONE]
    module = check_module_axioms(sp, scalars, proofs, samples=samples, seed=seed)
    return "\n".join(
        [
            f"ring laws over {len(members)} member classes on atoms {','.join(names)}",
            ring.render(),
            "",
            f"module laws: pool={len(proofs)} samples={samples} seed={seed}",
            module.render(),
        ]
    )


def _surgery(args) -> int:
    target = read_proof_file(args.target)
    sigma_class = read_formula_arg(args.sigma_class, args.atom_cap)
    path = None if args.single_path is None else parse_path(args.single_path)

    occ = find_occurrences(target, sigma_class)
    print(
        "occurrences: " + (" ".join(format_path(p) for p in occ) or "none"),
        file=sys.stderr,
    )

    if args.command == "extract":
        require_target(target, sigma_class, path)
        _emit_proof(args, extract_subproof(target, occ[0] if path is None else path))
        return 0

    if args.command == "eliminate":
        _emit_proof(args, eliminate_subproof(target, sigma_class, path))
        return 0

    sp = _load_sigma(args)
    donor = read_proof_file(args.donor)
    _emit_proof(args, replace_subproof(target, sigma_class, donor, sp, path))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
