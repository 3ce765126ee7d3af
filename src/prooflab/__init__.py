"""prooflab: Lindenbaum-class proof engine.

Canonical Boolean-function classes, a restricted deduction calculus
with machine-induced readings, set-tree proof objects, and a module of
proofs over a maximal consistent extension of a finite base set.
"""

from .errors import (
    BadPath,
    Inconsistent,
    InternalError,
    InvalidDeduction,
    InvalidInterpretation,
    NotFound,
    NotMember,
    ParseError,
    PremiseDonor,
    ProofLabError,
    ResourceLimit,
)
from .formula import And, Atom, Formula, Not, Or, Valuation, atoms_of, evaluate, level, parse, render
from .propclass import (
    CONTRADICTION,
    DEFAULT_ATOM_CAP,
    TAUTOLOGY,
    PropClass,
    all_classes,
    big_and,
    big_or,
    canonicalize,
    canonicalize_text,
    class_and,
    class_from_text,
    class_iff,
    class_not,
    class_or,
    entails,
    evaluate_class,
    is_tautology,
    representative,
)
from .sigma import (
    FORMAL_ONE,
    ClassScalar,
    FormalOne,
    Scalar,
    SigmaPrime,
    check_ring_axioms,
    lindenbaum_extend,
    ring_add,
    ring_mul,
    scalar_or,
)
from .deduction import (
    CLASSICAL_RULES,
    Deduction,
    DeductionReport,
    InferenceRule,
    Interpretation,
    check_deduction,
    check_rule,
    classical_rules_report,
    gamma,
    induce_interpretation,
    nth_prime,
    omega,
    validate_interpretation,
)
from .proof import (
    ProofNode,
    build_proof,
    canonical_serialize,
    digest,
    digest_hex,
    essentially_equal,
    less_forced,
    normalize,
    parse_proof,
    premises,
    proof_eq,
)
from .module_algebra import (
    add,
    check_module_axioms,
    delta_merge,
    embed_premise,
    neutral_proof,
    scalar_mul,
)
from .surgery import (
    ProofPath,
    eliminate_subproof,
    extract_subproof,
    find_occurrences,
    format_path,
    parse_path,
    replace_subproof,
)

__version__ = "0.1.0"
