"""prooflab: Lindenbaum-class proof engine.

Canonical Boolean-function classes, a restricted deduction calculus
with machine-induced readings, set-tree proof objects, and a module of
proofs over a maximal consistent extension of a finite base set.

The paper's reference definitions (formula trees, Ω, γ, the
index-set reading and its check) are in :mod:`prooflab.spec`, which
this package does not import: ``from prooflab.spec import parse``.
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
from .formula import Valuation
from .propclass import (
    CONTRADICTION,
    DEFAULT_ATOM_CAP,
    TAUTOLOGY,
    PropClass,
    all_classes,
    big_and,
    canonicalize_text,
    class_and,
    class_from_text,
    class_iff,
    class_not,
    class_or,
    entails,
    evaluate_class,
    is_tautology,
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
)
from .deduction import (
    CLASSICAL_RULES,
    Deduction,
    DeductionReport,
    InferenceRule,
    check_deduction,
    check_rule,
    classical_rules_report,
)
from .proof import (
    ProofNode,
    canonical_serialize,
    digest,
    digest_hex,
    normalize,
    parse_proof,
    proof_eq,
    prove,
)
from .module_algebra import (
    add,
    check_module_axioms,
    delta_merge,
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
