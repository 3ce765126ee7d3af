"""Domain errors raised by prooflab operations.

Every error carries a ``kind`` string used by the CLI for its
machine-readable ``error: <Kind>: <detail>`` line.
"""


class ProofLabError(Exception):
    """Base class for all prooflab domain errors."""

    @property
    def kind(self) -> str:
        return type(self).__name__


class ParseError(ProofLabError):
    """Malformed textual input (formula, class text, or proof file)."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class Inconsistent(ProofLabError):
    """The base set has no satisfying assignment."""


class NotMember(ProofLabError):
    """An operand class is not a member of the maximal consistent extension."""


class ResourceLimit(ProofLabError):
    """A configured size cap (atom support or prior-step count) was exceeded."""


class InvalidDeduction(ProofLabError):
    """A step sequence fails the deduction clauses."""


class InvalidInterpretation(ProofLabError):
    """A step-index assignment does not interpret the given deduction."""


class BadPath(ProofLabError):
    """A digest path does not address a node of the proof tree."""


class NotFound(ProofLabError):
    """The requested conclusion class does not occur in the proof tree."""


class PremiseDonor(ProofLabError):
    """The donor occurrence is a bare premise and carries no justification."""


class InternalError(ProofLabError):
    """An invariant the algebra guarantees failed: a fault in prooflab itself."""
