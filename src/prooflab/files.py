"""Text file formats: base-set files, deduction files, and proof files.

Base-set and deduction files hold one formula per line in the core
grammar; ``#`` starts a comment and blank lines are ignored. A
deduction file may open with a ``premises: <path>`` directive naming a
base-set file (resolved relative to the deduction file). Proof files
are versioned with a leading ``format: 1`` line followed by the
canonical serialization.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .propclass import DEFAULT_ATOM_CAP, PropClass, canonicalize_text
from .proof import ProofNode, canonical_serialize, parse_proof, text_length

PROOF_FORMAT_LINE = "format: 1"


def _content_lines(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def read_sigma_text(text: str, atom_cap: int = DEFAULT_ATOM_CAP) -> frozenset[PropClass]:
    return frozenset(canonicalize_text(line, atom_cap) for line in _content_lines(text))


def read_sigma_file(path: str, atom_cap: int = DEFAULT_ATOM_CAP) -> frozenset[PropClass]:
    with open(path, encoding="utf-8") as fh:
        return read_sigma_text(fh.read(), atom_cap)


def read_deduction_file(
    path: str, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[list[PropClass], str | None]:
    """Returns the step classes and the premises-directive path, if any."""
    with open(path, encoding="utf-8") as fh:
        lines = _content_lines(fh.read())
    premises_path = None
    if lines and lines[0].startswith("premises:"):
        premises_path = lines[0].split(":", 1)[1].strip()
        premises_path = os.path.join(os.path.dirname(path), premises_path)
        lines = lines[1:]
    if not lines:
        raise ParseError(f"deduction file {path!r} has no steps")
    steps = [canonicalize_text(line, atom_cap) for line in lines]
    return steps, premises_path


def proof_file_text(r: ProofNode) -> str:
    return f"{PROOF_FORMAT_LINE}\n{canonical_serialize(r)}\n"


def proof_file_length(r: ProofNode) -> int:
    """``len(proof_file_text(r))``, without building the text."""
    return len(PROOF_FORMAT_LINE) + 2 + text_length(r)


def write_proof_file(path: str, r: ProofNode) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(proof_file_text(r))


def read_proof_text(text: str) -> ProofNode:
    lines = text.splitlines()
    if not lines or lines[0].strip() != PROOF_FORMAT_LINE:
        raise ParseError("proof file must start with 'format: 1'")
    body = "".join(line.strip() for line in lines[1:])
    return parse_proof(body)


def read_proof_file(path: str) -> ProofNode:
    with open(path, encoding="utf-8") as fh:
        return read_proof_text(fh.read())


def read_formula_arg(text: str, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    return canonicalize_text(text, atom_cap)
