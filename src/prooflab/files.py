"""Text file formats: base-set files, deduction files, and proof files.

Base-set and deduction files hold one formula per line in the core
grammar, where a line ends at LF, CR LF or CR; a line that starts
with ``#`` is a comment and blank lines are ignored. A deduction
file may open with a ``premises: <path>`` directive naming a base-set
file (resolved relative to the deduction file). Proof files are
versioned with a leading ``format: 1`` line followed by the canonical
serialization, and their lines end where those of the other files do.
"""

from __future__ import annotations

import os

from .errors import ParseError
from .propclass import DEFAULT_ATOM_CAP, PropClass, canonicalize_text
from .proof import ProofNode, canonical_serialize, parse_proof, text_length

PROOF_FORMAT_LINE = "format: 1"


def _read_text(path: str) -> str:
    # the line splitter folds CR LF and CR, so text mode's newline
    # translation would do no work an output needs; decoding the whole
    # file in one call keeps the position a UnicodeDecodeError names
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def _split_lines(text: str) -> list[str]:
    # str.splitlines would also cut a line at a form feed or a Unicode
    # line separator
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _content_lines(text: str) -> list[str]:
    out = []
    for line in _split_lines(text):
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def read_sigma_text(text: str, atom_cap: int = DEFAULT_ATOM_CAP) -> frozenset[PropClass]:
    return frozenset(canonicalize_text(line, atom_cap) for line in _content_lines(text))


def read_sigma_file(path: str, atom_cap: int = DEFAULT_ATOM_CAP) -> frozenset[PropClass]:
    return read_sigma_text(_read_text(path), atom_cap)


def read_deduction_file(
    path: str, atom_cap: int = DEFAULT_ATOM_CAP
) -> tuple[list[PropClass], str | None]:
    """Returns the step classes and the premises-directive path, if any."""
    lines = _content_lines(_read_text(path))
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
    lines = _split_lines(text)
    if lines[0].strip() != PROOF_FORMAT_LINE:
        raise ParseError("proof file must start with 'format: 1'")
    # a one-line body, as every written file has, is the line itself
    body = "".join([line for line in map(str.strip, lines[1:]) if line])
    return parse_proof(body)


def read_proof_file(path: str) -> ProofNode:
    return read_proof_text(_read_text(path))


def read_formula_arg(text: str, atom_cap: int = DEFAULT_ATOM_CAP) -> PropClass:
    return canonicalize_text(text, atom_cap)
