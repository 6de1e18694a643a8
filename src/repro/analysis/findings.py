"""Finding records — the one result type every checker produces.

A :class:`Finding` pins a rule violation to a file and line.  Findings
are plain frozen dataclasses so they sort, dedupe and serialise to JSON
without any ceremony.  Every finding fails the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``file:line``.

    ``message`` is the human-readable sentence; ``rule_id`` is the
    machine-readable handle used by ``--rules`` selection.
    """

    file: str
    line: int
    rule_id: str
    message: str = ""

    def to_json(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"
