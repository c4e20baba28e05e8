"""Positioned diagnostics and their machine-readable serialization."""

from __future__ import annotations

import enum

from .spans import SourceSpan


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


class Diagnostic:
    __slots__ = ("severity", "code", "message", "span", "related", "data")

    def __init__(self, severity: Severity, code: str, message: str,
                 span: SourceSpan,
                 related: list[tuple[SourceSpan, str]] | None = None,
                 data: dict | None = None):
        self.severity = severity
        self.code = code
        self.message = message
        self.span = span
        self.related = [] if related is None else related
        # Structured payload for downstream consumers (quick fixes); not
        # serialized.
        self.data = {} if data is None else data

    def machine_line(self) -> str:
        """Tab-separated record: file, start_line, start_col, end_line,
        end_col, severity, code, message."""
        s = self.span
        msg = self.message.replace("\t", " ").replace("\n", " ")
        return "\t".join(
            [
                s.file_id,
                str(s.start_line),
                str(s.start_col),
                str(s.end_line),
                str(s.end_col),
                self.severity.value,
                self.code,
                msg,
            ]
        )

    def human_line(self) -> str:
        s = self.span
        return (
            f"{s.file_id}:{s.start_line}:{s.start_col}: "
            f"{self.severity.value}: {self.message} [{self.code}]"
        )


def sort_key(d: Diagnostic):
    return (d.span.file_id, d.span.start_offset, d.span.end_offset, d.code, d.message)
