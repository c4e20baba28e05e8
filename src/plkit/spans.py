"""Source positions shared by every stage of the pipeline.

A span is two code-point offsets into one file. Line and column are not
stored: they come from the file's `LineIndex`, a line-start table built the
first time a position is asked for, through `bisect`.
"""

from __future__ import annotations

import bisect
import re

_NEWLINE = re.compile("\n")


class LineIndex:
    """One file's id and text, mapping offsets to 1-based line/column."""

    __slots__ = ("file_id", "text", "_starts")

    def __init__(self, file_id: str, text: str):
        self.file_id = file_id
        self.text = text
        self._starts: list[int] | None = None  # offsets where lines start

    def position(self, offset: int) -> tuple[int, int]:
        starts = self._starts
        if starts is None:
            newlines = _NEWLINE.finditer(self.text)
            starts = self._starts = [0, *(m.end() for m in newlines)]
        line = bisect.bisect_right(starts, offset) - 1
        return line + 1, offset - starts[line] + 1


class SourceSpan:
    """Half-open [start_offset, end_offset) region of one file.

    Offsets count code points; line/col are 1-based. Spans compare and
    hash by (file_id, start_offset, end_offset) and are never changed after
    construction.
    """

    __slots__ = ("lines", "start_offset", "end_offset")

    def __init__(self, lines: LineIndex, start_offset: int, end_offset: int):
        if start_offset > end_offset:
            raise ValueError("span start after end")
        self.lines = lines
        self.start_offset = start_offset
        self.end_offset = end_offset

    @property
    def file_id(self) -> str:
        return self.lines.file_id

    @property
    def start_line(self) -> int:
        return self.lines.position(self.start_offset)[0]

    @property
    def start_col(self) -> int:
        return self.lines.position(self.start_offset)[1]

    @property
    def end_line(self) -> int:
        return self.lines.position(self.end_offset)[0]

    @property
    def end_col(self) -> int:
        return self.lines.position(self.end_offset)[1]

    def _key(self) -> tuple:
        return (self.lines.file_id, self.start_offset, self.end_offset)

    def __eq__(self, other):
        if other.__class__ is not SourceSpan:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SourceSpan(%r, %d, %d)" % self._key()

    def covers(self, offset: int) -> bool:
        return self.start_offset <= offset < self.end_offset

    def enclose(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span containing both self and other (same file)."""
        return SourceSpan(self.lines, min(self.start_offset, other.start_offset),
                          max(self.end_offset, other.end_offset))


def file_start(file_id: str) -> SourceSpan:
    """The empty span at line 1, column 1 of `file_id`, for reports about
    the file as a whole."""
    return SourceSpan(LineIndex(file_id, ""), 0, 0)
