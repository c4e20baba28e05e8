"""Source positions shared by every stage of the pipeline."""

from __future__ import annotations

import bisect


class SourceSpan:
    """Half-open [start_offset, end_offset) region of one file.

    Offsets count code points; line/col are 1-based. Spans compare and
    hash by value and are never changed after construction.
    """

    __slots__ = ("file_id", "start_offset", "end_offset", "start_line",
                 "start_col", "end_line", "end_col")

    def __init__(self, file_id: str, start_offset: int, end_offset: int,
                 start_line: int, start_col: int, end_line: int, end_col: int):
        if start_offset > end_offset:
            raise ValueError("span start after end")
        self.file_id = file_id
        self.start_offset = start_offset
        self.end_offset = end_offset
        self.start_line = start_line
        self.start_col = start_col
        self.end_line = end_line
        self.end_col = end_col

    def _key(self) -> tuple:
        return (self.file_id, self.start_offset, self.end_offset, self.start_line,
                self.start_col, self.end_line, self.end_col)

    def __eq__(self, other):
        if other.__class__ is not SourceSpan:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "SourceSpan(%r, %d, %d, %d, %d, %d, %d)" % self._key()

    def covers(self, offset: int) -> bool:
        return self.start_offset <= offset < self.end_offset

    def enclose(self, other: "SourceSpan") -> "SourceSpan":
        """Smallest span containing both self and other (same file)."""
        if other.start_offset < self.start_offset:
            lo = (other.start_offset, other.start_line, other.start_col)
        else:
            lo = (self.start_offset, self.start_line, self.start_col)
        if other.end_offset > self.end_offset:
            hi = (other.end_offset, other.end_line, other.end_col)
        else:
            hi = (self.end_offset, self.end_line, self.end_col)
        return SourceSpan(self.file_id, lo[0], hi[0], lo[1], lo[2], hi[1], hi[2])


class LineIndex:
    """Maps code-point offsets to 1-based line/column pairs."""

    def __init__(self, text: str):
        self._starts = [0]
        for i, ch in enumerate(text):
            if ch == "\n":
                self._starts.append(i + 1)
        self._length = len(text)

    def position(self, offset: int) -> tuple[int, int]:
        line = bisect.bisect_right(self._starts, offset) - 1
        return line + 1, offset - self._starts[line] + 1

    def span(self, file_id: str, start: int, end: int) -> SourceSpan:
        sl, sc = self.position(start)
        el, ec = self.position(end)
        return SourceSpan(file_id, start, end, sl, sc, el, ec)
