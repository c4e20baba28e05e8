"""Doc text for the builtin registry (`engine.BUILTIN_INDICATORS`).

Plain-text format, records separated by blank lines:
    name/arity
    synopsis line
    one line per argument description
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

_DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "builtin_catalog.txt")


@dataclass
class CatalogEntry:
    synopsis: str
    arguments: list[str]


def parse_catalog(text: str) -> dict[tuple[str, int], CatalogEntry]:
    entries: dict[tuple[str, int], CatalogEntry] = {}
    for chunk in text.split("\n\n"):
        lines = [line.rstrip() for line in chunk.strip().splitlines() if line.strip()]
        if len(lines) < 2:
            continue
        indicator = lines[0].strip()
        name, _, arity_text = indicator.rpartition("/")
        if not name or not arity_text.isdigit():
            continue
        entries[name, int(arity_text)] = CatalogEntry(
            lines[1].strip(), [line.strip() for line in lines[2:]])
    return entries


@functools.cache
def load_default_catalog() -> dict[tuple[str, int], CatalogEntry]:
    with open(_DEFAULT_PATH, encoding="utf-8") as fh:
        return parse_catalog(fh.read())
