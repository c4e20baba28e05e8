import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from plkit.database import Database
from plkit.lexer import tokenize
from plkit.reader import Reader


def read_one(text: str, db: Database | None = None):
    """Parse a single sentence; fail loudly on diagnostics."""
    db = db or Database()
    tokens, lex_diags = tokenize(text, "<test>")
    assert not lex_diags, [d.message for d in lex_diags]
    reader = Reader(text, tokens, db, "<test>")
    sentence = reader.read_sentence()
    assert not reader.diagnostics, [d.message for d in reader.diagnostics]
    assert sentence is not None, "no sentence"
    return sentence


def read_term(text: str, db: Database | None = None):
    return read_one(text + " .", db).term


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                lines[name] = "PASS" if status == "passed" else "FAIL"
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(lines):
            terminalreporter.write_line(f"{name}: {lines[name]}")


@pytest.fixture
def project(tmp_path):
    def make(files: dict[str, str]) -> str:
        for name, content in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        return str(tmp_path)

    return make
