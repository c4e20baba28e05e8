"""`plkit check` on a generated 40-file corpus, against committed output.

The files under tests/golden/ hold the output in both formats, with the
project root cut from every path. A change that is meant to keep check's
behaviour shows it by keeping this test green byte for byte.
"""

import os

import pytest

from plkit.cli import main
from test_acceptance import make_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_check_output_matches_golden(tmp_path, capsys, fmt):
    root = str(tmp_path / "corpus40")
    make_corpus(root, 40)
    assert main(["check", root, "--format", fmt]) == 1
    out = capsys.readouterr().out.replace(root + os.sep, "")
    with open(os.path.join(GOLDEN, f"check_corpus40.{fmt}.txt"),
              encoding="utf-8") as fh:
        assert out == fh.read()
