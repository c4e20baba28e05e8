import random

import pytest
from oracle_lexer import oracle_tokenize
from test_acceptance import make_corpus

from plkit.lexer import (
    ATOM_KINDS,
    Token,
    TokenKind,
    lossless,
    tokenize,
)
from plkit.spans import LineIndex, SourceSpan

# Kinds of the lossless view that never participate in parsing decisions.
TRIVIA_KINDS = {TokenKind.LAYOUT, TokenKind.LINE_COMMENT, TokenKind.BLOCK_COMMENT}


def toks(source):
    tokens, diagnostics = lossless(source, "<t>")
    assert not diagnostics, [d.message for d in diagnostics]
    return [t for t in tokens if t.kind not in TRIVIA_KINDS]


def kinds(source):
    return [t.kind for t in toks(source)]


def test_lossless_stream():
    source = "foo(X) :- % hi\n  bar(X), /* c */ X > 0.\n"
    tokens, diagnostics = lossless(source, "<t>")
    assert not diagnostics
    assert "".join(t.text for t in tokens) == source


def test_atom_kinds():
    got = toks("foo 'Bar baz' + ! ;")
    assert [t.kind for t in got] == [
        TokenKind.NAME_ATOM, TokenKind.QUOTED_ATOM, TokenKind.SYMBOL_ATOM,
        TokenKind.SOLO_CHAR, TokenKind.SOLO_CHAR,
    ]
    assert all(t.kind in ATOM_KINDS for t in got)
    assert got[1].value == "Bar baz"
    assert got[1].atom_name() == "Bar baz"


def test_variables():
    got = toks("X _foo _ Abc1")
    assert all(t.kind == TokenKind.VARIABLE for t in got)
    assert [t.text for t in got] == ["X", "_foo", "_", "Abc1"]


def test_integers():
    got = toks("0 42 0x1F 0o17 0b101 0'a 0''' 0'\\n")
    assert all(t.kind == TokenKind.INTEGER for t in got)
    assert [t.value for t in got] == [0, 42, 31, 15, 5, ord("a"), ord("'"), 10]


def test_floats():
    got = toks("3.14 1.0e10 2.5E-3 0.0")
    assert all(t.kind == TokenKind.FLOAT for t in got)
    assert got[0].value == 3.14
    assert got[1].value == 1.0e10
    assert got[2].value == 2.5e-3


def test_float_requires_fraction_digits():
    # "1.e3" is integer 1, End, then atom e3 — not a float.
    got = toks("1. ")
    assert [t.kind for t in got] == [TokenKind.INTEGER, TokenKind.END]


def test_quoted_atom_escapes():
    got = toks(r"'a\nb' 'it''s' 'x\\y' 'u\x41\'")
    assert [t.value for t in got] == ["a\nb", "it's", "x\\y", "uA"]


def test_strings():
    got = toks('"hello" "a\\"b" ""')
    assert all(t.kind == TokenKind.STRING for t in got)
    assert [t.value for t in got] == ["hello", 'a"b', ""]


def test_symbol_atom_runs():
    assert [t.text for t in toks("=.. --> ?- @< \\+")] == [
        "=..", "-->", "?-", "@<", "\\+",
    ]


def test_end_token():
    # '.' followed by layout, comment, or EOF ends a sentence.
    got = toks("a. b .% c\nd.")
    assert [t.kind for t in got] == [
        TokenKind.NAME_ATOM, TokenKind.END,
        TokenKind.NAME_ATOM, TokenKind.END,
        TokenKind.NAME_ATOM, TokenKind.END,
    ]


def test_dot_in_symbol_run_is_not_end():
    got = toks("a =.. b.")
    assert TokenKind.END in [t.kind for t in got]
    assert [t.text for t in got][1] == "=.."


def test_open_paren_context():
    got = toks("foo(x), foo (x), X(y)")
    opens = [t.kind for t in got if t.kind in (TokenKind.OPEN_PAREN,
                                               TokenKind.OPEN_PAREN_CT)]
    assert opens == [TokenKind.OPEN_PAREN_CT, TokenKind.OPEN_PAREN,
                     TokenKind.OPEN_PAREN_CT]


@pytest.mark.parametrize("source, kind", [
    ("f/**/(a)", TokenKind.OPEN_PAREN),
    ("f%c\n(a)", TokenKind.OPEN_PAREN),
    ("f (a)", TokenKind.OPEN_PAREN),
    ("f(a)", TokenKind.OPEN_PAREN_CT),
])
def test_a_comment_before_a_paren_is_a_gap(source, kind):
    tokens, _ = tokenize(source, "<t>")
    assert [tok[0] for tok in tokens if tok[1] == "("] == [kind]


def test_tokenize_gives_tuples_and_no_layout():
    assert tokenize("f( X ) .\n", "<t>") == ([
        (TokenKind.NAME_ATOM, "f", 0, 1, None),
        (TokenKind.OPEN_PAREN_CT, "(", 1, 2, None),
        (TokenKind.VARIABLE, "X", 3, 4, None),
        (TokenKind.CLOSE_PAREN, ")", 5, 6, None),
        (TokenKind.END, ".", 7, 8, None),
    ], [])
    # the comments come after the tokens
    assert tokenize("a % c\n/* d */ b.", "<t>") == ([
        (TokenKind.NAME_ATOM, "a", 0, 1, None),
        (TokenKind.NAME_ATOM, "b", 14, 15, None),
        (TokenKind.END, ".", 15, 16, None),
        (TokenKind.LINE_COMMENT, "% c", 2, 5, None),
        (TokenKind.BLOCK_COMMENT, "/* d */", 6, 13, None),
    ], [])
    assert tokenize(" \n\t \u3000", "<t>") == ([], [])
    assert tokenize("% only\n", "<t>") == ([(TokenKind.LINE_COMMENT, "% only", 0, 6, None)], [])
    assert tokenize("/* only */", "<t>") == (
        [(TokenKind.BLOCK_COMMENT, "/* only */", 0, 10, None)], [])


def test_tokenize_of_a_corpus_holds_no_layout(tmp_path):
    make_corpus(str(tmp_path), 40)
    for path in sorted(tmp_path.iterdir()):
        source = path.read_text(encoding="utf-8")
        tokens, _ = tokenize(source, str(path))
        assert TokenKind.LAYOUT not in {tok[0] for tok in tokens}
        view, _ = lossless(source, str(path))
        assert len(tokens) == sum(1 for t in view if t.kind is not TokenKind.LAYOUT)


def test_comments_kept_in_stream():
    tokens, _ = lossless("% line\n/* block */ a.", "<t>")
    comment_kinds = [t.kind for t in tokens if t.kind in TRIVIA_KINDS]
    assert TokenKind.LINE_COMMENT in comment_kinds
    assert TokenKind.BLOCK_COMMENT in comment_kinds


def test_tokens_carry_offsets_and_build_spans_on_request():
    tokens, _ = lossless("ab\ncd.", "f.pl")
    cd = tokens[2]
    assert (cd.text, cd.start, cd.end) == ("cd", 3, 5)
    assert cd.span == SourceSpan(cd.lines, 3, 5)
    assert cd.span is not cd.span  # built on each request, never stored
    assert cd.lines is tokens[0].lines and cd.lines.file_id == "f.pl"


def test_spans_are_one_based():
    tokens, _ = lossless("ab\ncd.", "<t>")
    cd = [t for t in tokens if t.text == "cd"][0]
    assert (cd.span.start_line, cd.span.start_col) == (2, 1)
    assert (cd.span.end_line, cd.span.end_col) == (2, 3)


def test_invalid_character_diagnostic():
    tokens, diagnostics = lossless("a \x01 b.", "<t>")
    assert any(t.kind == TokenKind.INVALID for t in tokens)
    assert len(diagnostics) == 1
    assert diagnostics[0].code == "invalid_character"


def test_unterminated_quoted_atom():
    _, diagnostics = tokenize("'oops", "<t>")
    assert any(d.code == "unterminated_quoted_atom" for d in diagnostics)


def test_unterminated_block_comment():
    _, diagnostics = tokenize("/* never closed", "<t>")
    assert any(d.code == "unterminated_block_comment" for d in diagnostics)


def test_non_ascii_digits_are_not_digits():
    # ISO 6.4.4: number digits are 0-9 only.
    tokens, diagnostics = lossless("p(²). X = 1١. 0e١.", "<t>")
    assert "".join(t.text for t in tokens) == "p(²). X = 1١. 0e١."
    solid = [(t.kind, t.text) for t in tokens if t.kind not in TRIVIA_KINDS]
    assert (TokenKind.INVALID, "²") in solid
    assert solid[solid.index((TokenKind.INTEGER, "1")) + 1] == (TokenKind.INVALID, "١")
    assert (TokenKind.NAME_ATOM, "e١") in solid
    assert [d.code for d in diagnostics] == ["invalid_character"] * 2


def test_inputs_the_old_scanner_crashed_on():
    for source in ["'\\8'.", "'\\19\\'.", "0'\\x110000\\.", "'\\x110000\\'.",
                   "1" * 5000 + "."]:
        tokens, _ = lossless(source, "<t>")
        assert "".join(t.text for t in tokens) == source
    _, diagnostics = tokenize("1" * 5000 + ".", "<t>")
    assert [d.code for d in diagnostics] == ["bad_number"]


def test_span_value_semantics():
    f = LineIndex("f", "ab\ncd")
    a = SourceSpan(f, 1, 3)
    # equal by file id and offsets, whichever line table they go through
    assert a == SourceSpan(LineIndex("f", "ab\ncd"), 1, 3)
    assert hash(a) == hash(SourceSpan(LineIndex("f", "ab\ncd"), 1, 3))
    assert a != SourceSpan(LineIndex("g", "ab\ncd"), 1, 3)
    assert a != SourceSpan(f, 1, 4)
    assert (a.file_id, a.start_line, a.start_col, a.end_line, a.end_col) == \
        ("f", 1, 2, 2, 1)
    with pytest.raises(ValueError):
        SourceSpan(f, 3, 1)


def test_line_index_positions():
    """Line and column through the line table match a count of the text
    before the offset: at line starts, mid-line and at the end of input."""
    for text in ["", "a", "\n", "ab\ncd", "ab\n\ncd\n", "x\n  y(Z).\n% c"]:
        lines = LineIndex("t", text)
        for offset in range(len(text) + 1):
            before = text[:offset]
            expected = (before.count("\n") + 1, offset - (before.rfind("\n") + 1) + 1)
            assert lines.position(offset) == expected, (text, offset)
            span = SourceSpan(lines, offset, len(text))
            assert (span.start_line, span.start_col) == expected
            assert (span.end_line, span.end_col) == lines.position(len(text))
    lines = LineIndex("t", "ab\ncd\n")
    assert lines.position(0) == (1, 1)  # a line start
    assert lines.position(3) == (2, 1)  # a line start
    assert lines.position(4) == (2, 2)  # mid-line
    assert lines.position(5) == (2, 3)  # the last newline
    assert lines.position(6) == (3, 1)  # end of input


# Every character that can start a token, the ones that continue radix,
# exponent and escape forms, and a few non-ASCII ones.
_ALPHABET = (list("azAZ_09'\"%/*.,|!;()[]{}#$&+-:<=>?@^~\\`xobeE \n\t")
             + ["\f", "\r", "\xa0", "é", "É", "²", "١", "\x01", "0'", "''", "/*", "*/"])


def _fields(source):
    tokens, diagnostics = lossless(source, "<t>")
    assert "".join(t.text for t in tokens) == source

    def coords(s):
        return (s.start_offset, s.end_offset, s.start_line, s.start_col,
                s.end_line, s.end_col)

    return ([(t.kind.value, t.text, t.value, *coords(t.span)) for t in tokens],
            [(d.code, d.message, *coords(d.span)) for d in diagnostics])


def test_lexer_matches_oracle(tmp_path):
    """The regex lexer against the character-at-a-time reference scanner:
    the corpus files and seeded random strings must lex identically, except
    where the reference raises."""
    root = tmp_path / "corpus"
    make_corpus(str(root), 12)
    sources = [path.read_text(encoding="utf-8") for path in sorted(root.iterdir())]
    rng = random.Random(5)
    sources += ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
                for _ in range(3000)]
    oracle_raised = 0
    for source in sources:
        got = _fields(source)
        try:
            expected = oracle_tokenize(source)
        except (ValueError, OverflowError):
            oracle_raised += 1
            continue
        assert got == expected, source
    assert oracle_raised < len(sources) // 20


def start_of(token):
    return token[2]


# Layout the master regex skips, and starts of tokens that a skipped prefix
# could swallow or split: other Unicode spaces, radix and character-code
# prefixes, an open block comment and unterminated quotes.
_ODD_ALPHABET = _ALPHABET + ["\u3000", "\x0b", "\x1c", "\x85", "\n\n ", "0x", "0'",
                             "/*", "'a", '"a', "% c\n", " .", "f("]


def test_lossless_view_is_tokenize_with_layout_between():
    """Seeded random strings: the lossless view rejoins to the input, its
    tokens that are not layout are tokenize's in source order, and both
    give the same diagnostics, which match the reference scanner's where it
    does not raise."""
    rng = random.Random(12)
    oracle_raised = 0
    for _ in range(3000):
        source = "".join(rng.choice(_ODD_ALPHABET) for _ in range(rng.randint(0, 40)))
        tokens, diagnostics = tokenize(source, "<t>")
        view, view_diagnostics = lossless(source, "<t>")
        assert "".join(t.text for t in view) == source
        assert all(t.text.isspace() for t in view if t.kind is TokenKind.LAYOUT)
        assert [(t.kind, t.text, t.start, t.end, t.value) for t in view
                if t.kind is not TokenKind.LAYOUT] == sorted(tokens, key=start_of), source
        assert ([(d.code, d.message, d.span) for d in diagnostics]
                == [(d.code, d.message, d.span) for d in view_diagnostics])
        try:
            expected = oracle_tokenize(source)
        except (ValueError, OverflowError):
            oracle_raised += 1
            continue
        assert _fields(source) == expected, source
    assert oracle_raised < 150
