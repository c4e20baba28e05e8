import random

import pytest
from test_acceptance import make_corpus

from plkit.lexer import (
    ATOM_KINDS,
    COMMENT_KINDS,
    OFFSET_BOUND,
    Token,
    TokenKind,
    lossless,
    tokenize,
)
from plkit.spans import LineIndex, SourceSpan
from plkit.terms import Compound
from plkit.workspace import build_project

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


def test_float_literal_out_of_range():
    tokens, diagnostics = tokenize("p(1.0e400). q(1.5e308).", "<t>")
    assert tokens[2] == (TokenKind.INVALID, "1.0e400", 2, 9, None)
    assert tokens[7] == (TokenKind.FLOAT, "1.5e308", 14, 21, 1.5e308)
    assert [(d.code, d.message, d.span.start_offset) for d in diagnostics] == [
        ("bad_number", "float literal out of range", 2)]


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


def test_equal_offsets_are_one_object_across_sources():
    """Offsets past CPython's small-int cache and below the bound come from
    one table, whatever the source: plain, hand-scanned and comment tokens."""
    a = " " * 300 + "'a\\n' + foo(X). % c\n"
    b = "z" * 299 + " 'b\\t' - bar(Y). % d\n"
    tokens_a, tokens_b = tokenize(a)[0], tokenize(b)[0][1:]
    assert len(tokens_a) == len(tokens_b) == 8
    for tok_a, tok_b in zip(tokens_a, tokens_b):
        assert 257 <= tok_a[2] < tok_a[3] < OFFSET_BOUND
        assert tok_a[2] is tok_b[2] and tok_a[3] is tok_b[3], (tok_a, tok_b)


@pytest.mark.parametrize("straddler", ["'a\\nb'", "abcdef", "% comment\n"])
def test_offsets_past_the_bound_stay_exact(straddler):
    clause = "p('a\\n', \"s\", 0'c, 0x1F) :- q(X), % note\n    X = [1.5|T].\n"
    source = (" " * (OFFSET_BOUND - 2) + straddler + " x. "
              + clause * (OFFSET_BOUND // len(clause) + 1))
    tokens, diagnostics = tokenize(source)
    assert not diagnostics and len(source) > 2 * OFFSET_BOUND
    assert any(start < OFFSET_BOUND < end for _, _, start, end, _ in tokens)
    assert all(source[start:end] == text for _, text, start, end, _ in tokens)
    view, _ = lossless(source)
    assert "".join(t.text for t in view) == source


def test_a_built_model_holds_at_most_one_object_per_offset(tmp_path):
    make_corpus(str(tmp_path), 50)
    model = build_project(str(tmp_path))
    offsets = {}
    for index in model.index.files.values():
        for sentence in index.sentences:
            found = [sentence.span.start_offset, sentence.span.end_offset]
            found += [offset for token in sentence.leading_comments
                      for offset in (token.start, token.end)]
            stack = [sentence.term]
            while stack:
                term = stack.pop()
                found += (term.start, term.end)
                if isinstance(term, Compound):
                    found += (term.functor_start, term.functor_end)
                    stack.extend(term.args)
            offsets.update((id(offset), offset) for offset in found)
    assert max(offsets.values()) < OFFSET_BOUND
    assert len(offsets) <= OFFSET_BOUND


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


# Makers of random tokens for generated sources: each gives the (text,
# value) of a token of its kind, which any layout after it ends.
def _name(rng):
    return rng.choice("abxyz") + "".join(rng.choices("az_09é", k=rng.randint(0, 4)))


def _quoted(rng, quote):
    """A quoted item of plain runs, doubled quotes and escapes."""
    other = "'" if quote == '"' else '"'
    pieces = rng.choices([("ab", "ab"), (" c", " c"), (quote * 2, quote), ("\\n", "\n"),
                          ("\\\\", "\\"), ("\\x41\\", "A"), ("\\101\\", "A"),
                          ("é", "é"), (other, other)], k=rng.randint(0, 4))
    return (quote + "".join(text for text, _ in pieces) + quote,
            "".join(value for _, value in pieces))


def _symbol(rng):
    while True:
        text = "".join(rng.choices("#$&*+-./:<=>?@^~\\", k=rng.randint(1, 3)))
        if text != "." and "/*" not in text:  # an end token, a comment
            return text, None


def _integer(rng):
    if rng.random() < 0.2:  # a character code
        text, value = rng.choice([("a", "a"), ("Z", "Z"), ("\\n", "\n"), ("''", "'"),
                                  (" ", " "), ("\\\\", "\\"), ("é", "é")])
        return f"0'{text}", ord(value)
    n = rng.randrange(10 ** rng.randint(1, 25))
    return rng.choice([f"0x{n:x}", f"0o{n:o}", f"0b{n:b}", str(n)]), n


def _float(rng):
    text = (f"{rng.randrange(10 ** rng.randint(1, 5))}.{rng.randrange(10 ** 4)}"
            + rng.choice(["", "e10", "E-3", "e+300", "e-400", "e400"]))
    return text, float(text)


_MAKERS = {
    TokenKind.NAME_ATOM: lambda rng: (_name(rng), None),
    TokenKind.VARIABLE: lambda rng: (rng.choice("XY_") + _name(rng)[1:], None),
    TokenKind.INTEGER: _integer,
    TokenKind.FLOAT: _float,
    TokenKind.QUOTED_ATOM: lambda rng: _quoted(rng, "'"),
    TokenKind.STRING: lambda rng: _quoted(rng, '"'),
    TokenKind.SYMBOL_ATOM: _symbol,
    TokenKind.SOLO_CHAR: lambda rng: (rng.choice("!;"), None),
    TokenKind.LINE_COMMENT: lambda rng: (rng.choice(["%", "% note", "%/* x"]), None),
    TokenKind.BLOCK_COMMENT: lambda rng: (rng.choice(["/**/", "/* a\n b */", "/*%*/"]), None),
    TokenKind.END: lambda rng: (".", None),
    **{kind: (lambda rng, text=text: (text, None)) for text, kind in [
        ("(", TokenKind.OPEN_PAREN), (")", TokenKind.CLOSE_PAREN),
        ("[", TokenKind.OPEN_BRACKET), ("]", TokenKind.CLOSE_BRACKET),
        ("{", TokenKind.OPEN_BRACE), ("}", TokenKind.CLOSE_BRACE),
        (",", TokenKind.COMMA), ("|", TokenKind.BAR)]},
}
_KINDS = list(_MAKERS)
_LAYOUT = [" ", "\n", "\t", "  \n ", "\u3000", "\r\n", "\x0b"]


def generated_source(rng):
    """A source of random tokens, with the tuples and the (code, message,
    start) diagnostics that tokenize must give for it. Layout follows each
    token, a newline a line comment, but a '(' may follow an atom or a
    variable at once."""
    source, tokens, comments, diagnostics = "", [], [], []
    for _ in range(rng.randint(0, 30)):
        kind = rng.choice(_KINDS)
        text, value = _MAKERS[kind](rng)
        start = len(source)
        if value == float("inf"):
            kind, value = TokenKind.INVALID, None
            diagnostics.append(("bad_number", "float literal out of range", start))
        (comments if kind in COMMENT_KINDS else tokens).append(
            (kind, text, start, start + len(text), value))
        source += text
        if kind in ATOM_KINDS | {TokenKind.VARIABLE} and rng.random() < 0.3:
            tokens.append((TokenKind.OPEN_PAREN_CT, "(", len(source), len(source) + 1, None))
            source += "("
        source += "\n" if kind is TokenKind.LINE_COMMENT else rng.choice(_LAYOUT)
    return source, tokens + comments, diagnostics


def test_tokens_lex_back(tmp_path):
    """Generated sources give tokenize's tuples and diagnostics exactly, and
    their lossless view rejoins them with each token's line and column; each
    token of the corpus files lexes alone to itself."""
    rng = random.Random(5)
    for _ in range(3000):
        source, expected, diagnostics = generated_source(rng)
        tokens, got = tokenize(source, "<t>")
        assert tokens == expected, source
        assert [(d.code, d.message, d.span.start_offset) for d in got] == diagnostics
        view, _ = lossless(source, "<t>")
        assert "".join(t.text for t in view) == source
        for t in view:
            line_start = source.rfind("\n", 0, t.start) + 1
            assert (t.span.start_line, t.span.start_col) == (
                source.count("\n", 0, t.start) + 1, t.start - line_start + 1)
    make_corpus(str(tmp_path), 12)
    for path in sorted(tmp_path.iterdir()):
        source = path.read_text(encoding="utf-8")
        view, _ = lossless(source, str(path))
        assert "".join(t.text for t in view) == source
        for t in view:
            if t.kind not in (TokenKind.LAYOUT, TokenKind.INVALID):
                kind = TokenKind.OPEN_PAREN if t.kind is TokenKind.OPEN_PAREN_CT else t.kind
                assert tokenize(t.text)[0] == [(kind, t.text, 0, len(t.text), t.value)]


def start_of(token):
    return token[2]


# Every character that can start a token, the ones that continue radix,
# exponent and escape forms, and a few non-ASCII ones.
_ALPHABET = (list("azAZ_09'\"%/*.,|!;()[]{}#$&+-:<=>?@^~\\`xobeE \n\t")
             + ["\f", "\r", "\xa0", "é", "É", "²", "١", "\x01", "0'", "''", "/*", "*/"])
# Layout the master regex skips, and starts of tokens that a skipped prefix
# could swallow or split: other Unicode spaces, radix and character-code
# prefixes, an open block comment and unterminated quotes.
_ODD_ALPHABET = _ALPHABET + ["\u3000", "\x0b", "\x1c", "\x85", "\n\n ", "0x", "0'",
                             "/*", "'a", '"a', "% c\n", " .", "f("]


def test_lossless_view_is_tokenize_with_layout_between():
    """Seeded random strings: the lossless view rejoins to the input, its
    tokens that are not layout are tokenize's in source order, and both
    give the same diagnostics."""
    rng = random.Random(12)
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
