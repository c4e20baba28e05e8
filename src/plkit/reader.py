"""Sentence-by-sentence term reader over the token stream.

The reader consumes tokens left to right with one token of lookahead,
resolving each atom's role against the operator table *at the moment it
is consumed*, so directives run between sentences change the
grammar for everything that follows. Parse errors drop tokens up to and
including the next clause terminator and reading resumes there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .database import Database
from .diagnostics import Diagnostic, Severity
from .lexer import ATOM_KINDS, Token, TokenKind, TRIVIA_KINDS
from .spans import SourceSpan, file_start
from .terms import (
    Atom,
    Compound,
    Float,
    Int,
    OpApply,
    Str,
    Term,
    Var,
)

# Token kinds as module globals: on Python 3.11 every `TokenKind.X` lookup
# runs `EnumType.__getattr__`, and the parser tests kinds per token.
BAR = TokenKind.BAR
CLOSE_BRACE = TokenKind.CLOSE_BRACE
CLOSE_BRACKET = TokenKind.CLOSE_BRACKET
CLOSE_PAREN = TokenKind.CLOSE_PAREN
COMMA = TokenKind.COMMA
END = TokenKind.END
FLOAT = TokenKind.FLOAT
INTEGER = TokenKind.INTEGER
LAYOUT = TokenKind.LAYOUT
OPEN_BRACE = TokenKind.OPEN_BRACE
OPEN_BRACKET = TokenKind.OPEN_BRACKET
OPEN_PAREN = TokenKind.OPEN_PAREN
OPEN_PAREN_CT = TokenKind.OPEN_PAREN_CT
QUOTED_ATOM = TokenKind.QUOTED_ATOM
STRING = TokenKind.STRING
VARIABLE = TokenKind.VARIABLE

MAX_PRIORITY = 1200
ARG_PRIORITY = 999

_OPERAND_START_KINDS = {
    INTEGER,
    FLOAT,
    STRING,
    VARIABLE,
    OPEN_PAREN,
    OPEN_PAREN_CT,
    OPEN_BRACKET,
    OPEN_BRACE,
} | ATOM_KINDS


@dataclass
class Sentence:
    kind: str  # clause | directive | dcg_rule | fact
    term: Term
    end_span: SourceSpan
    leading_comments: list[Token] = field(default_factory=list)

    @property
    def span(self) -> SourceSpan:
        return self.term.span.enclose(self.end_span)

    @property
    def head(self) -> Term:
        if self.kind == "clause":
            return self.term.args[0]
        if self.kind in ("fact",):
            return self.term
        if self.kind == "dcg_rule":
            return self.term.args[0]
        raise ValueError("directives have no head")

    @property
    def body(self) -> Optional[Term]:
        if self.kind == "clause":
            return self.term.args[1]
        if self.kind == "dcg_rule":
            return self.term.args[1]
        return None

    @property
    def goal(self) -> Term:
        if self.kind != "directive":
            raise ValueError("not a directive")
        return self.term.args[0]


class ParseFailure(Exception):
    def __init__(self, code: str, message: str, span: SourceSpan):
        super().__init__(message)
        self.diagnostic = Diagnostic(Severity.ERROR, code, message, span)


class Reader:
    def __init__(self, tokens: list[Token], db: Database, file_id: str):
        self.toks = tokens
        self.db = db
        self.file_id = file_id
        self.i = 0
        self.diagnostics: list[Diagnostic] = []  # parse errors, in read order
        self._vid_counter = itertools.count()
        # Comments since the last sentence, the ones at_eof() skips included.
        self._comments: list[Token] = []
        self._sentence_vars: dict[str, Var] = {}

    # --- token cursor -----------------------------------------------------

    def _skip_trivia(self):
        while self.i < len(self.toks) and self.toks[self.i].kind in TRIVIA_KINDS:
            tok = self.toks[self.i]
            if tok.kind != LAYOUT:
                self._comments.append(tok)
            self.i += 1

    def peek(self) -> Optional[Token]:
        if self.i < len(self.toks):
            tok = self.toks[self.i]
            if tok.kind not in TRIVIA_KINDS:
                return tok
        self._skip_trivia()
        if self.i < len(self.toks):
            return self.toks[self.i]
        return None

    def next(self) -> Optional[Token]:
        tok = self.peek()
        if tok is not None:
            self.i += 1
        return tok

    def _eof_span(self) -> SourceSpan:
        if self.toks:
            s = self.toks[-1].span
            return SourceSpan(s.lines, s.end_offset, s.end_offset)
        return file_start(self.file_id)

    def at_eof(self) -> bool:
        return self.peek() is None

    # --- sentences --------------------------------------------------------

    def read_sentence(self) -> Optional[Sentence]:
        """Read the next sentence. None at end of input, or after a parse
        error, which goes to self.diagnostics and is recovered from past the
        next End."""
        self._sentence_vars = {}
        if self.peek() is None:
            return None
        try:
            term = self.parse_term(MAX_PRIORITY)
            end_tok = self.peek()
            if end_tok is None:
                raise ParseFailure("missing_end", "expected '.' before end of input",
                                   self._eof_span())
            if end_tok.kind != END:
                raise ParseFailure(
                    "unexpected_token",
                    f"operator or '.' expected, found {end_tok.text!r}",
                    end_tok.span,
                )
            self.next()
        except ParseFailure as failure:
            self.diagnostics.append(failure.diagnostic)
            self.recover()
            sentence = None
        else:
            sentence = self._classify_sentence(term, end_tok.span)
        self._comments = []
        return sentence

    def _classify_sentence(self, term: Term, end_span: SourceSpan) -> Sentence:
        kind = "fact"
        if isinstance(term, Compound):
            if term.name == ":-" and term.arity == 1:
                kind = "directive"
            elif term.name == ":-" and term.arity == 2:
                kind = "clause"
            elif term.name == "-->" and term.arity == 2:
                kind = "dcg_rule"
        return Sentence(kind, term, end_span, self._comments)

    def recover(self):
        """Drop tokens up to and including the next End token (or EOF)."""
        while self.i < len(self.toks):
            tok = self.toks[self.i]
            self.i += 1
            if tok.kind == END:
                return

    # --- terms ------------------------------------------------------------

    def parse_term(self, max_priority: int) -> Term:
        left, left_priority = self._parse_primary(max_priority)
        return self._parse_operators(left, left_priority, max_priority)

    def _fresh_var(self, name: str, span: SourceSpan) -> Var:
        if name == "_":
            return Var("_", next(self._vid_counter), span)
        var = self._sentence_vars.get(name)
        if var is None:
            var = Var(name, next(self._vid_counter), span)
            self._sentence_vars[name] = var
        else:
            var = Var(name, var.vid, span)
        return var

    def _can_start_term(self, tok: Optional[Token]) -> bool:
        return tok is not None and tok.kind in _OPERAND_START_KINDS

    def _parse_primary(self, max_priority: int) -> tuple[Term, int]:
        tok = self.peek()
        if tok is None:
            raise ParseFailure("unexpected_token", "unexpected end of input",
                               self._eof_span())
        kind = tok.kind
        if kind == INTEGER:
            self.next()
            return Int(tok.value, tok.span), 0
        if kind == FLOAT:
            self.next()
            return Float(tok.value, tok.span), 0
        if kind == STRING:
            self.next()
            return Str(tok.value, tok.span), 0
        if kind == VARIABLE:
            self.next()
            return self._fresh_var(tok.text, tok.span), 0
        if kind in (OPEN_PAREN, OPEN_PAREN_CT):
            self.next()
            inner = self.parse_term(MAX_PRIORITY)
            close = self._expect(CLOSE_PAREN, "')'")
            inner.span = tok.span.enclose(close.span)
            return inner, 0
        if kind == OPEN_BRACKET:
            return self._parse_list(), 0
        if kind == OPEN_BRACE:
            return self._parse_curly(), 0
        if kind in ATOM_KINDS:
            return self._parse_atom_primary(tok, max_priority)
        raise ParseFailure(
            "unexpected_token",
            f"unexpected {tok.text!r} where a term was expected",
            tok.span,
        )

    def _parse_atom_primary(self, tok: Token, max_priority: int) -> tuple[Term, int]:
        self.next()
        name = tok.atom_name()
        nxt = self.peek()
        if nxt is not None and nxt.kind == OPEN_PAREN_CT:
            args, close = self._parse_arglist()
            span = tok.span.enclose(close.span)
            return Compound(name, args, span, functor_span=tok.span), 0
        if tok.kind == QUOTED_ATOM:
            return Atom(name, tok.span), 0
        # Adjacent '-'/'+' before a numeric literal folds into the literal.
        if (
            name in ("-", "+")
            and nxt is not None
            and nxt.kind in (INTEGER, FLOAT)
            and tok.span.end_offset == nxt.span.start_offset
        ):
            self.next()
            sign = -1 if name == "-" else 1
            span = tok.span.enclose(nxt.span)
            if nxt.kind == INTEGER:
                return Int(sign * nxt.value, span), 0
            return Float(sign * nxt.value, span), 0
        prefix = self.db.operators.prefix(name)
        if (
            prefix is not None
            and prefix.priority <= max_priority
            and self._can_start_term(nxt)
        ):
            saved = self.i
            try:
                arg = self.parse_term(prefix.right_arg_max())
            except ParseFailure:
                self.i = saved  # fall back to the plain-atom reading
            else:
                span = tok.span.enclose(arg.span)
                return OpApply(prefix, [arg], span, functor_span=tok.span), prefix.priority
        # Operator atoms standing alone are accepted as plain atoms.
        return Atom(name, tok.span), 0

    def _parse_operators(self, left: Term, left_priority: int,
                         max_priority: int) -> Term:
        table = self.db.operators
        while True:
            tok = self.peek()
            if tok is None:
                return left
            if tok.kind in (COMMA, BAR):
                name = tok.atom_name()
            elif tok.kind in ATOM_KINDS and tok.kind != QUOTED_ATOM:
                name = tok.text
            else:
                return left
            infix = table.infix(name)
            postfix = table.postfix(name)
            if (
                infix is not None
                and infix.priority <= max_priority
                and left_priority <= infix.left_arg_max()
            ):
                saved = self.i
                self.next()
                try:
                    right = self.parse_term(infix.right_arg_max())
                except ParseFailure:
                    self.i = saved
                    if not (
                        postfix is not None
                        and postfix.priority <= max_priority
                        and left_priority <= postfix.left_arg_max()
                    ):
                        raise
                else:
                    span = left.span.enclose(right.span)
                    left = OpApply(infix, [left, right], span, functor_span=tok.span)
                    left_priority = infix.priority
                    continue
            if (
                postfix is not None
                and postfix.priority <= max_priority
                and left_priority <= postfix.left_arg_max()
            ):
                self.next()
                span = left.span.enclose(tok.span)
                left = OpApply(postfix, [left], span, functor_span=tok.span)
                left_priority = postfix.priority
                continue
            if (infix is not None or postfix is not None) and (
                (infix is not None and infix.priority <= max_priority)
                or (postfix is not None and postfix.priority <= max_priority)
            ):
                # The operator fits the context but its left argument is too
                # strong: an x argument needs strictly lower priority.
                raise ParseFailure(
                    "operator_clash",
                    f"operator {name!r} cannot take a priority "
                    f"{left_priority} term as left argument",
                    tok.span,
                )
            return left

    # --- bracketed constructs --------------------------------------------

    def _expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseFailure("unbalanced_delimiter",
                               f"expected {what} before end of input",
                               self._eof_span())
        if tok.kind != kind:
            code = (
                "unbalanced_delimiter"
                if kind in (CLOSE_PAREN, CLOSE_BRACKET,
                            CLOSE_BRACE)
                else "unexpected_token"
            )
            raise ParseFailure(code, f"expected {what}, found {tok.text!r}",
                               tok.span)
        self.next()
        return tok

    def _parse_arglist(self) -> tuple[list[Term], Token]:
        self.next()  # OPEN_PAREN_CT
        args = [self.parse_term(ARG_PRIORITY)]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == COMMA:
                self.next()
                args.append(self.parse_term(ARG_PRIORITY))
            else:
                break
        close = self._expect(CLOSE_PAREN, "')'")
        return args, close

    def _parse_list(self) -> Term:
        open_tok = self.next()
        tok = self.peek()
        if tok is not None and tok.kind == CLOSE_BRACKET:
            self.next()
            return Atom("[]", open_tok.span.enclose(tok.span))
        items = [self.parse_term(ARG_PRIORITY)]
        tail: Optional[Term] = None
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == COMMA:
                self.next()
                items.append(self.parse_term(ARG_PRIORITY))
            elif tok is not None and tok.kind == BAR:
                self.next()
                tail = self.parse_term(ARG_PRIORITY)
                break
            else:
                break
        close = self._expect(CLOSE_BRACKET, "']'")
        result = tail if tail is not None else Atom("[]", close.span)
        for item in reversed(items):
            result = Compound(".", [item, result],
                              item.span.enclose(result.span))
        result.span = open_tok.span.enclose(close.span)
        return result

    def _parse_curly(self) -> Term:
        open_tok = self.next()
        tok = self.peek()
        if tok is not None and tok.kind == CLOSE_BRACE:
            self.next()
            return Atom("{}", open_tok.span.enclose(tok.span))
        inner = self.parse_term(MAX_PRIORITY)
        close = self._expect(CLOSE_BRACE, "'}'")
        return Compound("{}", [inner], open_tok.span.enclose(close.span),
                        functor_span=open_tok.span)
