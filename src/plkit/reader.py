"""Sentence-by-sentence term reader over the tokens of `lexer.tokenize`.

Each atom's role is resolved against the operator table *at the moment the
reader reaches it*, so directives run between sentences change the grammar
for everything that follows. Parse errors drop tokens up to and including
the next clause terminator and reading resumes there.

A term is read by one operator-precedence loop with an explicit stack of
frames, in the shape of Dijkstra's shunting-yard, under the priority and
fixity rules of ISO/IEC 13211-1 §6.3.4. A frame holds what one call of a
recursive-descent reader would: a prefix operator waiting for its argument,
an infix operator waiting for its right side, an argument list, a list, or a
parenthesised or curly term. Nesting is bounded by memory, not by Python's
recursion limit.

Two tokens have a second reading. An atom that can be a prefix operator is
read as one first, and as a plain atom if its argument fails to read; an
infix operator whose right side fails to read is read as a postfix operator
when it is also one. A ParseFailure unwinds the stack to the newest frame
with a second reading, and reading resumes there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .database import Database, PredicateIndicator
from .diagnostics import Diagnostic, Severity
from .lexer import ATOM_KINDS, COMMENT_KINDS, Token, TokenKind
from .spans import LineIndex, SourceSpan
from .terms import (
    Atom,
    Compound,
    Float,
    Int,
    OpApply,
    Str,
    Term,
    Var,
    indicator_of,
)

# Token kinds as module globals: on Python 3.11 every `TokenKind.X` lookup
# runs `EnumType.__getattr__`.
BAR = TokenKind.BAR
CLOSE_BRACE = TokenKind.CLOSE_BRACE
CLOSE_BRACKET = TokenKind.CLOSE_BRACKET
CLOSE_PAREN = TokenKind.CLOSE_PAREN
COMMA = TokenKind.COMMA
END = TokenKind.END
FLOAT = TokenKind.FLOAT
INTEGER = TokenKind.INTEGER
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

# Atom kinds that can name an operator: a quoted atom never does.
_OPERATOR_KINDS = ATOM_KINDS - {QUOTED_ATOM}

# A token is the tuple (kind, text, start, end, value) that the lexer gives;
# the reader reads its fields by position.
_KIND, _TEXT, _START, _END = range(4)

# Frame tags. Frames are tuples (tag, max priority of the term the frame
# is part of, opening token, ...). A frame with a second reading keeps the
# number of variable occurrences read before it, to drop those read since:
#   (_PREFIX, maxp, op_tok, op, argument position, occurrences)
#   (_INFIX, maxp, op_tok, op, op position, left, postfix reading or None,
#    occurrences)
#   (_ARGS, maxp, name_tok, name, args)
#   (_LIST, maxp, open_tok, items)       an item is being read
#   (_LIST_TAIL, maxp, open_tok, items)  the tail after '|' is being read
#   (_PAREN, maxp, open_tok)
#   (_CURLY, maxp, open_tok)
_PREFIX, _INFIX, _ARGS, _LIST, _LIST_TAIL, _PAREN, _CURLY = range(7)


@dataclass
class Sentence:
    """One term read through its terminating '.'.

    `variables` are its named variables, each as its first occurrence, in
    the order they first occur; `singletons` are those that occur once.
    They are what ISO `read_term/2` gives as `variable_names` and
    `singletons` (ISO/IEC 13211-1 §7.10.3): the anonymous variable `_` is
    in neither, and a name starting with `_` is in both.
    """

    kind: str  # clause | directive | dcg_rule | fact
    term: Term
    span: SourceSpan  # the term through its terminating '.'
    variables: tuple[Var, ...]
    singletons: tuple[Var, ...]
    leading_comments: list[Token] = field(default_factory=list)

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

    def defines(self) -> Optional[PredicateIndicator]:
        """The predicate a clause, fact or DCG rule defines: name/N, or
        name/N+2 for the rule of a nonterminal name//N. None for a directive
        or a head that is not callable."""
        if self.kind == "directive":
            return None
        ind = indicator_of(self.head)
        if ind is None:
            return None
        if self.kind == "dcg_rule":
            return PredicateIndicator(ind[0], ind[1] + 2)
        return PredicateIndicator(*ind)


class ParseFailure(Exception):
    def __init__(self, code: str, message: str, span: SourceSpan):
        super().__init__(message)
        self.diagnostic = Diagnostic(Severity.ERROR, code, message, span)


def _failure(code: str, message: str, lines: LineIndex, tok: tuple) -> ParseFailure:
    """A ParseFailure on the span of `tok`."""
    return ParseFailure(code, message, SourceSpan(lines, tok[_START], tok[_END]))


def _unbalanced(tok: tuple, what: str, lines: LineIndex) -> ParseFailure:
    """The failure for `tok` found where the closing `what` belongs."""
    if tok[_KIND] is None:
        return _failure("unbalanced_delimiter",
                        f"expected {what} before end of input", lines, tok)
    return _failure("unbalanced_delimiter",
                    f"expected {what}, found {tok[_TEXT]!r}", lines, tok)


def _operator_follows(toks: list[tuple], i: int, by_name: dict) -> bool:
    """Whether toks[i], right after a prefix operator, stands as an infix or
    postfix operator that is not also a prefix one. The prefix operator is
    then a plain atom, the left argument (ISO/IEC 13211-1 §6.3.4.2): `- = a`
    reads as `=(-, a)`. An atom right before '(' is a functor, and an infix
    operator needs a term after it."""
    kind, text = toks[i][:2]
    if kind not in _OPERATOR_KINDS:
        return False
    entry = by_name.get(text)
    if not entry or "prefix" in entry:
        return False
    after = toks[i + 1][_KIND]
    if after is OPEN_PAREN_CT:
        return False
    return "postfix" in entry or after in _OPERAND_START_KINDS


class Reader:
    """Reads the sentences of `source` from `tokens`, what `lexer.tokenize`
    gives for it."""

    def __init__(self, source: str, tokens: list[tuple], db: Database, file_id: str):
        self.db = db
        self.lines = LineIndex(file_id, source)
        # `tokens` ends with the comments. The tokens before them, then an
        # end-of-input token of kind None whose empty span sits at the end
        # of the source, are what the grammar reads.
        n = len(tokens)
        while n and tokens[n - 1][_KIND] in COMMENT_KINDS:
            n -= 1
        self.toks = toks = tokens[:n]
        toks.append((None, "", len(source), len(source), None))
        self.i = 0  # index in self.toks of the next token to read
        self.diagnostics: list[Diagnostic] = []  # parse errors, in read order
        self._vid_counter = itertools.count()
        self._sentence_vars: dict[str, Var] = {}
        # The named variables of the sentence being read, one per occurrence.
        self._occurrences: list[Var] = []
        # Comments in source order; those before _next_comment are given
        # to a sentence or were passed over by error recovery.
        self._comments = tokens[n:]
        self._next_comment = 0

    def at_eof(self) -> bool:
        return self.toks[self.i][_KIND] is None

    @property
    def consumed_end(self) -> int:
        """Source offset just past the last token read: after
        `read_sentence`, the end of the '.' of the sentence read or skipped
        (or of the last token, at end of input)."""
        return self.toks[self.i - 1][_END] if self.i else 0

    def _take_comments(self, before: int) -> list[tuple]:
        """The comments not yet taken that start before offset `before`."""
        comments, first = self._comments, self._next_comment
        last = first
        while last < len(comments) and comments[last][_START] < before:
            last += 1
        self._next_comment = last
        return comments[first:last]

    # --- sentences --------------------------------------------------------

    def read_sentence(self) -> Optional[Sentence]:
        """Read the next sentence. None at end of input, or after a parse
        error, which goes to self.diagnostics and is recovered from past the
        next End. A sentence's leading comments are those after the previous
        End (of a sentence read or skipped), through its own."""
        self._sentence_vars = {}
        self._occurrences = []
        toks, lines = self.toks, self.lines
        if toks[self.i][_KIND] is None:
            return None
        try:
            term = self.parse_term(MAX_PRIORITY)
            end_tok = toks[self.i]
            if end_tok[_KIND] is not END:
                if end_tok[_KIND] is None:
                    raise _failure("missing_end", "expected '.' before end of input",
                                   lines, end_tok)
                raise _failure("unexpected_token",
                               f"operator or '.' expected, found {end_tok[_TEXT]!r}",
                               lines, end_tok)
            self.i += 1
        except ParseFailure as failure:
            self.diagnostics.append(failure.diagnostic)
            self._recover()
            self._take_comments(self.consumed_end)
            return None
        kind = "fact"
        if isinstance(term, Compound):
            if term.name == ":-" and term.arity == 1:
                kind = "directive"
            elif term.name == ":-" and term.arity == 2:
                kind = "clause"
            elif term.name == "-->" and term.arity == 2:
                kind = "dcg_rule"
        comments = [Token(ckind, text, lines, start, end)
                    for ckind, text, start, end, _ in self._take_comments(end_tok[_START])]
        first: dict[str, Var] = {}
        repeated: set[str] = set()
        for var in self._occurrences:
            if first.setdefault(var.name, var) is not var:
                repeated.add(var.name)
        variables = tuple(first.values())
        singletons = tuple(var for var in variables if var.name not in repeated)
        return Sentence(kind, term, SourceSpan(lines, term.start, end_tok[_END]),
                        variables, singletons, comments)

    def _recover(self):
        """Skip tokens up to and including the next End (or to end of input)."""
        toks, i = self.toks, self.i
        kind = toks[i][_KIND]
        while kind is not END and kind is not None:
            i += 1
            kind = toks[i][_KIND]
        self.i = i + 1 if kind is END else i

    # --- terms ------------------------------------------------------------

    def parse_term(self, max_priority: int) -> Term:
        """Read one term of priority at most `max_priority` from the current
        position, leaving the position at the first token after it."""
        toks = self.toks
        lines = self.lines
        by_name = self.db.operators.by_name
        sentence_vars = self._sentence_vars
        occurrences = self._occurrences
        vids = self._vid_counter
        stack: list[tuple] = []
        maxp = max_priority
        i = self.i
        # True when `left` (of priority `lp`) was just read by a second
        # reading, and the operators after it come next.
        resume = False
        while True:
            try:
                while True:
                    # --- a primary term of priority at most maxp ----------
                    if resume:
                        resume = False
                    else:
                        tok = toks[i]
                        kind, text, start, end, value = tok
                        i += 1
                        lp = 0
                        if kind in ATOM_KINDS:
                            name = value if kind is QUOTED_ATOM else text
                            nkind, _, nstart, nend, nvalue = toks[i]
                            if nkind is OPEN_PAREN_CT:
                                i += 1
                                stack.append((_ARGS, maxp, tok, name, []))
                                maxp = ARG_PRIORITY
                                continue
                            if kind is QUOTED_ATOM:
                                left = Atom(name, lines, start, end)
                            elif ((nkind is INTEGER or nkind is FLOAT)
                                  and (name == "-" or name == "+")
                                  and end == nstart):
                                # A sign right before a number folds into it.
                                i += 1
                                value = (-1 if name == "-" else 1) * nvalue
                                left = (Int if nkind is INTEGER else Float)(
                                    value, lines, start, nend)
                            else:
                                entry = by_name.get(name)
                                prefix = entry.get("prefix") if entry else None
                                if (prefix is not None
                                        and prefix.priority <= maxp
                                        and nkind in _OPERAND_START_KINDS
                                        and not _operator_follows(toks, i, by_name)):
                                    stack.append((_PREFIX, maxp, tok, prefix, i,
                                                  len(occurrences)))
                                    maxp = prefix.right_arg_max()
                                    continue
                                # Operator atoms standing alone are plain atoms.
                                left = Atom(name, lines, start, end)
                        elif kind is VARIABLE:
                            if text == "_":
                                left = Var("_", next(vids), lines, start, end)
                            else:
                                var = sentence_vars.get(text)
                                if var is None:
                                    left = sentence_vars[text] = Var(
                                        text, next(vids), lines, start, end)
                                else:
                                    left = Var(text, var.vid, lines, start, end)
                                occurrences.append(left)
                        elif kind is INTEGER:
                            left = Int(value, lines, start, end)
                        elif kind is OPEN_BRACKET:
                            if toks[i][_KIND] is CLOSE_BRACKET:
                                left = Atom("[]", lines, start, toks[i][_END])
                                i += 1
                            else:
                                stack.append((_LIST, maxp, tok, []))
                                maxp = ARG_PRIORITY
                                continue
                        elif kind is OPEN_PAREN or kind is OPEN_PAREN_CT:
                            stack.append((_PAREN, maxp, tok))
                            maxp = MAX_PRIORITY
                            continue
                        elif kind is STRING:
                            left = Str(value, lines, start, end)
                        elif kind is FLOAT:
                            left = Float(value, lines, start, end)
                        elif kind is OPEN_BRACE:
                            if toks[i][_KIND] is CLOSE_BRACE:
                                left = Atom("{}", lines, start, toks[i][_END])
                                i += 1
                            else:
                                stack.append((_CURLY, maxp, tok))
                                maxp = MAX_PRIORITY
                                continue
                        else:
                            i -= 1  # recovery starts at this token, maybe an End
                            if kind is None:
                                raise _failure("unexpected_token",
                                               "unexpected end of input", lines, tok)
                            raise _failure("unexpected_token",
                                           f"unexpected {text!r} where a term was expected",
                                           lines, tok)

                    # --- operators after `left`, then the frames it ends ---
                    while True:
                        tok = toks[i]
                        kind = tok[_KIND]
                        if kind is COMMA:
                            entry = by_name.get(",")
                        elif kind in _OPERATOR_KINDS:
                            entry = by_name.get(tok[_TEXT])
                        elif kind is BAR:
                            entry = by_name.get("|")
                        else:
                            entry = None
                        if entry is not None:
                            infix = entry.get("infix")
                            postfix = entry.get("postfix")
                            # The postfix reading, where it applies.
                            post = postfix if (postfix is not None
                                               and postfix.priority <= maxp
                                               and lp <= postfix.left_arg_max()) else None
                            if (infix is not None and infix.priority <= maxp
                                    and lp <= infix.left_arg_max()):
                                stack.append((_INFIX, maxp, tok, infix, i, left, post,
                                              len(occurrences)))
                                i += 1
                                maxp = infix.right_arg_max()
                                break
                            if post is not None:
                                i += 1
                                left = OpApply(post, [left], lines, left.start,
                                               tok[_END], tok[_START], tok[_END])
                                lp = post.priority
                                continue
                            if ((infix is not None and infix.priority <= maxp)
                                    or (postfix is not None and postfix.priority <= maxp)):
                                # The operator fits the context but its left
                                # argument is too strong: an x argument needs
                                # strictly lower priority.
                                raise _failure(
                                    "operator_clash",
                                    f"operator {tok[_TEXT]!r} cannot take a "
                                    f"priority {lp} term as left argument",
                                    lines, tok,
                                )

                        # `left` is complete: hand it to the newest frame.
                        if not stack:
                            self.i = i
                            return left
                        frame = stack.pop()
                        tag = frame[0]
                        if tag == _ARGS:
                            _, _, name_tok, name, args = frame
                            args.append(left)
                            close = toks[i]
                            if close[_KIND] is COMMA:
                                i += 1
                                stack.append(frame)
                                maxp = ARG_PRIORITY
                                break
                            if close[_KIND] is not CLOSE_PAREN:
                                raise _unbalanced(close, "')'", lines)
                            i += 1
                            start, end = name_tok[_START], name_tok[_END]
                            left = Compound(name, args, lines, start, close[_END], start, end)
                            lp = 0
                        elif tag == _INFIX:
                            _, _, op_tok, op, _, left0, _, _ = frame
                            left = OpApply(op, [left0, left], lines, left0.start,
                                           left.end, op_tok[_START], op_tok[_END])
                            lp = op.priority
                        elif tag == _LIST or tag == _LIST_TAIL:
                            _, maxp, open_tok, items = frame
                            close = toks[i]
                            kind = close[_KIND]
                            if tag == _LIST:
                                items.append(left)
                                if kind is COMMA or kind is BAR:
                                    i += 1
                                    if kind is BAR:
                                        frame = (_LIST_TAIL, maxp, open_tok, items)
                                    stack.append(frame)
                                    maxp = ARG_PRIORITY
                                    break
                                left = Atom("[]", lines, close[_START], close[_END])
                            if kind is not CLOSE_BRACKET:
                                raise _unbalanced(close, "']'", lines)
                            i += 1
                            # `left` is the tail. A cell's functor offsets
                            # are its own, and only the outermost cell then
                            # moves to the brackets.
                            end = left.end
                            for item in reversed(items):
                                left = Compound(".", [item, left], lines, item.start,
                                                end, item.start, end)
                            left.start = open_tok[_START]
                            left.end = close[_END]
                            lp = 0
                        elif tag == _PAREN:
                            close = toks[i]
                            if close[_KIND] is not CLOSE_PAREN:
                                raise _unbalanced(close, "')'", lines)
                            i += 1
                            left.start = frame[2][_START]
                            left.end = close[_END]
                            lp = 0
                        elif tag == _PREFIX:
                            _, _, op_tok, op, _, _ = frame
                            left = OpApply(op, [left], lines, op_tok[_START],
                                           left.end, op_tok[_START], op_tok[_END])
                            lp = op.priority
                        else:  # _CURLY
                            open_tok = frame[2]
                            close = toks[i]
                            if close[_KIND] is not CLOSE_BRACE:
                                raise _unbalanced(close, "'}'", lines)
                            i += 1
                            start, end = open_tok[_START], open_tok[_END]
                            left = Compound("{}", [left], lines, start, close[_END], start, end)
                            lp = 0
                        maxp = frame[1]
            except ParseFailure:
                # Unwind to the newest frame with a second reading, and drop
                # the variable occurrences read since it, as the tokens
                # after its operator are read again.
                while stack:
                    frame = stack.pop()
                    if frame[0] == _PREFIX:  # the operator as a plain atom
                        _, maxp, op_tok, _, i, n = frame
                        del occurrences[n:]
                        left = Atom(op_tok[_TEXT], lines, op_tok[_START], op_tok[_END])
                        lp = 0
                        break
                    if frame[0] == _INFIX and frame[6] is not None:  # as postfix
                        _, maxp, op_tok, _, i, left0, postfix, n = frame
                        del occurrences[n:]
                        i += 1
                        left = OpApply(postfix, [left0], lines, left0.start,
                                       op_tok[_END], op_tok[_START], op_tok[_END])
                        lp = postfix.priority
                        break
                else:
                    self.i = i
                    raise
                resume = True
