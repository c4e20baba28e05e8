"""plkit: a Prolog front-end and project analyzer.

Lexes, parses (with a dynamically extensible operator grammar), executes
directives, performs cross-file analysis, and answers IDE-style queries
(outline, hover, completion, quick fixes, documentation generation).
"""

from .database import (
    Database,
    ModuleInfo,
    OperatorDef,
    OperatorTable,
    PredicateEntry,
    PredicateIndicator,
)
from .diagnostics import Diagnostic, Severity
from .engine import Loader, SolveLimits, consult_source, repl, solve
from .errors import PrologError
from .lexer import Token, TokenKind, lossless, tokenize
from .printer import pretty_print, sentence_text
from .reader import Reader, Sentence
from .spans import SourceSpan
from .terms import Atom, Compound, Float, Int, OpApply, Str, Term, Var, struct_eq

__version__ = "0.1.0"
