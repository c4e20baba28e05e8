"""Seeded inputs for the benchmark, each with the outputs plkit must give.

`make_project` writes a synthetic multi-module Prolog project and returns a
`Manifest`: the exact multiset of (code, file, line) diagnostics that
`plkit check` must report, plus the definitions, exports, doc blocks and
query positions that the IDE queries are checked against. Expectations come
from what the generator wrote, never from running plkit.

`make_program` writes the engine program used by the solve workload and
returns the goals with their answers computed in Python.

Only the standard library is used, and the same seed gives byte-identical
files.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from dataclasses import dataclass, field

N_HUBS = 4
CHAIN_LEN = 7  # a chain head consults 6 chain successors plus a hub: 8 deep
WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "theta",
         "lambda", "zeta", "rho", "tau")


@dataclass
class Def:
    file: str          # path relative to the project root
    line: int          # line of the first clause
    doc: str | None    # expected doc hover text, if documented


@dataclass
class Manifest:
    root: str
    files: list[str]
    diagnostics: Counter                              # (code, file, line) -> n
    defs: dict[tuple[str, int], Def]                  # (name, arity)
    exports: dict[str, list[str]]                     # module file -> sorted n/a
    outlines: dict[str, tuple[str, set[str]]]         # file -> (module, labels)
    # query positions: (file, offset, expected)
    hover_def: list[tuple[str, int, tuple[str, int]]] = field(default_factory=list)
    hover_import: list[tuple[str, int, str]] = field(default_factory=list)
    hover_doc: list[tuple[str, int, str]] = field(default_factory=list)
    complete: list[tuple[str, int, str]] = field(default_factory=list)
    complete_var: list[tuple[str, int, str]] = field(default_factory=list)
    # fixable diagnostics: (code, file, line, edited file, text the fix inserts)
    fixes: list[tuple[str, str, int, str, str]] = field(default_factory=list)


class _File:
    """Accumulates one source file, tracking line numbers and offsets."""

    def __init__(self, rel: str, manifest: Manifest):
        self.rel = rel
        self.manifest = manifest
        self.lines: list[str] = []
        self.offset = 0

    def add(self, text: str, *codes: str) -> tuple[int, int]:
        """Append one line; each code is a diagnostic expected on it."""
        line, start = len(self.lines) + 1, self.offset
        for code in codes:
            self.manifest.diagnostics[(code, self.rel, line)] += 1
        self.lines.append(text)
        self.offset += len(text) + 1
        return line, start

    def at(self, start: int, text: str, needle: str) -> int:
        """Offset of `needle` in the line `text` added at offset `start`."""
        return start + text.index(needle)

    def write(self, root: str, tail: str = "\n"):
        with open(os.path.join(root, self.rel), "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + tail)


def _doc(rng: random.Random, args: str | None) -> tuple[list[str], str]:
    author = f"{rng.choice(WORDS).title()} {rng.choice(WORDS).title()}"
    desc = f"Relates {rng.choice(WORDS)} to {rng.choice(WORDS)}."
    entries = [("Author:", author)]
    if args:
        entries.append(("Arguments:", args))
    entries.append(("Description:", desc))
    lines = [f"% {tag} {body}" for tag, body in entries]
    return lines, "\n".join(f"{tag} {body}" for tag, body in entries)


def _hub(h: int, manifest: Manifest, rng: random.Random, root: str):
    rel = f"hub{h}.pl"
    f = _File(rel, manifest)
    name = f"hub{h}"
    f.add(f":- module({name}, [{name}_get/2, {name}_put/3]).")
    f.add("")
    lines, text = _doc(rng, "Key, Value")
    for line in lines:
        f.add(line)
    line, _ = f.add(f"{name}_get(Key, Value) :- Value = Key.")
    manifest.defs[(f"{name}_get", 2)] = Def(rel, line, text)
    for k in range(20):
        f.add(f"{name}_get(k{k}, '{rng.choice(WORDS)} {k}').")
    line, _ = f.add(f"{name}_put(Key, Value, kv(Key, Value)).")
    manifest.defs[(f"{name}_put", 3)] = Def(rel, line, None)
    manifest.exports[rel] = sorted([f"{name}_get/2", f"{name}_put/3"])
    manifest.outlines[rel] = (name, {f"{name}_get/2", f"{name}_put/3"})
    f.write(root)


# One planted diagnostic kind per entry: the lines that produce it and the
# codes plkit must report on each line. Codes whose trigger swallows the
# rest of the file are planted at the end of a file of their own.
_PLANTS = [
    [("bad_char :- X = 1 § 2, X > 0.", ("invalid_character", "unexpected_token"))],
    [("bad_radix(0x).", ("bad_number", "unexpected_token"))],
    [("bad_args(a) b.", ("unexpected_token",))],
    [("bad_clash :- a = b = c.", ("operator_clash",))],
    [("bad_paren(a, b.", ("unbalanced_delimiter",))],
    [(":- op(high, xfx, bad_op).", ("malformed_directive",))],
    [(":- frobnicate(now).", ("unknown_directive",))],
    [(":- use_module(no_such_module).", ("file_not_found", "unresolved_import"))],
    [(":- op(700, xfx, ',').", ("permission_error",))],
    [(":- op(1300, xfx, too_high).", ("domain_error",))],
    [("3 :- true.", ("type_error",))],
]
_EOF_PLANTS = [
    ("bad_end :- true", ("missing_end",)),
    ("/* this block comment is never closed",
     ("unterminated_block_comment", "unexpected_token")),
    ("bad_quote('never closed).", ("unterminated_quoted_atom", "unexpected_token")),
    ('bad_string("never closed).', ("unterminated_string", "unexpected_token")),
]


def _exports(module: str) -> list[str]:
    return [f"{module}_a/2", f"{module}_b/1", f"{module}_c/3", f"{module}_g//1",
            f"{module}_rel/1"]


def _resolved(exports: list[str]) -> list[str]:
    """Export labels as plkit resolves them: name//N becomes name/N+2."""
    return sorted(e.replace("//1", "/3") for e in exports)


def make_project(root: str, n_files: int, seed: int) -> Manifest:
    """Write an `n_files`-file project under `root`; return its manifest."""
    rng = random.Random(seed)
    os.makedirs(root, exist_ok=True)
    n_mods = n_files - N_HUBS
    names = [f"m{i:03d}" for i in range(n_mods)]
    manifest = Manifest(root, [f"hub{h}.pl" for h in range(N_HUBS)]
                        + [f"{n}.pl" for n in names],
                        Counter(), {}, {}, {})
    for h in range(N_HUBS):
        _hub(h, manifest, rng, root)

    # Chains: m(i) imports m(i+1) inside a chain, so building in sorted
    # order consults a chain head with its successors nested inside.
    def next_in_chain(i):
        return i + 1 if i % CHAIN_LEN < CHAIN_LEN - 1 and i + 1 < n_mods else None

    hubs = [rng.randrange(N_HUBS) for _ in range(n_mods)]
    plant_at = rng.sample(range(n_mods), len(_PLANTS) + len(_EOF_PLANTS))
    plants = dict(zip(plant_at, _PLANTS))
    eof_plants = dict(zip(plant_at[len(_PLANTS):], _EOF_PLANTS))
    callee_docs = []  # doc hovers on call sites; the callee may come later
    for i, name in enumerate(names):
        nxt = next_in_chain(i)
        hub = f"hub{hubs[i]}"
        rel = f"{name}.pl"
        f = _File(rel, manifest)
        exports = _exports(name)
        manifest.exports[rel] = _resolved(exports)
        labels = set(exports) | {f"{name}_hidden/0", f"{name}_s/2"}

        f.add(f"/* {name}: chain {i // CHAIN_LEN}, position {i % CHAIN_LEN}. */")
        mod_doc_lines, mod_doc = _doc(rng, None)
        for line in mod_doc_lines:
            f.add(line)
        text = f":- module({name}, [{', '.join(exports)}])."
        _, start = f.add(text)
        manifest.hover_doc.append((rel, f.at(start, text, name), mod_doc))

        # Import hovers land on the first use_module target of a file only;
        # on a later target they hit a known defect (probe
        # hover_second_import).
        if nxt is not None:
            target = names[nxt]
            text = f":- use_module({target}, [{target}_a/2, {target}_b/1])."
            target_exports = _resolved(_exports(target))
        else:
            target = hub
            text = f":- use_module({hub})."
            target_exports = manifest.exports[f"{hub}.pl"]
        _, start = f.add(text)
        manifest.hover_import.append((rel, f.at(start, text, target),
                                      f"{target} exports: {', '.join(target_exports)}"))
        if nxt is not None:
            f.add(f":- use_module({hub}).")
        if i % 11 == 5:
            j = (i + 3 * CHAIN_LEN) % n_mods
            text = f":- use_module({names[j]}, [{names[j]}_hidden/0])."
            line, _ = f.add(text, "not_exported")
            manifest.fixes.append(("not_exported", rel, line, f"{names[j]}.pl",
                                   f"{names[j]}_hidden/0]"))
        f.add("")

        # documented entry predicate calling into the chain and the hub
        doc_lines, doc_text = _doc(rng, "Key input, Value output")
        for line in doc_lines:
            f.add(line)
        callee = f"{names[nxt]}_a" if nxt is not None else f"{hub}_get"
        text = f"{name}_a(Key, Value) :- {callee}(Key, Mid), {hub}_get(Mid, Value)."
        line, start = f.add(text)
        manifest.defs[(f"{name}_a", 2)] = Def(rel, line, doc_text)
        manifest.hover_def.append((rel, f.at(start, text, name), (f"{name}_a", 2)))
        manifest.hover_def.append((rel, f.at(start, text, callee), (callee, 2)))
        manifest.hover_def.append((rel, f.at(start, text, f"{hub}_get(Mid"),
                                   (f"{hub}_get", 2)))
        manifest.hover_doc.append((rel, f.at(start, text, name), doc_text))
        callee_docs.append((rel, f.at(start, text, callee), (callee, 2)))
        call = f.at(start, text, callee)
        manifest.complete.append((rel, call + len(callee) - 1, f"{callee}/2"))
        manifest.complete_var.append((rel, f.at(start, text, "Mid") + 2, "Mid"))
        f.add(f"{name}_a(Key, Value) :- {name}_b(Key), Value = Key.")

        line, _ = f.add(f"{name}_b({rng.choice(WORDS)}).")
        manifest.defs[(f"{name}_b", 1)] = Def(rel, line, None)
        for k in range(12):
            value = rng.choice([f"'{rng.choice(WORDS).title()} {k}'",
                                f"\"{rng.choice(WORDS)} text {k}\"",
                                f"{rng.choice(WORDS)}_{k}", str(rng.randrange(1000))])
            f.add(f"{name}_b({value}).")
        line, _ = f.add(f"{name}_hidden.")
        if i % 5 == 1:  # an interrupted predicate without a discontiguous declaration
            f.add(f"{name}_b(late).", "discontiguous_clauses")
        manifest.defs[(f"{name}_hidden", 0)] = Def(rel, line, None)

        f.add("/* Arithmetic rules: clause bodies with operators. */")
        line, _ = f.add(f"{name}_c(X, Y, Z) :- Z is X * Y + 0, Z > Y, X > 0.")
        manifest.defs[(f"{name}_c", 3)] = Def(rel, line, None)
        for k in range(1, 26):
            a, b = rng.randrange(1, 50), rng.randrange(1, 50)
            f.add(f"{name}_c(X, Y, Z) :- Z is X * {a} + Y // {b} - {k}, Z >= Y, X =< {k * 3}.")

        # an operator declared mid-file, used by the clauses after it
        op = f"{name}_to"
        f.add(f":- op(700, xfx, {op}).")
        line, _ = f.add(f"{name}_rel({rng.choice(WORDS)} {op} {rng.choice(WORDS)}).")
        manifest.defs[(f"{name}_rel", 1)] = Def(rel, line, None)
        for k in range(8):
            f.add(f"{name}_rel({rng.choice(WORDS)}_{k} {op} '{rng.choice(WORDS)} {k}').")

        # a DCG nonterminal with terminals, a pushed-back goal and a string
        line, _ = f.add(f"{name}_g(N) --> [{rng.choice(WORDS)}], {{N > 0}}, {name}_g(N).")
        manifest.defs[(f"{name}_g", 3)] = Def(rel, line, None)
        f.add(f"{name}_g(N) --> \"{rng.choice(WORDS)}\", {{N = 0}}.")
        f.add(f"{name}_g(N) --> [], {{N < 0}}.")

        line, _ = f.add(f"{name}_s(Item, Unused) :- {name}_b(Item).", "singleton_variable")
        manifest.defs[(f"{name}_s", 2)] = Def(rel, line, None)
        if i % 7 == 3:  # fixable: another module exports the callee
            j = (i + 2 * CHAIN_LEN + 1) % n_mods
            line, _ = f.add(f"{name}_u(Item) :- {names[j]}_b(Item).", "undefined_predicate")
            labels.add(f"{name}_u/1")
            manifest.fixes.append(("undefined_predicate", rel, line, rel,
                                   f":- use_module({names[j]}, [{names[j]}_b/1])."))
        if i % 13 == 6:  # unfixable: nothing defines the callee
            f.add(f"{name}_v :- missing_{name}(1).", "undefined_predicate")
            labels.add(f"{name}_v/0")
        for text, codes in plants.get(i, []):
            f.add(text, *codes)
        manifest.outlines[rel] = (name, labels)
        tail = "\n"
        if i in eof_plants:
            text, codes = eof_plants[i]
            f.add(text, *codes)
            tail = ""
        f.write(root, tail)

    manifest.hover_doc += [(rel, offset, manifest.defs[key].doc)
                           for rel, offset, key in callee_docs]
    return manifest


# --- engine program ------------------------------------------------------

ENGINE_RULES = """\
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).
sum_to(0, S, S).
sum_to(N, A, S) :- N > 0, A1 is A + N, N1 is N - 1, sum_to(N1, A1, S).
count(0).
count(N) :- N > 0, N1 is N - 1, count(N1).
m(1).
m(2).
m(3).
first(X) :- m(X), !.
"""
N_ROWS = 5000
# One goal of each shape per cycle. The sizes step through these sweeps over
# CYCLES cycles, so every length runs equally often and a shape's median is
# the goal of the middle length, whatever the seed.
NREV_LENGTHS = (30, 58, 87, 115, 143, 172, 200)
SUM_LENGTHS = (40, 50, 60, 70, 80, 90, 100)
CYCLES = len(NREV_LENGTHS)


@dataclass
class Goal:
    kind: str      # nrev | lookup_first | lookup_later | sum
    functor: str
    args: list     # python values; None marks an unbound output variable
    answer: list   # expected solutions, each a tuple of output values
    inferences: int  # resolution steps (calls of user predicates)


def make_program(path: str, seed: int) -> list[Goal]:
    """Write the engine program to `path`; return CYCLES cycles of goals,
    each one goal of every shape in a seeded order."""
    rng = random.Random(seed)
    keys = [f"k{n}" for n in rng.sample(range(10 * N_ROWS), N_ROWS)]
    rows = [(key, rng.randrange(10 ** 6), f"w{n}") for n, key in enumerate(keys)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ENGINE_RULES)
        fh.writelines(f"row({k}, {v}, {w}).\n" for k, v, w in rows)
    nrev_lengths = rng.sample(NREV_LENGTHS, CYCLES)
    sum_lengths = rng.sample(SUM_LENGTHS, CYCLES)
    goals = []
    for n, m in zip(nrev_lengths, sum_lengths):
        items = [rng.randrange(1000) for _ in range(n)]
        k, v, w = rng.choice(rows)
        k2, v2, w2 = rng.choice(rows)
        cycle = [
            Goal("nrev", "nrev", [items, None], [(items[::-1],)], (n + 1) * (n + 2) // 2),
            Goal("lookup_first", "row", [k, None, None], [(v, w)], 1),
            Goal("lookup_later", "row", [None, None, w2], [(k2, v2)], 1),
            Goal("sum", "sum_to", [m, 0, None], [(m * (m + 1) // 2,)], m + 1),
        ]
        rng.shuffle(cycle)
        goals += cycle
    return goals
