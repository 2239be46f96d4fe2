#!/usr/bin/env python3
"""Project-invariant static analyzer: determinism, checkpoint drift,
parallel-capture discipline.

It lexes every translation unit into a token stream with balanced-group
structure (a "micro-AST": tokens + matched (), [], {}, <> spans + a
comment sidecar) and runs three project-specific checks over it. The file set comes from
``compile_commands.json`` when available (``--db``), so the analyzer sees
exactly what the build sees; bare directories/files also work.

Why a built-in lexer rather than libclang: the analyzer must run — and
its golden-fixture tests must pass — on every toolchain that can build
the repo, including gcc-only containers with no clang frontend or
python3-clang bindings. The checks below need token- and scope-level
structure, not full semantic analysis, so a dependency-free lexer keeps
them runnable under plain ctest while remaining bit-identical across
machines. (Clang thread-safety analysis, the semantic half of the static
verification layer, runs in the `tsafety` CMake preset — see
src/util/thread_annotations.hpp.)

Checks (select with --check, comma-separated; default all):

  determinism
      The repo guarantees bit-identical results across thread counts,
      async settings, and resume. Construct bans, everywhere:
        * std::random_device, rand(), srand(), std::random_shuffle
          (ambient nondeterminism / global RNG state);
        * seeding an RNG from a clock (time(...), chrono ...now()).
      Additionally, in SERIALIZATION/REDUCTION/TELEMETRY paths (fixed
      list below + --serialization-path), iterating an unordered
      container (range-for or .begin()) is banned: hash-order would leak
      into bytes that must be stable.
      Escape hatch: `// det-safe: <reason>` on the line or a standalone
      comment line directly above.

  checkpoint-drift
      A struct annotated
        // analyze:checkpoint-state save=<fn> load=<fn>
      must have EVERY data member referenced in the bodies of both <fn>s
      (the PR-4 bug class: a field added to the struct but not to
      encode/decode silently breaks bit-identical resume).
      Escape hatch: `// ckpt-transient: <reason>` on the member's line.

  parallel-capture
      Real capture-list analysis of util::parallel_for /
      parallel_for_dynamic / parallel_for_ranges / parallel_region
      lambdas: writes to
      by-reference-captured state are flagged unless the target is
      region-local, the index expression involves region-local state, the
      write sits under `#pragma omp atomic/critical`, or it carries
      `// omp-safe: <reason>`.

  mutex-guards
      Every util::Mutex member declared in a file must be named by at
      least one thread-safety annotation (GUARDED_BY / REQUIRES /
      EXCLUDES / ...) in that file: a mutex that guards nothing is
      invisible to the Clang -Wthread-safety pass, so the protection the
      author believes exists is never checked.
      Escape hatch: `// unguarded-ok: <reason>` on the declaration line.

Usage:
  analyze.py [--db build/compile_commands.json] [paths...]
  analyze.py --check determinism --serialization-path 'tests/analyze/*' f.cpp
  analyze.py --self-test

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".hpp", ".h", ".hh"}

# Files whose bytes feed serialization, cross-thread reductions, or
# telemetry: hash-order iteration here breaks the determinism contract.
SERIALIZATION_PATH_GLOBS = [
    "src/data/feature_store.*",  # on-disk layout (framed header + payload)
    "src/gcn/checkpoint.*",
    "src/gcn/metrics.*",
    "src/obs/*",
    "src/util/fault.*",
    "src/util/json_writer.*",
    "src/util/stats.*",
]

DET_SAFE_RE = re.compile(r"//\s*det-safe:\s*\S")
OMP_SAFE_RE = re.compile(r"//\s*omp-safe:\s*\S")
CKPT_TRANSIENT_RE = re.compile(r"//\s*ckpt-transient:\s*\S")
CKPT_STATE_RE = re.compile(
    r"//\s*analyze:checkpoint-state\s+save=(\w+)\s+load=(\w+)"
)
ATOMIC_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\s+(atomic|critical)")

PARALLEL_HELPERS = {
    "parallel_for",
    "parallel_for_dynamic",
    "parallel_for_ranges",
    "parallel_region",
}

ASSIGN_OPS = {
    "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=",
}

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
          "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

ID_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
ID_CONT = ID_START | set("0123456789")


class Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind, value, line):
        self.kind = kind      # 'id' | 'num' | 'str' | 'chr' | 'punct' | 'pp'
        self.value = value
        self.line = line

    def __repr__(self):
        return f"{self.kind}:{self.value}@{self.line}"


class Source:
    """Token stream + per-line comment sidecar + pragma lines."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.tokens = []
        self.comments = {}   # line -> comment text (joined)
        self.pragmas = {}    # line -> pragma text
        self.lines = text.splitlines()
        self._lex()

    def _lex(self):
        text = self.text
        i, n, line = 0, len(text), 1
        toks = self.tokens
        while i < n:
            c = text[i]
            if c == "\n":
                line += 1
                i += 1
                continue
            if c in " \t\r\f\v":
                i += 1
                continue
            if text.startswith("//", i):
                j = text.find("\n", i)
                j = n if j == -1 else j
                self.comments[line] = (
                    self.comments.get(line, "") + text[i:j]
                )
                i = j
                continue
            if text.startswith("/*", i):
                j = text.find("*/", i + 2)
                j = n if j == -1 else j + 2
                block = text[i:j]
                # Attach a block comment to its first line only; the
                # escape hatches are all line comments by convention.
                self.comments[line] = self.comments.get(line, "") + block
                line += block.count("\n")
                i = j
                continue
            if c == "#":
                # Preprocessor directive: consume to end of (continued)
                # line, record pragmas for the atomic/critical exemption.
                j = i
                while j < n:
                    k = text.find("\n", j)
                    k = n if k == -1 else k
                    if text[max(i, k - 1):k] == "\\":
                        j = k + 1
                        line += 1
                        continue
                    break
                directive = text[i:k]
                if "pragma" in directive:
                    self.pragmas[line] = directive
                toks.append(Token("pp", directive.split("\n")[0], line))
                line += directive.count("\n")
                i = k
                continue
            if c == 'R' and text.startswith('R"', i):
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    delim = m.group(1)
                    end = text.find(")" + delim + '"', i + m.end())
                    end = n if end == -1 else end + len(delim) + 2
                    toks.append(Token("str", text[i:end], line))
                    line += text.count("\n", i, end)
                    i = end
                    continue
            if c in "\"'":
                q = c
                j = i + 1
                while j < n and text[j] != q:
                    j += 2 if text[j] == "\\" else 1
                j = min(j + 1, n)
                toks.append(Token("str" if q == '"' else "chr",
                                  text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
            if c in ID_START:
                j = i + 1
                while j < n and text[j] in ID_CONT:
                    j += 1
                toks.append(Token("id", text[i:j], line))
                i = j
                continue
            if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i + 1
                while j < n and (text[j] in ID_CONT or text[j] in ".'+-"
                                 and text[j - 1] in "eEpP"):
                    if text[j] in "+-" and text[j - 1] not in "eEpP":
                        break
                    j += 1
                toks.append(Token("num", text[i:j], line))
                i = j
                continue
            for p in PUNCT3:
                if text.startswith(p, i):
                    toks.append(Token("punct", p, line))
                    i += len(p)
                    break
            else:
                for p in PUNCT2:
                    if text.startswith(p, i):
                        toks.append(Token("punct", p, line))
                        i += len(p)
                        break
                else:
                    toks.append(Token("punct", c, line))
                    i += 1

    # -- escape-hatch lookup -------------------------------------------------

    def annotated(self, line, pattern):
        """True if `pattern` matches a comment on `line` or on a
        standalone comment line directly above it."""
        if pattern.search(self.comments.get(line, "")):
            return True
        above = self.comments.get(line - 1, "")
        if pattern.search(above):
            # Standalone only: no tokens on that line.
            if not any(t.line == line - 1 for t in self.tokens):
                return True
        return False

    def pragma_above(self, line, pattern):
        return bool(pattern.search(self.pragmas.get(line - 1, "")))


def match_group(tokens, i, open_v, close_v):
    """Index just past the token matching tokens[i] == open_v."""
    depth = 0
    n = len(tokens)
    while i < n:
        v = tokens[i].value
        if tokens[i].kind == "punct":
            if v == open_v:
                depth += 1
            elif v == close_v:
                depth -= 1
                if depth == 0:
                    return i + 1
        i += 1
    return n


def skip_template_args(tokens, i):
    """tokens[i] == '<': index past the matching '>' (best effort)."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "punct":
            if t.value == "<":
                depth += 1
            elif t.value == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t.value == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t.value in (";", "{", "}"):
                return i  # not a template argument list after all
        i += 1
    return n


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Check 1: determinism
# ---------------------------------------------------------------------------

TIME_SOURCES = {"time", "clock", "now", "gettimeofday", "clock_gettime"}
SEED_SINK_RE = re.compile(
    r"seed|rng|engine|mt19937|minstd|ranlux|xoshiro|splitmix",
    re.IGNORECASE,
)
UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
}


def unordered_decls(src):
    """Names declared in this file with an unordered container type."""
    names = set()
    toks = src.tokens
    for i, t in enumerate(toks):
        if t.kind == "id" and t.value in UNORDERED_TYPES:
            j = i + 1
            if j < len(toks) and toks[j].value == "<":
                j = skip_template_args(toks, j)
            # Declarator: first identifier after the template args,
            # skipping refs/pointers.
            while j < len(toks) and toks[j].value in ("&", "*", "const"):
                j += 1
            if j < len(toks) and toks[j].kind == "id":
                names.add(toks[j].value)
    return names


def check_determinism(src, serialization, known_unordered=frozenset()):
    findings = []
    toks = src.tokens
    n = len(toks)

    def prev_punct(i):
        return toks[i - 1].value if i > 0 else ""

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.value == "random_device":
            if not src.annotated(t.line, DET_SAFE_RE):
                findings.append(Finding(
                    src.path, t.line, "determinism",
                    "std::random_device draws ambient entropy; derive "
                    "streams from the run seed (util::Xoshiro256::stream)"))
        elif t.value in ("rand", "srand", "random_shuffle"):
            called = i + 1 < n and toks[i + 1].value == "("
            member = prev_punct(i) in (".", "->")
            qualified_std = (i >= 2 and toks[i - 1].value == "::"
                             and toks[i - 2].value == "std")
            plain = prev_punct(i) not in (".", "->", "::") or qualified_std
            # `T rand(...)` declares a function named rand; only a call
            # has an operator/keyword-free boundary before the name.
            prev = toks[i - 1] if i > 0 else None
            declaration = prev is not None and (
                (prev.kind == "id" and prev.value not in (
                    "return", "throw", "case", "goto", "do", "else",
                    "co_return", "co_yield", "co_await"))
                or (prev.kind == "punct" and prev.value in ("*", "&", ">")))
            if called and not member and plain and not declaration:
                if not src.annotated(t.line, DET_SAFE_RE):
                    findings.append(Finding(
                        src.path, t.line, "determinism",
                        f"{t.value}() uses hidden global RNG state; use a "
                        "seeded util::Xoshiro256 stream"))

    # Time-seeded RNG: a statement containing both a clock read and a
    # seed-ish identifier.
    stmt = []
    for t in toks:
        if t.kind == "punct" and t.value in (";", "{", "}"):
            _scan_time_seed(src, stmt, findings)
            stmt = []
        else:
            stmt.append(t)
    _scan_time_seed(src, stmt, findings)

    if serialization:
        # Union across the file set: members are typically declared in a
        # header and iterated in the sibling .cpp.
        unordered = unordered_decls(src) | known_unordered
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            hit = None
            if (t.value in ("begin", "cbegin") and i + 1 < n
                    and toks[i + 1].value == "(" and i >= 2
                    and toks[i - 1].value in (".", "->")
                    and toks[i - 2].kind == "id"
                    and toks[i - 2].value in unordered):
                hit = toks[i - 2].value
            elif (t.value in unordered and prev_punct(i) == ":"
                  and _in_range_for(toks, i)):
                hit = t.value
            if hit and not src.annotated(t.line, DET_SAFE_RE):
                findings.append(Finding(
                    src.path, t.line, "determinism",
                    f"iteration over unordered container '{hit}' in a "
                    "serialization/reduction/telemetry path: hash order "
                    "leaks into bytes that must be deterministic "
                    "(sort first, or annotate `// det-safe: <reason>` "
                    "if order provably cannot matter)"))
    return findings


def _in_range_for(toks, i):
    """toks[i] follows ':' — is this a range-for (for (x : expr))?"""
    depth = 0
    j = i - 1
    while j >= 0 and j > i - 64:
        v = toks[j].value
        if toks[j].kind == "punct":
            if v == ")":
                depth -= 1
            elif v == "(":
                depth += 1
                if depth > 0:
                    return j > 0 and toks[j - 1].value == "for"
            elif v in (";", "{", "}"):
                return False
        j -= 1
    return False


def _scan_time_seed(src, stmt, findings):
    if not stmt:
        return
    time_tok = None
    for k, t in enumerate(stmt):
        if t.kind == "id" and t.value in TIME_SOURCES:
            if k + 1 < len(stmt) and stmt[k + 1].value == "(":
                time_tok = t
                break
    if time_tok is None:
        return
    has_sink = any(t.kind == "id" and SEED_SINK_RE.search(t.value)
                   for t in stmt)
    if has_sink and not src.annotated(time_tok.line, DET_SAFE_RE):
        findings.append(Finding(
            src.path, time_tok.line, "determinism",
            "RNG seeded from a clock: reruns would diverge; derive seeds "
            "from configuration (GSGCN_SEED)"))


# ---------------------------------------------------------------------------
# Check 2: checkpoint drift
# ---------------------------------------------------------------------------

def collect_checkpoint_structs(sources):
    """[(src, struct_name, line, members, save_fn, load_fn)] for every
    // analyze:checkpoint-state marker."""
    out = []
    for src in sources:
        for line, comment in sorted(src.comments.items()):
            m = CKPT_STATE_RE.search(comment)
            if not m:
                continue
            save_fn, load_fn = m.group(1), m.group(2)
            struct = _struct_after(src, line)
            if struct is None:
                out.append((src, None, line, [], save_fn, load_fn))
                continue
            name, members = struct
            out.append((src, name, line, members, save_fn, load_fn))
    return out


def _struct_after(src, marker_line):
    toks = src.tokens
    for i, t in enumerate(toks):
        if (t.line >= marker_line and t.kind == "id"
                and t.value in ("struct", "class")):
            if i + 2 < len(toks) and toks[i + 1].kind == "id":
                j = i + 2
                if toks[j].value == ":":  # base clause
                    while j < len(toks) and toks[j].value != "{":
                        j += 1
                if j < len(toks) and toks[j].value == "{":
                    end = match_group(toks, j, "{", "}")
                    members = _data_members(src, toks, j + 1, end - 1)
                    return toks[i + 1].value, members
            return None
    return None


def _data_members(src, toks, lo, hi):
    """(name, line) for each data member declared at depth 0 of [lo, hi)."""
    members = []
    depth = 0
    stmt_start = lo
    i = lo
    while i < hi:
        t = toks[i]
        if t.kind == "punct":
            if t.value in ("{", "("):
                i = match_group(toks, i, t.value,
                                "}" if t.value == "{" else ")")
                continue
            if t.value == "<":
                i = skip_template_args(toks, i)
                continue
            if t.value == ";" and depth == 0:
                members.extend(_member_from_stmt(src, toks, stmt_start, i))
                stmt_start = i + 1
        i += 1
    return members


def _member_from_stmt(src, toks, lo, hi):
    stmt = toks[lo:hi]
    if not stmt:
        return []
    head = stmt[0]
    if head.kind == "id" and head.value in (
            "using", "typedef", "static", "friend", "public", "private",
            "protected", "template"):
        return []
    # Functions: an identifier directly followed by '(' before any '='.
    # (Group initializers like `T x{0};` never contain '(' at depth 0 —
    # _data_members already skipped balanced groups, so a surviving '('
    # marks a declarator-with-parameters, i.e. a function.)
    for k, t in enumerate(stmt):
        if t.kind == "punct" and t.value == "=":
            break
        if t.kind == "punct" and t.value == "(":
            return []
    # Declarator name: identifier immediately before '=', '{' or
    # end-of-statement, walking back over array brackets.
    k = len(stmt) - 1
    for j, t in enumerate(stmt):
        if t.kind == "punct" and t.value in ("=", "{"):
            k = j - 1
            break
    while k >= 0 and stmt[k].kind == "punct" and stmt[k].value in ("]", "["):
        k -= 1
    while k >= 0 and stmt[k].kind == "num":
        k -= 1
        while k >= 0 and stmt[k].kind == "punct" and stmt[k].value in ("]", "["):
            k -= 1
    if k >= 1 and stmt[k].kind == "id":
        # Need at least one type token before the name.
        return [(stmt[k].value, stmt[k].line)]
    return []


def function_bodies(sources, fn_name):
    """[(src, lo, hi)] token spans of every definition of fn_name."""
    spans = []
    for src in sources:
        toks = src.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.value != fn_name:
                continue
            if i + 1 >= len(toks) or toks[i + 1].value != "(":
                continue
            close = match_group(toks, i + 1, "(", ")")
            j = close
            # Skip specifiers between ')' and '{' (const, noexcept, trailing
            # return types are not expected on these free functions).
            while j < len(toks) and toks[j].kind == "id":
                j += 1
            if j < len(toks) and toks[j].value == "{":
                spans.append((src, j, match_group(toks, j, "{", "}")))
    return spans


def check_checkpoint_drift(sources):
    findings = []
    for src, name, line, members, save_fn, load_fn in \
            collect_checkpoint_structs(sources):
        if name is None:
            findings.append(Finding(
                src.path, line, "checkpoint-drift",
                "analyze:checkpoint-state marker is not followed by a "
                "struct/class definition"))
            continue
        if not members:
            findings.append(Finding(
                src.path, line, "checkpoint-drift",
                f"could not parse any data member of '{name}'"))
            continue
        for fn, role in ((save_fn, "save"), (load_fn, "load")):
            spans = function_bodies(sources, fn)
            if not spans:
                findings.append(Finding(
                    src.path, line, "checkpoint-drift",
                    f"{role} function '{fn}' (named by the "
                    "analyze:checkpoint-state marker) has no definition "
                    "in the analyzed file set"))
                continue
            for member, mline in members:
                if src.annotated(mline, CKPT_TRANSIENT_RE):
                    continue
                if not any(_member_referenced(s, lo, hi, member)
                           for s, lo, hi in spans):
                    findings.append(Finding(
                        src.path, mline, "checkpoint-drift",
                        f"'{name}::{member}' is never referenced in "
                        f"{role} function '{fn}': the field would be "
                        "silently dropped across checkpoint/resume "
                        "(serialize it, or annotate "
                        "`// ckpt-transient: <reason>`)"))
    return findings


def _member_referenced(src, lo, hi, member):
    toks = src.tokens
    for i in range(lo, hi):
        t = toks[i]
        if (t.kind == "id" and t.value == member and i > 0
                and toks[i - 1].value in (".", "->")):
            return True
    return False


# ---------------------------------------------------------------------------
# Check 3: parallel capture
# ---------------------------------------------------------------------------

class Lambda:
    def __init__(self):
        self.default = None        # '&' | '=' | None
        self.byref = set()
        self.byval = set()
        self.has_this = False
        self.mutable = False
        self.params = set()
        self.body = (0, 0)         # token span


def parse_lambda(toks, i):
    """toks[i] == '[' opening a lambda introducer; returns (Lambda, end)
    or (None, i+1) if this is not a lambda."""
    lam = Lambda()
    close = match_group(toks, i, "[", "]")
    j = i + 1
    while j < close - 1:
        t = toks[j]
        v = t.value
        if v == "&":
            if j + 1 < close - 1 and toks[j + 1].kind == "id":
                lam.byref.add(toks[j + 1].value)
                j += 2
            else:
                lam.default = "&"
                j += 1
        elif v == "=":
            lam.default = "="
            j += 1
        elif v == "this":
            lam.has_this = True
            j += 1
        elif v == "*":
            j += 1  # *this
        elif t.kind == "id":
            name = v
            # init capture: name = expr  /  &name = expr handled above
            k = j + 1
            if k < close - 1 and toks[k].value == "=":
                while k < close - 1 and toks[k].value != ",":
                    k += 1
            lam.byval.add(name)
            j = k
        else:
            j += 1
    j = close
    if j < len(toks) and toks[j].value == "(":
        pclose = match_group(toks, j, "(", ")")
        lam.params |= _param_names(toks, j + 1, pclose - 1)
        j = pclose
    while j < len(toks) and (toks[j].kind == "id" or
                             toks[j].value in ("->", "*", "&", "::") or
                             toks[j].kind == "punct" and toks[j].value == "<"):
        if toks[j].value == "mutable":
            lam.mutable = True
            j += 1
        elif toks[j].value == "<":
            j = skip_template_args(toks, j)
        else:
            j += 1
    if j >= len(toks) or toks[j].value != "{":
        return None, i + 1
    end = match_group(toks, j, "{", "}")
    lam.body = (j + 1, end - 1)
    return lam, end


def _param_names(toks, lo, hi):
    names = set()
    chunk_last = None
    i = lo
    while i < hi:
        t = toks[i]
        if t.kind == "punct":
            if t.value == "<":
                i = skip_template_args(toks, i)
                continue
            if t.value == "(":
                i = match_group(toks, i, "(", ")")
                continue
            if t.value == ",":
                if chunk_last is not None:
                    names.add(chunk_last)
                chunk_last = None
            elif t.value == "=":
                # default argument: freeze the declarator name
                if chunk_last is not None:
                    names.add(chunk_last)
                while i < hi and toks[i].value != ",":
                    i += 1
                continue
        elif t.kind == "id" and t.value not in ("const", "auto", "class",
                                                "typename"):
            chunk_last = t.value
        i += 1
    if chunk_last is not None:
        names.add(chunk_last)
    return names


TYPE_STARTERS = {
    "auto", "bool", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "std", "const", "constexpr", "static", "void",
    "size_t", "Vid", "Eid", "Range", "util", "graph", "tensor", "gcn",
    "sampling", "obs",
}
NON_DECL_HEADS = {
    "return", "if", "while", "switch", "case", "delete", "throw", "goto",
    "break", "continue", "else", "do",
}


def region_locals(toks, lo, hi, params):
    """Names declared anywhere inside the body span (flat scope union —
    nested blocks and nested lambda parameter lists included)."""
    names = set(params)
    i = lo
    while i < hi:
        t = toks[i]
        # for-loop heads and nested lambda params.
        if t.kind == "id" and t.value == "for" and i + 1 < hi and \
                toks[i + 1].value == "(":
            pclose = match_group(toks, i + 1, "(", ")")
            names |= _decl_names_in(toks, i + 2, pclose - 1, in_for=True)
            i = i + 2
            continue
        if t.kind == "punct" and t.value == "[":
            lam, end = parse_lambda(toks, i)
            if lam is not None:
                names |= lam.params
                i = lam.body[0]
                continue
        i += 1
    # Plain declarations, statement by statement.
    names |= _decl_names_in(toks, lo, hi, in_for=False)
    return names


def _decl_names_in(toks, lo, hi, in_for):
    names = set()
    stmt_start = lo
    i = lo
    while i <= hi:
        boundary = (i == hi or (toks[i].kind == "punct"
                                and toks[i].value in (";", "{", "}")))
        if boundary:
            names |= _decl_from_stmt(toks, stmt_start, i, in_for)
            stmt_start = i + 1
        elif toks[i].kind == "punct" and toks[i].value == "(":
            # Don't let call argument lists look like declarations, but a
            # for-head's init clause is handled by the caller.
            pass
        i += 1
    return names


STRUCTURED_BINDING_RE = None  # handled inline


def _decl_from_stmt(toks, lo, hi, in_for):
    stmt = toks[lo:hi]
    if not stmt:
        return set()
    head = stmt[0]
    if head.kind != "id" or head.value in NON_DECL_HEADS:
        return set()
    # Strip leading qualifiers.
    k = 0
    while k < len(stmt) and stmt[k].kind == "id" and stmt[k].value in (
            "const", "constexpr", "static", "mutable", "volatile",
            "register", "thread_local"):
        k += 1
    if k >= len(stmt) or stmt[k].kind != "id":
        return set()
    # Type: id (:: id)* (<...>)?
    k += 1
    while k + 1 < len(stmt) and stmt[k].value == "::" and \
            stmt[k + 1].kind == "id":
        k += 2
    if k < len(stmt) and stmt[k].value == "<":
        sub = skip_template_args(toks, lo + k) - lo
        if sub <= k:
            return set()
        k = sub
    # auto [a, b] = ...  (structured bindings)
    if k < len(stmt) and stmt[k].value == "[" and head.value == "auto":
        out = set()
        j = k + 1
        while j < len(stmt) and stmt[j].value != "]":
            if stmt[j].kind == "id":
                out.add(stmt[j].value)
            j += 1
        return out
    while k < len(stmt) and stmt[k].kind == "punct" and \
            stmt[k].value in ("*", "&", "&&"):
        k += 1
    if k >= len(stmt) or stmt[k].kind != "id":
        return set()
    name_tok = stmt[k]
    nxt = stmt[k + 1].value if k + 1 < len(stmt) else ";"
    # A declaration if followed by '=', '(', '{', ';', ',' or (range-for)
    # ':'. A call would need the PREVIOUS token to be '.', '->', etc.,
    # which the type-token walk above already excluded.
    if nxt in ("=", "(", "{", ",", ";") or (in_for and nxt == ":"):
        names = {name_tok.value}
        # Multi-declarator: `int a = 0, b = 0;`
        j = k + 1
        depth = 0
        while j < len(stmt):
            v = stmt[j].value
            if stmt[j].kind == "punct":
                if v in ("(", "[", "{"):
                    depth += 1
                elif v in (")", "]", "}"):
                    depth -= 1
                elif v == "," and depth == 0:
                    if j + 1 < len(stmt) and stmt[j + 1].kind == "id":
                        names.add(stmt[j + 1].value)
            j += 1
        return names
    return set()


def find_parallel_lambdas(src):
    """Yield (helper_name, Lambda, call_line) for every parallel helper
    call whose last argument is a lambda."""
    toks = src.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.value not in PARALLEL_HELPERS:
            continue
        if i + 1 >= n or toks[i + 1].value != "(":
            continue
        if i > 0 and toks[i - 1].value in (".", "->"):
            continue
        close = match_group(toks, i + 1, "(", ")")
        j = i + 2
        while j < close:
            if toks[j].kind == "punct" and toks[j].value == "[":
                lam, end = parse_lambda(toks, j)
                if lam is not None:
                    yield t.value, lam, t.line
                    j = end
                    continue
            j += 1


def check_parallel_capture(src):
    findings = []
    toks = src.tokens
    for helper, lam, call_line in find_parallel_lambdas(src):
        lo, hi = lam.body
        locals_ = region_locals(toks, lo, hi, lam.params)
        shared = set(lam.byref)
        # Writes through `this->member` with [this] captured share the
        # object across the team exactly like a by-ref capture.
        i = lo
        while i < hi:
            t = toks[i]
            if t.kind == "punct" and t.value in ASSIGN_OPS:
                tgt = _write_target(toks, lo, i)
                if tgt is not None:
                    _judge_write(src, helper, lam, locals_, shared, toks,
                                 tgt, t.line, findings)
            elif t.kind == "punct" and t.value in ("++", "--"):
                tgt = _incdec_target(toks, lo, hi, i)
                if tgt is not None:
                    _judge_write(src, helper, lam, locals_, shared, toks,
                                 tgt, t.line, findings)
            i += 1
    return findings


def _write_target(toks, lo, i):
    """(base_index, base_name, index_span|None) for the lvalue ending just
    before the assignment operator at i, or None if it is not a write
    (comparisons never reach here; '==' is one token)."""
    j = i - 1
    index_span = None
    # Walk back over one trailing [...] group.
    while j >= lo and toks[j].kind == "punct" and toks[j].value == "]":
        depth = 0
        k = j
        while k >= lo:
            if toks[k].value == "]":
                depth += 1
            elif toks[k].value == "[":
                depth -= 1
                if depth == 0:
                    break
            k -= 1
        index_span = (k + 1, j)
        j = k - 1
    # Walk back over member chains: id (. id | -> id | (...) )*
    while j >= lo:
        t = toks[j]
        if t.kind == "punct" and t.value == ")":
            k = j
            depth = 0
            while k >= lo:
                if toks[k].value == ")":
                    depth += 1
                elif toks[k].value == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            j = k - 1
            continue
        if t.kind == "id":
            if j - 1 >= lo and toks[j - 1].value in (".", "->", "::"):
                j -= 2
                continue
            return (j, t.value, index_span)
        if t.kind == "punct" and t.value == "*":
            j -= 1
            continue
        return None
    return None


def _incdec_target(toks, lo, hi, i):
    # Postfix: id (or id[...]) before the operator.
    j = i - 1
    if j >= lo and toks[j].kind in ("id",) or \
            (j >= lo and toks[j].value == "]"):
        tgt = _write_target(toks, lo, i)
        if tgt is not None:
            return tgt
    # Prefix: identifier after the operator.
    j = i + 1
    if j < hi and toks[j].kind == "id":
        index_span = None
        k = j + 1
        while k < hi and toks[k].value in (".", "->") and \
                k + 1 < hi and toks[k + 1].kind == "id":
            k += 2
        if k < hi and toks[k].value == "[":
            index_span = (k + 1, match_group(toks, k, "[", "]") - 1)
        return (j, toks[j].value, index_span)
    return None


def _judge_write(src, helper, lam, locals_, shared, toks, tgt, line,
                 findings):
    base_i, base, index_span = tgt
    if base in locals_:
        return
    if base == "this":
        return  # methods on this are handled below via has_this policy
    if index_span is not None:
        idx_ids = {toks[k].value for k in range(*index_span)
                   if toks[k].kind == "id"}
        if idx_ids & locals_:
            return  # element choice depends on region-local state
    # How is `base` captured?
    if base in lam.byval:
        if not lam.mutable:
            return  # write to a non-mutable by-value capture cannot compile
        return      # mutable by-value copy is per-lambda, not shared
    captured_by_ref = (base in lam.byref or lam.default == "&"
                       or (lam.has_this and lam.default is None
                           and base not in lam.byval))
    if not captured_by_ref and lam.default != "=":
        # Explicit capture list without this name: not captured at all —
        # it must be a global/static, which IS shared.
        pass
    if src.annotated(line, OMP_SAFE_RE):
        return
    if src.pragma_above(line, ATOMIC_PRAGMA_RE):
        return
    where = (f"indexed write to '{base}[...]' whose index uses no "
             "region-local variable" if index_span is not None
             else f"write to '{base}'")
    how = ("captured by reference" if base in lam.byref
           else "captured by default [&]" if lam.default == "&"
           else "reached through captured this" if lam.has_this
           else "not region-local")
    findings.append(Finding(
        src.path, line, "parallel-capture",
        f"{where} inside a {helper} lambda: the target is {how} and "
        "shared across the team (make it region-local, index by a "
        "region-local value, or annotate `// omp-safe: <reason>`)"))


# ---------------------------------------------------------------------------
# Check 4: mutex-guards
# ---------------------------------------------------------------------------

# Thread-safety-annotation macros (src/util/thread_annotations.hpp) whose
# arguments name the mutexes they relate to.
MUTEX_GUARD_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "REQUIRES", "REQUIRES_SHARED",
    "ACQUIRE", "ACQUIRE_SHARED", "RELEASE", "RELEASE_SHARED", "EXCLUDES",
    "ACQUIRED_BEFORE", "ACQUIRED_AFTER", "TRY_ACQUIRE",
    "RETURN_CAPABILITY", "ASSERT_CAPABILITY",
}
UNGUARDED_OK_RE = re.compile(r"//\s*unguarded-ok:\s*\S")


def check_mutex_guards(src):
    """Every util::Mutex member must appear in at least one thread-safety
    annotation argument in the same file.

    A mutex that guards nothing is either dead weight or — worse — the
    author believes something is protected when the annotation layer (and
    Clang's -Wthread-safety pass in the `tsafety` preset) knows nothing
    about it. Declaring the mutex and annotating the state it protects
    must travel together; this check enforces the pairing lexically so it
    also runs on gcc-only hosts. Escape hatch: `// unguarded-ok: <reason>`
    on the declaration line (e.g. a mutex handed to external code).
    """
    toks = src.tokens
    n = len(toks)

    # Mutex member/variable declarations:  [mutable] [util::] Mutex name ;
    declared = []  # (name, line)
    for i, t in enumerate(toks):
        if t.kind != "id" or t.value != "Mutex":
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "id" and prev.value in (
                "class", "struct", "typename"):
            continue  # the Mutex class definition / template param itself
        j = i + 1
        if j < n and toks[j].kind == "id":
            name = toks[j].value
            if j + 1 < n and toks[j + 1].value == ";":
                declared.append((name, toks[j].line))

    if not declared:
        return []

    # Names referenced inside any annotation's argument list. The lexer
    # splits `mu_` vs `other.mu` the same way, so collect every id.
    referenced = set()
    for i, t in enumerate(toks):
        if (t.kind == "id" and t.value in MUTEX_GUARD_MACROS
                and i + 1 < n and toks[i + 1].value == "("):
            end = match_group(toks, i + 1, "(", ")")
            for k in range(i + 2, end - 1):
                if toks[k].kind == "id":
                    referenced.add(toks[k].value)

    findings = []
    for name, line in declared:
        if name in referenced:
            continue
        if src.annotated(line, UNGUARDED_OK_RE):
            continue
        findings.append(Finding(
            src.path, line, "mutex-guards",
            f"mutex '{name}' is never named by a thread-safety annotation "
            "(GUARDED_BY/REQUIRES/...) in this file: annotate the state it "
            "protects or mark the declaration `// unguarded-ok: <reason>`"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_CHECKS = ("determinism", "checkpoint-drift", "parallel-capture",
              "mutex-guards")


def gather_files(paths, db):
    files = []
    seen = set()
    if db:
        entries = json.loads(Path(db).read_text(encoding="utf-8"))
        for e in entries:
            f = Path(e["file"])
            if f.suffix in CXX_SUFFIXES and f not in seen and f.exists():
                seen.add(f)
                files.append(f)
        # Headers are not TUs; pull in the ones next to the sources.
        for f in list(files):
            for sib in (f.with_suffix(".hpp"), f.with_suffix(".h")):
                if sib.exists() and sib not in seen:
                    seen.add(sib)
                    files.append(sib)
    for p in paths:
        p = Path(p)
        if p.is_file():
            if p not in seen:
                seen.add(p)
                files.append(p)
        elif p.is_dir():
            for f in sorted(p.rglob("*")):
                if f.suffix in CXX_SUFFIXES and f not in seen:
                    seen.add(f)
                    files.append(f)
        else:
            print(f"analyze.py: no such path: {p}", file=sys.stderr)
            return None
    return files


def is_serialization_path(path, repo_root, extra_globs):
    try:
        rel = Path(path).resolve().relative_to(repo_root.resolve()).as_posix()
    except ValueError:
        rel = Path(path).as_posix()
    for pat in SERIALIZATION_PATH_GLOBS + list(extra_globs):
        if fnmatch.fnmatch(rel, pat) or fnmatch.fnmatch(Path(path).name, pat):
            return True
    return False


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to analyze")
    ap.add_argument("--db", help="compile_commands.json to take the file list from")
    ap.add_argument("--check", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: " + ", ".join(ALL_CHECKS))
    ap.add_argument("--serialization-path", action="append", default=[],
                    metavar="GLOB",
                    help="extra repo-relative glob treated as a "
                         "serialization/reduction/telemetry path")
    ap.add_argument("--repo-root", default=str(Path(__file__).resolve().parent.parent),
                    help="root for relative-path glob matching")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in lexer/check self-tests and exit")
    args = ap.parse_args(argv[1:])

    if args.self_test:
        return self_test()

    checks = [c.strip() for c in args.check.split(",") if c.strip()]
    for c in checks:
        if c not in ALL_CHECKS:
            print(f"analyze.py: unknown check '{c}'", file=sys.stderr)
            return 2
    if not args.paths and not args.db:
        ap.print_usage(sys.stderr)
        print("analyze.py: need --db and/or paths", file=sys.stderr)
        return 2

    files = gather_files(args.paths, args.db)
    if files is None:
        return 2
    repo_root = Path(args.repo_root)

    sources = []
    for f in files:
        try:
            sources.append(Source(str(f), f.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError) as e:
            print(f"analyze.py: cannot read {f}: {e}", file=sys.stderr)
            return 2

    findings = []
    if "determinism" in checks:
        known_unordered = set()
        for src in sources:
            known_unordered |= unordered_decls(src)
        for src in sources:
            findings.extend(check_determinism(
                src, is_serialization_path(src.path, repo_root,
                                           args.serialization_path),
                known_unordered))
    if "checkpoint-drift" in checks:
        findings.extend(check_checkpoint_drift(sources))
    if "parallel-capture" in checks:
        for src in sources:
            findings.extend(check_parallel_capture(src))
    if "mutex-guards" in checks:
        for src in sources:
            findings.extend(check_mutex_guards(src))

    findings.sort(key=lambda f: (f.path, f.line))
    for f in findings:
        print(f)
    print(f"analyze.py: {len(sources)} file(s), "
          f"{len(checks)} check(s), {len(findings)} finding(s)")
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self-test (mirrors the golden fixtures in tests/analyze/ so the script
# can vouch for itself without a build tree)
# ---------------------------------------------------------------------------

def _run_on(text, check, serialization=False):
    src = Source("<self-test>", text)
    if check == "determinism":
        return check_determinism(src, serialization)
    if check == "parallel-capture":
        return check_parallel_capture(src)
    if check == "checkpoint-drift":
        return check_checkpoint_drift([src])
    if check == "mutex-guards":
        return check_mutex_guards(src)
    raise AssertionError(check)


def self_test():
    failures = []

    def expect(name, findings, want):
        got = len(findings)
        if got != want:
            failures.append(
                f"{name}: expected {want} finding(s), got {got}: "
                + "; ".join(str(f) for f in findings))

    expect("random_device", _run_on(
        "int f() { std::random_device rd; return rd(); }",
        "determinism"), 1)
    expect("rand", _run_on("int f() { return rand() % 7; }",
                           "determinism"), 1)
    expect("rand-annotated", _run_on(
        "int f() { return rand() % 7; }  // det-safe: test shim",
        "determinism"), 0)
    expect("member-rand-ok", _run_on(
        "int f(Rng& r) { return r.rand(); }", "determinism"), 0)
    expect("time-seed", _run_on(
        "void f() { auto seed = time(nullptr); rng.set_seed(seed); }",
        "determinism"), 1)
    expect("unordered-iter", _run_on(
        "void dump() { for (const auto& kv : table_) emit(kv); }\n"
        "std::unordered_map<K, V> table_;",
        "determinism", serialization=True), 1)
    expect("unordered-iter-elsewhere-ok", _run_on(
        "void dump() { for (const auto& kv : table_) emit(kv); }\n"
        "std::unordered_map<K, V> table_;",
        "determinism", serialization=False), 0)
    expect("unordered-lookup-ok", _run_on(
        "std::unordered_map<K, V> table_;\n"
        "bool has(K k) { return table_.find(k) != table_.end(); }",
        "determinism", serialization=True), 0)

    expect("ckpt-drift", _run_on(
        "// analyze:checkpoint-state save=enc load=dec\n"
        "struct S { int a = 0; int b = 0; };\n"
        "void enc(const S& c) { put(c.a); put(c.b); }\n"
        "void dec(S& c) { take(c.a); }\n",
        "checkpoint-drift"), 1)
    expect("ckpt-ok", _run_on(
        "// analyze:checkpoint-state save=enc load=dec\n"
        "struct S {\n"
        "  int a = 0;\n"
        "  int cache = 0;  // ckpt-transient: rebuilt on load\n"
        "};\n"
        "void enc(const S& c) { put(c.a); }\n"
        "void dec(S& c) { take(c.a); }\n",
        "checkpoint-drift"), 0)
    expect("ckpt-missing-fn", _run_on(
        "// analyze:checkpoint-state save=enc load=dec\n"
        "struct S { int a = 0; };\n"
        "void enc(const S& c) { put(c.a); }\n",
        "checkpoint-drift"), 1)

    expect("capture-byref-write", _run_on(
        "void f() { int total = 0;\n"
        "  parallel_for(n, p, [&](std::int64_t i) { total += v[i]; });\n"
        "}", "parallel-capture"), 1)
    expect("capture-explicit-byref", _run_on(
        "void f() { int flag = 0;\n"
        "  parallel_for(n, p, [&flag, n](std::int64_t i) { flag = 1; });\n"
        "}", "parallel-capture"), 1)
    expect("capture-local-ok", _run_on(
        "void f() {\n"
        "  parallel_for(n, p, [&](std::int64_t i) {\n"
        "    double acc = 0.0; acc += v[i]; out[i] = acc; });\n"
        "}", "parallel-capture"), 0)
    expect("capture-indexed-ok", _run_on(
        "void f() {\n"
        "  parallel_for(n, p, [&](std::int64_t i) { out[i] = i; });\n"
        "}", "parallel-capture"), 0)
    expect("capture-ranges", _run_on(
        "void f() { double sum = 0;\n"
        "  parallel_for_ranges(n, p, [&](std::int64_t b, std::int64_t e) {\n"
        "    for (std::int64_t i = b; i < e; ++i) sum += v[i]; });\n"
        "}", "parallel-capture"), 1)
    expect("capture-annotated", _run_on(
        "void f() { double sum = 0;\n"
        "  parallel_region(p, [&](int tid, int nt) {\n"
        "    // omp-safe: single writer — tid 0 only\n"
        "    sum = 1.0; });\n"
        "}", "parallel-capture"), 0)
    expect("capture-fixed-index-write", _run_on(
        "void f() {\n"
        "  parallel_for(n, p, [&](std::int64_t i) { out[0] += v[i]; });\n"
        "}", "parallel-capture"), 1)
    expect("capture-atomic-pragma-ok", _run_on(
        "void f() { long total = 0;\n"
        "  parallel_for(n, p, [&](std::int64_t i) {\n"
        "    #pragma omp atomic\n"
        "    total += 1; });\n"
        "}", "parallel-capture"), 0)
    expect("capture-byval-ok", _run_on(
        "void f() { int k = 3;\n"
        "  parallel_for(n, p, [k, &out](std::int64_t i) { out[i] = k; });\n"
        "}", "parallel-capture"), 0)

    expect("mutex-unguarded", _run_on(
        "class C {\n"
        "  util::Mutex mu_;\n"
        "  int x_ = 0;\n"
        "};", "mutex-guards"), 1)
    expect("mutex-guarded-ok", _run_on(
        "class C {\n"
        "  util::Mutex mu_;\n"
        "  int x_ GUARDED_BY(mu_) = 0;\n"
        "};", "mutex-guards"), 0)
    expect("mutex-method-annotation-ok", _run_on(
        "class C {\n"
        "  void tick() EXCLUDES(mu_);\n"
        "  mutable util::Mutex mu_;\n"
        "};", "mutex-guards"), 0)
    expect("mutex-unguarded-annotated", _run_on(
        "class C {\n"
        "  util::Mutex mu_;  // unguarded-ok: handed to external waiters\n"
        "};", "mutex-guards"), 0)
    expect("mutex-class-def-ok", _run_on(
        "class Mutex { public: void lock(); };",
        "mutex-guards"), 0)

    if failures:
        for f in failures:
            print("SELF-TEST FAIL:", f)
        return 1
    print("analyze.py self-test OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
