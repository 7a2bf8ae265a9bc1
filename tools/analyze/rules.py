"""Rule layer of schemex-analyze: facts -> findings.

Backends hand this module a per-file fact list (facts.py); the rules
here apply directory scopes, the annotation grammar, and the
suppression policy, and emit Findings in lint.py's exact output format.
Keeping policy out of the backends is what makes the libclang and
lexical backends interchangeable.

## Rules

nondeterministic-iteration
    A range-for (or begin()/cbegin() walk) over std::unordered_map /
    std::unordered_set in the determinism-critical directories
    (src/typing, src/cluster, src/extract, src/graph). Iteration order
    of unordered containers is implementation- and seed-dependent, and
    PRs 5/7 guarantee bit-identical extraction at any thread count —
    an unordered walk feeding a reduce, an output, or a hash breaks
    that probabilistically. Fix: iterate a sorted copy / sorted index,
    or annotate `// DETERMINISM: <why the order cannot escape>`.

unstable-sort-on-ties
    std::sort with a custom comparator in the same directories. If the
    comparator's key is not unique, element order on ties is
    unspecified (and differs across standard libraries), which breaks
    the (cost, dest-rank) merge ladders and canonical serializations.
    Fix: make the comparator a total order (unique tie-break), use
    std::stable_sort, or annotate `// DETERMINISM: <total-order
    argument>`.

view-escape
    A non-owning type (GraphView, std::string_view, std::span —
    including containers of them) stored as a class member, or a
    by-reference lambda capture handed to ThreadPool::Submit. Views
    outliving their backing storage are the use-after-free class the
    mmap'd-snapshot work (PR 6) made easy to write. Fix: own the data,
    or annotate `// OWNER: <field>` naming the keep-alive whose
    lifetime covers the view.

unseeded-randomness
    std::random_device, srand()/rand(), or a random engine seeded from
    a clock, in src/, tools/, or bench/. Nondeterministic seeds make
    failures unreproducible and break run-to-run identity. Fix: a
    fixed seed (tests/benches) or a seed threaded through options, or
    annotate `// DETERMINISM: <why nondeterminism is wanted>`.

## Annotation grammar

`// DETERMINISM: <non-empty reason>` and `// OWNER: <field>[ — reason]`
suppress a finding when placed on the finding's line or in the block of
comment-only lines immediately above it. `// ANALYZE-SKIP(<rule>)` is
the blunt escape hatch: honored outside src/, and itself a finding
inside src/ (the suppression budget for src/ is zero, matching
tools/lint.py's no-suppression rule).
"""

from __future__ import annotations

import os
import re
from typing import Iterable, List

import facts

DETERMINISM_DIRS = ("src/typing", "src/cluster", "src/extract", "src/graph")
VIEW_DIRS = ("src", "tools")
RANDOM_DIRS = ("src", "tools", "bench")

DETERMINISM_RE = re.compile(r"//.*\bDETERMINISM:\s*\S")
OWNER_RE = re.compile(r"//.*\bOWNER:\s*\S")
SKIP_RE = re.compile(r"//\s*ANALYZE-SKIP\(([a-z-]+)\)")
COMMENT_ONLY_RE = re.compile(r"^\s*(//|/\*|\*|\*/)")

RULE_NONDET_ITER = "nondeterministic-iteration"
RULE_SORT_TIES = "unstable-sort-on-ties"
RULE_VIEW_ESCAPE = "view-escape"
RULE_RANDOMNESS = "unseeded-randomness"
RULE_NO_SUPPRESSION = "no-suppression"

ALL_RULES = (RULE_NONDET_ITER, RULE_SORT_TIES, RULE_VIEW_ESCAPE,
             RULE_RANDOMNESS)


def _in_dirs(rel: str, dirs: Iterable[str]) -> bool:
    rel = rel.replace(os.sep, "/")
    return any(rel == d or rel.startswith(d + "/") for d in dirs)


def _annotated(lines: List[str], lineno: int, regex: re.Pattern) -> bool:
    """True if `regex` matches the finding's line or any line of the
    contiguous comment-only block immediately above it."""
    if 1 <= lineno <= len(lines) and regex.search(lines[lineno - 1]):
        return True
    ln = lineno - 1
    while ln >= 1 and COMMENT_ONLY_RE.match(lines[ln - 1]):
        if regex.search(lines[ln - 1]):
            return True
        ln -= 1
    return False


def _skipped(lines: List[str], lineno: int, rule: str, rel: str) -> bool:
    """ANALYZE-SKIP(<rule>) on the line or the comment block above —
    only honored outside src/ (inside, the token itself is flagged by
    check_suppressions)."""
    if _in_dirs(rel, ("src",)):
        return False

    def matches(line: str) -> bool:
        m = SKIP_RE.search(line)
        return bool(m) and m.group(1) == rule

    if 1 <= lineno <= len(lines) and matches(lines[lineno - 1]):
        return True
    ln = lineno - 1
    while ln >= 1 and COMMENT_ONLY_RE.match(lines[ln - 1]):
        if matches(lines[ln - 1]):
            return True
        ln -= 1
    return False


def check_suppressions(rel: str, lines: List[str]) -> List[facts.Finding]:
    """ANALYZE-SKIP anywhere under src/ is itself a finding."""
    out: List[facts.Finding] = []
    if not _in_dirs(rel, ("src",)):
        return out
    for ln, line in enumerate(lines, start=1):
        if SKIP_RE.search(line):
            out.append(facts.Finding(
                rel, ln, RULE_NO_SUPPRESSION,
                "ANALYZE-SKIP in src/ (suppression budget is zero; fix "
                "the code or use the semantic DETERMINISM:/OWNER: "
                "annotations with a real justification)"))
    return out


def apply_rules(rel: str, file_facts: list,
                lines: List[str]) -> List[facts.Finding]:
    rel = rel.replace(os.sep, "/")
    out: List[facts.Finding] = []

    def emit(line: int, rule: str, message: str, ann: re.Pattern) -> None:
        if _annotated(lines, line, ann):
            return
        if _skipped(lines, line, rule, rel):
            return
        out.append(facts.Finding(rel, line, rule, message))

    for f in file_facts:
        if isinstance(f, facts.UnorderedIter):
            if not _in_dirs(rel, DETERMINISM_DIRS):
                continue
            how = ("range-for over" if f.how == "range-for"
                   else "iterator walk (begin()) over")
            emit(f.line, RULE_NONDET_ITER,
                 f"{how} unordered container `{f.expr}`: iteration order "
                 "is unspecified and must not reach an output, hash, or "
                 "reduce; iterate a sorted view or annotate "
                 "// DETERMINISM: <why>", DETERMINISM_RE)
        elif isinstance(f, facts.SortCall):
            if not _in_dirs(rel, DETERMINISM_DIRS):
                continue
            if f.fn != "sort" or f.nargs < 3:
                continue  # stable_sort / default operator< are tie-safe
            emit(f.line, RULE_SORT_TIES,
                 "std::sort with a custom comparator: element order on "
                 "comparator ties is unspecified; make the comparator a "
                 "total order (unique tie-break), use std::stable_sort, "
                 "or annotate // DETERMINISM: <total-order argument>",
                 DETERMINISM_RE)
        elif isinstance(f, facts.ViewMember):
            if not _in_dirs(rel, VIEW_DIRS):
                continue
            emit(f.line, RULE_VIEW_ESCAPE,
                 f"non-owning view stored in member `{f.member}` "
                 f"({f.type_spelling}): annotate // OWNER: <field> naming "
                 "the keep-alive that outlives it, or own the data",
                 OWNER_RE)
        elif isinstance(f, facts.RefCapturePool):
            if not _in_dirs(rel, VIEW_DIRS):
                continue
            emit(f.line, RULE_VIEW_ESCAPE,
                 f"by-reference lambda capture passed to {f.callee}(): "
                 "submitted work can outlive the submitting frame; "
                 "capture by value / shared_ptr, or annotate "
                 "// OWNER: <what joins before the referents die>",
                 OWNER_RE)
        elif isinstance(f, facts.RandomSeed):
            if not _in_dirs(rel, RANDOM_DIRS):
                continue
            emit(f.line, RULE_RANDOMNESS,
                 f"nondeterministic randomness source ({f.what}): seed "
                 "explicitly (fixed or options-threaded) so runs are "
                 "reproducible, or annotate // DETERMINISM: <why>",
                 DETERMINISM_RE)

    out.extend(check_suppressions(rel, lines))
    # Dedup (two backends or overlapping facts can double-report).
    seen = set()
    uniq: List[facts.Finding] = []
    for f in sorted(out, key=lambda x: (x.path, x.line, x.rule)):
        key = (f.path, f.line, f.rule)
        if key not in seen:
            seen.add(key)
            uniq.append(f)
    return uniq
