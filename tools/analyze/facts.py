"""Fact model shared by schemex-analyze's backends.

A backend (libclang or lexical) reduces a source file to a flat list of
*facts* — syntactic events the rules care about. The rules in rules.py
then decide which facts are findings, applying directory scopes and the
annotation grammar. Keeping the fact vocabulary tiny and backend-
independent is what guarantees the two backends agree: they may differ
in *how* they recognize an unordered-container walk, but they report it
through the same fact, and a fixture suite runs every available backend
against the same expected finding set.
"""

from __future__ import annotations

from typing import NamedTuple


class Finding(NamedTuple):
    path: str   # repo-relative, forward slashes
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class UnorderedIter(NamedTuple):
    """An iteration-order-dependent walk over std::unordered_map/set:
    either a range-for whose range expression is (or chains through) an
    unordered container, or a begin()/cbegin() call on one."""
    line: int
    expr: str   # source-ish rendering of the container expression
    how: str    # "range-for" | "begin"


class SortCall(NamedTuple):
    """A call to std::sort / std::stable_sort. nargs counts top-level
    arguments: 3 or more means a custom comparator was supplied."""
    line: int
    fn: str     # "sort" | "stable_sort"
    nargs: int


class ViewMember(NamedTuple):
    """A class/struct data member whose type is (or contains) a
    non-owning view: GraphView, std::string_view, std::span —
    including containers of them."""
    line: int
    member: str
    type_spelling: str


class RefCapturePool(NamedTuple):
    """A lambda with a by-reference capture passed to ThreadPool::Submit.
    Submitted work can outlive the submitting frame; every referenced
    object needs a named keep-alive."""
    line: int
    callee: str  # e.g. "pool->Submit"


class RandomSeed(NamedTuple):
    """A nondeterminism-injecting randomness source: std::random_device,
    srand()/rand(), or an engine seeded from a clock."""
    line: int
    what: str
