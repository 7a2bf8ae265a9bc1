"""Lexical (libclang-free) fact extraction for schemex-analyze.

Works from the token stream of cxx_lexer.py plus a per-file declaration
table: every identifier declared with an unordered-container type (or a
`using`/`typedef` alias of one) in the file — members, locals, and
parameters alike — is recorded, and iteration facts fire when a
range-for's range expression or a begin()/cbegin() call chains through
one of those names. This is deliberately scope-blind (one namespace per
file): the repo's naming conventions make collisions between an
unordered member in one class and an ordered local elsewhere in the
same file vanishingly rare, and the cost of a rare false positive is
one explanatory annotation.

The libclang backend sees real types and scopes and is authoritative in
CI; this backend exists so the analyzer runs (and `ctest -L lint`
passes judgment) on machines without libclang, from the same rule layer
and the same fixtures.
"""

from __future__ import annotations

from typing import List, Set

import cxx_lexer
from cxx_lexer import IDENT, PUNCT, Token, lex, match_paren
import facts

UNORDERED_TYPES = ("unordered_map", "unordered_set", "unordered_multimap",
                   "unordered_multiset")

VIEW_TYPE_IDENTS = ("GraphView",)
# string_view via any alias (std::string_view, wstring_view, ...);
# span only as a template id (`span<`), so a variable named span is not
# a view type.
RNG_ENGINES = ("mt19937", "mt19937_64", "minstd_rand", "minstd_rand0",
               "default_random_engine", "ranlux24", "ranlux48", "knuth_b")

CHAIN_PUNCT = ("::", ".", "->")


def _collect_unordered_names(tokens: List[Token]) -> Set[str]:
    """Identifiers declared (anywhere in the file) with an unordered
    container type, plus alias names for such types."""
    names: Set[str] = set()
    aliases: Set[str] = set()

    # Pass 1: `using X = ...unordered_map<...>...;` / `typedef ... X;`
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == IDENT and t.text == "using" and i + 2 < len(tokens):
            if (tokens[i + 1].kind == IDENT and tokens[i + 2].text == "="):
                j = i + 3
                rhs: List[str] = []
                while j < len(tokens) and tokens[j].text != ";":
                    rhs.append(tokens[j].text)
                    j += 1
                if any(u in rhs for u in UNORDERED_TYPES) or \
                        any(a in rhs for a in aliases):
                    aliases.add(tokens[i + 1].text)
                i = j
                continue
        if t.kind == IDENT and t.text == "typedef":
            j = i + 1
            body: List[Token] = []
            while j < len(tokens) and tokens[j].text != ";":
                body.append(tokens[j])
                j += 1
            if body and body[-1].kind == IDENT and (
                    any(b.text in UNORDERED_TYPES for b in body[:-1]) or
                    any(b.text in aliases for b in body[:-1])):
                aliases.add(body[-1].text)
            i = j
            continue
        i += 1

    # Pass 2: declarations `unordered_map<...> [&*]name {;,=({)}`.
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == IDENT and (t.text in UNORDERED_TYPES or
                                t.text in aliases):
            j = i + 1
            if j < len(tokens) and tokens[j].text == "<":
                depth = 0
                while j < len(tokens):
                    if tokens[j].text == "<":
                        depth += 1
                    elif tokens[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    j += 1
            while j < len(tokens) and tokens[j].text in ("&", "*", "const"):
                j += 1
            if (j + 1 < len(tokens) and tokens[j].kind == IDENT and
                    tokens[j + 1].text in (";", "=", ",", ")", "{", "(")):
                names.add(tokens[j].text)
            i = j
            continue
        i += 1
    return names | aliases


def _chain_idents(tokens: List[Token], start: int, end: int) -> List[str]:
    """Identifiers of the leading member/scope chain of tokens
    [start, end): idents joined by :: . -> (stops at anything else)."""
    out: List[str] = []
    expect_ident = True
    for i in range(start, end):
        t = tokens[i]
        if expect_ident:
            if t.kind != IDENT:
                break
            out.append(t.text)
            expect_ident = False
        else:
            if t.kind == PUNCT and t.text in CHAIN_PUNCT:
                expect_ident = True
            else:
                break
    return out


def _render(tokens: List[Token], start: int, end: int, limit: int = 40) -> str:
    s = " ".join(t.text for t in tokens[start:end])
    s = s.replace(" :: ", "::").replace(" . ", ".").replace(" -> ", "->")
    return s[:limit]


def _range_for_facts(tokens, unordered, out: List[facts.UnorderedIter]):
    for i, t in enumerate(tokens):
        if not (t.kind == IDENT and t.text == "for"):
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        # Find the range-for ':' at depth 1 of this paren group.
        depth = 0
        colon = -1
        for j in range(i + 1, close):
            tj = tokens[j]
            if tj.kind == PUNCT:
                if tj.text in "([{":
                    depth += 1
                elif tj.text in ")]}":
                    depth -= 1
                elif tj.text == ":" and depth == 1:
                    colon = j
                    break
                elif tj.text == ";" and depth == 1:
                    break  # classic for loop
        if colon == -1:
            continue
        chain = _chain_idents(tokens, colon + 1, close)
        if any(name in unordered for name in chain):
            out.append(facts.UnorderedIter(
                tokens[colon + 1].line, _render(tokens, colon + 1, close),
                "range-for"))


def _begin_facts(tokens, unordered, out: List[facts.UnorderedIter]):
    for i, t in enumerate(tokens):
        if not (t.kind == IDENT and t.text in ("begin", "cbegin")):
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        if i == 0 or tokens[i - 1].text not in (".", "->"):
            continue
        # Walk the chain backwards: ident ((:: | . | ->) ident)* . begin
        j = i - 1
        chain: List[str] = []
        while j > 0:
            if tokens[j].kind == PUNCT and tokens[j].text in CHAIN_PUNCT \
                    and tokens[j - 1].kind == IDENT:
                chain.append(tokens[j - 1].text)
                j -= 2
            else:
                break
        if any(name in unordered for name in chain):
            out.append(facts.UnorderedIter(
                t.line, _render(tokens, max(j, 0), i + 1), "begin"))


def _sort_facts(tokens, out: List[facts.SortCall]):
    for i, t in enumerate(tokens):
        if not (t.kind == IDENT and t.text in ("sort", "stable_sort")):
            continue
        if i < 2 or tokens[i - 1].text != "::" or tokens[i - 2].text != "std":
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        depth = 0
        commas = 0
        empty = close == i + 2
        for j in range(i + 1, close):
            tj = tokens[j]
            if tj.kind == PUNCT:
                if tj.text in "([{":
                    depth += 1
                elif tj.text in ")]}":
                    depth -= 1
                elif tj.text == "," and depth == 1:
                    commas += 1
        out.append(facts.SortCall(t.line, t.text, 0 if empty else commas + 1))


def _is_view_type_statement(stmt: List[Token]) -> bool:
    for k, t in enumerate(stmt):
        if t.kind != IDENT:
            continue
        if t.text in VIEW_TYPE_IDENTS:
            return True
        if t.text.endswith("string_view"):
            return True
        if t.text == "span" and k + 1 < len(stmt) and stmt[k + 1].text == "<":
            return True
    return False


def _block_kind(stmt: List[Token]) -> str:
    """Classifies the statement a '{' terminates: what kind of block
    opens? Function-ish statements (any paren group — signatures,
    constructor init lists, if/for/while headers) are "function";
    class/struct/union heads (unless `enum class`) are "class";
    namespaces are transparent."""
    if any(t.kind == PUNCT and t.text == "(" for t in stmt):
        return "function"
    words = [t.text for t in stmt if t.kind == IDENT]
    if "namespace" in words or "extern" in words:
        return "namespace"
    for k, w in enumerate(words):
        if w in ("class", "struct", "union"):
            if k > 0 and words[k - 1] == "enum":
                return "other"
            return "class"
    return "other"


def _member_facts(tokens, out: List[facts.ViewMember]):
    """Walks class/struct bodies; flags data-member declarations whose
    type mentions a view type. Namespaces are transparent, function
    bodies recurse (for classes defined inside functions), and paren/
    bracket groups are consumed wholesale so a signature's ';'-free
    commas and nested semicolons never split a statement."""

    def scan(i: int, end: int, in_class: bool) -> None:
        cur: List[Token] = []
        while i < end:
            t = tokens[i]
            if t.kind == PUNCT and t.text in ("(", "["):
                close = match_paren(tokens, i)
                cur.extend(tokens[i:close + 1])
                i = close + 1
                continue
            if t.kind == PUNCT and t.text == "{":
                close = match_paren(tokens, i)
                kind = _block_kind(cur)
                if kind == "class":
                    scan(i + 1, close, True)
                    cur = []
                elif kind == "namespace":
                    scan(i + 1, close, False)
                    cur = []
                elif in_class and cur and kind == "other":
                    # Brace initializer of a member (`string_view v{};`):
                    # keep the statement, skip the initializer tokens.
                    i = close + 1
                    continue
                else:
                    scan(i + 1, close, False)
                    cur = []
                i = close + 1
                continue
            if t.kind == PUNCT and t.text == ";":
                if in_class:
                    _classify_member(cur, out)
                cur = []
                i += 1
                continue
            cur.append(t)
            i += 1
        if in_class and cur:
            _classify_member(cur, out)

    scan(0, len(tokens), False)


ACCESS_SPECIFIERS = ("public", "private", "protected")

NON_MEMBER_LEADS = ("using", "typedef", "friend", "static_assert",
                    "template", "operator", "enum", "return", "class",
                    "struct", "union")


def _classify_member(stmt: List[Token], out: List[facts.ViewMember]) -> None:
    # Strip access-specifier labels (`public:`) fused into the statement.
    while len(stmt) >= 2 and stmt[0].kind == IDENT \
            and stmt[0].text in ACCESS_SPECIFIERS \
            and stmt[1].kind == PUNCT and stmt[1].text == ":":
        stmt = stmt[2:]
    if not stmt:
        return
    words = [t.text for t in stmt if t.kind == IDENT]
    if not words or words[0] in NON_MEMBER_LEADS:
        return
    if "operator" in words:
        return
    # `static constexpr std::string_view kFoo = "...";` points at a
    # string literal with static storage duration — owning in effect.
    if "static" in words or "constexpr" in words:
        return
    if any(t.kind == PUNCT and t.text == "(" for t in stmt):
        return  # function declaration (nested groups were consumed whole)
    if not _is_view_type_statement(stmt):
        return
    # Member name: last identifier before '=' (or the end).
    name = ""
    for t in stmt:
        if t.kind == PUNCT and t.text == "=":
            break
        if t.kind == IDENT:
            name = t.text
    if not name or name in VIEW_TYPE_IDENTS or name.endswith("string_view") \
            or name == "span":
        return  # a bare type mention, not a declaration
    out.append(facts.ViewMember(stmt[0].line, name,
                                _render(stmt, 0, len(stmt), limit=60)))


def _submit_capture_facts(tokens, out: List[facts.RefCapturePool]):
    for i, t in enumerate(tokens):
        if not (t.kind == IDENT and t.text == "Submit"):
            continue
        if i == 0 or tokens[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(tokens) or tokens[i + 1].text != "(":
            continue
        close = match_paren(tokens, i + 1)
        j = i + 2
        while j < close:
            tj = tokens[j]
            if tj.kind == PUNCT and tj.text == "[":
                intro_close = match_paren(tokens, j)
                intro = tokens[j:intro_close]
                if any(x.kind == PUNCT and x.text == "&" for x in intro):
                    base = tokens[i - 2].text if i >= 2 else "?"
                    out.append(facts.RefCapturePool(
                        tj.line, f"{base}{tokens[i - 1].text}Submit"))
                j = intro_close + 1
                continue
            if tj.kind == PUNCT and tj.text in ("(", "{"):
                j = match_paren(tokens, j) + 1
                continue
            j += 1


def _random_facts(tokens, out: List[facts.RandomSeed]):
    for i, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
        if t.text == "random_device":
            out.append(facts.RandomSeed(t.line, "std::random_device"))
        elif t.text == "srand" and nxt == "(":
            out.append(facts.RandomSeed(t.line, "srand()"))
        elif t.text == "rand" and nxt == "(" and i > 0 \
                and tokens[i - 1].text not in (".", "->"):
            out.append(facts.RandomSeed(t.line, "rand()"))
        elif t.text in RNG_ENGINES:
            # engine name [ident] ( args )  or  { args } — clock-seeded?
            j = i + 1
            if j < len(tokens) and tokens[j].kind == IDENT:
                j += 1
            if j < len(tokens) and tokens[j].text in ("(", "{"):
                close = match_paren(tokens, j)
                for k in range(j + 1, close):
                    tk = tokens[k]
                    if tk.kind == IDENT and tk.text in ("time", "now", "clock") \
                            and k + 1 < len(tokens) \
                            and tokens[k + 1].text == "(":
                        out.append(facts.RandomSeed(
                            tk.line, f"{t.text} seeded from {tk.text}()"))
                        break


def extract_facts(text: str):
    """All facts for one file's source text."""
    tokens, _comments = lex(text)
    unordered = _collect_unordered_names(tokens)
    out: list = []
    _range_for_facts(tokens, unordered, out)
    _begin_facts(tokens, unordered, out)
    _sort_facts(tokens, out)
    _member_facts(tokens, out)
    _submit_capture_facts(tokens, out)
    _random_facts(tokens, out)
    return out
