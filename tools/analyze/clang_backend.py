"""libclang (clang.cindex) fact extraction for schemex-analyze.

The authoritative backend: real types and scopes, so alias-obscured
unordered containers, members of template instantiations, and
`auto`-deduced range expressions resolve through canonical types
instead of token shapes. CI pins the `libclang` wheel and runs this
backend with --require-clang; machines without it fall back to
lex_backend (same rule layer, same fixtures).

Parsing is per-file with the repo's include roots and -std=c++20.
Missing system/third-party headers are tolerated — libclang keeps
going, and every fact this backend extracts is local to the file's own
AST nodes (we never chase into included files: findings for a header
come from analyzing that header directly).

The unseeded-randomness facts are token-level in both backends (an AST
adds nothing over spotting `std::random_device`), so this backend
reuses lex_backend's scanner for them — one implementation, identical
behavior.
"""

from __future__ import annotations

import os
import re
from typing import List, Optional, Tuple

import facts
import lex_backend

_IMPORT_ERROR: Optional[str] = None
try:
    from clang import cindex  # type: ignore
except Exception as e:  # ModuleNotFoundError and binding-load errors
    cindex = None  # type: ignore
    _IMPORT_ERROR = str(e)

_INDEX = None


def available() -> Tuple[bool, str]:
    """(usable, reason). Probes the binding *and* the native library."""
    global _INDEX
    if cindex is None:
        return False, f"python clang bindings unavailable: {_IMPORT_ERROR}"
    if _INDEX is not None:
        return True, "ok"
    try:
        lib = os.environ.get("SCHEMEX_LIBCLANG")
        if lib:
            cindex.Config.set_library_file(lib)
        _INDEX = cindex.Index.create()
        return True, "ok"
    except Exception as e:
        return False, f"libclang not loadable: {e}"


_UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\s*<")
_VIEW_TYPE_RE = re.compile(
    r"\b(?:basic_)?string_view\b|\bspan\s*<|\bGraphView\b")


def _type_spellings(t) -> str:
    try:
        return t.spelling + " | " + t.get_canonical().spelling
    except Exception:
        return t.spelling


def _is_unordered(t) -> bool:
    return bool(_UNORDERED_RE.search(_type_spellings(t)))


def _lambda_has_ref_capture(cursor) -> bool:
    """Inspects the capture-intro tokens `[...]` of a LAMBDA_EXPR."""
    depth = 0
    for tok in cursor.get_tokens():
        s = tok.spelling
        if s == "[":
            depth += 1
        elif s == "]":
            return False
        elif depth >= 1 and s in ("&", "&&"):
            return True
        elif depth >= 1 and s == "(":  # intro ended without ']'? defensive
            return False
    return False


def _walk(cursor, path: str, out: List) -> None:
    K = cindex.CursorKind
    for c in cursor.get_children():
        loc_file = c.location.file
        if loc_file is not None and os.path.realpath(loc_file.name) != path:
            continue  # a different file's subtree (includes)

        if c.kind == K.CXX_FOR_RANGE_STMT:
            # Children: [loop var decl, range-init expr, body...] in
            # libclang's flattened view; the range expression is the
            # first expression child.
            for ch in c.get_children():
                if ch.kind.is_expression():
                    if _is_unordered(ch.type):
                        expr = " ".join(
                            t.spelling for t in ch.get_tokens())[:40]
                        out.append(facts.UnorderedIter(
                            ch.location.line, expr or "<range expr>",
                            "range-for"))
                    break
        elif c.kind == K.CALL_EXPR and c.spelling in ("begin", "cbegin"):
            children = list(c.get_children())
            if children and children[0].kind == K.MEMBER_REF_EXPR:
                base = list(children[0].get_children())
                if base and _is_unordered(base[0].type):
                    expr = " ".join(
                        t.spelling for t in children[0].get_tokens())[:40]
                    out.append(facts.UnorderedIter(
                        c.location.line, expr or "<begin call>", "begin"))
        elif c.kind == K.CALL_EXPR and c.spelling in ("sort", "stable_sort"):
            ref = c.referenced
            qual = ""
            if ref is not None and ref.semantic_parent is not None:
                qual = ref.semantic_parent.spelling
            if qual == "std" or qual.startswith("__"):  # libstdc++ inline ns
                nargs = len(list(c.get_arguments()))
                out.append(facts.SortCall(c.location.line, c.spelling, nargs))
        elif c.kind == K.FIELD_DECL:
            if _VIEW_TYPE_RE.search(_type_spellings(c.type)):
                is_static_constexpr = any(
                    t.spelling in ("static", "constexpr")
                    for t in c.get_tokens())
                if not is_static_constexpr:
                    out.append(facts.ViewMember(
                        c.location.line, c.spelling,
                        c.type.spelling[:60]))
        elif c.kind == K.CALL_EXPR and c.spelling == "Submit":
            for arg in c.get_arguments():
                a = arg
                # Unwrap implicit casts/temporaries around the lambda.
                while a is not None and a.kind != K.LAMBDA_EXPR:
                    kids = list(a.get_children())
                    a = kids[0] if len(kids) == 1 else None
                if a is not None and a.kind == K.LAMBDA_EXPR \
                        and _lambda_has_ref_capture(a):
                    out.append(facts.RefCapturePool(
                        a.location.line, "Submit"))

        _walk(c, path, out)


def extract_facts(path: str, root: str) -> List:
    """All facts for one file, parsed in the repo's include context."""
    ok, why = available()
    if not ok:
        raise RuntimeError(why)
    args = ["-x", "c++", "-std=c++20",
            "-I", os.path.join(root, "src"), "-I", root,
            "-ferror-limit=0", "-Wno-everything"]
    tu = _INDEX.parse(path, args=args)
    out: List = []
    _walk(tu.cursor, os.path.realpath(path), out)
    # Randomness facts are token-level in both backends (see module doc).
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    out.extend(f for f in lex_backend.extract_facts(text)
               if isinstance(f, facts.RandomSeed))
    return out
