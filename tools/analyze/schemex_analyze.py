#!/usr/bin/env python3
"""schemex-analyze: AST-level determinism & view-lifetime analysis.

Project-specific rules the regex lint (tools/lint.py) cannot express —
they need types, scopes, and call structure:

  nondeterministic-iteration   unordered_map/set walks in the
                               determinism-critical stages
  unstable-sort-on-ties        std::sort + custom comparator there
  view-escape                  GraphView / string_view / span stored
                               in members, or by-ref lambda captures
                               into the pool
  unseeded-randomness          random_device / srand / clock-seeded
                               engines in src/, tools/, bench/

See rules.py (and docs/static-analysis.md) for the rationale, the
`// DETERMINISM:` / `// OWNER:` annotation grammar, and the
zero-suppression budget for src/.

Backends: `clang` (libclang via clang.cindex — authoritative, used in
CI) and `lexical` (dependency-free token analysis — same rule layer,
for machines without libclang). `--backend auto` picks clang when
loadable. Exit codes match lint.py: 0 clean, 1 findings, 2 usage or
--require-clang unsatisfied.

Usage:
  schemex_analyze.py [--root DIR] [--backend auto|clang|lexical]
                     [--require-clang] [FILE...]
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import facts    # noqa: E402
import rules    # noqa: E402
import lex_backend  # noqa: E402
import clang_backend  # noqa: E402

ANALYZE_DIRS = ("src", "tools", "bench")
CXX_EXTENSIONS = (".h", ".cc", ".cpp", ".hpp")
SKIP_DIR_NAMES = ("lint_fixtures", "fixtures", "analyze")


def iter_repo_files(root: str) -> Iterable[str]:
    for top in ANALYZE_DIRS:
        base = os.path.join(root, top)
        for dirpath, dirnames, files in os.walk(base):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIR_NAMES]
            for f in sorted(files):
                if f.endswith(CXX_EXTENSIONS):
                    yield os.path.join(dirpath, f)


def analyze_file(path: str, rel: str, backend: str,
                 root: str) -> List[facts.Finding]:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            text = fh.read()
    except OSError as e:
        return [facts.Finding(rel, 0, "io", f"cannot read: {e}")]
    lines = text.splitlines()
    if backend == "clang":
        file_facts = clang_backend.extract_facts(path, root)
    else:
        file_facts = lex_backend.extract_facts(text)
    return rules.apply_rules(rel, file_facts, lines)


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    ap.add_argument("--backend", choices=("auto", "clang", "lexical"),
                    default=os.environ.get("SCHEMEX_ANALYZE_BACKEND", "auto"))
    ap.add_argument("--require-clang", action="store_true",
                    help="fail (exit 2) if the libclang backend is "
                         "unavailable instead of falling back")
    ap.add_argument("files", nargs="*",
                    help="specific files (default: src/ tools/ bench/)")
    args = ap.parse_args(argv)

    clang_ok, clang_why = clang_backend.available()
    backend = args.backend
    if backend == "auto":
        backend = "clang" if clang_ok else "lexical"
    if backend == "clang" and not clang_ok:
        print(f"schemex-analyze: clang backend unavailable: {clang_why}",
              file=sys.stderr)
        return 2
    if args.require_clang and backend != "clang":
        print("schemex-analyze: --require-clang but backend is "
              f"{backend} ({clang_why})", file=sys.stderr)
        return 2
    if backend == "lexical" and args.backend == "auto":
        print(f"schemex-analyze: note: using lexical backend ({clang_why})",
              file=sys.stderr)

    root = os.path.abspath(args.root)
    paths = [os.path.abspath(p) for p in args.files] \
        or list(iter_repo_files(root))
    findings: List[facts.Finding] = []
    for path in paths:
        try:
            rel = os.path.relpath(path, root)
        except ValueError:
            rel = path
        findings.extend(analyze_file(path, rel, backend, root))

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for f in findings:
        print(f)
    if findings:
        print(f"schemex-analyze [{backend}]: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"schemex-analyze [{backend}]: clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
