#!/usr/bin/env python3
"""Fail when simulator sources use a nondeterministic randomness or clock source.

    python3 tools/lint_determinism.py [ROOT]

Every result must reproduce bit for bit from (config, seed), so src/ may
draw randomness only from its seeded Rng (src/common/rng.h) and may read
wall clocks only through std::chrono::steady_clock for observability. This
scans every C++ file under ROOT/src (default: the repository root) and
reports each use of:

  rand( / srand(              the C library's global generator
  time(NULL|nullptr|0)        wall-clock seeding, e.g. srand(time(NULL))
  std::random_device          hardware entropy
  system_clock                wall-clock time

Comments and string literals are blanked before matching, and every pattern
is anchored on word boundaries, so prose such as "a time (" or a member
called operand( does not fire. Exit 0 when clean, 1 with one
"path:line: message" per finding otherwise. Only the Python standard
library is used.
"""

import os
import re
import sys

PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "C library rand()/srand()"),
    (re.compile(r"\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(NULL) wall-clock seed"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
]

SOURCE_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")


def blank_comments_and_strings(text):
    """Replace comments and string/char literals with spaces, keeping newlines
    so line numbers survive."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(" " * (j - i))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lint_file(path):
    with open(path, encoding="utf-8") as f:
        code = blank_comments_and_strings(f.read())
    findings = []
    for lineno, line in enumerate(code.split("\n"), start=1):
        for pattern, what in PATTERNS:
            if pattern.search(line):
                findings.append(f"{path}:{lineno}: {what}")
    return findings


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        sys.exit(f"error: no src/ under {root}")
    findings = []
    for dirpath, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTENSIONS):
                findings += lint_file(os.path.join(dirpath, name))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} nondeterministic use(s) in src/; draw "
              "randomness from the seeded Rng (src/common/rng.h)",
              file=sys.stderr)
        return 1
    print("src/ is free of nondeterministic randomness and clock sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
