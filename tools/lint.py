#!/usr/bin/env python3
"""Repo-specific lint rules clang-tidy cannot express.

Run from anywhere inside the repo:

    python3 tools/lint.py [paths...]

With no paths, lints every .hh/.cc under src/ (plus tests/, bench/ and
examples/ for the rules scoped to them).  Exit status is nonzero if any
rule fires, so CI gates on it directly.

Rules:

  header-guard   src/**/*.hh must open a guard named
                 GIPPR_<DIR>_<FILE>_HH_ (e.g. src/core/plru_tree.hh
                 guards GIPPR_CORE_PLRU_TREE_HH_) and close it with a
                 matching "#endif // <guard>" comment.

  determinism    rand()/srand()/time(nullptr) are banned outside
                 src/util/rng.* — all randomness flows through the
                 seeded Rng so experiments replay bit-identically.
                 Also banned: std::chrono::system_clock and
                 clock_gettime() (wall-clock reads that leak into
                 results; steady_clock is fine for durations), and
                 getenv() outside the allowlisted config-knob sites —
                 environment-derived values must never feed seeds or
                 results.  (src/telemetry/report.cc is allowlisted:
                 run timestamps are wall-clock by design and tests pin
                 them via setTimestamp.)

  no-cout        std::cout/std::cerr are banned in src/ — library code
                 reports through util/log.hh or returns data.
                 examples/ and bench/ are user-facing and exempt.

  doxygen-file   every src/**/*.{hh,cc} starts with a Doxygen comment
                 containing @file.

  no-bare-assert <cassert>'s assert() is banned in src/ — invariants
                 use GIPPR_CHECK/GIPPR_DCHECK (util/check.hh) so the
                 sanitizer CI jobs can force them on in NDEBUG builds.
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DETERMINISM_ALLOW = {
    "src/util/rng.hh",
    "src/util/rng.cc",
    "src/telemetry/report.cc",  # wall-clock run timestamps
}

# getenv is legal only at this audited config-knob site: it steers
# fault injection — never a seed, an ordering, or a reported result.
GETENV_ALLOW = {
    "src/robust/fault_inject.cc",   # GIPPR_FAULT_INJECT test hook
}

DETERMINISM_RE = re.compile(
    r"(?<![\w:])(?:rand|srand)\s*\(|time\s*\(\s*(?:nullptr|NULL|0)\s*\)")
WALLCLOCK_RE = re.compile(r"system_clock\b|\bclock_gettime\s*\(")
GETENV_RE = re.compile(r"\bgetenv\s*\(")
COUT_RE = re.compile(r"std::c(?:out|err)\b")
ASSERT_RE = re.compile(r"(?<![\w.])assert\s*\(")


# Fixture files (tests/lint_fixtures/) physically live outside src/;
# this directive makes them lint as if they were at the given path so
# the src-scoped rules apply.  Must appear in the first comment block.
AS_DIRECTIVE = re.compile(r"//\s*gippr-lint:\s*as=(\S+)")


def relative(path):
    return path.resolve().relative_to(REPO).as_posix()


def expected_guard(rel):
    # src/core/plru_tree.hh -> GIPPR_CORE_PLRU_TREE_HH_
    parts = pathlib.PurePosixPath(rel).parts[1:]  # drop "src"
    stem = "_".join(parts)
    stem = re.sub(r"\.hh$", "", stem)
    return "GIPPR_" + re.sub(r"[^A-Za-z0-9]", "_", stem).upper() + "_HH_"


def strip_comments(text):
    """Drop // and /* */ comments and string literals (keeps newlines)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c in "\"'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


class Linter:
    def __init__(self):
        self.errors = []

    def error(self, rel, line, rule, msg):
        self.errors.append(f"{rel}:{line}: [{rule}] {msg}")

    def lint(self, path):
        rel = relative(path)
        text = path.read_text()
        m = AS_DIRECTIVE.search(text)
        if m:
            rel = m.group(1)
        in_src = rel.startswith("src/")
        code = strip_comments(text)

        if in_src and rel.endswith(".hh"):
            self.check_guard(rel, text)
        if in_src:
            self.check_doxygen(rel, text)
            self.check_no_cout(rel, code)
            self.check_no_assert(rel, code)
        self.check_determinism(rel, code)

    def check_guard(self, rel, text):
        guard = expected_guard(rel)
        want = [f"#ifndef {guard}", f"#define {guard}"]
        lines = text.split("\n")
        directives = [l.strip() for l in lines
                      if l.strip().startswith(("#ifndef", "#define"))]
        if directives[:2] != want:
            self.error(rel, 1, "header-guard",
                       f"expected guard {guard}")
            return
        close = f"#endif // {guard}"
        tail = [l.strip() for l in lines if l.strip()]
        if not tail or tail[-1] != close:
            self.error(rel, len(lines), "header-guard",
                       f'file must end with "{close}"')

    def check_doxygen(self, rel, text):
        head = text[:400]
        if not (head.lstrip().startswith("/**") and "@file" in head):
            self.error(rel, 1, "doxygen-file",
                       "missing leading /** ... @file ... */ comment")

    def check_determinism(self, rel, code):
        if rel in DETERMINISM_ALLOW or not rel.startswith("src/"):
            return
        for m in DETERMINISM_RE.finditer(code):
            self.error(rel, line_of(code, m.start()), "determinism",
                       "rand()/time(nullptr) outside src/util/rng; "
                       "use the seeded Rng")
        for m in WALLCLOCK_RE.finditer(code):
            self.error(rel, line_of(code, m.start()), "determinism",
                       "wall-clock read (system_clock/clock_gettime) "
                       "leaks into results; use steady_clock for "
                       "durations or go through telemetry")
        if rel not in GETENV_ALLOW:
            for m in GETENV_RE.finditer(code):
                self.error(rel, line_of(code, m.start()),
                           "determinism",
                           "getenv() outside the audited config-knob "
                           "allowlist; environment values must not "
                           "feed seeds or results")

    def check_no_cout(self, rel, code):
        for m in COUT_RE.finditer(code):
            self.error(rel, line_of(code, m.start()), "no-cout",
                       "std::cout/cerr in library code; use util/log.hh")

    def check_no_assert(self, rel, code):
        for m in ASSERT_RE.finditer(code):
            self.error(rel, line_of(code, m.start()), "no-bare-assert",
                       "bare assert(); use GIPPR_CHECK/GIPPR_DCHECK")


def collect(args):
    if args:
        return [pathlib.Path(a) for a in args]
    files = []
    for top in ("src",):
        files.extend(sorted((REPO / top).rglob("*.hh")))
        files.extend(sorted((REPO / top).rglob("*.cc")))
    return files


def main(argv):
    linter = Linter()
    for path in collect(argv[1:]):
        linter.lint(path)
    for err in linter.errors:
        print(err)
    if linter.errors:
        print(f"lint: {len(linter.errors)} error(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
