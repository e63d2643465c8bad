#!/usr/bin/env python3
"""Braidio repo-specific linter: rules clang-tidy cannot express.

Run from anywhere inside the repo:

    python3 tools/lint.py                    # lint the whole tree
    python3 tools/lint.py --paths a.cpp ...  # incremental: only these
    python3 tools/lint.py --list             # show the rules and exit

Incremental mode (`--paths`) runs the per-file rules (R1/R2/R4/R5/R6)
on exactly the files given — the pre-commit / editor-save loop. The
whole-tree R3 test-registration rule only runs in full mode.

Rules
-----
R1 no-global-rng      Stochastic code must take an explicit
                      braidio::util::Rng (or a seed) so experiments replay
                      bit-for-bit. rand()/srand()/random()/drand48(),
                      std::random_device, std::default_random_engine, raw
                      std::mt19937, the std::*_distribution classes and
                      std::generate_canonical outside util/rng are
                      forbidden: the distributions' algorithms are
                      implementation-defined, so every draw through them
                      ties a seeded result to one standard library.
R2 no-naked-stdout    Library code (src/) never prints directly; all output
                      goes through util/log (or is returned to the caller).
                      printf/fprintf/puts/std::cout|cerr are forbidden in
                      src/ outside util/log.cpp and util/contract.cpp (the
                      contract failure path must not depend on the logger).
R3 test-registration  Every .cpp in src/ must be covered by a test that is
                      registered in tests/CMakeLists.txt: some registered
                      test file #includes the module header matching the
                      source file.
R4 line-hygiene       No tabs, no trailing whitespace, 80-column limit in
                      C++ sources (matches .clang-format).
R5 no-stray-threads   src/sim/ (the sweep engine) is the only place allowed
                      to spawn threads. std::thread/std::jthread
                      construction, std::async, and pthread_create are
                      forbidden everywhere else; benches and tests
                      parallelize through sim::SweepRunner / sim::ThreadPool
                      so determinism and TSan coverage stay centralized.
                      (Non-spawning statics like std::thread::id and
                      std::this_thread are fine.)
R6 events-not-logs    Simulator state changes are trace events, not log
                      lines: library code (src/, outside src/util and
                      src/obs) must not emit informational logging
                      (BRAIDIO_LOG_TRACE/DEBUG/INFO or BRAIDIO_LOG(...)
                      below Warn) — post a typed event through
                      obs::Tracer / BRAIDIO_TRACE_EVENT instead, so the
                      information lands in the machine-readable timeline.
                      Warn/Error logging (real problems) stays legal.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CXX_DIRS = ("src", "tests", "bench", "examples")
CXX_SUFFIXES = {".cpp", ".hpp"}
MAX_COLUMNS = 80

# R1 ---------------------------------------------------------------------
GLOBAL_RNG_PATTERNS = [
    (re.compile(r"\b(?:std::)?s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom\s*\(\s*\)"), "random()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\bstd::default_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"\bstd::mt19937(?:_64)?\b"), "raw std::mt19937"),
    (re.compile(r"\bstd::\w+_distribution\b"), "std::*_distribution"),
    (re.compile(r"\bstd::generate_canonical\b"), "std::generate_canonical"),
]
# util/rng wraps the engine; everything else must go through it.
RNG_ALLOWED = {Path("src/util/rng.hpp"), Path("src/util/rng.cpp")}

# R2 ---------------------------------------------------------------------
STDOUT_PATTERNS = [
    (re.compile(r"\b(?:std::)?f?printf\s*\("), "printf/fprintf"),
    (re.compile(r"\b(?:std::)?puts\s*\("), "puts"),
    (re.compile(r"\bputchar\s*\("), "putchar"),
    (re.compile(r"\bstd::(?:cout|cerr|clog)\b"), "std::cout/cerr/clog"),
]
STDOUT_ALLOWED = {Path("src/util/log.cpp"), Path("src/util/contract.cpp")}

# R6 ---------------------------------------------------------------------
INFO_LOG_PATTERNS = [
    (re.compile(r"\bBRAIDIO_LOG_(?:TRACE|DEBUG|INFO)\b"),
     "BRAIDIO_LOG_TRACE/DEBUG/INFO"),
    (re.compile(r"\bBRAIDIO_LOG\s*\(\s*LogLevel::(?:Trace|Debug|Info)\b"),
     "BRAIDIO_LOG(LogLevel::Trace/Debug/Info)"),
]
INFO_LOG_ALLOWED_PREFIXES = (Path("src/util"), Path("src/obs"))

# R5 ---------------------------------------------------------------------
# `(?!\s*::)` keeps non-spawning statics legal: std::thread::id,
# std::thread::hardware_concurrency(). std::this_thread never matches
# (the `::` between std and this_thread breaks the literal).
THREAD_SPAWN_PATTERNS = [
    (re.compile(r"\bstd::j?thread\b(?!\s*::)"), "std::thread/std::jthread"),
    (re.compile(r"\bstd::async\s*\("), "std::async"),
    (re.compile(r"\bpthread_create\s*\("), "pthread_create"),
]
THREAD_ALLOWED_PREFIX = Path("src/sim")

COMMENT_RE = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    return COMMENT_RE.sub("", line)


def cxx_files() -> list[Path]:
    files: list[Path] = []
    for top in CXX_DIRS:
        root = REPO / top
        if not root.is_dir():
            continue
        files.extend(p for p in sorted(root.rglob("*"))
                     if p.suffix in CXX_SUFFIXES)
    return files


def rel(path: Path) -> Path:
    """Repo-relative path; paths outside the repo stay as given (rules
    keyed on the top-level directory then simply do not apply)."""
    try:
        return path.resolve().relative_to(REPO)
    except ValueError:
        return path


def check_global_rng(path: Path, lines: list[str], findings: list[str]):
    if rel(path) in RNG_ALLOWED:
        return
    for lineno, line in enumerate(lines, 1):
        code = strip_comment(line)
        for pattern, label in GLOBAL_RNG_PATTERNS:
            if pattern.search(code):
                findings.append(
                    f"{rel(path)}:{lineno}: [no-global-rng] {label} — use "
                    "braidio::util::Rng")


def check_naked_stdout(path: Path, lines: list[str], findings: list[str]):
    if rel(path).parts[0] != "src" or rel(path) in STDOUT_ALLOWED:
        return
    for lineno, line in enumerate(lines, 1):
        code = strip_comment(line)
        for pattern, label in STDOUT_PATTERNS:
            if pattern.search(code):
                findings.append(
                    f"{rel(path)}:{lineno}: [no-naked-stdout] {label} — "
                    "library code logs via util/log or returns data")


def check_stray_threads(path: Path, lines: list[str], findings: list[str]):
    if rel(path).parts[:2] == THREAD_ALLOWED_PREFIX.parts:
        return
    for lineno, line in enumerate(lines, 1):
        code = strip_comment(line)
        for pattern, label in THREAD_SPAWN_PATTERNS:
            if pattern.search(code):
                findings.append(
                    f"{rel(path)}:{lineno}: [no-stray-threads] {label} — "
                    "only src/sim/ spawns threads; use sim::SweepRunner or "
                    "sim::ThreadPool")


def check_events_not_logs(path: Path, lines: list[str],
                          findings: list[str]):
    relative = rel(path)
    if relative.parts[0] != "src":
        return
    if any(relative.parts[:2] == prefix.parts
           for prefix in INFO_LOG_ALLOWED_PREFIXES):
        return
    for lineno, line in enumerate(lines, 1):
        code = strip_comment(line)
        for pattern, label in INFO_LOG_PATTERNS:
            if pattern.search(code):
                findings.append(
                    f"{relative}:{lineno}: [events-not-logs] {label} — "
                    "sim state goes through obs::Tracer "
                    "(BRAIDIO_TRACE_EVENT), not informational logging")


def check_line_hygiene(path: Path, lines: list[str], findings: list[str]):
    for lineno, line in enumerate(lines, 1):
        if "\t" in line:
            findings.append(f"{rel(path)}:{lineno}: [line-hygiene] tab "
                            "character (2-space indent only)")
        if line != line.rstrip():
            findings.append(f"{rel(path)}:{lineno}: [line-hygiene] trailing "
                            "whitespace")
        if len(line) > MAX_COLUMNS:
            findings.append(f"{rel(path)}:{lineno}: [line-hygiene] line is "
                            f"{len(line)} columns (max {MAX_COLUMNS})")


def registered_tests() -> list[str]:
    cmake = REPO / "tests" / "CMakeLists.txt"
    if not cmake.is_file():
        return []
    return re.findall(r"braidio_test\(\s*([A-Za-z0-9_]+)\s*\)",
                      cmake.read_text())


def check_test_registration(findings: list[str]):
    tests = registered_tests()
    test_dir = REPO / "tests"

    # Which module headers does each registered test pull in?
    covered_headers: set[str] = set()
    include_re = re.compile(r'#include\s+"([^"]+\.hpp)"')
    for name in tests:
        test_file = test_dir / f"{name}.cpp"
        if not test_file.is_file():
            findings.append(f"tests/CMakeLists.txt: [test-registration] "
                            f"registered test {name} has no tests/{name}.cpp")
            continue
        covered_headers.update(include_re.findall(test_file.read_text()))

    for source in sorted((REPO / "src").rglob("*.cpp")):
        header = source.with_suffix(".hpp")
        key = str(rel(header).relative_to("src"))
        if key not in covered_headers:
            findings.append(
                f"{rel(source)}: [test-registration] no registered test in "
                f"tests/CMakeLists.txt includes \"{key}\"")


# Pinned exit codes — tests/tools/lint_selftest.py asserts these.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def lint_files(paths: list[Path], full: bool) -> list[str]:
    findings: list[str] = []
    for path in paths:
        lines = path.read_text().splitlines()
        check_global_rng(path, lines, findings)
        check_naked_stdout(path, lines, findings)
        check_stray_threads(path, lines, findings)
        check_events_not_logs(path, lines, findings)
        check_line_hygiene(path, lines, findings)
    if full:
        check_test_registration(findings)
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true",
                        help="print the rule docs and exit")
    parser.add_argument("--paths", nargs="+", type=Path, default=None,
                        metavar="FILE",
                        help="incremental mode: lint only these files "
                             "(per-file rules; skips R3)")
    args = parser.parse_args()
    if args.list:
        print(__doc__)
        return EXIT_CLEAN

    if args.paths is not None:
        for path in args.paths:
            if not path.is_file():
                print(f"tools/lint.py: no such file: {path}",
                      file=sys.stderr)
                return EXIT_ERROR
        paths, full = args.paths, False
    else:
        paths, full = cxx_files(), True

    try:
        findings = lint_files(paths, full)
    except OSError as error:
        print(f"tools/lint.py: {error}", file=sys.stderr)
        return EXIT_ERROR

    for finding in findings:
        print(finding)
    if findings:
        print(f"\ntools/lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return EXIT_FINDINGS
    print("tools/lint.py: clean")
    return EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
