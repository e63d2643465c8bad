#!/usr/bin/env python3
"""Fixture-based self-test for tools/lint.py (rule + exit-code pins).

Runs the linter as a subprocess, exactly as CI and editors do, and
asserts:

* incremental `--paths` mode finds the planted R1/R4/R5 violations in
  the bad fixture (exit 1, one finding per planted rule),
* R1 also flags each std::*_distribution and std::generate_canonical
  use in the distribution fixture (one finding per line),
* the clean fixture exits 0,
* a missing file exits 2 (usage/internal error),
* `--list` exits 0.

Fixtures use the .cpp_fixture suffix so the full-tree walk never picks
up the deliberate violations.

Exit status: 0 pass, 1 mismatch.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
LINT = REPO / "tools" / "lint.py"
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, label: str) -> None:
        print(("PASS " if condition else "FAIL ") + label)
        if not condition:
            failures.append(label)

    bad = run("--paths", str(FIXTURES / "bad.cpp_fixture"))
    expect(bad.returncode == 1, "bad fixture exits 1")
    for rule in ("no-global-rng", "no-stray-threads", "line-hygiene"):
        expect(f"[{rule}]" in bad.stdout,
               f"bad fixture trips {rule}")
    expect("[test-registration]" not in bad.stdout,
           "--paths mode skips whole-tree R3")

    dist = run("--paths", str(FIXTURES / "rng_distribution.cpp_fixture"))
    expect(dist.returncode == 1, "distribution fixture exits 1")
    for label in ("std::*_distribution", "std::generate_canonical"):
        expect(f"[no-global-rng] {label}" in dist.stdout,
               f"distribution fixture trips R1 on {label}")
    expect(dist.stdout.count("[no-global-rng]") == 3,
           "distribution fixture: one R1 finding per banned line")

    clean = run("--paths", str(FIXTURES / "clean.cpp_fixture"))
    expect(clean.returncode == 0, "clean fixture exits 0")

    missing = run("--paths", str(FIXTURES / "no_such_file.cpp"))
    expect(missing.returncode == 2, "missing file exits 2")

    listing = run("--list")
    expect(listing.returncode == 0 and "R1" in listing.stdout,
           "--list exits 0 and documents the rules")

    if failures:
        print(f"\nlint selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("\nlint selftest: all checks pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
