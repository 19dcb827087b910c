"""Print every ``raise`` line of ``src/mpscollision`` that no Tier-1 test executes.

Usage, from the repository root (needs the test extra, as Tier-1 does):

    python tools/raise_lines.py [extra pytest arguments]

The suite runs in this process under a ``sys.settrace`` hook that records only the
``raise`` statements of the package's modules, found by ``ast``.  Lines are reported
whatever the test outcomes, so a test that fails under the tracer still counts for the
lines it reached.  Code that a test runs in a subprocess is not traced, so its lines count
as missed, and a Hypothesis property reaches different lines from run to run.  The script
writes no file of its own; pytest runs without its cache, and Hypothesis keeps its database
in ``.hypothesis/`` as in any Tier-1 run.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mpscollision"


def raise_lines(package: Path = PACKAGE) -> dict[str, set[int]]:
    """Absolute module path -> line numbers of its ``raise`` statements."""
    lines = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines[str(path)] = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    return lines


def traced_suite(wanted: dict[str, set[int]], args: list[str]) -> tuple[int, set]:
    """Run Tier-1 with ``args`` under the tracer: pytest's exit code and the (path, line)
    pairs of ``wanted`` that ran."""
    import pytest   # the test extra, imported only once the tracer's targets are known

    hit = set()

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in wanted[frame.f_code.co_filename]:
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in wanted else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests"), *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hit


def main(argv: list[str] | None = None) -> int:
    wanted = raise_lines()
    code, hit = traced_suite(wanted, sys.argv[1:] if argv is None else argv)
    missed = sorted((path, line) for path, lines in wanted.items() for line in lines
                    if (path, line) not in hit)
    total = sum(len(lines) for lines in wanted.values())
    print(f"\nraise lines no test executed: {len(missed)} of {total} (pytest exit code {code})")
    for path, line in missed:
        source = Path(path).read_text().splitlines()[line - 1].strip()
        print(f"{Path(path).relative_to(ROOT)}:{line}: {source}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
