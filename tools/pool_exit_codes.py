"""Print the exit codes of ``validate``, ``run`` and ``kernel`` on every CLI property-pool document.

Usage, from the repository root (needs the test extra, which ``tests/test_cli.py`` imports):

    PYTHONPATH=src python tools/pool_exit_codes.py > codes.json

The documents are those ``test_validate_rejects_exactly_what_run_rejects`` draws from: each
of ``PROPERTY_BASES`` under each method of ``cli.METHODS`` with one change of
``FIELD_CHANGES``.  The package is the one on the import path, so pointing ``PYTHONPATH``
at another checkout's ``src`` probes that checkout on the same documents, and two outputs
can be diffed.  Each key is "model/method/field/digest", the digest a hash of the
document's canonical JSON; each value maps a command to its exit code (``kernel`` runs with
``--k 1 --m-max 1``) or to the exception that escaped ``main``, ``SystemExit`` included, since
``main`` returns every exit code it means.  Warnings are errors, as in Tier-1.  The configs are
written to a temporary directory; the commands' own output is discarded.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from mpscollision import cli  # noqa: E402
from test_cli import FIELD_CHANGES, KERNEL_ARGS, PROPERTY_BASES, pool_document  # noqa: E402

COMMANDS = {"validate": [], "run": [], "kernel": KERNEL_ARGS}


def exit_code(argv: list[str]) -> int | str:
    """``cli.main(argv)``'s exit code, or the exception that escaped it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except (Exception, SystemExit) as exc:   # the finding this script exists to report
            return f"{type(exc).__name__}: {exc}"


def pool_exit_codes(workdir: Path) -> dict[str, dict[str, int | str]]:
    codes = {}
    path = workdir / "config.json"
    for base in PROPERTY_BASES:
        for method in cli.METHODS:
            for change in FIELD_CHANGES:
                doc = pool_document(base, method, change)
                text = json.dumps(doc, sort_keys=True)
                digest = hashlib.sha1(text.encode()).hexdigest()[:12]
                key = f"{base['model']['name']}/{method}/{'.'.join(change[0])}/{digest}"
                path.write_text(text)
                codes[key] = {command: exit_code([command, "--config", str(path), *args])
                              for command, args in COMMANDS.items()}
    return codes


def main() -> int:
    warnings.simplefilter("error")
    with tempfile.TemporaryDirectory() as workdir:
        codes = pool_exit_codes(Path(workdir))
    json.dump(codes, sys.stdout, indent=1, sort_keys=True)
    print()
    raised = sum(isinstance(code, str) for entry in codes.values() for code in entry.values())
    print(f"{len(codes)} documents, {raised} commands raised", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
