"""List the lines of ``src/starphase`` that no Tier-1 test runs.

Runs the Tier-1 suite in this process with a ``sys.settrace`` line
counter on the package's frames, and compares the lines it counted with
the executable lines of every module of the package, modules that no
test imports included.  It needs nothing beyond the test dependencies
(the stdlib ``trace`` module keys its ignore cache by a module's base
name, so ignoring site-packages there drops ``errors.py`` and
``__init__.py``).  From any directory:

    python tools/untraced.py

Exit status: the suite's own when it fails; otherwise 1 when a line of
``src/`` that no test runs is not on ``ALLOWED``, or an entry of
``ALLOWED`` no longer names such a line (so the list can only shrink);
otherwise 0.  The suite takes about two and a half times as long under
the counter.
"""

from __future__ import annotations

import collections
import functools
import os
import pathlib
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "starphase"

#: (file name in ``src/starphase``, source line stripped) -> the reason
#: no public input reaches that line; empty while every line is reached
ALLOWED: dict[tuple[str, str], str] = {}


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines that the code objects of the module at ``path`` run."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


@functools.cache
def _in_package(filename: str) -> bool:
    return pathlib.Path(filename).resolve().is_relative_to(PACKAGE)


def lines_run(argv: list[str]) -> tuple[int, dict[pathlib.Path, set[int]]]:
    """pytest's exit status on ``argv``, and the lines of the package that
    ran, by resolved file path."""
    ran = collections.defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        return line if _in_package(frame.f_code.co_filename) else None

    sys.settrace(call)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    out = collections.defaultdict(set)
    for filename, lines in ran.items():
        out[pathlib.Path(filename).resolve()] |= lines
    return status, out


def main() -> int:
    os.chdir(ROOT)  # pytest reads its configuration and test paths here
    status, ran = lines_run(["-q", "-p", "no:cacheprovider"])
    if status != 0:
        return status

    unreached = []
    for path in sorted(PACKAGE.rglob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran[path]):
            unreached.append((path, line, text[line - 1].strip()))
    keys = {(path.name, source) for path, _, source in unreached}
    bad = [(path, line, source) for path, line, source in unreached
           if (path.name, source) not in ALLOWED]
    stale = [key for key in ALLOWED if key not in keys]

    for path, line, source in bad:
        print(f"{path.relative_to(ROOT)}:{line}: not run by any test: "
              f"{source}")
    for name, source in stale:
        print(f"ALLOWED names a line that runs or is gone: {name}: {source}")
    print(f"untraced: {len(unreached)} lines of src/ run in no test, "
          f"{len(unreached) - len(bad)} of them allowed; "
          f"{len(stale)} stale allowlist entries")
    return 1 if bad or stale else 0


if __name__ == "__main__":
    sys.exit(main())
