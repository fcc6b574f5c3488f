"""Line reach of the Tier-1 suite: the executable ``src/ewcast`` lines no test runs.

Run from the repository root: ``PYTHONPATH=src python tests/linecov.py``.
It traces the frames of ``src/ewcast`` code, in every thread, with the
standard library's tracing hooks while pytest runs ``tests/``, then prints
the lines never reached per file and exits with pytest's status.  The
executable lines are those the compiled code objects list in ``co_lines()``.
Lines that only run in a subprocess (``python -m ewcast``) show as missed.
pytest does not collect this file.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
reached: dict[str, set[int]] = {str(path): set() for path in (ROOT / "src" / "ewcast").glob("*.py")}


def executable(code) -> set[int]:
    """Lines holding instructions of ``code`` or of a code object nested in it."""
    # None marks instructions of no line, and 0 a module's opening instruction
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable(const)
    return lines


def trace(frame, event, arg):
    lines = reached.get(frame.f_code.co_filename)
    if lines is None:
        return None  # not package code: no line events for this frame
    if event == "line":
        lines.add(frame.f_lineno)
    return trace


def main() -> int:
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path, lines in sorted(reached.items()):
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        missed = sorted(executable(code) - lines)
        print(f"{Path(path).relative_to(ROOT)}: {len(missed)} missed"
              + (f": {', '.join(map(str, missed))}" if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
