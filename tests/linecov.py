"""Line-coverage gate: every function-body line of the library must run under tier-1.

    python tests/linecov.py [pytest arguments]

Runs pytest on ``tests/`` in this process with a fixed Hypothesis seed and
the library imported from ``src/``; extra arguments go to pytest. A
``sys.settrace`` collector (``coverage`` is not a dependency) records the
lines run in ``src/setgames``. A function-body line is one that the bytecode
of a function, method, lambda or comprehension in ``src/setgames/*.py`` maps
to, apart from its first line (the ``def`` or decorator). The script prints
each such line that did not run and is not in :data:`ALLOWED`, and exits
nonzero when there is one, when pytest fails, or when an allowed line ran or
does not occur once in its file. The file's name keeps pytest from
collecting it.
"""

import inspect
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "setgames"

# (file under src/setgames, the line's text without its indent, why it cannot run)
ALLOWED = (
    ("lp.py", "raise SolverFailureError(\"matrix-game LP returned a zero mixture\")",
     "pragma: no cover: the mixture of a positive matrix game is never zero"),
)


def function_lines(code) -> set[int]:
    """Lines of every function body among ``code`` and the code objects it holds."""
    lines = set()
    if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
        lines = {line for *_, line in code.co_lines() if line is not None}
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= function_lines(const)
    return lines


def run(args) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code for ``args`` and the lines run per file of the package."""
    import pytest

    prefix = f"{PACKAGE}/"
    hits: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        seen = hits.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--hypothesis-seed=1",
                            *args, str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(args) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    code, hits = run(args)
    problems = [] if code == 0 else [f"pytest exit {code}"]
    allowed = {}
    for file, text, reason in ALLOWED:
        lines = (PACKAGE / file).read_text().splitlines()
        at = [i for i, line in enumerate(lines, 1) if line.strip() == text]
        if len(at) != 1:
            problems.append(f"allowed line {file}: {text!r} occurs {len(at)} times, not once")
        else:
            allowed[file, at[0]] = reason
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = function_lines(compile(source, str(path), "exec"))
        total += len(lines)
        text = source.splitlines()
        for line in sorted(lines - hits.get(str(path), set())):
            if (path.name, line) not in allowed:
                problems.append(f"unrun {path.name}:{line}: {text[line - 1].strip()}")
        for file, line in allowed:
            if file == path.name and line in hits.get(str(path), set()):
                problems.append(f"allowed line {file}:{line} ran; take it off the list")
    print(f"{total} function-body lines in src/setgames, {len(allowed)} allowed unrun")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
