#!/usr/bin/env python3
"""Run a command and list every src/ line it never ran; exit 1 if it left
any.

    python3.12 scripts/line_coverage.py -- python -m pytest -q

Standard library only; Python 3.12+ (``sys.monitoring``). The command runs
with a generated ``sitecustomize`` first on PYTHONPATH, so it and every
Python process started with that PYTHONPATH (the tests' CLI child
processes) record the src/ lines they run, each line's LINE event disabled
after its first hit. A line is executable when an instruction of a code
object compiled from its file is on it. The exit code is the command's if
that is not 0, else 1 when a line never ran, else 0.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
_OUT_VAR = "LINE_COVERAGE_OUT"  # the folder each process writes its hits to

def record() -> None:
    """Record the src/ lines this process runs, and write them at exit."""
    if _OUT_VAR not in os.environ:  # a child started with its own environment
        return
    monitoring = sys.monitoring
    tool = monitoring.COVERAGE_ID
    root = str(SRC) + os.sep
    hits: set[tuple[str, int]] = set()

    def on_line(code, line):
        if code.co_filename.startswith(root):
            hits.add((code.co_filename, line))
        return monitoring.DISABLE

    monitoring.use_tool_id(tool, "line_coverage")
    monitoring.register_callback(tool, monitoring.events.LINE, on_line)
    monitoring.set_events(tool, monitoring.events.LINE)

    def write() -> None:
        with tempfile.NamedTemporaryFile(
            "w", dir=os.environ[_OUT_VAR], suffix=".hits", delete=False
        ) as fh:
            fh.writelines(f"{name}\t{line}\n" for name, line in hits)

    atexit.register(write)


def executable_lines(path: Path) -> dict[int, str]:
    """{line: qualified name of the innermost code object with an instruction
    on it} over every code object compiled from ``path``."""
    owners: dict[int, str] = {}
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:  # a code object comes off the stack before the ones it holds
        code = codes.pop()
        for _start, _end, line in code.co_lines():
            if line:  # a module's first instruction is on line 0
                owners[line] = code.co_qualname
        codes.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return owners


def src_lines() -> list[tuple[str, int, str, str]]:
    """(path under src/, line number, function, text) of each executable
    src/ line."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(SRC).as_posix()
        for line, owner in sorted(executable_lines(path).items()):
            found.append((name, line, owner, text[line - 1].strip()))
    return found


def unrun_lines(out_dir: Path) -> list[tuple[str, int, str, str]]:
    """The ``src_lines`` entries no process ran."""
    ran: set[tuple[str, int]] = set()
    for hits in out_dir.glob("*.hits"):
        for entry in hits.read_text(encoding="utf-8").splitlines():
            name, line = entry.rsplit("\t", 1)
            ran.add((name, int(line)))
    return [entry for entry in src_lines() if (str(SRC / entry[0]), entry[1]) not in ran]


def main(argv: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("line_coverage: needs Python 3.12+ (sys.monitoring)", file=sys.stderr)
        return 2
    if "--" not in argv or argv.index("--") == len(argv) - 1:
        print("usage:", __doc__.splitlines()[3].strip(), file=sys.stderr)
        return 2
    command = argv[argv.index("--") + 1 :]
    with tempfile.TemporaryDirectory(prefix="line-coverage-") as work:
        site = Path(work, "site")
        out_dir = Path(work, "hits")
        site.mkdir()
        out_dir.mkdir()
        (site / "sitecustomize.py").write_text(
            "import importlib.util\n"
            f"spec = importlib.util.spec_from_file_location('_line_coverage', {__file__!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "module.record()\n",
            encoding="utf-8",
        )
        path = os.pathsep.join(filter(None, [str(site), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, _OUT_VAR: str(out_dir)}
        status = subprocess.run(command, env=env).returncode
        unrun = unrun_lines(out_dir)
    for name, line, owner, text in unrun:
        print(f"unrun: src/{name}:{line} ({owner}): {text}")
    print(f"line_coverage: {len(unrun)} unrun src/ lines")
    return status or (1 if unrun else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
