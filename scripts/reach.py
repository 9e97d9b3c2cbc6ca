#!/usr/bin/env python3
"""Print the executable lines of src/hazeflow that none of the given commands reach.

    python scripts/reach.py "python -m hazeflow.cli train --epochs 1" \
        "python perfbench/run.py --workload dehaze_512 --seconds 4"

Each argument is one command, split like a shell line (no pipes or
redirection) and run from the current directory. A `sitecustomize`
module put first on PYTHONPATH, with `src/` after it, starts a
`sys.settrace` line tracer in every Python process the commands start,
child processes included as long as they keep PYTHONPATH. The tracer
follows only frames of `src/hazeflow` files, and each process writes the
lines it ran when it exits normally. A line is executable when the
compiled module maps bytecode to it, and reached when any of it ran, so
a line that only binds a name (an alias, a lambda never called) counts as
reached. The output is one `path:line: source` per unreached line, then
a count; each command's exit status goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shlex
import subprocess
import sys
import tempfile
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hazeflow"

# the sitecustomize module; REACH_OUT names the directory for the results
TRACER = """\
import atexit, json, os, sys, threading

_PREFIX = os.environ["REACH_PACKAGE"] + os.sep
_files = {}  # co_filename -> its real path, or None outside the package
_seen = {}


def _line(frame, event, arg):
    if event == "line":
        _seen[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _files:
        path = os.path.realpath(name)
        _files[name] = path if path.startswith(_PREFIX) else None
    if _files[name] is None:
        return None
    _seen.setdefault(name, set()).add(frame.f_lineno)
    return _line


@atexit.register
def _write():
    sys.settrace(None)
    lines = {}
    for name, seen in _seen.items():
        lines.setdefault(_files[name], set()).update(seen)
    path = os.path.join(os.environ["REACH_OUT"], f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({k: sorted(v) for k, v in lines.items()}, fh)


threading.settrace(_call)
sys.settrace(_call)
"""


def executable_lines(path: pathlib.Path) -> set[int]:
    """Line numbers that some bytecode of the module or its functions maps to."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(commands: list[str]) -> tuple[dict[str, set[int]], int]:
    """Run each command under the tracer; (real path -> reached lines, processes)."""
    with tempfile.TemporaryDirectory() as tmp:
        site, out = pathlib.Path(tmp, "site"), pathlib.Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(TRACER, encoding="utf-8")
        env = dict(os.environ, REACH_OUT=str(out), REACH_PACKAGE=str(PACKAGE.resolve()))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        for command in commands:
            code = subprocess.run(shlex.split(command), env=env,
                                  stdout=subprocess.DEVNULL).returncode
            print(f"exit {code}: {command}", file=sys.stderr)
        reached: dict[str, set[int]] = {}
        results = list(out.glob("*.json"))
        for result in results:
            for path, lines in json.loads(result.read_text(encoding="utf-8")).items():
                reached.setdefault(path, set()).update(lines)
    return reached, len(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("commands", nargs="+", help="one quoted command line each")
    args = parser.parse_args(argv)
    reached, processes = run_traced(args.commands)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(str(path.resolve()), set()))
        total, unreached = total + len(lines), unreached + len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{unreached} of {total} executable lines unreached "
          f"({len(args.commands)} commands, {processes} traced processes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
