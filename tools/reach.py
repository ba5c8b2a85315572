#!/usr/bin/env python3
"""Reach census: which ``src/repro`` functions does anything running call?

``python tools/reach.py`` runs what the repository is for, each command
in a subprocess:

- every workload of ``BENCHMARK.json`` as ``bench/run.py --workload W
  --seed 0 --seconds 2 --trace 1`` (its probes and spawned workers
  included);
- the paper-figure commands ``python -m repro fig10 … fig14 / headline
  / demo``;
- every ``examples/*.py``.

A temporary ``sitecustomize`` first on ``PYTHONPATH`` records, in every
process these start, each ``src/repro`` function the interpreter calls;
nothing under ``bench/`` is edited.  The report lists every function
nothing called, with its code lines (the ``tools/code_lines.py`` rule)
and the test files that name it, then per-package totals.  A nested
function of an unreached function is part of its parent's lines and is
not listed again.  Exits 1 if a command fails.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TESTS = ROOT / "tests"
FIGURES = ("fig10", "fig11", "fig12", "fig13", "fig14", "headline", "demo")
#: Commands run at once: the census counts calls, not time, so two
#: commands sharing the machine change nothing it reports.
JOBS = 2
TIMEOUT_S = 300

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import code_line_set  # noqa: E402

#: The call hook.  ``seen`` holds every code object it has looked at, so
#: an ``id`` is never reused while it is a key; a line is written (and
#: flushed) the first time a function of the package runs, so a worker
#: that is killed has already reported.
HOOK = '''\
import os
import sys
import threading


def _install(prefix, out_dir):
    seen = {{}}
    out = open(os.path.join(out_dir, "%d.txt" % os.getpid()), "a", buffering=1)

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in seen:
                seen[id(code)] = code
                if code.co_filename.startswith(prefix):
                    out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    threading.setprofile(hook)


_install({prefix!r}, {out_dir!r})
'''


@dataclass(frozen=True)
class Function:
    path: str  # relative to the repository root
    qualname: str
    line: int  # the ``def`` line
    first: int  # the first decorator's line (what ``co_firstlineno`` reads)
    lines: int  # code lines, nested functions included
    outer: "Function | None"  # the enclosing function, if any

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def functions_of(path: str, source: str) -> list[Function]:
    """Every function defined in ``source``, outer before nested."""
    code = code_line_set(source)
    found: list[Function] = []

    def visit(node, prefix: str, outer: Function | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                fn = Function(
                    path, prefix + child.name, child.lineno, first,
                    sum(1 for n in range(first, child.end_lineno + 1) if n in code),
                    outer,
                )
                found.append(fn)
                visit(child, f"{fn.qualname}.<locals>.", fn)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", outer)
            else:
                visit(child, prefix, outer)

    visit(ast.parse(source), "", None)
    return found


def package_functions() -> list[Function]:
    found = []
    for file in sorted(PACKAGE.rglob("*.py")):
        found.extend(functions_of(str(file.relative_to(ROOT)), file.read_text()))
    return found


def is_reached(fn: Function, called: set[tuple[str, int]]) -> bool:
    return (fn.path, fn.line) in called or (fn.path, fn.first) in called


def unreached(functions: list[Function], called: set[tuple[str, int]]) -> list[Function]:
    """The functions nothing called whose enclosing function (if any) ran."""
    return [
        fn for fn in functions
        if not is_reached(fn, called)
        and (fn.outer is None or is_reached(fn.outer, called))
    ]


def package_of(fn: Function) -> str:
    parts = Path(fn.path).relative_to(PACKAGE.relative_to(ROOT)).parts
    return parts[0].removesuffix(".py")


def naming_tests(name: str, tests: dict[str, str]) -> list[str]:
    pattern = re.compile(rf"\b{re.escape(name)}\b")
    return sorted(file for file, text in tests.items() if pattern.search(text))


def report(functions: list[Function], called: set[tuple[str, int]],
           tests: dict[str, str]) -> tuple[list[str], int, int]:
    """The report's lines, the function lines and the unreached lines.
    ``called`` holds ``(path, line)`` pairs, ``tests`` file name -> text."""
    missed = unreached(functions, called)
    out = ["unreached functions (code lines, test files that name them):"]
    for fn in missed:
        names = ", ".join(naming_tests(fn.name, tests)) or "-"
        out.append(f"  {fn.path}:{fn.line}  {fn.qualname}  {fn.lines}  [{names}]")
    totals: dict[str, list[int]] = {}
    for fn in functions:
        if fn.outer is None:
            totals.setdefault(package_of(fn), [0, 0, 0])[0] += fn.lines
    for fn in missed:
        row = totals[package_of(fn)]
        row[1] += 1
        row[2] += fn.lines
    out.append("")
    out.append(f"{'package':14s} {'function lines':>14s} {'unreached fns':>13s} {'lines':>7s}")
    for package, (lines, count, missed_lines) in sorted(totals.items()):
        out.append(f"{package:14s} {lines:14d} {count:13d} {missed_lines:7d}")
    total = sum(row[0] for row in totals.values())
    missed_total = sum(row[2] for row in totals.values())
    out.append(f"{'total':14s} {total:14d} {len(missed):13d} {missed_total:7d}")
    return out, total, missed_total


def commands(bench_out: Path) -> list[list[str]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    runs = [
        [sys.executable, "bench/run.py", "--workload", name, "--seed", "0",
         "--seconds", "2", "--trace", "1", "--out", str(bench_out / name)]
        for name in workloads
    ]
    runs += [[sys.executable, "-m", "repro", figure] for figure in FIGURES]
    runs += [[sys.executable, str(p.relative_to(ROOT))]
             for p in sorted((ROOT / "examples").glob("*.py"))]
    return runs


def census(scratch: Path) -> set[tuple[str, int]]:
    """Run every command under the hook; the ``(path, line)`` of each
    function called, paths relative to the repository root."""
    hook_dir, calls_dir = scratch / "hook", scratch / "calls"
    hook_dir.mkdir()
    calls_dir.mkdir()
    prefix = str(PACKAGE) + os.sep
    (hook_dir / "sitecustomize.py").write_text(
        HOOK.format(prefix=prefix, out_dir=str(calls_dir))
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(hook_dir), str(SRC)]))
    pending = commands(scratch / "bench")
    running: list[tuple[list[str], subprocess.Popen, float]] = []
    failed = []
    while pending or running:
        while pending and len(running) < JOBS:
            argv = pending.pop(0)
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=subprocess.PIPE, text=True)
            running.append((argv, proc, time.monotonic()))
        argv, proc, begin = running.pop(0)
        try:
            _, err = proc.communicate(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            _, err = proc.communicate()
        label = " ".join(argv[1:])
        print(f"reach: {label}: exit {proc.returncode} in "
              f"{time.monotonic() - begin:.1f} s", file=sys.stderr)
        if proc.returncode != 0:
            failed.append(label)
            sys.stderr.write(err[-2000:])
    if failed:
        raise SystemExit(f"reach: {len(failed)} command(s) failed: {failed}")
    called = set()
    for file in calls_dir.iterdir():
        for row in file.read_text().splitlines():
            filename, line = row.rsplit("\t", 1)
            called.add((os.path.relpath(filename, ROOT), int(line)))
    return called


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        called = census(Path(scratch))
    tests = {p.name: p.read_text() for p in sorted(TESTS.rglob("*.py"))}
    lines, _, _ = report(package_functions(), called, tests)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
