#!/usr/bin/env python
"""Every function in ``src/repro`` is reached, or its allowlist line says why.

Usage: python .github/scripts/reach.py

Runs, in this one process under ``sys.setprofile``, what a user of the
repository runs:

* ``repro list`` and ``repro run all --quick --jobs 1`` (every id of the
  experiment table, figures plotted);
* E7 with a cold and then a warm ``--cache-dir``;
* C1 with every observability output (telemetry, trace, profile,
  telemetry JSONL, Prometheus text, metrics document);
* E9Q and C2 with ``--telemetry --metrics-out``;
* E4 with ``--jobs 2 --telemetry --profile``, a pooled sweep: its workers
  run unprofiled, but this process merges their counters, histograms and
  telemetry windows;
* ``repro report`` on three of those documents and ``repro obs diff``
  twice (one identical pair, one differing pair);
* every ``examples/*.py`` as ``__main__``.

A function is reached when one of its code objects was called.  Its size
is its body lines: from the first statement after the docstring to its
last line.  Dunders are exempt.

Every unreached function must be named in ``reach-allowlist.txt`` next to
this script, one ``path::qualname tag`` per line, where the tag is the
reason it stays:

* ``oracle``      a test's reference implementation;
* ``hook``        named by ``bench/tracer.py``'s ``HOOKS``, or called by
  ``bench/`` or ``benchmarks/``;
* ``worker``      runs only in a sweep's worker pool (``--jobs N > 1``) or
  its merge;
* ``full-scale``  runs only at an id's full scale (no ``--quick``);
* ``tested-path`` a fault, error or API path the tier-1 tests drive.

An allowlisted function that is now reached, or that no longer exists,
fails too, so the list can only shrink.  Prints the unreached totals and
exits 1 on any mismatch.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
ALLOWLIST = Path(__file__).with_name("reach-allowlist.txt")
TAGS = frozenset({"oracle", "hook", "worker", "full-scale", "tested-path"})


def functions():
    """``{(filename, first line): (name, body lines)}`` for every
    non-dunder function under ``src/repro``; ``name`` is
    ``path::qualname`` and the first line is the first decorator's, as
    in the function's code object."""
    found = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, f"{prefix}{child.name}.<locals>.")
                    if child.name.startswith("__") and child.name.endswith("__"):
                        continue
                    body = child.body
                    if (isinstance(body[0], ast.Expr)
                            and isinstance(body[0].value, ast.Constant)
                            and isinstance(body[0].value.value, str)):
                        body = body[1:]
                    lines = child.end_lineno - body[0].lineno + 1 if body else 0
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (
                        f"{relative}::{prefix}{child.name}", lines)
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def exercise(workdir: Path) -> None:
    """The runs named in the module docstring, output discarded."""
    from repro.cli import main

    def cli(*argv):
        main([str(arg) for arg in argv])

    docs = {key: workdir / f"{key}.json" for key in ("C1", "E9Q", "C2")}
    cli("list")
    cli("run", "all", "--quick", "--jobs", "1")
    cli("run", "C1", "--quick", "--no-plot", "--telemetry", "--profile",
        "--trace-out", workdir / "C1.jsonl",
        "--telemetry-out", workdir / "C1-telemetry.jsonl",
        "--prom-out", workdir / "C1.prom", "--metrics-out", docs["C1"])
    for key in ("E9Q", "C2"):
        cli("run", key, "--quick", "--no-plot", "--telemetry",
            "--metrics-out", docs[key])
    cli("run", "E4", "--quick", "--no-plot", "--jobs", "2", "--telemetry",
        "--profile")
    for document in docs.values():
        cli("report", document)
    cli("obs", "diff", docs["C2"], docs["C2"])
    cli("obs", "diff", docs["E9Q"], docs["C2"])
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")
    for _ in range(2):
        cli("run", "E7", "--quick", "--no-plot",
            "--cache-dir", workdir / "cache")


def main() -> int:
    sys.path.insert(0, str(SRC))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory() as workdir, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.setprofile(profile)
        try:
            exercise(Path(workdir))
        finally:
            sys.setprofile(None)

    every = functions()
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in called}
    unreached = {every[key][0]: every[key][1]
                 for key in every if key not in reached}
    names = {name for name, _ in every.values()}

    problems = []
    allowed = {}
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        name, _, tag = line.partition(" ")
        tag = tag.strip()
        if tag not in TAGS:
            problems.append(f"{ALLOWLIST.name}:{number}: tag {tag!r} is not "
                            f"one of {', '.join(sorted(TAGS))}")
        if name in allowed:
            problems.append(f"{ALLOWLIST.name}:{number}: {name} listed twice")
        allowed[name] = tag
    for name in sorted(unreached):
        if name not in allowed:
            problems.append(f"unreached and not allowlisted: {name} "
                            f"({unreached[name]} lines)")
    for name in sorted(allowed):
        if name not in names:
            problems.append(f"allowlisted but gone: {name}")
        elif name not in unreached:
            problems.append(f"allowlisted but reached (delete its line): {name}")

    print(f"reach: {len(unreached)} of {len(every)} functions unreached, "
          f"{sum(unreached.values())} of {sum(l for _, l in every.values())} "
          f"body lines; {len(allowed)} allowlisted")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
