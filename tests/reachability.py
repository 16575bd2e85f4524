"""Reachability gate: every function in src/orthoapart serves the CLI, the
README or an acceptance test.

    PYTHONPATH=src python tests/reachability.py

runs three drivers under sys.setprofile and records every package function
that one of them calls:

* the README's Python blocks;
* tests/test_acceptance.py;
* tests/test_cli.py, counting only calls beneath cli.main and cli.cmd_*:
  that file also calls library functions directly to build fixtures.

A call counts when the package frames above it were entered from a driver,
or run a package module's import-time code.  When they were entered from
tests/util.py the call never counts, so an oracle cannot keep its own
dependency in src/ alive.  Whether the driver tests pass is left to tier-1;
a driver file that fails to collect or runs no tests fails the gate.

The gate exits 1 and names the file:line of every function that no driver
reached, other than protocol dunders and the EXCEPTIONS below.  pytest does
not collect this file (its name does not start with test_); it takes about
100 s on a 2-vCPU Xeon with Python 3.11.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "orthoapart"
UTIL = str(ROOT / "tests" / "util.py")

# function -> (date, reason).  Each lasts until a benchmark change points the
# tracer's matrix layers at what the CLI reaches (ROADMAP P), when the
# function moves to tests/util.py or leaves the package.
EXCEPTIONS: Dict[str, Tuple[str, str]] = {
    "matrices.Matrix.rref": ("2026-10-20", "bench/tracer.py wraps it (matrices.rref)"),
    "matrices._bareiss": ("2026-10-20", "Matrix.rref's elimination, and only rref calls it"),
    "matrices.Matrix.inverse": ("2026-10-20", "bench/tracer.py wraps it (matrices.inverse)"),
    "subspaces.complement_within": ("2026-10-20",
                                    "bench/tracer.py wraps it (subspaces.complement_within)"),
}


class Definition(NamedTuple):
    name: str  # module.Class.function, nested functions under their parent
    path: Path
    line: int  # of the def
    first: int  # the code object's first line: the first decorator's, if any
    node: ast.AST


def definitions() -> Iterator[Definition]:
    """Every function definition in the package, methods and nested ones included."""
    def walk(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                yield Definition(name, path, child.lineno, first, child)
                yield from walk(child, name, path)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}", path)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(ast.parse(path.read_text(), str(path)), path.stem, path)


def is_dunder(name: str) -> bool:
    short = name.rsplit(".", 1)[-1]
    return len(short) > 4 and short.startswith("__") and short.endswith("__")


# ---------------------------------------------------------------------------
# the drivers

def profiler(reached: set, accept):
    """A setprofile function adding (filename, first line) of each package
    code object whose call counts to `reached`.  `accept(code)` decides for
    the outermost package frame when a driver entered the package."""
    src = str(SRC)

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        key = (code.co_filename, code.co_firstlineno)
        if key in reached or not code.co_filename.startswith(src):
            return
        outer, caller = frame, frame.f_back
        while caller is not None and caller.f_code.co_filename.startswith(src):
            outer, caller = caller, caller.f_back
        if outer.f_code.co_name == "<module>":  # a package module's import-time code
            reached.add(key)
        elif (caller is None or caller.f_code.co_filename != UTIL) and accept(outer.f_code):
            reached.add(key)

    return profile


def profiled(reached: set, accept, run):
    sys.setprofile(profiler(reached, accept))
    try:
        return run()
    finally:
        sys.setprofile(None)


def run_readme() -> int:
    """Run the README's Python blocks; how many there are."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})
    return len(blocks)


class RunCount:
    """A pytest plugin counting the tests that ran."""

    def __init__(self):
        self.ran = 0

    def pytest_runtest_logreport(self, report):
        if report.when == "call":
            self.ran += 1


def run_tests(path: Path):
    """Run one test file in this process; the exit code and the tests that ran."""
    import pytest

    count = RunCount()
    code = pytest.main([str(path), "-q", "--tb=line", "-p", "no:cacheprovider"], plugins=[count])
    return int(code), count.ran


def beneath_cli(code) -> bool:
    return code.co_filename == str(SRC / "cli.py") and (
        code.co_name == "main" or code.co_name.startswith("cmd_"))


def main() -> int:
    sys.path.insert(0, str(ROOT / "tests"))
    reached: set = set()
    faults = []
    if not profiled(reached, lambda code: True, run_readme):
        faults.append("README.md has no Python block")
    for name, accept in (("test_acceptance.py", lambda code: True), ("test_cli.py", beneath_cli)):
        code, ran = profiled(reached, accept, lambda: run_tests(ROOT / "tests" / name))
        print(f"reachability: tests/{name} ran {ran} tests under profiling (whether they pass, "
              f"timing bounds included, is for tier-1 to judge)")
        # exit code 1 is failed tests; 2 and up is a collection error, an
        # interruption or no tests
        if code not in (0, 1) or not ran:
            faults.append(f"tests/{name}: pytest exit code {code}, {ran} tests ran")

    defs = list(definitions())
    unreached = [d for d in defs if (str(d.path), d.first) not in reached]
    dunders = [d.name for d in unreached if is_dunder(d.name)]
    print(f"reachability: {len(defs)} functions in src/orthoapart, {len(defs) - len(unreached)} "
          f"reached; {len(dunders)} unreached protocol dunders exempt: {', '.join(dunders)}")
    for name, (date, reason) in EXCEPTIONS.items():
        print(f"  excused {name} ({date}): {reason}")
    for d in defs:
        if d.name in EXCEPTIONS and d not in unreached:
            faults.append(f"exception {d.name} is reached by a driver")
        elif d in unreached and d.name not in EXCEPTIONS and not is_dunder(d.name):
            faults.append(f"{d.path.relative_to(ROOT)}:{d.line}: {d.name} is reached by no driver")
    for fault in faults:
        print(f"FAIL {fault}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
