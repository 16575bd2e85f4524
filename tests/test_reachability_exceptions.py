"""The reachability gate's named exceptions stay current.

tests/reachability.py runs its drivers for about 100 s, so it is a CI step
and not a tier-1 test.  This reads its EXCEPTIONS without running them, and
bench/tracer.py through runpy as tests/test_bench_names.py does.  An
exception must name a function of the package, and be kept either because
the tracer wraps it or because only other exceptions call it.  The gate
holds every other function, dunders aside, reached by its drivers, so a
call to an exception from outside the list means the drivers now reach it
too, and it must leave the list.
"""

import ast
import runpy
from pathlib import Path

TESTS = Path(__file__).resolve().parent
GATE = TESTS / "reachability.py"
TRACER = TESTS.parent / "bench" / "tracer.py"


def _names(node) -> set:
    """Every name and attribute a function body refers to."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_every_exception_is_unreached_and_kept_by_the_tracer_or_an_exception():
    gate = runpy.run_path(str(GATE))  # not __main__: no driver runs
    tracer = runpy.run_path(str(TRACER))  # compiled in memory: bench/ is left as it is
    exceptions = gate["EXCEPTIONS"]
    defs = {d.name: d for d in gate["definitions"]()}
    assert set(exceptions) <= set(defs), "an exception names no function in src/orthoapart"
    traced = {f"{module.rsplit('.', 1)[-1]}.{path}" for _, module, path in tracer["SPANS"]}
    for name, (date, reason) in exceptions.items():
        assert date and reason and not gate["is_dunder"](name)
        short = name.rsplit(".", 1)[-1]
        callers = {d.name for d in defs.values() if d.name != name and short in _names(d.node)}
        assert callers <= set(exceptions), f"{name} is called by {callers - set(exceptions)}"
        assert name in traced or callers, f"{name} is neither traced nor called by an exception"
    assert len(defs) > 100
