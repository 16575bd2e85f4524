"""Every name that bench/tracer.py wraps exists in the package.

The traced bench reports a missing name only when it runs; this reads the
tracer's tables without running the bench, so that deleting a wrapped
function fails here first.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_name_resolves_to_a_callable():
    tracer = runpy.run_path(str(TRACER))  # compiled in memory: bench/ is left as it is
    targets = tracer["SPANS"] + tracer["SCALARS"]
    for _, module, _ in targets:
        importlib.import_module(module)
    missing = [(module, path) for _, module, path in targets
               if not callable(tracer["_resolve"](module, path))]
    assert not missing
    assert len(targets) > 30
