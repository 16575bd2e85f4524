"""Per-layer tracing of one orthoapart CLI process, from outside the package.

`Tracer.install` wraps the layers' public functions after the package is
imported.  The modules import one another's functions by name (`cli`,
`compatibility`, `operators` and `rigidity` all do), so every binding of a
function -- in any `orthoapart` module namespace or class dictionary,
aliases such as `__radd__ = __add__` included -- is replaced, not just the
one in its home module.  A target that no longer exists is reported as
missing, never as zero calls.

Two modes, each its own pass over the command list:

* "spans": a span per call with its parent, giving calls, total time and
  self time (total minus the time covered by child spans), plus the
  counts below.
* "scalars": a bare call counter on the scalar field operations, which run
  about 10^5 times per command; kept apart so that their wrappers do not
  inflate the self times of the other layers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

# (span name, module, attribute path).  A name may cover several functions.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.main", "orthoapart.cli", "main"),
    ("cli.cmd", "orthoapart.cli", "cmd_verify_lemma3"),
    ("cli.cmd", "orthoapart.cli", "cmd_verify_lemma4"),
    ("cli.cmd", "orthoapart.cli", "cmd_scan_boundary"),
    ("cli.cmd", "orthoapart.cli", "cmd_counterexample"),
    ("cli.cmd", "orthoapart.cli", "cmd_refine"),
    ("apartments.enumerate_members", "orthoapart.apartments", "enumerate_members"),
    ("apartments.Labeling.to_operator", "orthoapart.apartments", "Labeling.to_operator"),
    ("compatibility.Frame.init", "orthoapart.compatibility", "Frame.__init__"),
    ("compatibility.refine_to_frame", "orthoapart.compatibility", "refine_to_frame"),
    ("compatibility.split_into_lines", "orthoapart.compatibility", "split_into_lines"),
    ("compatibility.is_compatible", "orthoapart.compatibility", "is_compatible"),
    ("operators.commutes", "orthoapart.operators", "commutes"),
    ("operators.orthogonal", "orthoapart.operators", "orthogonal"),
    ("operators.materialize", "orthoapart.operators", "materialize"),
    ("operators.image_of", "orthoapart.operators", "image_of"),
    ("operators.SpectralOperator.init", "orthoapart.operators", "SpectralOperator.__init__"),
    ("rigidity.check_preservation", "orthoapart.rigidity", "check_preservation"),
    ("rigidity.gram_obstruction", "orthoapart.rigidity", "gram_obstruction"),
    ("subspaces.projection_of", "orthoapart.subspaces", "projection_of"),
    ("subspaces.intersect", "orthoapart.subspaces", "intersect"),
    ("subspaces.complement_within", "orthoapart.subspaces", "complement_within"),
    ("subspaces.span_sum", "orthoapart.subspaces", "span_sum"),
    ("subspaces.Subspace.contains", "orthoapart.subspaces", "Subspace.contains"),
    ("subspaces.Subspace.is_orthogonal_to", "orthoapart.subspaces", "Subspace.is_orthogonal_to"),
    ("matrices.rref", "orthoapart.matrices", "Matrix.rref"),
    ("matrices.matmul", "orthoapart.matrices", "Matrix.__matmul__"),
    ("matrices.inverse", "orthoapart.matrices", "Matrix.inverse"),
    ("serialize.family_from_json", "orthoapart.serialize", "family_from_json"),
    ("serialize.frame_to_json", "orthoapart.serialize", "frame_to_json"),
)

SCALARS: Tuple[Tuple[str, str, str], ...] = (
    ("scalars.mul", "orthoapart.scalars", "GaussianRational.__mul__"),
    ("scalars.addsub", "orthoapart.scalars", "GaussianRational.__add__"),
    ("scalars.addsub", "orthoapart.scalars", "GaussianRational.__sub__"),
    ("scalars.addsub", "orthoapart.scalars", "GaussianRational.__rsub__"),
    ("scalars.div", "orthoapart.scalars", "GaussianRational.__truediv__"),
    ("scalars.div", "orthoapart.scalars", "GaussianRational.__rtruediv__"),
)

RELATIONS = ("operators.commutes", "operators.orthogonal")


def _rref_cells(m, *_):
    return m.rows * m.cols


def _matmul_madds(a, b, *_):
    return a.rows * a.cols * b.cols


# Work counts computed from a call's arguments: span name -> (count, fn).
WORK = {
    "matrices.rref": ("matrices.rref.cells", _rref_cells),
    "matrices.matmul": ("matrices.matmul.madds", _matmul_madds),
}


def _resolve(module: str, path: str):
    obj = sys.modules.get(module)
    for part in path.split("."):
        if obj is None:
            return None
        obj = vars(obj).get(part) if isinstance(obj, type) else getattr(obj, part, None)
    return obj


def _namespaces(package: str = "orthoapart") -> List[dict]:
    """Every module dictionary and class dictionary of the package, where a
    function can be bound."""
    spaces: List[object] = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        spaces.append(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith(package):
                if value not in spaces:
                    spaces.append(value)
    return spaces


def rebind(original: Callable, replacement: Callable, package: str = "orthoapart") -> int:
    """Replace every binding of `original` in the package; return how many."""
    bound = 0
    for space in _namespaces(package):
        for key, value in list(vars(space).items()):
            if value is original:
                setattr(space, key, replacement)
                bound += 1
    return bound


class Tracer:
    """Span and count recorder for one process, kept in memory and dumped
    as a plain dict when the command ends."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = Counter()
        self.self_time: Dict[str, float] = Counter()
        self.counts: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> calls
        self.missing: List[str] = []
        self.relation_pairs: set = set()
        self._stack: List[list] = []  # [name, time covered by children]

    # -- installation ------------------------------------------------------

    def install(self, mode: str, package: str = "orthoapart") -> None:
        targets = SPANS if mode == "spans" else SCALARS
        make = self._span if mode == "spans" else self._counter
        for name, module, path in targets:
            original = _resolve(module, path)
            if not callable(original):
                self.missing.append(name)
                continue
            if not rebind(original, make(name, original), package):
                self.missing.append(name)

    def _counter(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._generator_span(name, fn)
        work = WORK.get(name)
        relation = name in RELATIONS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self._enter(name)
            if work is not None:
                self.counts[work[0]] += work[1](*args)
            if relation:
                self.relation_pairs.add((name, frozenset(map(id, args[:2]))))
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, time.perf_counter() - t0)

        return spanned

    def _generator_span(self, name: str, fn: Callable) -> Callable:
        """A generator's work happens while it is resumed, so each resume is
        timed into the same span; the call is counted once and the items
        yielded are counted as `<name>.items`."""

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                self._enter(name, count=False)
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(name, time.perf_counter() - t0, count=False)
                self.counts[name + ".items"] += 1
                yield item

        return spanned

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str, count: bool = True) -> None:
        parent = self._stack[-1][0] if self._stack else None
        if count:
            self.edges[(parent, name)] += 1
        self._stack.append([name, 0.0])

    def _leave(self, name: str, elapsed: float, count: bool = True) -> None:
        _, covered = self._stack.pop()
        if count:
            self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - covered
        if self._stack:
            self._stack[-1][1] += elapsed

    def dump(self) -> dict:
        evaluations = sum(self.calls[r] for r in RELATIONS)
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "edges": [[p, c, k] for (p, c), k in self.edges.items()],
            "missing": self.missing,
            "relation": [len(self.relation_pairs), evaluations],
        }
