"""End-to-end and per-layer benchmark of the orthoapart command line.

usage: python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, with nothing to build.  Every operation is one `orthoapart` CLI
command in a fresh Python process, run one at a time (a closed loop with
one client), so each pays the interpreter start, the package import and
empty caches, as a CLI user does.

Workloads (see workloads.py):
  label-scan        verify-lemma3 / verify-lemma4 / scan-boundary: the label
                    route, bitmask pair scans over whole apartments.
  matrix-refine     refine FAMILY.json on dense rational families, one in
                    ten with a planted incompatible pair: the matrix route.
  operator-certify  counterexample comm / orth at n = 4: the same matrix
                    layers reached through operator relations on sparse
                    0/1 projections.

The seed fixes the command list.  The list is run in whole passes until
--seconds have passed, and every command's exit code and report are
checked after its pass, outside the timed region.  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
one traced pass and one scalar-counting pass follow the untimed passes and
the per-layer metrics are reported instead.  Earlier lines are for people:
an environment block, every metric with its unit, rates by n and, when
traced, which layers each workload reached.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import Command  # noqa: E402

SRC = ROOT / "src"
CLI = SRC / "orthoapart" / "cli.py"
CHILD = BENCH / "child.py"
TAIL_BEYOND = 10  # op_s.tail has at least this many samples beyond it
COMMAND_TIMEOUT_S = 120
LABEL_KINDS = ("lemma3", "lemma4", "scan")

# End-to-end metrics: name -> unit (work_rate's unit also names the work).
END_TO_END = {
    "setup_s": "s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "wall_s": "s",
    "work_rate": "units/s",
    "peak_rss_mb": "MB",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Outcome:
    cmd: Command
    spawn: float
    code: Optional[int]
    stdout: str
    record: Optional[dict] = None
    problem: Optional[str] = None

    @property
    def setup_s(self) -> float:
        return self.record["ready"] - self.spawn

    @property
    def op_s(self) -> float:
        return self.record["op_s"]


class Runner:
    """Spawns one child per command inside a scratch directory of the
    checkout, which it removes on close."""

    def __init__(self, cmds: List[Command], tag: str):
        self.cmds = cmds
        self.dir = ROOT / ".bench_tmp" / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        for cmd in cmds:
            for name, body in cmd.files.items():
                (self.dir / name).write_text(json.dumps(body))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    def warm_up(self) -> None:
        """Byte-compile the package once, a cost users pay only once."""
        subprocess.run([sys.executable, "-c", "import orthoapart.cli"], env=self.env,
                       cwd=ROOT, capture_output=True, timeout=COMMAND_TIMEOUT_S)

    def _argv(self, i: int, cmd: Command) -> List[str]:
        argv = [str(self.dir / a) if a in cmd.files else a for a in cmd.argv]
        return argv + ["--out", str(self.dir / f"report{i}.json")]

    def run_pass(self, mode: str) -> Tuple[float, List[Outcome]]:
        """Run every command once; return the pass's wall time and outcomes,
        then (untimed) read and check each outcome."""
        outcomes = []
        start = clock()
        for i, cmd in enumerate(self.cmds):
            record = self.dir / f"record{i}.json"
            args = [sys.executable, str(CHILD), str(record), mode, "--", *self._argv(i, cmd)]
            spawn = clock()
            try:
                done = subprocess.run(args, env=self.env, cwd=ROOT, capture_output=True,
                                      text=True, timeout=COMMAND_TIMEOUT_S)
                outcomes.append(Outcome(cmd, spawn, done.returncode, done.stdout))
            except subprocess.TimeoutExpired:
                outcomes.append(Outcome(cmd, spawn, None, "", problem="timed out"))
        wall = clock() - start
        for i, out in enumerate(outcomes):
            self._collect(i, out)
        return wall, outcomes

    def _collect(self, i: int, out: Outcome) -> None:
        record, report = self.dir / f"record{i}.json", self.dir / f"report{i}.json"
        try:
            if out.problem is None:
                out.record = json.loads(record.read_text())
                body = out.stdout if out.cmd.kind == "planted" else report.read_text()
                out.problem = checks.check(out.cmd, out.code, json.loads(body))
        except (OSError, ValueError) as exc:
            out.problem = f"exit {out.code}, unreadable output: {exc}"
        finally:
            record.unlink(missing_ok=True)
            report.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# statistics


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (value, percentile).  With too few samples, the maximum."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    rank = len(s) - TAIL_BEYOND
    return s[rank - 1], 100.0 * rank / len(s)


def end_to_end(workload: str, walls: List[float], outs: List[Outcome]) -> Tuple[dict, List[str]]:
    timed = [o for o in outs if o.record is not None]
    ops = [o.op_s for o in timed]
    tail_value, tail_pct = tail(ops)
    unit = workloads.UNITS[workload]
    units = sum(o.cmd.units for o in timed)
    metrics = {
        "setup_s": statistics.median(o.setup_s for o in timed),
        "op_s.p50": statistics.median(ops),
        "op_s.tail": tail_value,
        "wall_s": statistics.median(walls),
        "work_rate": units / sum(ops),
        "peak_rss_mb": max(o.record["maxrss_kb"] for o in timed) / 1024,
    }
    failed = sum(o.problem is not None for o in outs)
    notes = {
        "setup_s": f"median of {len(timed)} spawns",
        "op_s.p50": f"median of {len(ops)} commands",
        "op_s.tail": f"p{tail_pct:.1f} of {len(ops)} commands, {min(TAIL_BEYOND, len(ops) - 1)} beyond",
        "wall_s": f"median of {len(walls)} passes of {len(outs) // len(walls)} commands",
        "work_rate": f"{unit}, {units} units in {sum(ops):.3f} s of op time",
        "peak_rss_mb": f"max over {len(timed)} processes",
    }
    lines = [f"  {name:<12} {value:>12.6g} {END_TO_END[name]:<8} {notes[name]}"
             for name, value in metrics.items()]
    lines.append(f"  {'error_rate':<12} {failed / len(outs):>12.6g} {'ratio':<8} "
                 f"{failed} of {len(outs)} commands failed a check")
    return metrics, lines


def rates_by_n(workload: str, outs: List[Outcome]) -> List[str]:
    """work_rate and mean op time per command shape (subcommand and n)."""
    units, secs, count = Counter(), Counter(), Counter()
    for o in outs:
        if o.record is not None:
            units[o.cmd.shape] += o.cmd.units
            secs[o.cmd.shape] += o.op_s
            count[o.cmd.shape] += 1
    unit = workloads.UNITS[workload]
    order = sorted(units, key=lambda s: [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", s)])
    return [f"  {s:<36} {f'{units[s] / secs[s]:.6g} {unit}' if units[s] else '-':>20}  "
            f"mean op {secs[s] / count[s]:.4f} s" for s in order]


# ---------------------------------------------------------------------------
# per-layer metrics from the traced passes

# (span, fields) reported as "<span>.<field>"
STANDARD = (
    ("cli.cmd", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("apartments.enumerate_members", ("calls", "total_s")),
    ("apartments.Labeling.to_operator", ("calls", "total_s")),
    ("compatibility.Frame.init", ("total_s",)),
    ("compatibility.refine_to_frame", ("self_s", "total_s")),
    ("compatibility.split_into_lines", ("total_s",)),
    ("compatibility.is_compatible", ("calls", "total_s")),
    ("operators.commutes", ("calls", "total_s")),
    ("operators.orthogonal", ("calls", "total_s")),
    ("operators.materialize", ("calls", "total_s")),
    ("operators.image_of", ("calls",)),
    ("operators.SpectralOperator.init", ("total_s",)),
    ("rigidity.check_preservation", ("total_s",)),
    ("rigidity.gram_obstruction", ("total_s",)),
    ("subspaces.projection_of", ("calls", "total_s")),
    ("subspaces.intersect", ("calls", "total_s")),
    ("subspaces.span_sum", ("calls", "total_s")),
    ("subspaces.Subspace.contains", ("calls", "total_s")),
    ("subspaces.Subspace.is_orthogonal_to", ("calls", "total_s")),
    ("matrices.rref", ("calls", "self_s")),
    ("matrices.matmul", ("calls", "self_s")),
    ("matrices.inverse", ("calls",)),
    ("scalars.mul", ("calls",)),
    ("scalars.addsub", ("calls",)),
    ("scalars.div", ("calls",)),
    ("serialize.family_from_json", ("total_s",)),
    ("serialize.frame_to_json", ("total_s",)),
)

# Workloads on which each wrapped name must be reached; Subspace.contains
# is reached by no CLI command at this commit and has no home.
MATRIX = {"matrix-refine", "operator-certify"}
HOME = {
    "cli.main": set(workloads.WORKLOADS),
    "cli.cmd": set(workloads.WORKLOADS),
    "apartments.enumerate_members": {"label-scan", "operator-certify"},
    "apartments.Labeling.to_operator": {"operator-certify"},
    "compatibility.Frame.init": {"label-scan", "matrix-refine"},
    "compatibility.refine_to_frame": {"matrix-refine"},
    "compatibility.split_into_lines": MATRIX,
    "compatibility.is_compatible": MATRIX,
    "operators.commutes": {"operator-certify"},
    "operators.orthogonal": {"operator-certify"},
    "operators.materialize": {"operator-certify"},
    "operators.image_of": {"operator-certify"},
    "operators.SpectralOperator.init": {"operator-certify"},
    "rigidity.check_preservation": {"operator-certify"},
    "rigidity.gram_obstruction": {"operator-certify"},
    "subspaces.projection_of": MATRIX,
    "subspaces.intersect": MATRIX,
    "subspaces.complement_within": {"matrix-refine"},
    "subspaces.span_sum": {"operator-certify"},
    "subspaces.Subspace.contains": set(),
    "subspaces.Subspace.is_orthogonal_to": MATRIX,
    "matrices.rref": MATRIX,
    "matrices.matmul": MATRIX,
    "matrices.inverse": MATRIX,
    "scalars.mul": MATRIX,
    "scalars.addsub": MATRIX,
    "scalars.div": MATRIX,
    "serialize.family_from_json": {"matrix-refine"},
    "serialize.frame_to_json": {"matrix-refine"},
}

PER_LAYER_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def merge_traces(outs: List[Outcome]) -> dict:
    agg = {"calls": Counter(), "total_s": Counter(), "self_s": Counter(),
           "counts": Counter(), "edges": Counter(), "missing": set(),
           "relation": [0, 0], "pair_mask": None}
    for o in outs:
        t = (o.record or {}).get("trace")
        if t is None:
            continue
        for key in ("calls", "total_s", "self_s", "counts"):
            agg[key].update(t[key])
        for parent, child, k in t["edges"]:
            agg["edges"][(parent, child)] += k
        agg["missing"].update(t["missing"])
        agg["relation"] = [a + b for a, b in zip(agg["relation"], t["relation"])]
        if "pair_mask" in t:
            pm = agg["pair_mask"] or [0, 0]
            agg["pair_mask"] = [a + b for a, b in zip(pm, t["pair_mask"])]
    return agg


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(agg: dict, cmds: List[Command], overhead_s: float) -> Dict[str, Tuple[Optional[float], str]]:
    """name -> (value, unit); value None when a name it needs is missing."""
    missing = agg["missing"]
    out: Dict[str, Tuple[Optional[float], str]] = {}

    def put(name, value, unit, *needs):
        out[name] = (None if missing.intersection(needs) else value, unit)

    for span, fields in STANDARD:
        for field in fields:
            put(f"{span}.{field}", agg[field][span], PER_LAYER_UNITS[field], span)
    # member pairs the label commands' pair loops cover, computed from the classes
    put("cli.pairs", sum(c.units for c in cmds if c.kind in LABEL_KINDS),
        "count", "cli.cmd")
    put("apartments.members", agg["counts"]["apartments.enumerate_members.items"],
        "count", "apartments.enumerate_members")
    pm = agg["pair_mask"]
    out["apartments.pair_mask.hit_ratio"] = (
        None if pm is None else _ratio(pm[0], pm[0] + pm[1]), "ratio")
    edges = agg["edges"]
    put("compatibility.refine.useful_ratio",
        _ratio(edges[("compatibility.refine_to_frame", "subspaces.complement_within")],
               edges[("compatibility.refine_to_frame", "subspaces.intersect")]),
        "ratio", "compatibility.refine_to_frame", "subspaces.complement_within",
        "subspaces.intersect")
    distinct, evaluations = agg["relation"]
    put("rigidity.relation.useful_ratio", _ratio(distinct, evaluations), "ratio",
        "operators.commutes", "operators.orthogonal")
    put("matrices.rref.cells", agg["counts"]["matrices.rref.cells"], "count", "matrices.rref")
    put("matrices.matmul.madds", agg["counts"]["matrices.matmul.madds"], "count",
        "matrices.matmul")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def home_check(workload: str, agg: dict) -> List[str]:
    lines = []
    for name, homes in HOME.items():
        if name in agg["missing"]:
            lines.append(f"  {name:<40} missing from the package")
        elif workload in homes:
            calls = agg["calls"][name]
            lines.append(f"  {name:<40} {calls:>10} calls  {'ok' if calls else 'NOT REACHED'}")
        elif not homes:
            lines.append(f"  {name:<40} {agg['calls'][name]:>10} calls  "
                         "(reached by no CLI command)")
    return lines


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "commit": commit,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help='one workload, or "all" to run each in turn')
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not CLI.is_file():
        print(f"error: {CLI.relative_to(ROOT)} not found; run from a source checkout",
              file=sys.stderr)
        return 2
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child, and through Runner.close
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(name, args) for name in names)


def run_workload(workload: str, args) -> int:
    """Run one workload and print its report; the last line is the JSON
    result."""
    cmds = workloads.commands(workload, args.seed)
    print(f"orthoapart bench: workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    runner = Runner(cmds, f"{workload}-{args.seed}-{os.getpid()}")
    try:
        runner.warm_up()
        walls, outs = [], []
        start = clock()
        # whole passes keep the command mix fixed; start another one only
        # if it should end within half a pass of --seconds
        while not walls or clock() - start + statistics.mean(walls) / 2 < args.seconds:
            wall, pass_outs = runner.run_pass("plain")
            walls.append(wall)
            outs.extend(pass_outs)
        traced = []
        if args.trace:
            traced_wall, traced = runner.run_pass("spans")
            _, counted = runner.run_pass("scalars")
            traced += counted
    finally:
        runner.close()

    every = outs + traced
    failed = [o for o in every if o.problem is not None]
    for o in failed[:10]:
        print(f"FAILED {' '.join(o.cmd.argv)}: {o.problem}", file=sys.stderr)
    timed = [o for o in outs if o.record is not None]
    if not timed:
        print("error: no command completed", file=sys.stderr)
        return 1

    print(f"closed loop, one client: {len(walls)} passes x {len(cmds)} commands")
    metrics, lines = end_to_end(workload, walls, outs)
    print("end-to-end:")
    print("\n".join(lines))
    print("work_rate by n:")
    print("\n".join(rates_by_n(workload, outs)))

    if args.trace:
        agg = merge_traces(traced)
        layers = per_layer(agg, cmds, traced_wall - metrics["wall_s"])
        print(f"per-layer (one spans pass, one scalar-count pass; traced wall_s "
              f"{traced_wall:.6g} s against untraced {metrics['wall_s']:.6g} s):")
        for name, (value, unit) in layers.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"  {name:<44} {shown:>14} {unit}")
        print("wrapped names on their home workloads:")
        print("\n".join(home_check(workload, agg)))
        result = {name: ({"value": 0, "unit": unit, "missing": True} if value is None
                         else {"value": value, "unit": unit})
                  for name, (value, unit) in layers.items()}
    else:
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": len(every),
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
