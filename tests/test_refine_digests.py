"""Refine reports on the benchmark's matrix-refine families must not change.

`tests/data/refine_bench_digests.json` holds, for every refine command of
the matrix-refine workload at seeds 1-3 (bench/workloads.py), the sha256 of
its input file and of the exit code, stdout, stderr and `--out` report of
`main`, each run to stdout and with `--out`.  Re-record it from a commit
whose reports are known good with

    PYTHONPATH=src python tests/test_refine_digests.py > tests/data/refine_bench_digests.json
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

from orthoapart.cli import main  # noqa: E402

DIGESTS = os.path.join(ROOT, "tests", "data", "refine_bench_digests.json")
SEEDS = (1, 2, 3)


def _sha(text) -> str:
    return hashlib.sha256(str(text).encode()).hexdigest()


def _run(argv, out="{out}") -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    stdout = stdout.getvalue().replace(out, "{out}")
    return {"exit": _sha(code), "stdout": _sha(stdout), "stderr": _sha(stderr.getvalue())}


def refine_records() -> list:
    """One record per refine command of the workload at each seed."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        family, out = os.path.join(tmp, "family.json"), os.path.join(tmp, "report.json")
        for seed in SEEDS:
            for cmd in workloads.commands("matrix-refine", seed):
                (name, body), = cmd.files.items()
                text = json.dumps(body)
                with open(family, "w") as fh:
                    fh.write(text)
                rec = {"seed": seed, "name": name, "input": _sha(text),
                       "stdout": _run(["refine", family])}
                ran = _run(["refine", family, "--out", out], out)
                ran["report"] = None
                if os.path.exists(out):  # an incompatible family writes no report
                    with open(out) as fh:
                        ran["report"] = _sha(fh.read())
                    os.unlink(out)
                rec["out"] = ran
                records.append(rec)
    return records


def test_refine_reports_match_recorded_digests():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = refine_records()
    assert [(r["seed"], r["name"], r["input"]) for r in got] == \
        [(r["seed"], r["name"], r["input"]) for r in want], "the workload's families changed"
    for g, w in zip(got, want):
        assert g == w, (g["seed"], g["name"])


if __name__ == "__main__":
    print(json.dumps(refine_records(), indent=1))
