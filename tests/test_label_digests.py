"""Label reports on the benchmark's label-scan commands must not change.

`tests/data/label_bench_digests.json` holds, for every command of the
label-scan workload at seeds 1-3 (bench/workloads.py), the sha256 of its
argv and of the exit code, stdout, stderr and `--out` report of `main`, each
run to stdout and with `--out`.  Re-record it from a commit whose reports
are known good with

    PYTHONPATH=src python tests/test_label_digests.py > tests/data/label_bench_digests.json
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from test_refine_digests import _run, _sha  # noqa: E402

DIGESTS = os.path.join(ROOT, "tests", "data", "label_bench_digests.json")
SEEDS = (1, 2, 3)


def label_records() -> list:
    """One record per label-scan command of the workload at each seed."""
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for seed in SEEDS:
            for cmd in workloads.commands("label-scan", seed):
                rec = {"seed": seed, "shape": cmd.shape, "argv": _sha(json.dumps(cmd.argv)),
                       "stdout": _run(cmd.argv)}
                ran = _run(cmd.argv + ["--out", out], out)
                ran["report"] = None
                if os.path.exists(out):
                    with open(out) as fh:
                        ran["report"] = _sha(fh.read())
                    os.unlink(out)
                rec["out"] = ran
                records.append(rec)
    return records


def test_label_reports_match_recorded_digests():
    with open(DIGESTS) as fh:
        want = json.load(fh)
    got = label_records()
    assert [(r["seed"], r["shape"], r["argv"]) for r in got] == \
        [(r["seed"], r["shape"], r["argv"]) for r in want], "the workload's commands changed"
    for g, w in zip(got, want):
        assert g == w, (g["seed"], g["shape"])


if __name__ == "__main__":
    print(json.dumps(label_records(), indent=1))
