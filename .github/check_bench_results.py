"""Check the output of `bench/run.py` for its result lines.

Usage: python3 .github/check_bench_results.py OUTPUT WORKLOADS

OUTPUT is what `bench/run.py --workload all` printed, traced or not.  Each
workload's block starts with an `orthoapart bench: workload=` line and must
end with its result line: one JSON object with `correct`, `attempted`,
`failed` and `metrics`, every number in it finite.  Every other line that
starts with `{` must parse too.  Exits 1, naming the line, on the first
fault, and when the number of blocks is not WORKLOADS.
"""

from __future__ import annotations

import json
import math
import sys


def _number(text: str) -> float:
    """A JSON number or constant, refused unless finite: json.loads reads
    NaN and Infinity, and 1e999 as inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _parse(line: str):
    return json.loads(line, parse_float=_number, parse_constant=_number)


def check(lines: list, workloads: int) -> str | None:
    """The first fault in the output, or None."""
    blocks = []
    for number, line in enumerate(lines, 1):
        if line.startswith("orthoapart bench: workload="):
            blocks.append([])
        if line.startswith("{"):
            try:
                _parse(line)
            except ValueError as exc:
                return f"line {number} is not JSON with finite numbers ({exc}): {line[:200]}"
        if blocks:
            blocks[-1].append((number, line))
    if len(blocks) != workloads:
        return f"{len(blocks)} workload blocks, expected {workloads}"
    for block in blocks:
        number, last = block[-1]
        try:
            result = _parse(last)
        except ValueError:
            return f"the block of line {block[0][0]} ends at line {number} without a result: {last[:200]}"
        if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
            return f"line {number} is not a result line: {last[:200]}"
    return None


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        fault = check(fh.read().splitlines(), int(sys.argv[2]))
    if fault:
        print(f"bench output: {fault}", file=sys.stderr)
        sys.exit(1)
