"""Compare saved runs of ncbench/run.py, one workload and trace mode at a time.

    python3 ncbench/compare.py BASE.txt NEW.txt

Each file holds the concatenated stdout of one or more runs. For every
metric it prints the median and quartiles of each side and the ratio of the
medians. It refuses (exit 2) when the runs differ in integer backend,
workload or trace mode: gmpy2 alone moves `kernels.det_s` about 4x, so such
numbers do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> tuple[set, list[dict]]:
    """(set of (backend, workload) stamps, result objects) of the runs in a file."""
    stamps, results = set(), []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if "env" in record:
                stamps.add((record["env"]["integer_backend"], record["workload"]))
            elif "metrics" in record:
                results.append(record)
    return stamps, results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_stamps, base), (new_stamps, new) = load(argv[0]), load(argv[1])
    stamps = base_stamps | new_stamps
    names = [set(r["metrics"]) for r in base + new]
    if len(stamps) != 1 or not base or not new or any(n != names[0] for n in names):
        print(f"refused: runs differ in backend, workload or trace mode: {sorted(stamps)}", file=sys.stderr)
        return 2
    print(f"# backend, workload: {stamps.pop()}; runs: {len(base)} base, {len(new)} new")
    for name in sorted(names[0]):
        b = quartiles([r["metrics"][name]["value"] for r in base])
        n = quartiles([r["metrics"][name]["value"] for r in new])
        ratio = n[1] / b[1] if b[1] else float("nan")
        unit = base[0]["metrics"][name]["unit"]
        print(f"{name:27} {unit:6} base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
              f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}]  new/base {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
