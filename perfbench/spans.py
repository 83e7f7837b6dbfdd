"""Summarize a traced run's spans by name: calls, inclusive and self time.

    python3 perfbench/spans.py .perfbench_out/dtn-sweep-seed1-trace1-spans.jsonl

Times are per traced op.  Aggregated kernel calls have no spans; their
totals are in the run record next to the spans file.
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    rows: dict[str, list] = {}
    ops = set()
    with open(path, encoding="utf-8") as f:
        for line in f:
            s = json.loads(line)
            ops.add(s["op"])
            row = rows.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["end"] - s["start"]
            row[2] += s["self_s"]
    n = max(len(ops), 1)
    print(f"{'span':32s} {'calls/op':>9s} {'incl s/op':>10s} {'self s/op':>10s} "
          f"{'incl ms/call':>12s}")
    for name, (calls, incl, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        print(f"{name:32s} {calls / n:9.1f} {incl / n:10.4f} {own / n:10.4f} "
              f"{1e3 * incl / calls:12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
