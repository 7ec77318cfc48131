"""Write frozen/<workload>.json: each item's output at the current commit.

    python3 perfbench/freeze.py [WORKLOAD ...]

The frozen outputs are a regression guard: run.py fails an item whose output
differs from them by a single byte.  They were written at commit 5b64db1;
rewrite them only when an output is meant to change, and say so.  Nothing is
written for a workload whose outputs fail an oracle check.
"""

from __future__ import annotations

import json
import sys

import checks
import params
from run import PassFailed, run_pass


def freeze(workload: str) -> None:
    report = run_pass(workload, seed=0, index=0, trace=False, spans_path=None)
    outputs = {}
    for item in report["items"]:
        if item["error"] or item["exit"] != 0:
            raise PassFailed(f"{workload} item {item['item']}: exit {item['exit']} {item['error'] or ''}")
        key = "round" if workload == "model-construction" else str(item["item"])
        if outputs.setdefault(key, item["output"]) != item["output"]:
            raise PassFailed(f"{workload}: rounds of one pass gave different outputs")
        problems = checks.oracle_problems(workload, item["item"], json.loads(item["output"]))
        if problems:
            raise PassFailed(f"{workload} item {item['item']}: " + "; ".join(problems))
    path = checks.FROZEN_DIR / f"{workload}.json"
    path.write_text(json.dumps(dict(sorted(outputs.items())), indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {path.relative_to(checks.HERE.parent)} ({len(outputs)} outputs)")


def main(argv: list[str]) -> int:
    for workload in argv or params.WORKLOADS:
        if workload not in params.WORKLOADS:
            print(f"error: unknown workload {workload!r}", file=sys.stderr)
            return 2
        freeze(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
