"""Self-check of the pipeline benchmark, at the ``tiny`` size.

Runs every workload once untraced and twice traced on the same seed,
then asserts that each run passed its output checks, printed every
metric named in ``BENCHMARK.json`` with its unit, and that the exact
counters repeated between the two traced runs.  Takes about a minute::

    python3 pipebench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(workload: str, trace: int) -> Dict[str, Any]:
    """One tiny run's result line, plus its exact counters."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    record = ROOT / ".pipebench" / "results" / (
        f"{workload}-seed{SEED}-tiny-trace{trace}.json")
    result["counters"] = json.loads(record.read_text())["counters"]
    return result


def problems(workload: str, result: Dict[str, Any],
             units: Dict[str, str]) -> List[str]:
    found = []
    if not result["correct"] or result["failed"]:
        found.append(f"{workload}: outputs failed their checks")
    if result["attempted"] < 1:
        found.append(f"{workload}: nothing attempted")
    for name, unit in units.items():
        metric = result["metrics"].get(name)
        if metric is None:
            found.append(f"{workload}: metric {name} missing")
        elif metric["unit"] != unit:
            found.append(f"{workload}: {name} in {metric['unit']}, "
                         f"not {unit}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    found: List[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        found += problems(workload, run(workload, 0), e2e)
        first, second = run(workload, 1), run(workload, 1)
        found += problems(workload, first, layers)
        found += problems(workload, second, layers)
        if first["counters"] != second["counters"]:
            changed = sorted(
                name for name in first["counters"]
                if first["counters"][name] != second["counters"].get(name))
            found.append(f"{workload}: exact counters differ between two "
                         f"runs of seed {SEED}: {changed}")
        print(f"{workload}: checked", flush=True)
    for problem in found:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if found else "passed"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
