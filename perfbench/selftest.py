"""Self-test of the benchmark.

    python3 perfbench/selftest.py [workload ...]

1. The tracer's stats cross-check catches an entry point left unwrapped in
   the namespace that calls it (in-process, a second).
2. For each workload (default: all three), two traced runs with the same
   seed give identical stdout digests, untraced counters and traced counters
   and call counts (two runs each: about 30 s for flats, 45 s for cells,
   2 min for combinatorial).

Exits 0 when every check holds.  Run from the root of the checkout.
"""

import json
import re
import subprocess
import sys

import run
import workloads as W


def check_tracer_catches_a_missed_namespace() -> list:
    sys.path.insert(0, str(run.SRC))
    import trace_child
    import weylfan.oracle.cells as cells

    original = cells.strict_feasible
    tracer = trace_child.Tracer()
    tracer.install()
    wrapped = cells.strict_feasible
    try:
        cells.strict_feasible = original  # as if rebinding had missed this module
        cells.enumerate_cells(2)
        missed = list(tracer.problems)
        tracer.problems.clear()
        cells.strict_feasible = wrapped
        cells.enumerate_cells(2)
        caught = list(tracer.problems)
    finally:
        cells.strict_feasible = original
    found = []
    if not missed:
        found.append("an unwrapped strict_feasible in oracle.cells went unnoticed")
    if caught:
        found.append(f"a fully wrapped run reported problems: {caught}")
    return found


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, check=False,
    )
    match = re.search(r"record (\S+\.json)", out.stdout)
    if out.returncode != 0 or match is None:
        raise RuntimeError(f"{workload} run failed:\n{out.stdout}\n{out.stderr}")
    return json.loads((run.ROOT / match.group(1)).read_text(encoding="utf-8"))


def fingerprint(result: dict) -> dict:
    """Everything in a run that must not depend on the clock."""
    commands = [rec for p in result["passes"] for rec in p["commands"]]
    return {
        "digests": [(r["label"], r["sha256"]) for r in commands],
        "counters": [(r["label"], r["counters"]) for r in commands],
        "trace_counters": result["counters"],
        "calls": {k: f["calls"] for k, f in result["functions"].items()},
        "per_layer_counts": {
            k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"
        },
    }


def main(argv) -> int:
    problems = check_tracer_catches_a_missed_namespace()
    for workload in argv or W.WORKLOADS:
        first, second = (fingerprint(traced_run(workload, 11)) for _ in range(2))
        for key in first:
            if first[key] != second[key]:
                problems.append(f"{workload}: {key} differ between two runs")
        print(f"{workload}: two runs compared", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
