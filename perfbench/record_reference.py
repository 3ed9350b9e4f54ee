"""Record reference.json: the stdout digest of every fixed benchmark command.

    python3 perfbench/record_reference.py

Run once on the commit whose output is the reference, from the root of the
checkout.  Each command must pass its semantic checks first.  Commands whose
expected stdout is rendered from an independent path (the seeded count rows)
need no entry.
"""

import json
import sys
import time

import run
import workloads as W


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.SCRATCH.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + 3600
    references = {}
    for workload in W.WORKLOADS:
        for cmd in W.build(workload, 0):
            if cmd.expected is not None:
                continue
            res = run.run_child(run.command_argv(cmd), deadline)
            problems = cmd.problems(res["returncode"], res["stdout"], {cmd.label: "unchecked"})
            problems = [p for p in problems if "reference" not in p]
            if problems:
                print(f"{cmd.label}: {problems}", file=sys.stderr)
                return 1
            references[cmd.label] = W.sha256(cmd.view(res["stdout"]))
            print(f"{cmd.label}: {references[cmd.label]}")
    W.REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
