"""Record tests/data/stdout_golden.json: the exit code and output digests of
a matrix of CLI commands.

    PYTHONPATH=src python3 tests/record_stdout.py

Each command runs through `weylfan.cli.main` in this interpreter.  Its entry
holds the exit code, the sha256 and length of its stdout, and the sha256 of
its stderr with the clock figures of the `elapsed:` line masked.
`test_cli.py::test_stdout_matches_the_golden_file` replays every command of
the file.  A change that moves output on purpose re-records the file, and
its diff names the commands that moved.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from weylfan.cli import main

GOLDEN = Path(__file__).parent / "data" / "stdout_golden.json"

_ELAPSED = re.compile(r"^elapsed:.*$", re.MULTILINE)
_SECONDS = re.compile(r"\d+\.\d+s")

# the count methods that run an oracle search
_ORACLE_METHODS = ("oracle", "all")

# refused requests, one per refusal site
_REFUSALS = (
    "count --faces -n -1",
    "count --faces -n 9 --method oracle",
    "count --flats -n 3 --oracle-cap 2",
    "count --faces -n 3 --method all --oracle-cap 2",
    "count -n 3",
    "count --faces -n 3 --threads 2",
    "enumerate faces -n 0",
    "enumerate chambers -n 2 -k 1",
    "enumerate faces -n 6 --limit 10",
    "graph -n 0",
    "graph -n 13",
    "verify -n 3",
    "verify --oracle",
    "verify --oracle -n 0",
    "verify --oracle -n 9",
    "verify --oracle -n 2 --oracle-cap 1",
    "verify --non-simply-laced --oracle-cap 2",
)


def commands():
    """The command lines of the matrix, each a string of space-separated
    arguments.  At n = 7 the oracle methods run once per table (`--method
    all` in text), since those two searches cost more than the rest."""
    for kind in ("chambers", "faces", "flats"):
        for n in range(1, 9):
            for fmt in ("json", "text"):
                yield f"enumerate {kind} -n {n} --format {fmt}"
                if kind != "chambers" and n <= 5:
                    for k in range(-1, n + 2):
                        yield f"enumerate {kind} -n {n} -k {k} --format {fmt}"
    for table in ("faces", "flats"):
        for method in ("recurrence", "series", "closed-form", "enumerate", *_ORACLE_METHODS):
            for fmt in ("text", "json", "csv"):
                for n in (0, 1, 2, 5, 7, 30):
                    for k in ("", " -k 1"):
                        if n == 7 and method in _ORACLE_METHODS and (method, fmt, k) != ("all", "text", ""):
                            continue
                        yield f"count --{table} -n {n} --method {method} --format {fmt}{k}"
    for n in range(1, 13):
        for fmt in ("dot", "json"):
            yield f"graph -n {n} --format {fmt}"
    yield "verify"
    yield "verify --non-simply-laced"
    for n in range(1, 7):
        yield f"verify --oracle -n {n}"
    yield from _REFUSALS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outcome(command: str) -> dict:
    """Run one command line through the CLI and digest what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(command.split())
    stdout = out.getvalue().encode()
    stderr = _ELAPSED.sub(lambda m: _SECONDS.sub("#s", m.group()), err.getvalue())
    return {
        "exit": code,
        "stdout_sha256": _sha256(stdout),
        "stdout_bytes": len(stdout),
        "stderr_sha256": _sha256(stderr.encode()),
    }


def record() -> dict:
    return {command: outcome(command) for command in commands()}


if __name__ == "__main__":
    golden = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"{len(golden)} commands -> {GOLDEN}", file=sys.stderr)
