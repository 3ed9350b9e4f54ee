"""The three benchmark workloads, their commands and the output checks.

Every check relies on a computing path other than the one being timed:
count rows are compared byte for byte with output rendered here from an
independent recurrence, computed outside the timed region; enumerations are
counted against the recurrences; fixed commands are compared with the
seed-commit digests in ``reference.json``.

Only stable interfaces are used: the four CLI subcommands with their
documented flags, and public library functions.  No ``--threads``, no cap
flags, no ``WEYLFAN_*`` variables, no ``_private`` names.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("cells", "flats", "combinatorial")

# Function keys (layer.function, as the tracer names them) that must record
# calls on each workload.  A zero means an entry point was rebound in the
# wrong namespace, or the workload stopped reaching that layer.
EXPECTED_BOUNDARIES = {
    "cells": (
        "cli.main",
        "counting.g_recurrence",
        "incidence.weight_indices",
        "oracle.cells.enumerate_cells",
        "oracle.cells.enumerate_generic_cells",
        "oracle.flats.enumerate_flats_geometric",
        "oracle.linalg.kernel_basis",
        "oracle.linalg.rank_of",
        "oracle.simplex.cone_positive",
        "oracle.simplex.simplex_max",
        "oracle.simplex.strict_feasible",
        "oracle.weightsystems.chamber_cell_counts",
        "oracle.weightsystems.check_weights_proportional_to_roots",
    ),
    "flats": (
        "cli.main",
        "counting.h_recurrence",
        "counting.h_series",
        "incidence.weight_indices",
        "oracle.flats.enumerate_flats_geometric",
        "oracle.linalg.kernel_basis",
        "oracle.linalg.rank_of",
        "oracle.simplex.cone_positive",
        "oracle.simplex.simplex_max",
        "poset.enumerate_ensembles",
    ),
    "combinatorial": (
        "chambers.all_chambers",
        "chambers.extreme_rays",
        "cli.main",
        "counting.g_closed_form",
        "counting.g_recurrence",
        "counting.g_series",
        "counting.h_recurrence",
        "incidence.chamber_adjacency_graph",
        "incidence.face_from_chain",
        "incidence.flats_of",
        "library.ray_ranks",
        "oracle.linalg.rank_of",
        "poset.enumerate_chains",
        "poset.enumerate_ensembles",
    ),
}

# Per-layer metrics that must be non-zero on each workload: the layers the
# workload is meant to exercise.
EXPECTED_NONZERO = {
    "cells": (
        "simplex.lp_calls", "simplex.s", "simplex.pivots", "simplex.pivots_per_lp",
        "simplex.feasible_ratio", "linalg.rank.calls", "linalg.kernel.calls",
        "cells.self_s", "cells.nodes", "cells.witness_hits", "cells.witness_hit_ratio",
        "cells.count", "flats.self_s", "flats.closures", "flats.count",
        "flats.flats_per_closure", "flats.lp_per_closure", "weightsystems.s",
        "cli.self_s", "cli.stdout_bytes",
    ),
    "flats": (
        "simplex.lp_calls", "simplex.s", "simplex.pivots", "simplex.pivots_per_lp",
        "simplex.feasible_ratio", "linalg.rank.calls", "linalg.rank.s",
        "linalg.kernel.calls", "linalg.kernel.s", "flats.self_s", "flats.closures",
        "flats.count", "flats.flats_per_closure", "flats.lp_per_closure",
        "counting.calls", "poset.items", "cli.self_s", "cli.stdout_bytes",
    ),
    "combinatorial": (
        "linalg.rank.calls", "linalg.rank.s", "counting.calls", "counting.s",
        "poset.items", "poset.s", "chambers.calls", "chambers.s", "incidence.calls",
        "incidence.s", "cli.self_s", "cli.stdout_bytes",
    ),
}

FORMATS = ("text", "json", "csv")
PROVENANCE = {
    "recurrence": "recurrence",
    "series": "rational-expansion",
    "closed-form": "closed-form",
    "all": "recurrence",
}


@dataclass
class Command:
    """One timed step: a CLI invocation (``kind == "cli"``) or the ray-rank
    library call (``kind == "rays"``)."""

    label: str
    kind: str
    argv: tuple = ()
    expected: Optional[bytes] = None  # exact stdout, rendered from another path
    check: Optional[Callable[[bytes], list]] = None  # extra semantic check
    view: Callable[[bytes], bytes] = field(default=lambda out: out)  # what the reference pins

    def problems(self, returncode: int, stdout: bytes, references: dict) -> list:
        found = []
        if returncode != 0:
            found.append(f"exit code {returncode}")
        if self.expected is not None and stdout != self.expected:
            found.append("stdout differs from the independently computed row")
        if self.check is not None:
            try:
                found += self.check(stdout)
            except (ValueError, KeyError, TypeError) as exc:
                found.append(f"output check raised {exc!r}")
        ref = references.get(self.label)
        if self.expected is None and ref is None:
            found.append("no reference digest recorded")
        elif ref is not None and sha256(self.view(stdout)) != ref:
            found.append("stdout digest differs from the reference")
        return found


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def oracle_stats(stdout: bytes) -> dict:
    """The deterministic search counters that verify --oracle prints."""
    report = json.loads(stdout)
    return {part: report[part]["stats"] for part in ("cells", "flats")}


# --- independent computing paths (run outside the timed region) -------------


def faces_row(n: int) -> list:
    """Face counts by the polynomial recurrence G_n = (2+2t)G_{n-1} - (1+t)G_{n-2};
    the CLI paths timed here are the grouping recurrence, the series and the
    alternating-sum closed form."""
    from weylfan.counting import g_polynomial

    for m in range(n + 1):  # ascending, so the memoized recursion stays shallow
        row = g_polynomial(m)
    return list(row)


def flats_row(n: int) -> list:
    """Flat counts by the eight-term linear recurrence; the CLI path timed here
    is the mutual recursion with rho."""
    from weylfan.counting import h_linear_recurrence

    for m in range(n + 1):
        h_linear_recurrence(m, 0)
    return [h_linear_recurrence(n, k) for k in range(n + 1)]


def render_row(table: str, n: int, row: list, method: str, fmt: str) -> bytes:
    """The documented ``count`` output for a full row."""
    prov = PROVENANCE[method]
    if fmt == "text":
        text = " ".join(str(v) for v in row) + "\n"
    elif fmt == "json":
        entries = [{"k": k, "n": n, "provenance": prov, "value": v} for k, v in enumerate(row)]
        text = json.dumps({"entries": entries, "table": table}, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        text = "table,n,k,value,provenance\n" + "".join(
            f"{table},{n},{k},{v},{prov}\n" for k, v in enumerate(row)
        )
    return text.encode()


def count_command(table: str, n: int, method: str, fmt: str, row: list) -> Command:
    argv = ["count", f"--{table}", "-n", str(n)]
    if method != "recurrence":
        argv += ["--method", method]
    if fmt != "text":
        argv += ["--format", fmt]
    return Command(" ".join(argv), "cli", tuple(argv), expected=render_row(table, n, row, method, fmt))


# --- semantic checks -------------------------------------------------------


def check_oracle_match(stdout: bytes) -> list:
    report = json.loads(stdout)
    return [] if report["match"] is True else ['verify --oracle does not report "match": true']


def without_oracle_stats(stdout: bytes) -> bytes:
    """verify --oracle output minus the search statistics.  The reference pins
    the counts; the statistics may change with the search algorithm, and are
    recorded as counters instead."""
    report = json.loads(stdout)
    for part in ("cells", "flats"):
        report[part].pop("stats", None)
    return json.dumps(report, sort_keys=True, separators=(",", ":")).encode()


def check_last_line_ok(stdout: bytes) -> list:
    lines = stdout.decode().splitlines()
    return [] if lines and lines[-1] == "ok" else ['last line is not "ok"']


def check_line_count(expected: int) -> Callable[[bytes], list]:
    def check(stdout: bytes) -> list:
        lines = stdout.count(b"\n")
        return [] if lines == expected else [f"{lines} records, the recurrence counts {expected}"]

    return check


def check_graph(n: int) -> Callable[[bytes], list]:
    def check(stdout: bytes) -> list:
        nodes = len(json.loads(stdout)["nodes"])
        return [] if nodes == 2**n else [f"graph has {nodes} nodes, expected {2 ** n}"]

    return check


def check_ray_ranks(stdout: bytes) -> list:
    from ray_ranks import TOP

    found = []
    lines = stdout.decode().splitlines()
    if len(lines) != TOP:
        return [f"{len(lines)} rank lines, expected {TOP}"]
    for n, line in enumerate(lines, start=1):
        fields = dict(part.split("=") for part in line.split())
        if int(fields["n"]) != n or int(fields["chambers"]) != 2**n:
            found.append(f"bad chamber line {line!r}")
        if int(fields["min_rank"]) != n or int(fields["max_rank"]) != n:
            found.append(f"ray ranks at n={n} are not all {n}")
    return found


# --- the workloads -----------------------------------------------------------


def fixed(label: str, **kw) -> Command:
    return Command(label, "cli", tuple(label.split()), **kw)


def build(workload: str, seed: int) -> list:
    """The workload's command list; the same seed gives the same list."""
    from weylfan.counting import g_recurrence, h_recurrence

    rng = random.Random(seed)
    if workload == "cells":
        commands = [
            fixed("verify --oracle -n 4", check=check_oracle_match, view=without_oracle_stats),
            fixed("verify --oracle -n 3", check=check_oracle_match, view=without_oracle_stats),
            fixed("verify --non-simply-laced", check=check_last_line_ok),
        ]
    elif workload == "flats":
        commands = [count_command("flats", 5, "all", "text", flats_row(5))]
    elif workload == "combinatorial":
        # A recurrence row costs about n^3.  M is paired with N so that the
        # two rows together cost about the same for every seed, which keeps
        # the workload's total work independent of the seed.
        n_faces = rng.randint(200, 240)
        n_flats = round(150 * (2 - (n_faces / 220) ** 3) ** (1 / 3))
        n_series = rng.randint(190, 210)
        series_row = faces_row(n_series)
        commands = [
            count_command("faces", n_faces, "recurrence", rng.choice(FORMATS), faces_row(n_faces)),
            count_command("flats", n_flats, "recurrence", rng.choice(FORMATS), flats_row(n_flats)),
            count_command("faces", n_series, "series", rng.choice(FORMATS), series_row),
            count_command("faces", n_series, "closed-form", rng.choice(FORMATS), series_row),
            fixed("verify", check=check_last_line_ok),
            fixed(
                "enumerate faces -n 8",
                check=check_line_count(sum(g_recurrence(8, k) for k in range(9))),
            ),
            fixed(
                "enumerate flats -n 8",
                check=check_line_count(sum(h_recurrence(8, k) for k in range(9))),
            ),
            fixed("graph -n 12 --format json", check=check_graph(12)),
            Command("library: ray ranks n<=10", "rays", check=check_ray_ranks),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(commands)
    return commands
